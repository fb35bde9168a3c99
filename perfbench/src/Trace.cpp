//===- perfbench/src/Trace.cpp - Bench-side spans -------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

uint32_t Tracer::name(std::string_view N) {
  if (uint32_t Id = find(N); Id != NoName)
    return Id;
  Names.emplace_back(N);
  return static_cast<uint32_t>(Names.size() - 1);
}

uint32_t Tracer::find(std::string_view N) const {
  for (uint32_t I = 0; I < Names.size(); ++I)
    if (Names[I] == N)
      return I;
  return NoName;
}

SpanBuffer &Tracer::buffer() {
  std::lock_guard<std::mutex> Lock(M);
  Buffers.emplace_back(static_cast<uint32_t>(Buffers.size()), SpansPerBuffer);
  return Buffers.back();
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<Span> All;
  for (const SpanBuffer &B : Buffers)
    All.insert(All.end(), B.Spans.begin(), B.Spans.end());
  std::sort(All.begin(), All.end(), [](const Span &A, const Span &B) {
    return A.StartNs != B.StartNs ? A.StartNs < B.StartNs : A.Id < B.Id;
  });
  return All;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> Lock(M);
  uint64_t D = 0;
  for (const SpanBuffer &B : Buffers)
    D += B.Dropped;
  return D;
}

namespace {

constexpr uint32_t NoParent = ~0u;

/// Index of each span's parent in \p Spans (NoParent for roots and for
/// parents that were not recorded), and the spans grouped by parent:
/// ByParent[ChildBegin[P] .. ChildBegin[P+1]) are P's children.
struct SpanTree {
  std::vector<uint32_t> Parent, ByParent, ChildBegin;

  explicit SpanTree(const std::vector<Span> &Spans) {
    const uint32_t N = static_cast<uint32_t>(Spans.size());
    std::vector<uint32_t> ById(N);
    for (uint32_t I = 0; I < N; ++I)
      ById[I] = I;
    std::sort(ById.begin(), ById.end(), [&](uint32_t A, uint32_t B) {
      return Spans[A].Id < Spans[B].Id;
    });
    Parent.assign(N, NoParent);
    ChildBegin.assign(N + 1, 0);
    for (uint32_t I = 0; I < N; ++I) {
      if (!Spans[I].Parent)
        continue;
      auto It = std::lower_bound(
          ById.begin(), ById.end(), Spans[I].Parent,
          [&](uint32_t K, uint64_t Id) { return Spans[K].Id < Id; });
      if (It != ById.end() && Spans[*It].Id == Spans[I].Parent) {
        Parent[I] = *It;
        ++ChildBegin[*It + 1];
      }
    }
    for (uint32_t I = 0; I < N; ++I)
      ChildBegin[I + 1] += ChildBegin[I];
    ByParent.resize(ChildBegin[N]);
    std::vector<uint32_t> Fill(ChildBegin.begin(), ChildBegin.end() - 1);
    for (uint32_t I = 0; I < N; ++I)
      if (Parent[I] != NoParent)
        ByParent[Fill[Parent[I]]++] = I;
  }
};

} // namespace

std::vector<double> selfTimesNs(const std::vector<Span> &Spans) {
  SpanTree Tree(Spans);
  std::vector<double> Self(Spans.size());
  std::vector<std::pair<int64_t, int64_t>> Iv;
  for (size_t P = 0; P < Spans.size(); ++P) {
    const Span &S = Spans[P];
    Iv.clear();
    for (uint32_t K = Tree.ChildBegin[P]; K < Tree.ChildBegin[P + 1]; ++K) {
      const Span &C = Spans[Tree.ByParent[K]];
      int64_t B = std::max(C.StartNs, S.StartNs);
      int64_t E = std::min(C.EndNs, S.EndNs);
      if (B < E)
        Iv.emplace_back(B, E);
    }
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0, CurB = 0, CurE = 0;
    bool Open = false;
    for (auto [B, E] : Iv) {
      if (Open && B <= CurE) {
        CurE = std::max(CurE, E);
        continue;
      }
      if (Open)
        Covered += CurE - CurB;
      CurB = B;
      CurE = E;
      Open = true;
    }
    if (Open)
      Covered += CurE - CurB;
    Self[P] = static_cast<double>(S.EndNs - S.StartNs - Covered);
  }
  return Self;
}

std::vector<LayerRow> layerTable(const Tracer &T,
                                 const std::vector<Span> &Spans,
                                 const std::vector<double> &SelfNs) {
  SpanTree Tree(Spans);
  std::map<uint32_t, LayerRow> Rows;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    LayerRow &R = Rows[S.Name];
    R.Name = T.nameOf(S.Name);
    ++R.Count;
    R.TotalNs += static_cast<double>(S.EndNs - S.StartNs);
    R.SelfNs += SelfNs[I];
    if (Tree.Parent[I] != NoParent)
      R.ParentName = T.nameOf(Spans[Tree.Parent[I]].Name);
  }
  // Each parent's duration counts once toward every child name under it.
  std::vector<uint32_t> Names;
  for (size_t P = 0; P < Spans.size(); ++P) {
    Names.clear();
    for (uint32_t K = Tree.ChildBegin[P]; K < Tree.ChildBegin[P + 1]; ++K)
      Names.push_back(Spans[Tree.ByParent[K]].Name);
    std::sort(Names.begin(), Names.end());
    Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
    for (uint32_t N : Names)
      Rows[N].ParentTotalNs +=
          static_cast<double>(Spans[P].EndNs - Spans[P].StartNs);
  }
  std::vector<LayerRow> Out;
  for (auto &[Name, Row] : Rows)
    Out.push_back(Row);
  std::sort(Out.begin(), Out.end(), [](const LayerRow &A, const LayerRow &B) {
    return A.Name < B.Name;
  });
  return Out;
}

std::string formatLayerTable(const std::vector<LayerRow> &Rows) {
  std::string Out;
  char Line[256];
  std::snprintf(Line, sizeof Line, "%-34s %10s %12s %12s %8s  %s\n", "span",
                "count", "total_ms", "self_ms", "share", "of parent");
  Out += Line;
  for (const LayerRow &R : Rows) {
    std::snprintf(Line, sizeof Line, "%-34s %10llu %12.3f %12.3f %8.4f  %s\n",
                  R.Name.c_str(), static_cast<unsigned long long>(R.Count),
                  R.TotalNs / 1e6, R.SelfNs / 1e6, R.parentShare(),
                  R.ParentName.empty() ? "(root)" : R.ParentName.c_str());
    Out += Line;
  }
  return Out;
}

bool writeSpanDump(const std::string &Path, const Tracer &T,
                   const std::vector<Span> &Spans, size_t MaxSpans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fputs("{\"traceEvents\":[\n", F);
  size_t N = std::min(MaxSpans, Spans.size());
  for (size_t I = 0; I < N; ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}\n",
                 I ? "," : "", T.nameOf(S.Name).c_str(), S.Thread,
                 static_cast<double>(S.StartNs - Origin) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request));
  }
  std::fprintf(F, "],\"spansRecorded\":%zu,\"spansWritten\":%zu}\n",
               Spans.size(), N);
  return std::fclose(F) == 0;
}

} // namespace perfbench
