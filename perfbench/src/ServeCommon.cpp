//===- perfbench/src/ServeCommon.cpp - Serve-layer plumbing ---------------===//

#include "ServeCommon.h"

#include "pst/serve/Protocol.h"

#include <algorithm>
#include <cstdio>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <thread>

using namespace pst;
using namespace pst::serve;

namespace perfbench {

namespace {

/// Responses each reader keeps for the uncached replay, spread evenly over
/// the phase's length, so responses read late in a run are checked too.
constexpr unsigned SamplesPerReader = 2000;
/// Every LatencyEvery-th query a reader reads the clock, and times that
/// query if LatencySlotNs have passed since the last one it timed. The
/// rest only count toward throughput. So a reader stores at most 25k
/// latencies a second however fast the host runs: a store that grew with
/// the query rate moved peak_rss_mb by 14% between a slow and a fast run.
constexpr unsigned LatencyEvery = 16;
constexpr int64_t LatencySlotNs = 40000;
/// Readers stamp the time of every MarkEvery-th query, for windowedRates.
constexpr unsigned MarkEvery = 256;
/// A traced phase records spans for one request in TraceEvery, which
/// keeps a 4-reader trace to a few hundred thousand spans.
constexpr unsigned TraceEvery = 256;
/// Edits per insert commit; the matching delete commit removes them. An
/// assumed batch size, not taken from a measured edit stream.
constexpr unsigned EditsPerCommit = 2;
/// Function commits of a traced phase replayed through freeze and PST
/// build after it stops (spread evenly over its commit log).
constexpr size_t RefreezeSamples = 512;

constexpr RequestKind Kinds[] = {RequestKind::Region,  RequestKind::Regions,
                                 RequestKind::Cdep,    RequestKind::Dom,
                                 RequestKind::Phi,     RequestKind::Name};
constexpr const char *KindNames[] = {"region", "regions", "cdep",
                                     "dom",    "phi",     "name"};

size_t kindIndex(RequestKind K) {
  for (size_t I = 0; I < std::size(Kinds); ++I)
    if (Kinds[I] == K)
      return I;
  return 0;
}

/// Span name ids, interned before any recording thread starts.
struct ServeNames {
  uint32_t Request, Parse, Resolve, Exec[std::size(Kinds)];
  uint32_t Batch, Edit, Commit, Freeze, PstBuild;

  explicit ServeNames(Tracer &T)
      : Request(T.name("serve.request")), Parse(T.name("protocol.parse")),
        Resolve(T.name("serve.resolve")), Batch(T.name("serve.commit_batch")),
        Edit(T.name("shard.edit")), Commit(T.name("shard.commit")),
        Freeze(T.name("snapshot.freeze")), PstBuild(T.name("core.pst_build")) {
    for (size_t I = 0; I < std::size(Kinds); ++I)
      Exec[I] = T.name(std::string("serve.execute.") + KindNames[I]);
  }
};

/// One seeded protocol line of the read mix: region 30%, dom 20%, cdep
/// 20%, phi 20%, regions 5%, name 5%; the function drawn with Zipf skew.
void makeLine(Rng &Gen, const PhaseConfig &C, std::string &Line,
              uint64_t &Fn) {
  uint64_t Roll = below(Gen, 100);
  Fn = C.Fns->sample(Gen);
  const uint64_t N = (*C.NumNodes)[Fn];
  auto Node = [&] { return static_cast<unsigned long long>(below(Gen, N)); };
  const auto F = static_cast<unsigned long long>(Fn);
  char Buf[128];
  if (Roll < 30) {
    unsigned long long A = Node(), B = Node();
    std::snprintf(Buf, sizeof Buf, "region %llu %llu %llu", F, A, B);
  } else if (Roll < 50) {
    std::snprintf(Buf, sizeof Buf, "dom %llu %llu", F, Node());
  } else if (Roll < 70) {
    std::snprintf(Buf, sizeof Buf, "cdep %llu %llu", F, Node());
  } else if (Roll < 90) {
    int Len = std::snprintf(Buf, sizeof Buf, "phi %llu %llu", F, Node());
    for (uint64_t D = below(Gen, 3); D > 0; --D)
      Len += std::snprintf(Buf + Len, sizeof Buf - Len, ",%llu", Node());
  } else if (Roll < 95) {
    std::snprintf(Buf, sizeof Buf, "regions %llu", F);
  } else {
    std::snprintf(Buf, sizeof Buf, "name %llu", F);
  }
  Line.assign(Buf);
}

struct ReaderOut {
  std::vector<uint32_t> Ns;
  std::vector<int64_t> Marks;
  uint64_t Queries = 0, Errors = 0;
  std::vector<ResponseSample> Samples;
  uint64_t TracedRequests = 0, TracedBytes = 0, LagSum = 0, LagMax = 0;
};

void readerLoop(const PstServer &S, const PhaseConfig &C, unsigned Index,
                const std::atomic<bool> &Stop, ReaderOut &Out,
                SpanBuffer *Buf, const ServeNames *N) {
  Rng Gen(deriveSeed(C.Seed, 0x7ead00 + Index));
  QueryScratch Sc;
  std::string Line, Resp;
  Out.Ns.reserve(static_cast<size_t>(C.Seconds * 1e9 / LatencySlotNs) + 1);
  int64_t NextTimedAt = 0;
  // The query after the first timed one past each NextSampleAt is kept
  // for the uncached replay; it is never itself timed.
  const int64_t SampleGapNs =
      static_cast<int64_t>(C.Seconds * 1e9 / SamplesPerReader);
  int64_t NextSampleAt = nowNs();
  bool SampleNext = false;
  for (uint64_t Seq = 0; !Stop.load(std::memory_order_relaxed); ++Seq) {
    uint64_t Fn = 0;
    makeLine(Gen, C, Line, Fn);
    const Shard &Sh = S.shardOf(Fn);
    const bool Sample = SampleNext;
    SampleNext = false;
    // Versions only grow, so equal pins before and after execute bracket
    // the version execute's own pin read.
    const uint64_t V0 = Sample ? Sh.pin().version() : 0;
    const bool Traced = Buf && Seq % TraceEvery == 0;
    int64_t T0 = Seq % LatencyEvery == 0 ? nowNs() : 0;
    const bool Timed = T0 != 0 && T0 >= NextTimedAt;
    if (Timed)
      NextTimedAt = T0 + LatencySlotNs;
    ParsedLine P;
    if (!Traced) {
      P = parseLine(Line);
      Resp = S.execute(P.Q, Sc);
    } else {
      const uint64_t Req = (uint64_t(Index) + 1) << 40 | Seq;
      ScopedSpan Root(Buf, N->Request, 0, Req);
      {
        ScopedSpan Sp(Buf, N->Parse, Root.id(), Req);
        P = parseLine(Line);
      }
      {
        ScopedSpan Sp(Buf, N->Resolve, Root.id(), Req);
        auto Pin = Sh.pin();
        uint64_t Lag = Sh.currentVersion() - Pin.version();
        ResolvedFunction F = Sh.resolve(*Pin, Fn);
        Out.LagSum += Lag;
        Out.LagMax = std::max(Out.LagMax, Lag);
        (void)F;
      }
      {
        ScopedSpan Sp(Buf, N->Exec[kindIndex(P.Q.Kind)], Root.id(), Req);
        Resp = S.execute(P.Q, Sc);
      }
      ++Out.TracedRequests;
      Out.TracedBytes += Resp.size();
    }
    if (Timed) {
      const int64_t T1 = nowNs();
      Out.Ns.push_back(
          static_cast<uint32_t>(std::min<int64_t>(T1 - T0, UINT32_MAX)));
      if (T1 >= NextSampleAt) {
        SampleNext = true;
        NextSampleAt = T1 + SampleGapNs;
      }
    }
    if (++Out.Queries % MarkEvery == 0)
      Out.Marks.push_back(nowNs());
    if (P.Kind != ParsedLine::Type::Query || Resp.compare(0, 3, "ok ") != 0)
      ++Out.Errors;
    if (Sample && Sh.pin().version() == V0)
      Out.Samples.push_back({Sh.index(), V0, Line, Resp});
  }
}

/// Balanced edits: each shard alternates an insert commit (EditsPerCommit
/// seeded sites) with a delete commit removing exactly those edges, so
/// function sizes stay stationary. Every thread-safe-by-contract writer
/// call happens on this one thread.
void writerLoop(PstServer &S, const PhaseConfig &C,
                const std::atomic<bool> &Stop, PhaseResult &Out,
                std::vector<int64_t> &Marks, Report &R, SpanBuffer *Buf,
                const ServeNames *N) {
  std::vector<std::vector<EditSite>> ByShard(S.numShards());
  for (const EditSite &E : *C.Sites)
    ByShard[S.shardOf(E.Fn).index()].push_back(E);
  std::vector<std::vector<EditSite>> Pending(S.numShards());
  Rng Gen(deriveSeed(C.Seed, 0xed17));

  auto CommitShard = [&](uint32_t Si, uint64_t Req) {
    Shard &Sh = S.shard(Si);
    CommitRecord Rec;
    Rec.Shard = Si;
    ScopedSpan Batch(Buf, Buf ? N->Batch : 0, 0, Req);
    const bool Insert = Pending[Si].empty();
    std::vector<EditSite> Sites;
    if (Insert)
      for (unsigned K = 0; K < EditsPerCommit; ++K)
        Sites.push_back(ByShard[Si][below(Gen, ByShard[Si].size())]);
    else
      Sites.swap(Pending[Si]);
    uint64_t Rejected = 0;
    for (const EditSite &E : Sites) {
      bool Ok;
      {
        ScopedSpan Sp(Buf, Buf ? N->Edit : 0, Batch.id(), Req);
        Ok = Insert ? Sh.insertEdge(E.Fn, E.Src, E.Dst) != InvalidEdge
                    : Sh.deleteEdge(E.Fn, E.Src, E.Dst);
      }
      Rec.Ops.push_back({Insert, E, Ok});
      if (Insert && Ok)
        Pending[Si].push_back(E);
      Rejected += !Ok;
    }
    R.attempts(Sites.size(), Rejected, "edit rejected by the shard");
    int64_t T0 = nowNs();
    {
      ScopedSpan Sp(Buf, Buf ? N->Commit : 0, Batch.id(), Req);
      Rec.Version = Sh.commit();
    }
    const int64_t T1 = nowNs();
    Out.CommitUs.push_back((T1 - T0) / 1e3);
    Marks.push_back(T1);
    Out.Log.push_back(std::move(Rec));
  };

  uint64_t K = 0;
  while (!Stop.load(std::memory_order_relaxed)) {
    uint32_t Si = static_cast<uint32_t>(K % S.numShards());
    ++K;
    if (!ByShard[Si].empty())
      CommitShard(Si, K);
  }
  // Leave every shard balanced: delete whatever is still inserted.
  for (uint32_t Si = 0; Si < S.numShards(); ++Si)
    if (!Pending[Si].empty())
      CommitShard(Si, ++K);
}

/// The refreeze share of a commit, estimated from outside once the traced
/// phase has stopped (so the writer's commit rate is the untraced one): a
/// from-scratch freeze and PST build of writerGraph(Fn) for up to
/// RefreezeSamples function commits of Log[First..]. The graphs are the
/// post-phase ones; balanced edits leave each within two edges of any
/// state it was committed in.
void traceRefreeze(PstServer &S, Tracer &T, const ServeNames &N,
                   const PhaseResult &P, size_t First) {
  std::vector<uint64_t> Fns;
  for (size_t I = First; I < P.Log.size(); ++I) {
    std::set<uint64_t> InCommit;
    for (const EditOp &Op : P.Log[I].Ops)
      InCommit.insert(Op.Site.Fn);
    Fns.insert(Fns.end(), InCommit.begin(), InCommit.end());
  }
  SpanBuffer &Buf = T.buffer();
  const size_t Take = std::min(Fns.size(), RefreezeSamples);
  for (size_t K = 0; K < Take; ++K) {
    const uint64_t Fn = Fns[K * Fns.size() / Take];
    Cfg G = S.shardOf(Fn).writerGraph(Fn);
    {
      ScopedSpan Sp(&Buf, N.Freeze, 0, K);
      auto Snap = FunctionSnapshot::freeze(G, S.image().functionName(Fn));
    }
    ScopedSpan Sp(&Buf, N.PstBuild, 0, K);
    ProgramStructureTree Tree = ProgramStructureTree::build(G);
  }
}

} // namespace

ZipfSampler readSampler(const std::vector<uint32_t> &NumNodes, uint64_t Seed) {
  return ZipfSampler(NumNodes.size(), ZipfExponent, deriveSeed(Seed, 0x21bf),
                     sizeClasses(NumNodes, SizeClasses));
}

std::vector<uint32_t> nodeCounts(const CorpusImage &Img) {
  std::vector<uint32_t> Out(Img.numFunctions());
  for (uint64_t I = 0; I < Out.size(); ++I)
    Out[I] = Img.func(I).NumNodes;
  return Out;
}

std::vector<EditSite> editSites(const CorpusImage &Img,
                                const std::vector<uint64_t> &Fns,
                                unsigned PerFunction, uint64_t Seed) {
  std::vector<EditSite> Out;
  Rng Gen(deriveSeed(Seed, 0x517e5));
  for (uint64_t Fn : Fns) {
    CfgView V = Img.cfg(Fn);
    for (unsigned P = 0, Tries = 0; P < PerFunction && Tries < 64 * PerFunction;
         ++Tries) {
      NodeId Src = static_cast<NodeId>(below(Gen, V.numNodes()));
      if (Src == V.exit() || V.outDegree(Src) == 0)
        continue;
      NodeId Dst = Src;
      for (uint64_t Steps = 1 + below(Gen, 3); Steps > 0; --Steps) {
        auto Succ = V.succNodes(Dst);
        if (Succ.empty())
          break;
        Dst = Succ[below(Gen, Succ.size())];
      }
      if (Dst == V.entry())
        continue;
      Out.push_back({Fn, Src, Dst});
      ++P;
    }
  }
  return Out;
}

WarmServer openWarmServer(const std::string &Path, int Times, Report &R) {
  WarmServer W;
  for (int K = 0; K < Times; ++K) {
    W.Server.reset(); // Free the previous server before timing the next.
    std::string Err;
    int64_t T0 = nowNs();
    bool Verified = verifyImageFile(Path, &Err);
    R.attempt(Verified, "verifyImageFile: " + Err);
    CorpusImage Img = CorpusImage::map(Path, &Err);
    R.attempt(Img.valid(), "CorpusImage::map: " + Err);
    if (!Img.valid())
      return W;
    ServeOptions Opts;
    Opts.NumShards = ServeShards;
    Opts.NumThreads = 1; // Clients are the benchmark's own threads.
    auto Server = std::make_unique<PstServer>(std::move(Img), Opts);

    const uint64_t N = Server->numFunctions();
    std::vector<double> Lat;
    uint64_t Errors = 0;
    QueryScratch Sc;
    Request Rq;
    Rq.Kind = RequestKind::Regions;
    const int64_t Touch0 = nowNs();
    for (uint64_t Fn = 0; Fn < N; ++Fn) {
      Rq.Fn = Fn;
      int64_t Q0 = nowNs();
      std::string Resp = Server->execute(Rq, Sc);
      Lat.push_back((nowNs() - Q0) / 1e3);
      Errors += Resp.compare(0, 3, "ok ") != 0;
    }
    const int64_t End = nowNs();
    W.SetupS.push_back((End - T0) / 1e9);
    W.TouchPerS.push_back(N / ((End - Touch0) / 1e9));
    R.attempts(Lat.size(), Errors, "first-touch query failed");
    W.TouchUs.push_back(std::move(Lat));
    W.Server = std::move(Server);
  }
  return W;
}

void runServePhase(PstServer &S, const PhaseConfig &C, PhaseResult &Out,
                   Report &R) {
  if (Out.InitialVersion.empty())
    for (uint32_t I = 0; I < S.numShards(); ++I)
      Out.InitialVersion.push_back(S.shard(I).currentVersion());
  std::optional<ServeNames> Names;
  if (C.T)
    Names.emplace(*C.T);
  const ServeNames *N = Names ? &*Names : nullptr;

  std::atomic<bool> Stop{false};
  const size_t FirstRecord = Out.Log.size();
  std::vector<ReaderOut> Readers(C.Readers);
  std::vector<std::thread> Threads;
  int64_t T0 = nowNs();
  for (unsigned I = 0; I < C.Readers; ++I) {
    SpanBuffer *Buf = C.T ? &C.T->buffer() : nullptr;
    Threads.emplace_back([&, I, Buf] {
      readerLoop(S, C, I, Stop, Readers[I], Buf, N);
    });
  }
  std::vector<std::vector<int64_t>> CommitMarks(1);
  if (C.Writer) {
    SpanBuffer *Buf = C.T ? &C.T->buffer() : nullptr;
    Threads.emplace_back([&, Buf] {
      writerLoop(S, C, Stop, Out, CommitMarks[0], R, Buf, N);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(C.Seconds));
  Stop.store(true);
  int64_t StopAt = nowNs();
  for (std::thread &T : Threads)
    T.join();
  if (C.T && C.Writer)
    traceRefreeze(S, *C.T, *N, Out, FirstRecord);
  std::vector<std::vector<int64_t>> QueryMarks;
  for (ReaderOut &Rd : Readers)
    QueryMarks.push_back(std::move(Rd.Marks));
  Out.QueryRates = windowedRates(QueryMarks, MarkEvery, T0, StopAt);
  Out.QueryRate = median(Out.QueryRates);
  Out.CommitRate = median(windowedRates(CommitMarks, 1, T0, StopAt));
  for (ReaderOut &Rd : Readers) {
    Out.Queries += Rd.Queries;
    Out.QueryNs.push_back(std::move(Rd.Ns));
    for (ResponseSample &Smp : Rd.Samples)
      Out.Samples.push_back(std::move(Smp));
    Out.TracedRequests += Rd.TracedRequests;
    Out.TracedResponseBytes += Rd.TracedBytes;
    Out.EpochLagSum += Rd.LagSum;
    Out.EpochLagMax = std::max(Out.EpochLagMax, Rd.LagMax);
    R.attempts(Rd.Queries, Rd.Errors, "query answered with an error");
  }
}

void checkServePhase(PstServer &S, const std::string &Path,
                     const PhaseResult &P, Report &R) {
  for (uint32_t I = 0; I < S.numShards(); ++I) {
    std::string Why;
    R.attempt(S.shard(I).verifyPublished(&Why),
              "verifyPublished shard " + std::to_string(I) + ": " + Why);
  }

  std::string Err;
  CorpusImage Img = CorpusImage::map(Path, &Err);
  R.attempt(Img.valid(), "CorpusImage::map for the uncached replay: " + Err);
  if (!Img.valid())
    return;
  ServeOptions Opts;
  Opts.NumShards = S.numShards();
  Opts.NumThreads = 1;
  Opts.DerivedCache = false;
  PstServer U(std::move(Img), Opts);

  // Samples by (shard, version); each shard replays on its own thread,
  // which is that shard's single writer.
  std::vector<std::map<uint64_t, std::vector<const ResponseSample *>>> At(
      U.numShards());
  for (const ResponseSample &Smp : P.Samples)
    At[Smp.Shard][Smp.Version].push_back(&Smp);
  std::vector<uint64_t> Checked(U.numShards()), Bad(U.numShards());
  std::vector<std::thread> Threads;
  for (uint32_t Si = 0; Si < U.numShards(); ++Si)
    Threads.emplace_back([&, Si] {
      Shard &Sh = U.shard(Si);
      QueryScratch Sc;
      auto CheckAt = [&](uint64_t Version) {
        auto It = At[Si].find(Version);
        if (It == At[Si].end())
          return;
        for (const ResponseSample *Smp : It->second) {
          ++Checked[Si];
          ParsedLine L = parseLine(Smp->Line);
          Bad[Si] += U.execute(L.Q, Sc) != Smp->Response;
        }
      };
      ++Checked[Si];
      Bad[Si] += Sh.currentVersion() != P.InitialVersion[Si];
      CheckAt(P.InitialVersion[Si]);
      for (const CommitRecord &Rec : P.Log) {
        if (Rec.Shard != Si)
          continue;
        for (const EditOp &Op : Rec.Ops) {
          const EditSite &E = Op.Site;
          bool Ok = Op.Insert
                        ? Sh.insertEdge(E.Fn, E.Src, E.Dst) != InvalidEdge
                        : Sh.deleteEdge(E.Fn, E.Src, E.Dst);
          ++Checked[Si];
          Bad[Si] += Ok != Op.Ok;
        }
        ++Checked[Si];
        Bad[Si] += Sh.commit() != Rec.Version;
        CheckAt(Rec.Version);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (uint32_t Si = 0; Si < U.numShards(); ++Si)
    R.attempts(Checked[Si], Bad[Si],
               "uncached replay differs (shard " + std::to_string(Si) + ")");
}

void reportServeLayers(const Tracer &T, const PhaseResult &P,
                       const DerivedCacheStats &Before,
                       const DerivedCacheStats &After,
                       const std::string &CacheScope, Report &R) {
  std::vector<Span> Spans = T.collect();
  auto Durations = [&](std::string_view Name) {
    std::vector<double> Out;
    uint32_t Id = T.find(Name);
    for (const Span &S : Spans)
      if (S.Name == Id)
        Out.push_back(static_cast<double>(S.EndNs - S.StartNs));
    return Out;
  };
  std::vector<double> Parse = Durations("protocol.parse");
  Summary ParseS = summarize(Parse);
  R.metric("protocol.parse_ns", ParseS.P50, "ns", ParseS.Count,
           "parseLine, median over traced requests");
  std::vector<double> Resolve = Durations("serve.resolve");
  Summary ResolveS = summarize(Resolve);
  R.metric("serve.resolve_ns", ResolveS.P50, "ns", ResolveS.Count,
           "Shard::pin + currentVersion + resolve, median");
  for (const char *K : KindNames) {
    std::vector<double> D = Durations(std::string("serve.execute.") + K);
    Summary S = summarize(D);
    R.metric(std::string("serve.execute_p50_ns.") + K, S.P50, "ns", S.Count,
             "PstServer::execute");
    R.metric(std::string("serve.execute_p99_ns.") + K, S.P99, "ns", S.Count,
             "PstServer::execute");
  }
  const double Req = static_cast<double>(std::max<uint64_t>(1, P.TracedRequests));
  R.metric("serve.response_bytes", P.TracedResponseBytes / Req, "bytes",
           P.TracedRequests, "mean response size");
  R.metric("serve.epoch_lag", P.EpochLagSum / Req, "versions",
           P.TracedRequests,
           "mean currentVersion() - pinned version (max " +
               std::to_string(P.EpochLagMax) + ")");
  const uint64_t Builds = After.Builds - Before.Builds;
  const uint64_t Hits = After.Hits - Before.Hits;
  const uint64_t Waits = After.Waits - Before.Waits;
  const std::string Delta = "derivedCacheStats() change over " + CacheScope;
  R.metric("serve.cache.builds", Builds, "count", 1, Delta);
  R.metric("serve.cache.hits", Hits, "count", 1, Delta);
  R.metric("serve.cache.waits", Waits, "count", 1, Delta);
  R.metric("serve.cache.build_ms", (After.BuildNs - Before.BuildNs) / 1e6,
           "ms", Builds, "total bundle build time");
  R.metric("serve.cache.bytes_mb",
           (After.BytesBuilt - Before.BytesBuilt) / (1024.0 * 1024.0), "MB",
           Builds, "bundle bytes built");
  const uint64_t Lookups = Builds + Hits + Waits;
  R.metric("serve.cache.hit_ratio",
           Lookups ? static_cast<double>(Hits) / Lookups : 0, "ratio", Lookups,
           "hits over bundle lookups (base: " + std::to_string(Lookups) + ")");
}

void reportWriterLayers(const Tracer &T, const PstServer &S,
                        const PhaseResult &P, Report &R) {
  std::vector<Span> Spans = T.collect();
  auto MeanNs = [&](std::string_view Name, uint64_t &Count) {
    uint32_t Id = T.find(Name);
    double Sum = 0;
    Count = 0;
    for (const Span &Sp : Spans)
      if (Sp.Name == Id) {
        Sum += static_cast<double>(Sp.EndNs - Sp.StartNs);
        ++Count;
      }
    return Count ? Sum / Count : 0;
  };
  uint64_t N = 0;
  double EditNs = MeanNs("shard.edit", N);
  R.metric("shard.edit_ns", EditNs, "ns", N, "mean Shard edit call");
  double FreezeNs = MeanNs("snapshot.freeze", N);
  R.metric("snapshot.freeze_ns", FreezeNs, "ns", N,
           "FunctionSnapshot::freeze of writerGraph(Fn), per committed fn, "
           "after the phase");
  double BuildNs = MeanNs("core.pst_build", N);
  R.metric("core.pst_build_ns", BuildNs, "ns", N,
           "ProgramStructureTree::build of writerGraph(Fn), after the phase");

  ShardStats Sum;
  IncrementalPstStats Inc;
  std::set<uint64_t> Edited;
  for (const CommitRecord &Rec : P.Log)
    for (const EditOp &Op : Rec.Ops)
      Edited.insert(Op.Site.Fn);
  for (uint32_t I = 0; I < S.numShards(); ++I) {
    ShardStats St = S.shard(I).stats();
    Sum.Edits += St.Edits;
    Sum.EditsRejected += St.EditsRejected;
    Sum.Refrozen += St.Refrozen;
    Sum.Published += St.Published;
    Sum.Reclaimed += St.Reclaimed;
  }
  for (uint64_t Fn : Edited)
    if (const IncrementalPstStats *W = S.shardOf(Fn).writerStats(Fn)) {
      Inc.Commits += W->Commits;
      Inc.NodesReprocessed += W->NodesReprocessed;
      Inc.FullRecomputeNodes += W->FullRecomputeNodes;
      Inc.FullRebuilds += W->FullRebuilds;
      Inc.SubtreesRebuilt += W->SubtreesRebuilt;
    }
  R.metric("shard.edits", Sum.Edits, "count", 1, "accepted edits");
  R.metric("shard.edits_rejected", Sum.EditsRejected, "count", 1,
           "base: " + std::to_string(Sum.Edits + Sum.EditsRejected) +
               " edits attempted");
  R.metric("shard.refrozen", Sum.Refrozen, "count", 1);
  R.metric("shard.published", Sum.Published, "count", 1);
  R.metric("shard.reclaimed", Sum.Reclaimed, "count", 1);
  R.metric("incremental.nodes_reprocessed_per_commit",
           Inc.Commits ? double(Inc.NodesReprocessed) / Inc.Commits : 0,
           "count", Inc.Commits,
           "per function commit (base: " + std::to_string(Inc.Commits) +
               " function commits)");
  R.metric("incremental.reprocess_ratio", Inc.reprocessRatio(), "ratio",
           Inc.Commits,
           "nodes reprocessed over full-recompute nodes (base: " +
               std::to_string(Inc.FullRecomputeNodes) + ")");
  R.metric("incremental.full_rebuilds", Inc.FullRebuilds, "count", 1);
  R.metric("incremental.subtree_rebuilds", Inc.SubtreesRebuilt, "count", 1);
}

/// Builds the fixture image at \p Path with the pooled stream builder.
bool buildFixture(const CorpusSource &Src, const std::string &Path,
                         Report &R) {
  BatchOptions BO;
  BO.NumThreads = ThreadBudget;
  BatchAnalyzer Engine(BO);
  BenchProducer P(Src);
  std::string Err;
  bool Ok = buildImage(Engine, Src, P, Path, Err) > 0;
  R.attempt(Ok, "fixture buildImageStream: " + Err);
  return Ok;
}

void reportServeMetrics(PhaseResult &P, WarmServer &W, double PeakRss,
                        double TailQ, const std::string &TailName,
                        Report &R) {
  const uint64_t N = sampleCount(P.QueryNs);
  R.metric("primary_per_s", P.QueryRate, "1/s", P.Queries,
           "query_qps per reader: (reader, time window) pairs");
  R.metric("primary_p50_us",
           median(windowedPercentiles(P.QueryNs, 0.50)) / 1e3,
           "us", N, "query_p50_us: parseLine + execute");
  R.metric("primary_tail_us",
           median(windowedPercentiles(P.QueryNs, TailQ)) / 1e3, "us", N,
           TailName + ": parseLine + execute");
  std::string PerWindow = "queries/s per (reader, time window):";
  for (double V : P.QueryRates)
    PerWindow += " " + std::to_string(static_cast<int64_t>(V));
  R.note(PerWindow);
  std::string PerSetup = "set-up s / functions warmed per s, per set-up:";
  for (size_t I = 0; I < W.SetupS.size(); ++I)
    PerSetup += " " + std::to_string(W.SetupS[I]) + "/" +
                std::to_string(static_cast<int64_t>(W.TouchPerS[I]));
  R.note(PerSetup);
  R.metric("setup_s", median(W.SetupS), "s", W.SetupS.size(),
           "verify + map + server + first touch of every function");
  R.metric("peak_rss_mb", PeakRss, "MB", 1, "getrusage high-water mark");
}

void runEditProbe(PstServer &S, const PhaseConfig &Base, PhaseResult &P,
                  Report &R) {
  std::vector<uint64_t> Fns;
  Rng Gen(deriveSeed(Base.Seed, 0xed1f));
  for (unsigned K = 0; K < 64; ++K)
    Fns.push_back(below(Gen, S.numFunctions()));
  const std::vector<EditSite> Sites = editSites(S.image(), Fns, 4, Base.Seed);
  PhaseConfig E = Base;
  E.Readers = 0;
  E.Writer = true;
  E.Seconds = 2;
  E.Sites = &Sites;
  runServePhase(S, E, P, R);
  reportWriterLayers(*Base.T, S, P, R);
}

} // namespace perfbench
