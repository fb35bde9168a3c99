//===- perfbench/src/StreamBuild.cpp - The stream_build workload ----------===//
//
// stream_build: 25k CorpusStream functions through the pooled out-of-core
// image build (BatchAnalyzer::buildImageStream, BuildWorkers workers),
// then verifyImageFile, CorpusImage::map and analyzeCorpusStream over the
// mapped image. It never touches the serving layer.
//
// One closed-loop client (the main thread) repeats build -> verify -> map
// -> analyze until the run's time is up; each build is a round, each
// analysis pass one too. Reported (README.md has the map), each the median
// over rounds:
//
//   primary_per_s     functions built per second (build_fns_per_s)
//   primary_p50/tail  fill-pass chunk turnaround: time between consecutive
//                     producer calls while the build fills the file (p50,
//                     p90 of each build)
//   secondary_per_s   functions analyzed per second (analyze_fns_per_s)
//   secondary_p50/tail analysis window turnaround in analyzeCorpusStream
//                     (p50, p90 of each pass)
//   setup_s           verifyImageFile + CorpusImage::map of the new image,
//                     median over builds
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"
#include "ServeCommon.h"

#include "pst/cdg/ControlRegions.h"
#include "pst/cycleequiv/CycleEquiv.h"
#include "pst/workload/CorpusStream.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>

using namespace pst;

namespace perfbench {

namespace {

/// Functions per build: a round of about a second at one worker, so a
/// run holds about twenty of them.
constexpr uint64_t StreamFunctions = 25000;
constexpr size_t AnalyzeWindow = 512;
constexpr int AnalyzePasses = 3;
constexpr size_t SampleFunctions = 256;
/// Per-function spans of the traced passes are kept for one function in
/// SpanEvery (the per-layer times still time every function), which keeps
/// the trace to a few hundred thousand spans.
constexpr uint64_t SpanEvery = 4;

/// The tail percentile of the turnarounds. Each sample spans a whole chunk
/// or window of functions, so a host preemption inflates a full sample and
/// their p99 measures the host, not the program (spread 0.3 to 0.9 of the
/// median over ten seeds); p90 keeps about 10 samples beyond it per build.
constexpr double TailQ = 0.90;

/// The median over rounds of each round's \p Q-percentile.
double medianOfPercentiles(std::vector<std::vector<double>> &PerRound,
                           double Q) {
  std::vector<double> Each;
  for (std::vector<double> &V : PerRound)
    if (!V.empty()) {
      std::sort(V.begin(), V.end());
      Each.push_back(percentileSorted(V, Q));
    }
  return median(Each);
}

/// Folds one analysis into a running fingerprint (FNV-1a style).
uint64_t mixFingerprint(uint64_t H, uint64_t V) {
  return (H ^ V) * 0x100000001b3ull;
}

/// The analysis sink: stamps window starts, fingerprints every result,
/// and keeps the control regions of the sampled functions.
class AnalysisProbe {
public:
  AnalysisProbe(const std::set<uint64_t> &Sampled, SpanBuffer *Spans,
                uint32_t SinkName, uint64_t ParentSpan)
      : Sampled(Sampled), Spans(Spans), SinkName(SinkName),
        ParentSpan(ParentSpan) {}

  AnalysisSink sink() {
    return [this](uint64_t I, const FunctionAnalysis &A) {
      ScopedSpan S(Spans, SinkName, ParentSpan, I);
      if (I % AnalyzeWindow == 0)
        WindowStarts.push_back(nowNs());
      Fingerprint = mixFingerprint(Fingerprint, I);
      Fingerprint = mixFingerprint(Fingerprint, A.Pst.numRegions());
      Fingerprint = mixFingerprint(Fingerprint, A.ControlRegions.NumClasses);
      if (Sampled.count(I))
        Captured[I] = A.ControlRegions.NodeClass;
    };
  }

  std::vector<double> windowTurnaroundUs() const {
    std::vector<double> Out;
    for (size_t K = 1; K < WindowStarts.size(); ++K)
      Out.push_back((WindowStarts[K] - WindowStarts[K - 1]) / 1e3);
    return Out;
  }

  uint64_t Fingerprint = 0xcbf29ce484222325ull;
  std::map<uint64_t, std::vector<uint32_t>> Captured;

private:
  const std::set<uint64_t> &Sampled;
  SpanBuffer *Spans;
  uint32_t SinkName;
  uint64_t ParentSpan;
  std::vector<int64_t> WindowStarts;
};

std::set<uint64_t> sampleIndices(uint64_t Seed, uint64_t Count) {
  std::set<uint64_t> Out;
  pst::Rng Gen(deriveSeed(Seed, 0x5a3b1e));
  while (Out.size() < std::min<uint64_t>(SampleFunctions, Count))
    Out.insert(below(Gen, Count));
  return Out;
}

/// Mapped PSTs and captured control regions of the sampled functions
/// against a fresh analyzeFunction of the regenerated graph.
void checkSampledAnalyses(const CorpusSource &Src, const CorpusImage &Img,
                          const AnalysisProbe &Probe, Report &R) {
  PstScratch Scratch;
  Cfg G;
  std::string Name;
  uint64_t Bad = 0;
  for (const auto &[I, Classes] : Probe.Captured) {
    Src.Generate(I, G, Name);
    FunctionAnalysis Fresh = analyzeFunction(G, Scratch);
    if (!samePst(Img.pst(I), Fresh.Pst) ||
        Classes != Fresh.ControlRegions.NodeClass ||
        Img.functionName(I) != Name)
      ++Bad;
  }
  R.attempts(Probe.Captured.size(), Bad,
             "mapped analysis differs from a fresh analyzeFunction");
}

uint64_t fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  return In ? static_cast<uint64_t>(In.tellg()) : 0;
}

} // namespace

CorpusSource streamCorpus(uint64_t Seed, uint64_t Count) {
  StreamCorpusOptions Opts;
  Opts.Seed = deriveSeed(Seed, 0x57a3e);
  Opts.Count = Count;
  return {Count, [Opts](uint64_t I, Cfg &G, std::string &Name) {
            generateStreamFunction(Opts, I, G, Name);
          }};
}

ChunkProducer BenchProducer::producer() {
  return [this](uint64_t Begin, uint64_t Count, std::vector<Cfg> &Graphs,
                std::vector<std::string> &Names) {
    produce(Begin, Count, Graphs, Names);
  };
}

void BenchProducer::produce(uint64_t Begin, uint64_t Count,
                            std::vector<Cfg> &Graphs,
                            std::vector<std::string> &Names) {
  int64_t Start = nowNs();
  Graphs.resize(Count);
  Names.resize(Count);
  for (uint64_t K = 0; K < Count; ++K)
    Src.Generate(Begin + K, Graphs[K], Names[K]);
  int64_t End = nowNs();

  std::lock_guard<std::mutex> Lock(M);
  if (Begin == 0)
    ++Pass;
  Calls.emplace_back(Pass, Start);
  GenCalls += Count;
  GenNs += End - Start;
  if (Spans) {
    Span S;
    S.Id = Spans->newId();
    S.Parent = ParentSpan;
    S.Request = Begin;
    S.StartNs = Start;
    S.EndNs = End;
    S.Name = SpanName;
    S.Thread = Spans->index();
    Spans->push(S);
  }
}

std::vector<double> BenchProducer::turnaroundUs(int P) const {
  std::vector<int64_t> Starts;
  for (auto [CallPass, Start] : Calls)
    if (CallPass == P)
      Starts.push_back(Start);
  std::sort(Starts.begin(), Starts.end());
  std::vector<double> Out;
  for (size_t K = 1; K < Starts.size(); ++K)
    Out.push_back((Starts[K] - Starts[K - 1]) / 1e3);
  return Out;
}

double buildImage(BatchAnalyzer &Engine, const CorpusSource &Src,
                  BenchProducer &P, const std::string &Path,
                  std::string &Error) {
  int64_t Start = nowNs();
  bool Ok = Engine.buildImageStream(Src.Count, P.producer(), BuildChunk, Path,
                                    &Error);
  double S = (nowNs() - Start) / 1e9;
  return Ok ? S : -1.0;
}

bool sameFileBytes(const std::string &A, const std::string &B) {
  std::ifstream FA(A, std::ios::binary), FB(B, std::ios::binary);
  if (!FA || !FB)
    return false;
  std::vector<char> BA(1 << 20), BB(1 << 20);
  while (true) {
    FA.read(BA.data(), BA.size());
    FB.read(BB.data(), BB.size());
    if (FA.gcount() != FB.gcount() ||
        std::memcmp(BA.data(), BB.data(), FA.gcount()) != 0)
      return false;
    if (!FA || !FB)
      return FA.eof() && FB.eof();
  }
}

bool samePst(const ProgramStructureTree &A, const ProgramStructureTree &B) {
  auto Eq = [](auto X, auto Y) {
    return std::equal(X.begin(), X.end(), Y.begin(), Y.end());
  };
  auto SameRegion = [](const SeseRegion &X, const SeseRegion &Y) {
    return X.EntryEdge == Y.EntryEdge && X.ExitEdge == Y.ExitEdge &&
           X.Parent == Y.Parent && X.Depth == Y.Depth;
  };
  return std::equal(A.regionTable().begin(), A.regionTable().end(),
                    B.regionTable().begin(), B.regionTable().end(),
                    SameRegion) &&
         Eq(A.nodeRegionTable(), B.nodeRegionTable()) &&
         Eq(A.edgeRegionTable(), B.edgeRegionTable()) &&
         Eq(A.entryOfTable(), B.entryOfTable()) &&
         Eq(A.exitOfTable(), B.exitOfTable()) &&
         Eq(A.childOffTable(), B.childOffTable()) &&
         Eq(A.childValTable(), B.childValTable()) &&
         Eq(A.immOffTable(), B.immOffTable()) &&
         Eq(A.immValTable(), B.immValTable());
}

/// The serve and edit layers, probed over the built image at \p Path in
/// the traced run only: stream_build's timed loop never touches them.
void traceServeProbes(const RunOptions &O, const std::string &Path, Tracer &T,
                      Report &R) {
  WarmServer W = openWarmServer(Path, 1, R);
  if (!W.Server)
    return;
  serve::PstServer &S = *W.Server;
  const std::vector<uint32_t> Nodes = nodeCounts(S.image());
  const ZipfSampler Fns = readSampler(Nodes, O.Seed);
  PhaseConfig C;
  C.Readers = ThreadBudget;
  C.Seconds = 2;
  C.Seed = O.Seed;
  C.T = &T;
  C.Fns = &Fns;
  C.NumNodes = &Nodes;
  PhaseResult P;
  runServePhase(S, C, P, R);
  // Every bundle is built in set-up's touch pass: the cache counters are
  // taken over the server's whole life.
  reportServeLayers(T, P, serve::DerivedCacheStats{}, S.derivedCacheStats(),
                    "set-up's touch pass and the traced phase", R);
  runEditProbe(S, C, P, R);
  checkServePhase(S, Path, P, R);
}

int runStreamBuild(const RunOptions &O, Report &R) {
  const std::string Path = O.WorkDir + "/stream_build.img";
  CorpusSource Src = streamCorpus(O.Seed, StreamFunctions);

  if (O.Trace) {
    Tracer T;
    StreamTraceResult S = traceStreamLayers(Src, Path, T, R, O.Seed);
    double Overhead = 100.0 * (S.TracedBuildS - S.BuildS) / S.BuildS;
    R.metric("trace.overhead_pct", Overhead, "%", 1,
             "traced vs untraced buildImageStream wall time (base " +
                 std::to_string(S.BuildS) + " s)");
    traceServeProbes(O, Path, T, R);
    finishTrace(O, T, R);
    std::remove(Path.c_str());
    return 0;
  }

  BatchOptions BO;
  BO.NumThreads = BuildWorkers;
  BatchAnalyzer Engine(BO);
  const std::set<uint64_t> Sampled = sampleIndices(O.Seed, Src.Count);

  std::vector<double> BuildRate, AnalyzeRate, SetupS;
  // Turnarounds, one sample set per build and per analysis pass.
  std::vector<std::vector<double>> ChunkUs, WindowUs;
  std::optional<uint64_t> Fingerprint;
  int64_t RunStart = nowNs();
  do {
    std::string Err;
    BenchProducer P(Src);
    std::remove(Path.c_str()); // Free the last image's pages untimed.
    double BuildS = buildImage(Engine, Src, P, Path, Err);
    R.attempt(BuildS > 0, "buildImageStream: " + Err);
    if (BuildS <= 0)
      break;
    BuildRate.push_back(Src.Count / BuildS);
    ChunkUs.push_back(P.turnaroundUs(1));

    int64_t T0 = nowNs();
    bool Verified = verifyImageFile(Path, &Err);
    CorpusImage Img = CorpusImage::map(Path, &Err);
    SetupS.push_back((nowNs() - T0) / 1e9);
    R.attempt(Verified, "verifyImageFile: " + Err);
    R.attempt(Img.valid(), "CorpusImage::map: " + Err);
    if (!Img.valid())
      break;

    for (int Pass = 0; Pass < AnalyzePasses; ++Pass) {
      AnalysisProbe Probe(Sampled, nullptr, 0, 0);
      int64_t A0 = nowNs();
      Engine.analyzeCorpusStream(Img, Probe.sink(), AnalyzeWindow);
      AnalyzeRate.push_back(Src.Count / ((nowNs() - A0) / 1e9));
      WindowUs.push_back(Probe.windowTurnaroundUs());
      if (!Fingerprint)
        Fingerprint = Probe.Fingerprint;
      R.attempt(*Fingerprint == Probe.Fingerprint,
                "analyzeCorpusStream results differ between passes");
      if (Pass == 0)
        checkSampledAnalyses(Src, Img, Probe, R);
    }
  } while ((nowNs() - RunStart) / 1e9 < O.Seconds);
  double PeakRss = peakRssMb();
  std::remove(Path.c_str());
  std::string Rates = "build fns/s per build:";
  for (double V : BuildRate)
    Rates += " " + std::to_string(static_cast<int64_t>(V));
  Rates += "; analyze fns/s per pass:";
  for (double V : AnalyzeRate)
    Rates += " " + std::to_string(static_cast<int64_t>(V));
  R.note(Rates);

  R.metric("primary_per_s", median(BuildRate), "1/s",
           BuildRate.size(), "build_fns_per_s: builds of 25k functions");
  R.metric("primary_p50_us", medianOfPercentiles(ChunkUs, 0.50), "us",
           sampleCount(ChunkUs), "fill-pass chunk turnaround");
  R.metric("primary_tail_us", medianOfPercentiles(ChunkUs, TailQ), "us",
           sampleCount(ChunkUs), "fill-pass chunk turnaround, p90");
  R.metric("secondary_per_s", median(AnalyzeRate), "1/s",
           AnalyzeRate.size(), "analyze_fns_per_s: analyzeCorpusStream passes");
  R.metric("secondary_p50_us", medianOfPercentiles(WindowUs, 0.50), "us",
           sampleCount(WindowUs), "analysis window turnaround");
  R.metric("secondary_tail_us", medianOfPercentiles(WindowUs, TailQ),
           "us", sampleCount(WindowUs), "analysis window turnaround, p90");
  R.metric("setup_s", median(SetupS), "s", SetupS.size(),
           "verifyImageFile + CorpusImage::map");
  R.metric("peak_rss_mb", PeakRss, "MB", 1, "getrusage high-water mark");
  return 0;
}

StreamTraceResult traceStreamLayers(const CorpusSource &Src,
                                    const std::string &Path, Tracer &T,
                                    Report &R, uint64_t Seed) {
  const uint32_t NBuild = T.name("image.build_stream");
  const uint32_t NGen = T.name("workload.gen");
  const uint32_t NVerify = T.name("image.verify");
  const uint32_t NMap = T.name("image.map");
  const uint32_t NAnalyze = T.name("runtime.analyze_stream");
  const uint32_t NSink = T.name("runtime.sink");
  const uint32_t NDrive = T.name("image.writer.serial_drive");
  const uint32_t NAddShape = T.name("image.writer.add_shape");
  const uint32_t NBeginFill = T.name("image.writer.begin_fill");
  const uint32_t NBeginChunk = T.name("image.writer.begin_chunk");
  const uint32_t NFill = T.name("image.writer.fill");
  const uint32_t NEndChunk = T.name("image.writer.end_chunk");
  const uint32_t NFinish = T.name("image.writer.finish");
  const uint32_t NFunction = T.name("pipeline.function");
  const uint32_t NView = T.name("graph.cfgview");
  const uint32_t NCycle = T.name("cycleequiv.run");
  const uint32_t NConstruct = T.name("core.pst_construct");
  const uint32_t NRegions = T.name("cdg.control_regions");
  SpanBuffer &Main = T.buffer();
  SpanBuffer &ProducerSpans = T.buffer();

  StreamTraceResult Out;
  std::string Err;
  BatchOptions BO;
  BO.NumThreads = BuildWorkers;
  BatchAnalyzer Engine(BO);

  // Untraced, then traced, pooled build of the same corpus: their
  // difference is the tracing overhead on the build.
  {
    BenchProducer P(Src);
    Out.BuildS = buildImage(Engine, Src, P, Path, Err);
    R.attempt(Out.BuildS > 0, "buildImageStream: " + Err);
  }
  double BuildSelfS = 0, GenSpanS = 0;
  {
    std::optional<ScopedSpan> Build(std::in_place, &Main, NBuild);
    BenchProducer P(Src, &ProducerSpans, NGen, Build->id());
    int64_t B0 = nowNs();
    bool Ok = Engine.buildImageStream(Src.Count, P.producer(), BuildChunk,
                                      Path, &Err);
    Out.TracedBuildS = (nowNs() - B0) / 1e9;
    Build.reset();
    R.attempt(Ok, "traced buildImageStream: " + Err);
    R.metric("workload.gen_calls", P.genCalls(), "count", 1,
             "functions generated by the producer in one build (base: " +
                 std::to_string(Src.Count) + " functions)");
    R.metric("workload.gen_s", P.genSeconds(), "s", P.genCalls(),
             "producer time in one build");
    GenSpanS = P.genSeconds();
  }
  R.metric("image.bytes", fileBytes(Path), "bytes", 1);

  // Traced cold start and one analysis pass over the mapped image.
  bool Verified;
  {
    ScopedSpan S(&Main, NVerify);
    Verified = verifyImageFile(Path, &Err);
  }
  R.attempt(Verified, "verifyImageFile: " + Err);
  std::optional<CorpusImage> Img;
  {
    ScopedSpan S(&Main, NMap);
    Img.emplace(CorpusImage::map(Path, &Err));
  }
  R.attempt(Img->valid(), "CorpusImage::map: " + Err);
  if (Img->valid()) {
    const std::set<uint64_t> Sampled = sampleIndices(Seed, Src.Count);
    ScopedSpan A(&Main, NAnalyze);
    AnalysisProbe Probe(Sampled, &Main, NSink, A.id());
    Engine.analyzeCorpusStream(*Img, Probe.sink(), AnalyzeWindow);
    checkSampledAnalyses(Src, *Img, Probe, R);
  }
  Img.reset();

  // 1-worker and ThreadBudget-worker builds of the same corpus, untraced:
  // the speedup, and a cross-thread byte-identity check.
  {
    BatchOptions One, Four;
    One.NumThreads = 1;
    Four.NumThreads = ThreadBudget;
    BatchAnalyzer Serial(One), Pooled(Four);
    BenchProducer P1(Src), P4(Src);
    const std::string Path1 = Path + ".w1", Path4 = Path + ".w4";
    double S1 = buildImage(Serial, Src, P1, Path1, Err);
    double S4 = buildImage(Pooled, Src, P4, Path4, Err);
    R.attempt(S1 > 0 && S4 > 0 && sameFileBytes(Path, Path1) &&
                  sameFileBytes(Path, Path4),
              "1- and 4-worker builds differ from the timed build");
    R.metric("runtime.build_speedup_4v1", S1 / S4, "x", 1,
             "base: 1-worker build " + std::to_string(S1) + " s vs " +
                 std::to_string(ThreadBudget) + "-worker " +
                 std::to_string(S4) + " s");
    std::remove(Path1.c_str());
    std::remove(Path4.c_str());
  }

  // Serial drive of StreamImageWriter's public phases; its file must be
  // byte-identical to the pooled build's.
  double LayoutNs = 0, FillNs = 0, FinishNs = 0;
  {
    const std::string PathS = Path + ".serial";
    ScopedSpan Drive(&Main, NDrive);
    const uint64_t Root = Drive.id();
    StreamImageWriter W(PathS, Src.Count);
    bool Ok = W.valid();
    std::vector<Cfg> Graphs;
    std::vector<std::string> Names;
    BenchProducer P(Src, &ProducerSpans, NGen, Root);
    ChunkProducer Produce = P.producer();
    PstScratch Sc;
    auto Timed = [&](uint32_t Name, double &Acc, auto &&Fn,
                     uint64_t I = 0) {
      ScopedSpan S(I % SpanEvery ? nullptr : &Main, Name, Root, I);
      int64_t T0 = nowNs();
      bool Res = Fn();
      Acc += nowNs() - T0;
      return Res;
    };
    for (uint64_t B = 0; Ok && B < Src.Count; B += BuildChunk) {
      uint64_t N = std::min<uint64_t>(BuildChunk, Src.Count - B);
      Produce(B, N, Graphs, Names);
      for (uint64_t K = 0; Ok && K < N; ++K) {
        CfgView V = CfgView::build(Graphs[K], Sc.View);
        ProgramStructureTree Pst = ProgramStructureTree::build(V, Sc.PstBuild);
        Ok = Timed(
            NAddShape, LayoutNs,
            [&] { return W.addShape(Graphs[K], Pst, Names[K], &Err); }, B + K);
      }
    }
    Ok = Ok && Timed(NBeginFill, LayoutNs, [&] { return W.beginFill(&Err); });
    StreamImageWriter::ChunkScratch CS;
    for (uint64_t B = 0; Ok && B < Src.Count; B += BuildChunk) {
      uint64_t N = std::min<uint64_t>(BuildChunk, Src.Count - B);
      Produce(B, N, Graphs, Names);
      Ok = Timed(NBeginChunk, FillNs,
                 [&] { return W.beginChunk(CS, B, N, &Err); });
      for (uint64_t K = 0; Ok && K < N; ++K) {
        CfgView V = CfgView::build(Graphs[K], Sc.View);
        ProgramStructureTree Pst = ProgramStructureTree::build(V, Sc.PstBuild);
        Timed(
            NFill, FillNs,
            [&] {
              W.fill(CS, B + K, Graphs[K], V, Pst, Names[K]);
              return true;
            },
            B + K);
      }
      Ok = Ok && Timed(NEndChunk, FillNs, [&] { return W.endChunk(CS, &Err); });
    }
    Ok = Ok && Timed(NFinish, FinishNs, [&] { return W.finish(&Err); });
    R.attempt(Ok, "serial StreamImageWriter drive: " + Err);
    R.attempt(Ok && sameFileBytes(Path, PathS),
              "serial StreamImageWriter file differs from the pooled build");
    std::remove(PathS.c_str());
  }
  R.metric("image.writer.layout_s", LayoutNs / 1e9, "s", Src.Count,
           "addShape + beginFill, serial drive");
  R.metric("image.writer.fill_s", FillNs / 1e9, "s", Src.Count,
           "beginChunk + fill + endChunk, serial drive");
  R.metric("image.writer.finish_s", FinishNs / 1e9, "s", 1,
           "finish (checksum pass), serial drive");

  // 1-thread pass through the four pipeline stages, allocations counted.
  double ViewNs = 0, CycleNs = 0, ConstructNs = 0, RegionsNs = 0;
  uint64_t Allocs = 0;
  {
    CfgViewScratch VS;
    CycleEquivEngine CEE;
    PstBuildScratch PS;
    ControlRegionsScratch CRS;
    Cfg G;
    std::string Name;
    auto Stage = [&](uint32_t N, uint64_t Parent, uint64_t Req, double &Acc,
                     auto &&Fn) {
      ScopedSpan S(Req % SpanEvery ? nullptr : &Main, N, Parent, Req);
      int64_t T0 = nowNs();
      Fn();
      Acc += nowNs() - T0;
    };
    bool Ok = true;
    for (uint64_t I = 0; I < Src.Count; ++I) {
      Src.Generate(I, G, Name);
      ScopedSpan Fn(I % SpanEvery ? nullptr : &Main, NFunction, 0, I);
      uint64_t A0 = allocCount();
      setAllocCounting(true);
      CfgView V;
      CycleEquivResult CE;
      ProgramStructureTree Pst;
      ControlRegionsResult CR;
      Stage(NView, Fn.id(), I, ViewNs, [&] { V = CfgView::build(G, VS); });
      Stage(NCycle, Fn.id(), I, CycleNs, [&] { CE = CEE.run(V); });
      Stage(NConstruct, Fn.id(), I, ConstructNs, [&] {
        Pst = ProgramStructureTree::buildWithCycleEquiv(V, std::move(CE), PS);
      });
      Stage(NRegions, Fn.id(), I, RegionsNs,
            [&] { CR = computeControlRegionsLinearImplicit(V, CRS); });
      setAllocCounting(false);
      Allocs += allocCount() - A0;
      Ok = Ok && Pst.numRegions() > 0 && CR.NodeClass.size() == G.numNodes();
    }
    R.attempt(Ok, "1-thread stage pass produced an empty result");
  }
  const double N = static_cast<double>(Src.Count);
  R.metric("graph.cfgview_ns_per_fn", ViewNs / N, "ns", Src.Count,
           "CfgView::build, 1 thread");
  R.metric("cycleequiv.ns_per_fn", CycleNs / N, "ns", Src.Count,
           "CycleEquivEngine::run, 1 thread");
  R.metric("core.pst_construct_ns_per_fn", ConstructNs / N, "ns", Src.Count,
           "ProgramStructureTree::buildWithCycleEquiv, 1 thread");
  R.metric("cdg.control_regions_ns_per_fn", RegionsNs / N, "ns", Src.Count,
           "computeControlRegionsLinearImplicit, 1 thread");
  R.metric("pipeline.allocs_per_fn", Allocs / N, "count", Src.Count,
           "heap allocations across the four stages, warm scratch");

  // Self times of the traced build and analysis.
  std::vector<Span> Spans = T.collect();
  std::vector<double> Self = selfTimesNs(Spans);
  double AnalyzeSelf = 0, SinkS = 0, VerifyS = 0, MapS = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const double DurS = (Spans[I].EndNs - Spans[I].StartNs) / 1e9;
    if (Spans[I].Name == NVerify)
      VerifyS = DurS;
    else if (Spans[I].Name == NMap)
      MapS = DurS;
    else if (Spans[I].Name == NBuild)
      BuildSelfS = Self[I] / 1e9;
    else if (Spans[I].Name == NAnalyze)
      AnalyzeSelf = Self[I] / 1e9;
    else if (Spans[I].Name == NSink)
      SinkS += DurS;
  }
  R.metric("image.verify_s", VerifyS, "s", 1, "verifyImageFile, traced");
  R.metric("image.map_ms", MapS * 1e3, "ms", 1, "CorpusImage::map, traced");
  R.metric("image.build_self_s", BuildSelfS, "s", 1,
           "traced buildImageStream minus its producer spans");
  R.metric("runtime.analyze_self_s", AnalyzeSelf, "s", 1,
           "traced analyzeCorpusStream minus its sink spans");
  R.metric("runtime.sink_s", SinkS, "s", Src.Count,
           "sink time in one analyzeCorpusStream pass");
  char Line[256];
  std::snprintf(Line, sizeof Line,
                "buildImageStream traced wall %.4f s = self %.4f s + "
                "producer %.4f s (accounted %.2f%%); untraced %.4f s, "
                "tracing overhead %+.2f%%",
                Out.TracedBuildS, BuildSelfS, GenSpanS,
                100.0 * (BuildSelfS + GenSpanS) / Out.TracedBuildS,
                Out.BuildS,
                100.0 * (Out.TracedBuildS - Out.BuildS) / Out.BuildS);
  R.note(Line);
  return Out;
}

} // namespace perfbench
