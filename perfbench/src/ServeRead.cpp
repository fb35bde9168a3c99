//===- perfbench/src/ServeRead.cpp - The serve_read workload --------------===//
//
// serve_read: read-only queries over an image of ~20k stream-mix functions
// (the shape the CI serving smoke runs). Four closed-loop reader threads
// each turn a seeded protocol line into a request with parseLine and answer
// it with PstServer::execute(R, Scratch); functions are drawn with a Zipf
// skew (readSampler). Set-up touches every function once, so timing starts
// with the derived cache warm. It never builds an image or commits while
// timed. Each figure is the median over the run's (reader, time window)
// pairs, or over its set-ups for the secondary ones:
//
//   primary_per_s     queries answered per second (query_qps)
//   primary_p50/tail  parse + execute latency per query, p50 and p99
//                     (query_p50_us / query_p99_us)
//   secondary_*       first-touch (cold) queries during set-up: functions
//                     warmed per second and their latency (p50, p99)
//   setup_s           verify + map + server + touch every function, median
//                     over set-ups
//
//===----------------------------------------------------------------------===//

#include "ServeCommon.h"

#include <cstdio>

using namespace pst;
using namespace pst::serve;

namespace perfbench {

namespace {
constexpr uint64_t ReadFunctions = 20000;
constexpr int SetupTimes = 9;
} // namespace

int runServeRead(const RunOptions &O, Report &R) {
  const std::string Path = O.WorkDir + "/serve_read.img";
  CorpusSource Src = streamCorpus(O.Seed, ReadFunctions);
  Tracer T;
  if (O.Trace)
    traceStreamLayers(Src, Path, T, R, O.Seed);
  else if (!buildFixture(Src, Path, R))
    return 1;

  WarmServer W = openWarmServer(Path, O.Trace ? 1 : SetupTimes, R);
  if (!W.Server)
    return 1;
  PstServer &S = *W.Server;
  const std::vector<uint32_t> Nodes = nodeCounts(S.image());
  const ZipfSampler Fns = readSampler(Nodes, O.Seed);
  PhaseConfig C;
  C.Readers = ThreadBudget;
  C.Seed = O.Seed;
  C.Fns = &Fns;
  C.NumNodes = &Nodes;
  PhaseResult P;

  if (!O.Trace) {
    C.Seconds = O.Seconds;
    runServePhase(S, C, P, R);
    double PeakRss = peakRssMb();
    checkServePhase(S, Path, P, R);
    reportServeMetrics(P, W, PeakRss, 0.99, "query_p99_us", R);
    const uint64_t N = sampleCount(W.TouchUs);
    std::vector<double> P50, P99;
    for (std::vector<double> &Lat : W.TouchUs) {
      Summary Sm = summarize(Lat);
      P50.push_back(Sm.P50);
      P99.push_back(Sm.P99);
    }
    R.metric("secondary_per_s", median(W.TouchPerS), "1/s",
             W.TouchPerS.size(), "functions warmed per second in set-up");
    R.metric("secondary_p50_us", median(P50), "us", N,
             "first-touch regions query (cold bundle build), per set-up");
    R.metric("secondary_tail_us", median(P99), "us", N,
             "first-touch regions query (cold bundle build), per set-up");
    std::remove(Path.c_str());
    return 0;
  }

  // Traced run: half the time untraced, half traced, on the same warm
  // server; then a writer-only edit probe for the shard layers.
  C.Seconds = O.Seconds / 2;
  runServePhase(S, C, P, R);
  const double UntracedQps = P.QueryRate;
  PhaseResult PT;
  PT.InitialVersion = P.InitialVersion;
  C.T = &T;
  runServePhase(S, C, PT, R);
  const double TracedQps = PT.QueryRate;
  // Nothing commits here, so every bundle is built in set-up's touch
  // pass: the cache counters are taken over the server's whole life.
  reportServeLayers(T, PT, DerivedCacheStats{}, S.derivedCacheStats(),
                    "set-up's touch pass and both phases", R);

  runEditProbe(S, C, PT, R);
  for (ResponseSample &Smp : P.Samples)
    PT.Samples.push_back(std::move(Smp));
  checkServePhase(S, Path, PT, R);
  R.metric("trace.overhead_pct", 100.0 * (UntracedQps - TracedQps) / UntracedQps,
           "%", 2,
           "query_qps lost to tracing (base: untraced " +
               std::to_string(UntracedQps) + " q/s)");
  finishTrace(O, T, R);
  W.Server.reset();
  std::remove(Path.c_str());
  return 0;
}

} // namespace perfbench
