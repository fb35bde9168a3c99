//===- perfbench/src/ServeEdit.cpp - The serve_edit workload --------------===//
//
// serve_edit: an image of 128 large functions with deep PSTs, from the
// 1000-block families of bench/time_incremental_pst (diamondLadderCfg(250),
// nestedWhileCfg(499, 4) and a goto-heavy randomBackboneCfg). One writer
// thread runs balanced edit batches through Shard and commit(); one
// reader thread runs the serve_read query mix against the same functions.
// Each commit runs incremental maintenance, materialize, refreeze and
// publish, and invalidates the function's derived bundle. Each figure is
// the median over the run's (reader, time window) pairs, or over the
// writer's time windows for the commit figures.
//
//   primary_per_s     queries answered per second (query_qps)
//   primary_p50/tail  parse + execute latency per query, p50 and p99.9
//                     (query_p50_us / query_p999_us; QueryTailQ says why)
//   secondary_per_s   commits per second of the one writer
//   secondary_p50/tail Shard::commit latency, p50 and p90
//                     (commit_p50_us / commit_p90_us; CommitTailQ says why)
//   setup_s           verify + map + server + touch every function, median
//                     over set-ups
//
//===----------------------------------------------------------------------===//

#include "ServeCommon.h"

#include "pst/workload/CfgGenerators.h"

#include <cstdio>

using namespace pst;
using namespace pst::serve;

namespace perfbench {

namespace {

constexpr uint64_t EditFunctions = 128;
constexpr int SetupTimes = 11;
/// Edit sites per function: an assumed figure, not a measured one.
constexpr unsigned SitesPerFunction = 32;
/// Readers beside the writer. The writer is one thread whose commit
/// times the host's other load moves directly: with three readers the
/// four threads kept every core busy and five seeds spread the commit
/// p99 by 0.72 of the median and the commit rate by 0.38; with one, by
/// 0.27 and 0.06.
constexpr unsigned EditReaders = 1;
/// The query tail. About one read in 130 (serve.cache.hit_ratio 0.992)
/// finds its function's bundle dropped by a commit and rebuilds it, so
/// p99 sits on the edge between warm reads and rebuilds and jumped
/// between them from seed to seed (spread 0.16); p99.9 lies among the
/// rebuilds.
constexpr double QueryTailQ = 0.999;
/// The commit tail. A commit takes milliseconds, so one host preemption
/// inflates a whole sample: p99 spread 0.27 over five seeds, one run
/// reading 1.5 times the others.
constexpr double CommitTailQ = 0.90;
/// Query traffic per function family: rank K goes to family K % 3.
constexpr uint32_t Families = 3;

/// The large-function corpus: function I's family is I % 3; the
/// goto-heavy graphs are seeded per function.
CorpusSource largeCorpus(uint64_t Seed, uint64_t Count) {
  return {Count, [Seed](uint64_t I, Cfg &G, std::string &Name) {
            switch (I % 3) {
            case 0:
              G = diamondLadderCfg(250);
              Name = "diamonds_" + std::to_string(I);
              break;
            case 1:
              G = nestedWhileCfg(499, 4);
              Name = "loopnest_" + std::to_string(I);
              break;
            default: {
              Rng R(deriveSeed(Seed, 0x90e0000 + I));
              RandomCfgOptions Opts;
              Opts.NumNodes = 1000;
              Opts.NumExtraEdges = 400;
              G = randomBackboneCfg(R, Opts);
              Name = "gotoheavy_" + std::to_string(I);
              break;
            }
            }
          }};
}

} // namespace

int runServeEdit(const RunOptions &O, Report &R) {
  const std::string Path = O.WorkDir + "/serve_edit.img";
  CorpusSource Src = largeCorpus(O.Seed, EditFunctions);
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
  const ZipfSampler Fns(S.numFunctions(), ZipfExponent,
                        deriveSeed(O.Seed, 0x21bf),
                        moduloClasses(S.numFunctions(), Families));
  std::vector<uint64_t> All;
  for (uint64_t I = 0; I < S.numFunctions(); ++I)
    All.push_back(I);
  const std::vector<EditSite> Sites =
      editSites(S.image(), All, SitesPerFunction, O.Seed);
  PhaseConfig C;
  C.Readers = EditReaders;
  C.Writer = true;
  C.Seed = O.Seed;
  C.Fns = &Fns;
  C.NumNodes = &Nodes;
  C.Sites = &Sites;
  PhaseResult P;

  if (!O.Trace) {
    C.Seconds = O.Seconds;
    runServePhase(S, C, P, R);
    double PeakRss = peakRssMb();
    checkServePhase(S, Path, P, R);
    reportServeMetrics(P, W, PeakRss, QueryTailQ, "query_p999_us", R);
    const std::vector<std::vector<double>> Commits = {P.CommitUs};
    R.metric("secondary_per_s", P.CommitRate, "1/s", P.CommitUs.size(),
             "commits per second of the one writer, over time windows");
    R.metric("secondary_p50_us",
             median(windowedPercentiles(Commits, 0.50)), "us",
             P.CommitUs.size(), "commit_p50_us: Shard::commit");
    R.metric("secondary_tail_us",
             median(windowedPercentiles(Commits, CommitTailQ)), "us",
             P.CommitUs.size(), "commit_p90_us: Shard::commit");
    W.Server.reset();
    std::remove(Path.c_str());
    return 0;
  }

  // Traced run: half the time untraced, half traced, on the same server;
  // one PhaseResult so the edit log replays as one sequence.
  C.Seconds = O.Seconds / 2;
  runServePhase(S, C, P, R);
  const double UntracedQps = P.QueryRate;
  DerivedCacheStats Before = S.derivedCacheStats();
  C.T = &T;
  runServePhase(S, C, P, R);
  DerivedCacheStats After = S.derivedCacheStats();
  const double TracedQps = P.QueryRate;
  reportServeLayers(T, P, Before, After, "the traced phase", R);
  reportWriterLayers(T, S, P, R);
  checkServePhase(S, Path, P, R);
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
