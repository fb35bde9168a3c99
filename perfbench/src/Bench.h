//===- perfbench/src/Bench.h - Shared workload plumbing --------*- C++ -*-===//
//
// What the three workloads share: run options, the replayable corpora, the
// benchmark's own ChunkProducer, and the traced per-layer passes every
// workload's traced run makes. See perfbench/README.md for the metric map.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Report.h"
#include "Stats.h"
#include "Trace.h"

#include "pst/runtime/BatchAnalyzer.h"

#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Every thread the benchmark makes counts toward this budget, the
/// machine's core count the figures in README.md were taken on.
inline constexpr unsigned ThreadBudget = 4;
/// Pool workers of stream_build's timed builds and analyses. The pooled
/// build gains little from more workers (runtime.build_speedup_4v1 read
/// 0.9 to 1.5), and a build waits for its slowest worker, so on a shared
/// host whose cores slow down at different times a 4-worker build reads
/// its neighbours' load: ten seeds spread by 0.66 of the median at 4
/// workers. The traced run still measures a ThreadBudget-worker build.
inline constexpr unsigned BuildWorkers = 1;
/// Functions per producer chunk in every image build.
inline constexpr size_t BuildChunk = 256;

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for image files, span dumps and the layer table.
  std::string WorkDir;
};

/// A corpus the benchmark can replay: function I is a pure function of
/// the seed and I, so the image builder's two passes see the same bytes.
struct CorpusSource {
  uint64_t Count = 0;
  std::function<void(uint64_t Index, pst::Cfg &G, std::string &Name)> Generate;
};

/// The CorpusStream generator mix (pst/workload), seeded from \p Seed.
CorpusSource streamCorpus(uint64_t Seed, uint64_t Count);

/// The benchmark's ChunkProducer over a CorpusSource. Counts and times
/// every function it generates, and stamps each call so the build's
/// per-chunk turnaround can be read off afterwards. Thread-safe, so it
/// stays correct if the engine ever calls it from pool workers.
class BenchProducer {
public:
  /// With \p Spans set, each call records a span named \p SpanName whose
  /// parent is \p ParentSpan.
  explicit BenchProducer(const CorpusSource &Src, SpanBuffer *Spans = nullptr,
                         uint32_t SpanName = 0, uint64_t ParentSpan = 0)
      : Src(Src), Spans(Spans), SpanName(SpanName), ParentSpan(ParentSpan) {}

  pst::ChunkProducer producer();

  uint64_t genCalls() const { return GenCalls; }
  double genSeconds() const { return GenNs / 1e9; }
  /// Time between consecutive producer calls of pass \p Pass (0 = shape
  /// pass, 1 = fill pass), in microseconds.
  std::vector<double> turnaroundUs(int Pass) const;

private:
  void produce(uint64_t Begin, uint64_t Count, std::vector<pst::Cfg> &Graphs,
               std::vector<std::string> &Names);

  const CorpusSource &Src;
  SpanBuffer *Spans;
  uint32_t SpanName;
  uint64_t ParentSpan;
  std::mutex M; // Guards everything below and *Spans.
  uint64_t GenCalls = 0;
  int64_t GenNs = 0;
  int Pass = -1;
  std::vector<std::pair<int, int64_t>> Calls; // (pass, start ns)
};

/// Pooled out-of-core build of \p Src into \p Path. Returns the wall time
/// in seconds, or a negative value (with \p Error set) on failure.
double buildImage(pst::BatchAnalyzer &Engine, const CorpusSource &Src,
                  BenchProducer &P, const std::string &Path,
                  std::string &Error);

/// True when the two files hold the same bytes.
bool sameFileBytes(const std::string &A, const std::string &B);

/// PST equality over every table the image stores.
bool samePst(const pst::ProgramStructureTree &A,
             const pst::ProgramStructureTree &B);

/// Result of one traced stream-layer pass (see traceStreamLayers).
struct StreamTraceResult {
  double BuildS = 0;       ///< Untraced pooled build.
  double TracedBuildS = 0; ///< Same build with spans on.
};

/// The traced run's pass over the image build, mapping and analysis
/// layers for corpus \p Src: an untraced and a traced BuildWorkers build
/// (both leave the image at \p Path), traced verify/map/analyze, a
/// 1-worker and a ThreadBudget-worker build, a serial StreamImageWriter
/// drive whose file must equal the pooled one, and a 1-thread pass through
/// CfgView, cycle equivalence, PST construction and control regions. Sets
/// the per-layer metrics of the workload, graph, cycleequiv, core, cdg,
/// image and runtime layers.
StreamTraceResult traceStreamLayers(const CorpusSource &Src,
                                    const std::string &Path, Tracer &T,
                                    Report &R, uint64_t Seed);

int runStreamBuild(const RunOptions &O, Report &R);
int runServeRead(const RunOptions &O, Report &R);
int runServeEdit(const RunOptions &O, Report &R);

/// Analyses, writes and prints the traced run's spans: the span dump and
/// the per-layer table go to O.WorkDir, the table also to \p R's notes.
void finishTrace(const RunOptions &O, const Tracer &T, Report &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
