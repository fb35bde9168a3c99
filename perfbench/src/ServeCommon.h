//===- perfbench/src/ServeCommon.h - Serve-layer plumbing ------*- C++ -*-===//
//
// The closed-loop serving clients shared by serve_read and serve_edit (and
// by the short serve/edit probes of the other workloads' traced runs):
// seeded protocol-line readers, a balanced-edit writer, warm server set-up,
// and the uncached replay that checks sampled responses.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVECOMMON_H
#define PERFBENCH_SERVECOMMON_H

#include "Bench.h"

#include "pst/serve/PstServer.h"

#include <memory>

namespace perfbench {

inline constexpr uint32_t ServeShards = 4;
/// Zipf exponent of the function popularity skew: YCSB's default request
/// skew (Cooper et al., SoCC 2010), not one measured on PST queries.
inline constexpr double ZipfExponent = 0.99;
/// Size classes of readSampler: with 64, the 64 hottest functions are one
/// of each size sixty-fourth of the corpus under every seed.
inline constexpr uint32_t SizeClasses = 64;

/// One edge-insertion site: Src -> Dst in function Fn, valid in every
/// epoch (Src is never the exit, Dst never the entry).
struct EditSite {
  uint64_t Fn = 0;
  pst::NodeId Src = 0, Dst = 0;
};

/// \p PerFunction seeded local sites (Dst one to three successor steps
/// from Src) in each of \p Fns.
std::vector<EditSite> editSites(const pst::CorpusImage &Img,
                                const std::vector<uint64_t> &Fns,
                                unsigned PerFunction, uint64_t Seed);

/// A server opened for measurement.
struct WarmServer {
  std::unique_ptr<pst::serve::PstServer> Server;
  std::vector<double> SetupS;  ///< Per set-up: verify+map+construct+touch.
  /// First-touch query latencies, one time-ordered stream per set-up.
  std::vector<std::vector<double>> TouchUs;
  std::vector<double> TouchPerS; ///< Functions warmed per second, per set-up.
};

/// Opens the image at \p Path \p Times times, each time verifying,
/// mapping, constructing a cached server and touching every function once
/// (a `regions` query, from one thread) so its derived bundle is built.
/// Keeps the last server.
WarmServer openWarmServer(const std::string &Path, int Times, Report &R);

struct PhaseConfig {
  unsigned Readers = 0;
  bool Writer = false;
  double Seconds = 1;
  uint64_t Seed = 1;
  /// Span recording: on when set, for one request in TraceEvery.
  Tracer *T = nullptr;
  const ZipfSampler *Fns = nullptr;
  const std::vector<uint32_t> *NumNodes = nullptr; ///< Per function.
  const std::vector<EditSite> *Sites = nullptr;    ///< Writer only.
};

struct ResponseSample {
  uint32_t Shard = 0;
  uint64_t Version = 0; ///< The shard version the response was read at.
  std::string Line, Response;
};

struct EditOp {
  bool Insert = true;
  EditSite Site;
  bool Ok = true;
};

struct CommitRecord {
  uint32_t Shard = 0;
  std::vector<EditOp> Ops;
  uint64_t Version = 0;
};

/// What the serving clients observed. Phases on one server accumulate
/// into one PhaseResult, so the edit log replays as one sequence.
struct PhaseResult {
  uint64_t Queries = 0;
  /// Queries and commits per second of the last phase: the median over
  /// (client, time window) pairs of the phase (windowedRates).
  double QueryRate = 0, CommitRate = 0;
  /// Per (reader, time window) pair of the last phase.
  std::vector<double> QueryRates;
  /// Timed query latencies, one stream per reader per phase, in order.
  std::vector<std::vector<uint32_t>> QueryNs;
  std::vector<double> CommitUs; ///< One per commit, in order.
  std::vector<ResponseSample> Samples;
  std::vector<CommitRecord> Log;
  std::vector<uint64_t> InitialVersion; ///< Per shard, before any phase.
  /// Over traced requests only: response bytes and the epoch lag the
  /// bench's own pin saw (versions behind currentVersion()).
  uint64_t TracedRequests = 0, TracedResponseBytes = 0;
  uint64_t EpochLagSum = 0, EpochLagMax = 0;
};

/// Runs Readers closed-loop reader threads (seeded protocol line ->
/// parseLine -> PstServer::execute) and, with Writer set, one writer
/// thread running balanced insert/delete edit batches and commits, for
/// C.Seconds. Appends to \p Out.
void runServePhase(pst::serve::PstServer &S, const PhaseConfig &C,
                   PhaseResult &Out, Report &R);

/// Post-run checks: every shard's verifyPublished(), then the edit log
/// replayed into an uncached server over the image at \p Path, with every
/// sampled response compared at the version it was read at.
void checkServePhase(pst::serve::PstServer &S, const std::string &Path,
                     const PhaseResult &P, Report &R);

/// Per-layer serve metrics from the traced requests' spans, and the cache
/// counters' change from \p Before to \p After over the span \p CacheScope
/// names. Without a writer every bundle is built in set-up's touch pass,
/// so that span must include it.
void reportServeLayers(const Tracer &T, const PhaseResult &P,
                       const pst::serve::DerivedCacheStats &Before,
                       const pst::serve::DerivedCacheStats &After,
                       const std::string &CacheScope, Report &R);

/// Per-layer shard and incremental metrics from the writer's spans and
/// the shards' own counters.
void reportWriterLayers(const Tracer &T, const pst::serve::PstServer &S,
                        const PhaseResult &P, Report &R);

/// Builds the fixture image of \p Src at \p Path with the pooled stream
/// builder (ThreadBudget workers).
bool buildFixture(const CorpusSource &Src, const std::string &Path,
                  Report &R);

/// The end-to-end metrics both serve workloads report the same way:
/// query throughput per reader, query latency (p50 and the \p TailQ
/// percentile, called \p TailName in the report), set-up time and peak
/// RSS.
void reportServeMetrics(PhaseResult &P, WarmServer &W, double PeakRss,
                        double TailQ, const std::string &TailName,
                        Report &R);

/// The traced run's edit probe for workloads that do not edit: one
/// writer thread (no readers) runs \p Base's balanced edits on 64 seeded
/// functions for two seconds, then the shard and incremental per-layer
/// metrics are reported. Appends to \p P.
void runEditProbe(pst::serve::PstServer &S, const PhaseConfig &Base,
                  PhaseResult &P, Report &R);

/// The serve_read traffic over functions of \p NumNodes nodes: Zipf
/// ZipfExponent, ranks taking the SizeClasses size classes in turn, so
/// every seed's hot set has the same mix of function sizes.
ZipfSampler readSampler(const std::vector<uint32_t> &NumNodes, uint64_t Seed);

/// Node counts of every function of \p Img (query arguments).
std::vector<uint32_t> nodeCounts(const pst::CorpusImage &Img);

} // namespace perfbench

#endif // PERFBENCH_SERVECOMMON_H
