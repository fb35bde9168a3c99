//===- time_stream_corpus.cpp - Bounded-memory million-function pipeline ------===//
//
// Measures what the streaming pipeline exists for: building, verifying,
// and analyzing corpus images far larger than RAM should ever have to
// hold. For each corpus size (default 10k / 100k / 1M functions) it
//
//   build   — streams the generated corpus through
//             BatchAnalyzer::buildImageStream in bounded chunks into an
//             out-of-core image file (one generator pass, each section
//             spooled and assembled at the end, never more than one chunk
//             resident);
//   verify  — verifyImageFile's windowed checksum pass over the file;
//   analyze — analyzeCorpusStream over the mapped image: windowed
//             parallel analysis draining through a sink, with the mapped
//             pages dropped between windows.
//
// The memory claim is enforced, not just reported: getrusage peak RSS is
// sampled after every size, and because ru_maxrss is a monotone
// high-water mark, the whole pipeline must stay bounded for the gate to
// pass — peak RSS after the largest size must be at most 2x peak RSS
// after the 100k size (when a larger size ran; else the second-largest
// size), else the bench exits 1. A pipeline that held the
// corpus (or the image) in memory would blow this by an order of
// magnitude. A second gate keeps the build single-pass: the bench's
// producer counts the functions it generates, and if any build asked for
// more than one generation per function (gen_calls_per_fn above 1.0) the
// bench exits 1.
//
// Usage: time_stream_corpus [--threads t1,t2,...] [--sizes n1,n2,...]
//                           [--chunk n] [--keep]
//
// Emits a human-readable table on stdout and machine-readable
// BENCH_stream.json ("pst-bench-v1" schema) in the working directory.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "pst/runtime/BatchAnalyzer.h"
#include "pst/workload/CorpusStream.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace pst;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct ThreadRun {
  unsigned Threads = 0; ///< Requested (0 = hardware); workers reported.
  unsigned Workers = 0;
  double BuildSec = 0;
  double BuildFnsPerSec = 0;
  double BuildBytesPerSec = 0;
  /// Functions the producer generated during the build, per function.
  double GenCallsPerFn = 0;
};

struct SizeReport {
  uint64_t Functions = 0;
  uint64_t ImageBytes = 0;
  std::vector<ThreadRun> Runs;
  double VerifySec = 0;
  double AnalyzeSec = 0;
  double AnalyzeFnsPerSec = 0;
  uint64_t PeakRssAfter = 0; ///< Process high-water mark after this size.
};

std::vector<uint64_t> parseList(const char *Arg, const char *Flag) {
  std::vector<uint64_t> Out;
  const char *P = Arg;
  while (*P) {
    char *End = nullptr;
    uint64_t V = std::strtoull(P, &End, 0);
    if (End == P) {
      std::cerr << "error: " << Flag << " expects a comma-separated list "
                << "of numbers, got '" << Arg << "'\n";
      std::exit(1);
    }
    Out.push_back(V);
    P = (*End == ',') ? End + 1 : End;
  }
  if (Out.empty()) {
    std::cerr << "error: " << Flag << " got an empty list\n";
    std::exit(1);
  }
  return Out;
}

SizeReport benchSize(uint64_t Count, const std::vector<uint64_t> &Threads,
                     uint64_t Chunk, const std::string &Path, bool Keep) {
  SizeReport R;
  R.Functions = Count;

  StreamCorpusOptions SO;
  SO.Count = Count;
  uint64_t Generated = 0;
  auto Produce = [&SO, &Generated](uint64_t Begin, uint64_t N,
                                   std::vector<Cfg> &G,
                                   std::vector<std::string> &Names) {
    G.resize(N);
    Names.resize(N);
    for (uint64_t I = 0; I < N; ++I)
      generateStreamFunction(SO, Begin + I, G[I], Names[I]);
    Generated += N;
  };

  for (uint64_t T : Threads) {
    BatchOptions BO;
    BO.NumThreads = unsigned(T);
    BatchAnalyzer Engine(BO);
    ThreadRun Run;
    Run.Threads = unsigned(T);
    Run.Workers = Engine.numWorkers();

    std::string Error;
    Generated = 0;
    Clock::time_point Start = Clock::now();
    if (!Engine.buildImageStream(Count, Produce, size_t(Chunk), Path,
                                 &Error)) {
      std::cerr << "FATAL: " << Error << "\n";
      std::exit(1);
    }
    Run.BuildSec = secondsSince(Start);
    Run.GenCallsPerFn = Count ? double(Generated) / double(Count) : 0;

    {
      std::ifstream In(Path, std::ios::binary | std::ios::ate);
      R.ImageBytes = uint64_t(In.tellg());
    }
    Run.BuildFnsPerSec = Run.BuildSec > 0 ? double(Count) / Run.BuildSec : 0;
    Run.BuildBytesPerSec =
        Run.BuildSec > 0 ? double(R.ImageBytes) / Run.BuildSec : 0;
    R.Runs.push_back(Run);
    std::printf("  %8llu fns  %2u worker(s)  build %8.2f s  "
                "%9.0f fns/s  %7.1f MB/s  %.2f gen/fn\n",
                static_cast<unsigned long long>(Count), Run.Workers,
                Run.BuildSec, Run.BuildFnsPerSec,
                Run.BuildBytesPerSec / 1e6, Run.GenCallsPerFn);
  }

  // Windowed checksum verification: the integrity pass that never maps
  // (and therefore never faults in) the whole image.
  std::string Error;
  Clock::time_point Start = Clock::now();
  if (!verifyImageFile(Path, &Error)) {
    std::cerr << "FATAL: " << Error << "\n";
    std::exit(1);
  }
  R.VerifySec = secondsSince(Start);

  // Streamed mapped analysis: windows of parallel work draining through a
  // sink, pages dropped between windows.
  {
    CorpusImage Img = CorpusImage::map(Path, &Error);
    if (!Img.valid()) {
      std::cerr << "FATAL: " << Error << "\n";
      std::exit(1);
    }
    BatchAnalyzer Engine; // Hardware threads for the analysis pass.
    uint64_t Seen = 0, Regions = 0;
    Start = Clock::now();
    Engine.analyzeCorpusStream(
        Img,
        [&](uint64_t, const FunctionAnalysis &A) {
          ++Seen;
          Regions += A.Pst.numRegions();
        });
    R.AnalyzeSec = secondsSince(Start);
    if (Seen != Count || Regions == 0) {
      std::cerr << "FATAL: streamed analysis visited " << Seen << " of "
                << Count << " functions\n";
      std::exit(1);
    }
    R.AnalyzeFnsPerSec = R.AnalyzeSec > 0 ? double(Count) / R.AnalyzeSec : 0;
  }

  if (!Keep)
    std::remove(Path.c_str());
  R.PeakRssAfter = pstbench::peakRssBytes();
  std::printf("  %8s      verify %6.2f s   analyze %6.2f s (%9.0f fns/s)  "
              "peak RSS %6.1f MB\n",
              "", R.VerifySec, R.AnalyzeSec, R.AnalyzeFnsPerSec,
              double(R.PeakRssAfter) / 1e6);
  return R;
}

void writeJson(const std::string &Path, const std::vector<SizeReport> &Sizes,
               uint64_t Chunk, bool GatePass, uint64_t RssSmall,
               uint64_t RssLarge, double GenCallsPerFn) {
  const SizeReport &Largest = Sizes.back();
  std::ofstream OS(Path);
  OS << "{\n";
  pstbench::writeSchemaPreamble(
      OS, "stream_corpus", "stream-generated",
      Largest.Runs.empty() ? 0 : Largest.Runs.back().BuildFnsPerSec);
  OS << "  \"chunk_functions\": " << Chunk << ",\n";
  OS << "  \"gen_calls_per_fn\": " << GenCallsPerFn << ",\n";
  OS << "  \"sizes\": [\n";
  for (size_t I = 0; I < Sizes.size(); ++I) {
    const SizeReport &S = Sizes[I];
    OS << "    {\n";
    OS << "      \"functions\": " << S.Functions << ",\n";
    OS << "      \"image_bytes\": " << S.ImageBytes << ",\n";
    OS << "      \"runs\": [\n";
    for (size_t J = 0; J < S.Runs.size(); ++J) {
      const ThreadRun &R = S.Runs[J];
      OS << "        {\"threads\": " << R.Threads
         << ", \"workers\": " << R.Workers
         << ", \"build_sec\": " << R.BuildSec
         << ", \"fns_per_sec\": " << R.BuildFnsPerSec
         << ", \"bytes_per_sec\": " << R.BuildBytesPerSec
         << ", \"gen_calls_per_fn\": " << R.GenCallsPerFn << "}"
         << (J + 1 < S.Runs.size() ? "," : "") << "\n";
    }
    OS << "      ],\n";
    OS << "      \"verify_sec\": " << S.VerifySec << ",\n";
    OS << "      \"analyze_sec\": " << S.AnalyzeSec << ",\n";
    OS << "      \"analyze_fns_per_sec\": " << S.AnalyzeFnsPerSec << ",\n";
    OS << "      \"peak_rss_bytes_after\": " << S.PeakRssAfter << "\n";
    OS << "    }" << (I + 1 < Sizes.size() ? "," : "") << "\n";
  }
  OS << "  ],\n";
  OS << "  \"rss_gate\": {\n";
  OS << "    \"rss_after_small\": " << RssSmall << ",\n";
  OS << "    \"rss_after_large\": " << RssLarge << ",\n";
  OS << "    \"ratio\": "
     << (RssSmall > 0 ? double(RssLarge) / double(RssSmall) : 0) << ",\n";
  OS << "    \"max_ratio\": 2.0,\n";
  OS << "    \"pass\": " << (GatePass ? "true" : "false") << "\n";
  OS << "  }\n";
  OS << "}\n";
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<uint64_t> Threads = {0}; // 0 = hardware concurrency.
  std::vector<uint64_t> Sizes = {10000, 100000, 1000000};
  uint64_t Chunk = 4096;
  bool Keep = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NeedArg = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::cerr << "error: " << A << " needs an argument\n";
        std::exit(1);
      }
      return Argv[++I];
    };
    if (A == "--threads")
      Threads = parseList(NeedArg(), "--threads");
    else if (A == "--sizes")
      Sizes = parseList(NeedArg(), "--sizes");
    else if (A == "--chunk")
      Chunk = std::max<uint64_t>(1, parseList(NeedArg(), "--chunk")[0]);
    else if (A == "--keep")
      Keep = true;
    else {
      std::cerr << "error: unknown option '" << A << "'\n";
      return 1;
    }
  }
  std::sort(Sizes.begin(), Sizes.end());

  std::cout << "=== Streaming corpus pipeline (chunk " << Chunk
            << " functions) ===\n\n";
  std::vector<SizeReport> Reports;
  for (uint64_t N : Sizes)
    Reports.push_back(benchSize(N, Threads, Chunk,
                                "bench_stream_" + std::to_string(N) + ".img",
                                Keep));

  // The bounded-memory gate: peak RSS is a process-monotone high-water
  // mark, so if the largest corpus (10x the functions) at most doubles it
  // over the 100k point, no stage held the corpus or the image in memory.
  // Sizes run in the order given, largest last. The reference is 100k
  // only when a larger size ran — otherwise the gate would compare the
  // 100k report with itself — and else the second-largest size.
  bool GatePass = true;
  uint64_t RssSmall = 0, RssLarge = 0;
  if (Reports.size() >= 2) {
    const SizeReport &Large = Reports.back();
    const SizeReport *Ref = &Reports[Reports.size() - 2];
    for (const SizeReport &S : Reports)
      if (S.Functions == 100000 && S.Functions < Large.Functions)
        Ref = &S;
    RssSmall = Ref->PeakRssAfter;
    RssLarge = Large.PeakRssAfter;
    GatePass = RssSmall == 0 || RssLarge <= 2 * RssSmall;
    std::printf("\nRSS gate: %.1f MB after %llu fns vs %.1f MB after %llu "
                "fns (ratio %.2f, limit 2.00) -> %s\n",
                double(RssSmall) / 1e6,
                static_cast<unsigned long long>(Ref->Functions),
                double(RssLarge) / 1e6,
                static_cast<unsigned long long>(Large.Functions),
                RssSmall ? double(RssLarge) / double(RssSmall) : 0.0,
                GatePass ? "pass" : "FAIL");
  }

  // The single-pass gate: the worst build's generations per function.
  double GenCallsPerFn = 0;
  for (const SizeReport &S : Reports)
    for (const ThreadRun &R : S.Runs)
      GenCallsPerFn = std::max(GenCallsPerFn, R.GenCallsPerFn);
  const bool SinglePass = GenCallsPerFn <= 1.0;
  std::printf("Single-pass gate: %.2f generations per function (limit "
              "1.00) -> %s\n",
              GenCallsPerFn, SinglePass ? "pass" : "FAIL");

  writeJson("BENCH_stream.json", Reports, Chunk, GatePass, RssSmall,
            RssLarge, GenCallsPerFn);
  std::cout << "\nwrote BENCH_stream.json\n";
  if (!GatePass) {
    std::cerr << "FATAL: peak RSS grew more than 2x between the reference "
                 "and the largest corpus — the pipeline is not bounded\n";
    return 1;
  }
  if (!SinglePass) {
    std::cerr << "FATAL: the image build generated functions more than once "
                 "— buildImageStream is no longer single-pass\n";
    return 1;
  }
  return 0;
}
