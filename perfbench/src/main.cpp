//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Usage:
//   perfbench --workload stream_build|serve_read|serve_edit --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// Runs one workload for S seconds on inputs generated from seed N, checks
// its outputs, and prints every metric by name and unit; the last line of
// stdout is the JSON result. --trace 1 makes the separate traced run that
// reports the per-layer metrics and writes the span dump and layer table
// to DIR. perfbench/run.py builds this binary and is the usual entry point.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string_view>
#include <thread>

using namespace perfbench;

namespace perfbench {

void finishTrace(const RunOptions &O, const Tracer &T, Report &R) {
  std::vector<Span> Spans = T.collect();
  std::vector<double> Self = selfTimesNs(Spans);
  std::string Table = formatLayerTable(layerTable(T, Spans, Self));
  const std::string Base = O.WorkDir + "/" + O.Workload;
  std::ofstream(Base + "-layers.txt") << Table;
  constexpr size_t MaxDumpSpans = 200000;
  R.attempt(writeSpanDump(Base + "-spans.json", T, Spans, MaxDumpSpans),
            "writing the span dump");
  R.note("per-layer table (" + std::to_string(Spans.size()) + " spans, " +
         std::to_string(T.dropped()) + " dropped; peak RSS " +
         std::to_string(peakRssMb()) + " MB; dump and table in " + Base +
         "-spans.json / -layers.txt):");
  size_t Start = 0;
  while (Start < Table.size()) {
    size_t End = Table.find('\n', Start);
    R.note("  " + Table.substr(Start, End - Start));
    Start = End + 1;
  }
}

} // namespace perfbench

int main(int argc, char **argv) {
  RunOptions O;
  O.WorkDir = ".bench_build/perfbench-work";
  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    if (I + 1 >= argc) {
      std::cerr << "error: " << A << " needs a value\n";
      return 2;
    }
    const char *V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      O.Trace = std::string_view(V) == "1";
    else if (A == "--workdir")
      O.WorkDir = V;
    else {
      std::cerr << "error: unknown argument " << A << "\n";
      return 2;
    }
  }
  int (*Run)(const RunOptions &, Report &) = nullptr;
  if (O.Workload == "stream_build")
    Run = runStreamBuild;
  else if (O.Workload == "serve_read")
    Run = runServeRead;
  else if (O.Workload == "serve_edit")
    Run = runServeEdit;
  if (!Run || O.Seconds <= 0) {
    std::cerr << "usage: perfbench --workload stream_build|serve_read|"
                 "serve_edit --seed N --seconds S --trace 0|1 [--workdir D]\n";
    return 2;
  }
  std::error_code Ec;
  std::filesystem::create_directories(O.WorkDir, Ec);
  if (Ec) {
    std::cerr << "error: cannot create " << O.WorkDir << ": " << Ec.message()
              << "\n";
    return 1;
  }

  Report R;
  R.note("workload " + O.Workload + " seed " + std::to_string(O.Seed) +
         " seconds " + std::to_string(O.Seconds) + " trace " +
         (O.Trace ? "1" : "0") + " threads " + std::to_string(ThreadBudget) +
         " hardware_concurrency " +
         std::to_string(std::thread::hardware_concurrency()));
  if (int Rc = Run(O, R)) {
    std::cerr << "error: workload " << O.Workload << " could not run\n";
    R.print(std::cerr);
    return Rc;
  }
  R.print(std::cout);
  return 0;
}
