//===- perfbench/src/Report.cpp - Metrics, operation counts, output -------===//

#include "Report.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {
constexpr size_t MaxLoggedFailures = 20;

/// Shortest decimal that reads back as the same double: every digit the
/// measurement has, none it does not.
std::string fullDigits(double V) {
  char Buf[64];
  for (int Prec = 15; Prec <= 17; ++Prec) {
    std::snprintf(Buf, sizeof Buf, "%.*g", Prec, V);
    if (std::strtod(Buf, nullptr) == V)
      break;
  }
  return Buf;
}
} // namespace

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit, uint64_t Samples,
                    const std::string &Note) {
  for (Metric &Mt : Metrics)
    if (Mt.Name == Name) {
      Mt = {Name, Unit, Note, Value, Samples};
      return;
    }
  Metrics.push_back({Name, Unit, Note, Value, Samples});
}

void Report::attempt(bool Ok, const std::string &What) {
  attempts(1, Ok ? 0 : 1, What);
}

void Report::attempts(uint64_t N, uint64_t F, const std::string &What) {
  Attempted.fetch_add(N);
  if (!F)
    return;
  Failed.fetch_add(F);
  std::lock_guard<std::mutex> Lock(M);
  if (FailureLog.size() < MaxLoggedFailures)
    FailureLog.push_back(std::to_string(F) + " failed: " + What);
}

void Report::note(const std::string &Line) {
  std::lock_guard<std::mutex> Lock(M);
  Notes.push_back(Line);
}

void Report::print(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(M);
  for (const std::string &L : Notes)
    OS << L << "\n";
  for (const std::string &L : FailureLog)
    OS << "FAILURE " << L << "\n";
  uint64_t A = Attempted.load(), F = Failed.load();
  OS << "fail_ratio " << fullDigits(A ? double(F) / double(A) : 0.0)
     << " (" << F << " failed of " << A << " attempted operations)\n";
  for (const Metric &Mt : Metrics) {
    OS << "metric " << Mt.Name << " = " << fullDigits(Mt.Value) << " "
       << Mt.Unit << " (n=" << Mt.Samples << ")";
    if (!Mt.Note.empty())
      OS << "  " << Mt.Note;
    OS << "\n";
  }
  OS << "{\"correct\": " << (F == 0 ? "true" : "false")
     << ", \"attempted\": " << A << ", \"failed\": " << F
     << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &Mt = Metrics[I];
    OS << (I ? ", " : "") << "\"" << Mt.Name
       << "\": {\"value\": " << fullDigits(Mt.Value) << ", \"unit\": \""
       << Mt.Unit << "\"}";
  }
  OS << "}}" << std::endl;
}

} // namespace perfbench
