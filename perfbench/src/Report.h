//===- perfbench/src/Report.h - Metrics, operation counts, output -*- C++ -*-===//
//
// Collects what one benchmark run measured: named metrics with units and
// sample counts, and the attempted/failed operation tally. Prints a
// human-readable block followed, as the last line of stdout, by the JSON
// result object.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class Report {
public:
  /// Records metric \p Name. \p Samples is the number of measurements the
  /// value summarizes; \p Note says how it was derived (its base, for a
  /// ratio). A name set twice keeps the last value.
  void metric(const std::string &Name, double Value, const std::string &Unit,
              uint64_t Samples, const std::string &Note = {});

  /// Counts one operation; a false \p Ok counts it as failed and logs
  /// \p What (the first few failures only). Thread-safe.
  void attempt(bool Ok, const std::string &What);
  /// Counts \p N operations of which \p Failed failed. Thread-safe.
  void attempts(uint64_t N, uint64_t Failed, const std::string &What);

  /// A free-form line printed in the human-readable block.
  void note(const std::string &Line);

  uint64_t attempted() const { return Attempted.load(); }
  uint64_t failed() const { return Failed.load(); }

  void print(std::ostream &OS) const;

private:
  struct Metric {
    std::string Name, Unit, Note;
    double Value = 0;
    uint64_t Samples = 0;
  };
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;
  std::atomic<uint64_t> Attempted{0}, Failed{0};
  mutable std::mutex M; // Guards Notes and FailureLog.
  std::vector<std::string> FailureLog;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
