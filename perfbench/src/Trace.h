//===- perfbench/src/Trace.h - Bench-side spans ----------------*- C++ -*-===//
//
// The traced run's span recorder. Spans are taken by the benchmark around
// its calls into each layer's public functions (the library itself is not
// instrumented for this). Each span has a name, a start, an end, a parent
// span and a request id; spans are held in memory, one buffer per recording
// thread, and analysed and written out when the run ends.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover. Children may run on other threads and may overlap
// each other (a pool's workers calling back into the benchmark), so the
// covered part is the length of the union of the children's intervals,
// clipped to the parent.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0: a root span.
  uint64_t Request = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  uint32_t Name = 0;
  uint32_t Thread = 0;
};

/// One recording thread's spans. Only its owner thread touches it while
/// spans are recorded.
class SpanBuffer {
public:
  SpanBuffer(uint32_t Index, size_t Capacity) : Index(Index), Cap(Capacity) {}

  /// A fresh span id, unique across every buffer of the tracer.
  uint64_t newId() { return (uint64_t(Index) + 1) << 40 | ++Seq; }
  void push(const Span &S) {
    if (Spans.size() < Cap)
      Spans.push_back(S);
    else
      ++Dropped;
  }
  uint32_t index() const { return Index; }

private:
  friend class Tracer;
  uint32_t Index;
  size_t Cap;
  uint64_t Seq = 0;
  uint64_t Dropped = 0;
  std::vector<Span> Spans;
};

class Tracer {
public:
  explicit Tracer(size_t SpansPerBuffer = 1u << 20)
      : SpansPerBuffer(SpansPerBuffer) {}

  /// Interns a span name. Call before spans of that name are recorded.
  uint32_t name(std::string_view N);
  const std::string &nameOf(uint32_t Id) const { return Names[Id]; }
  /// The id of an interned name, or NoName.
  uint32_t find(std::string_view N) const;
  static constexpr uint32_t NoName = ~0u;

  /// A new buffer for one recording thread; stays valid for the tracer's
  /// lifetime. Thread-safe.
  SpanBuffer &buffer();

  /// Every recorded span, ordered by start time. Call once recording
  /// threads have stopped.
  std::vector<Span> collect() const;
  uint64_t dropped() const;

private:
  size_t SpansPerBuffer;
  std::vector<std::string> Names;
  mutable std::mutex M;
  std::deque<SpanBuffer> Buffers; // Guarded by M; deque keeps addresses.
};

/// Records one span over its lifetime into \p B; a null buffer records
/// nothing, so untraced code paths pay one branch.
class ScopedSpan {
public:
  ScopedSpan(SpanBuffer *B, uint32_t Name, uint64_t Parent = 0,
             uint64_t Request = 0)
      : B(B) {
    if (!B)
      return;
    S.Id = B->newId();
    S.Parent = Parent;
    S.Request = Request;
    S.Name = Name;
    S.Thread = B->index();
    S.StartNs = nowNs();
  }
  ~ScopedSpan() {
    if (!B)
      return;
    S.EndNs = nowNs();
    B->push(S);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint64_t id() const { return S.Id; }

private:
  SpanBuffer *B;
  Span S;
};

/// Self time of every span in \p Spans (same order), in ns.
std::vector<double> selfTimesNs(const std::vector<Span> &Spans);

/// One row of the per-layer table: every span of one name.
struct LayerRow {
  std::string Name;
  std::string ParentName; ///< Empty for root spans.
  uint64_t Count = 0;
  double TotalNs = 0;       ///< Sum of durations.
  double SelfNs = 0;        ///< Sum of self times.
  double ParentTotalNs = 0; ///< Sum of the distinct parents' durations.

  /// Share of the parents' time spent in these spans (the base is
  /// ParentTotalNs); above 1 when children overlap on several threads.
  double parentShare() const {
    return ParentTotalNs > 0 ? TotalNs / ParentTotalNs : 0;
  }
};

std::vector<LayerRow> layerTable(const Tracer &T,
                                 const std::vector<Span> &Spans,
                                 const std::vector<double> &SelfNs);

/// Human-readable table of \p Rows, one line per span name.
std::string formatLayerTable(const std::vector<LayerRow> &Rows);

/// Writes at most \p MaxSpans spans as Chrome trace-event JSON (open it in
/// chrome://tracing or Perfetto). Returns false on I/O failure.
bool writeSpanDump(const std::string &Path, const Tracer &T,
                   const std::vector<Span> &Spans, size_t MaxSpans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
