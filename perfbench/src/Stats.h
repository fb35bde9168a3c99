//===- perfbench/src/Stats.h - Sampling and summary helpers ----*- C++ -*-===//
//
// Seeded random streams (over pst::Rng), a Zipf sampler, and percentile
// summaries for the repository benchmark. Everything here is a pure function
// of its inputs (no std:: distributions, whose output differs between
// standard libraries), so the same --seed gives the same inputs on every
// machine.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include "pst/support/Rng.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Uniform in [0, N) from \p R; N > 0. Multiply-shift rather than
/// pst::Rng::nextBelow's modulo, so no bias worth measuring at the ranges
/// used here.
inline uint64_t below(pst::Rng &R, uint64_t N) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(R.next()) * N) >> 64);
}

/// Mixes a run seed with a stream tag, so independent streams of one run
/// (reader 0, reader 1, the writer, ...) never share a sequence.
uint64_t deriveSeed(uint64_t Seed, uint64_t Tag);

/// Samples ranks 0..N-1 with P(rank k) proportional to 1/(k+1)^S, mapped
/// through a seeded permutation so the hot items are scattered over the
/// id space rather than packed at its start. With \p ClassOf set (one
/// class per item, classes 0..C-1) ranks take the classes in turn, rank K
/// going to class K % C (each class permuted on its own), so every seed
/// gives each class the same share of the traffic.
class ZipfSampler {
public:
  ZipfSampler(uint64_t N, double S, uint64_t PermutationSeed,
              const std::vector<uint32_t> &ClassOf = {});

  uint64_t size() const { return Cdf.size(); }
  /// The item (not the rank) for one draw from \p R.
  uint64_t sample(pst::Rng &R) const;
  /// Probability mass of rank \p K, for tests.
  double rankProbability(uint64_t K) const;

private:
  std::vector<double> Cdf;
  std::vector<uint64_t> ItemOfRank;
};

/// Class of item I = I % \p Classes, for ZipfSampler.
std::vector<uint32_t> moduloClasses(uint64_t N, uint32_t Classes);

/// \p Classes classes of equal count by ascending \p Size (ties by id):
/// class 0 holds the smallest items, for ZipfSampler.
std::vector<uint32_t> sizeClasses(const std::vector<uint32_t> &Size,
                                  uint32_t Classes);

/// Order statistics of one sample set. Percentiles interpolate linearly
/// between closest ranks (the default of numpy and of Python's
/// statistics.quantiles(method="inclusive")).
struct Summary {
  uint64_t Count = 0;
  double P50 = 0, P99 = 0;
};

/// \p Q in [0, 1]; \p Sorted ascending and non-empty.
template <class T>
double percentileSorted(const std::vector<T> &Sorted, double Q) {
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = Lo + 1 < Sorted.size() ? Lo + 1 : Lo;
  double Frac = Pos - static_cast<double>(Lo);
  return static_cast<double>(Sorted[Lo]) +
         (static_cast<double>(Sorted[Hi]) - static_cast<double>(Sorted[Lo])) *
             Frac;
}

/// Sorts \p Values in place. Empty input gives an all-zero summary.
template <class T> Summary summarize(std::vector<T> &Values) {
  Summary S;
  if (Values.empty())
    return S;
  std::sort(Values.begin(), Values.end());
  S.Count = Values.size();
  S.P50 = percentileSorted(Values, 0.50);
  S.P99 = percentileSorted(Values, 0.99);
  return S;
}
/// Median of \p Values (copied); 0 for empty input.
double median(std::vector<double> Values);

/// Total number of samples across \p Streams.
template <class T>
uint64_t sampleCount(const std::vector<std::vector<T>> &Streams) {
  uint64_t N = 0;
  for (const std::vector<T> &S : Streams)
    N += S.size();
  return N;
}

/// At most this many windows per client and run.
inline constexpr unsigned MaxWindows = 40;
/// Samples a window keeps beyond the percentile it reports.
inline constexpr double SamplesBeyond = 10;

/// Windows for \p Samples samples and percentile \p Q: as many as keep
/// SamplesBeyond samples above the Q-percentile in each (1000 samples a
/// window for p99), between 1 and MaxWindows.
inline unsigned windowCount(uint64_t Samples, double Q) {
  return static_cast<unsigned>(std::clamp<uint64_t>(
      static_cast<uint64_t>(Samples * (1 - Q) / SamplesBeyond + 1e-9), 1,
      MaxWindows));
}

/// The \p Q-percentile of each window of each client: every stream holds
/// one client's samples in time order and is cut on its own into
/// windowCount consecutive windows. Clients run on different CPUs, which
/// a shared host slows at different times, so each (client, window) pair
/// is a round of its own. Clients in order, windows in order.
template <class T>
std::vector<double>
windowedPercentiles(const std::vector<std::vector<T>> &Streams, double Q) {
  std::vector<double> PerWindow;
  std::vector<T> W;
  for (const std::vector<T> &S : Streams) {
    const unsigned Windows = windowCount(S.size(), Q);
    for (unsigned K = 0; K < Windows; ++K) {
      W.assign(S.begin() + S.size() * K / Windows,
               S.begin() + S.size() * (K + 1) / Windows);
      if (W.empty())
        continue;
      std::sort(W.begin(), W.end());
      PerWindow.push_back(percentileSorted(W, Q));
    }
  }
  return PerWindow;
}

/// Operations per second of each client in each of MaxWindows equal time
/// windows of [\p Begin, \p End) (ns), clients in order. \p Marks holds,
/// per client, the time of every \p Weight-th operation it completed.
std::vector<double>
windowedRates(const std::vector<std::vector<int64_t>> &Marks, uint64_t Weight,
              int64_t Begin, int64_t End);

/// Process-wide peak resident set size in MiB (getrusage high-water mark).
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_STATS_H
