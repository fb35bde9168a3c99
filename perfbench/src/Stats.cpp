//===- perfbench/src/Stats.cpp - Sampling and summary helpers -------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

#include <sys/resource.h>

namespace perfbench {

uint64_t deriveSeed(uint64_t Seed, uint64_t Tag) {
  pst::Rng R(Seed ^ (Tag * 0xd1342543de82ef95ull));
  R.next();
  return R.next();
}

ZipfSampler::ZipfSampler(uint64_t N, double S, uint64_t PermutationSeed,
                         const std::vector<uint32_t> &ClassOf)
    : Cdf(N) {
  double Sum = 0;
  for (uint64_t K = 0; K < N; ++K) {
    Sum += 1.0 / std::pow(static_cast<double>(K + 1), S);
    Cdf[K] = Sum;
  }
  for (double &C : Cdf)
    C /= Sum;
  if (N)
    Cdf[N - 1] = 1.0;
  pst::Rng R(PermutationSeed);
  std::vector<std::vector<uint64_t>> Classes(1);
  for (uint64_t I = 0; I < N; ++I) {
    const uint32_t C = ClassOf.empty() ? 0 : ClassOf[I];
    if (C >= Classes.size())
      Classes.resize(C + 1);
    Classes[C].push_back(I);
  }
  for (std::vector<uint64_t> &C : Classes)
    for (uint64_t I = C.size(); I > 1; --I)
      std::swap(C[I - 1], C[below(R, I)]);
  ItemOfRank.reserve(N);
  for (size_t Pos = 0; ItemOfRank.size() < N; ++Pos)
    for (const std::vector<uint64_t> &C : Classes)
      if (Pos < C.size())
        ItemOfRank.push_back(C[Pos]);
}

uint64_t ZipfSampler::sample(pst::Rng &R) const {
  double U = R.nextDouble();
  auto It = std::upper_bound(Cdf.begin(), Cdf.end(), U);
  uint64_t Rank = std::min<uint64_t>(It - Cdf.begin(), Cdf.size() - 1);
  return ItemOfRank[Rank];
}

double ZipfSampler::rankProbability(uint64_t K) const {
  return K == 0 ? Cdf[0] : Cdf[K] - Cdf[K - 1];
}

std::vector<uint32_t> moduloClasses(uint64_t N, uint32_t Classes) {
  std::vector<uint32_t> Out(N);
  for (uint64_t I = 0; I < N; ++I)
    Out[I] = static_cast<uint32_t>(I % Classes);
  return Out;
}

std::vector<uint32_t> sizeClasses(const std::vector<uint32_t> &Size,
                                  uint32_t Classes) {
  std::vector<uint64_t> Order(Size.size());
  for (uint64_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(),
                   [&](uint64_t A, uint64_t B) { return Size[A] < Size[B]; });
  std::vector<uint32_t> Out(Size.size());
  for (uint64_t Pos = 0; Pos < Order.size(); ++Pos)
    Out[Order[Pos]] = static_cast<uint32_t>(Pos * Classes / Order.size());
  return Out;
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  return percentileSorted(Values, 0.5);
}

std::vector<double>
windowedRates(const std::vector<std::vector<int64_t>> &Marks, uint64_t Weight,
              int64_t Begin, int64_t End) {
  std::vector<double> Rates;
  if (End <= Begin)
    return Rates;
  const double Span = static_cast<double>(End - Begin);
  for (const std::vector<int64_t> &M : Marks) {
    std::vector<uint64_t> Count(MaxWindows);
    for (int64_t T : M)
      if (T >= Begin && T < End)
        ++Count[static_cast<size_t>((T - Begin) / Span * MaxWindows)];
    for (uint64_t C : Count)
      Rates.push_back(static_cast<double>(C * Weight) /
                      (Span / MaxWindows / 1e9));
  }
  return Rates;
}

double peakRssMb() {
  struct rusage Ru {};
  getrusage(RUSAGE_SELF, &Ru);
  return static_cast<double>(Ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

} // namespace perfbench
