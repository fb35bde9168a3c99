//===- perfbench/tests/HelpersTest.cpp - Benchmark helper tests -----------===//
//
// Unit tests for the benchmark's own helpers: percentiles and sample
// counts, span self time under nested and overlapping children, and the
// determinism of the seeded Zipf sampler.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace perfbench;

namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  std::vector<double> V(100);
  std::iota(V.begin(), V.end(), 1.0); // 1..100
  EXPECT_DOUBLE_EQ(percentileSorted(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentileSorted(V, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(percentileSorted(V, 0.99), 99.01);
  EXPECT_DOUBLE_EQ(percentileSorted(V, 1.0), 100.0);
}

TEST(Percentile, SummaryCountsSamplesAndSorts) {
  std::vector<double> V = {5, 1, 4, 2, 3};
  Summary S = summarize(V);
  EXPECT_EQ(S.Count, 5u);
  EXPECT_DOUBLE_EQ(S.P50, 3);
  EXPECT_DOUBLE_EQ(S.P99, 4.96);
  EXPECT_TRUE(std::is_sorted(V.begin(), V.end()));
}

TEST(Percentile, IntegerSamplesAndEdgeCases) {
  std::vector<uint32_t> Ns = {300, 100, 200};
  Summary S = summarize(Ns);
  EXPECT_EQ(S.Count, 3u);
  EXPECT_DOUBLE_EQ(S.P50, 200);
  std::vector<double> One = {7};
  EXPECT_DOUBLE_EQ(summarize(One).P99, 7);
  std::vector<double> None;
  EXPECT_EQ(summarize(None).Count, 0u);
  EXPECT_DOUBLE_EQ(median({}), 0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2, 10}), 2.5);
}

TEST(Percentile, WindowCountKeepsEnoughSamplesPerWindow) {
  EXPECT_EQ(windowCount(0, 0.99), 1u);
  EXPECT_EQ(windowCount(1999, 0.99), 1u);
  EXPECT_EQ(windowCount(3000, 0.99), 3u);
  EXPECT_EQ(windowCount(3000, 0.999), 1u);
  EXPECT_EQ(windowCount(30000, 0.999), 3u);
  EXPECT_EQ(windowCount(300, 0.90), 3u);
  EXPECT_EQ(windowCount(uint64_t(1) << 40, 0.99), MaxWindows);
}

TEST(Percentile, WindowedPercentilesCutEachClientOnItsOwn) {
  // Two clients of 5000 samples, 5 windows each; window 2 of client 0 is
  // a burst of slow samples, which shows in that (client, window) only.
  std::vector<std::vector<double>> Streams(2);
  for (int I = 0; I < 5000; ++I) {
    Streams[0].push_back(I >= 2000 && I < 3000 ? 1000.0 : 10.0 + I % 7);
    Streams[1].push_back(10.0 + I % 7);
  }
  ASSERT_EQ(windowCount(Streams[0].size(), 0.99), 5u);
  EXPECT_EQ(windowedPercentiles(Streams, 0.99),
            (std::vector<double>{16, 16, 1000, 16, 16, 16, 16, 16, 16, 16}));
  // Few samples: one window, the plain percentile.
  std::vector<std::vector<double>> Small = {{3, 1, 2}};
  EXPECT_EQ(windowedPercentiles(Small, 0.5), (std::vector<double>{2}));
}

TEST(Percentile, WindowedRatesCountEachClientsMarksPerWindow) {
  // 40 s run. Client 0 marks every 10 ms but none in the 10 s from
  // t = 10 s; client 1 marks every 20 ms throughout.
  std::vector<std::vector<int64_t>> Marks(2);
  const int64_t S = 1000000000;
  for (int64_t T = 0; T < 40 * S; T += 10000000) {
    if (T < 10 * S || T >= 20 * S)
      Marks[0].push_back(T);
    if (T % 20000000 == 0)
      Marks[1].push_back(T);
  }
  std::vector<double> Rates = windowedRates(Marks, 4, 0, 40 * S);
  ASSERT_EQ(Rates.size(), 2 * MaxWindows);
  // Per 1 s window: 100 marks x weight 4 = 400 ops/s; 0 while stalled.
  EXPECT_DOUBLE_EQ(Rates[0], 400.0);
  EXPECT_DOUBLE_EQ(Rates[15], 0.0);
  EXPECT_DOUBLE_EQ(Rates[39], 400.0);
  EXPECT_DOUBLE_EQ(Rates[MaxWindows + 15], 200.0);
  EXPECT_TRUE(windowedRates(Marks, 4, 10, 10).empty());
}

Span span(uint64_t Id, uint64_t Parent, int64_t Start, int64_t End) {
  Span S;
  S.Id = Id;
  S.Parent = Parent;
  S.StartNs = Start;
  S.EndNs = End;
  return S;
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // Root [0,100] > child [10,60] > grandchild [20,50].
  std::vector<Span> S = {span(1, 0, 0, 100), span(2, 1, 10, 60),
                         span(3, 2, 20, 50)};
  std::vector<double> Self = selfTimesNs(S);
  EXPECT_DOUBLE_EQ(Self[0], 50); // 100 - 50; the grandchild is inside.
  EXPECT_DOUBLE_EQ(Self[1], 20); // 50 - 30.
  EXPECT_DOUBLE_EQ(Self[2], 30);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two children from different threads overlap on [20,30].
  std::vector<Span> S = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                         span(3, 1, 20, 50), span(4, 1, 70, 80)};
  std::vector<double> Self = selfTimesNs(S);
  EXPECT_DOUBLE_EQ(Self[0], 100 - 40 - 10);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  std::vector<Span> S = {span(1, 0, 10, 20), span(2, 1, 0, 15),
                         span(3, 1, 18, 40), span(4, 99, 0, 100)};
  std::vector<double> Self = selfTimesNs(S);
  EXPECT_DOUBLE_EQ(Self[0], 3);   // Covered [10,15] and [18,20].
  EXPECT_DOUBLE_EQ(Self[3], 100); // Unknown parent: a root.
}

TEST(SelfTime, LayerTableGivesShareOfParent) {
  Tracer T;
  uint32_t Root = T.name("root"), Child = T.name("child");
  SpanBuffer &B = T.buffer();
  Span P = span(B.newId(), 0, 0, 100);
  P.Name = Root;
  B.push(P);
  for (int K = 0; K < 2; ++K) {
    Span C = span(B.newId(), P.Id, 10 + 40 * K, 40 + 40 * K);
    C.Name = Child;
    B.push(C);
  }
  std::vector<Span> All = T.collect();
  std::vector<LayerRow> Rows = layerTable(T, All, selfTimesNs(All));
  ASSERT_EQ(Rows.size(), 2u);
  const LayerRow &C = Rows[0].Name == "child" ? Rows[0] : Rows[1];
  const LayerRow &R = Rows[0].Name == "root" ? Rows[0] : Rows[1];
  EXPECT_EQ(C.Count, 2u);
  EXPECT_EQ(C.ParentName, "root");
  EXPECT_DOUBLE_EQ(C.parentShare(), 0.6);
  EXPECT_DOUBLE_EQ(R.SelfNs, 40);
}

TEST(SelfTime, BuffersHandOutDistinctIds) {
  Tracer T;
  SpanBuffer &A = T.buffer();
  SpanBuffer &B = T.buffer();
  EXPECT_NE(A.newId(), B.newId());
  EXPECT_NE(A.newId(), A.newId());
}

TEST(Zipf, SameSeedSameDraws) {
  ZipfSampler Z1(1000, 0.99, 42), Z2(1000, 0.99, 42);
  pst::Rng R1(7), R2(7);
  for (int I = 0; I < 10000; ++I)
    ASSERT_EQ(Z1.sample(R1), Z2.sample(R2));
}

TEST(Zipf, DrawsArePinnedAcrossRuns) {
  // The first draws for a fixed seed never change: the benchmark's inputs
  // depend only on --seed.
  ZipfSampler Z(20000, 0.99, deriveSeed(1, 0x21bf));
  pst::Rng R(deriveSeed(1, 0x7ead00));
  std::vector<uint64_t> Got;
  for (int I = 0; I < 6; ++I)
    Got.push_back(Z.sample(R));
  EXPECT_EQ(Got, (std::vector<uint64_t>{551, 16617, 4093, 7804, 3740, 15463}));
}

TEST(Zipf, SkewFollowsTheExponent) {
  ZipfSampler Z(100, 1.0, 3);
  double Sum = 0;
  for (uint64_t K = 0; K < Z.size(); ++K) {
    Sum += Z.rankProbability(K);
    if (K)
      EXPECT_LT(Z.rankProbability(K), Z.rankProbability(K - 1));
  }
  EXPECT_NEAR(Sum, 1.0, 1e-12);
  EXPECT_NEAR(Z.rankProbability(0) / Z.rankProbability(1), 2.0, 1e-9);
}

TEST(Zipf, StrataTakeRanksInTurn) {
  // 128 items in 3 classes by id % 3: ranks 0, 1, 2 go to classes 0, 1, 2
  // whatever the seed, so the class shares keep their order.
  for (uint64_t Seed : {1, 2, 3}) {
    ZipfSampler Z(128, 0.99, Seed, moduloClasses(128, 3));
    pst::Rng R(Seed);
    uint64_t ClassHits[3] = {};
    for (int I = 0; I < 30000; ++I)
      ++ClassHits[Z.sample(R) % 3];
    // Class 0 holds ranks 0, 3, 6, ...: the largest share.
    EXPECT_GT(ClassHits[0], ClassHits[1]);
    EXPECT_GT(ClassHits[1], ClassHits[2]);
  }
}

TEST(Zipf, SizeClassesGiveEverySeedTheSameHotSizes) {
  // 64 items of sizes 0..63 (scrambled over ids) in 4 size classes: the
  // hottest rank always lands in class 0 (sizes 0..15), the next in
  // class 1 (16..31), whatever the seed.
  std::vector<uint32_t> Size(64);
  for (uint32_t I = 0; I < 64; ++I)
    Size[I] = (I * 37) % 64;
  const std::vector<uint32_t> Classes = sizeClasses(Size, 4);
  for (uint32_t I = 0; I < 64; ++I)
    EXPECT_EQ(Classes[I], Size[I] / 16);
  for (uint64_t Seed : {1, 2, 3}) {
    ZipfSampler Z(64, 0.99, Seed, Classes);
    pst::Rng R(Seed);
    uint64_t Hits[4] = {};
    for (int I = 0; I < 20000; ++I)
      ++Hits[Classes[Z.sample(R)]];
    EXPECT_GT(Hits[0], Hits[1]);
    EXPECT_GT(Hits[1], Hits[2]);
  }
}

TEST(Zipf, PermutationScattersTheHotItems) {
  ZipfSampler A(1000, 0.99, 1), B(1000, 0.99, 2);
  pst::Rng RA(5), RB(5);
  int Same = 0;
  for (int I = 0; I < 1000; ++I)
    Same += A.sample(RA) == B.sample(RB);
  EXPECT_LT(Same, 100);
}

} // namespace
