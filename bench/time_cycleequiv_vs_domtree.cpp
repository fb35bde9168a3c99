//===- time_cycleequiv_vs_domtree.cpp - Section 3 timing claim --------------------===//
//
// The paper: "our empirical results show that it runs faster than
// Lengauer and Tarjan's algorithm for finding dominators". This bench
// times, on the same graphs, the full cycle equivalence pass (which also
// pays for the artificial return edge and undirected bookkeeping) against
// the dominator builders: Lengauer-Tarjan, the iterative CHK builder the
// library uses in production, and the PST divide-and-conquer oracle. Each
// graph is snapshotted into one CfgView outside the timed loop and every
// kernel reads that view, so the numbers time kernels, not snapshots.
// Each timed call allocates its own working memory (a fresh
// CycleEquivScratch for cycle equivalence).
//
//===----------------------------------------------------------------------===//

#include "pst/core/PstDominators.h"
#include "pst/cycleequiv/CycleEquiv.h"
#include "pst/dom/Dominators.h"
#include "pst/graph/CfgView.h"
#include "pst/workload/CfgGenerators.h"

#include <benchmark/benchmark.h>

using namespace pst;

namespace {

/// One benchmark input: the graph and its view, built before timing.
struct Input {
  Cfg G;
  CfgViewScratch S;
  CfgView V;
  explicit Input(Cfg Graph) : G(std::move(Graph)), V(CfgView::build(G, S)) {}
  Input(const Input &) = delete; // V points into S.
};

/// A mixed-shape graph: structured skeleton plus random extra edges —
/// roughly the edge/node ratio of real block-level CFGs (~1.5 edges per
/// node).
Input mixedGraph(benchmark::State &State) {
  Rng R(7);
  RandomCfgOptions Opts;
  Opts.NumNodes = static_cast<uint32_t>(State.range(0));
  Opts.NumExtraEdges = Opts.NumNodes / 2;
  Opts.SelfLoopProb = 0.02;
  Opts.ParallelProb = 0.02;
  return Input(randomBackboneCfg(R, Opts));
}

Input nestedLoops(benchmark::State &State) {
  return Input(nestedWhileCfg(static_cast<uint32_t>(State.range(0)), 4));
}

template <Input (*MakeInput)(benchmark::State &)>
void BM_CycleEquiv(benchmark::State &State) {
  Input In = MakeInput(State);
  for (auto _ : State) {
    CycleEquivScratch Scratch;
    CycleEquivResult R = computeCycleEquivalence(In.V, true, Scratch);
    benchmark::DoNotOptimize(R.NumClasses);
  }
  State.SetItemsProcessed(State.iterations() * In.V.numEdges());
}

template <Input (*MakeInput)(benchmark::State &)>
void BM_DomLengauerTarjan(benchmark::State &State) {
  Input In = MakeInput(State);
  for (auto _ : State) {
    DomTree T = DomTree::buildLengauerTarjan(In.V);
    benchmark::DoNotOptimize(T.numNodes());
  }
  State.SetItemsProcessed(State.iterations() * In.V.numEdges());
}

template <Input (*MakeInput)(benchmark::State &)>
void BM_DomIterative(benchmark::State &State) {
  Input In = MakeInput(State);
  for (auto _ : State) {
    DomTree T = DomTree::buildIterative(In.V);
    benchmark::DoNotOptimize(T.numNodes());
  }
  State.SetItemsProcessed(State.iterations() * In.V.numEdges());
}

// The PST divide-and-conquer builder, with the PST built before timing
// (it is an oracle, not a candidate that pays for its own PST).
template <Input (*MakeInput)(benchmark::State &)>
void BM_DomViaPst(benchmark::State &State) {
  Input In = MakeInput(State);
  ProgramStructureTree T = ProgramStructureTree::build(In.G);
  for (auto _ : State) {
    DomTree D = buildDominatorsViaPst(In.V, T);
    benchmark::DoNotOptimize(D.numNodes());
  }
  State.SetItemsProcessed(State.iterations() * In.V.numEdges());
}

} // namespace

BENCHMARK(BM_CycleEquiv<mixedGraph>)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_DomLengauerTarjan<mixedGraph>)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_DomIterative<mixedGraph>)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_DomViaPst<mixedGraph>)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_CycleEquiv<nestedLoops>)->Arg(2000)->Arg(20000);
BENCHMARK(BM_DomLengauerTarjan<nestedLoops>)->Arg(2000)->Arg(20000);
BENCHMARK(BM_DomIterative<nestedLoops>)->Arg(2000)->Arg(20000);
BENCHMARK(BM_DomViaPst<nestedLoops>)->Arg(2000)->Arg(20000);

BENCHMARK_MAIN();
