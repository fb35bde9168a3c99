//===- time_dataflow.cpp - Section 6.2 timing comparison ----------------------------===//
//
// Section 6.2 ablation: whole-CFG iterative dataflow versus the PST
// elimination solver versus the sparse QPG solve, on single-instance
// availability problems (where the QPG shines because most of the graph
// is transparent) and on the multi-bit problems (where elimination
// amortizes region summaries).
//
//===----------------------------------------------------------------------===//

#include "pst/core/ProgramStructureTree.h"
#include "pst/dataflow/Problems.h"
#include "pst/dataflow/Qpg.h"
#include "pst/dataflow/Seg.h"
#include "pst/workload/ProgramGenerator.h"

#include <benchmark/benchmark.h>

using namespace pst;

namespace {

LoweredFunction generated(uint64_t Seed, uint32_t Stmts) {
  Rng R(Seed);
  ProgramGenOptions Opts;
  Opts.TargetStatements = Stmts;
  Opts.NumVars = 16;
  Function Fn = generateFunction(R, Opts, "bench");
  auto L = lowerFunction(Fn);
  return std::move(*L);
}

/// A generated function and its view, both built before timing, so the
/// timed loops run solver kernels and never a snapshot.
struct Input {
  LoweredFunction F;
  CfgViewScratch S;
  CfgView V;
  explicit Input(benchmark::State &State)
      : F(generated(5, static_cast<uint32_t>(State.range(0)))),
        V(CfgView::build(F.Graph, S)) {}
  Input(const Input &) = delete; // V points into S.
};

void BM_IterativeSingleExpr(benchmark::State &State) {
  Input In(State);
  const LoweredFunction &F = In.F;
  auto Keys = expressionKeys(F);
  BitVectorProblem P = makeSingleExprAvailability(F, Keys.front());
  for (auto _ : State) {
    DataflowSolution S = solveIterative(In.V, P);
    benchmark::DoNotOptimize(S.Out.size());
  }
}

void BM_QpgSingleExpr(benchmark::State &State) {
  Input In(State);
  const LoweredFunction &F = In.F;
  auto Keys = expressionKeys(F);
  BitVectorProblem P = makeSingleExprAvailability(F, Keys.front());
  ProgramStructureTree T = ProgramStructureTree::build(F.Graph);
  for (auto _ : State) {
    EdgeSolution S = solveOnQpg(In.V, T, P);
    benchmark::DoNotOptimize(S.EdgeValue.size());
  }
}

void BM_QpgBuildOnly(benchmark::State &State) {
  Input In(State);
  const LoweredFunction &F = In.F;
  auto Keys = expressionKeys(F);
  BitVectorProblem P = makeSingleExprAvailability(F, Keys.front());
  ProgramStructureTree T = ProgramStructureTree::build(F.Graph);
  for (auto _ : State) {
    Qpg Q = buildQpg(In.V, T, P);
    benchmark::DoNotOptimize(Q.numNodes());
  }
}

// The paper's [CCF91] comparison: SEGs end up smaller but need dominance
// frontiers, making them costlier per instance than the PST-backed QPG.
void BM_SegBuildOnly(benchmark::State &State) {
  Input In(State);
  const LoweredFunction &F = In.F;
  auto Keys = expressionKeys(F);
  BitVectorProblem P = makeSingleExprAvailability(F, Keys.front());
  DomTree DT = DomTree::buildIterative(In.V);
  DominanceFrontiers DF(In.V, DT);
  for (auto _ : State) {
    Seg S = buildSeg(In.V, DT, DF, P);
    benchmark::DoNotOptimize(S.numNodes());
  }
}

void BM_SegBuildWithFrontiers(benchmark::State &State) {
  Input In(State);
  const LoweredFunction &F = In.F;
  auto Keys = expressionKeys(F);
  BitVectorProblem P = makeSingleExprAvailability(F, Keys.front());
  for (auto _ : State) {
    DomTree DT = DomTree::buildIterative(In.V);
    DominanceFrontiers DF(In.V, DT);
    Seg S = buildSeg(In.V, DT, DF, P);
    benchmark::DoNotOptimize(S.numNodes());
  }
}

void BM_IterativeReachingDefs(benchmark::State &State) {
  Input In(State);
  const LoweredFunction &F = In.F;
  BitVectorProblem P = makeReachingDefs(F);
  for (auto _ : State) {
    DataflowSolution S = solveIterative(In.V, P);
    benchmark::DoNotOptimize(S.Out.size());
  }
}

void BM_EliminationReachingDefs(benchmark::State &State) {
  Input In(State);
  const LoweredFunction &F = In.F;
  BitVectorProblem P = makeReachingDefs(F);
  ProgramStructureTree T = ProgramStructureTree::build(F.Graph);
  for (auto _ : State) {
    DataflowSolution S = solveElimination(In.V, T, P);
    benchmark::DoNotOptimize(S.Out.size());
  }
}

void BM_PstBuildGenerated(benchmark::State &State) {
  Input In(State);
  const LoweredFunction &F = In.F;
  for (auto _ : State) {
    ProgramStructureTree T = ProgramStructureTree::build(F.Graph);
    benchmark::DoNotOptimize(T.numRegions());
  }
}

} // namespace

BENCHMARK(BM_IterativeSingleExpr)->Arg(1000)->Arg(10000);
BENCHMARK(BM_QpgSingleExpr)->Arg(1000)->Arg(10000);
BENCHMARK(BM_QpgBuildOnly)->Arg(1000)->Arg(10000);
BENCHMARK(BM_SegBuildOnly)->Arg(1000)->Arg(10000);
BENCHMARK(BM_SegBuildWithFrontiers)->Arg(1000)->Arg(10000);
BENCHMARK(BM_IterativeReachingDefs)->Arg(1000)->Arg(5000);
BENCHMARK(BM_EliminationReachingDefs)->Arg(1000)->Arg(5000);
BENCHMARK(BM_PstBuildGenerated)->Arg(1000)->Arg(10000);

BENCHMARK_MAIN();
