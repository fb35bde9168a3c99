//===- CfgViewTest.cpp - frozen CSR adjacency snapshot -------------------------===//
//
// Part of the PST library (see CfgView.h for the reference).
//
// Three layers of coverage for the shared CSR view:
//  1. Construction goldens: a hand-built graph (with a self loop and a
//     parallel edge) pins the exact contents of all eight flat arrays.
//  2. Iteration equivalence: on randomized CFGs every view accessor must
//     reproduce the Cfg accessors element-for-element, and
//     CfgView::reversed() must reproduce a materialized reverseCfg.
//  3. Golden digests of every dominator, loop, interval, dataflow and
//     phi-placement output over the full 254-procedure paper corpus, one
//     per stage group. Each of those analyses has one kernel, over
//     CfgView. The digests were computed from the legacy Cfg
//     instantiations of those stages, before they were deleted, and the
//     CfgView instantiations produced the same digests, so they pin that
//     the remaining kernels compute exactly the legacy bytes.
//
//===----------------------------------------------------------------------===//

#include "pst/graph/CfgView.h"

#include "pst/core/ProgramStructureTree.h"
#include "pst/core/PstDominators.h"
#include "pst/dataflow/Dataflow.h"
#include "pst/dataflow/Problems.h"
#include "pst/dataflow/Qpg.h"
#include "pst/dataflow/Seg.h"
#include "pst/dom/Dominators.h"
#include "pst/dom/LoopInfo.h"
#include "pst/graph/CfgAlgorithms.h"
#include "pst/graph/Intervals.h"
#include "pst/ssa/PhiPlacement.h"
#include "pst/workload/CfgGenerators.h"
#include "pst/workload/Corpus.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pst;

namespace {

template <class T>
std::vector<T> collect(std::span<const T> S) {
  return std::vector<T>(S.begin(), S.end());
}

//===----------------------------------------------------------------------===//
// CSR construction goldens
//===----------------------------------------------------------------------===//

TEST(CfgView, CsrGoldenWithSelfLoopAndParallelEdge) {
  Cfg G;
  for (int I = 0; I < 4; ++I)
    G.addNode();
  G.setEntry(0);
  G.setExit(3);
  G.addEdge(0, 1); // e0
  G.addEdge(0, 2); // e1
  G.addEdge(1, 3); // e2
  G.addEdge(2, 3); // e3
  G.addEdge(1, 1); // e4: self loop
  G.addEdge(0, 2); // e5: parallel to e1

  CfgViewScratch S;
  CfgView V = CfgView::build(G, S);

  EXPECT_EQ(V.numNodes(), 4u);
  EXPECT_EQ(V.numEdges(), 6u);
  EXPECT_EQ(V.entry(), 0u);
  EXPECT_EQ(V.exit(), 3u);

  const std::vector<uint32_t> SuccOff(V.succOff(), V.succOff() + 5);
  const std::vector<uint32_t> PredOff(V.predOff(), V.predOff() + 5);
  EXPECT_EQ(SuccOff, (std::vector<uint32_t>{0, 3, 5, 6, 6}));
  EXPECT_EQ(PredOff, (std::vector<uint32_t>{0, 0, 2, 4, 6}));

  const std::vector<EdgeId> SuccEdge(V.succEdge(), V.succEdge() + 6);
  const std::vector<NodeId> SuccTo(V.succTo(), V.succTo() + 6);
  EXPECT_EQ(SuccEdge, (std::vector<EdgeId>{0, 1, 5, 2, 4, 3}));
  EXPECT_EQ(SuccTo, (std::vector<NodeId>{1, 2, 2, 3, 1, 3}));

  const std::vector<EdgeId> PredEdge(V.predEdge(), V.predEdge() + 6);
  const std::vector<NodeId> PredFrom(V.predFrom(), V.predFrom() + 6);
  EXPECT_EQ(PredEdge, (std::vector<EdgeId>{0, 4, 1, 5, 2, 3}));
  EXPECT_EQ(PredFrom, (std::vector<NodeId>{0, 1, 0, 0, 1, 2}));

  const std::vector<NodeId> Src(V.edgeSrc(), V.edgeSrc() + 6);
  const std::vector<NodeId> Dst(V.edgeDst(), V.edgeDst() + 6);
  EXPECT_EQ(Src, (std::vector<NodeId>{0, 0, 1, 2, 1, 0}));
  EXPECT_EQ(Dst, (std::vector<NodeId>{1, 2, 3, 3, 1, 2}));

  EXPECT_EQ(V.outDegree(0), 3u);
  EXPECT_EQ(V.inDegree(0), 0u);
  EXPECT_EQ(V.outDegree(3), 0u);
  EXPECT_EQ(V.inDegree(3), 2u);
}

TEST(CfgView, ScratchReuseAcrossGraphsOfDifferentSize) {
  CfgViewScratch S;
  Cfg Big = diamondLadderCfg(40);
  CfgView VBig = CfgView::build(Big, S);
  EXPECT_EQ(VBig.numNodes(), Big.numNodes());

  // Rebuilding into the same scratch from a smaller graph must not leak
  // stale rows from the larger one.
  Cfg Small;
  Small.addNode();
  Small.addNode();
  Small.setEntry(0);
  Small.setExit(1);
  Small.addEdge(0, 1);
  CfgView VSmall = CfgView::build(Small, S);
  EXPECT_EQ(VSmall.numNodes(), 2u);
  EXPECT_EQ(VSmall.numEdges(), 1u);
  EXPECT_EQ(collect(VSmall.succEdges(0)), (std::vector<EdgeId>{0}));
  EXPECT_EQ(collect(VSmall.succNodes(0)), (std::vector<NodeId>{1}));
  EXPECT_TRUE(VSmall.succEdges(1).empty());
  EXPECT_EQ(collect(VSmall.predEdges(1)), (std::vector<EdgeId>{0}));
}

//===----------------------------------------------------------------------===//
// Iteration equivalence on randomized CFGs
//===----------------------------------------------------------------------===//

void expectViewMatchesCfg(const Cfg &G) {
  CfgViewScratch S;
  CfgView V = CfgView::build(G, S);

  ASSERT_EQ(V.numNodes(), G.numNodes());
  ASSERT_EQ(V.numEdges(), G.numEdges());
  ASSERT_EQ(V.entry(), G.entry());
  ASSERT_EQ(V.exit(), G.exit());

  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    ASSERT_EQ(V.source(E), G.source(E)) << "edge " << E;
    ASSERT_EQ(V.target(E), G.target(E)) << "edge " << E;
  }

  for (NodeId N = 0; N < G.numNodes(); ++N) {
    ASSERT_EQ(collect(V.succEdges(N)), G.succEdges(N)) << "node " << N;
    ASSERT_EQ(collect(V.predEdges(N)), G.predEdges(N)) << "node " << N;
    ASSERT_EQ(V.outDegree(N), G.succEdges(N).size()) << "node " << N;
    ASSERT_EQ(V.inDegree(N), G.predEdges(N).size()) << "node " << N;
    // The node arrays are parallel to the edge arrays.
    std::span<const EdgeId> SE = V.succEdges(N);
    std::span<const NodeId> SN = V.succNodes(N);
    for (size_t I = 0; I < SE.size(); ++I)
      ASSERT_EQ(SN[I], G.target(SE[I])) << "node " << N;
    std::span<const EdgeId> PE = V.predEdges(N);
    std::span<const NodeId> PN = V.predNodes(N);
    for (size_t I = 0; I < PE.size(); ++I)
      ASSERT_EQ(PN[I], G.source(PE[I])) << "node " << N;
  }

  // reversed() against a materialized reverseCfg: reverseCfg keeps edge
  // ids, so succ/pred sides must swap exactly.
  Cfg RG = reverseCfg(G);
  CfgView RV = V.reversed();
  ASSERT_EQ(RV.numNodes(), RG.numNodes());
  ASSERT_EQ(RV.numEdges(), RG.numEdges());
  ASSERT_EQ(RV.entry(), RG.entry());
  ASSERT_EQ(RV.exit(), RG.exit());
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    ASSERT_EQ(RV.source(E), RG.source(E));
    ASSERT_EQ(RV.target(E), RG.target(E));
  }
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    ASSERT_EQ(collect(RV.succEdges(N)), RG.succEdges(N)) << "node " << N;
    ASSERT_EQ(collect(RV.predEdges(N)), RG.predEdges(N)) << "node " << N;
    ASSERT_EQ(collect(RV.succNodes(N)), RG.successors(N)) << "node " << N;
    ASSERT_EQ(collect(RV.predNodes(N)), RG.predecessors(N)) << "node " << N;
    ASSERT_EQ(RV.outDegree(N), V.inDegree(N)) << "node " << N;
  }
  // Reversing twice is the identity.
  CfgView RR = RV.reversed();
  ASSERT_EQ(RR.entry(), V.entry());
  ASSERT_EQ(RR.succOff(), V.succOff());
  ASSERT_EQ(RR.edgeSrc(), V.edgeSrc());
}

TEST(CfgView, IterationEquivalenceOnRandomizedCfgs) {
  Rng R(20260807);
  for (int Trial = 0; Trial < 50; ++Trial) {
    RandomCfgOptions O;
    O.NumNodes = 2 + static_cast<uint32_t>(R.nextBelow(120));
    O.NumExtraEdges = static_cast<uint32_t>(R.nextBelow(2 * O.NumNodes));
    Cfg G = randomBackboneCfg(R, O);
    expectViewMatchesCfg(G);
  }
}

TEST(CfgView, IterationEquivalenceOnStructuredFamilies) {
  expectViewMatchesCfg(paperFigure1Cfg());
  expectViewMatchesCfg(diamondLadderCfg(17));
  expectViewMatchesCfg(nestedWhileCfg(5, 3));
  expectViewMatchesCfg(nestedRepeatUntilCfg(9));
  expectViewMatchesCfg(irreducibleCfg(3));
}

//===----------------------------------------------------------------------===//
// Full-corpus digests against the legacy Cfg stages
//===----------------------------------------------------------------------===//

/// FNV-1a over a stream of 32-bit words, each folded in little-endian
/// byte order.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ull;
  void word(uint32_t W) {
    for (int I = 0; I < 4; ++I) {
      H ^= (W >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  template <class T> void list(const std::vector<T> &V) {
    word(V.size());
    for (const T &X : V)
      word(X);
  }
  void bits(const BitVector &B) {
    word(B.size());
    word(B.count());
    B.forEachSetBit([&](size_t I) { word(I); });
  }
  void idoms(const DomTree &T) {
    word(T.numNodes());
    for (NodeId N = 0; N < T.numNodes(); ++N)
      word(T.idom(N));
  }
  void solution(const DataflowSolution &S) {
    for (const BitVector &B : S.In)
      bits(B);
    for (const BitVector &B : S.Out)
      bits(B);
  }
};

// Each test folds one group of stage outputs over the 254-procedure paper
// corpus into an FNV-1a digest and compares it with the digest the legacy
// Cfg instantiations of those stages produced (see layer 3 in the file
// comment).

TEST(CfgViewByteIdentity, StructureStagesMatchLegacyOnFullCorpus) {
  std::vector<CorpusFunction> Corpus = generatePaperCorpus(/*Seed=*/1994);
  CfgViewScratch VS;
  PstBuildScratch PB;
  Digest D;

  for (const CorpusFunction &C : Corpus) {
    CfgView V = CfgView::build(C.Fn.Graph, VS);
    ProgramStructureTree T = ProgramStructureTree::build(V, PB);
    D.word(V.numNodes());

    // Dominators, postdominators, frontiers, and the PST-derived variant.
    DomTree Chk = DomTree::buildIterative(V);
    D.idoms(Chk);
    D.idoms(DomTree::buildPostDom(V));
    D.idoms(buildDominatorsViaPst(V, T));
    DominanceFrontiers DF(V, Chk);
    for (NodeId N = 0; N < V.numNodes(); ++N)
      D.list(DF.frontier(N));
  }
  EXPECT_EQ(Corpus.size(), 254u);
  EXPECT_EQ(D.H, 0xea2cc8f527e3575dull);
}

TEST(CfgViewByteIdentity, DataflowAndSsaStagesMatchLegacyOnFullCorpus) {
  std::vector<CorpusFunction> Corpus = generatePaperCorpus(/*Seed=*/1994);
  CfgViewScratch VS;
  PstBuildScratch PB;
  Digest D;

  for (const CorpusFunction &C : Corpus) {
    CfgView V = CfgView::build(C.Fn.Graph, VS);
    ProgramStructureTree T = ProgramStructureTree::build(V, PB);
    D.word(V.numNodes());

    BitVectorProblem P = makeReachingDefs(C.Fn);
    D.solution(solveIterative(V, P));
    D.solution(solveElimination(V, T, P));
    DomTree DT = DomTree::buildIterative(V);
    DominanceFrontiers DF(V, DT);
    D.solution(solveOnSeg(V, DT, DF, P));
    auto Keys = expressionKeys(C.Fn);
    if (!Keys.empty()) {
      BitVectorProblem Q = makeSingleExprAvailability(C.Fn, Keys.front());
      for (const BitVector &B : solveOnQpg(V, T, Q).EdgeValue)
        D.bits(B);
    }

    for (const PhiPlacement &Phis :
         {placePhisClassic(C.Fn, V), placePhisPst(C.Fn, V, T)})
      for (const std::vector<NodeId> &Blocks : Phis.PhiBlocks)
        D.list(Blocks);
  }
  EXPECT_EQ(Corpus.size(), 254u);
  EXPECT_EQ(D.H, 0x25782b1bf0279785ull);
}

TEST(CfgViewByteIdentity, DomLoopsIntervalsMatchLegacyOnFullCorpus) {
  std::vector<CorpusFunction> Corpus = generatePaperCorpus(/*Seed=*/1994);
  CfgViewScratch VS;
  Digest D;

  for (const CorpusFunction &C : Corpus) {
    CfgView V = CfgView::build(C.Fn.Graph, VS);
    D.word(V.numNodes());

    // Lengauer-Tarjan: the idom arrays, not just the dominance relation.
    DomTree Lt = DomTree::buildLengauerTarjan(V);
    D.idoms(Lt);

    // Natural loops: loop ids, headers, backedges, members, nesting and
    // per-node innermost-loop assignment.
    LoopInfo LI(V, Lt);
    D.word(LI.numLoops());
    for (LoopId L = 0; L < LI.numLoops(); ++L) {
      const LoopInfo::Loop &Lp = LI.loop(L);
      D.word(Lp.Header);
      D.list(Lp.Backedges);
      D.list(Lp.Nodes);
      D.word(Lp.Parent);
      D.list(Lp.Children);
      D.word(Lp.Depth);
    }
    for (NodeId N = 0; N < V.numNodes(); ++N)
      D.word(LI.loopOf(N));
    D.list(LI.irreducibleEdges());

    // T1/T2 reducibility, and intervals in discovery order.
    D.word(isReducible(V));
    IntervalPartition IP = computeIntervals(V);
    D.list(IP.IntervalOf);
    for (const IntervalPartition::Interval &I : IP.Intervals) {
      D.word(I.Header);
      D.list(I.Nodes);
    }
  }
  EXPECT_EQ(Corpus.size(), 254u);
  EXPECT_EQ(D.H, 0xe57a783056c759d3ull);
}

} // namespace
