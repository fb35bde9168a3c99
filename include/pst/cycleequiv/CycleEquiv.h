//===- pst/cycleequiv/CycleEquiv.h - Linear cycle equivalence ---*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's linear-time cycle equivalence algorithm (its Figure 4).
///
/// Two edges of a strongly connected graph are *cycle equivalent* iff every
/// cycle contains both or neither (Definition 4). Theorem 2 shows that edges
/// a, b of a CFG enclose a SESE region iff they are cycle equivalent in
/// S = G + (end -> start); Theorem 3 shows cycle equivalence in S equals
/// cycle equivalence in the *undirected* multigraph of S.
///
/// The algorithm runs one undirected DFS, then processes nodes in reverse
/// preorder maintaining, per node, a *bracket list*: the backedges spanning
/// the tree edge into the node. Bracket sets are never compared wholesale;
/// each is compactly named by the pair <topmost bracket, set size>
/// (Theorem 6), with *capping backedges* inserted at branch nodes to keep
/// the name well-defined (Lemma 2). Every operation on the doubly-linked
/// bracket lists is O(1), giving O(E) total.
///
//===----------------------------------------------------------------------===//

#ifndef PST_CYCLEEQUIV_CYCLEEQUIV_H
#define PST_CYCLEEQUIV_CYCLEEQUIV_H

#include "pst/graph/Cfg.h"
#include "pst/graph/CfgView.h"

#include <cassert>
#include <utility>
#include <vector>

namespace pst {

/// Sentinel class id meaning "not yet assigned".
inline constexpr uint32_t UndefinedClass = ~uint32_t(0);

/// Edge partition produced by the cycle equivalence algorithm.
struct CycleEquivResult {
  /// Class of each edge. Indexed by EdgeId; if the algorithm added the
  /// artificial return edge, its class is the extra last entry.
  std::vector<uint32_t> EdgeClass;
  /// Number of distinct classes.
  uint32_t NumClasses = 0;
  /// True if EdgeClass has the extra return-edge entry.
  bool HasReturnEdge = false;

  uint32_t classOf(EdgeId E) const {
    assert(E < EdgeClass.size() && "edge out of range");
    return EdgeClass[E];
  }

  /// Class of the artificial end->start edge.
  uint32_t returnEdgeClass() const {
    assert(HasReturnEdge && "no return edge was added");
    return EdgeClass.back();
  }
};

/// Computes edge cycle equivalence classes.
///
/// If \p AddReturnEdge is true (the default), the artificial end -> start
/// edge is added internally, making the graph strongly connected as Theorem
/// 2 requires; \p G must then be a valid CFG. If false, \p G itself must
/// already be strongly connected (used for the node-expanded graph in the
/// control-region computation).
///
/// Snapshots \p G into a \c CfgView and runs the view overload below, the
/// one Figure-4 kernel. Runs in O(N + E) time and space.
CycleEquivResult computeCycleEquivalence(const Cfg &G,
                                         bool AddReturnEdge = true);

/// Reusable working memory for the Figure-4 solver.
///
/// Every transient array the solver needs — the CSR undirected adjacency,
/// the DFS worklists, the bracket arena (cells + edge records, stored
/// structure-of-arrays), the per-node bracket-list heads and the capping
/// backedge registrations — lives here instead of on the solver's own
/// stack. A run sizes each vector with assign/clear, which reuses the
/// capacity left by previous runs, so after warm-up a scratch-backed run
/// performs no heap allocations beyond the result vector it returns.
///
/// Contents between runs are unspecified; the only contract is that a
/// scratch may be reused for inputs of any size (larger inputs grow the
/// buffers, smaller ones leave the excess capacity in place) and that runs
/// are bit-deterministic in the input regardless of what the scratch held
/// before. One scratch must not be used by two threads at once.
struct CycleEquivScratch {
  // CSR undirected adjacency: node V's incident (edge, other endpoint)
  // pairs sit at [AdjOff[V], AdjOff[V+1]).
  std::vector<uint32_t> AdjOff;
  std::vector<uint32_t> AdjEdge;
  std::vector<NodeId> AdjOther;
  std::vector<uint32_t> SelfLoops;
  std::vector<uint32_t> Cursor; // Shared fill cursor for the CSR builds.

  // Undirected DFS.
  std::vector<uint32_t> DfsNum;
  std::vector<NodeId> Order;
  std::vector<uint32_t> ParentEdge;
  std::vector<uint8_t> EdgeUsed;
  std::vector<std::pair<NodeId, uint32_t>> Stack;

  // CSR tree children / backedge incidence (same offset+value layout).
  std::vector<uint32_t> ChildOff;
  std::vector<NodeId> ChildVal;
  std::vector<uint32_t> BackFromOff, BackFromVal;
  std::vector<uint32_t> BackToOff, BackToVal;

  // Capping backedges registered per ancestor node, as intrusive singly
  // linked lists (they are discovered during the reverse-preorder sweep,
  // so their counts cannot be precomputed for a CSR pass).
  std::vector<uint32_t> CapHead, CapNext;

  // Edge records (real + capping), structure-of-arrays.
  std::vector<uint32_t> RecClass, RecRecentSize, RecRecentClass, RecCell;
  // Bracket arena cells.
  std::vector<uint32_t> CellRec, CellPrev, CellNext;
  // Per-node bracket list heads.
  std::vector<uint32_t> ListHead, ListTail, ListSize;
  std::vector<uint32_t> Hi;
};

/// Cycle equivalence over a frozen CSR view of the CFG. No endpoint list
/// is materialized and no counting pass runs: the solver's undirected
/// incidence lists are written directly by merging each node's succ and
/// pred CSR segments (plus the implicit return edge when
/// \p AddReturnEdge), and edge endpoints are read from the view's flat
/// arrays.
CycleEquivResult computeCycleEquivalence(const CfgView &V, bool AddReturnEdge,
                                         CycleEquivScratch &Scratch);

/// Cycle equivalence over the *implicitly* node-expanded graph T(S) of the
/// paper's control-region construction: node V splits into V_in = 2V and
/// V_out = 2V+1 joined by representative edge id V; original edge E
/// becomes id numNodes+E from 2*src(E)+1 to 2*dst(E); the return edge
/// (id numNodes+numEdges) closes 2*exit+1 -> 2*entry. The expansion is
/// never materialized — endpoints are computed arithmetically and the
/// adjacency is written straight from the view's CSR segments. Returns one
/// class per T(S) edge id; consumed by computeControlRegionsLinearImplicit.
CycleEquivResult computeCycleEquivalenceTs(const CfgView &V,
                                           CycleEquivScratch &Scratch);

/// Re-entrant driver for repeated cycle-equivalence runs.
///
/// The algorithm is a pure function, so nothing stops callers from invoking
/// \c computeCycleEquivalence in a loop; but workloads that run it over many
/// small graphs (the incremental PST rebuilds one extracted sub-CFG per
/// dirty region per commit; the batch analyzer sweeps whole corpora of
/// mostly-tiny procedures) would pay the full set of solver allocations per
/// run. The engine keeps a \c CycleEquivScratch alive across runs; each
/// \c run is otherwise identical to \c computeCycleEquivalence.
class CycleEquivEngine {
public:
  CycleEquivResult run(const CfgView &V, bool AddReturnEdge = true) {
    return computeCycleEquivalence(V, AddReturnEdge, Solver);
  }

private:
  CycleEquivScratch Solver;
};

} // namespace pst

#endif // PST_CYCLEEQUIV_CYCLEEQUIV_H
