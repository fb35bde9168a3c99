//===- CorpusImageTest.cpp - frozen mmap-able corpus images --------------------===//
//
// Part of the PST library (see pst/image/CorpusImage.h for the reference).
//
// Four layers of coverage for the corpus image:
//  1. Round-trip byte identity: build -> decode -> rebuild reproduces the
//     image byte for byte over the full 254-procedure paper corpus, and a
//     file save/mmap cycle preserves every accessor.
//  2. Rejection: truncated files, corrupted payloads, wrong format version,
//     wrong endianness and bad magic all fail with clear error strings —
//     never a crash or a silently wrong analysis.
//  3. Mapped analysis identity: every pipeline stage run on the image's
//     zero-copy views (cycle equivalence, PST queries, control regions,
//     all dominator builders, all four dataflow solvers, phi placement,
//     the region profiler) produces output identical to the in-memory
//     pipeline.
//  4. 64-bit layout: the pure offset-table computation is exercised past
//     the 32-bit byte boundary without materializing any arrays.
//
// A damaged header or section table is rejected by CorpusImage::map and
// verifyImageFile with the same diagnostic (one shared check).
//
//===----------------------------------------------------------------------===//

#include "pst/image/CorpusImage.h"

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/core/PstDominators.h"
#include "pst/core/RegionAnalysis.h"
#include "pst/cycleequiv/CycleEquiv.h"
#include "pst/dataflow/Dataflow.h"
#include "pst/dataflow/Problems.h"
#include "pst/dataflow/Qpg.h"
#include "pst/dataflow/Seg.h"
#include "pst/dom/Dominators.h"
#include "pst/prof/RegionProfile.h"
#include "pst/runtime/BatchAnalyzer.h"
#include "pst/ssa/PhiPlacement.h"
#include "pst/support/Rng.h"
#include "pst/workload/CfgGenerators.h"
#include "pst/workload/Corpus.h"

#include "TestTempPath.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <vector>

using namespace pst;

namespace {

/// The paper corpus as (graph pointer, name) spans for the builders.
struct CorpusHandles {
  std::vector<CorpusFunction> Corpus;
  std::vector<const Cfg *> Graphs;
  std::vector<std::string> Names;

  explicit CorpusHandles(uint64_t Seed) : Corpus(generatePaperCorpus(Seed)) {
    for (const CorpusFunction &C : Corpus) {
      Graphs.push_back(&C.Fn.Graph);
      Names.push_back(C.Fn.Name);
    }
  }
};

template <class T>
void expectSpanEq(std::span<const T> A, std::span<const T> B,
                  const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  ASSERT_EQ(0, std::memcmp(A.data(), B.data(), A.size_bytes())) << What;
}

//===----------------------------------------------------------------------===//
// Round-trip byte identity
//===----------------------------------------------------------------------===//

TEST(CorpusImage, RoundTripByteIdentityOnFullCorpus) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<uint8_t> Bytes = buildCorpusImage(H.Graphs, H.Names);

  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(Bytes, &Error);
  ASSERT_TRUE(Img.valid()) << Error;
  EXPECT_TRUE(Img.verify(&Error)) << Error;
  ASSERT_EQ(Img.numFunctions(), H.Graphs.size());

  // Decode every function back to an owned Cfg, then re-encode the whole
  // corpus from the decoded graphs: the result must reproduce the original
  // image byte for byte. This pins CFG materialization (nodes, labels,
  // edge order, entry/exit), name storage, and determinism of the PST
  // rebuild in one golden.
  std::vector<Cfg> Decoded;
  Decoded.reserve(Img.numFunctions());
  for (uint64_t I = 0; I < Img.numFunctions(); ++I) {
    EXPECT_EQ(Img.functionName(I), H.Names[I]);
    Decoded.push_back(Img.materializeCfg(I));
  }
  std::vector<const Cfg *> DecodedPtrs;
  for (const Cfg &G : Decoded)
    DecodedPtrs.push_back(&G);
  std::vector<uint8_t> Rebuilt = buildCorpusImage(DecodedPtrs, H.Names);
  // Compare the mapped view of the original, not its in-memory buffer, so
  // the comparison also covers what a reader actually sees.
  ASSERT_EQ(Bytes, Rebuilt);
}

TEST(CorpusImage, FileSaveAndMapPreservesEveryAccessor) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<uint8_t> Bytes = buildCorpusImage(H.Graphs, H.Names);

  std::string Path = uniqueTempPath("corpus_image_test.img");
  std::string Error;
  ASSERT_TRUE(buildCorpusImage(Path, H.Graphs, H.Names, &Error)) << Error;
  CorpusImage Img = CorpusImage::map(Path, &Error);
  ASSERT_TRUE(Img.valid()) << Error;
  EXPECT_TRUE(Img.verify(&Error)) << Error;
  ASSERT_EQ(Img.numFunctions(), H.Graphs.size());
  // The file and memory destinations write the same bytes.
  ASSERT_TRUE(std::ranges::equal(Img.rawBytes(), Bytes));

  for (uint64_t I = 0; I < Img.numFunctions(); ++I) {
    const Cfg &G = *H.Graphs[I];
    ProgramStructureTree Direct = ProgramStructureTree::build(G);
    ProgramStructureTree Mapped = Img.pst(I);
    EXPECT_TRUE(Mapped.isExternal());
    EXPECT_EQ(Mapped.cycleEquiv().EdgeClass.size(), 0u);
    expectSpanEq(Direct.regionTable(), Mapped.regionTable(), "regions");
    expectSpanEq(Direct.nodeRegionTable(), Mapped.nodeRegionTable(),
                 "node regions");
    expectSpanEq(Direct.edgeRegionTable(), Mapped.edgeRegionTable(),
                 "edge regions");
    expectSpanEq(Direct.entryOfTable(), Mapped.entryOfTable(), "entry-of");
    expectSpanEq(Direct.exitOfTable(), Mapped.exitOfTable(), "exit-of");
    expectSpanEq(Direct.childOffTable(), Mapped.childOffTable(), "child off");
    expectSpanEq(Direct.childValTable(), Mapped.childValTable(), "child val");
    expectSpanEq(Direct.immOffTable(), Mapped.immOffTable(), "imm off");
    expectSpanEq(Direct.immValTable(), Mapped.immValTable(), "imm val");

    CfgView MV = Img.cfg(I);
    ASSERT_EQ(MV.numNodes(), G.numNodes());
    ASSERT_EQ(MV.numEdges(), G.numEdges());
    EXPECT_EQ(MV.entry(), G.entry());
    EXPECT_EQ(MV.exit(), G.exit());
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      ASSERT_TRUE(std::ranges::equal(MV.succEdges(N), G.succEdges(N)))
          << H.Names[I] << " node " << N;
      ASSERT_TRUE(std::ranges::equal(MV.predEdges(N), G.predEdges(N)))
          << H.Names[I] << " node " << N;
    }
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Rejection of damaged or foreign images
//===----------------------------------------------------------------------===//

std::vector<uint8_t> smallImage() {
  Cfg G = paperFigure1Cfg();
  const Cfg *P = &G;
  std::string Name = "fig1";
  return buildCorpusImage({&P, 1}, {&Name, 1});
}

void expectRejected(std::vector<uint8_t> Bytes, const char *Needle) {
  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(std::move(Bytes), &Error);
  EXPECT_FALSE(Img.valid());
  EXPECT_NE(Error.find(Needle), std::string::npos)
      << "error was: " << Error << "\nexpected to mention: " << Needle;
}

TEST(CorpusImageRejection, TruncatedFiles) {
  std::vector<uint8_t> Bytes = smallImage();

  // Shorter than the header.
  std::vector<uint8_t> Tiny(Bytes.begin(), Bytes.begin() + 16);
  expectRejected(std::move(Tiny), "truncated");

  // One byte chopped off the end: the header's recorded size disagrees.
  std::vector<uint8_t> Chopped(Bytes.begin(), Bytes.end() - 1);
  expectRejected(std::move(Chopped), "truncated");

  // Cut inside the section payloads.
  std::vector<uint8_t> Half(Bytes.begin(), Bytes.begin() + Bytes.size() / 2);
  expectRejected(std::move(Half), "truncated");
}

TEST(CorpusImageRejection, WrongVersionWrongEndiannessBadMagic) {
  std::vector<uint8_t> Bytes = smallImage();

  // Header field offsets are part of the format: magic at 0, version at 8,
  // endian tag at 12.
  std::vector<uint8_t> V = Bytes;
  uint32_t BadVersion = image::FormatVersion + 7;
  std::memcpy(V.data() + 8, &BadVersion, 4);
  expectRejected(std::move(V), "format version");

  std::vector<uint8_t> E = Bytes;
  uint32_t Swapped = 0x04030201;
  std::memcpy(E.data() + 12, &Swapped, 4);
  expectRejected(std::move(E), "endianness");

  std::vector<uint8_t> M = Bytes;
  M[0] = 'X';
  expectRejected(std::move(M), "bad magic");
}

TEST(CorpusImageRejection, CorruptedPayloadFailsVerifyWithSectionName) {
  std::vector<uint8_t> Bytes = smallImage();
  std::string Error;
  {
    CorpusImage Img = CorpusImage::fromBytes(Bytes, &Error);
    ASSERT_TRUE(Img.valid()) << Error;
    ASSERT_TRUE(Img.verify(&Error)) << Error;
  }

  // Flip one byte in every section payload in turn; verify() must fail
  // and name that section.
  for (uint32_t K = 0; K < image::NumSections; ++K) {
    CorpusImage Clean = CorpusImage::fromBytes(Bytes, &Error);
    ASSERT_TRUE(Clean.valid());
    const image::SectionDesc &D = Clean.section(K);
    if (D.Bytes == 0)
      continue;
    std::vector<uint8_t> Bad = Bytes;
    Bad[D.Offset] ^= 0x5a;
    CorpusImage Img = CorpusImage::fromBytes(std::move(Bad), &Error);
    // Structural validation may itself reject the flip (e.g. a corrupted
    // function table); when it does, the diagnostic already points at the
    // damage. Otherwise verify() must catch it.
    if (!Img.valid())
      continue;
    EXPECT_FALSE(Img.verify(&Error));
    EXPECT_NE(Error.find("checksum mismatch"), std::string::npos) << Error;
    EXPECT_NE(Error.find(image::sectionName(image::SectionKind(K))),
              std::string::npos)
        << Error;
  }
}

TEST(CorpusImageRejection, MapOfMissingFileFails) {
  std::string Error;
  CorpusImage Img =
      CorpusImage::map(uniqueTempPath("does_not_exist.img"), &Error);
  EXPECT_FALSE(Img.valid());
  EXPECT_NE(Error.find("cannot open"), std::string::npos) << Error;
}

/// Writes \p Bytes to \p Path (corrupted images are written this way on
/// purpose; the image writer only ever publishes well-formed ones).
void writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(reinterpret_cast<const char *>(Bytes.data()),
           std::streamsize(Bytes.size()));
}

TEST(CorpusImageRejection, MapAndVerifyFileShareOneHeaderCheck) {
  const std::vector<uint8_t> Good = smallImage();
  // Header fields: magic @0, version @8, endian tag @12, file bytes @16,
  // section count @32, record size @36. Section descriptor K starts at
  // 48 + 32 K: kind @0, offset @8, bytes @16. Each case sets one u32 or
  // moves one u64 by a delta.
  using Corruption = std::function<void(std::vector<uint8_t> &)>;
  auto Set32 = [](size_t At, uint32_t V) -> Corruption {
    return [=](std::vector<uint8_t> &B) { std::memcpy(B.data() + At, &V, 4); };
  };
  auto Add64 = [](size_t At, uint64_t Delta) -> Corruption {
    return [=](std::vector<uint8_t> &B) {
      uint64_t V;
      std::memcpy(&V, B.data() + At, 8);
      V += Delta;
      std::memcpy(B.data() + At, &V, 8);
    };
  };
  auto Desc = [](image::SectionKind K) { return size_t(48 + 32 * int(K)); };
  struct Case {
    const char *What;
    Corruption Corrupt;
    const char *Needle;
  };
  const std::vector<Case> Cases = {
      {"magic", Set32(0, 0x58585858), "bad magic"},
      {"version", Set32(8, image::FormatVersion + 7), "format version"},
      {"endian tag", Set32(12, 0x04030201), "endianness mismatch"},
      {"record size", Set32(36, 72), "function records are 72 bytes"},
      {"file bytes", Add64(16, 8), "but the header records"},
      {"section count", Set32(32, 19), "has 19 sections"},
      {"section kind", Set32(Desc(image::SectionKind::SuccEdge), 7),
       "slot 3 holds kind 7"},
      {"misaligned offset", Add64(Desc(image::SectionKind::PredOff) + 8, 4),
       "is misaligned"},
      {"extent past EOF",
       Add64(Desc(image::SectionKind::StrTab) + 16, Good.size()),
       "extends past the end of the file"},
      {"element size", Add64(Desc(image::SectionKind::SuccOff) + 16, -1ull),
       "not a multiple of its element size"},
  };
  const std::string Path = uniqueTempPath("header_check.img");
  for (const Case &C : Cases) {
    std::vector<uint8_t> Bad = Good;
    C.Corrupt(Bad);
    writeFileBytes(Path, Bad);
    std::string MapError, VerifyError;
    EXPECT_FALSE(CorpusImage::map(Path, &MapError).valid()) << C.What;
    EXPECT_FALSE(verifyImageFile(Path, &VerifyError)) << C.What;
    EXPECT_NE(MapError.find(C.Needle), std::string::npos)
        << C.What << ": " << MapError;
    EXPECT_EQ(MapError, VerifyError) << C.What;
  }
  std::remove(Path.c_str());
}

TEST(CorpusImageRejection, VerifyNamesTheLowestBadSection) {
  // Both checksum passes fold sections four at a time, ordered by size;
  // the diagnostic must still name the lowest-index damaged section.
  std::vector<uint8_t> Bad = smallImage();
  std::string Error;
  {
    CorpusImage Img = CorpusImage::fromBytes(Bad, &Error);
    ASSERT_TRUE(Img.valid()) << Error;
    for (image::SectionKind K :
         {image::SectionKind::SuccTo, image::SectionKind::ImmVal}) {
      const image::SectionDesc &D = Img.section(uint32_t(K));
      ASSERT_GT(D.Bytes, 0u);
      Bad[D.Offset + D.Bytes / 2] ^= 0x5a;
    }
  }
  const char *Needle = "section SuccTo (section 4)";
  CorpusImage Img = CorpusImage::fromBytes(Bad, &Error);
  ASSERT_TRUE(Img.valid()) << Error;
  EXPECT_FALSE(Img.verify(&Error));
  EXPECT_NE(Error.find(Needle), std::string::npos) << Error;

  const std::string Path = uniqueTempPath("two_bad_sections.img");
  writeFileBytes(Path, Bad);
  EXPECT_FALSE(verifyImageFile(Path, &Error));
  EXPECT_NE(Error.find(Needle), std::string::npos) << Error;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The lockstep checksum kernel
//===----------------------------------------------------------------------===//

TEST(ImageChecksum, LanesEqualScalarFnv1a) {
  // 1-4 lanes of unequal lengths (zero to several KB), at odd offsets
  // into one buffer, from the basis and from a chained state.
  std::vector<uint8_t> Buf(3 * 8192 + 16);
  Rng R(0xf17a);
  for (uint8_t &B : Buf)
    B = uint8_t(R.next());
  const uint64_t Lens[] = {0, 1, 3, 7, 64, 1021, 4096, 8191};
  const uint64_t Offs[] = {1, 3, 8197, 16389};
  int Cases = 0;
  for (unsigned Lanes = 1; Lanes <= image::Fnv1aMaxLanes; ++Lanes)
    for (unsigned Rot = 0; Rot < 8; ++Rot)
      for (uint64_t Seed : {image::Fnv1aBasis, uint64_t(0x1234567890abcdefull)}) {
        uint64_t H[image::Fnv1aMaxLanes], Len[image::Fnv1aMaxLanes];
        const void *P[image::Fnv1aMaxLanes];
        uint64_t Want[image::Fnv1aMaxLanes];
        for (unsigned L = 0; L < Lanes; ++L) {
          Len[L] = Lens[(Rot + 3 * L) % 8];
          P[L] = Buf.data() + Offs[L];
          H[L] = Seed + L;
          Want[L] = image::fnv1aUpdate(Seed + L, P[L], Len[L]);
        }
        image::fnv1aUpdateLanes(H, P, Len, Lanes);
        for (unsigned L = 0; L < Lanes; ++L)
          EXPECT_EQ(H[L], Want[L]) << Lanes << " lanes, rotation " << Rot
                                   << ", lane " << L << " of " << Len[L]
                                   << " bytes";
        ++Cases;
      }
  EXPECT_EQ(Cases, 64);
  // One lane from the basis is fnv1a itself.
  uint64_t H = image::Fnv1aBasis;
  const void *P = Buf.data() + 5;
  const uint64_t Len = 4099;
  image::fnv1aUpdateLanes(&H, &P, &Len, 1);
  EXPECT_EQ(H, image::fnv1a(Buf.data() + 5, Len));
}

//===----------------------------------------------------------------------===//
// Mapped analysis == in-memory pipeline
//===----------------------------------------------------------------------===//

TEST(CorpusImageByteIdentity, MappedAnalysisMatchesInMemoryOnFullCorpus) {
  CorpusHandles H(/*Seed=*/1994);
  std::string Path = uniqueTempPath("corpus_image_analysis.img");
  std::string Error;
  ASSERT_TRUE(buildCorpusImage(Path, H.Graphs, H.Names, &Error)) << Error;
  CorpusImage Img = CorpusImage::map(Path, &Error);
  ASSERT_TRUE(Img.valid()) << Error;

  CfgViewScratch VS;
  CycleEquivScratch CES;
  ControlRegionsScratch CRS;

  for (uint64_t I = 0; I < Img.numFunctions(); ++I) {
    const CorpusFunction &C = H.Corpus[I];
    const Cfg &G = C.Fn.Graph;
    CfgView MV = Img.cfg(I);
    ProgramStructureTree MT = Img.pst(I);

    // Cycle equivalence on the mapped CSR arrays.
    CycleEquivResult CeL = computeCycleEquivalence(G);
    CycleEquivResult CeM =
        computeCycleEquivalence(MV, /*AddReturnEdge=*/true, CES);
    ASSERT_EQ(CeL.EdgeClass, CeM.EdgeClass) << C.Fn.Name;

    // PST queries through the printer (exercises children, immediateNodes,
    // regionOfNode, depths and entry/exit edges in one golden).
    ProgramStructureTree TL = ProgramStructureTree::build(G);
    ASSERT_EQ(formatPst(G, TL), formatPst(G, MT)) << C.Fn.Name;

    // Control regions over the mapped view.
    ControlRegionsResult CrL = computeControlRegionsLinearImplicit(G);
    ControlRegionsResult CrM = computeControlRegionsLinearImplicit(MV, CRS);
    ASSERT_EQ(CrL.NodeClass, CrM.NodeClass) << C.Fn.Name;

    // Every dominator builder, including the one that consumes the PST.
    DomTree DL = DomTree::buildIterative(G);
    DomTree DM = DomTree::buildIterative(MV);
    DomTree PL = DomTree::buildPostDom(G);
    DomTree PM = DomTree::buildPostDom(MV);
    DomTree LL = DomTree::buildLengauerTarjan(G);
    DomTree LM = DomTree::buildLengauerTarjan(MV);
    DomTree QL = buildDominatorsViaPst(G, TL);
    DomTree QM = buildDominatorsViaPst(MV, MT);
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      ASSERT_EQ(DL.idom(N), DM.idom(N)) << C.Fn.Name << " node " << N;
      ASSERT_EQ(PL.idom(N), PM.idom(N)) << C.Fn.Name << " node " << N;
      ASSERT_EQ(LL.idom(N), LM.idom(N)) << C.Fn.Name << " node " << N;
      ASSERT_EQ(QL.idom(N), QM.idom(N)) << C.Fn.Name << " node " << N;
    }

    // All four dataflow solvers.
    BitVectorProblem P = makeReachingDefs(C.Fn);
    ASSERT_EQ(solveIterative(G, P), solveIterative(MV, P)) << C.Fn.Name;
    ASSERT_EQ(solveElimination(G, TL, P), solveElimination(MV, MT, P))
        << C.Fn.Name;
    DominanceFrontiers DF(G, DL);
    ASSERT_EQ(solveOnSeg(G, DL, DF, P), solveOnSeg(MV, DL, DF, P))
        << C.Fn.Name;
    auto Keys = expressionKeys(C.Fn);
    if (!Keys.empty()) {
      BitVectorProblem Q = makeSingleExprAvailability(C.Fn, Keys.front());
      ASSERT_EQ(solveOnQpg(G, TL, Q).EdgeValue,
                solveOnQpg(MV, MT, Q).EdgeValue)
          << C.Fn.Name;
    }

    // Phi placement, classic and PST-accelerated.
    ASSERT_EQ(placePhisClassic(C.Fn).PhiBlocks,
              placePhisClassic(C.Fn, MV).PhiBlocks)
        << C.Fn.Name;
    ASSERT_EQ(placePhisPst(C.Fn, TL).PhiBlocks,
              placePhisPst(C.Fn, MV, MT).PhiBlocks)
        << C.Fn.Name;
  }
  std::remove(Path.c_str());
}

TEST(CorpusImageByteIdentity, RegionProfilerRunsOnMappedPst) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<uint8_t> Bytes = buildCorpusImage(H.Graphs, H.Names);
  std::string Error;
  CorpusImage Img = CorpusImage::fromBytes(std::move(Bytes), &Error);
  ASSERT_TRUE(Img.valid()) << Error;

  // A slice of the corpus is plenty: the profiler's cost is in the
  // interpreter, and the point here is PST interchangeability, which the
  // whole-corpus test above already pins structurally.
  for (uint64_t I = 0; I < Img.numFunctions(); I += 16) {
    const CorpusFunction &C = H.Corpus[I];
    ProgramStructureTree TL = ProgramStructureTree::build(C.Fn.Graph);
    ProgramStructureTree MT = Img.pst(I);

    RegionProfile Direct(C.Fn, TL);
    RegionProfile Mapped(C.Fn, MT);
    std::vector<int64_t> Args{5, 3, 2};
    Direct.runAndAdd(Args);
    Mapped.runAndAdd(Args);
    Direct.finalize();
    Mapped.finalize();

    ASSERT_EQ(Direct.numRuns(), Mapped.numRuns()) << C.Fn.Name;
    ASSERT_EQ(Direct.totalWork(), Mapped.totalWork()) << C.Fn.Name;
    ASSERT_EQ(Direct.blockTotals(), Mapped.blockTotals()) << C.Fn.Name;
    ASSERT_EQ(Direct.edgeTotals(), Mapped.edgeTotals()) << C.Fn.Name;
    ASSERT_EQ(Direct.numRegions(), Mapped.numRegions()) << C.Fn.Name;
    for (RegionId R = 0; R < Direct.numRegions(); ++R) {
      const RegionDynamics &A = Direct.dynamics(R);
      const RegionDynamics &B = Mapped.dynamics(R);
      ASSERT_EQ(A.Entries, B.Entries) << C.Fn.Name << " region " << R;
      ASSERT_EQ(A.SelfCost, B.SelfCost) << C.Fn.Name << " region " << R;
      ASSERT_EQ(A.InclusiveCost, B.InclusiveCost)
          << C.Fn.Name << " region " << R;
      ASSERT_EQ(A.Iterations, B.Iterations) << C.Fn.Name << " region " << R;
      ASSERT_EQ(A.SpanPerEntry, B.SpanPerEntry)
          << C.Fn.Name << " region " << R;
    }
  }
}

//===----------------------------------------------------------------------===//
// Image-based batch analysis
//===----------------------------------------------------------------------===//

TEST(CorpusImageBatch, ImageAnalyzeCorpusMatchesDirectPath) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<Cfg> Graphs;
  for (const CorpusFunction &C : H.Corpus)
    Graphs.push_back(C.Fn.Graph);

  BatchOptions O;
  O.NumThreads = 2;
  BatchAnalyzer A(O);
  std::string Error;
  CorpusImage Img =
      CorpusImage::fromBytes(buildCorpusImage(H.Graphs, H.Names), &Error);
  ASSERT_TRUE(Img.valid()) << Error;

  std::vector<FunctionAnalysis> Direct = A.analyzeCorpus(Graphs);
  std::vector<FunctionAnalysis> Mapped = A.analyzeCorpus(Img);
  ASSERT_EQ(Direct.size(), Mapped.size());
  for (size_t I = 0; I < Direct.size(); ++I) {
    const Cfg &G = Graphs[I];
    EXPECT_TRUE(Mapped[I].Pst.isExternal());
    ASSERT_EQ(formatPst(G, Direct[I].Pst), formatPst(G, Mapped[I].Pst))
        << H.Names[I];
    ASSERT_EQ(Direct[I].ControlRegions.NodeClass,
              Mapped[I].ControlRegions.NodeClass)
        << H.Names[I];
    ASSERT_EQ(Direct[I].ControlRegions.NumClasses,
              Mapped[I].ControlRegions.NumClasses)
        << H.Names[I];
  }
}

//===----------------------------------------------------------------------===//
// Adopted-tree storage semantics
//===----------------------------------------------------------------------===//

TEST(ProgramStructureTreeStorage, CopySemanticsOwnedAndAdopted) {
  Cfg G = paperFigure1Cfg();
  ProgramStructureTree Owned = ProgramStructureTree::build(G);
  ASSERT_FALSE(Owned.isExternal());

  // Copying an owning tree deep-copies: fresh arrays, same content.
  ProgramStructureTree OwnedCopy(Owned);
  EXPECT_FALSE(OwnedCopy.isExternal());
  EXPECT_NE(Owned.regionTable().data(), OwnedCopy.regionTable().data());
  EXPECT_EQ(formatPst(G, Owned), formatPst(G, OwnedCopy));

  // Adopting aliases the owner's arrays; copying the adopted tree keeps
  // aliasing the same external storage.
  ProgramStructureTree Adopted = ProgramStructureTree::adoptExternal(
      Owned.regionTable(), Owned.nodeRegionTable(), Owned.edgeRegionTable(),
      Owned.entryOfTable(), Owned.exitOfTable(), Owned.childOffTable(),
      Owned.childValTable(), Owned.immOffTable(), Owned.immValTable());
  EXPECT_TRUE(Adopted.isExternal());
  EXPECT_EQ(Adopted.regionTable().data(), Owned.regionTable().data());
  EXPECT_EQ(formatPst(G, Adopted), formatPst(G, Owned));
  ProgramStructureTree AdoptedCopy(Adopted);
  EXPECT_TRUE(AdoptedCopy.isExternal());
  EXPECT_EQ(AdoptedCopy.regionTable().data(), Owned.regionTable().data());

  // Moving an owning tree transfers the buffers, so reads through the
  // moved-to tree see the original storage.
  const SeseRegion *Before = Owned.regionTable().data();
  ProgramStructureTree Moved(std::move(Owned));
  EXPECT_EQ(Moved.regionTable().data(), Before);
  EXPECT_EQ(formatPst(G, Moved), formatPst(G, OwnedCopy));

  // Copy assignment over an existing tree rebinds too.
  ProgramStructureTree Assigned;
  Assigned = Moved;
  EXPECT_NE(Assigned.regionTable().data(), Moved.regionTable().data());
  EXPECT_EQ(formatPst(G, Assigned), formatPst(G, Moved));
}

//===----------------------------------------------------------------------===//
// 64-bit layout arithmetic
//===----------------------------------------------------------------------===//

TEST(CorpusImageLayout, SectionsAndBasesPastThe32BitBoundary) {
  // Six synthetic giants: ~1.2 G nodes and 2.4 G edges in total, far past
  // what u32 byte offsets could address. Nothing is materialized — the
  // layout pass is pure arithmetic over the shapes.
  image::FunctionShape Big;
  Big.NumNodes = 200'000'000;
  Big.NumEdges = 500'000'000;
  Big.NumRegions = 50'000'000;
  Big.Entry = 0;
  Big.Exit = 1;
  Big.StrBytes = 1'000'000'000;
  constexpr uint64_t NumBig = 6;
  image::LayoutCursor Cur;
  std::vector<image::FuncRecord> Funcs;
  for (uint64_t I = 0; I < NumBig; ++I)
    Funcs.push_back(Cur.append(Big));
  image::ImageLayout L;
  image::finalizeSectionLayout(NumBig, Cur, L);

  // Every section is 8-byte aligned, in file order, non-overlapping.
  uint64_t PrevEnd = 0;
  for (uint32_t K = 0; K < image::NumSections; ++K) {
    EXPECT_EQ(L.SectionOffset[K] % image::SectionAlign, 0u)
        << image::sectionName(image::SectionKind(K));
    EXPECT_GE(L.SectionOffset[K], PrevEnd)
        << image::sectionName(image::SectionKind(K));
    PrevEnd = L.SectionOffset[K] + L.SectionBytes[K];
  }
  EXPECT_GE(L.FileBytes, PrevEnd);

  // The per-edge arrays alone are 1.6e9 * 6 * 4 bytes each section:
  // comfortably past 2^32.
  EXPECT_GT(L.SectionBytes[uint32_t(image::SectionKind::SuccEdge)],
            uint64_t(1) << 32);
  EXPECT_GT(L.FileBytes, uint64_t(1) << 35);

  // Offset-table fixup: base of function I is the sum over functions
  // before it; element bases themselves cross 2^32 at the tail.
  for (uint64_t I = 0; I < NumBig; ++I) {
    EXPECT_EQ(Funcs[I].NodeBase, I * uint64_t(Big.NumNodes));
    EXPECT_EQ(Funcs[I].EdgeBase, I * uint64_t(Big.NumEdges));
    EXPECT_EQ(Funcs[I].CsrBase, I * (uint64_t(Big.NumNodes) + 1));
    EXPECT_EQ(Funcs[I].RegionBase, I * uint64_t(Big.NumRegions));
    EXPECT_EQ(Funcs[I].RegionCsrBase, I * (uint64_t(Big.NumRegions) + 1));
    EXPECT_EQ(Funcs[I].ChildBase, I * (uint64_t(Big.NumRegions) - 1));
    EXPECT_EQ(Funcs[I].NameOff, I * Big.StrBytes);
  }
  EXPECT_GT(Funcs.back().EdgeBase, uint64_t(1) << 31);
}

} // namespace
