//===- image/CorpusImage.cpp - Frozen mmap-able corpus images -------------===//
//
// Part of the PST library (see include/pst/image/CorpusImage.h).
//
//===----------------------------------------------------------------------===//

#include "pst/image/CorpusImage.h"

#include "pst/obs/ScopedTimer.h"
#include "pst/obs/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace pst;
using namespace pst::image;

//===----------------------------------------------------------------------===//
// Format helpers
//===----------------------------------------------------------------------===//

const char *pst::image::sectionName(SectionKind K) {
  switch (K) {
  case SectionKind::FuncTable:
    return "FuncTable";
  case SectionKind::SuccOff:
    return "SuccOff";
  case SectionKind::PredOff:
    return "PredOff";
  case SectionKind::SuccEdge:
    return "SuccEdge";
  case SectionKind::SuccTo:
    return "SuccTo";
  case SectionKind::PredEdge:
    return "PredEdge";
  case SectionKind::PredFrom:
    return "PredFrom";
  case SectionKind::EdgeSrc:
    return "EdgeSrc";
  case SectionKind::EdgeDst:
    return "EdgeDst";
  case SectionKind::Regions:
    return "Regions";
  case SectionKind::NodeRegion:
    return "NodeRegion";
  case SectionKind::EdgeRegion:
    return "EdgeRegion";
  case SectionKind::EntryOf:
    return "EntryOf";
  case SectionKind::ExitOf:
    return "ExitOf";
  case SectionKind::ChildOff:
    return "ChildOff";
  case SectionKind::ChildVal:
    return "ChildVal";
  case SectionKind::ImmOff:
    return "ImmOff";
  case SectionKind::ImmVal:
    return "ImmVal";
  case SectionKind::NodeLabelOff:
    return "NodeLabelOff";
  case SectionKind::StrTab:
    return "StrTab";
  case SectionKind::NumKinds:
    break;
  }
  return "<unknown>";
}

uint64_t pst::image::fnv1aUpdate(uint64_t H, const void *Data,
                                 uint64_t Bytes) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (uint64_t I = 0; I < Bytes; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

uint64_t pst::image::fnv1a(const void *Data, uint64_t Bytes) {
  return fnv1aUpdate(Fnv1aBasis, Data, Bytes);
}

namespace {

/// Folds bytes [From, To) of each of \p L lanes in lockstep. With L a
/// constant the lane loop unrolls and the L multiply chains overlap.
template <unsigned L>
void foldLockstep(uint64_t *H, const uint8_t *const *P, uint64_t From,
                  uint64_t To) {
  uint64_t S[L];
  for (unsigned K = 0; K < L; ++K)
    S[K] = H[K];
  for (uint64_t I = From; I < To; ++I)
    for (unsigned K = 0; K < L; ++K) {
      S[K] ^= P[K][I];
      S[K] *= 0x100000001b3ull;
    }
  for (unsigned K = 0; K < L; ++K)
    H[K] = S[K];
}

} // namespace

void pst::image::fnv1aUpdateLanes(uint64_t *H, const void *const *Data,
                                  const uint64_t *Bytes, unsigned Lanes) {
  assert(Lanes <= Fnv1aMaxLanes && "too many lanes");
  // Order the lanes by length; every lane runs to the shortest one's end,
  // then the shortest drops out and the rest run on to the next end.
  unsigned Order[Fnv1aMaxLanes];
  for (unsigned K = 0; K < Lanes; ++K)
    Order[K] = K;
  std::sort(Order, Order + Lanes,
            [&](unsigned A, unsigned B) { return Bytes[A] < Bytes[B]; });
  uint64_t S[Fnv1aMaxLanes];
  const uint8_t *P[Fnv1aMaxLanes];
  for (unsigned K = 0; K < Lanes; ++K) {
    S[K] = H[Order[K]];
    P[K] = static_cast<const uint8_t *>(Data[Order[K]]);
  }
  uint64_t Done = 0;
  for (unsigned First = 0; First < Lanes; ++First) {
    const uint64_t End = Bytes[Order[First]];
    switch (Lanes - First) {
    case 4:
      foldLockstep<4>(S + First, P + First, Done, End);
      break;
    case 3:
      foldLockstep<3>(S + First, P + First, Done, End);
      break;
    case 2:
      foldLockstep<2>(S + First, P + First, Done, End);
      break;
    default:
      foldLockstep<1>(S + First, P + First, Done, End);
      break;
    }
    Done = End;
  }
  for (unsigned K = 0; K < Lanes; ++K)
    H[Order[K]] = S[K];
}

namespace {

/// Sections [First, NumSections) into \p Order, sorted by \p Bytes, so
/// that each consecutive group of Fnv1aMaxLanes sections folds in lockstep
/// nearly to its end. Returns the number of sections ordered.
uint32_t sectionsBySize(const uint64_t *Bytes, uint32_t First,
                        uint32_t *Order) {
  const uint32_t N = NumSections - First;
  for (uint32_t K = 0; K < N; ++K)
    Order[K] = First + K;
  std::sort(Order, Order + N,
            [&](uint32_t A, uint32_t B) { return Bytes[A] < Bytes[B]; });
  return N;
}

/// Folds sections [First, NumSections), section K being \p Bytes[K] bytes
/// at \p Data[K], into the running checksums \p Sums, four at a time.
void foldSections(uint64_t *Sums, const uint8_t *const *Data,
                  const uint64_t *Bytes, uint32_t First) {
  uint32_t Order[NumSections];
  const uint32_t N = sectionsBySize(Bytes, First, Order);
  for (uint32_t G = 0; G < N; G += Fnv1aMaxLanes) {
    const unsigned Lanes = std::min<uint32_t>(Fnv1aMaxLanes, N - G);
    uint64_t H[Fnv1aMaxLanes], Len[Fnv1aMaxLanes];
    const void *P[Fnv1aMaxLanes];
    for (unsigned L = 0; L < Lanes; ++L) {
      H[L] = Sums[Order[G + L]];
      P[L] = Data[Order[G + L]];
      Len[L] = Bytes[Order[G + L]];
    }
    fnv1aUpdateLanes(H, P, Len, Lanes);
    for (unsigned L = 0; L < Lanes; ++L)
      Sums[Order[G + L]] = H[L];
  }
}

uint64_t alignUp(uint64_t V) {
  return (V + (SectionAlign - 1)) & ~(SectionAlign - 1);
}

/// Element size of each section's global array.
uint64_t elemSize(SectionKind K) {
  switch (K) {
  case SectionKind::FuncTable:
    return sizeof(FuncRecord);
  case SectionKind::Regions:
    return sizeof(SeseRegion);
  case SectionKind::NodeLabelOff:
    return sizeof(uint64_t);
  case SectionKind::StrTab:
    return 1;
  default:
    return sizeof(uint32_t);
  }
}

/// Bytes of each function's NUL-terminated strings: name first, then one
/// label per node, in node-id order.
uint64_t strBytes(const Cfg &G, std::string_view Name) {
  uint64_t B = Name.size() + 1;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    B += G.node(N).Label.size() + 1;
  return B;
}

/// Element base of section \p K for record \p F: the global element index
/// at which the function's slice starts. Consecutive functions occupy
/// consecutive element ranges in every section, so a chunk's slice of any
/// section is the contiguous range [recBase(first), recBase(one-past-last)).
uint64_t recBase(const FuncRecord &F, SectionKind K) {
  switch (K) {
  case SectionKind::FuncTable:
    return 0; // Not a per-function fill target (addShape writes it).
  case SectionKind::SuccOff:
  case SectionKind::PredOff:
    return F.CsrBase;
  case SectionKind::Regions:
    return F.RegionBase;
  case SectionKind::NodeRegion:
  case SectionKind::ImmVal:
  case SectionKind::NodeLabelOff:
    return F.NodeBase;
  case SectionKind::ChildOff:
  case SectionKind::ImmOff:
    return F.RegionCsrBase;
  case SectionKind::ChildVal:
    return F.ChildBase;
  case SectionKind::StrTab:
    return F.NameOff;
  default:
    return F.EdgeBase; // Six CSR edge arrays + EdgeRegion/EntryOf/ExitOf.
  }
}

/// Copies one function's arrays into per-section storage. \p Sec[K] points
/// at the byte of section K holding global element index \p Bias[K]: a
/// chunk's staging buffer, biased by the chunk's first element. Both
/// destinations funnel through this one copy routine, so their bytes
/// cannot diverge. Destination storage must be pre-zeroed (string NULs are
/// never written explicitly).
void fillFunctionSlices(uint8_t *const Sec[NumSections],
                        const uint64_t Bias[NumSections], const FuncRecord &F,
                        const Cfg &G, const CfgView &V,
                        const ProgramStructureTree &T, std::string_view Name,
                        uint64_t StrBytesExpected) {
  const uint64_t N = F.NumNodes, E = F.NumEdges, R = F.NumRegions;
  assert(V.numNodes() == N && V.numEdges() == E && T.numRegions() == R &&
         "fill disagrees with the recorded shape");
  (void)StrBytesExpected;

  // Empty arrays (no edges, no child regions) may have a null data(),
  // which memcpy must not see even for a zero count.
  auto Copy32 = [&](SectionKind K, uint64_t Base, const uint32_t *Src,
                    uint64_t Count) {
    if (Count)
      std::memcpy(Sec[uint32_t(K)] + (Base - Bias[uint32_t(K)]) * 4, Src,
                  Count * 4);
  };
  Copy32(SectionKind::SuccOff, F.CsrBase, V.succOff(), N + 1);
  Copy32(SectionKind::PredOff, F.CsrBase, V.predOff(), N + 1);
  Copy32(SectionKind::SuccEdge, F.EdgeBase, V.succEdge(), E);
  Copy32(SectionKind::SuccTo, F.EdgeBase, V.succTo(), E);
  Copy32(SectionKind::PredEdge, F.EdgeBase, V.predEdge(), E);
  Copy32(SectionKind::PredFrom, F.EdgeBase, V.predFrom(), E);
  Copy32(SectionKind::EdgeSrc, F.EdgeBase, V.edgeSrc(), E);
  Copy32(SectionKind::EdgeDst, F.EdgeBase, V.edgeDst(), E);

  std::memcpy(Sec[uint32_t(SectionKind::Regions)] +
                  (F.RegionBase - Bias[uint32_t(SectionKind::Regions)]) *
                      sizeof(SeseRegion),
              T.regionTable().data(), R * sizeof(SeseRegion));
  Copy32(SectionKind::NodeRegion, F.NodeBase, T.nodeRegionTable().data(), N);
  Copy32(SectionKind::EdgeRegion, F.EdgeBase, T.edgeRegionTable().data(), E);
  Copy32(SectionKind::EntryOf, F.EdgeBase, T.entryOfTable().data(), E);
  Copy32(SectionKind::ExitOf, F.EdgeBase, T.exitOfTable().data(), E);
  Copy32(SectionKind::ChildOff, F.RegionCsrBase, T.childOffTable().data(),
         R + 1);
  Copy32(SectionKind::ChildVal, F.ChildBase, T.childValTable().data(), R - 1);
  Copy32(SectionKind::ImmOff, F.RegionCsrBase, T.immOffTable().data(), R + 1);
  Copy32(SectionKind::ImmVal, F.NodeBase, T.immValTable().data(), N);

  const uint64_t StrBias = Bias[uint32_t(SectionKind::StrTab)];
  char *Str = reinterpret_cast<char *>(Sec[uint32_t(SectionKind::StrTab)]);
  uint64_t *LabelOff =
      reinterpret_cast<uint64_t *>(Sec[uint32_t(SectionKind::NodeLabelOff)]) +
      (F.NodeBase - Bias[uint32_t(SectionKind::NodeLabelOff)]);
  // `At` stays an absolute StrTab offset — the *stored* label offsets are
  // absolute regardless of where the bytes are being staged.
  uint64_t At = F.NameOff;
  if (!Name.empty()) // A default string_view has a null data().
    std::memcpy(Str + (At - StrBias), Name.data(), Name.size());
  At += Name.size() + 1; // Storage is zeroed, so the NUL is already there.
  for (NodeId Nd = 0; Nd < N; ++Nd) {
    const std::string &L = G.node(Nd).Label;
    LabelOff[Nd] = At;
    std::memcpy(Str + (At - StrBias), L.data(), L.size());
    At += L.size() + 1;
  }
  assert(At == F.NameOff + StrBytesExpected && "string bytes drifted");
}

/// Header + section table: fixed size, and FuncTable starts right after
/// it — which is what lets addShape place FuncRecords before the rest of
/// the layout exists.
constexpr uint64_t TableEnd =
    sizeof(ImageHeader) + uint64_t(NumSections) * sizeof(SectionDesc);
static_assert(TableEnd % SectionAlign == 0, "FuncTable follows the table");

} // namespace

FunctionShape pst::image::functionShape(const Cfg &G,
                                        const ProgramStructureTree &T,
                                        std::string_view Name) {
  FunctionShape S;
  S.NumNodes = G.numNodes();
  S.NumEdges = G.numEdges();
  S.NumRegions = T.numRegions();
  S.Entry = G.entry();
  S.Exit = G.exit();
  S.StrBytes = strBytes(G, Name);
  return S;
}

FuncRecord pst::image::LayoutCursor::append(const FunctionShape &S) {
  assert(S.NumRegions >= 1 && "a PST always has its synthetic root");
  FuncRecord F;
  F.NodeBase = Nodes;
  F.EdgeBase = Edges;
  F.CsrBase = Csr;
  F.RegionBase = Regions;
  F.RegionCsrBase = RegionCsr;
  F.ChildBase = Children;
  F.NameOff = Str;
  F.NumNodes = S.NumNodes;
  F.NumEdges = S.NumEdges;
  F.NumRegions = S.NumRegions;
  F.Entry = S.Entry;
  F.Exit = S.Exit;
  Nodes += S.NumNodes;
  Edges += S.NumEdges;
  Csr += uint64_t(S.NumNodes) + 1;
  Regions += S.NumRegions;
  RegionCsr += uint64_t(S.NumRegions) + 1;
  Children += S.NumRegions - 1;
  Str += S.StrBytes;
  return F;
}

void pst::image::finalizeSectionLayout(uint64_t NumFunctions,
                                       const LayoutCursor &Cur,
                                       ImageLayout &L) {
  uint64_t (&SB)[NumSections] = L.SectionBytes;
  SB[uint32_t(SectionKind::FuncTable)] = NumFunctions * sizeof(FuncRecord);
  SB[uint32_t(SectionKind::SuccOff)] = Cur.Csr * 4;
  SB[uint32_t(SectionKind::PredOff)] = Cur.Csr * 4;
  for (SectionKind K : {SectionKind::SuccEdge, SectionKind::SuccTo,
                        SectionKind::PredEdge, SectionKind::PredFrom,
                        SectionKind::EdgeSrc, SectionKind::EdgeDst,
                        SectionKind::EdgeRegion, SectionKind::EntryOf,
                        SectionKind::ExitOf})
    SB[uint32_t(K)] = Cur.Edges * 4;
  SB[uint32_t(SectionKind::Regions)] = Cur.Regions * sizeof(SeseRegion);
  SB[uint32_t(SectionKind::NodeRegion)] = Cur.Nodes * 4;
  SB[uint32_t(SectionKind::ChildOff)] = Cur.RegionCsr * 4;
  SB[uint32_t(SectionKind::ChildVal)] = Cur.Children * 4;
  SB[uint32_t(SectionKind::ImmOff)] = Cur.RegionCsr * 4;
  SB[uint32_t(SectionKind::ImmVal)] = Cur.Nodes * 4;
  SB[uint32_t(SectionKind::NodeLabelOff)] = Cur.Nodes * 8;
  SB[uint32_t(SectionKind::StrTab)] = Cur.Str;

  uint64_t Off = TableEnd;
  for (uint32_t K = 0; K < NumSections; ++K) {
    L.SectionOffset[K] = Off;
    Off = alignUp(Off + L.SectionBytes[K]);
  }
  L.FileBytes = Off;
}

//===----------------------------------------------------------------------===//
// CorpusImage
//===----------------------------------------------------------------------===//

void CorpusImage::reset() {
  if (MapAddr)
    ::munmap(MapAddr, MapLen);
  MapAddr = nullptr;
  MapLen = 0;
  OwnedBytes.clear();
  Base = nullptr;
  Bytes = 0;
  Hdr = nullptr;
  Sections = nullptr;
  Funcs = nullptr;
}

CorpusImage::~CorpusImage() { reset(); }

CorpusImage::CorpusImage(CorpusImage &&O) noexcept { *this = std::move(O); }

CorpusImage &CorpusImage::operator=(CorpusImage &&O) noexcept {
  if (this == &O)
    return *this;
  reset();
  OwnedBytes = std::move(O.OwnedBytes);
  Base = O.Base;
  Bytes = O.Bytes;
  MapAddr = O.MapAddr;
  MapLen = O.MapLen;
  Hdr = O.Hdr;
  Sections = O.Sections;
  Funcs = O.Funcs;
  O.MapAddr = nullptr;
  O.MapLen = 0;
  O.Base = nullptr;
  O.Bytes = 0;
  O.Hdr = nullptr;
  O.Sections = nullptr;
  O.Funcs = nullptr;
  return *this;
}

namespace {

bool fail(std::string *Error, std::string Msg) {
  if (Error)
    *Error = std::move(Msg);
  return false;
}

/// The one header and section-table check, shared by CorpusImage::map
/// and verifyImageFile. \p Prefix holds the first min(\p Actual, TableEnd)
/// bytes of an image that is \p Actual bytes long.
bool checkHeaderAndSections(const uint8_t *Prefix, uint64_t Actual,
                            std::string *Error) {
  if (Actual < sizeof(ImageHeader))
    return fail(Error, "corpus image truncated: " + std::to_string(Actual) +
                           " bytes is smaller than the " +
                           std::to_string(sizeof(ImageHeader)) +
                           "-byte header");
  ImageHeader H;
  std::memcpy(&H, Prefix, sizeof(H));
  if (std::memcmp(H.MagicBytes, Magic, sizeof(Magic)) != 0)
    return fail(Error, "not a corpus image: bad magic (expected \"PSTIMG01\")");
  if (H.Endian != EndianTag) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "0x%08x", H.Endian);
    return fail(Error,
                std::string("corpus image endianness mismatch: tag reads ") +
                    Buf + "; the image was written on a different-endian "
                          "host and cannot be mapped here");
  }
  if (H.Version != FormatVersion)
    return fail(Error, "unsupported corpus image format version " +
                           std::to_string(H.Version) +
                           " (this reader understands version " +
                           std::to_string(FormatVersion) + ")");
  if (H.FuncRecordBytes != sizeof(FuncRecord))
    return fail(Error, "corpus image function records are " +
                           std::to_string(H.FuncRecordBytes) +
                           " bytes; this reader expects " +
                           std::to_string(sizeof(FuncRecord)));
  if (H.FileBytes != Actual)
    return fail(Error, "corpus image truncated: file is " +
                           std::to_string(Actual) +
                           " bytes but the header records " +
                           std::to_string(H.FileBytes));
  if (H.SectionCount != NumSections)
    return fail(Error, "corpus image has " + std::to_string(H.SectionCount) +
                           " sections; format version 1 defines " +
                           std::to_string(NumSections));
  if (TableEnd > Actual)
    return fail(Error, "corpus image truncated inside the section table");

  for (uint32_t K = 0; K < NumSections; ++K) {
    SectionDesc D;
    std::memcpy(&D, Prefix + sizeof(ImageHeader) + K * sizeof(SectionDesc),
                sizeof(D));
    std::string Name = std::string(sectionName(SectionKind(K))) +
                       " (section " + std::to_string(K) + ")";
    if (D.Kind != K)
      return fail(Error, "corpus image section table corrupt: slot " +
                             std::to_string(K) + " holds kind " +
                             std::to_string(D.Kind));
    if (D.Offset % SectionAlign != 0)
      return fail(Error, "corpus image section " + Name + " is misaligned");
    if (D.Offset < TableEnd || D.Offset > Actual || D.Bytes > Actual - D.Offset)
      return fail(Error, "corpus image truncated: section " + Name +
                             " extends past the end of the file");
    if (D.Bytes % elemSize(SectionKind(K)) != 0)
      return fail(Error, "corpus image section " + Name +
                             " has a size that is not a multiple of its "
                             "element size");
  }
  return true;
}

} // namespace

/// Structural validation over the mapped bytes: everything that can be
/// checked without reading the array payloads. Clears the image on failure.
bool CorpusImage::attach(std::string *Error) {
  if (!checkHeaderAndSections(Base, Bytes, Error))
    return false;
  Hdr = reinterpret_cast<const ImageHeader *>(Base);
  Sections = reinterpret_cast<const SectionDesc *>(Base + sizeof(ImageHeader));

  auto Elems = [&](SectionKind K) {
    return Sections[uint32_t(K)].Bytes / elemSize(K);
  };
  if (Elems(SectionKind::FuncTable) != Hdr->NumFunctions)
    return fail(Error,
                "corpus image function table holds " +
                    std::to_string(Elems(SectionKind::FuncTable)) +
                    " records but the header records " +
                    std::to_string(Hdr->NumFunctions) + " functions");
  Funcs = reinterpret_cast<const FuncRecord *>(
      Base + Sections[uint32_t(SectionKind::FuncTable)].Offset);

  // Cross-section shape: the per-node, per-edge, and per-region families
  // must agree in element count.
  const uint64_t NodeElems = Elems(SectionKind::NodeRegion);
  const uint64_t EdgeElems = Elems(SectionKind::SuccEdge);
  const uint64_t CsrElems = Elems(SectionKind::SuccOff);
  const uint64_t RegionElems = Elems(SectionKind::Regions);
  const uint64_t RegionCsrElems = Elems(SectionKind::ChildOff);
  const uint64_t ChildElems = Elems(SectionKind::ChildVal);
  const uint64_t StrTabBytes = Sections[uint32_t(SectionKind::StrTab)].Bytes;
  for (SectionKind K : {SectionKind::SuccTo, SectionKind::PredEdge,
                        SectionKind::PredFrom, SectionKind::EdgeSrc,
                        SectionKind::EdgeDst, SectionKind::EdgeRegion,
                        SectionKind::EntryOf, SectionKind::ExitOf})
    if (Elems(K) != EdgeElems)
      return fail(Error, std::string("corpus image per-edge sections "
                                     "disagree in size (") +
                             sectionName(K) + ")");
  if (Elems(SectionKind::PredOff) != CsrElems ||
      Elems(SectionKind::ImmOff) != RegionCsrElems ||
      Elems(SectionKind::ImmVal) != NodeElems ||
      Elems(SectionKind::NodeLabelOff) != NodeElems)
    return fail(Error, "corpus image section sizes are inconsistent");
  if (StrTabBytes > 0 && Base[Sections[uint32_t(SectionKind::StrTab)].Offset +
                              StrTabBytes - 1] != 0)
    return fail(Error, "corpus image string table is not NUL-terminated");

  // Per-function bounds: every slice must land inside its global array.
  // The walk reads every FuncRecord — 80 MB at a million functions — so on
  // a mapped image the validated record pages are dropped block by block
  // (they fault back in on demand); the walk's resident footprint stays
  // one block regardless of corpus size.
  const uint64_t BlockFns = uint64_t(1) << 16;
  auto DropValidatedRecords = [&](uint64_t BeginFn, uint64_t EndFn) {
    if (!MapAddr)
      return;
    const uintptr_t Page = uintptr_t(::sysconf(_SC_PAGESIZE));
    const uintptr_t TabBase =
        uintptr_t(Base) + Sections[uint32_t(SectionKind::FuncTable)].Offset;
    uintptr_t Lo =
        (TabBase + BeginFn * sizeof(FuncRecord) + Page - 1) & ~(Page - 1);
    uintptr_t Hi = (TabBase + EndFn * sizeof(FuncRecord)) & ~(Page - 1);
    if (Hi > Lo)
      ::madvise(reinterpret_cast<void *>(Lo), Hi - Lo, MADV_DONTNEED);
  };
  for (uint64_t Block = 0; Block < Hdr->NumFunctions; Block += BlockFns) {
    const uint64_t BlockEnd = std::min(Hdr->NumFunctions, Block + BlockFns);
    for (uint64_t I = Block; I < BlockEnd; ++I) {
    const FuncRecord &F = Funcs[I];
    auto Bad = [&](const char *What) {
      return fail(Error, "corpus image function " + std::to_string(I) +
                             " has an out-of-bounds " + What + " slice");
    };
    if (F.NumRegions < 1)
      return fail(Error, "corpus image function " + std::to_string(I) +
                             " has no PST root region");
    if (F.NodeBase > NodeElems || F.NumNodes > NodeElems - F.NodeBase)
      return Bad("node");
    if (F.EdgeBase > EdgeElems || F.NumEdges > EdgeElems - F.EdgeBase)
      return Bad("edge");
    if (F.CsrBase > CsrElems || uint64_t(F.NumNodes) + 1 > CsrElems - F.CsrBase)
      return Bad("CSR offset");
    if (F.RegionBase > RegionElems ||
        F.NumRegions > RegionElems - F.RegionBase)
      return Bad("region");
    if (F.RegionCsrBase > RegionCsrElems ||
        uint64_t(F.NumRegions) + 1 > RegionCsrElems - F.RegionCsrBase)
      return Bad("region CSR offset");
    if (F.ChildBase > ChildElems ||
        uint64_t(F.NumRegions) - 1 > ChildElems - F.ChildBase)
      return Bad("child");
    if (F.NameOff >= StrTabBytes)
      return Bad("name");
    if (F.Entry >= F.NumNodes || F.Exit >= F.NumNodes)
      return fail(Error, "corpus image function " + std::to_string(I) +
                             " has an out-of-range entry or exit node");
    }
    DropValidatedRecords(Block, BlockEnd);
  }

  PST_COUNTER("image.map.functions", Hdr->NumFunctions);
  PST_VALUE("image.map.bytes", double(Bytes));
  return true;
}

CorpusImage CorpusImage::map(const std::string &Path, std::string *Error) {
  PST_SPAN("image.map");
  CorpusImage Img;
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    fail(Error, "cannot open corpus image '" + Path +
                    "': " + std::strerror(errno));
    return Img;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    fail(Error, "cannot stat corpus image '" + Path +
                    "': " + std::strerror(errno));
    ::close(Fd);
    return Img;
  }
  size_t Len = size_t(St.st_size);
  void *Addr = Len ? ::mmap(nullptr, Len, PROT_READ, MAP_PRIVATE, Fd, 0)
                   : nullptr;
  ::close(Fd); // The mapping keeps its own reference.
  if (Len && Addr == MAP_FAILED) {
    fail(Error, "cannot map corpus image '" + Path +
                    "': " + std::strerror(errno));
    return Img;
  }
  Img.MapAddr = Addr;
  Img.MapLen = Len;
  Img.Base = static_cast<const uint8_t *>(Addr);
  Img.Bytes = Len;
  if (!Img.attach(Error))
    Img.reset();
  return Img;
}

CorpusImage CorpusImage::fromBytes(std::vector<uint8_t> Bytes,
                                   std::string *Error) {
  CorpusImage Img;
  Img.OwnedBytes = std::move(Bytes);
  Img.Base = Img.OwnedBytes.data();
  Img.Bytes = Img.OwnedBytes.size();
  if (!Img.attach(Error))
    Img.reset();
  return Img;
}

const uint8_t *CorpusImage::sectionBase(SectionKind K) const {
  return Base + Sections[uint32_t(K)].Offset;
}

bool CorpusImage::verifySection(uint32_t I) const {
  const SectionDesc &D = Sections[I];
  return fnv1a(Base + D.Offset, D.Bytes) == D.Checksum;
}

bool CorpusImage::verify(std::string *Error) const {
  PST_SPAN("image.verify");
  assert(valid() && "verify on an invalid image");
  uint64_t Sums[NumSections], Bytes[NumSections];
  const uint8_t *Data[NumSections];
  for (uint32_t K = 0; K < NumSections; ++K) {
    Sums[K] = Fnv1aBasis;
    Data[K] = Base + Sections[K].Offset;
    Bytes[K] = Sections[K].Bytes;
  }
  foldSections(Sums, Data, Bytes, 0);
  for (uint32_t K = 0; K < NumSections; ++K)
    if (Sums[K] != Sections[K].Checksum)
      return fail(Error,
                  std::string("corpus image checksum mismatch in section ") +
                      sectionName(SectionKind(K)) + " (section " +
                      std::to_string(K) + "): the image is corrupted");
  return true;
}

void CorpusImage::release() const {
  // Read-only MAP_PRIVATE with no dirty pages: DONTNEED just drops the
  // resident pages; later accesses refault from the page cache.
  if (MapAddr)
    ::madvise(MapAddr, MapLen, MADV_DONTNEED);
}

std::string_view CorpusImage::functionName(uint64_t I) const {
  const char *Str =
      reinterpret_cast<const char *>(sectionBase(SectionKind::StrTab));
  return Str + Funcs[I].NameOff; // NUL-terminated; checked in attach().
}

CfgView CorpusImage::cfg(uint64_t I) const {
  const FuncRecord &F = Funcs[I];
  auto At32 = [&](SectionKind K, uint64_t Base) {
    return reinterpret_cast<const uint32_t *>(sectionBase(K)) + Base;
  };
  return CfgView::adopt(
      F.NumNodes, F.NumEdges, F.Entry, F.Exit,
      At32(SectionKind::SuccOff, F.CsrBase),
      At32(SectionKind::PredOff, F.CsrBase),
      At32(SectionKind::SuccEdge, F.EdgeBase),
      At32(SectionKind::SuccTo, F.EdgeBase),
      At32(SectionKind::PredEdge, F.EdgeBase),
      At32(SectionKind::PredFrom, F.EdgeBase),
      At32(SectionKind::EdgeSrc, F.EdgeBase),
      At32(SectionKind::EdgeDst, F.EdgeBase));
}

ProgramStructureTree CorpusImage::pst(uint64_t I) const {
  const FuncRecord &F = Funcs[I];
  auto At32 = [&](SectionKind K, uint64_t Base, uint64_t Count) {
    return std::span<const uint32_t>(
        reinterpret_cast<const uint32_t *>(sectionBase(K)) + Base, Count);
  };
  std::span<const SeseRegion> Regions(
      reinterpret_cast<const SeseRegion *>(sectionBase(SectionKind::Regions)) +
          F.RegionBase,
      F.NumRegions);
  return ProgramStructureTree::adoptExternal(
      Regions, At32(SectionKind::NodeRegion, F.NodeBase, F.NumNodes),
      At32(SectionKind::EdgeRegion, F.EdgeBase, F.NumEdges),
      At32(SectionKind::EntryOf, F.EdgeBase, F.NumEdges),
      At32(SectionKind::ExitOf, F.EdgeBase, F.NumEdges),
      At32(SectionKind::ChildOff, F.RegionCsrBase, uint64_t(F.NumRegions) + 1),
      At32(SectionKind::ChildVal, F.ChildBase, uint64_t(F.NumRegions) - 1),
      At32(SectionKind::ImmOff, F.RegionCsrBase, uint64_t(F.NumRegions) + 1),
      At32(SectionKind::ImmVal, F.NodeBase, F.NumNodes));
}

Cfg CorpusImage::materializeCfg(uint64_t I) const {
  const FuncRecord &F = Funcs[I];
  const char *Str =
      reinterpret_cast<const char *>(sectionBase(SectionKind::StrTab));
  const uint64_t *LabelOff = reinterpret_cast<const uint64_t *>(
                                 sectionBase(SectionKind::NodeLabelOff)) +
                             F.NodeBase;
  const uint32_t *Src = reinterpret_cast<const uint32_t *>(
                            sectionBase(SectionKind::EdgeSrc)) +
                        F.EdgeBase;
  const uint32_t *Dst = reinterpret_cast<const uint32_t *>(
                            sectionBase(SectionKind::EdgeDst)) +
                        F.EdgeBase;
  Cfg G;
  G.reserveNodes(F.NumNodes);
  G.reserveEdges(F.NumEdges);
  for (uint32_t N = 0; N < F.NumNodes; ++N)
    G.addNode(std::string(Str + LabelOff[N]));
  // Appending in edge-id order reproduces adjacency-list order exactly:
  // Cfg construction only ever appends.
  for (uint32_t E = 0; E < F.NumEdges; ++E)
    G.addEdge(Src[E], Dst[E]);
  G.setEntry(F.Entry);
  G.setExit(F.Exit);
  return G;
}

//===----------------------------------------------------------------------===//
// StreamImageWriter: the one writer, to a file or to memory
//===----------------------------------------------------------------------===//

namespace {

/// Write-behind granularity of the file destination's records: 4096
/// records = 320 KiB.
constexpr size_t RecBufCap = 4096;
/// Bounded read buffer of verifyImageFile, split across its lanes.
constexpr uint64_t IoWindow = 8ull << 20;

bool pwriteAll(int Fd, const void *Data, uint64_t Bytes, uint64_t Off) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  while (Bytes) {
    ssize_t N = ::pwrite(Fd, P, size_t(Bytes), off_t(Off));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Off += uint64_t(N);
    Bytes -= uint64_t(N);
  }
  return true;
}

bool preadAll(int Fd, void *Data, uint64_t Bytes, uint64_t Off) {
  uint8_t *P = static_cast<uint8_t *>(Data);
  while (Bytes) {
    ssize_t N = ::pread(Fd, P, size_t(Bytes), off_t(Off));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // Unexpected EOF.
    P += N;
    Off += uint64_t(N);
    Bytes -= uint64_t(N);
  }
  return true;
}

/// Copies the first \p Bytes bytes of \p In to offset \p Off of \p Out.
/// copy_file_range moves them inside the kernel; where the file system
/// refuses it, a bounded read/write loop finishes the copy.
bool copyRange(int In, int Out, uint64_t Off, uint64_t Bytes) {
  off_t InOff = 0, OutOff = off_t(Off);
  while (Bytes) {
    ssize_t N = ::copy_file_range(In, &InOff, Out, &OutOff,
                                  size_t(std::min<uint64_t>(Bytes, 1u << 30)),
                                  0);
    if (N > 0) {
      Bytes -= uint64_t(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == ENOSYS || errno == EXDEV || errno == EINVAL ||
                  errno == EOPNOTSUPP))
      break;
    return false; // An I/O error, or the spool ended early.
  }
  std::vector<uint8_t> Buf(size_t(std::min<uint64_t>(Bytes, 1u << 20)));
  while (Bytes) {
    const uint64_t N = std::min<uint64_t>(Buf.size(), Bytes);
    if (!preadAll(In, Buf.data(), N, uint64_t(InOff)) ||
        !pwriteAll(Out, Buf.data(), N, uint64_t(OutOff)))
      return false;
    InOff += off_t(N);
    OutOff += off_t(N);
    Bytes -= N;
  }
  return true;
}

/// A record whose bases are the cursor's totals: the end elements of
/// every function added so far.
FuncRecord endRecord(const LayoutCursor &C) {
  FuncRecord F;
  F.NodeBase = C.Nodes;
  F.EdgeBase = C.Edges;
  F.CsrBase = C.Csr;
  F.RegionBase = C.Regions;
  F.RegionCsrBase = C.RegionCsr;
  F.ChildBase = C.Children;
  F.NameOff = C.Str;
  return F;
}

} // namespace

StreamImageWriter::StreamImageWriter(std::string P, uint64_t NumFunctions)
    : Path(std::move(P)), NumFuncs(NumFunctions) {
  std::fill(std::begin(Spool), std::end(Spool), -1);
  std::fill(std::begin(Sum), std::end(Sum), Fnv1aBasis);
  // A unique sibling: the rename in finish() stays within one file
  // system, and concurrent builds of the same path never share a file.
  static std::atomic<uint64_t> NextTmp{0};
  TmpPath = Path + ".tmp." + std::to_string(::getpid()) + "." +
            std::to_string(NextTmp.fetch_add(1, std::memory_order_relaxed));
  Fd = ::open(TmpPath.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (Fd < 0) {
    OpenError = "cannot create '" + TmpPath + "': " + std::strerror(errno);
    return;
  }
  // The spools live beside the temp file, so finish() copies within one
  // file system, and are unlinked at once, so no end of the writer can
  // leave one behind.
  for (uint32_t K = 1; K < NumSections; ++K) {
    const std::string SpoolPath = TmpPath + ".s" + std::to_string(K);
    Spool[K] = ::open(SpoolPath.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
    if (Spool[K] < 0) {
      OpenError =
          "cannot create '" + SpoolPath + "': " + std::strerror(errno);
      ::close(Fd);
      ::unlink(TmpPath.c_str());
      Fd = -1;
      return;
    }
    ::unlink(SpoolPath.c_str());
  }
  RecBuf.reserve(size_t(std::min<uint64_t>(NumFuncs, RecBufCap)));
}

StreamImageWriter::StreamImageWriter(uint64_t NumFunctions)
    : InMemory(true), NumFuncs(NumFunctions) {
  std::fill(std::begin(Spool), std::end(Spool), -1);
  std::fill(std::begin(Sum), std::end(Sum), Fnv1aBasis);
  RecBuf.reserve(size_t(NumFuncs));
}

StreamImageWriter::~StreamImageWriter() {
  for (int S : Spool)
    if (S >= 0)
      ::close(S);
  if (Fd >= 0) {
    ::close(Fd);
    ::unlink(TmpPath.c_str());
  }
}

bool StreamImageWriter::writeAt(uint64_t Off, const void *Data,
                                uint64_t Bytes, std::string *Error) {
  if (InMemory) {
    if (Bytes)
      std::memcpy(Arena.data() + Off, Data, Bytes);
    return true;
  }
  if (!pwriteAll(Fd, Data, Bytes, Off))
    return fail(Error, "write to '" + TmpPath + "' failed: " +
                           std::strerror(errno));
  return true;
}

bool StreamImageWriter::flushRecords(std::string *Error) {
  if (!writeAt(TableEnd + RecsFlushed * sizeof(FuncRecord), RecBuf.data(),
               RecBuf.size() * sizeof(FuncRecord), Error))
    return false;
  RecsFlushed += RecBuf.size();
  RecBuf.clear();
  return true;
}

bool StreamImageWriter::readRecords(uint64_t First, uint64_t Count,
                                    FuncRecord *Out,
                                    std::string *Error) const {
  // Records [0, RecsFlushed) are in the temp file, the rest in RecBuf.
  const uint64_t FromFile =
      First < RecsFlushed ? std::min(Count, RecsFlushed - First) : 0;
  if (FromFile && !preadAll(Fd, Out, FromFile * sizeof(FuncRecord),
                            TableEnd + First * sizeof(FuncRecord)))
    return fail(Error, "read of '" + TmpPath + "' function records failed");
  if (Count > FromFile)
    std::memcpy(Out + FromFile,
                RecBuf.data() + (First + FromFile - RecsFlushed),
                (Count - FromFile) * sizeof(FuncRecord));
  return true;
}

bool StreamImageWriter::addShape(const image::FunctionShape &S,
                                 std::string *Error) {
  if (!valid())
    return fail(Error, OpenError);
  assert(!Finished && "addShape after finish");
  assert(Added < NumFuncs && "more shapes than declared functions");
  const FuncRecord F = Cursor.append(S);
  Sum[uint32_t(SectionKind::FuncTable)] =
      fnv1aUpdate(Sum[uint32_t(SectionKind::FuncTable)], &F, sizeof(F));
  RecBuf.push_back(F);
  ++Added;
  if (!InMemory && RecBuf.size() >= RecBufCap)
    return flushRecords(Error);
  return true;
}

bool StreamImageWriter::addShape(const Cfg &G, const ProgramStructureTree &T,
                                 std::string_view Name, std::string *Error) {
  return addShape(functionShape(G, T, Name), Error);
}

bool StreamImageWriter::beginFill(std::string *Error) const {
  if (!valid())
    return fail(Error, OpenError);
  if (Added != NumFuncs)
    return fail(Error, "stream image writer has " + std::to_string(Added) +
                           " shapes but " + std::to_string(NumFuncs) +
                           " functions were declared");
  return true;
}

bool StreamImageWriter::beginChunk(ChunkScratch &CS, uint64_t Begin,
                                   uint64_t Count, std::string *Error) {
  if (!valid())
    return fail(Error, OpenError);
  assert(Begin + Count <= NumFuncs && "chunk out of range");
  if (Begin + Count > Added)
    return fail(Error, "stream image chunk [" + std::to_string(Begin) + ", " +
                           std::to_string(Begin + Count) +
                           ") opened before its shapes were added (" +
                           std::to_string(Added) + " added)");
  CS.Begin = Begin;
  CS.Count = Count;
  // The sentinel's bases are the chunk's end elements: the next function's
  // record, or the running totals while that function has no shape yet.
  CS.Recs.resize(size_t(Count) + 1);
  const bool HaveNext = Begin + Count < Added;
  if (!readRecords(Begin, Count + HaveNext, CS.Recs.data(), Error))
    return false;
  if (!HaveNext)
    CS.Recs[size_t(Count)] = endRecord(Cursor);
  const FuncRecord &First = CS.Recs.front();
  const FuncRecord &End = CS.Recs[size_t(Count)];
  for (uint32_t K = 1; K < NumSections; ++K) {
    const uint64_t Elems =
        recBase(End, SectionKind(K)) - recBase(First, SectionKind(K));
    // assign() zeroes: string NULs are never written explicitly.
    CS.Buf[K].assign(size_t(Elems * elemSize(SectionKind(K))), 0);
    CS.Sec[K] = CS.Buf[K].data();
    CS.Bias[K] = recBase(First, SectionKind(K));
  }
  return true;
}

void StreamImageWriter::fill(ChunkScratch &CS, uint64_t I, const Cfg &G,
                             const CfgView &V, const ProgramStructureTree &T,
                             std::string_view Name) const {
  assert(I >= CS.Begin && I < CS.Begin + CS.Count && "function outside chunk");
  const FuncRecord *F = CS.Recs.data() + (I - CS.Begin);
  fillFunctionSlices(CS.Sec, CS.Bias, *F, G, V, T, Name,
                     F[1].NameOff - F->NameOff);
}

bool StreamImageWriter::endChunk(ChunkScratch &CS, std::string *Error) {
  if (!valid())
    return fail(Error, OpenError);
  if (CS.Begin != Ended)
    return fail(Error, "stream image chunk [" + std::to_string(CS.Begin) +
                           ", " + std::to_string(CS.Begin + CS.Count) +
                           ") ended out of order: the next chunk starts at "
                           "function " +
                           std::to_string(Ended));
  PST_SPAN(InMemory ? nullptr : "image.stream.fill");
  // Checksum first, while the chunk is still in cache. Chunks end in index
  // order, so each section's running FNV-1a state chains exactly.
  const uint8_t *Data[NumSections] = {};
  uint64_t Bytes[NumSections] = {};
  for (uint32_t K = 1; K < NumSections; ++K) {
    Data[K] = CS.Buf[K].data();
    Bytes[K] = CS.Buf[K].size();
  }
  foldSections(Sum, Data, Bytes, 1);
  uint64_t Total = 0;
  for (uint32_t K = 1; K < NumSections; ++K) {
    if (InMemory)
      Seg[K].insert(Seg[K].end(), CS.Buf[K].begin(), CS.Buf[K].end());
    else if (!pwriteAll(Spool[K], Data[K], Bytes[K], SegBytes[K]))
      return fail(Error, "write to the " +
                             std::string(sectionName(SectionKind(K))) +
                             " spool of '" + TmpPath +
                             "' failed: " + std::strerror(errno));
    SegBytes[K] += Bytes[K];
    Total += Bytes[K];
  }
  Ended += CS.Count;
  if (!InMemory) {
    PST_COUNTER("image.stream.chunks", 1);
    PST_COUNTER("image.stream.chunk_functions", CS.Count);
    PST_COUNTER("image.stream.chunk_bytes", Total);
  }
  return true;
}

bool StreamImageWriter::finish(std::string *Error) {
  if (!valid())
    return fail(Error, OpenError);
  assert(!Finished && "finish runs once");
  if (Added != NumFuncs || Ended != NumFuncs)
    return fail(Error, "stream image writer finished with " +
                           std::to_string(Added) + " shapes and " +
                           std::to_string(Ended) + " filled functions of " +
                           std::to_string(NumFuncs));
  PST_SPAN(InMemory ? nullptr : "image.stream.finish");
  ImageLayout Layout;
  finalizeSectionLayout(NumFuncs, Cursor, Layout);
  assert(Layout.SectionOffset[uint32_t(SectionKind::FuncTable)] == TableEnd &&
         "FuncTable moved; records landed at the wrong offset");
  // Size the destination zero-filled: padding is never written explicitly.
  // A file's unwritten holes read back as zero.
  if (InMemory) {
    Arena.assign(Layout.FileBytes, 0);
  } else if (::ftruncate(Fd, off_t(Layout.FileBytes)) != 0) {
    return fail(Error, "cannot size '" + TmpPath + "' to " +
                           std::to_string(Layout.FileBytes) +
                           " bytes: " + std::strerror(errno));
  }
  if (!flushRecords(Error))
    return false;
  SectionDesc Sections[NumSections];
  for (uint32_t K = 0; K < NumSections; ++K) {
    SectionDesc &D = Sections[K];
    D.Kind = K;
    D.Offset = Layout.SectionOffset[K];
    D.Bytes = Layout.SectionBytes[K];
    D.Checksum = Sum[K];
    if (K == uint32_t(SectionKind::FuncTable))
      continue;
    assert(SegBytes[K] == D.Bytes && "a segment disagrees with the layout");
    if (InMemory) {
      if (D.Bytes)
        std::memcpy(Arena.data() + D.Offset, Seg[K].data(), D.Bytes);
      Seg[K] = {};
    } else {
      if (!copyRange(Spool[K], Fd, D.Offset, D.Bytes))
        return fail(Error, "copy of the " +
                               std::string(sectionName(SectionKind(K))) +
                               " spool into '" + TmpPath +
                               "' failed: " + std::strerror(errno));
      ::close(Spool[K]); // Frees the spool's disk space.
      Spool[K] = -1;
    }
  }

  ImageHeader H;
  std::memcpy(H.MagicBytes, Magic, sizeof(Magic));
  H.Version = FormatVersion;
  H.Endian = EndianTag;
  H.FileBytes = Layout.FileBytes;
  H.NumFunctions = NumFuncs;
  H.SectionCount = NumSections;
  H.FuncRecordBytes = sizeof(FuncRecord);
  if (!writeAt(0, &H, sizeof(H), Error) ||
      !writeAt(sizeof(ImageHeader), Sections, sizeof(Sections), Error))
    return false;
  Finished = true;

  if (InMemory) {
    PST_COUNTER("image.build.images", 1);
    PST_VALUE("image.build.bytes", double(Layout.FileBytes));
    PST_VALUE("image.build.functions", double(NumFuncs));
    return true;
  }
  PST_VALUE("image.stream.bytes", double(Layout.FileBytes));
  PST_VALUE("image.stream.functions", double(NumFuncs));
  // Publish: the complete file replaces Path in one step. A reader that
  // mapped the old Path keeps the old inode and never sees a byte change.
  const int CloseRes = ::close(Fd);
  Fd = -1;
  if (CloseRes != 0 || ::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::string Msg = "cannot publish '" + TmpPath + "' as '" + Path +
                      "': " + std::strerror(errno);
    ::unlink(TmpPath.c_str());
    return fail(Error, std::move(Msg));
  }
  PST_COUNTER("image.stream.images", 1);
  return true;
}

std::vector<uint8_t> StreamImageWriter::takeBytes() {
  assert(InMemory && Finished && "takeBytes before a memory finish");
  return std::move(Arena);
}

namespace {

/// Serial drive of \p W over \p Fns, the same per-chunk sequence as
/// BatchAnalyzer::buildImageStream: each function's PST is built once and
/// kept until its chunk is filled.
bool writeCorpus(StreamImageWriter &W, std::span<const Cfg *const> Fns,
                 std::span<const std::string> Names, std::string *Error) {
  assert((Names.empty() || Names.size() == Fns.size()) &&
         "names must parallel functions");
  auto NameOf = [&](size_t I) {
    return Names.empty() ? std::string_view() : std::string_view(Names[I]);
  };
  // Chunks bound the trees and staging buffers held at once.
  constexpr size_t ChunkFns = 4096;
  CfgViewScratch VS;
  PstBuildScratch PS;
  std::vector<ProgramStructureTree> Trees;
  StreamImageWriter::ChunkScratch CS;
  for (size_t Begin = 0; Begin < Fns.size(); Begin += ChunkFns) {
    const size_t End = std::min(Fns.size(), Begin + ChunkFns);
    Trees.resize(End - Begin);
    for (size_t I = Begin; I < End; ++I) {
      CfgView V = CfgView::build(*Fns[I], VS);
      Trees[I - Begin] = ProgramStructureTree::build(V, PS);
      if (!W.addShape(*Fns[I], Trees[I - Begin], NameOf(I), Error))
        return false;
    }
    if (!W.beginChunk(CS, Begin, End - Begin, Error))
      return false;
    for (size_t I = Begin; I < End; ++I) {
      CfgView V = CfgView::build(*Fns[I], VS);
      W.fill(CS, I, *Fns[I], V, Trees[I - Begin], NameOf(I));
    }
    if (!W.endChunk(CS, Error))
      return false;
  }
  return W.finish(Error);
}

} // namespace

std::vector<uint8_t> pst::buildCorpusImage(std::span<const Cfg *const> Fns,
                                           std::span<const std::string> Names) {
  PST_SPAN("image.build");
  StreamImageWriter W(Fns.size());
  [[maybe_unused]] bool Ok = writeCorpus(W, Fns, Names, nullptr);
  assert(Ok && "the memory destination does no I/O");
  return W.takeBytes();
}

bool pst::buildCorpusImage(const std::string &Path,
                           std::span<const Cfg *const> Fns,
                           std::span<const std::string> Names,
                           std::string *Error) {
  PST_SPAN("image.build");
  StreamImageWriter W(Path, Fns.size());
  return writeCorpus(W, Fns, Names, Error);
}

//===----------------------------------------------------------------------===//
// verifyImageFile
//===----------------------------------------------------------------------===//

bool pst::verifyImageFile(const std::string &Path, std::string *Error) {
  PST_SPAN("image.stream.verify");
  const int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return fail(Error, "cannot open corpus image '" + Path +
                           "': " + std::strerror(errno));
  struct FdCloser {
    int Fd;
    ~FdCloser() { ::close(Fd); }
  } Guard{Fd};

  struct stat St;
  const uint64_t Actual = ::fstat(Fd, &St) == 0 ? uint64_t(St.st_size) : 0;
  struct {
    ImageHeader H;
    SectionDesc S[NumSections];
  } Table;
  static_assert(sizeof(Table) == TableEnd, "header + table are unpadded");
  const uint64_t PrefixBytes = std::min<uint64_t>(Actual, TableEnd);
  if (!preadAll(Fd, &Table, PrefixBytes, 0))
    return fail(Error, "read of corpus image '" + Path + "' failed");
  if (!checkHeaderAndSections(reinterpret_cast<const uint8_t *>(&Table),
                              Actual, Error))
    return false;

  // Sections four at a time, each lane reading through its quarter of one
  // IoWindow buffer.
  uint64_t Bytes[NumSections], Sums[NumSections];
  for (uint32_t K = 0; K < NumSections; ++K) {
    Bytes[K] = Table.S[K].Bytes;
    Sums[K] = Fnv1aBasis;
  }
  uint32_t Order[NumSections];
  const uint32_t N = sectionsBySize(Bytes, 0, Order);
  constexpr uint64_t LaneWindow = IoWindow / Fnv1aMaxLanes;
  std::vector<uint8_t> Window(IoWindow);
  for (uint32_t G = 0; G < N; G += Fnv1aMaxLanes) {
    const unsigned Lanes = std::min<uint32_t>(Fnv1aMaxLanes, N - G);
    uint64_t H[Fnv1aMaxLanes], Len[Fnv1aMaxLanes];
    const void *P[Fnv1aMaxLanes];
    for (unsigned L = 0; L < Lanes; ++L) {
      H[L] = Fnv1aBasis;
      P[L] = Window.data() + L * LaneWindow;
    }
    // Sorted by size: the group's last lane is its longest.
    const uint64_t Longest = Bytes[Order[G + Lanes - 1]];
    for (uint64_t At = 0; At < Longest; At += LaneWindow) {
      for (unsigned L = 0; L < Lanes; ++L) {
        const SectionDesc &D = Table.S[Order[G + L]];
        Len[L] = D.Bytes > At ? std::min(LaneWindow, D.Bytes - At) : 0;
        if (Len[L] && !preadAll(Fd, Window.data() + L * LaneWindow, Len[L],
                                D.Offset + At))
          return fail(Error, "read of corpus image '" + Path + "' failed");
      }
      fnv1aUpdateLanes(H, P, Len, Lanes);
    }
    for (unsigned L = 0; L < Lanes; ++L)
      Sums[Order[G + L]] = H[L];
  }
  for (uint32_t K = 0; K < NumSections; ++K)
    if (Sums[K] != Table.S[K].Checksum)
      return fail(Error, std::string("corpus image checksum mismatch in "
                                     "section ") +
                             sectionName(SectionKind(K)) + " (section " +
                             std::to_string(K) + "): the image is corrupted");
  return true;
}
