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
    return 0; // Not a per-function fill target (pass-1 output).
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
/// at the byte of section K holding global element index \p Bias[K]: the
/// memory destination passes its arena's section bases with zero bias,
/// the file destination its staging buffers with the chunk's first
/// elements. Both destinations funnel through this one copy routine, so
/// their bytes cannot diverge. Destination storage must be pre-zeroed
/// (string NULs and padding are never written explicitly).
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
/// it — which is what lets pass 1 place FuncRecords before the rest of
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
  for (uint32_t K = 0; K < Hdr->SectionCount; ++K)
    if (!verifySection(K))
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

/// Pass-1 write-behind granularity of the file destination: 4096 records
/// = 320 KiB.
constexpr size_t RecBufCap = 4096;
/// Bounded buffer for file checksum reads (finish, verifyImageFile).
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

/// FNV-1a of file bytes [Off, Off+Bytes), read through \p Window; FNV-1a
/// is sequential, so windows chain exactly.
bool fileFnv1a(int Fd, uint64_t Off, uint64_t Bytes,
               std::vector<uint8_t> &Window, uint64_t &Sum) {
  Sum = Fnv1aBasis;
  for (uint64_t At = 0; At < Bytes;) {
    const uint64_t N = std::min<uint64_t>(Window.size(), Bytes - At);
    if (!preadAll(Fd, Window.data(), N, Off + At))
      return false;
    Sum = fnv1aUpdate(Sum, Window.data(), N);
    At += N;
  }
  return true;
}

} // namespace

StreamImageWriter::StreamImageWriter(std::string P, uint64_t NumFunctions)
    : Path(std::move(P)), NumFuncs(NumFunctions) {
  // A unique sibling: the rename in finish() stays within one file
  // system, and concurrent builds of the same path never share a file.
  static std::atomic<uint64_t> NextTmp{0};
  TmpPath = Path + ".tmp." + std::to_string(::getpid()) + "." +
            std::to_string(NextTmp.fetch_add(1, std::memory_order_relaxed));
  Fd = ::open(TmpPath.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (Fd < 0)
    OpenError = "cannot create '" + TmpPath + "': " + std::strerror(errno);
  RecBuf.reserve(size_t(std::min<uint64_t>(NumFuncs, RecBufCap)));
}

StreamImageWriter::StreamImageWriter(uint64_t NumFunctions)
    : InMemory(true), NumFuncs(NumFunctions) {
  RecBuf.reserve(size_t(NumFuncs));
}

StreamImageWriter::~StreamImageWriter() {
  if (Fd >= 0) {
    ::close(Fd);
    ::unlink(TmpPath.c_str());
  }
}

bool StreamImageWriter::writeAt(uint64_t Off, const void *Data,
                                uint64_t Bytes, std::string *Error) const {
  if (InMemory) {
    if (Bytes)
      std::memcpy(Mem + Off, Data, Bytes);
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

bool StreamImageWriter::addShape(const image::FunctionShape &S,
                                 std::string *Error) {
  if (!valid())
    return fail(Error, OpenError);
  assert(!Filling && "addShape after beginFill");
  assert(Added < NumFuncs && "more shapes than declared functions");
  RecBuf.push_back(Cursor.append(S));
  ++Added;
  if (!InMemory && RecBuf.size() >= RecBufCap)
    return flushRecords(Error);
  return true;
}

bool StreamImageWriter::addShape(const Cfg &G, const ProgramStructureTree &T,
                                 std::string_view Name, std::string *Error) {
  return addShape(functionShape(G, T, Name), Error);
}

bool StreamImageWriter::beginFill(std::string *Error) {
  if (!valid())
    return fail(Error, OpenError);
  assert(!Filling && "beginFill runs once");
  if (Added != NumFuncs)
    return fail(Error, "stream image shape pass saw " + std::to_string(Added) +
                           " functions but " + std::to_string(NumFuncs) +
                           " were declared");
  // A null span name is inert: memory builds are timed by their caller.
  PST_SPAN(InMemory ? nullptr : "image.stream.layout");
  finalizeSectionLayout(NumFuncs, Cursor, Layout);
  assert(Layout.SectionOffset[uint32_t(SectionKind::FuncTable)] == TableEnd &&
         "FuncTable moved; pass-1 records landed at the wrong offset");
  // Size the destination zero-filled: padding and string NULs are never
  // written explicitly. A file's unwritten holes read back as zero.
  if (InMemory) {
    Arena.assign(Layout.FileBytes, 0);
    Mem = Arena.data();
  } else if (::ftruncate(Fd, off_t(Layout.FileBytes)) != 0) {
    return fail(Error, "cannot pre-size '" + TmpPath + "' to " +
                           std::to_string(Layout.FileBytes) +
                           " bytes: " + std::strerror(errno));
  }
  if (!flushRecords(Error))
    return false;
  if (!InMemory) {
    PST_VALUE("image.stream.bytes", double(Layout.FileBytes));
    PST_VALUE("image.stream.functions", double(NumFuncs));
  }
  Filling = true;
  return true;
}

bool StreamImageWriter::beginChunk(ChunkScratch &CS, uint64_t Begin,
                                   uint64_t Count, std::string *Error) const {
  assert(Filling && "beginChunk before beginFill");
  assert(Begin + Count <= NumFuncs && "chunk out of range");
  CS.Begin = Begin;
  CS.Count = Count;
  if (InMemory) {
    // Fills land in the arena directly, at global element offsets.
    CS.Rec = reinterpret_cast<const FuncRecord *>(Mem + TableEnd) + Begin;
    for (uint32_t K = 0; K < NumSections; ++K) {
      CS.Sec[K] = Mem + Layout.SectionOffset[K];
      CS.Bias[K] = 0;
    }
    return true;
  }

  // The chunk's records plus one lookahead: the sentinel's bases are the
  // chunk's end elements. The tail chunk synthesizes it from the totals.
  CS.Recs.resize(size_t(Count) + 1);
  const uint64_t Lookahead = (Begin + Count < NumFuncs) ? Count + 1 : Count;
  if (Lookahead &&
      !preadAll(Fd, CS.Recs.data(), Lookahead * sizeof(FuncRecord),
                TableEnd + Begin * sizeof(FuncRecord)))
    return fail(Error,
                "read of '" + TmpPath + "' function records failed");
  if (Lookahead == Count) {
    FuncRecord &End = CS.Recs[size_t(Count)];
    End = FuncRecord();
    End.NodeBase = Cursor.Nodes;
    End.EdgeBase = Cursor.Edges;
    End.CsrBase = Cursor.Csr;
    End.RegionBase = Cursor.Regions;
    End.RegionCsrBase = Cursor.RegionCsr;
    End.ChildBase = Cursor.Children;
    End.NameOff = Cursor.Str;
  }
  const FuncRecord &First = CS.Recs.front();
  const FuncRecord &End = CS.Recs[size_t(Count)];
  CS.Rec = CS.Recs.data();
  for (uint32_t K = 0; K < NumSections; ++K) {
    if (K == uint32_t(SectionKind::FuncTable)) {
      CS.Buf[K].clear(); // Records are pass-1 output, not chunk payload.
    } else {
      const uint64_t Elems =
          recBase(End, SectionKind(K)) - recBase(First, SectionKind(K));
      // assign() zeroes: staged NULs/padding match the zero-filled file.
      CS.Buf[K].assign(size_t(Elems * elemSize(SectionKind(K))), 0);
    }
    CS.Sec[K] = CS.Buf[K].data();
    CS.Bias[K] = recBase(First, SectionKind(K));
  }
  return true;
}

void StreamImageWriter::fill(ChunkScratch &CS, uint64_t I, const Cfg &G,
                             const CfgView &V, const ProgramStructureTree &T,
                             std::string_view Name) const {
  assert(Filling && "fill before beginFill");
  assert(I >= CS.Begin && I < CS.Begin + CS.Count && "function outside chunk");
  const FuncRecord *F = CS.Rec + (I - CS.Begin);
  const uint64_t StrEnd = I + 1 < NumFuncs ? F[1].NameOff : Cursor.Str;
  fillFunctionSlices(CS.Sec, CS.Bias, *F, G, V, T, Name,
                     StrEnd - F->NameOff);
}

bool StreamImageWriter::endChunk(ChunkScratch &CS, std::string *Error) const {
  assert(Filling && "endChunk before beginFill");
  if (InMemory)
    return true;
  PST_SPAN("image.stream.fill");
  uint64_t Bytes = 0;
  for (uint32_t K = 0; K < NumSections; ++K) {
    if (CS.Buf[K].empty())
      continue;
    const uint64_t Off =
        Layout.SectionOffset[K] + CS.Bias[K] * elemSize(SectionKind(K));
    if (!writeAt(Off, CS.Buf[K].data(), CS.Buf[K].size(), Error))
      return false;
    Bytes += CS.Buf[K].size();
  }
  PST_COUNTER("image.stream.chunks", 1);
  PST_COUNTER("image.stream.chunk_functions", CS.Count);
  PST_COUNTER("image.stream.chunk_bytes", Bytes);
  return true;
}

bool StreamImageWriter::finish(std::string *Error) {
  if (!valid())
    return fail(Error, OpenError);
  assert(Filling && "finish before beginFill");
  PST_SPAN(InMemory ? nullptr : "image.stream.finish");

  // Section checksums: in place over the arena, or one bounded-window
  // read back over the file.
  SectionDesc Sections[NumSections];
  std::vector<uint8_t> Window(InMemory ? 0 : IoWindow);
  for (uint32_t K = 0; K < NumSections; ++K) {
    SectionDesc &D = Sections[K];
    D.Kind = K;
    D.Offset = Layout.SectionOffset[K];
    D.Bytes = Layout.SectionBytes[K];
    if (InMemory)
      D.Checksum = fnv1a(Mem + D.Offset, D.Bytes);
    else if (!fileFnv1a(Fd, D.Offset, D.Bytes, Window, D.Checksum))
      return fail(Error, "read back of '" + TmpPath + "' failed");
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
  Filling = false;

  if (InMemory) {
    PST_COUNTER("image.build.images", 1);
    PST_VALUE("image.build.bytes", double(Layout.FileBytes));
    PST_VALUE("image.build.functions", double(NumFuncs));
    return true;
  }
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
  assert(InMemory && !Filling && Mem && "takeBytes before a memory finish");
  Mem = nullptr;
  return std::move(Arena);
}

namespace {

/// Serial drive of \p W over \p Fns: each function's PST is built once in
/// the shape pass and kept for the fill pass.
bool writeCorpus(StreamImageWriter &W, std::span<const Cfg *const> Fns,
                 std::span<const std::string> Names, std::string *Error) {
  assert((Names.empty() || Names.size() == Fns.size()) &&
         "names must parallel functions");
  auto NameOf = [&](size_t I) {
    return Names.empty() ? std::string_view() : std::string_view(Names[I]);
  };
  CfgViewScratch VS;
  PstBuildScratch PS;
  std::vector<ProgramStructureTree> Trees(Fns.size());
  for (size_t I = 0; I < Fns.size(); ++I) {
    CfgView V = CfgView::build(*Fns[I], VS);
    Trees[I] = ProgramStructureTree::build(V, PS);
    if (!W.addShape(*Fns[I], Trees[I], NameOf(I), Error))
      return false;
  }
  if (!W.beginFill(Error))
    return false;
  // Chunks bound the file destination's staging buffers; for memory a
  // chunk is free.
  constexpr size_t ChunkFns = 4096;
  StreamImageWriter::ChunkScratch CS;
  for (size_t Begin = 0; Begin < Fns.size(); Begin += ChunkFns) {
    const size_t End = std::min(Fns.size(), Begin + ChunkFns);
    if (!W.beginChunk(CS, Begin, End - Begin, Error))
      return false;
    for (size_t I = Begin; I < End; ++I) {
      CfgView V = CfgView::build(*Fns[I], VS);
      W.fill(CS, I, *Fns[I], V, Trees[I], NameOf(I));
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

  std::vector<uint8_t> Window(IoWindow);
  for (uint32_t K = 0; K < NumSections; ++K) {
    const SectionDesc &D = Table.S[K];
    uint64_t Sum = 0;
    if (!fileFnv1a(Fd, D.Offset, D.Bytes, Window, Sum))
      return fail(Error, "read of corpus image '" + Path + "' failed");
    if (Sum != D.Checksum)
      return fail(Error, std::string("corpus image checksum mismatch in "
                                     "section ") +
                             sectionName(SectionKind(K)) + " (section " +
                             std::to_string(K) + "): the image is corrupted");
  }
  return true;
}
