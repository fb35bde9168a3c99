//===- pst/image/CorpusImage.h - Frozen mmap-able corpus images -*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One contiguous, serializable arena holding the frozen CSR CFGs *and*
/// PSTs of a whole corpus, so cold start is an mmap instead of a
/// parse+lower+build pass over every function.
///
/// PR 5's \c CfgView proved that "build adjacency once, run everything on
/// flat arrays" wins; the corpus image takes the same idea process-wide,
/// following Kremlin's MemMapPool/MemMapAllocator idiom of pooled
/// mmap-backed allocation. Every per-function array of the pipeline's two
/// frozen products — the eight \c CfgView CSR arrays and the PST's
/// Regions/NodeRegion/EdgeRegion/EntryOf/ExitOf/ChildOff/ChildVal/ImmOff/
/// ImmVal — is concatenated into one shared global array, and a
/// per-function offset table records where each function's slices start.
/// Names and node labels ride along in a string table so mapped functions
/// print identically to freshly parsed ones.
///
/// On-disk format (version 1), all fields little-endian on little-endian
/// hosts (an endianness tag rejects foreign images):
///
///   ImageHeader                     magic, version, endian tag, sizes
///   SectionDesc[NumSections]        kind, 64-bit offset/size, checksum
///   section payloads                each 8-byte aligned in the file
///
/// Section offsets and sizes are 64-bit and every section starts 8-byte
/// aligned, so million-function corpora with >4 GiB arrays are
/// representable (the layout pass is pure arithmetic and unit-tested past
/// the 32-bit boundary without materializing data). Per-section FNV-1a
/// checksums make corruption detectable without re-deriving anything.
///
/// Mapping contract: \c CorpusImage::map validates structure (header,
/// section table, per-function bounds) but does not touch the array
/// payloads; \c verify() additionally checks every section checksum.
/// \c cfg(i) / \c pst(i) return non-owning views (\c CfgView /
/// \c ProgramStructureTree::adoptExternal) directly over the mapped bytes
/// — zero parse, zero copy, zero allocation — valid only while the image
/// is alive and unmoved. Every analysis overload that takes
/// \c const CfgView& or \c const ProgramStructureTree& runs on them
/// unmodified.
///
//===----------------------------------------------------------------------===//

#ifndef PST_IMAGE_CORPUSIMAGE_H
#define PST_IMAGE_CORPUSIMAGE_H

#include "pst/core/ProgramStructureTree.h"
#include "pst/graph/Cfg.h"
#include "pst/graph/CfgView.h"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pst {
namespace image {

/// First 8 bytes of every corpus image ("PSTIMG" + two format digits).
inline constexpr char Magic[8] = {'P', 'S', 'T', 'I', 'M', 'G', '0', '1'};
/// Bumped on any layout change; readers reject other versions.
inline constexpr uint32_t FormatVersion = 1;
/// Written as the native byte order; reads as 0x04030201 on a
/// different-endian host, which is rejected (images are a same-arch cold
/// start artifact, not an interchange format).
inline constexpr uint32_t EndianTag = 0x01020304;
/// Every section payload starts at a file offset that is a multiple of
/// this, so mapped u64 arrays are naturally aligned.
inline constexpr uint64_t SectionAlign = 8;

/// The sections of a version-1 image, in file order. Per-function slices
/// are element ranges inside these shared global arrays.
enum class SectionKind : uint32_t {
  FuncTable = 0, ///< FuncRecord per function (the offset table).
  SuccOff,       ///< u32; per function N+1 local CSR offsets.
  PredOff,       ///< u32; per function N+1 local CSR offsets.
  SuccEdge,      ///< u32 (EdgeId); per function E entries.
  SuccTo,        ///< u32 (NodeId); per function E entries.
  PredEdge,      ///< u32 (EdgeId); per function E entries.
  PredFrom,      ///< u32 (NodeId); per function E entries.
  EdgeSrc,       ///< u32 (NodeId); per function E entries.
  EdgeDst,       ///< u32 (NodeId); per function E entries.
  Regions,       ///< SeseRegion (16 bytes); per function R entries.
  NodeRegion,    ///< u32 (RegionId); per function N entries.
  EdgeRegion,    ///< u32 (RegionId); per function E entries.
  EntryOf,       ///< u32 (RegionId); per function E entries.
  ExitOf,        ///< u32 (RegionId); per function E entries.
  ChildOff,      ///< u32; per function R+1 local CSR offsets.
  ChildVal,      ///< u32 (RegionId); per function R-1 entries.
  ImmOff,        ///< u32; per function R+1 local CSR offsets.
  ImmVal,        ///< u32 (NodeId); per function N entries.
  NodeLabelOff,  ///< u64 byte offset into StrTab, per node.
  StrTab,        ///< NUL-terminated names and labels.
  NumKinds
};

inline constexpr uint32_t NumSections =
    static_cast<uint32_t>(SectionKind::NumKinds);

/// Human-readable section name ("SuccEdge", ...), for diagnostics and
/// `pstool --image-info`.
const char *sectionName(SectionKind K);

/// Fixed-size file header. Trivially copyable; written/read by memcpy.
struct ImageHeader {
  char MagicBytes[8];
  uint32_t Version = 0;
  uint32_t Endian = 0;
  uint64_t FileBytes = 0;    ///< Total file size; truncation check.
  uint64_t NumFunctions = 0;
  uint32_t SectionCount = 0;
  uint32_t FuncRecordBytes = 0; ///< sizeof(FuncRecord) layout guard.
  uint64_t Reserved = 0;
};
static_assert(sizeof(ImageHeader) == 48, "header layout is part of the format");

/// One section-table entry.
struct SectionDesc {
  uint32_t Kind = 0;
  uint32_t Reserved = 0;
  uint64_t Offset = 0;   ///< File byte offset; multiple of SectionAlign.
  uint64_t Bytes = 0;    ///< Payload byte size (unpadded).
  uint64_t Checksum = 0; ///< FNV-1a 64 over the payload bytes.
};
static_assert(sizeof(SectionDesc) == 32, "section table layout is fixed");

/// Per-function row of the offset table: element bases into the shared
/// global arrays plus the function's scalar facts. All bases are 64-bit so
/// corpora whose concatenated arrays pass 4 Gi elements stay representable.
struct FuncRecord {
  uint64_t NodeBase = 0;      ///< Into NodeRegion/ImmVal/NodeLabelOff.
  uint64_t EdgeBase = 0;      ///< Into the six CSR edge arrays and EdgeRegion/EntryOf/ExitOf.
  uint64_t CsrBase = 0;       ///< Into SuccOff/PredOff ((N+1)-sized rows).
  uint64_t RegionBase = 0;    ///< Into Regions.
  uint64_t RegionCsrBase = 0; ///< Into ChildOff/ImmOff ((R+1)-sized rows).
  uint64_t ChildBase = 0;     ///< Into ChildVal ((R-1)-sized rows).
  uint64_t NameOff = 0;       ///< Byte offset of the NUL-terminated name in StrTab.
  uint32_t NumNodes = 0;
  uint32_t NumEdges = 0;
  uint32_t NumRegions = 0;
  uint32_t Entry = 0;
  uint32_t Exit = 0;
  uint32_t Reserved = 0;
};
static_assert(sizeof(FuncRecord) == 80, "offset table layout is fixed");
static_assert(sizeof(SeseRegion) == 16 &&
                  std::is_trivially_copyable_v<SeseRegion>,
              "SeseRegion is serialized by memcpy");

/// FNV-1a 64-bit over \p Bytes bytes — the per-section checksum.
uint64_t fnv1a(const void *Data, uint64_t Bytes);

/// Incremental FNV-1a: folds \p Bytes more bytes into running state \p H.
/// Seed with \c Fnv1aBasis; chaining updates over consecutive windows
/// equals one fnv1a over the concatenation, which is what lets the writer
/// checksum each section chunk by chunk and \c verifyImageFile checksum
/// multi-gigabyte sections through a bounded buffer.
inline constexpr uint64_t Fnv1aBasis = 0xcbf29ce484222325ull;
uint64_t fnv1aUpdate(uint64_t H, const void *Data, uint64_t Bytes);

/// The most streams \c fnv1aUpdateLanes folds at once.
inline constexpr unsigned Fnv1aMaxLanes = 4;

/// Folds up to \c Fnv1aMaxLanes independent FNV-1a streams in lockstep:
/// lane L folds \p Bytes[L] bytes at \p Data[L] into \p H[L], exactly as
/// \c fnv1aUpdate would. One stream is a serial multiply chain; running
/// several side by side overlaps their latencies, which is what makes the
/// per-section checksums of an image cheap. Lanes may differ in length
/// (zero included).
void fnv1aUpdateLanes(uint64_t *H, const void *const *Data,
                      const uint64_t *Bytes, unsigned Lanes);

/// What the layout pass needs to know about one function.
struct FunctionShape {
  uint32_t NumNodes = 0;
  uint32_t NumEdges = 0;
  uint32_t NumRegions = 0;
  uint32_t Entry = 0;
  uint32_t Exit = 0;
  /// Bytes this function contributes to StrTab: name + NUL plus one
  /// NUL-terminated label per node.
  uint64_t StrBytes = 0;
};

/// Where each section lands in the file. Pure arithmetic over the layout
/// cursor's totals — no arrays are materialized, which is what makes
/// >4 GiB layouts unit-testable.
struct ImageLayout {
  /// Payload byte size per section, indexed by SectionKind.
  uint64_t SectionBytes[NumSections] = {};
  /// File byte offset per section, each a multiple of SectionAlign.
  uint64_t SectionOffset[NumSections] = {};
  uint64_t FileBytes = 0;
};

/// Computes one function's layout facts. \p T must be the PST of \p G.
/// Every path that records a shape reduces to this, so no two builds can
/// disagree about a function's shape.
FunctionShape functionShape(const Cfg &G, const ProgramStructureTree &T,
                            std::string_view Name = {});

/// The running prefix sums of the layout pass. append() folds one shape
/// in and returns its finished FuncRecord; the final totals are the
/// global element counts every section's byte size derives from. The
/// writer feeds it one shape at a time, so the offset table is the same
/// at any chunk size and for either destination.
struct LayoutCursor {
  uint64_t Nodes = 0;     ///< Elements of NodeRegion/ImmVal/NodeLabelOff.
  uint64_t Edges = 0;     ///< Elements of the six edge arrays + EdgeRegion/EntryOf/ExitOf.
  uint64_t Csr = 0;       ///< Elements of SuccOff/PredOff.
  uint64_t Regions = 0;   ///< Elements of Regions.
  uint64_t RegionCsr = 0; ///< Elements of ChildOff/ImmOff.
  uint64_t Children = 0;  ///< Elements of ChildVal.
  uint64_t Str = 0;       ///< Bytes of StrTab.

  FuncRecord append(const FunctionShape &S);
};

/// Fills \p L from the cursor's final totals: the section table (header +
/// section descriptors + aligned payloads) of a \p NumFunctions image.
void finalizeSectionLayout(uint64_t NumFunctions, const LayoutCursor &Cur,
                           ImageLayout &L);

} // namespace image

/// The one writer of the image format. It builds an image in one pass over
/// the functions and writes it to one of two destinations, chosen by the
/// constructor:
///
///   file    (Path, NumFunctions): a unique sibling temp file
///           `<Path>.tmp.<pid>.<n>`, renamed over \p Path only after
///           finish() has written the header and section table. A process
///           that has the old \p Path mapped keeps reading the old bytes,
///           and an abandoned build leaves neither \p Path nor a temp file
///           behind (the destructor unlinks it). Sections 1..19 grow in one
///           spool file each, created beside the temp file and unlinked at
///           once, so the build transiently needs about twice the image's
///           bytes on disk. Peak RSS is one chunk of staging buffers, never
///           the corpus.
///   memory  (NumFunctions): sections grow in heap vectors; finish()
///           assembles them into one arena and takeBytes() hands it back.
///
/// The calls, per chunk of consecutive functions:
///
///   addShape()    serial, strictly in index order: folds a function's
///                 shape into the running prefix sums
///                 (\c image::LayoutCursor); its FuncRecord falls out and
///                 goes straight to the FuncTable section.
///   beginChunk()  opens functions [Begin, Begin+Count), whose shapes must
///                 all have been added. Within any section such a run
///                 occupies one contiguous element range, staged in one
///                 zeroed buffer per section.
///   fill()        copies one function into the chunk's staging. Distinct
///                 functions of the chunk may fill concurrently; their
///                 slices are disjoint.
///   endChunk()    serial, chunks in index order (they must tile
///                 [0, NumFunctions)): folds the staged bytes into each
///                 section's running FNV-1a checksum while they are still
///                 in cache, then appends them to the section's segment.
///                 FNV-1a is sequential, so in-order chunks chain to the
///                 checksum of the whole section.
///   finish()      fixes the section table from the final totals
///                 (\c image::finalizeSectionLayout), copies each segment
///                 to its section offset, writes header + section table,
///                 and publishes the image.
///
/// Shapes may run ahead of the chunks: adding every shape first and then
/// filling every chunk (beginFill() checks that all shapes are in) gives
/// the same bytes as interleaving them chunk by chunk. The bytes are the
/// same at every chunk size, thread count and for both destinations: the
/// layout arithmetic, the per-function slice copies and the checksum fold
/// are one code path, and the destination only changes where segments are
/// kept. After a call fails, the writer can only be destroyed.
class StreamImageWriter {
public:
  /// Per-chunk state: the chunk's records plus a sentinel holding the
  /// chunk's end elements, and one zeroed staging buffer per section
  /// covering the chunk's element range. Reused across chunks.
  struct ChunkScratch {
    uint64_t Begin = 0;
    uint64_t Count = 0;
    /// Recs[K] is function Begin + K's record; Recs[Count] is the sentinel.
    std::vector<image::FuncRecord> Recs;
    /// Section K's byte holding global element Bias[K].
    uint8_t *Sec[image::NumSections] = {};
    uint64_t Bias[image::NumSections] = {};
    std::vector<uint8_t> Buf[image::NumSections];
  };

  /// File destination: creates the temp file and the section spools beside
  /// \p Path. On I/O failure the writer is !valid() and every operation
  /// fails with the constructor's diagnostic.
  StreamImageWriter(std::string Path, uint64_t NumFunctions);
  /// Memory destination: never fails.
  explicit StreamImageWriter(uint64_t NumFunctions);
  /// Closes the spools and closes and unlinks an unfinished temp file.
  ~StreamImageWriter();
  StreamImageWriter(const StreamImageWriter &) = delete;
  StreamImageWriter &operator=(const StreamImageWriter &) = delete;

  bool valid() const { return InMemory || Fd >= 0; }

  /// Serial, in index order: folds function \p I = (number of prior
  /// addShape calls)'s shape into the layout.
  bool addShape(const image::FunctionShape &S, std::string *Error = nullptr);
  bool addShape(const Cfg &G, const ProgramStructureTree &T,
                std::string_view Name = {}, std::string *Error = nullptr);

  /// Optional check before filling: fails unless all NumFunctions shapes
  /// have been added.
  bool beginFill(std::string *Error = nullptr) const;

  /// Opens chunk [Begin, Begin+Count); fails unless the shapes of all its
  /// functions have been added. Serial with addShape and endChunk.
  bool beginChunk(ChunkScratch &CS, uint64_t Begin, uint64_t Count,
                  std::string *Error = nullptr);

  /// Copies function \p I (must lie in \p CS's range) into the chunk's
  /// slices. \p V must be a view of \p G, \p T its PST, and \p Name the
  /// name addShape saw — drift from the recorded shape asserts. Distinct
  /// functions may fill the same chunk concurrently.
  void fill(ChunkScratch &CS, uint64_t I, const Cfg &G, const CfgView &V,
            const ProgramStructureTree &T, std::string_view Name = {}) const;

  /// Checksums the chunk and appends it to the section segments. Fails
  /// unless the chunk starts where the previous one ended.
  bool endChunk(ChunkScratch &CS, std::string *Error = nullptr);

  /// Requires every shape added and every chunk ended. Lays out the
  /// sections, assembles the segments, and writes header + section table.
  /// The file destination then closes the temp file and renames it over
  /// the path. The writer is spent afterwards.
  bool finish(std::string *Error = nullptr);

  /// Memory destination, after finish(): the complete image bytes.
  std::vector<uint8_t> takeBytes();

  uint64_t numFunctions() const { return NumFuncs; }

private:
  bool writeAt(uint64_t Off, const void *Data, uint64_t Bytes,
               std::string *Error);
  bool flushRecords(std::string *Error);
  bool readRecords(uint64_t First, uint64_t Count, image::FuncRecord *Out,
                   std::string *Error) const;

  std::string Path;
  /// File destination: the temp file being built, its descriptor (-1 when
  /// closed or never opened), one unlinked spool descriptor per section
  /// (FuncTable's stays -1), and why they could not be created.
  std::string TmpPath;
  int Fd = -1;
  int Spool[image::NumSections];
  std::string OpenError;
  /// Memory destination: one segment per section, then the arena that
  /// finish() assembles them into.
  bool InMemory = false;
  std::vector<uint8_t> Seg[image::NumSections];
  std::vector<uint8_t> Arena;

  uint64_t NumFuncs = 0;
  image::LayoutCursor Cursor;
  uint64_t Added = 0;
  /// Functions covered by ended chunks: the next chunk's Begin.
  uint64_t Ended = 0;
  bool Finished = false;
  /// Bytes appended to each section's segment, and its running checksum.
  uint64_t SegBytes[image::NumSections] = {};
  uint64_t Sum[image::NumSections];
  /// Records not yet in the temp file: bounded write-behind for a file,
  /// every record for memory (the arena does not exist before finish()).
  std::vector<image::FuncRecord> RecBuf;
  uint64_t RecsFlushed = 0;
};

/// Streams \p Path through a bounded window and checks header sanity and
/// every section checksum — the integrity story of \c CorpusImage::verify
/// without paying its resident-set cost (mapping + checksumming a 2.5 GB
/// image would fault every page into RSS; this never holds more than the
/// window). Header and section table go through the same check as
/// \c CorpusImage::map, so both reject a damaged table with the same
/// diagnostic; per-function bounds are checked at map time.
bool verifyImageFile(const std::string &Path, std::string *Error = nullptr);

/// A mapped (or memory-backed) corpus image. Move-only; unmaps on
/// destruction. All accessors require \c valid().
class CorpusImage {
public:
  CorpusImage() = default;
  CorpusImage(CorpusImage &&O) noexcept;
  CorpusImage &operator=(CorpusImage &&O) noexcept;
  CorpusImage(const CorpusImage &) = delete;
  CorpusImage &operator=(const CorpusImage &) = delete;
  ~CorpusImage();

  /// Maps \p Path read-only and validates its structure (header fields,
  /// section table, per-function offset bounds) without touching the array
  /// payloads. On failure returns an invalid image and, if \p Error is
  /// non-null, a diagnostic ("truncated...", "bad magic...", ...).
  static CorpusImage map(const std::string &Path,
                         std::string *Error = nullptr);

  /// As \c map over an in-memory byte buffer (takes ownership). The
  /// builder's output can be opened directly without a file round trip.
  static CorpusImage fromBytes(std::vector<uint8_t> Bytes,
                               std::string *Error = nullptr);

  bool valid() const { return Base != nullptr; }
  uint64_t numFunctions() const { return Hdr->NumFunctions; }
  uint64_t fileBytes() const { return Hdr->FileBytes; }
  const image::ImageHeader &header() const { return *Hdr; }
  uint32_t numSections() const { return Hdr->SectionCount; }
  const image::SectionDesc &section(uint32_t I) const { return Sections[I]; }

  /// Recomputes section \p I's checksum against its descriptor.
  bool verifySection(uint32_t I) const;

  /// Recomputes every section checksum (the full-integrity pass mapping
  /// deliberately skips). On mismatch returns false and names the first
  /// bad section in \p *Error.
  bool verify(std::string *Error = nullptr) const;

  const image::FuncRecord &func(uint64_t I) const { return Funcs[I]; }
  std::string_view functionName(uint64_t I) const;

  /// Zero-copy CSR view of function \p I over the mapped arrays; valid
  /// while the image lives.
  CfgView cfg(uint64_t I) const;

  /// Zero-copy frozen PST of function \p I (\c adoptExternal over the
  /// mapped arrays); valid while the image lives. Its cycleEquiv() is
  /// empty — the classes are construction input, not serialized state.
  ProgramStructureTree pst(uint64_t I) const;

  /// Drops the resident pages of an mmap-backed image (madvise
  /// MADV_DONTNEED on the read-only private mapping) so a streaming pass
  /// over a huge image keeps peak RSS at roughly one working window;
  /// later accesses refault from the page cache. No-op for memory-backed
  /// images and on platforms without madvise. Any CfgView/PST previously
  /// returned stays valid — the mapping itself is untouched.
  void release() const;

  /// Rebuilds a heap-owned \c Cfg (labels included) for function \p I —
  /// the slow path for printers and round-trip rebuilds, not for analysis.
  /// Adjacency-list order is reproduced exactly because edges are appended
  /// in edge-id order, the only order \c Cfg construction ever produces.
  Cfg materializeCfg(uint64_t I) const;

  /// The whole image as raw bytes (header, sections, checksums). The
  /// format is byte-deterministic for a given corpus, so equality of two
  /// images' rawBytes() is equality of the frozen analyses — the serving
  /// layer leans on this to check published snapshots against
  /// from-scratch rebuilds by memcmp.
  std::span<const uint8_t> rawBytes() const { return {Base, Bytes}; }

private:
  bool attach(std::string *Error);
  void reset();
  const uint8_t *sectionBase(image::SectionKind K) const;

  const uint8_t *Base = nullptr;
  uint64_t Bytes = 0;
  /// fromBytes storage (empty when mmap-backed).
  std::vector<uint8_t> OwnedBytes;
  /// mmap storage (null when memory-backed).
  void *MapAddr = nullptr;
  size_t MapLen = 0;

  const image::ImageHeader *Hdr = nullptr;
  const image::SectionDesc *Sections = nullptr;
  const image::FuncRecord *Funcs = nullptr;
};

/// Serial convenience: runs the full pipeline (CfgView + PST, built once
/// per function) and returns the finished image bytes from the writer's
/// memory destination. \p Names, when non-empty, must parallel \p Fns.
std::vector<uint8_t>
buildCorpusImage(std::span<const Cfg *const> Fns,
                 std::span<const std::string> Names = {});

/// As above into the writer's file destination at \p Path (published by
/// rename). Returns false with a diagnostic on I/O failure.
bool buildCorpusImage(const std::string &Path,
                      std::span<const Cfg *const> Fns,
                      std::span<const std::string> Names = {},
                      std::string *Error = nullptr);

} // namespace pst

#endif // PST_IMAGE_CORPUSIMAGE_H
