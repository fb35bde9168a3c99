//===- StreamCorpusTest.cpp - streaming corpus + out-of-core image builds ------===//
//
// Part of the PST library (see pst/workload/CorpusStream.h and
// pst/image/CorpusImage.h for the references).
//
// Coverage for the streaming million-function pipeline:
//  1. Producer determinism: the chunked stream is chunk-oblivious (the
//     same corpus at chunk sizes 1, 7 and 64 byte for byte) and
//     replayable (reset() reproduces the first pass exactly), so an image
//     build sees the same functions at any chunk size.
//  2. Byte identity: the streamed file build reproduces the in-memory
//     buildCorpusImage output bit for bit on the 254-procedure paper
//     corpus and on a generated stream corpus, at chunk sizes {1, 7,
//     1024} and thread counts {1, hardware}; a golden pins the length and
//     FNV-1a of two images.
//  3. Streamed mapped analysis: analyzeCorpusStream over small windows
//     delivers results identical to the materializing analyzeCorpus, in
//     strict function order, with release() leaving the mapping usable.
//  4. verifyImageFile: accepts a good file and rejects payload
//     corruption, truncation and missing files with clear diagnostics —
//     without ever mapping the whole image.
//  5. The StreamImageWriter contract: the pooled build calls the producer
//     once per chunk; interleaved and all-shapes-first drives write the
//     same bytes; chunks must end in index order; the image is published
//     by rename, so an abandoned build leaves no temp or spool file
//     behind and a rebuild never changes a live mapping.
//
//===----------------------------------------------------------------------===//

#include "pst/workload/CorpusStream.h"

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/image/CorpusImage.h"
#include "pst/runtime/BatchAnalyzer.h"
#include "pst/support/ThreadPool.h"
#include "pst/workload/Corpus.h"

#include "TestTempPath.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
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

/// Structural fingerprint of a CFG (labels, edge lists in id order,
/// entry/exit) — FNV-1a over everything the image stores.
uint64_t cfgFingerprint(const Cfg &G, const std::string &Name) {
  uint64_t H = image::fnv1aUpdate(image::Fnv1aBasis, Name.data(), Name.size());
  auto Mix = [&H](uint64_t V) { H = image::fnv1aUpdate(H, &V, sizeof(V)); };
  Mix(G.numNodes());
  Mix(G.numEdges());
  Mix(G.entry());
  Mix(G.exit());
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    const std::string &L = G.node(N).Label;
    H = image::fnv1aUpdate(H, L.data(), L.size());
    for (EdgeId E : G.succEdges(N)) {
      Mix(G.source(E));
      Mix(G.target(E));
    }
  }
  return H;
}

/// Fingerprints of every function of a stream corpus at one chunk size.
std::vector<uint64_t> streamFingerprints(const StreamCorpusOptions &Opts,
                                         size_t ChunkFunctions) {
  std::vector<uint64_t> Out;
  CorpusStream S(Opts, ChunkFunctions);
  CorpusChunk C;
  while (S.next(C)) {
    EXPECT_EQ(C.Begin, Out.size());
    for (size_t K = 0; K < C.size(); ++K)
      Out.push_back(cfgFingerprint(C.Graphs[K], C.Names[K]));
  }
  return Out;
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  EXPECT_TRUE(IS.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(IS),
                              std::istreambuf_iterator<char>());
}

/// Writes \p Bytes to \p Path: how the rejection tests plant a damaged
/// image (the image writer only ever publishes well-formed ones).
void writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(reinterpret_cast<const char *>(Bytes.data()),
           std::streamsize(Bytes.size()));
}

/// Paths in \p Path's directory that start with "<Path>.tmp." — the
/// writer's unpublished temp file and, while they have names, its spools.
std::vector<std::string> tempFilesOf(const std::string &Path) {
  namespace fs = std::filesystem;
  const fs::path P(Path);
  const std::string Prefix = P.filename().string() + ".tmp.";
  std::vector<std::string> Out;
  for (const fs::directory_entry &E : fs::directory_iterator(P.parent_path()))
    if (E.path().filename().string().rfind(Prefix, 0) == 0)
      Out.push_back(E.path().string());
  return Out;
}

/// Generated stream-corpus producer for \p Opts.
ChunkProducer streamProducer(const StreamCorpusOptions &Opts) {
  return [Opts](uint64_t Begin, uint64_t Count, std::vector<Cfg> &Graphs,
                std::vector<std::string> &Names) {
    Graphs.resize(Count);
    Names.resize(Count);
    for (uint64_t K = 0; K < Count; ++K)
      generateStreamFunction(Opts, Begin + K, Graphs[K], Names[K]);
  };
}

unsigned hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 2;
}

/// Every function of a stream corpus, materialized, for reference builds.
struct GeneratedCorpus {
  std::vector<Cfg> Graphs;
  std::vector<std::string> Names;
  std::vector<const Cfg *> Ptrs;

  explicit GeneratedCorpus(const StreamCorpusOptions &Opts)
      : Graphs(Opts.Count), Names(Opts.Count) {
    for (uint64_t I = 0; I < Opts.Count; ++I) {
      generateStreamFunction(Opts, I, Graphs[I], Names[I]);
      Ptrs.push_back(&Graphs[I]);
    }
  }
};

//===----------------------------------------------------------------------===//
// Producer determinism
//===----------------------------------------------------------------------===//

TEST(CorpusStream, ChunkObliviousAcrossChunkSizes) {
  StreamCorpusOptions Opts;
  Opts.Count = 64;
  // Isolated regeneration is the reference; every chunking must match it.
  std::vector<uint64_t> Ref;
  Cfg G;
  std::string Name;
  for (uint64_t I = 0; I < Opts.Count; ++I) {
    generateStreamFunction(Opts, I, G, Name);
    Ref.push_back(cfgFingerprint(G, Name));
  }
  for (size_t Chunk : {size_t(1), size_t(7), size_t(64), size_t(4096)})
    EXPECT_EQ(streamFingerprints(Opts, Chunk), Ref) << "chunk " << Chunk;
}

TEST(CorpusStream, ResetReplaysTheStreamExactly) {
  StreamCorpusOptions Opts;
  Opts.Count = 40;
  CorpusStream S(Opts, 9);
  CorpusChunk C;
  std::vector<uint64_t> First;
  while (S.next(C))
    for (size_t K = 0; K < C.size(); ++K)
      First.push_back(cfgFingerprint(C.Graphs[K], C.Names[K]));
  EXPECT_EQ(First.size(), Opts.Count);
  EXPECT_FALSE(S.next(C));
  S.reset();
  std::vector<uint64_t> Second;
  while (S.next(C))
    for (size_t K = 0; K < C.size(); ++K)
      Second.push_back(cfgFingerprint(C.Graphs[K], C.Names[K]));
  EXPECT_EQ(First, Second);
}

TEST(CorpusStream, SeedSelectsTheCorpus) {
  StreamCorpusOptions A, B;
  A.Count = B.Count = 16;
  B.Seed = A.Seed + 1;
  EXPECT_NE(streamFingerprints(A, 8), streamFingerprints(B, 8));
}

//===----------------------------------------------------------------------===//
// Streamed build vs in-memory build: byte identity
//===----------------------------------------------------------------------===//

/// Runs buildImageStream over \p Produce and expects the file to equal
/// \p Expected byte for byte.
void expectStreamBuildMatches(uint64_t NumFunctions,
                              const ChunkProducer &Produce, size_t Chunk,
                              unsigned Threads,
                              const std::vector<uint8_t> &Expected,
                              const char *What) {
  BatchOptions BO;
  BO.NumThreads = Threads;
  BatchAnalyzer A(BO);
  std::string Path =
      uniqueTempPath(std::string("stream_build_") + What + "_" +
                     std::to_string(Chunk) + "_" + std::to_string(Threads) +
                     ".img");
  std::string Error;
  ASSERT_TRUE(A.buildImageStream(NumFunctions, Produce, Chunk, Path, &Error))
      << What << ": " << Error;
  EXPECT_TRUE(verifyImageFile(Path, &Error)) << What << ": " << Error;
  std::vector<uint8_t> Got = readFileBytes(Path);
  std::remove(Path.c_str());
  ASSERT_EQ(Got.size(), Expected.size())
      << What << " chunk " << Chunk << " threads " << Threads;
  ASSERT_TRUE(Got == Expected)
      << What << " chunk " << Chunk << " threads " << Threads
      << ": streamed image diverges from in-memory build";
}

TEST(StreamImageBuild, ByteIdentityOnPaperCorpus) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<uint8_t> Expected = buildCorpusImage(H.Graphs, H.Names);
  ChunkProducer Produce = [&H](uint64_t Begin, uint64_t Count,
                               std::vector<Cfg> &Graphs,
                               std::vector<std::string> &Names) {
    Graphs.clear();
    Names.clear();
    for (uint64_t K = 0; K < Count; ++K) {
      Graphs.push_back(*H.Graphs[Begin + K]);
      Names.push_back(H.Names[Begin + K]);
    }
  };
  for (size_t Chunk : {size_t(1), size_t(7), size_t(1024)})
    for (unsigned Threads : {1u, hardwareThreads()})
      expectStreamBuildMatches(H.Graphs.size(), Produce, Chunk, Threads,
                               Expected, "paper");
}

TEST(StreamImageBuild, ByteIdentityOnGeneratedStreamCorpus) {
  // The generated corpus (same mix as the gen10k bench corpus), small
  // enough to materialize for the reference build.
  StreamCorpusOptions Opts;
  Opts.Count = 600;
  GeneratedCorpus C(Opts);
  std::vector<uint8_t> Expected = buildCorpusImage(C.Ptrs, C.Names);

  ChunkProducer Produce = streamProducer(Opts);
  for (size_t Chunk : {size_t(1), size_t(7), size_t(1024)})
    for (unsigned Threads : {1u, hardwareThreads()})
      expectStreamBuildMatches(Opts.Count, Produce, Chunk, Threads, Expected,
                               "gen");
}

TEST(StreamImageBuild, CorpusStreamIsTheCanonicalProducer) {
  // The pstool/bench wiring: CorpusStream::next as the chunk producer via
  // per-index regeneration must agree with the serial builder too.
  StreamCorpusOptions Opts;
  Opts.Count = 97; // Deliberately not a multiple of any chunk size.
  GeneratedCorpus C(Opts);
  std::vector<uint8_t> Expected = buildCorpusImage(C.Ptrs, C.Names);

  ChunkProducer Produce = streamProducer(Opts);
  expectStreamBuildMatches(Opts.Count, Produce, 16, 1, Expected, "canon");
}

//===----------------------------------------------------------------------===//
// Image-bytes golden: the length and FNV-1a of two images, recorded once.
// Every identity test above compares two drives of the same writer, which
// share the layout and copy code; this compares the bytes with a fixed
// record, so a change to that shared code cannot go unnoticed.
//===----------------------------------------------------------------------===//

TEST(ImageBytesGolden, PaperCorpusMemoryBuild) {
  CorpusHandles H(/*Seed=*/1994);
  std::vector<uint8_t> Bytes = buildCorpusImage(H.Graphs, H.Names);
  EXPECT_EQ(Bytes.size(), 822720u);
  EXPECT_EQ(image::fnv1a(Bytes.data(), Bytes.size()), 607782858261006052ull);
}

TEST(ImageBytesGolden, StreamCorpusFileBuildAtChunk7) {
  StreamCorpusOptions Opts;
  Opts.Count = 97;
  ChunkProducer Produce = streamProducer(Opts);
  BatchOptions BO;
  BO.NumThreads = 1;
  BatchAnalyzer A(BO);
  std::string Path = uniqueTempPath("golden_stream.img");
  std::string Error;
  ASSERT_TRUE(A.buildImageStream(Opts.Count, Produce, 7, Path, &Error))
      << Error;
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  std::remove(Path.c_str());
  EXPECT_EQ(Bytes.size(), 267896u);
  EXPECT_EQ(image::fnv1a(Bytes.data(), Bytes.size()), 9414636478528051335ull);
}

//===----------------------------------------------------------------------===//
// Streamed mapped analysis
//===----------------------------------------------------------------------===//

TEST(StreamAnalysis, SinkSeesMaterializedResultsInOrder) {
  CorpusHandles H(/*Seed=*/1994);
  BatchAnalyzer A;
  std::string Path = uniqueTempPath("stream_analysis.img");
  std::string Error;
  ASSERT_TRUE(buildCorpusImage(Path, H.Graphs, H.Names, &Error)) << Error;
  CorpusImage Img = CorpusImage::map(Path, &Error);
  ASSERT_TRUE(Img.valid()) << Error;

  std::vector<FunctionAnalysis> Ref = A.analyzeCorpus(Img);
  ASSERT_EQ(Ref.size(), H.Graphs.size());

  uint64_t NextExpected = 0;
  // A window far smaller than the corpus, so the release()-between-windows
  // path runs many times.
  A.analyzeCorpusStream(
      Img,
      [&](uint64_t Index, const FunctionAnalysis &FA) {
        ASSERT_EQ(Index, NextExpected) << "sink must run in function order";
        ++NextExpected;
        const FunctionAnalysis &R = Ref[Index];
        EXPECT_EQ(FA.Pst.numRegions(), R.Pst.numRegions()) << H.Names[Index];
        ASSERT_EQ(FA.Pst.regionTable().size(), R.Pst.regionTable().size());
        EXPECT_EQ(0, std::memcmp(FA.Pst.regionTable().data(),
                                 R.Pst.regionTable().data(),
                                 R.Pst.regionTable().size_bytes()))
            << H.Names[Index];
        EXPECT_EQ(FA.ControlRegions.NumClasses, R.ControlRegions.NumClasses)
            << H.Names[Index];
        EXPECT_EQ(FA.ControlRegions.NodeClass, R.ControlRegions.NodeClass)
            << H.Names[Index];
      },
      /*WindowFunctions=*/17);
  EXPECT_EQ(NextExpected, H.Graphs.size());

  // The mapping survives the interleaved release() calls: pages fault
  // straight back in from the file.
  EXPECT_TRUE(Img.verify(&Error)) << Error;
  Img.release();
  EXPECT_EQ(Img.functionName(0), H.Names[0]);
  std::remove(Path.c_str());
}

TEST(StreamAnalysis, HonorsComputeControlRegionsOff) {
  CorpusHandles H(/*Seed=*/1994);
  BatchOptions BO;
  BO.ComputeControlRegions = false;
  BatchAnalyzer A(BO);
  std::vector<uint8_t> Bytes = buildCorpusImage(H.Graphs, H.Names);
  CorpusImage Img = CorpusImage::fromBytes(Bytes);
  ASSERT_TRUE(Img.valid());
  uint64_t Seen = 0;
  A.analyzeCorpusStream(
      Img,
      [&](uint64_t, const FunctionAnalysis &FA) {
        ++Seen;
        EXPECT_EQ(FA.ControlRegions.NumClasses, 0u);
        EXPECT_TRUE(FA.ControlRegions.NodeClass.empty());
      },
      /*WindowFunctions=*/64);
  EXPECT_EQ(Seen, H.Graphs.size());
}

//===----------------------------------------------------------------------===//
// verifyImageFile
//===----------------------------------------------------------------------===//

/// Stream-builds a small generated image at \p Path.
void buildSmallImageFile(const std::string &Path) {
  StreamCorpusOptions Opts;
  Opts.Count = 32;
  ChunkProducer Produce = streamProducer(Opts);
  BatchAnalyzer A;
  std::string Error;
  ASSERT_TRUE(A.buildImageStream(Opts.Count, Produce, 8, Path, &Error))
      << Error;
}

TEST(VerifyImageFile, AcceptsAFreshStreamBuild) {
  std::string Path = uniqueTempPath("verify_good.img");
  buildSmallImageFile(Path);
  std::string Error;
  EXPECT_TRUE(verifyImageFile(Path, &Error)) << Error;
  // And the verified file maps and verifies through the mmap path too.
  CorpusImage Img = CorpusImage::map(Path, &Error);
  ASSERT_TRUE(Img.valid()) << Error;
  EXPECT_TRUE(Img.verify(&Error)) << Error;
  std::remove(Path.c_str());
}

TEST(VerifyImageFile, RejectsPayloadCorruption) {
  std::string Path = uniqueTempPath("verify_corrupt.img");
  buildSmallImageFile(Path);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  ASSERT_GT(Bytes.size(), 1024u);
  // Flip one byte deep in the payload (past header + section table).
  Bytes[Bytes.size() / 2] ^= 0x5a;
  writeFileBytes(Path, Bytes);
  std::string Error;
  EXPECT_FALSE(verifyImageFile(Path, &Error));
  EXPECT_NE(Error.find("checksum"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

TEST(VerifyImageFile, RejectsTruncation) {
  std::string Path = uniqueTempPath("verify_trunc.img");
  buildSmallImageFile(Path);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  Bytes.resize(Bytes.size() - 64);
  writeFileBytes(Path, Bytes);
  std::string Error;
  EXPECT_FALSE(verifyImageFile(Path, &Error));
  EXPECT_FALSE(Error.empty());
  std::remove(Path.c_str());
}

TEST(VerifyImageFile, RejectsMissingFile) {
  std::string Error;
  EXPECT_FALSE(verifyImageFile(uniqueTempPath("no_such_image.img"), &Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// StreamImageWriter contract checks
//===----------------------------------------------------------------------===//

TEST(StreamImageWriter, RefusesFillBeforeAllShapes) {
  std::string Path = uniqueTempPath("writer_contract.img");
  {
    StreamImageWriter W(Path, /*NumFunctions=*/4);
    ASSERT_TRUE(W.valid());
    Cfg G;
    std::string Name;
    StreamCorpusOptions Opts;
    generateStreamFunction(Opts, 0, G, Name);
    ProgramStructureTree T = ProgramStructureTree::build(G);
    W.addShape(G, T, Name);
    std::string Error;
    EXPECT_FALSE(W.beginFill(&Error)); // Only 1 of 4 shapes recorded.
    EXPECT_FALSE(Error.empty());
    // A chunk may not open past the added shapes either.
    StreamImageWriter::ChunkScratch CS;
    Error.clear();
    EXPECT_FALSE(W.beginChunk(CS, 0, 2, &Error));
    EXPECT_NE(Error.find("before its shapes were added"), std::string::npos)
        << Error;
    // Unfinished: the build lives in one temp file; Path is untouched.
    EXPECT_EQ(tempFilesOf(Path).size(), 1u);
    EXPECT_FALSE(std::filesystem::exists(Path));
  }
  // The abandoned writer leaves neither the image nor its temp file.
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_TRUE(tempFilesOf(Path).empty());
}

TEST(StreamImageWriter, ProducerRunsOncePerChunk) {
  // One pass: the pooled build asks for each chunk once, in order, and
  // never rewinds.
  StreamCorpusOptions Opts;
  Opts.Count = 97;
  ChunkProducer Inner = streamProducer(Opts);
  std::vector<std::pair<uint64_t, uint64_t>> Calls;
  ChunkProducer Counting = [&](uint64_t Begin, uint64_t Count,
                               std::vector<Cfg> &Graphs,
                               std::vector<std::string> &Names) {
    Calls.emplace_back(Begin, Count);
    Inner(Begin, Count, Graphs, Names);
  };
  for (unsigned Threads : {1u, hardwareThreads()}) {
    Calls.clear();
    BatchOptions BO;
    BO.NumThreads = Threads;
    BatchAnalyzer A(BO);
    std::string Path = uniqueTempPath("producer_once.img");
    std::string Error;
    ASSERT_TRUE(A.buildImageStream(Opts.Count, Counting, 16, Path, &Error))
        << Error;
    std::remove(Path.c_str());
    uint64_t Total = 0;
    for (size_t K = 0; K < Calls.size(); ++K) {
      if (K > 0) {
        EXPECT_GT(Calls[K].first, Calls[K - 1].first) << "call " << K;
      }
      Total += Calls[K].second;
    }
    EXPECT_EQ(Total, Opts.Count) << Threads << " threads";
  }
}

/// Drives \p W over \p C in chunks of \p Chunk, filling each chunk's
/// functions concurrently across \p Pool. With \p ShapesFirst every shape
/// is added (and checked by beginFill) before the first chunk opens;
/// otherwise each chunk's shapes are added right before it, the order
/// buildImageStream uses.
bool driveWriter(StreamImageWriter &W, const GeneratedCorpus &C, size_t Chunk,
                 ThreadPool &Pool, bool ShapesFirst, std::string *Error) {
  const uint64_t N = C.Graphs.size();
  auto AddShapes = [&](uint64_t Begin, uint64_t End) {
    for (uint64_t I = Begin; I < End; ++I)
      if (!W.addShape(C.Graphs[I], ProgramStructureTree::build(C.Graphs[I]),
                      C.Names[I], Error))
        return false;
    return true;
  };
  if (ShapesFirst && (!AddShapes(0, N) || !W.beginFill(Error)))
    return false;
  StreamImageWriter::ChunkScratch CS;
  for (uint64_t Begin = 0; Begin < N; Begin += Chunk) {
    const uint64_t End = std::min<uint64_t>(N, Begin + Chunk);
    if (!ShapesFirst && !AddShapes(Begin, End))
      return false;
    if (!W.beginChunk(CS, Begin, End - Begin, Error))
      return false;
    Pool.run(End - Begin, 1, [&](size_t CB, size_t CE, unsigned) {
      CfgViewScratch VS;
      for (size_t K = CB; K < CE; ++K) {
        const Cfg &G = C.Graphs[Begin + K];
        CfgView V = CfgView::build(G, VS);
        W.fill(CS, Begin + K, G, V, ProgramStructureTree::build(G),
               C.Names[Begin + K]);
      }
    });
    if (!W.endChunk(CS, Error))
      return false;
  }
  return W.finish(Error);
}

TEST(StreamImageWriter, InterleavedAndShapesFirstOrdersWriteTheSameBytes) {
  StreamCorpusOptions Opts;
  Opts.Count = 300;
  GeneratedCorpus C(Opts);
  const std::vector<uint8_t> Expected = buildCorpusImage(C.Ptrs, C.Names);
  const std::string Path = uniqueTempPath("writer_orders.img");
  for (size_t Chunk : {size_t(1), size_t(7), size_t(1024)})
    for (unsigned Threads : {1u, hardwareThreads()})
      for (bool ShapesFirst : {false, true}) {
        ThreadPool Pool(Threads);
        const std::string What = "chunk " + std::to_string(Chunk) +
                                 ", threads " + std::to_string(Threads) +
                                 (ShapesFirst ? ", shapes first"
                                              : ", interleaved");
        std::string Error;
        StreamImageWriter Mem(Opts.Count);
        ASSERT_TRUE(driveWriter(Mem, C, Chunk, Pool, ShapesFirst, &Error))
            << What << ": " << Error;
        EXPECT_TRUE(Mem.takeBytes() == Expected) << What << ", memory";
        StreamImageWriter File(Path, Opts.Count);
        ASSERT_TRUE(driveWriter(File, C, Chunk, Pool, ShapesFirst, &Error))
            << What << ": " << Error;
        EXPECT_TRUE(readFileBytes(Path) == Expected) << What << ", file";
      }
  std::remove(Path.c_str());
}

TEST(StreamImageWriter, OutOfOrderEndChunkFails) {
  StreamCorpusOptions Opts;
  Opts.Count = 4;
  GeneratedCorpus C(Opts);
  StreamImageWriter W(Opts.Count);
  std::string Error;
  for (uint64_t I = 0; I < Opts.Count; ++I)
    ASSERT_TRUE(W.addShape(C.Graphs[I],
                           ProgramStructureTree::build(C.Graphs[I]),
                           C.Names[I], &Error))
        << Error;
  // Chunk [2, 4) is complete, but [0, 2) has not ended: the section
  // checksums chain only in index order, so the writer refuses it.
  StreamImageWriter::ChunkScratch CS;
  ASSERT_TRUE(W.beginChunk(CS, 2, 2, &Error)) << Error;
  CfgViewScratch VS;
  for (uint64_t I = 2; I < 4; ++I) {
    CfgView V = CfgView::build(C.Graphs[I], VS);
    W.fill(CS, I, C.Graphs[I], V, ProgramStructureTree::build(C.Graphs[I]),
           C.Names[I]);
  }
  EXPECT_FALSE(W.endChunk(CS, &Error));
  EXPECT_NE(Error.find("ended out of order"), std::string::npos) << Error;
  EXPECT_NE(Error.find("starts at function 0"), std::string::npos) << Error;
  // Nor can the writer finish with chunks missing.
  Error.clear();
  EXPECT_FALSE(W.finish(&Error));
  EXPECT_FALSE(Error.empty());
}

TEST(StreamImageWriter, AbandonedAfterSomeChunksLeavesNoFiles) {
  // Destroyed after 2 of 5 chunks: the spools were unlinked when they were
  // created and the temp file goes with the writer, so the directory holds
  // nothing of the build, during it or after.
  namespace fs = std::filesystem;
  const fs::path Dir = uniqueTempPath("abandoned_build_dir");
  fs::remove_all(Dir);
  fs::create_directory(Dir);
  const std::string Path = (Dir / "abandoned.img").string();
  StreamCorpusOptions Opts;
  Opts.Count = 50;
  GeneratedCorpus C(Opts);
  {
    StreamImageWriter W(Path, Opts.Count);
    ASSERT_TRUE(W.valid());
    std::string Error;
    StreamImageWriter::ChunkScratch CS;
    CfgViewScratch VS;
    for (uint64_t Begin = 0; Begin < 20; Begin += 10) {
      for (uint64_t I = Begin; I < Begin + 10; ++I)
        ASSERT_TRUE(W.addShape(C.Graphs[I],
                               ProgramStructureTree::build(C.Graphs[I]),
                               C.Names[I], &Error))
            << Error;
      ASSERT_TRUE(W.beginChunk(CS, Begin, 10, &Error)) << Error;
      for (uint64_t I = Begin; I < Begin + 10; ++I) {
        CfgView V = CfgView::build(C.Graphs[I], VS);
        W.fill(CS, I, C.Graphs[I], V,
               ProgramStructureTree::build(C.Graphs[I]), C.Names[I]);
      }
      ASSERT_TRUE(W.endChunk(CS, &Error)) << Error;
    }
    std::vector<std::string> During;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      During.push_back(E.path().filename().string());
    ASSERT_EQ(During.size(), 1u);
    EXPECT_EQ(During[0].rfind("abandoned.img.tmp.", 0), 0u) << During[0];
  }
  EXPECT_TRUE(fs::is_empty(Dir));
  fs::remove_all(Dir);
}

TEST(StreamImageWriter, RebuildDoesNotDisturbALiveMapping) {
  // Map an image, then rebuild the same path from another seed while the
  // mapping is live. The rebuild publishes a new file by rename, so the
  // old mapping keeps reading the old bytes; an in-place rewrite would
  // change them under it, or SIGBUS on pages past the new end.
  std::string Path = uniqueTempPath("live_mapping.img");
  StreamCorpusOptions Old;
  Old.Count = 400;
  BatchAnalyzer A;
  std::string Error;
  ASSERT_TRUE(
      A.buildImageStream(Old.Count, streamProducer(Old), 64, Path, &Error))
      << Error;
  CorpusImage Img = CorpusImage::map(Path, &Error);
  ASSERT_TRUE(Img.valid()) << Error;
  const uint32_t Edges5 = Img.cfg(5).numEdges();
  const uint8_t LastByte = Img.rawBytes().back();
  const std::vector<uint8_t> Before(Img.rawBytes().begin(),
                                    Img.rawBytes().end());

  StreamCorpusOptions New;
  New.Count = 200;
  New.Seed = Old.Seed + 1;
  ASSERT_TRUE(
      A.buildImageStream(New.Count, streamProducer(New), 64, Path, &Error))
      << Error;
  EXPECT_TRUE(tempFilesOf(Path).empty());

  EXPECT_EQ(Img.numFunctions(), Old.Count);
  EXPECT_EQ(Img.cfg(5).numEdges(), Edges5);
  EXPECT_TRUE(Img.verify(&Error)) << Error;
  EXPECT_EQ(Img.rawBytes().back(), LastByte);
  EXPECT_TRUE(std::ranges::equal(Img.rawBytes(), Before));

  // A fresh map sees the rebuilt image.
  CorpusImage Fresh = CorpusImage::map(Path, &Error);
  ASSERT_TRUE(Fresh.valid()) << Error;
  EXPECT_EQ(Fresh.numFunctions(), New.Count);
  std::remove(Path.c_str());
}

} // namespace
