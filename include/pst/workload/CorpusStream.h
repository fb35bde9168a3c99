//===- pst/workload/CorpusStream.h - Streaming corpus producer --*- C++ -*-===//
//
// Part of the PST library (see CfgGenerators.h for the project reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded-memory corpus producer: yields (name, Cfg) chunks from the
/// seeded structural generators instead of materializing the whole corpus.
///
/// Every function of the stream is a pure function of (Seed, Index): its
/// RNG stream is derived from the function's textual identity via the same
/// FNV-1a/SplitMix64 reseeding the paper corpus uses (\c
/// deriveProcedureSeed), never from sequential draws off a shared
/// generator. That makes the stream *re-entrant and chunk-oblivious*:
/// generating function I alone, in a chunk of 7, or in a chunk of 4096
/// produces the same graph byte for byte, so an image built at any chunk
/// size holds the same functions, and a second pass over the stream (a
/// test's reference build, say) replays the first exactly. Peak memory is
/// one chunk of functions, regardless of \c Count — the property the
/// million-function pipeline is built on.
///
/// The size/shape mix follows the benches' generated corpus: mostly small
/// random backbone graphs, salted with diamond ladders, loop nests,
/// repeat-until nests (the dominance-frontier worst case) and irreducible
/// meshes.
///
//===----------------------------------------------------------------------===//

#ifndef PST_WORKLOAD_CORPUSSTREAM_H
#define PST_WORKLOAD_CORPUSSTREAM_H

#include "pst/graph/Cfg.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pst {

/// Knobs for the streamed generated corpus.
struct StreamCorpusOptions {
  /// Corpus identity: same seed, same corpus, at any chunk size.
  uint64_t Seed = 0x57a3e;
  /// Number of functions the stream yields.
  uint64_t Count = 0;
};

/// Regenerates function \p Index of the stream corpus in isolation —
/// deterministic in (Opts.Seed, Index) only. \p G and \p Name are
/// overwritten (their capacity is reused). The chunked \c CorpusStream
/// below calls exactly this per function, which is what makes streamed
/// output independent of chunking.
void generateStreamFunction(const StreamCorpusOptions &Opts, uint64_t Index,
                            Cfg &G, std::string &Name);

/// One chunk of a streamed corpus. Graphs[K] is function Begin + K;
/// Names parallels Graphs. Storage is reused across next() calls.
struct CorpusChunk {
  uint64_t Begin = 0;
  std::vector<Cfg> Graphs;
  std::vector<std::string> Names;

  size_t size() const { return Graphs.size(); }
};

/// Pull-based chunked producer over the stream corpus: each next() fills
/// the caller's chunk with the next ChunkFunctions functions (fewer at the
/// tail) and advances. reset() rewinds to function 0 for a second pass.
class CorpusStream {
public:
  CorpusStream(StreamCorpusOptions Opts, size_t ChunkFunctions)
      : Opts(Opts), ChunkFns(ChunkFunctions ? ChunkFunctions : 1) {}

  /// Fills \p C with the next chunk; returns false (leaving \p C empty)
  /// once the stream is exhausted.
  bool next(CorpusChunk &C);

  /// Rewinds to the start of the stream. The replay is byte-identical to
  /// the first pass (each function is regenerated from its own seed).
  void reset() { Next = 0; }

  uint64_t count() const { return Opts.Count; }
  size_t chunkFunctions() const { return ChunkFns; }
  const StreamCorpusOptions &options() const { return Opts; }

private:
  StreamCorpusOptions Opts;
  size_t ChunkFns;
  uint64_t Next = 0;
};

} // namespace pst

#endif // PST_WORKLOAD_CORPUSSTREAM_H
