//===- pst/runtime/BatchAnalyzer.h - Parallel corpus analysis ---*- C++ -*-===//
//
// Part of the PST library: a reproduction of Johnson, Pearson & Pingali,
// "The Program Structure Tree: Computing Control Regions in Linear Time",
// PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch analysis engine: runs the per-function pipeline (cycle
/// equivalence -> PST -> control regions, Theorems 3, 7 and 8) over a
/// whole corpus, fanned out across a thread pool.
///
/// Functions are independent, so corpus throughput is embarrassingly
/// parallel; what the engine adds over a bare loop is (a) one reusable
/// \c PstScratch per worker, making each steady-state analysis free of
/// transient allocations, (b) chunked dynamic scheduling over the
/// (size-skewed) corpus, and (c) a determinism contract: results are
/// written to slot I for input I, and every analysis is a pure function of
/// its input CFG, so the output is byte-identical regardless of thread
/// count, chunk size, or what the worker's scratch held before.
///
//===----------------------------------------------------------------------===//

#ifndef PST_RUNTIME_BATCHANALYZER_H
#define PST_RUNTIME_BATCHANALYZER_H

#include "pst/cdg/ControlRegions.h"
#include "pst/core/ProgramStructureTree.h"
#include "pst/image/CorpusImage.h"
#include "pst/runtime/PstScratch.h"
#include "pst/support/ThreadPool.h"

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace pst {

/// Configuration for a BatchAnalyzer.
struct BatchOptions {
  /// Worker threads (including the calling thread); 0 = hardware
  /// concurrency.
  unsigned NumThreads = 0;
  /// Functions per scheduling chunk. Small enough to balance the paper
  /// corpus's size skew across workers, large enough that the atomic
  /// cursor is off the hot path.
  size_t ChunkSize = 16;
  /// Also compute the control-region partition (Theorems 7-8) per
  /// function.
  bool ComputeControlRegions = true;
};

/// Everything the pipeline derives from one function.
struct FunctionAnalysis {
  ProgramStructureTree Pst;
  /// Empty (NumClasses 0) when BatchOptions::ComputeControlRegions is off.
  ControlRegionsResult ControlRegions;
};

/// Runs one function through the full pipeline using \p Scratch. This is
/// exactly what the batch engine runs per item; exposed so callers with
/// their own loop (or their own pool) get the same allocation-free path.
FunctionAnalysis analyzeFunction(const Cfg &G, PstScratch &Scratch,
                                 bool ComputeControlRegions = true);

/// Produces chunk [Begin, Begin+Count) of a corpus into the caller's
/// (reused) vectors: Graphs[K] / Names[K] hold function Begin + K. The
/// streaming build calls the producer once per chunk, on the calling
/// thread, over consecutive ranges in index order, so a producer may read
/// its source sequentially. \c CorpusStream::next is the canonical
/// implementation.
using ChunkProducer =
    std::function<void(uint64_t Begin, uint64_t Count, std::vector<Cfg> &Graphs,
                       std::vector<std::string> &Names)>;

/// Receives one finished analysis during a streamed corpus pass. Called on
/// the calling thread, strictly in function order (workers analyze a
/// window in parallel, then the window drains through the sink serially);
/// \p A is scratch owned by the engine and is recycled after the call —
/// copy out what you keep.
using AnalysisSink =
    std::function<void(uint64_t Index, const FunctionAnalysis &A)>;

/// The batch engine. Owns a thread pool and one PstScratch per worker;
/// reuse one analyzer across corpora to keep both warm.
class BatchAnalyzer {
public:
  explicit BatchAnalyzer(BatchOptions Opts = {});

  /// Analyzes every CFG, returning results in input order. Deterministic:
  /// output[I] depends only on Fns[I]. Throws whatever a per-function
  /// analysis threw first (remaining work is abandoned).
  std::vector<FunctionAnalysis> analyzeCorpus(std::span<const Cfg> Fns);

  /// As above for non-contiguous corpora (e.g. CFGs embedded in corpus
  /// records); null pointers are not allowed.
  std::vector<FunctionAnalysis>
  analyzeCorpus(std::span<const Cfg *const> Fns);

  /// Analyzes every function of a mapped corpus image. The PSTs come
  /// straight off the image (zero parse, zero build — each result's \c Pst
  /// adopts the mapped arrays, so results are valid only while \p Img
  /// lives); only the control-region partition, which the image does not
  /// store, is recomputed, over the image's zero-copy CSR views. Output is
  /// byte-identical to running \c analyzeCorpus on the CFGs the image was
  /// built from.
  std::vector<FunctionAnalysis> analyzeCorpus(const CorpusImage &Img);

  /// Builds the image of a corpus that never exists in memory, in
  /// parallel, through the \c StreamImageWriter file destination, in one
  /// pass. \p Produce is invoked once per consecutive
  /// [Begin, Begin+ChunkFunctions) range; the pool builds each function's
  /// view and PST once, the chunk's shapes go to the writer in order, and
  /// the pool then fills the chunk from the kept trees. Peak RSS is
  /// proportional to \p ChunkFunctions, never to \p NumFunctions, and the
  /// file is byte-identical to \c buildCorpusImage over the same functions
  /// at every chunk size and thread count. \p Path is replaced by rename
  /// only once the image is complete; until then the build needs about
  /// twice the image's bytes free beside it. Returns false with a
  /// diagnostic on I/O failure.
  bool buildImageStream(uint64_t NumFunctions, const ChunkProducer &Produce,
                        size_t ChunkFunctions, const std::string &Path,
                        std::string *Error = nullptr);

  /// Streaming twin of \c analyzeCorpus(const CorpusImage&): visits the
  /// image's functions in windows of \p WindowFunctions, analyzing each
  /// window in parallel into per-slot scratch results, then draining it
  /// through \p Sink in function order. Between windows the image's
  /// resident pages are dropped (\c CorpusImage::release), so a pass over
  /// a multi-gigabyte image holds roughly one window of pages plus one
  /// window of results — the sink replaces the giant result vector.
  /// Analysis results are identical to the materializing overload.
  void analyzeCorpusStream(const CorpusImage &Img, const AnalysisSink &Sink,
                           size_t WindowFunctions = 4096);

  unsigned numWorkers() const { return Pool.numWorkers(); }
  const BatchOptions &options() const { return Opts; }

private:
  BatchOptions Opts;
  ThreadPool Pool;
  std::vector<PstScratch> Scratches; // One per worker, indexed by worker id.
};

} // namespace pst

#endif // PST_RUNTIME_BATCHANALYZER_H
