//===- BatchAnalyzer.cpp - Parallel corpus analysis ----------------------------===//
//
// Part of the PST library (see BatchAnalyzer.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "pst/runtime/BatchAnalyzer.h"

#include "pst/obs/ScopedTimer.h"

using namespace pst;

FunctionAnalysis pst::analyzeFunction(const Cfg &G, PstScratch &Scratch,
                                      bool ComputeControlRegions) {
  // Freeze the adjacency once (two counting passes into the scratch CSR);
  // both pipeline stages run on the shared view and never consult G again.
  CfgView V = CfgView::build(G, Scratch.View);
  FunctionAnalysis Out;
  Out.Pst = ProgramStructureTree::build(V, Scratch.PstBuild);
  if (ComputeControlRegions)
    Out.ControlRegions =
        computeControlRegionsLinearImplicit(V, Scratch.CtrlRegions);
  return Out;
}

BatchAnalyzer::BatchAnalyzer(BatchOptions Opts)
    : Opts(Opts), Pool(Opts.NumThreads) {
  Scratches.resize(Pool.numWorkers());
}

std::vector<FunctionAnalysis>
BatchAnalyzer::analyzeCorpus(std::span<const Cfg> Fns) {
  PST_SPAN("batch.corpus");
  PST_COUNTER("batch.corpora", 1);
  PST_COUNTER("batch.functions", Fns.size());
  std::vector<FunctionAnalysis> Out(Fns.size());
  Pool.run(Fns.size(), Opts.ChunkSize,
           [&](size_t Begin, size_t End, unsigned Worker) {
             // One span per claimed chunk: in a trace, every worker's track
             // shows the chunks it won off the shared cursor.
             PST_SPAN("batch.chunk");
             PST_COUNTER("batch.chunks", 1);
             PST_VALUE("batch.chunk_functions", End - Begin);
             PstScratch &S = Scratches[Worker];
             for (size_t I = Begin; I < End; ++I)
               Out[I] = analyzeFunction(Fns[I], S,
                                        Opts.ComputeControlRegions);
           });
  return Out;
}

std::vector<FunctionAnalysis>
BatchAnalyzer::analyzeCorpus(const CorpusImage &Img) {
  PST_SPAN("batch.corpus");
  PST_COUNTER("batch.corpora", 1);
  PST_COUNTER("batch.functions", Img.numFunctions());
  std::vector<FunctionAnalysis> Out(Img.numFunctions());
  Pool.run(Out.size(), Opts.ChunkSize,
           [&](size_t Begin, size_t End, unsigned Worker) {
             PST_SPAN("batch.chunk");
             PST_COUNTER("batch.chunks", 1);
             PST_VALUE("batch.chunk_functions", End - Begin);
             PstScratch &S = Scratches[Worker];
             for (size_t I = Begin; I < End; ++I) {
               Out[I].Pst = Img.pst(I);
               if (Opts.ComputeControlRegions)
                 Out[I].ControlRegions = computeControlRegionsLinearImplicit(
                     Img.cfg(I), S.CtrlRegions);
             }
           });
  return Out;
}

bool BatchAnalyzer::buildImageStream(uint64_t NumFunctions,
                                     const ChunkProducer &Produce,
                                     size_t ChunkFunctions,
                                     const std::string &Path,
                                     std::string *Error) {
  PST_SPAN("image.stream.build");
  if (ChunkFunctions == 0)
    ChunkFunctions = 1;
  StreamImageWriter W(Path, NumFunctions);
  if (!W.valid())
    return W.finish(Error); // Fails with the writer's open diagnostic.

  // Chunk storage is reused across the whole build: the high-water memory
  // mark is one chunk of graphs, names, trees and staging buffers.
  std::vector<Cfg> Graphs;
  std::vector<std::string> Names;
  std::vector<ProgramStructureTree> Trees;
  std::vector<image::FunctionShape> Shapes;
  StreamImageWriter::ChunkScratch CS;
  for (uint64_t Begin = 0; Begin < NumFunctions; Begin += ChunkFunctions) {
    const uint64_t Count =
        std::min<uint64_t>(ChunkFunctions, NumFunctions - Begin);
    Produce(Begin, Count, Graphs, Names);
    assert(Graphs.size() == Count && Names.size() == Count &&
           "producer yielded the wrong chunk size");
    // The per-function pipeline (view + PST) fans out across the pool; the
    // trees are kept for the fill below, so each is built once.
    Trees.resize(Count);
    Shapes.resize(Count);
    Pool.run(Count, Opts.ChunkSize,
             [&](size_t CB, size_t CE, unsigned Worker) {
               PstScratch &S = Scratches[Worker];
               for (size_t I = CB; I < CE; ++I) {
                 CfgView V = CfgView::build(Graphs[I], S.View);
                 Trees[I] = ProgramStructureTree::build(V, S.PstBuild);
                 Shapes[I] = image::functionShape(Graphs[I], Trees[I], Names[I]);
               }
             });
    // The writer's layout cursor consumes the shapes serially, in order.
    for (const image::FunctionShape &S : Shapes)
      if (!W.addShape(S, Error))
        return false;
    // Distinct functions of the chunk fill their disjoint slices
    // concurrently; only the view is rebuilt.
    if (!W.beginChunk(CS, Begin, Count, Error))
      return false;
    Pool.run(Count, Opts.ChunkSize,
             [&](size_t CB, size_t CE, unsigned Worker) {
               PstScratch &S = Scratches[Worker];
               for (size_t I = CB; I < CE; ++I) {
                 CfgView V = CfgView::build(Graphs[I], S.View);
                 W.fill(CS, Begin + I, Graphs[I], V, Trees[I], Names[I]);
               }
             });
    if (!W.endChunk(CS, Error))
      return false;
  }
  return W.finish(Error);
}

void BatchAnalyzer::analyzeCorpusStream(const CorpusImage &Img,
                                        const AnalysisSink &Sink,
                                        size_t WindowFunctions) {
  PST_SPAN("batch.corpus.stream");
  PST_COUNTER("batch.stream.corpora", 1);
  PST_COUNTER("batch.stream.functions", Img.numFunctions());
  if (WindowFunctions == 0)
    WindowFunctions = 1;
  const uint64_t N = Img.numFunctions();
  // Window slots are reused: the high-water mark is one window of results,
  // not a corpus-sized vector.
  std::vector<FunctionAnalysis> Window(
      size_t(std::min<uint64_t>(WindowFunctions, N)));
  for (uint64_t Begin = 0; Begin < N; Begin += WindowFunctions) {
    const uint64_t Count = std::min<uint64_t>(WindowFunctions, N - Begin);
    Pool.run(Count, Opts.ChunkSize,
             [&](size_t CB, size_t CE, unsigned Worker) {
               PST_SPAN("batch.chunk");
               PST_COUNTER("batch.stream.chunks", 1);
               PstScratch &S = Scratches[Worker];
               for (size_t I = CB; I < CE; ++I) {
                 FunctionAnalysis &A = Window[I];
                 A.Pst = Img.pst(Begin + I);
                 if (Opts.ComputeControlRegions)
                   A.ControlRegions = computeControlRegionsLinearImplicit(
                       Img.cfg(Begin + I), S.CtrlRegions);
                 else
                   A.ControlRegions = ControlRegionsResult();
               }
             });
    for (uint64_t I = 0; I < Count; ++I)
      Sink(Begin + I, Window[I]);
    // Drop the window's mapped pages so a full pass stays at ~one window
    // of resident image bytes.
    Img.release();
  }
}

std::vector<FunctionAnalysis>
BatchAnalyzer::analyzeCorpus(std::span<const Cfg *const> Fns) {
  PST_SPAN("batch.corpus");
  PST_COUNTER("batch.corpora", 1);
  PST_COUNTER("batch.functions", Fns.size());
  std::vector<FunctionAnalysis> Out(Fns.size());
  Pool.run(Fns.size(), Opts.ChunkSize,
           [&](size_t Begin, size_t End, unsigned Worker) {
             PST_SPAN("batch.chunk");
             PST_COUNTER("batch.chunks", 1);
             PST_VALUE("batch.chunk_functions", End - Begin);
             PstScratch &S = Scratches[Worker];
             for (size_t I = Begin; I < End; ++I)
               Out[I] = analyzeFunction(*Fns[I], S,
                                        Opts.ComputeControlRegions);
           });
  return Out;
}
