//===- collect/Collector.cpp - Multi-stream fleet ingestion -------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "collect/Collector.h"

#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "instr/SymbolTable.h"
#include "obs/Obs.h"
#include "obs/TraceLog.h"
#include "trace/CallStacks.h"
#include "trace/TraceStream.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

using namespace isp;
using namespace isp::collect;

namespace {

std::string fileLabel(const std::string &Path) {
  return std::filesystem::path(Path).stem().string();
}

std::string fileName(const std::string &Path) {
  return std::filesystem::path(Path).filename().string();
}

/// Forwarding state of a routine-filtered ingest: the Calls forwarded
/// to the profiler per thread, and how many filtered activations are
/// open among them.
struct ForwardedCalls {
  CallStacks Stacks;
  uint64_t InFlight = 0;
  /// Mask bits of the filtered routines (bit `Id & 63`) and their ids.
  uint64_t FilterMask = 0;
  std::set<uint64_t> MatchedIds;

  bool matches(uint64_t Rtn) const {
    return ((FilterMask >> (Rtn & 63)) & 1) != 0 && MatchedIds.count(Rtn);
  }

  /// Tracks the Calls and Returns of a decoded chunk and drops, in
  /// place, the words of every Return that closes no forwarded Call: the
  /// frames a skipped chunk opened. A dropped Return's block count goes
  /// with it (see ingestOne). Returns the number of Returns dropped.
  size_t forward(std::vector<Event> &Words) {
    Event *W = Words.data();
    const size_t N = Words.size();
    size_t Kept = 0, Dropped = 0;
    for (size_t I = 0; I != N;) {
      const Event &M = W[I];
      size_t Len = M.hasFollow() && I + 1 != N ? 2 : 1;
      bool Keep = true;
      if (M.kind() == EventKind::Call) {
        Stacks.call(M.Tid, M.Arg);
        if (matches(M.Arg))
          InFlight += 1;
      } else if (M.kind() == EventKind::Return) {
        if (!Stacks.popMatching(M.Tid, M.Arg)) {
          Keep = false;
          Dropped += 1;
        } else if (matches(M.Arg) && InFlight > 0) {
          InFlight -= 1;
        }
      }
      if (Keep) {
        if (Kept != I)
          std::copy(W + I, W + I + Len, W + Kept);
        Kept += Len;
      }
      I += Len;
    }
    Words.resize(Kept);
    return Dropped;
  }
};

} // namespace

bool Collector::ingestOne(const std::string &Path, unsigned ThreadBudget) {
  obs::LaneId Lane = obs::tracingEnabled()
                         ? obs::TraceLog::get().allocLane(
                               "stream: " + fileName(Path))
                         : 0;
  obs::ScopedSpan Span(Lane, "ingest " + fileName(Path), "collector");

  TraceStreamReader Reader;
  uint64_t LocalRead = 0, LocalSkipped = 0, LocalEvents = 0;
  size_t ErrChunk = 0;
  bool Ok = Reader.open(Path);
  if (Ok) {
    // Routine ids are table positions, and the reader refuses repeated
    // names, so interning in order reproduces every id.
    SymbolTable Symbols;
    for (const std::string &Name : Reader.routines())
      Symbols.intern(Name);

    // Advisory chunk filter: OR of the filtered routines' mask bits in
    // this stream's id space. Zero with a non-empty filter means no
    // filtered routine exists here at all — every chunk is skippable.
    bool UseFilter = !Opts.RoutineFilter.empty();
    ForwardedCalls Forwarded;
    if (UseFilter)
      for (const std::string &Name : Opts.RoutineFilter) {
        RoutineId Id = Symbols.lookup(Name);
        if (Id != ~0u) {
          Forwarded.FilterMask |= uint64_t(1) << (Id & 63);
          Forwarded.MatchedIds.insert(Id);
        }
      }

    // Each completed activation folds into this stream's rollups on the
    // lane where it completes (a dispatcher worker when the ingest
    // pipelines), so the profiler keeps no record per activation.
    StreamRollup Stream;
    TrmsProfiler Profiler;
    Profiler.profileDatabase()->setActivationSink(&Stream);
    // Each decoded chunk is published as one batch: a chunk decodes
    // standalone and already holds the compacted stream. Filtered ingest
    // first drops, in place, the words of Returns that close skipped
    // frames. The profiler consumes on a worker while this thread
    // decodes, if this stream's share of the host leaves one free.
    EventDispatcher Dispatcher(ThreadBudget);
    Dispatcher.addTool(&Profiler);
    Dispatcher.start(&Symbols);

    // A chunk may be skipped only when (a) its routine mask proves no
    // filtered routine is called in it and (b) no filtered activation
    // is in flight — everything between a filtered Call and its Return
    // must replay for exact rms/cost, and filtered Calls always set
    // their own mask bit, so (a) alone guarantees none is lost.
    //
    // (c) closes the trms undercount: a chunk passing (a) and (b) may
    // still *write* a cell that a later filtered activation reads for
    // the first time — dropping the write loses the shadow-timestamp
    // history that makes that read an induced first-access. Each chunk
    // carries a written-shard mask, and SuffixTargets below holds, per
    // chunk, the union of the shard-activity masks of every *later*
    // chunk containing a filtered Call (a backward suffix pass over the
    // index). A chunk whose written shards miss every such target shard
    // cannot feed any retained activation's trms, so skipping it is
    // exact up to one residual corner: an activation's continuation
    // chunks (after its Call chunk, mask-invisible) may read shards no
    // matching chunk touches; those reads can still undercount.
    //
    // Skipping tears holes in the call stack: a skipped chunk may open
    // frames whose Returns land in decoded chunks. The per-thread
    // stacks of Forwarded track only the calls actually forwarded; a
    // Return that does not match the forwarded top must close a frame
    // opened in a skipped chunk. Dropping such Returns keeps the
    // profiler's stack exactly the forwarded calls, so the
    // mismatched-nesting assert can never fire.
    //
    // A dropped Return takes its block count (trace/Event.h) with it,
    // and filtered records stay exact. Cost is a difference of the
    // thread's block counter taken inside one activation, and rms counts
    // only accesses inside the activation window, which is always fully
    // decoded. The lost count is the thread's own, and no filtered
    // activation of that thread is open when it is lost: the frame the
    // Return closes was opened in a skipped chunk, so while no filtered
    // activation was in flight; traces are well-nested per thread, so
    // a filtered activation of the thread opened after it closes before
    // it. Every filtered activation of the thread thus lies wholly
    // before or wholly after the lost count.
    std::vector<ShardActivityMask> SuffixTargets;
    if (UseFilter) {
      size_t N = Reader.chunkCount();
      SuffixTargets.resize(N);
      ShardActivityMask Acc = {};
      for (size_t C = N; C-- > 0;) {
        SuffixTargets[C] = Acc;
        if ((Reader.chunkRoutineMask(C) & Forwarded.FilterMask) != 0) {
          const ShardActivityMask &S = Reader.chunkShardMask(C);
          for (size_t W = 0; W != Acc.size(); ++W)
            Acc[W] |= S[W];
        }
      }
    }
    auto WritesNothingRetained = [&](size_t C) {
      const ShardActivityMask &W = Reader.chunkWrittenMask(C);
      const ShardActivityMask &T = SuffixTargets[C];
      for (size_t I = 0; I != W.size(); ++I)
        if ((W[I] & T[I]) != 0)
          return false;
      return true;
    };

    std::vector<Event> Chunk;
    while (true) {
      ErrChunk = Reader.cursor();
      if (UseFilter && Forwarded.InFlight == 0 &&
          ErrChunk < Reader.chunkCount() &&
          (Reader.chunkRoutineMask(ErrChunk) & Forwarded.FilterMask) == 0 &&
          WritesNothingRetained(ErrChunk)) {
        Reader.seek(ErrChunk + 1);
        LocalSkipped += 1;
        continue;
      }
      if (!Reader.nextChunk(Chunk))
        break;
      LocalRead += 1;
      uint64_t Events = Reader.chunkEvents(ErrChunk);
      LocalEvents += Events;
      if (UseFilter)
        Events -= Forwarded.forward(Chunk);
      Dispatcher.publishChunk(Chunk, Events);
    }
    Ok = Reader.error().empty();
    // The run finishes even on error so the dispatcher joins its worker
    // and the profiler drains cleanly; the partial rollups are simply
    // never merged. The join also makes the worker's folds visible here.
    Dispatcher.finish();

    if (Ok) {
      std::set<std::string> Only(Opts.RoutineFilter.begin(),
                                 Opts.RoutineFilter.end());
      std::string Label =
          Opts.ProgramLabel.empty() ? fileLabel(Path) : Opts.ProgramLabel;
      std::lock_guard<std::mutex> Lock(Mutex);
      uint64_t MergeStart = obs::nowNs();
      Store.mergeStream(Label, Stream, Symbols,
                        Only.empty() ? nullptr : &Only);
      Totals.MergeNs += obs::nowNs() - MergeStart;
      Totals.Streams += 1;
      Totals.ChunksRead += LocalRead;
      Totals.ChunksSkipped += LocalSkipped;
      Totals.Events += LocalEvents;
      return true;
    }
  }

  std::lock_guard<std::mutex> Lock(Mutex);
  Totals.StreamsFailed += 1;
  Totals.ChunksRead += LocalRead;
  Totals.ChunksSkipped += LocalSkipped;
  Totals.Events += LocalEvents;
  Errors.push_back({Path, ErrChunk, Reader.error()});
  return false;
}

size_t Collector::ingestFiles(const std::vector<std::string> &Files) {
  CollectorTotals Before = Totals;
  uint64_t Start = obs::nowNs();

  unsigned Workers = Opts.Workers;
  if (Workers == 0)
    Workers = EventDispatcher::hardwareThreads();
  Workers = std::clamp<unsigned>(
      Workers, 1,
      std::min<size_t>(CollectorOptions::MaxWorkers,
                       std::max<size_t>(Files.size(), 1)));

  // Each ingest pipelines its stream (decode here, profile on a
  // worker) only when its share of the host's threads holds both, i.e.
  // while 2 x Workers <= hardware threads.
  unsigned ThreadBudget = EventDispatcher::hardwareThreads() / Workers;
  if (Workers <= 1 || Files.size() <= 1) {
    for (const std::string &Path : Files)
      ingestOne(Path, ThreadBudget);
  } else {
    std::atomic<size_t> Next{0};
    std::vector<std::thread> Pool;
    Pool.reserve(Workers);
    for (unsigned W = 0; W != Workers; ++W)
      Pool.emplace_back([this, &Files, &Next, ThreadBudget] {
        for (size_t I = Next.fetch_add(1); I < Files.size();
             I = Next.fetch_add(1))
          ingestOne(Files[I], ThreadBudget);
      });
    for (std::thread &T : Pool)
      T.join();
  }

  Totals.IngestNs += obs::nowNs() - Start;
  if (obs::statsEnabled()) {
    obs::Registry &R = obs::Registry::get();
    R.counter("collector.streams").add(Totals.Streams - Before.Streams);
    R.counter("collector.streams_failed")
        .add(Totals.StreamsFailed - Before.StreamsFailed);
    R.counter("collector.decode_errors")
        .add(Totals.StreamsFailed - Before.StreamsFailed);
    R.counter("collector.chunks_read")
        .add(Totals.ChunksRead - Before.ChunksRead);
    R.counter("collector.chunks_skipped")
        .add(Totals.ChunksSkipped - Before.ChunksSkipped);
    R.counter("collector.events").add(Totals.Events - Before.Events);
    R.counter("collector.merge_ns").add(Totals.MergeNs - Before.MergeNs);
    R.counter("collector.ingest_ns").add(Totals.IngestNs - Before.IngestNs);
    R.gauge("collector.workers").set(Workers);
    R.gauge("collector.store_routines").set(Store.routineCount());
  }
  return static_cast<size_t>(Totals.Streams - Before.Streams);
}

std::vector<std::string> isp::collect::scanSpoolDir(const std::string &Dir,
                                                    std::string *Error) {
  std::vector<std::string> Out;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Dir, Ec), End;
  if (Ec) {
    if (Error)
      *Error = Ec.message();
    return Out;
  }
  for (; It != End; It.increment(Ec)) {
    if (Ec)
      break;
    if (!It->is_regular_file(Ec) || Ec)
      continue;
    std::string Path = It->path().string();
    if (isTraceStreamFile(Path))
      Out.push_back(std::move(Path));
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}
