//===- core/TrmsProfiler.h - Read/write timestamping profiler ---*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multithreaded input-sensitive profiler: the read/write
/// timestamping algorithm of the paper's Figure 11, extended with
/// external input handling (Figure 12) and periodic timestamp
/// renumbering on counter overflow (Figure 13).
///
/// Per event the profiler maintains:
///  - a global counter `count`, bumped at thread switches, routine calls,
///    and kernel writes;
///  - a global shadow memory `wts` holding, per location, the timestamp
///    of the latest write by any thread (tagged with a kernel bit so
///    induced first-accesses can be split into thread-induced vs
///    external);
///  - per thread, a shadow memory `ts` with the timestamp of the
///    thread's latest access to each location, and a shadow stack whose
///    entries carry routine id, activation timestamp, cost snapshot, and
///    *partial* trms/rms so that Invariant 2 holds:
///        trms_i = sum_{j >= i} S[j].partialTrms.
///
/// A read at location l is an induced first-access iff ts_t[l] < wts[l]
/// (some other thread or the kernel wrote l after t's last access), and
/// a plain first-access iff ts_t[l] < S[top].ts. All operations are O(1)
/// except the ancestor adjustment on re-read, which is O(log depth).
/// The same pass simultaneously computes the sequential rms of
/// Definition 1, so every activation record carries (rms, trms, cost).
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_CORE_TRMSPROFILER_H
#define ISPROF_CORE_TRMSPROFILER_H

#include "core/ProfileData.h"
#include "instr/Tool.h"
#include "shadow/ShadowMemory.h"
#include "shadow/ShardedShadow.h"

#include <memory>
#include <string>
#include <vector>

namespace isp {

struct TrmsProfilerOptions {
  /// Renumbering threshold: when the global counter reaches this value
  /// the Figure 13 renumbering pass compacts all timestamps. The default
  /// mimics a 32-bit timestamp word; tests shrink it to a few hundred to
  /// exercise renumbering intensively.
  uint64_t CounterLimit = uint64_t(1) << 32;
  /// Retain every ActivationRecord (for tests and raw dumps).
  bool KeepActivationLog = false;
  /// Shard count for the global wts shadow (power of two; meaningful
  /// only when the wts shadow type is sharded — ShardedTrmsProfiler /
  /// --shadow-shards). 1 keeps the single-shard layout.
  unsigned ShadowShards = 1;
};

/// One memory operation prepared by the serial step of parallel replay
/// (replay/ParallelReplay.h) for application on a worker thread. The
/// serial step runs replayPrepareMemOp — which performs every update
/// that touches global profiler state (thread switch bookkeeping, the
/// counter bump of a kernel write, global read tallies) and stamps the
/// resulting counter value — and the shard-local remainder
/// (replayApplyMemOp) can then run on any thread that owns the shadow
/// shards the address range maps to.
struct TrmsReplayOp {
  /// Read, Write, or KernelWrite (kernel reads normalize to Read).
  EventKind Kind = EventKind::Read;
  ThreadId Tid = 0;
  /// Global counter value observed after the serial half ran.
  uint64_t Count = 0;
  /// The owning thread's state. A pointer, not a Tid: the thread table
  /// may grow (invalidating indices-to-come, not existing entries)
  /// between the prepare and the apply.
  void *State = nullptr;
};

/// Per-worker accumulator for the classification side effects of
/// replayApplyMemOp. Everything in here is a commutative sum, so any
/// interleaving of shard-local applies produces the same totals; the
/// serial step folds them into the real frames and database counters at
/// each epoch barrier (replayMergeDeltas), before any Return can pop a
/// frame the deltas target. Treat the contents as opaque.
struct TrmsReplayDeltas {
  struct FrameDelta {
    int64_t Trms = 0;
    int64_t Rms = 0;
    uint64_t InducedThread = 0;
    uint64_t InducedExternal = 0;
    bool Dirty = false;
  };
  struct ThreadDeltas {
    std::vector<FrameDelta> Frames;
    /// Indices of dirty entries in Frames, so merging skips clean ones.
    std::vector<uint32_t> DirtyFrames;
  };
  std::vector<ThreadDeltas> Threads;
  uint64_t InducedThread = 0;
  uint64_t InducedExternal = 0;
  uint64_t PlainFirstAccesses = 0;

  FrameDelta &frame(ThreadId Tid, size_t FrameIndex) {
    if (Tid >= Threads.size())
      Threads.resize(Tid + 1);
    ThreadDeltas &TD = Threads[Tid];
    if (FrameIndex >= TD.Frames.size())
      TD.Frames.resize(FrameIndex + 1);
    FrameDelta &FD = TD.Frames[FrameIndex];
    if (!FD.Dirty) {
      FD.Dirty = true;
      TD.DirtyFrames.push_back(static_cast<uint32_t>(FrameIndex));
    }
    return FD;
  }
};

/// The profiler, parameterized over the shadow-memory implementation so
/// the three-level-table vs dense-map ablation can run the identical
/// algorithm, and separately over the global wts shadow type so the wts
/// can be range-sharded (ShardedShadow) while the per-thread ts shadows
/// keep the plain layout. Use the TrmsProfiler alias for the paper's
/// configuration and ShardedTrmsProfiler for the sharded wts.
template <typename ShadowT, typename WtsShadowT = ShadowT>
class TrmsProfilerT final : public Tool {
public:
  explicit TrmsProfilerT(TrmsProfilerOptions Opts = TrmsProfilerOptions());
  ~TrmsProfilerT() override;

  /// Walks the batch as this type, so every callback below is called
  /// directly (defined beside them, where they can inline).
  void handleBatch(const Event *Words, size_t Count) override;

  void onStart(const SymbolTable *Symbols) override;
  void onFinish() override;
  void onThreadStart(ThreadId Tid, ThreadId Parent) override;
  void onThreadEnd(ThreadId Tid) override;
  void onCall(ThreadId Tid, RoutineId Rtn) override;
  void onReturn(ThreadId Tid, RoutineId Rtn) override;
  void onBasicBlock(ThreadId Tid, uint64_t Count) override;
  void onRead(ThreadId Tid, Addr A, uint64_t Cells) override;
  void onWrite(ThreadId Tid, Addr A, uint64_t Cells) override;
  void onKernelRead(ThreadId Tid, Addr A, uint64_t Cells) override;
  void onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells) override;

  std::string name() const override { return "aprof-trms"; }
  /// The profiler keeps per-thread shadows but shares the global wts
  /// shadow and timestamp counter across guest threads, so the profiler
  /// family must stay on one serialized consumer: co-scheduled on a
  /// single worker (or the dispatch thread under serial fallback).
  ToolAffinity threadAffinity() const override {
    return ToolAffinity::CoScheduled;
  }
  uint64_t memoryFootprintBytes() const override;

  const ProfileDatabase &database() const { return Database; }
  ProfileDatabase takeDatabase() { return std::move(Database); }
  ProfileDatabase *profileDatabase() override { return &Database; }

  /// Number of Figure 13 renumbering passes performed so far.
  uint64_t renumberings() const { return Renumberings; }

  /// Current value of the global timestamp counter (for tests).
  uint64_t counterValue() const { return Count; }

  //===--- Parallel-replay entry points (replay/ParallelReplay.h) -----===//
  //
  // Contract: between two epoch barriers the engine guarantees that (a)
  // no Call/Return/ThreadEnd event runs, so every shadow stack is
  // frozen and workers may read frame timestamps lock-free, (b) no
  // renumbering can trigger (replayMayRenumber gates every event), and
  // (c) each worker only applies ops whose address ranges map to shadow
  // shards it exclusively owns, on both the global wts and the
  // per-thread ts — which requires the doubly-sharded
  // ParallelReplayProfiler instantiation.

  /// Shard count of the shadows (1 for unsharded instantiations).
  unsigned replayShardCount() const;
  /// Shard that \p A's shadow cell lives in.
  size_t replayShardOf(Addr A) const;
  /// True when the next event could trigger a Figure 13 renumbering
  /// (conservative: no single event bumps the counter more than twice).
  bool replayMayRenumber() const { return Count + 3 >= Options.CounterLimit; }
  /// Serial half of a memory event: thread-switch bookkeeping, global
  /// counter/tally updates, and the op stamp. \p E must be a Read,
  /// Write, KernelRead, or KernelWrite.
  void replayPrepareMemOp(const EventRecord &E, TrmsReplayOp &Op);
  /// Shard-local half: applies \p Op to cells [A, A + Cells), folding
  /// classification side effects into \p D instead of shared state.
  /// Safe to run concurrently with other applies on disjoint shards.
  void replayApplyMemOp(const TrmsReplayOp &Op, Addr A, uint64_t Cells,
                        TrmsReplayDeltas &D);
  /// Folds (and resets) \p D into the real frames and database tallies.
  /// Serial step only, with all workers drained.
  void replayMergeDeltas(TrmsReplayDeltas &D);

private:
  /// One pending activation on a thread's shadow run-time stack.
  struct Frame {
    RoutineId Rtn = 0;
    /// Activation timestamp S_t[i].ts.
    uint64_t Ts = 0;
    /// Thread basic-block counter at entry; cost = counter - this.
    uint64_t BbAtEntry = 0;
    /// Partial sums per Invariant 2. Individual partials may go negative
    /// transiently (ancestor adjustments); the suffix sums never do.
    int64_t PartialTrms = 0;
    int64_t PartialRms = 0;
    uint64_t PartialInducedThread = 0;
    uint64_t PartialInducedExternal = 0;
  };

  struct ThreadState {
    ShadowT Ts;
    std::vector<Frame> Stack;
    uint64_t BbCount = 0;
  };

  /// Per-event thread lookup. The common case — a run of events from the
  /// running thread — is served by the CurrentState pointer; the slow
  /// path indexes a flat vector keyed by ThreadId (guest thread ids are
  /// small and dense), replacing the old std::map walk.
  ThreadState &state(ThreadId Tid);
  ThreadState &stateSlow(ThreadId Tid);

  /// Registers that the next event belongs to \p Tid, bumping the global
  /// counter when the running thread changes (Section 4's switchThread)
  /// and re-pointing the cached current-thread state.
  void noteThread(ThreadId Tid);

  /// Analysis-state bytes currently held.
  uint64_t currentFootprintBytes() const;

  /// Bumps the global counter, renumbering first if the configured
  /// counter limit has been reached.
  void bumpCount();

  /// Pops and records the topmost activation of \p TS.
  void popFrame(ThreadId Tid, ThreadState &TS);

  /// Figure 13: globally renumbers routine, thread-local, and global
  /// write timestamps, preserving every order relation the read test
  /// depends on, and resets the counter to a small value.
  void renumber();

  TrmsProfilerOptions Options;
  /// Global write-timestamp shadow; cells pack (time << 1) | kernelBit.
  WtsShadowT Wts;
  uint64_t Count = 1;
  /// Flat thread table keyed by ThreadId; dead threads leave null slots.
  std::vector<std::unique_ptr<ThreadState>> Threads;
  /// Cached state of CurrentTid (null right after that thread ends).
  ThreadState *CurrentState = nullptr;
  ThreadId CurrentTid = 0;
  bool HaveCurrentTid = false;
  ProfileDatabase Database;
  uint64_t Renumberings = 0;
  /// Peak analysis-state footprint; per-thread shadows are released when
  /// a thread ends (its timestamps can never be consulted again), so
  /// space reporting tracks the high-water mark.
  uint64_t PeakFootprintBytes = 0;
  /// ts-shadow cache tallies of threads that already ended.
  uint64_t EndedTsCacheHits = 0;
  uint64_t EndedTsCacheMisses = 0;
};

using TrmsProfiler = TrmsProfilerT<ThreeLevelShadow<uint64_t>>;
using DenseTrmsProfiler = TrmsProfilerT<DenseShadow<uint64_t>>;
/// Per-thread ts shadows stay plain; the global wts is range-sharded
/// (TrmsProfilerOptions::ShadowShards selects the shard count).
using ShardedTrmsProfiler =
    TrmsProfilerT<ThreeLevelShadow<uint64_t>, ShardedShadow<uint64_t>>;
/// Both the per-thread ts shadows and the global wts range-sharded with
/// the same shard count — the configuration parallel replay requires,
/// so every shadow write of a memory op stays inside the shard the op
/// was routed by (replay/ParallelReplay.h).
using ParallelReplayProfiler =
    TrmsProfilerT<ShardedShadow<uint64_t>, ShardedShadow<uint64_t>>;

extern template class TrmsProfilerT<ThreeLevelShadow<uint64_t>>;
extern template class TrmsProfilerT<DenseShadow<uint64_t>>;
extern template class TrmsProfilerT<ThreeLevelShadow<uint64_t>,
                                    ShardedShadow<uint64_t>>;
extern template class TrmsProfilerT<ShardedShadow<uint64_t>,
                                    ShardedShadow<uint64_t>>;

} // namespace isp

#endif // ISPROF_CORE_TRMSPROFILER_H
