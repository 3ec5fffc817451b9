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
};

/// The profiler, parameterized over the shadow-memory implementation so
/// the three-level-table vs dense-map ablation can run the identical
/// algorithm. Use the TrmsProfiler alias for the paper's configuration.
template <typename ShadowT>
class TrmsProfilerT final : public ToolImpl<TrmsProfilerT<ShadowT>> {
public:
  explicit TrmsProfilerT(TrmsProfilerOptions Opts = TrmsProfilerOptions());
  ~TrmsProfilerT() override;

  void onStart(const SymbolTable *Symbols) override;
  void onFinish() override;
  void onThreadStart(ThreadId Tid, ThreadId Parent);
  void onThreadEnd(ThreadId Tid);
  void onCall(ThreadId Tid, RoutineId Rtn);
  void onReturn(ThreadId Tid, RoutineId Rtn);
  void onBasicBlock(ThreadId Tid, uint64_t Count);
  void onRead(ThreadId Tid, Addr A, uint64_t Cells);
  void onWrite(ThreadId Tid, Addr A, uint64_t Cells);
  void onKernelRead(ThreadId Tid, Addr A, uint64_t Cells);
  void onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells);

  std::string name() const override { return "aprof-trms"; }
  uint64_t memoryFootprintBytes() const override;

  const ProfileDatabase &database() const { return Database; }
  ProfileDatabase takeDatabase() { return std::move(Database); }
  ProfileDatabase *profileDatabase() override { return &Database; }

  /// Number of Figure 13 renumbering passes performed so far.
  uint64_t renumberings() const { return Renumberings; }

  /// Current value of the global timestamp counter (for tests).
  uint64_t counterValue() const { return Count; }

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
  ShadowT Wts;
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
  /// ts-shadow tallies of threads that already ended.
  ShadowTallies EndedTs;
};

using TrmsProfiler = TrmsProfilerT<ThreeLevelShadow<uint64_t>>;
using DenseTrmsProfiler = TrmsProfilerT<DenseShadow<uint64_t>>;

extern template class TrmsProfilerT<ThreeLevelShadow<uint64_t>>;
extern template class TrmsProfilerT<DenseShadow<uint64_t>>;
/// The batch walks are instantiated in TrmsProfiler.cpp, beside the
/// callbacks.
extern template class ToolImpl<TrmsProfiler>;
extern template class ToolImpl<DenseTrmsProfiler>;

} // namespace isp

#endif // ISPROF_CORE_TRMSPROFILER_H
