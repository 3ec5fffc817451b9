//===- core/RmsProfiler.h - Sequential input-sensitive profiler -*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original PLDI 2012 input-sensitive profiler: computes the read
/// memory size (rms, Definition 1) of every routine activation with the
/// latest-access timestamping algorithm. It is entirely per-thread — it
/// ignores communication between threads and external input, which is
/// precisely the limitation the trms profiler removes. Kept as a distinct
/// tool ("aprof-rms") because the paper's Table 1 compares against it:
/// it needs no global shadow memory, so it is slightly cheaper in both
/// time and space than aprof-trms.
///
/// In its ProfileDatabase, Trms is reported equal to Rms for every
/// activation (the tool cannot observe induced input).
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_CORE_RMSPROFILER_H
#define ISPROF_CORE_RMSPROFILER_H

#include "core/ProfileData.h"
#include "instr/Tool.h"
#include "shadow/ShadowMemory.h"

#include <memory>
#include <string>
#include <vector>

namespace isp {

struct RmsProfilerOptions {
  bool KeepActivationLog = false;
};

class RmsProfiler : public ToolImpl<RmsProfiler> {
public:
  explicit RmsProfiler(RmsProfilerOptions Opts = RmsProfilerOptions());
  ~RmsProfiler() override;

  void onFinish() override;
  void onThreadStart(ThreadId Tid, ThreadId Parent);
  void onThreadEnd(ThreadId Tid);
  void onCall(ThreadId Tid, RoutineId Rtn);
  void onReturn(ThreadId Tid, RoutineId Rtn);
  void onBasicBlock(ThreadId Tid, uint64_t Count);
  void onRead(ThreadId Tid, Addr A, uint64_t Cells);
  void onWrite(ThreadId Tid, Addr A, uint64_t Cells);
  void onKernelRead(ThreadId Tid, Addr A, uint64_t Cells);
  // Kernel writes are invisible to the rms metric: buffer loads do not
  // touch the thread-local timestamps, and there is no global shadow.

  std::string name() const override { return "aprof-rms"; }
  uint64_t memoryFootprintBytes() const override;

  const ProfileDatabase &database() const { return Database; }
  ProfileDatabase takeDatabase() { return std::move(Database); }
  ProfileDatabase *profileDatabase() override { return &Database; }

private:
  struct Frame {
    RoutineId Rtn = 0;
    uint64_t Ts = 0;
    uint64_t BbAtEntry = 0;
    int64_t PartialRms = 0;
  };

  struct ThreadState {
    ThreeLevelShadow<uint64_t> Ts;
    std::vector<Frame> Stack;
    uint64_t BbCount = 0;
    /// The per-thread counter: rms needs no cross-thread ordering, so
    /// each thread numbers its own accesses.
    uint64_t Count = 1;
  };

  /// Fast per-event thread lookup: a flat vector keyed by ThreadId with
  /// a one-entry current-thread cache in front of it. Guest thread ids
  /// are small and dense (the VM hands them out sequentially), so the
  /// vector replaces the old std::map's pointer-chasing with one indexed
  /// load, and the cache collapses the common run-of-same-thread case to
  /// a compare.
  ThreadState &state(ThreadId Tid);

  void popFrame(ThreadId Tid, ThreadState &TS);
  uint64_t currentFootprintBytes() const;

  RmsProfilerOptions Options;
  std::vector<std::unique_ptr<ThreadState>> Threads;
  ThreadState *CachedState = nullptr;
  ThreadId CachedTid = 0;
  ProfileDatabase Database;
  /// Peak footprint: thread shadows are freed when their thread ends.
  uint64_t PeakFootprintBytes = 0;
  /// ts-shadow tallies of threads that already ended.
  ShadowTallies EndedTs;
};

/// The batch walk is instantiated in RmsProfiler.cpp, beside the callbacks.
extern template class ToolImpl<RmsProfiler>;

} // namespace isp

#endif // ISPROF_CORE_RMSPROFILER_H
