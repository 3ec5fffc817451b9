//===- core/NaiveProfiler.h - Set-based trms oracle -------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simple-minded trms algorithm of the paper's Figure 10, kept as
/// (a) the correctness oracle for the timestamping profiler — the two
/// must produce identical ActivationRecords on any trace, which the
/// property-based tests verify on thousands of random traces — and
/// (b) the cost baseline the Section 4.2 ablation benchmark measures the
/// timestamping algorithm against.
///
/// Per pending activation r of thread t it maintains the explicit set
/// L_{r,t} of locations accessed by r's live subtree: every access by t
/// inserts into all pending sets of t (stack walking), every write by a
/// different thread (or the kernel) removes from all other threads' sets.
/// A read counts toward trms_{r,t} iff the location is absent from
/// L_{r,t}. Time per write is Theta(sum of all stack depths) and space
/// is up to (cells x depth x threads) — exactly the blowup Section 4.2
/// motivates the timestamping algorithm with.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_CORE_NAIVEPROFILER_H
#define ISPROF_CORE_NAIVEPROFILER_H

#include "core/ProfileData.h"
#include "instr/Tool.h"

#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace isp {

struct NaiveProfilerOptions {
  bool KeepActivationLog = false;
};

class NaiveTrmsProfiler : public ToolImpl<NaiveTrmsProfiler> {
public:
  explicit NaiveTrmsProfiler(
      NaiveProfilerOptions Opts = NaiveProfilerOptions());
  ~NaiveTrmsProfiler() override;

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

  std::string name() const override { return "aprof-trms-naive"; }
  uint64_t memoryFootprintBytes() const override;

  const ProfileDatabase &database() const { return Database; }
  ProfileDatabase takeDatabase() { return std::move(Database); }
  ProfileDatabase *profileDatabase() override { return &Database; }

private:
  struct Activation {
    RoutineId Rtn = 0;
    uint64_t BbAtEntry = 0;
    /// L_{r,t}: live-accessed set for trms (foreign writes remove).
    std::unordered_set<Addr> Live;
    /// Accessed-ever-by-subtree set for rms (nothing removes).
    std::unordered_set<Addr> Accessed;
    uint64_t Trms = 0;
    uint64_t Rms = 0;
    uint64_t InducedThread = 0;
    uint64_t InducedExternal = 0;
  };

  struct ThreadState {
    std::vector<Activation> Stack;
    uint64_t BbCount = 0;
    /// Timestamp of the thread's latest access per location (for the
    /// induced-vs-plain classification, mirroring the operational
    /// definition the timestamping algorithm uses).
    std::unordered_map<Addr, uint64_t> LastAccess;
  };

  struct LastWrite {
    uint64_t Time = 0;
    bool Kernel = false;
  };

  void readCell(ThreadId Tid, Addr A);
  void popActivation(ThreadId Tid, ThreadState &TS);

  /// Bookkeeping for peak space: total entries across all live
  /// activation sets, tracked incrementally so footprint reporting can
  /// expose the algorithm's mid-run blowup (sets die with their
  /// activations, so an end-of-run measurement would flatter it).
  void noteSetGrowth(uint64_t Added) {
    LiveSetEntries += Added;
    if (LiveSetEntries > PeakSetEntries)
      PeakSetEntries = LiveSetEntries;
  }

  NaiveProfilerOptions Options;
  uint64_t LiveSetEntries = 0;
  uint64_t PeakSetEntries = 0;
  std::map<ThreadId, ThreadState> Threads;
  std::unordered_map<Addr, LastWrite> LastWrites;
  /// Monotone event clock; bumped at thread switches and kernel writes so
  /// the induced classification matches the timestamping profiler's.
  uint64_t Clock = 1;
  ThreadId CurrentTid = 0;
  bool HaveCurrentTid = false;
  void noteThread(ThreadId Tid);
  ProfileDatabase Database;
};

/// The batch walk is instantiated in NaiveProfiler.cpp, beside the callbacks.
extern template class ToolImpl<NaiveTrmsProfiler>;

} // namespace isp

#endif // ISPROF_CORE_NAIVEPROFILER_H
