//===- tools/HelgrindTool.h - Happens-before race detector ------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The helgrind analogue: a vector-clock happens-before data-race
/// detector over the serialized event stream. Synchronization edges come
/// from semaphore/lock release->acquire pairs and from thread
/// create/start and end/join pairs. Per memory cell it keeps FastTrack-
/// style *epochs* (last-write and last-read (thread, clock) pairs packed
/// into one shadow word each), reporting a race when an access is not
/// ordered after the previous conflicting access. Keeping a single read
/// epoch (not a full read vector clock) trades a small class of
/// read-shared false negatives for a flat two-words-per-cell shadow —
/// the same engineering compromise FastTrack motivates.
///
/// In Table 1 terms this is the tool whose workload most resembles
/// aprof-trms (per-access shadow lookups plus cross-thread metadata),
/// and in the paper it is the slowest of the compared tools.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TOOLS_HELGRINDTOOL_H
#define ISPROF_TOOLS_HELGRINDTOOL_H

#include "instr/Tool.h"
#include "shadow/ShadowMemory.h"

#include <map>
#include <string>
#include <vector>

namespace isp {

/// One reported data race.
struct RaceReport {
  Addr Address = 0;
  ThreadId FirstTid = 0;
  ThreadId SecondTid = 0;
  bool FirstWasWrite = false;
  bool SecondWasWrite = false;
};

class HelgrindTool : public ToolImpl<HelgrindTool> {
public:
  std::string name() const override { return "helgrind"; }
  uint64_t memoryFootprintBytes() const override;

  void onThreadStart(ThreadId Tid, ThreadId Parent);
  void onThreadEnd(ThreadId Tid);
  void onThreadCreate(ThreadId Tid, ThreadId Child);
  void onThreadJoin(ThreadId Tid, ThreadId Child);
  void onSyncAcquire(ThreadId Tid, SyncId Id, bool IsLock);
  void onSyncRelease(ThreadId Tid, SyncId Id, bool IsLock);
  void onRead(ThreadId Tid, Addr A, uint64_t Cells);
  void onWrite(ThreadId Tid, Addr A, uint64_t Cells);
  void onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells);

  uint64_t racesDetected() const { return RaceCount; }
  const std::vector<RaceReport> &races() const { return Races; }
  std::string renderReport(const SymbolTable *Symbols = nullptr) const;

private:
  using VectorClock = std::vector<uint64_t>;

  /// Epochs pack (clock << 20 | tid + 1); 0 means "no access yet".
  static uint64_t packEpoch(ThreadId Tid, uint64_t Clock) {
    return (Clock << 20) | (static_cast<uint64_t>(Tid) + 1);
  }
  static ThreadId epochTid(uint64_t Epoch) {
    return static_cast<ThreadId>((Epoch & 0xfffff) - 1);
  }
  static uint64_t epochClock(uint64_t Epoch) { return Epoch >> 20; }

  VectorClock &clockOf(ThreadId Tid);
  static void joinInto(VectorClock &Into, const VectorClock &From);
  /// True when the epoch's access happens-before thread \p Tid's now.
  bool happensBefore(uint64_t Epoch, ThreadId Tid);
  void reportRace(Addr A, uint64_t PrevEpoch, bool PrevWasWrite,
                  ThreadId Tid, bool IsWrite);
  void accessCell(ThreadId Tid, Addr A, bool IsWrite);

  std::map<ThreadId, VectorClock> ThreadClocks;
  std::map<SyncId, VectorClock> SyncClocks;
  std::map<ThreadId, VectorClock> InheritedClocks;
  std::map<ThreadId, VectorClock> FinalClocks;
  ThreeLevelShadow<uint64_t> WriteEpochs;
  ThreeLevelShadow<uint64_t> ReadEpochs;
  std::vector<RaceReport> Races;
  uint64_t RaceCount = 0;
  static constexpr size_t MaxRecordedRaces = 64;
};

/// The batch walk is instantiated in HelgrindTool.cpp, beside the callbacks.
extern template class ToolImpl<HelgrindTool>;

} // namespace isp

#endif // ISPROF_TOOLS_HELGRINDTOOL_H
