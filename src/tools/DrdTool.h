//===- tools/DrdTool.h - Lockset-based race detector ------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DRD analogue: an Eraser-style *lockset* data-race detector, the
/// other Valgrind race checker the paper names alongside helgrind. Each
/// shared location carries a candidate lockset — the intersection of
/// the mutexes held at every access — refined through the classic state
/// machine (virgin -> exclusive -> shared -> shared-modified); a race is
/// reported when a shared-modified location's candidate set becomes
/// empty.
///
/// The two detectors deliberately embody the two classic designs:
/// HelgrindTool tracks happens-before with vector clocks (no false
/// positives on semaphore- or join-ordered code, but misses races that
/// a particular schedule happened to order), while DrdTool's locksets
/// are schedule-insensitive but flag lock-free synchronization — e.g.
/// a semaphore-paired producer/consumer — as racy. The tool tests pin
/// down both behaviours.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TOOLS_DRDTOOL_H
#define ISPROF_TOOLS_DRDTOOL_H

#include "instr/Tool.h"
#include "shadow/ShadowMemory.h"

#include <map>
#include <string>
#include <vector>

namespace isp {

class DrdTool : public ToolImpl<DrdTool> {
public:
  std::string name() const override { return "drd"; }
  uint64_t memoryFootprintBytes() const override;

  void onRead(ThreadId Tid, Addr A, uint64_t Cells);
  void onWrite(ThreadId Tid, Addr A, uint64_t Cells);
  void onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells);
  void onSyncAcquire(ThreadId Tid, SyncId Id, bool IsLock);
  void onSyncRelease(ThreadId Tid, SyncId Id, bool IsLock);

  uint64_t racesDetected() const { return RaceCount; }
  /// Addresses of the first reported races (bounded).
  const std::vector<Addr> &racyAddresses() const { return RacyAddresses; }
  std::string renderReport(const SymbolTable *Symbols = nullptr) const;

private:
  /// Location states of the Eraser state machine.
  enum State : uint8_t {
    Virgin = 0,        ///< never accessed
    Exclusive = 1,     ///< single thread so far (owner tracked)
    Shared = 2,        ///< multiple readers
    SharedModified = 3 ///< multiple threads incl. a writer: check locksets
  };

  /// Shadow word layout: [locksetId:32 | owner+1:22 | reported:1 |
  /// state:2] packed so one lookup yields everything.
  static uint64_t pack(State S, ThreadId Owner, uint32_t LockSet,
                       bool Reported) {
    return (static_cast<uint64_t>(LockSet) << 32) |
           (static_cast<uint64_t>(Owner + 1) << 3) |
           (Reported ? 4u : 0u) | static_cast<uint64_t>(S);
  }
  static State stateOf(uint64_t W) { return static_cast<State>(W & 3); }
  static bool reportedOf(uint64_t W) { return (W & 4) != 0; }
  static ThreadId ownerOf(uint64_t W) {
    return static_cast<ThreadId>(((W >> 3) & 0x1fffffff) - 1);
  }
  static uint32_t locksetOf(uint64_t W) {
    return static_cast<uint32_t>(W >> 32);
  }

  /// Interns \p Set (sorted) and returns its id. Id 0 is the empty set.
  uint32_t internLockset(const std::vector<SyncId> &Set);
  /// Id of the intersection of interned sets \p A and \p B.
  uint32_t intersect(uint32_t A, uint32_t B);
  /// Current held-lockset id of \p Tid.
  uint32_t heldOf(ThreadId Tid);

  void accessCell(ThreadId Tid, Addr A, bool IsWrite);
  void reportRace(Addr A, uint64_t &Word);

  ThreeLevelShadow<uint64_t> Shadow;
  std::map<ThreadId, std::vector<SyncId>> Held;
  std::map<ThreadId, uint32_t> HeldId;
  std::vector<std::vector<SyncId>> Locksets{{}};
  std::map<std::vector<SyncId>, uint32_t> LocksetIds{{{}, 0}};
  uint64_t RaceCount = 0;
  std::vector<Addr> RacyAddresses;
  static constexpr size_t MaxRecordedRaces = 64;
};

/// The batch walk is instantiated in DrdTool.cpp, beside the callbacks.
extern template class ToolImpl<DrdTool>;

} // namespace isp

#endif // ISPROF_TOOLS_DRDTOOL_H
