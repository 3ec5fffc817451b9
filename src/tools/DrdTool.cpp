//===- tools/DrdTool.cpp - Lockset-based race detector -------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "tools/DrdTool.h"

#include "support/Format.h"

#include <algorithm>

using namespace isp;

uint32_t DrdTool::internLockset(const std::vector<SyncId> &Set) {
  auto It = LocksetIds.find(Set);
  if (It != LocksetIds.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Locksets.size());
  Locksets.push_back(Set);
  LocksetIds.emplace(Set, Id);
  return Id;
}

uint32_t DrdTool::intersect(uint32_t A, uint32_t B) {
  if (A == B)
    return A;
  if (A == 0 || B == 0)
    return 0;
  const std::vector<SyncId> &SA = Locksets[A];
  const std::vector<SyncId> &SB = Locksets[B];
  std::vector<SyncId> Out;
  std::set_intersection(SA.begin(), SA.end(), SB.begin(), SB.end(),
                        std::back_inserter(Out));
  return internLockset(Out);
}

uint32_t DrdTool::heldOf(ThreadId Tid) {
  auto It = HeldId.find(Tid);
  return It == HeldId.end() ? 0 : It->second;
}

void DrdTool::onSyncAcquire(ThreadId Tid, SyncId Id, bool IsLock) {
  if (!IsLock)
    return; // semaphores do not contribute to locksets (Eraser model)
  std::vector<SyncId> &Set = Held[Tid];
  auto Pos = std::lower_bound(Set.begin(), Set.end(), Id);
  if (Pos == Set.end() || *Pos != Id)
    Set.insert(Pos, Id);
  HeldId[Tid] = internLockset(Set);
}

void DrdTool::onSyncRelease(ThreadId Tid, SyncId Id, bool IsLock) {
  if (!IsLock)
    return;
  std::vector<SyncId> &Set = Held[Tid];
  auto Pos = std::lower_bound(Set.begin(), Set.end(), Id);
  if (Pos != Set.end() && *Pos == Id)
    Set.erase(Pos);
  HeldId[Tid] = internLockset(Set);
}

void DrdTool::reportRace(Addr A, uint64_t &Word) {
  if (reportedOf(Word))
    return; // one report per location
  ++RaceCount;
  if (RacyAddresses.size() < MaxRecordedRaces)
    RacyAddresses.push_back(A);
  Word |= 4; // set the reported bit
}

void DrdTool::accessCell(ThreadId Tid, Addr A, bool IsWrite) {
  uint64_t &Word = Shadow.cell(A);
  State S = stateOf(Word);
  switch (S) {
  case Virgin:
    Word = pack(Exclusive, Tid, heldOf(Tid), false);
    return;
  case Exclusive: {
    if (ownerOf(Word) == Tid) {
      Word = pack(Exclusive, Tid, heldOf(Tid), reportedOf(Word));
      return;
    }
    // Eraser's initialization refinement: the exclusive phase counts as
    // initialization, so the candidate set starts from the *incoming*
    // thread's locks rather than intersecting with the initializer's
    // (which is typically lock-free and would flag every init-then-share
    // pattern).
    uint32_t Candidate = heldOf(Tid);
    State Next = IsWrite ? SharedModified : Shared;
    Word = pack(Next, Tid, Candidate, reportedOf(Word));
    if (Next == SharedModified && Candidate == 0)
      reportRace(A, Word);
    return;
  }
  case Shared: {
    uint32_t Candidate = intersect(locksetOf(Word), heldOf(Tid));
    State Next = IsWrite ? SharedModified : Shared;
    Word = pack(Next, Tid, Candidate, reportedOf(Word));
    if (Next == SharedModified && Candidate == 0)
      reportRace(A, Word);
    return;
  }
  case SharedModified: {
    uint32_t Candidate = intersect(locksetOf(Word), heldOf(Tid));
    Word = pack(SharedModified, Tid, Candidate, reportedOf(Word));
    if (Candidate == 0)
      reportRace(A, Word);
    return;
  }
  }
}

void DrdTool::onRead(ThreadId Tid, Addr A, uint64_t Cells) {
  for (uint64_t I = 0; I != Cells; ++I)
    accessCell(Tid, A + I, /*IsWrite=*/false);
}

void DrdTool::onWrite(ThreadId Tid, Addr A, uint64_t Cells) {
  for (uint64_t I = 0; I != Cells; ++I)
    accessCell(Tid, A + I, /*IsWrite=*/true);
}

void DrdTool::onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells) {
  // A kernel fill resets the cells' history: the requesting thread owns
  // the fresh data.
  for (uint64_t I = 0; I != Cells; ++I)
    Shadow.cell(A + I) = pack(Exclusive, Tid, heldOf(Tid), false);
}

uint64_t DrdTool::memoryFootprintBytes() const {
  uint64_t Total = Shadow.totalBytes();
  for (const auto &[Tid, Set] : Held)
    Total += Set.capacity() * sizeof(SyncId) + 48;
  for (const auto &Set : Locksets)
    Total += Set.capacity() * sizeof(SyncId) + sizeof(Set);
  return Total;
}

std::string DrdTool::renderReport(const SymbolTable *Symbols) const {
  std::string Out = formatString(
      "drd: %llu location(s) with empty candidate lockset\n",
      static_cast<unsigned long long>(RaceCount));
  for (Addr A : RacyAddresses)
    Out += formatString("  possible race at address %llu\n",
                        static_cast<unsigned long long>(A));
  return Out;
}

// The batch walk, where it can inline the callbacks above.
template class isp::ToolImpl<DrdTool>;
