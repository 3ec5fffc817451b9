//===- tools/HelgrindTool.cpp - Happens-before race detector -------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "tools/HelgrindTool.h"

#include "support/Format.h"

#include <algorithm>

using namespace isp;

HelgrindTool::VectorClock &HelgrindTool::clockOf(ThreadId Tid) {
  VectorClock &VC = ThreadClocks[Tid];
  if (VC.size() <= Tid)
    VC.resize(Tid + 1, 0);
  if (VC[Tid] == 0)
    VC[Tid] = 1; // own component starts at 1
  return VC;
}

void HelgrindTool::joinInto(VectorClock &Into, const VectorClock &From) {
  if (Into.size() < From.size())
    Into.resize(From.size(), 0);
  for (size_t I = 0; I != From.size(); ++I)
    Into[I] = std::max(Into[I], From[I]);
}

bool HelgrindTool::happensBefore(uint64_t Epoch, ThreadId Tid) {
  if (Epoch == 0)
    return true;
  ThreadId PrevTid = epochTid(Epoch);
  if (PrevTid == Tid)
    return true;
  VectorClock &VC = clockOf(Tid);
  uint64_t Known = PrevTid < VC.size() ? VC[PrevTid] : 0;
  return epochClock(Epoch) <= Known;
}

void HelgrindTool::onThreadStart(ThreadId Tid, ThreadId Parent) {
  VectorClock &VC = clockOf(Tid);
  auto It = InheritedClocks.find(Tid);
  if (It != InheritedClocks.end()) {
    joinInto(VC, It->second);
    InheritedClocks.erase(It);
  }
}

void HelgrindTool::onThreadCreate(ThreadId Tid, ThreadId Child) {
  // The child inherits everything the parent has done so far; the parent
  // then advances so later parent work is unordered with the child.
  VectorClock &Parent = clockOf(Tid);
  InheritedClocks[Child] = Parent;
  ++Parent[Tid];
}

void HelgrindTool::onThreadEnd(ThreadId Tid) {
  FinalClocks[Tid] = clockOf(Tid);
}

void HelgrindTool::onThreadJoin(ThreadId Tid, ThreadId Child) {
  auto It = FinalClocks.find(Child);
  if (It != FinalClocks.end())
    joinInto(clockOf(Tid), It->second);
}

void HelgrindTool::onSyncAcquire(ThreadId Tid, SyncId Id, bool IsLock) {
  auto It = SyncClocks.find(Id);
  if (It != SyncClocks.end())
    joinInto(clockOf(Tid), It->second);
}

void HelgrindTool::onSyncRelease(ThreadId Tid, SyncId Id, bool IsLock) {
  VectorClock &VC = clockOf(Tid);
  joinInto(SyncClocks[Id], VC);
  ++VC[Tid];
}

void HelgrindTool::reportRace(Addr A, uint64_t PrevEpoch, bool PrevWasWrite,
                              ThreadId Tid, bool IsWrite) {
  ++RaceCount;
  if (Races.size() < MaxRecordedRaces)
    Races.push_back(
        {A, epochTid(PrevEpoch), Tid, PrevWasWrite, IsWrite});
}

void HelgrindTool::accessCell(ThreadId Tid, Addr A, bool IsWrite) {
  uint64_t &WriteEpoch = WriteEpochs.cell(A);
  if (!happensBefore(WriteEpoch, Tid))
    reportRace(A, WriteEpoch, /*PrevWasWrite=*/true, Tid, IsWrite);
  if (IsWrite) {
    uint64_t &ReadEpoch = ReadEpochs.cell(A);
    if (!happensBefore(ReadEpoch, Tid))
      reportRace(A, ReadEpoch, /*PrevWasWrite=*/false, Tid, IsWrite);
    WriteEpoch = packEpoch(Tid, clockOf(Tid)[Tid]);
  } else {
    ReadEpochs.cell(A) = packEpoch(Tid, clockOf(Tid)[Tid]);
  }
}

void HelgrindTool::onRead(ThreadId Tid, Addr A, uint64_t Cells) {
  for (uint64_t I = 0; I != Cells; ++I)
    accessCell(Tid, A + I, /*IsWrite=*/false);
}

void HelgrindTool::onWrite(ThreadId Tid, Addr A, uint64_t Cells) {
  for (uint64_t I = 0; I != Cells; ++I)
    accessCell(Tid, A + I, /*IsWrite=*/true);
}

void HelgrindTool::onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells) {
  // A kernel buffer fill resets the cells' history: the syscall itself
  // orders the data for the requesting thread.
  for (uint64_t I = 0; I != Cells; ++I) {
    WriteEpochs.cell(A + I) = 0;
    ReadEpochs.cell(A + I) = 0;
  }
}

uint64_t HelgrindTool::memoryFootprintBytes() const {
  uint64_t Total = WriteEpochs.totalBytes() + ReadEpochs.totalBytes();
  auto ClockBytes = [](const std::map<ThreadId, VectorClock> &Map) {
    uint64_t Bytes = 0;
    for (const auto &[Tid, VC] : Map)
      Bytes += VC.capacity() * sizeof(uint64_t) + 48;
    return Bytes;
  };
  Total += ClockBytes(ThreadClocks) + ClockBytes(InheritedClocks) +
           ClockBytes(FinalClocks);
  for (const auto &[Id, VC] : SyncClocks)
    Total += VC.capacity() * sizeof(uint64_t) + 48;
  return Total;
}

std::string HelgrindTool::renderReport(const SymbolTable *Symbols) const {
  std::string Out = formatString(
      "helgrind: %llu possible data race(s)\n",
      static_cast<unsigned long long>(RaceCount));
  for (const RaceReport &R : Races)
    Out += formatString(
        "  race at address %llu: thread %u %s vs thread %u %s\n",
        static_cast<unsigned long long>(R.Address), R.FirstTid,
        R.FirstWasWrite ? "write" : "read", R.SecondTid,
        R.SecondWasWrite ? "write" : "read");
  return Out;
}

// The batch walk, where it can inline the callbacks above.
template class isp::ToolImpl<HelgrindTool>;
