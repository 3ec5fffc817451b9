//===- core/NaiveProfiler.cpp - Set-based trms oracle ------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "core/NaiveProfiler.h"

#include <cassert>

using namespace isp;

NaiveTrmsProfiler::NaiveTrmsProfiler(NaiveProfilerOptions Opts)
    : Options(Opts) {
  Database.setKeepLog(Options.KeepActivationLog);
}

NaiveTrmsProfiler::~NaiveTrmsProfiler() = default;

void NaiveTrmsProfiler::noteThread(ThreadId Tid) {
  if (HaveCurrentTid && CurrentTid == Tid)
    return;
  CurrentTid = Tid;
  HaveCurrentTid = true;
  ++Clock;
}

void NaiveTrmsProfiler::onThreadStart(ThreadId Tid, ThreadId Parent) {
  noteThread(Tid);
  Threads[Tid];
}

void NaiveTrmsProfiler::onThreadEnd(ThreadId Tid) {
  noteThread(Tid);
  ThreadState &TS = Threads[Tid];
  while (!TS.Stack.empty())
    popActivation(Tid, TS);
}

void NaiveTrmsProfiler::onCall(ThreadId Tid, RoutineId Rtn) {
  noteThread(Tid);
  ++Clock;
  ThreadState &TS = Threads[Tid];
  Activation A;
  A.Rtn = Rtn;
  A.BbAtEntry = TS.BbCount;
  TS.Stack.push_back(std::move(A));
}

void NaiveTrmsProfiler::popActivation(ThreadId Tid, ThreadState &TS) {
  assert(!TS.Stack.empty());
  Activation &Top = TS.Stack.back();

  ActivationRecord R;
  R.Tid = Tid;
  R.Rtn = Top.Rtn;
  R.Rms = Top.Rms;
  R.Trms = Top.Trms;
  R.Cost = TS.BbCount - Top.BbAtEntry;
  R.InducedThread = Top.InducedThread;
  R.InducedExternal = Top.InducedExternal;
  Database.recordActivation(R);
  LiveSetEntries -= Top.Live.size() + Top.Accessed.size();
  TS.Stack.pop_back();
}

void NaiveTrmsProfiler::onReturn(ThreadId Tid, RoutineId Rtn) {
  noteThread(Tid);
  ThreadState &TS = Threads[Tid];
  if (TS.Stack.empty())
    return;
  assert(TS.Stack.back().Rtn == Rtn && "mismatched call/return nesting");
  popActivation(Tid, TS);
}

void NaiveTrmsProfiler::onBasicBlock(ThreadId Tid, uint64_t N) {
  noteThread(Tid);
  Threads[Tid].BbCount += N;
}

void NaiveTrmsProfiler::readCell(ThreadId Tid, Addr A) {
  ++Database.GlobalReads;
  ThreadState &TS = Threads[Tid];

  // Classification mirrors the timestamping test ts_t[A] < wts[A]: the
  // location was last written by another thread or the kernel after this
  // thread's latest access.
  auto WriteIt = LastWrites.find(A);
  auto AccessIt = TS.LastAccess.find(A);
  uint64_t LastAccessTime = AccessIt == TS.LastAccess.end() ? 0
                                                            : AccessIt->second;
  bool Induced =
      WriteIt != LastWrites.end() && LastAccessTime < WriteIt->second.Time;
  bool InducedKernel = Induced && WriteIt->second.Kernel;

  if (Induced && !TS.Stack.empty()) {
    if (InducedKernel)
      ++Database.GlobalInducedExternal;
    else
      ++Database.GlobalInducedThread;
  }

  bool CountedPlainFirst = false;
  for (Activation &Act : TS.Stack) {
    // trms (Figure 10): counts iff absent from the live set.
    if (Act.Live.insert(A).second) {
      noteSetGrowth(1);
      ++Act.Trms;
      if (Induced) {
        if (InducedKernel)
          ++Act.InducedExternal;
        else
          ++Act.InducedThread;
      }
    } else {
      assert(!Induced &&
             "foreign write must have removed A from every live set");
    }
    // rms (Definition 1): counts iff the subtree never accessed A.
    if (Act.Accessed.insert(A).second) {
      noteSetGrowth(1);
      CountedPlainFirst = true;
      ++Act.Rms;
    }
  }
  if (CountedPlainFirst && !Induced)
    ++Database.GlobalPlainFirstAccesses;

  TS.LastAccess[A] = Clock;
}

void NaiveTrmsProfiler::onRead(ThreadId Tid, Addr A, uint64_t Cells) {
  noteThread(Tid);
  for (uint64_t I = 0; I != Cells; ++I)
    readCell(Tid, A + I);
}

void NaiveTrmsProfiler::onWrite(ThreadId Tid, Addr A, uint64_t Cells) {
  noteThread(Tid);
  for (uint64_t I = 0; I != Cells; ++I) {
    Addr Address = A + I;
    ThreadState &Self = Threads[Tid];
    for (Activation &Act : Self.Stack) {
      if (Act.Live.insert(Address).second)
        noteSetGrowth(1);
      if (Act.Accessed.insert(Address).second)
        noteSetGrowth(1);
    }
    Self.LastAccess[Address] = Clock;
    // The foreign-write rule: remove from every *other* thread's sets.
    for (auto &[OtherTid, Other] : Threads) {
      if (OtherTid == Tid)
        continue;
      for (Activation &Act : Other.Stack)
        LiveSetEntries -= Act.Live.erase(Address);
    }
    LastWrites[Address] = {Clock, /*Kernel=*/false};
  }
}

void NaiveTrmsProfiler::onKernelRead(ThreadId Tid, Addr A, uint64_t Cells) {
  onRead(Tid, A, Cells);
}

void NaiveTrmsProfiler::onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells) {
  noteThread(Tid);
  // A kernel buffer load invalidates every thread's live sets, including
  // the requesting thread's: the data is new until actually read.
  ++Clock;
  for (uint64_t I = 0; I != Cells; ++I) {
    Addr Address = A + I;
    for (auto &[OtherTid, Other] : Threads)
      for (Activation &Act : Other.Stack)
        LiveSetEntries -= Act.Live.erase(Address);
    LastWrites[Address] = {Clock, /*Kernel=*/true};
  }
}

void NaiveTrmsProfiler::onFinish() {
  for (auto &[Tid, TS] : Threads)
    while (!TS.Stack.empty())
      popActivation(Tid, TS);
}

uint64_t NaiveTrmsProfiler::memoryFootprintBytes() const {
  // Peak set population (the sets die with their activations, so the
  // high-water mark is the honest number) plus the per-thread and
  // global access maps.
  const uint64_t PerSetEntry = sizeof(Addr) + 2 * sizeof(void *);
  uint64_t Total = PeakSetEntries * PerSetEntry;
  for (const auto &[Tid, TS] : Threads) {
    Total += TS.Stack.size() * sizeof(Activation);
    Total += TS.LastAccess.size() * (PerSetEntry + sizeof(uint64_t));
  }
  Total += LastWrites.size() * (PerSetEntry + sizeof(LastWrite));
  return Total;
}

// The batch walk, where it can inline the callbacks above.
template class isp::ToolImpl<NaiveTrmsProfiler>;
