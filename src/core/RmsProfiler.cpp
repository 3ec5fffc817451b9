//===- core/RmsProfiler.cpp - Sequential input-sensitive profiler ------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "core/RmsProfiler.h"

#include "obs/Obs.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cassert>

using namespace isp;

RmsProfiler::RmsProfiler(RmsProfilerOptions Opts) : Options(Opts) {
  Database.setKeepLog(Options.KeepActivationLog);
}

RmsProfiler::~RmsProfiler() = default;

RmsProfiler::ThreadState &RmsProfiler::state(ThreadId Tid) {
  if (CachedState && CachedTid == Tid)
    return *CachedState;
  if (Tid >= Threads.size())
    Threads.resize(static_cast<size_t>(Tid) + 1);
  std::unique_ptr<ThreadState> &Slot = Threads[Tid];
  if (!Slot)
    Slot = std::make_unique<ThreadState>();
  CachedState = Slot.get();
  CachedTid = Tid;
  return *CachedState;
}

void RmsProfiler::onThreadStart(ThreadId Tid, ThreadId Parent) {
  state(Tid);
}

void RmsProfiler::onThreadEnd(ThreadId Tid) {
  ThreadState &TS = state(Tid);
  while (!TS.Stack.empty())
    popFrame(Tid, TS);
  // The rms shadow is entirely thread-private; release it when the
  // thread dies, keeping the high-water mark for space reports.
  PeakFootprintBytes = std::max(PeakFootprintBytes, currentFootprintBytes());
  EndedTs.add(TS.Ts);
  CachedState = nullptr;
  Threads[Tid].reset();
}

void RmsProfiler::onCall(ThreadId Tid, RoutineId Rtn) {
  ThreadState &TS = state(Tid);
  ++TS.Count;
  Frame F;
  F.Rtn = Rtn;
  F.Ts = TS.Count;
  F.BbAtEntry = TS.BbCount;
  TS.Stack.push_back(F);
}

void RmsProfiler::popFrame(ThreadId Tid, ThreadState &TS) {
  assert(!TS.Stack.empty());
  Frame Top = TS.Stack.back();
  TS.Stack.pop_back();
  assert(Top.PartialRms >= 0 && "partial rms negative at completion");

  ActivationRecord R;
  R.Tid = Tid;
  R.Rtn = Top.Rtn;
  R.Rms = static_cast<uint64_t>(Top.PartialRms);
  R.Trms = R.Rms; // rms-only tool: no induced input is observable
  R.Cost = TS.BbCount - Top.BbAtEntry;
  Database.recordActivation(R);

  if (!TS.Stack.empty())
    TS.Stack.back().PartialRms += Top.PartialRms;
}

void RmsProfiler::onReturn(ThreadId Tid, RoutineId Rtn) {
  ThreadState &TS = state(Tid);
  if (TS.Stack.empty())
    return;
  assert(TS.Stack.back().Rtn == Rtn && "mismatched call/return nesting");
  popFrame(Tid, TS);
}

void RmsProfiler::onBasicBlock(ThreadId Tid, uint64_t N) {
  state(Tid).BbCount += N;
}

void RmsProfiler::onRead(ThreadId Tid, Addr A, uint64_t Cells) {
  ThreadState &TS = state(Tid);
  Database.GlobalReads += Cells;
  if (TS.Stack.empty()) {
    // Accesses outside any activation (prologue code): update the access
    // timestamps so later activations do not miscount, but attribute the
    // reads to no routine.
    TS.Ts.fillRange(A, Cells, TS.Count);
    return;
  }
  // The topmost frame and counter are loop-invariant: nothing in the
  // per-cell body pushes or pops frames, so hoist them out of the range
  // walk (the reference stays valid while the vector is untouched).
  Frame &Top = TS.Stack.back();
  const uint64_t Count = TS.Count;
  TS.Ts.forRange(A, Cells, [&](Addr, uint64_t &TsCell) {
    if (TsCell < Top.Ts) {
      ++Top.PartialRms;
      ++Database.GlobalPlainFirstAccesses;
      if (TsCell != 0) {
        // Deepest pending activation whose subtree performed the previous
        // access already counted this cell; transfer the unit.
        size_t Lo = 0, Hi = TS.Stack.size();
        while (Lo < Hi) {
          size_t Mid = Lo + (Hi - Lo) / 2;
          if (TS.Stack[Mid].Ts <= TsCell)
            Lo = Mid + 1;
          else
            Hi = Mid;
        }
        if (Lo > 0)
          --TS.Stack[Lo - 1].PartialRms;
      }
    }
    TsCell = Count;
  });
}

void RmsProfiler::onWrite(ThreadId Tid, Addr A, uint64_t Cells) {
  ThreadState &TS = state(Tid);
  TS.Ts.fillRange(A, Cells, TS.Count);
}

void RmsProfiler::onKernelRead(ThreadId Tid, Addr A, uint64_t Cells) {
  // A kernel read of guest memory is a read performed on the thread's
  // behalf; the 2012 profiler observed it like any load.
  onRead(Tid, A, Cells);
}

void RmsProfiler::onFinish() {
  for (ThreadId Tid = 0; Tid != Threads.size(); ++Tid) {
    ThreadState *TS = Threads[Tid].get();
    if (!TS)
      continue;
    while (!TS->Stack.empty())
      popFrame(Tid, *TS);
  }
  if (ISP_UNLIKELY(obs::statsEnabled())) {
    // Aggregate across the per-thread timestamp shadows, those of ended
    // threads included (folded in by onThreadEnd).
    ShadowTallies TsTallies = EndedTs;
    for (const std::unique_ptr<ThreadState> &TS : Threads)
      if (TS)
        TsTallies.add(TS->Ts);
    TsTallies.publish("shadow.ts");
    obs::Registry::get()
        .gauge("profiler.peak_footprint_bytes")
        .noteMax(memoryFootprintBytes());
  }
}

uint64_t RmsProfiler::memoryFootprintBytes() const {
  return std::max(PeakFootprintBytes, currentFootprintBytes());
}

uint64_t RmsProfiler::currentFootprintBytes() const {
  uint64_t Total = 0;
  for (const std::unique_ptr<ThreadState> &TS : Threads) {
    if (!TS)
      continue;
    Total += TS->Ts.totalBytes();
    Total += TS->Stack.capacity() * sizeof(Frame);
  }
  for (const auto &[Key, Profile] : Database.threadRoutineProfiles())
    Total += Profile.footprintBytes();
  return Total;
}

// The batch walk, where it can inline the callbacks above.
template class isp::ToolImpl<RmsProfiler>;
