//===- core/TrmsProfiler.cpp - Read/write timestamping profiler --------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "core/TrmsProfiler.h"

#include "obs/Obs.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cassert>

using namespace isp;

namespace {

/// wts cells pack (time << 1) | kernelBit so one shadow lookup yields both
/// the latest-write timestamp and whether that write came from the kernel.
inline uint64_t packWts(uint64_t Time, bool Kernel) {
  return (Time << 1) | (Kernel ? 1u : 0u);
}
inline uint64_t wtsTime(uint64_t Packed) { return Packed >> 1; }
inline bool wtsKernel(uint64_t Packed) { return (Packed & 1) != 0; }

} // namespace

template <typename ShadowT>
TrmsProfilerT<ShadowT>::TrmsProfilerT(TrmsProfilerOptions Opts)
    : Options(Opts) {
  Database.setKeepLog(Options.KeepActivationLog);
}

template <typename ShadowT> TrmsProfilerT<ShadowT>::~TrmsProfilerT() = default;

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::onStart(const SymbolTable *Symbols) {
  (void)Symbols;
}

template <typename ShadowT>
typename TrmsProfilerT<ShadowT>::ThreadState &
TrmsProfilerT<ShadowT>::stateSlow(ThreadId Tid) {
  if (Tid >= Threads.size())
    Threads.resize(static_cast<size_t>(Tid) + 1);
  std::unique_ptr<ThreadState> &Slot = Threads[Tid];
  if (!Slot)
    Slot = std::make_unique<ThreadState>();
  if (HaveCurrentTid && CurrentTid == Tid)
    CurrentState = Slot.get();
  return *Slot;
}

template <typename ShadowT>
typename TrmsProfilerT<ShadowT>::ThreadState &
TrmsProfilerT<ShadowT>::state(ThreadId Tid) {
  if (CurrentState && HaveCurrentTid && CurrentTid == Tid)
    return *CurrentState;
  return stateSlow(Tid);
}

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::noteThread(ThreadId Tid) {
  // The merged trace is serialized; a change of running thread is a
  // thread switch and bumps the global counter (Figure 11). Traces
  // carry no switch records: the change of tid is the switch.
  if (HaveCurrentTid && CurrentTid == Tid)
    return;
  CurrentTid = Tid;
  HaveCurrentTid = true;
  CurrentState = nullptr; // re-pointed by the next state() call
  bumpCount();
}

template <typename ShadowT> void TrmsProfilerT<ShadowT>::bumpCount() {
  if (Count + 1 >= Options.CounterLimit)
    renumber();
  ++Count;
}

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::onThreadStart(ThreadId Tid, ThreadId Parent) {
  noteThread(Tid);
  state(Tid);
}

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::onThreadEnd(ThreadId Tid) {
  noteThread(Tid);
  ThreadState &TS = state(Tid);
  // Unwind any activations still pending when the thread dies, so their
  // (complete) partial sums are recorded.
  while (!TS.Stack.empty())
    popFrame(Tid, TS);
  // A dead thread's access timestamps can never be consulted again (the
  // read test only compares a thread's own ts against the global wts),
  // so its shadow is released — essential for fork-join programs that
  // spawn thousands of short-lived workers. Peak usage is kept for the
  // space-overhead reports.
  PeakFootprintBytes = std::max(PeakFootprintBytes, currentFootprintBytes());
  EndedTs.add(TS.Ts);
  CurrentState = nullptr;
  Threads[Tid].reset();
}

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::onCall(ThreadId Tid, RoutineId Rtn) {
  noteThread(Tid);
  ThreadState &TS = state(Tid);
  bumpCount();
  Frame F;
  F.Rtn = Rtn;
  F.Ts = Count;
  F.BbAtEntry = TS.BbCount;
  TS.Stack.push_back(F);
}

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::popFrame(ThreadId Tid, ThreadState &TS) {
  assert(!TS.Stack.empty() && "return with empty shadow stack");
  Frame Top = TS.Stack.back();
  TS.Stack.pop_back();

  // Upon completion the partial trms equals the activation's true trms
  // (Invariant 2 with i = top), and likewise for rms.
  assert(Top.PartialTrms >= 0 && "partial trms negative at completion");
  assert(Top.PartialRms >= 0 && "partial rms negative at completion");

  ActivationRecord R;
  R.Tid = Tid;
  R.Rtn = Top.Rtn;
  R.Rms = static_cast<uint64_t>(Top.PartialRms);
  R.Trms = static_cast<uint64_t>(Top.PartialTrms);
  R.Cost = TS.BbCount - Top.BbAtEntry;
  R.InducedThread = Top.PartialInducedThread;
  R.InducedExternal = Top.PartialInducedExternal;
  Database.recordActivation(R);

  // Preserve Invariant 2 for the ancestors: fold the completed child's
  // partials into its parent.
  if (!TS.Stack.empty()) {
    Frame &Parent = TS.Stack.back();
    Parent.PartialTrms += Top.PartialTrms;
    Parent.PartialRms += Top.PartialRms;
    Parent.PartialInducedThread += Top.PartialInducedThread;
    Parent.PartialInducedExternal += Top.PartialInducedExternal;
  }
}

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::onReturn(ThreadId Tid, RoutineId Rtn) {
  noteThread(Tid);
  ThreadState &TS = state(Tid);
  if (TS.Stack.empty())
    return;
  assert(TS.Stack.back().Rtn == Rtn && "mismatched call/return nesting");
  popFrame(Tid, TS);
}

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::onBasicBlock(ThreadId Tid, uint64_t N) {
  noteThread(Tid);
  state(Tid).BbCount += N;
}

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::onRead(ThreadId Tid, Addr A, uint64_t Cells) {
  noteThread(Tid);
  ThreadState &TS = state(Tid);
  Database.GlobalReads += Cells;
  if (TS.Stack.empty()) {
    // Accesses outside any activation (prologue code): update the access
    // timestamps so later activations do not miscount, but attribute the
    // reads to no routine.
    TS.Ts.fillRange(A, Cells, Count);
    return;
  }
  // Hoisted out of the cell loop: the topmost frame and the counter are
  // invariant across a multi-cell access (nothing below pushes or pops
  // frames, so the reference stays valid), and the range walk resolves
  // each shadow chunk once per 512-cell span instead of once per cell.
  // The per-cell body is forced into the range walk's loop: left to
  // itself, GCC at -O2 calls it out of line once per read cell.
  Frame &Top = TS.Stack.back();
  const uint64_t CountNow = Count;
  TS.Ts.forRange(A, Cells, [&](Addr Address,
                               uint64_t &TsCell) ISP_ALWAYS_INLINE_LAMBDA {
    // Redundancy suppression: a cell this thread already accessed at the
    // current counter value changes no state. Every wts is at most the
    // counter and so is the top frame's ts, so with ts == count neither
    // first-access test below can fire, and the store would rewrite the
    // cell with its own value. Renumbering restarts the counter above
    // every renumbered stamp, so only a stamp taken since then can match.
    if (TsCell == CountNow)
      return;
    uint64_t WPacked = Wts.get(Address);
    uint64_t WTime = wtsTime(WPacked);

    // The ancestor adjustment index: deepest pending activation whose
    // timestamp is <= ts_t[A]; that activation's subtree performed the
    // previous access, so it already counted the location. Shared by the
    // rms and trms updates below; computed lazily.
    bool NeedAncestor = TsCell != 0 && TsCell < Top.Ts;
    size_t AncestorIndex = 0;
    bool HaveAncestor = false;
    if (NeedAncestor) {
      // Binary search over strictly increasing frame timestamps.
      size_t Lo = 0, Hi = TS.Stack.size();
      while (Lo < Hi) {
        size_t Mid = Lo + (Hi - Lo) / 2;
        if (TS.Stack[Mid].Ts <= TsCell)
          Lo = Mid + 1;
        else
          Hi = Mid;
      }
      if (Lo > 0) {
        AncestorIndex = Lo - 1;
        HaveAncestor = true;
      }
    }

    // Sequential rms (Definition 1): a read counts iff the thread's last
    // access to A predates the current activation; if some pending
    // ancestor's subtree accessed A earlier, transfer the unit from it.
    if (TsCell < Top.Ts) {
      ++Top.PartialRms;
      if (HaveAncestor)
        --TS.Stack[AncestorIndex].PartialRms;
    }

    // trms (Figure 11): induced first-access wins over plain first-access
    // (Example 2's classification); an induced access is new input for
    // every pending activation, so no ancestor adjustment applies.
    if (TsCell < WTime) {
      ++Top.PartialTrms;
      if (wtsKernel(WPacked)) {
        ++Top.PartialInducedExternal;
        ++Database.GlobalInducedExternal;
      } else {
        ++Top.PartialInducedThread;
        ++Database.GlobalInducedThread;
      }
    } else if (TsCell < Top.Ts) {
      ++Top.PartialTrms;
      ++Database.GlobalPlainFirstAccesses;
      if (HaveAncestor)
        --TS.Stack[AncestorIndex].PartialTrms;
    }

    TsCell = CountNow;
  });
}

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::onWrite(ThreadId Tid, Addr A, uint64_t Cells) {
  noteThread(Tid);
  ThreadState &TS = state(Tid);
  TS.Ts.fillRange(A, Cells, Count);
  Wts.fillRange(A, Cells, packWts(Count, /*Kernel=*/false));
}

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::onKernelRead(ThreadId Tid, Addr A,
                                          uint64_t Cells) {
  // The OS reads guest memory to send it to a device; Figure 12 treats
  // this as a read performed by the thread, as if the system call were a
  // normal subroutine.
  onRead(Tid, A, Cells);
}

template <typename ShadowT>
void TrmsProfilerT<ShadowT>::onKernelWrite(ThreadId Tid, Addr A,
                                           uint64_t Cells) {
  noteThread(Tid);
  // Figure 12: a buffer load from a device must not count as thread input
  // by itself — only locations the thread actually reads later should.
  // Bump the counter once and stamp the buffer with a kernel-tagged
  // global write timestamp strictly larger than every thread-local one,
  // forcing the induced test to fire on a subsequent genuine read.
  // The thread-local timestamps are deliberately left untouched.
  bumpCount();
  Wts.fillRange(A, Cells, packWts(Count, /*Kernel=*/true));
}

template <typename ShadowT> void TrmsProfilerT<ShadowT>::onFinish() {
  for (ThreadId Tid = 0; Tid != Threads.size(); ++Tid) {
    ThreadState *TS = Threads[Tid].get();
    if (!TS)
      continue;
    while (!TS->Stack.empty())
      popFrame(Tid, *TS);
  }
  if (ISP_UNLIKELY(obs::statsEnabled())) {
    obs::Registry &R = obs::Registry::get();
    R.counter("profiler.renumbering_epochs").add(Renumberings);
    ShadowTallies WtsTallies;
    WtsTallies.add(Wts);
    WtsTallies.publish("shadow.wts");
    // The per-thread ts shadows interleave globals, heap and stack
    // chunks just like the wts; their tallies include threads that
    // already ended (folded in by onThreadEnd).
    ShadowTallies TsTallies = EndedTs;
    for (const std::unique_ptr<ThreadState> &TS : Threads)
      if (TS)
        TsTallies.add(TS->Ts);
    TsTallies.publish("shadow.ts");
    R.gauge("profiler.peak_footprint_bytes").noteMax(memoryFootprintBytes());
  }
}

template <typename ShadowT>
uint64_t TrmsProfilerT<ShadowT>::memoryFootprintBytes() const {
  return std::max(PeakFootprintBytes, currentFootprintBytes());
}

template <typename ShadowT>
uint64_t TrmsProfilerT<ShadowT>::currentFootprintBytes() const {
  uint64_t Total = Wts.totalBytes();
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

template <typename ShadowT> void TrmsProfilerT<ShadowT>::renumber() {
  ++Renumberings;

  // Collect the timestamps of all pending activations across all threads
  // (distinct by construction: each call bumps the counter) and sort.
  std::vector<uint64_t> A;
  for (const std::unique_ptr<ThreadState> &TS : Threads) {
    if (!TS)
      continue;
    for (const Frame &F : TS->Stack)
      A.push_back(F.Ts);
  }
  std::sort(A.begin(), A.end());
  assert(std::adjacent_find(A.begin(), A.end()) == A.end() &&
         "activation timestamps must be distinct");

  // rankOf(T) = number of pending-activation timestamps <= T, i.e. the
  // 1-based rank of the latest activation started at or before T (0 when
  // T predates them all). Rank r is renumbered to 3r, leaving room at
  // 3r+1 for "written after activation r started" and 3r+2 for "read
  // back by the thread after that write" — the three cases of Figure 13.
  auto rankOf = [&A](uint64_t T) -> uint64_t {
    return static_cast<uint64_t>(
        std::upper_bound(A.begin(), A.end(), T) - A.begin());
  };

  // 1. Thread-local timestamps. These must be rewritten while the global
  // wts still holds original values, because each cell's new value
  // depends on its order relative to the location's last write.
  for (std::unique_ptr<ThreadState> &TS : Threads) {
    if (!TS)
      continue;
    TS->Ts.forEachNonZero([&](Addr Address, uint64_t &TsCell) {
      uint64_t J = rankOf(TsCell);
      uint64_t WPacked = Wts.get(Address);
      if (WPacked != 0) {
        uint64_t WTime = wtsTime(WPacked);
        uint64_t Q = rankOf(WTime);
        if (J == Q) {
          // ts and the last write fall between the same two activations;
          // their relative order is all that must survive.
          if (TsCell == WTime)
            TsCell = 3 * Q + 1; // the thread itself performed that write
          else if (TsCell < WTime)
            TsCell = 3 * Q; // foreign write after our access: induced
          else
            TsCell = 3 * Q + 2; // we already read the foreign value
          return;
        }
      }
      TsCell = 3 * J;
    });
  }

  // 2. Global write timestamps: wts lands at 3q+1, above activation q
  // and below activation q+1.
  Wts.forEachNonZero([&](Addr Address, uint64_t &WCell) {
    (void)Address;
    uint64_t Q = rankOf(wtsTime(WCell));
    WCell = packWts(3 * Q + 1, wtsKernel(WCell));
  });

  // 3. Activation timestamps, in rank order.
  for (std::unique_ptr<ThreadState> &TS : Threads) {
    if (!TS)
      continue;
    for (Frame &F : TS->Stack)
      F.Ts = 3 * rankOf(F.Ts);
  }

  // 4. Restart the counter above every renumbered timestamp.
  Count = 3 * static_cast<uint64_t>(A.size()) + 3;
  if (Count + 2 >= Options.CounterLimit)
    reportFatalError("trms counter limit too small for the pending "
                     "activation count; raise TrmsProfilerOptions::"
                     "CounterLimit");
}

namespace isp {
template class TrmsProfilerT<ThreeLevelShadow<uint64_t>>;
template class TrmsProfilerT<DenseShadow<uint64_t>>;
// The batch walks, where they can inline the callbacks above.
template class ToolImpl<TrmsProfiler>;
template class ToolImpl<DenseTrmsProfiler>;
} // namespace isp
