//===- instr/Tool.h - Analysis tool interface -------------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The boundary between the instrumentation substrate and analyses. Every
/// analysis (the aprof profilers, the memcheck/callgrind/helgrind
/// analogues, the null tool) is a Tool, and takes its events one way:
/// the dispatcher hands it batches of packed stream words
/// (trace/Event.h) through handleBatch, live from the VM or decoded from
/// a recorded stream. This mirrors how Valgrind tools subscribe to the
/// VEX event stream in the paper's Section 5, where every tool gets its
/// events from one core in the same way.
///
/// A tool derives from ToolImpl<Itself>, whose handleBatch walks the
/// words and calls the tool's per-event callbacks through the tool's own
/// type: the callbacks are not virtual, so the walk can inline them.
/// Tool itself declares only what the dispatcher and the driver call.
/// onBasicBlock has no record of its own: the walk calls it with the
/// block count a Call, Return or ThreadEnd carries, just before that
/// boundary's own callback.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_INSTR_TOOL_H
#define ISPROF_INSTR_TOOL_H

#include "support/Compiler.h"
#include "trace/Event.h"

#include <cstdint>
#include <string>

namespace isp {

class SymbolTable;

/// What the dispatcher and the driver call on an analysis tool.
/// Analyses derive from ToolImpl, which supplies handleBatch.
///
/// No reentrancy: whatever the delivery (Dispatcher.h), a tool consumes
/// its batches in publication order on exactly one thread, so no
/// callback is ever reentered and no tool needs internal locking. A
/// tool's analysis state must be its own: the dispatcher may run any
/// two tools on different threads.
class Tool {
public:
  virtual ~Tool();

  /// Called once before the first batch, with the symbol table of the
  /// program under analysis (may be null for anonymous traces).
  virtual void onStart(const SymbolTable *Symbols) {}
  /// Called once after the last batch.
  virtual void onFinish() {}

  /// Consumes \p Count packed stream words in order. A batch is a
  /// flushed dispatcher batch or a decoded trace-stream chunk; either
  /// decodes standalone, and a record whose follow-on word is cut off by
  /// the end of the batch is not an event.
  virtual void handleBatch(const Event *Words, size_t Count) = 0;

  /// A short identifier used in benchmark tables ("aprof-trms", ...).
  virtual std::string name() const = 0;

  /// Bytes of analysis state currently held (shadow memories, stacks,
  /// profile maps). Used for the paper's space-overhead comparisons.
  virtual uint64_t memoryFootprintBytes() const { return 0; }

  /// Input-sensitive profilers expose their database here; other tools
  /// return null. (Hand-rolled dispatch — the project builds without
  /// relying on RTTI.)
  virtual class ProfileDatabase *profileDatabase() { return nullptr; }
};

/// The base of every analysis: \p DerivedT publicly declares the
/// per-event callbacks it cares about (hiding the no-op defaults below),
/// and handleBatch walks each batch as \p DerivedT, so every callback is
/// a direct call.
///
/// handleBatch is defined below the class, not inline, so an
/// `extern template class ToolImpl<X>;` in X's header keeps other
/// translation units from instantiating it. A tool whose callbacks live
/// in a .cpp declares that in its header and instantiates the base at
/// the end of the .cpp, where the walk sees the callbacks' bodies and
/// can inline them.
template <typename DerivedT> class ToolImpl : public Tool {
public:
  void handleBatch(const Event *Words, size_t Count) override;

  void onThreadStart(ThreadId Tid, ThreadId Parent) {}
  void onThreadEnd(ThreadId Tid) {}
  void onCall(ThreadId Tid, RoutineId Rtn) {}
  void onReturn(ThreadId Tid, RoutineId Rtn) {}
  void onBasicBlock(ThreadId Tid, uint64_t Count) {}
  void onRead(ThreadId Tid, Addr A, uint64_t Cells) {}
  void onWrite(ThreadId Tid, Addr A, uint64_t Cells) {}
  void onKernelRead(ThreadId Tid, Addr A, uint64_t Cells) {}
  void onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells) {}
  void onSyncAcquire(ThreadId Tid, SyncId Id, bool IsLock) {}
  void onSyncRelease(ThreadId Tid, SyncId Id, bool IsLock) {}
  void onThreadCreate(ThreadId Tid, ThreadId Child) {}
  void onThreadJoin(ThreadId Tid, ThreadId Child) {}
  void onAlloc(ThreadId Tid, Addr A, uint64_t Cells) {}
  void onFree(ThreadId Tid, Addr A) {}

private:
  /// The walk behind handleBatch, always inlined into it. It is a member
  /// template so that explicitly instantiating ToolImpl<X> does not also
  /// emit it as a function of its own; with GCC 12 at -O2, either that or
  /// writing the loop as handleBatch's own body changes how the walk
  /// inlines the callbacks and allocates registers.
  template <typename ToolT>
  ISP_ALWAYS_INLINE static void walk(ToolT &T, const Event *Words,
                                     size_t Count);
};

template <typename DerivedT>
void ToolImpl<DerivedT>::handleBatch(const Event *Words, size_t Count) {
  walk(static_cast<DerivedT &>(*this), Words, Count);
}

/// The one walk over packed words. It steps over main/follow-on pairs,
/// reads the second argument from a follow-on word, and stops at a
/// record whose follow-on word is cut off by the end of the batch —
/// exactly the records decodeEvent yields. A Call, Return or ThreadEnd
/// that carries blocks (trace/Event.h) reaches onBasicBlock first, so
/// the blocks are charged to the frames open before the boundary.
template <typename DerivedT>
template <typename ToolT>
void ToolImpl<DerivedT>::walk(ToolT &T, const Event *Words, size_t Count) {
  const Event *W = Words;
  const Event *const End = Words + Count;
  while (W != End) {
    const Event &M = *W++;
    const EventKind K = M.kind();
    const ThreadId Tid = M.Tid;
    uint64_t Second = eventSecondaryDefault(K);
    if (M.hasFollow()) {
      if (W == End)
        return; // the record's follow-on word is cut off
      Second = W->Arg;
      ++W;
    }
    switch (K) {
    case EventKind::ThreadStart:
      T.onThreadStart(Tid, static_cast<ThreadId>(M.Arg));
      continue;
    case EventKind::ThreadEnd:
      if (Second != 0)
        T.onBasicBlock(Tid, Second);
      T.onThreadEnd(Tid);
      continue;
    case EventKind::Call:
      if (Second != 0)
        T.onBasicBlock(Tid, Second);
      T.onCall(Tid, static_cast<RoutineId>(M.Arg));
      continue;
    case EventKind::Return:
      if (Second != 0)
        T.onBasicBlock(Tid, Second);
      T.onReturn(Tid, static_cast<RoutineId>(M.Arg));
      continue;
    case EventKind::Read:
      T.onRead(Tid, M.Arg, Second);
      continue;
    case EventKind::Write:
      T.onWrite(Tid, M.Arg, Second);
      continue;
    case EventKind::KernelRead:
      T.onKernelRead(Tid, M.Arg, Second);
      continue;
    case EventKind::KernelWrite:
      T.onKernelWrite(Tid, M.Arg, Second);
      continue;
    case EventKind::SyncAcquire:
      T.onSyncAcquire(Tid, static_cast<SyncId>(M.Arg), Second != 0);
      continue;
    case EventKind::SyncRelease:
      T.onSyncRelease(Tid, static_cast<SyncId>(M.Arg), Second != 0);
      continue;
    case EventKind::ThreadCreate:
      T.onThreadCreate(Tid, static_cast<ThreadId>(M.Arg));
      continue;
    case EventKind::ThreadJoin:
      T.onThreadJoin(Tid, static_cast<ThreadId>(M.Arg));
      continue;
    case EventKind::Alloc:
      T.onAlloc(Tid, M.Arg, Second);
      continue;
    case EventKind::Free:
      T.onFree(Tid, M.Arg);
      continue;
    }
    ISP_UNREACHABLE("unknown event kind");
  }
}

} // namespace isp

#endif // ISPROF_INSTR_TOOL_H
