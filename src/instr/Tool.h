//===- instr/Tool.h - Analysis tool callback interface ----------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The boundary between the instrumentation substrate and analyses. Every
/// analysis (the aprof profilers, the memcheck/callgrind/helgrind
/// analogues, the null tool) implements Tool; the VM interpreter and the
/// trace replayer drive Tools through these callbacks. This mirrors how
/// Valgrind tools subscribe to the VEX event stream in the paper's
/// Section 5.
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

/// Where a tool's callbacks may run when the dispatcher pipelines
/// delivery (see Dispatcher.h). Whatever the delivery, the
/// no-reentrancy guarantee holds: every tool consumes its batches in
/// publication order on exactly one thread, so no callback is ever
/// reentered and no tool needs internal locking.
enum class ToolAffinity : uint8_t {
  /// Callbacks must run on the thread that produces events (the VM /
  /// replay thread). The dispatcher delivers to such tools
  /// synchronously there. This is the conservative default: a tool
  /// that has not audited its thread confinement never silently runs on
  /// a worker.
  DispatchThread,
  /// Callbacks may run on a dispatcher worker thread, but all
  /// CoScheduled tools must share the *same* worker. Declared by the
  /// input-sensitive profilers: each keeps per-thread shadows but shares
  /// a global wts shadow and timestamp counter across guest threads, so
  /// the whole profiler family is kept on one serialized consumer.
  CoScheduled,
  /// Callbacks may run on any single fixed worker thread. Correct for
  /// tools whose entire analysis state is instance-private and touched
  /// only from callbacks.
  AnyWorker,
};

/// Base class for analysis tools. All callbacks default to no-ops so a
/// tool overrides only the events it cares about; the dispatcher calls
/// them in trace order (the substrate serializes threads, so no callback
/// is ever reentered).
class Tool {
public:
  virtual ~Tool();

  /// Declares where this tool's callbacks may run under pipelined
  /// delivery. Defaults to DispatchThread (the producer thread) so
  /// unaudited tools stay safe; every shipped tool overrides it.
  virtual ToolAffinity threadAffinity() const {
    return ToolAffinity::DispatchThread;
  }

  /// Called once before the first event, with the symbol table of the
  /// program under analysis (may be null for anonymous traces).
  virtual void onStart(const SymbolTable *Symbols) {}
  /// Called once after the last event.
  virtual void onFinish() {}

  virtual void onThreadStart(ThreadId Tid, ThreadId Parent) {}
  virtual void onThreadEnd(ThreadId Tid) {}
  virtual void onCall(ThreadId Tid, RoutineId Rtn) {}
  virtual void onReturn(ThreadId Tid, RoutineId Rtn) {}
  virtual void onBasicBlock(ThreadId Tid, uint64_t Count) {}
  virtual void onRead(ThreadId Tid, Addr A, uint64_t Cells) {}
  virtual void onWrite(ThreadId Tid, Addr A, uint64_t Cells) {}
  virtual void onKernelRead(ThreadId Tid, Addr A, uint64_t Cells) {}
  virtual void onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells) {}
  virtual void onSyncAcquire(ThreadId Tid, SyncId Id, bool IsLock) {}
  virtual void onSyncRelease(ThreadId Tid, SyncId Id, bool IsLock) {}
  virtual void onThreadCreate(ThreadId Tid, ThreadId Child) {}
  virtual void onThreadJoin(ThreadId Tid, ThreadId Child) {}
  virtual void onAlloc(ThreadId Tid, Addr A, uint64_t Cells) {}
  virtual void onFree(ThreadId Tid, Addr A) {}

  /// A short identifier used in benchmark tables ("aprof-trms", ...).
  virtual std::string name() const = 0;

  /// Bytes of analysis state currently held (shadow memories, stacks,
  /// profile maps). Used for the paper's space-overhead comparisons.
  virtual uint64_t memoryFootprintBytes() const { return 0; }

  /// Input-sensitive profilers expose their database here; other tools
  /// return null. (Hand-rolled dispatch — the project builds without
  /// relying on RTTI.)
  virtual class ProfileDatabase *profileDatabase() { return nullptr; }

  /// Dispatches one decoded trace event to the matching callback: the
  /// per-event reference form, used by replayTrace and the tests that
  /// check the batch walk against it.
  void handleEvent(const EventRecord &E) {
    switch (E.Kind) {
    case EventKind::ThreadStart:
      onThreadStart(E.Tid, static_cast<ThreadId>(E.Arg0));
      return;
    case EventKind::ThreadEnd:
      onThreadEnd(E.Tid);
      return;
    case EventKind::Call:
      onCall(E.Tid, static_cast<RoutineId>(E.Arg0));
      return;
    case EventKind::Return:
      onReturn(E.Tid, static_cast<RoutineId>(E.Arg0));
      return;
    case EventKind::BasicBlock:
      onBasicBlock(E.Tid, E.Arg1);
      return;
    case EventKind::Read:
      onRead(E.Tid, E.Arg0, E.Arg1);
      return;
    case EventKind::Write:
      onWrite(E.Tid, E.Arg0, E.Arg1);
      return;
    case EventKind::KernelRead:
      onKernelRead(E.Tid, E.Arg0, E.Arg1);
      return;
    case EventKind::KernelWrite:
      onKernelWrite(E.Tid, E.Arg0, E.Arg1);
      return;
    case EventKind::SyncAcquire:
      onSyncAcquire(E.Tid, static_cast<SyncId>(E.Arg0), E.Arg1 != 0);
      return;
    case EventKind::SyncRelease:
      onSyncRelease(E.Tid, static_cast<SyncId>(E.Arg0), E.Arg1 != 0);
      return;
    case EventKind::ThreadCreate:
      onThreadCreate(E.Tid, static_cast<ThreadId>(E.Arg0));
      return;
    case EventKind::ThreadJoin:
      onThreadJoin(E.Tid, static_cast<ThreadId>(E.Arg0));
      return;
    case EventKind::Alloc:
      onAlloc(E.Tid, E.Arg0, E.Arg1);
      return;
    case EventKind::Free:
      onFree(E.Tid, E.Arg0);
      return;
    }
    ISP_UNREACHABLE("unknown event kind");
  }

  /// Dispatches a batch of \p Count packed stream words in order. A
  /// batch is a flushed dispatcher batch or a decoded trace-stream chunk;
  /// either decodes standalone. Every tool sees exactly the callbacks
  /// that decoding the words and calling handleEvent on each record
  /// would give it. The default body is walkBatch over Tool, so each
  /// callback is a virtual call; a `final` tool overrides this with the
  /// one line `walkBatch(*this, Words, Count)`, which instantiates the
  /// walk for its own type and so calls (and can inline) its callbacks
  /// directly.
  virtual void handleBatch(const Event *Words, size_t Count) {
    walkBatch(*this, Words, Count);
  }

protected:
  /// The one walk over packed words behind every handleBatch. It steps
  /// over main/follow-on pairs, reads the second argument from a
  /// follow-on word, and stops at a record whose follow-on word is cut
  /// off by the end of the batch — exactly the records decodeEvent
  /// yields. \p ToolT is the static type the callbacks are called
  /// through.
  template <typename ToolT>
  ISP_ALWAYS_INLINE static void walkBatch(ToolT &T, const Event *Words,
                                          size_t Count) {
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
        T.onThreadEnd(Tid);
        continue;
      case EventKind::Call:
        T.onCall(Tid, static_cast<RoutineId>(M.Arg));
        continue;
      case EventKind::Return:
        T.onReturn(Tid, static_cast<RoutineId>(M.Arg));
        continue;
      case EventKind::BasicBlock:
        // The main word carries a block's count (see trace/Event.h).
        T.onBasicBlock(Tid, M.Arg);
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
};

} // namespace isp

#endif // ISPROF_INSTR_TOOL_H
