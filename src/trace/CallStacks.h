//===- trace/CallStacks.h - Per-thread open-call stacks ---------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The open Calls of each thread of an event stream, as the profilers'
/// shadow stacks see them: a Call pushes its routine, a Return pops the
/// innermost open Call, a Return on an empty stack is ignored, and
/// ThreadEnd closes every open Call of its thread. Trace readers use it
/// to reject a Return that closes some other routine than its thread's
/// innermost open Call (the profilers assert on one), and routine-
/// filtered collect uses it to track the Calls it forwards.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TRACE_CALLSTACKS_H
#define ISPROF_TRACE_CALLSTACKS_H

#include "support/Compiler.h"
#include "trace/Event.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace isp {

class CallStacks {
public:
  /// True for the kinds that move the stacks: ThreadEnd, Call, Return.
  static bool movesStacks(EventKind Kind) {
    return Kind == EventKind::ThreadEnd || Kind == EventKind::Call ||
           Kind == EventKind::Return;
  }

  void call(ThreadId Tid, uint64_t Rtn) {
    Stack &St = stack(Tid);
    St.reserveNext();
    St.Open[++St.Depth] = Rtn;
  }

  /// Pops \p Tid's innermost open Call when it is \p Rtn; false (and
  /// nothing popped) when the thread has no open Call or its innermost
  /// one is another routine.
  bool popMatching(ThreadId Tid, uint64_t Rtn) {
    Stack &St = stack(Tid);
    if (St.Depth == 0 || St.Open[St.Depth] != Rtn)
      return false;
    --St.Depth;
    return true;
  }

  /// Notes one ThreadEnd, Call or Return (movesStacks) of a stream read
  /// in order. False when it is a Return that closes another routine
  /// than its thread's innermost open Call. Trace readers call it per
  /// event, so it is forced inline and a Call or Return moves its stack
  /// without a branch: which of the two comes next is as good as
  /// random, and a mispredicted branch per event cost the stream reader
  /// more than the stack work itself.
  ISP_ALWAYS_INLINE bool noteEvent(EventKind Kind, ThreadId Tid,
                                   uint64_t Arg0) {
    if (ISP_UNLIKELY(Kind == EventKind::ThreadEnd)) {
      stack(Tid).Depth = 0; // closes every open Call of the thread
      return true;
    }
    Stack &St = stack(Tid);
    St.reserveNext();
    uint64_t *Open = St.Open.data();
    const size_t Depth = St.Depth;
    const bool IsCall = Kind == EventKind::Call;
    const bool Mismatch = !IsCall & (Depth != 0) & (Open[Depth] != Arg0);
    // A Call's routine lands above the top; for a Return the store is
    // dead (the slot lies above the new top).
    Open[Depth + 1] = Arg0;
    St.Depth = Depth + IsCall - (!IsCall & (Depth != 0));
    return !Mismatch;
  }

  void clear() {
    Dense.clear();
    Sparse.clear();
    Last = nullptr;
  }

private:
  /// One thread's open Calls: Open[1..Depth], innermost at Open[Depth].
  /// Open always has room for one more, so a push never checks first.
  struct Stack {
    std::vector<uint64_t> Open = std::vector<uint64_t>(8);
    size_t Depth = 0;

    ISP_ALWAYS_INLINE void reserveNext() {
      if (ISP_UNLIKELY(Depth + 2 > Open.size()))
        Open.resize(2 * Open.size());
    }
  };

  // Ids below DenseThreads (the VM's ids are small and dense) index a
  // table grown on demand; larger ids go through a hash map. So an
  // untrusted thread id costs one entry, never a table sized by its
  // value. Consecutive events mostly come from one thread, whose stack
  // is cached.
  static constexpr ThreadId DenseThreads = 1024;

  ISP_ALWAYS_INLINE Stack &stack(ThreadId Tid) {
    if (ISP_LIKELY(Last != nullptr && LastTid == Tid))
      return *Last;
    return lookup(Tid);
  }
  Stack &lookup(ThreadId Tid) {
    if (Tid >= DenseThreads) {
      Last = &Sparse[Tid];
    } else {
      if (Tid >= Dense.size())
        Dense.resize(static_cast<size_t>(Tid) + 1);
      Last = &Dense[Tid];
    }
    LastTid = Tid;
    return *Last;
  }

  std::vector<Stack> Dense;
  std::unordered_map<ThreadId, Stack> Sparse;
  /// Stack of LastTid; Dense only grows inside lookup, which re-points it.
  Stack *Last = nullptr;
  ThreadId LastTid = 0;
};

} // namespace isp

#endif // ISPROF_TRACE_CALLSTACKS_H
