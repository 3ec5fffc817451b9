//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test suites: a fluent trace builder for
/// hand-constructed executions (the paper's figures), shorthands for
/// running tools over traces and fetching per-routine results, and a
/// record sink that keeps what a dispatcher delivers.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TESTS_TESTUTIL_H
#define ISPROF_TESTS_TESTUTIL_H

#include "core/ProfileData.h"
#include "instr/Dispatcher.h"
#include "trace/Event.h"

#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

namespace isp {

/// Builds totally ordered traces. bb() adds to its thread's block count,
/// which the thread's next call(), ret() or end() carries, as the VM
/// does (trace/Event.h); a count with no later boundary is not in the
/// trace.
class TraceBuilder {
public:
  TraceBuilder &start(ThreadId Tid, ThreadId Parent = 0) {
    Events.push_back(EventRecord::threadStart(Tid, Parent));
    return *this;
  }
  TraceBuilder &end(ThreadId Tid) {
    Events.push_back(EventRecord::threadEnd(Tid, takeBlocks(Tid)));
    return *this;
  }
  TraceBuilder &call(ThreadId Tid, RoutineId Rtn) {
    Events.push_back(EventRecord::call(Tid, Rtn, takeBlocks(Tid)));
    return *this;
  }
  TraceBuilder &ret(ThreadId Tid, RoutineId Rtn) {
    Events.push_back(EventRecord::ret(Tid, Rtn, takeBlocks(Tid)));
    return *this;
  }
  TraceBuilder &read(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    Events.push_back(EventRecord::read(Tid, A, Cells));
    return *this;
  }
  TraceBuilder &write(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    Events.push_back(EventRecord::write(Tid, A, Cells));
    return *this;
  }
  TraceBuilder &kernelRead(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    Events.push_back(EventRecord::kernelRead(Tid, A, Cells));
    return *this;
  }
  TraceBuilder &kernelWrite(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    Events.push_back(EventRecord::kernelWrite(Tid, A, Cells));
    return *this;
  }
  TraceBuilder &bb(ThreadId Tid, uint64_t Count = 1) {
    Blocks[Tid] += Count;
    return *this;
  }

  const std::vector<EventRecord> &events() const { return Events; }

private:
  uint64_t takeBlocks(ThreadId Tid) { return std::exchange(Blocks[Tid], 0); }

  std::vector<EventRecord> Events;
  std::map<ThreadId, uint64_t> Blocks;
};

/// Encodes \p Events into packed words and hands them to \p T as one
/// batch, bracketed by onStart/onFinish: every record reaches \p T as
/// it is, with no compaction.
inline void walkTrace(const std::vector<EventRecord> &Events, Tool &T,
                      const SymbolTable *Symbols = nullptr) {
  std::vector<Event> Words = encodeEventStream(Events);
  T.onStart(Symbols);
  T.handleBatch(Words.data(), Words.size());
  T.onFinish();
}

/// Runs \p ProfilerT over \p Events with activation logging and returns
/// the database.
template <typename ProfilerT, typename OptionsT>
ProfileDatabase profileTrace(const std::vector<EventRecord> &Events,
                             OptionsT Options) {
  Options.KeepActivationLog = true;
  ProfilerT Profiler(Options);
  walkTrace(Events, Profiler);
  return Profiler.takeDatabase();
}

/// Records every callback with its arguments, and the threads the
/// callbacks ran on.
class RecordingTool final : public ToolImpl<RecordingTool> {
public:
  /// A callback: a letter for its kind, then its arguments in order.
  using Entry = std::tuple<char, uint64_t, uint64_t, uint64_t>;

  std::string name() const override { return "recording"; }

  void onThreadStart(ThreadId Tid, ThreadId Parent) {
    note('S', Tid, Parent);
  }
  void onThreadEnd(ThreadId Tid) { note('E', Tid); }
  void onCall(ThreadId Tid, RoutineId Rtn) { note('C', Tid, Rtn); }
  void onReturn(ThreadId Tid, RoutineId Rtn) { note('R', Tid, Rtn); }
  void onBasicBlock(ThreadId Tid, uint64_t Count) { note('B', Tid, Count); }
  void onRead(ThreadId Tid, Addr A, uint64_t Cells) {
    note('r', Tid, A, Cells);
  }
  void onWrite(ThreadId Tid, Addr A, uint64_t Cells) {
    note('w', Tid, A, Cells);
  }
  void onKernelRead(ThreadId Tid, Addr A, uint64_t Cells) {
    note('k', Tid, A, Cells);
  }
  void onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells) {
    note('K', Tid, A, Cells);
  }
  void onSyncAcquire(ThreadId Tid, SyncId Id, bool IsLock) {
    note('a', Tid, Id, IsLock);
  }
  void onSyncRelease(ThreadId Tid, SyncId Id, bool IsLock) {
    note('l', Tid, Id, IsLock);
  }
  void onThreadCreate(ThreadId Tid, ThreadId Child) { note('c', Tid, Child); }
  void onThreadJoin(ThreadId Tid, ThreadId Child) { note('j', Tid, Child); }
  void onAlloc(ThreadId Tid, Addr A, uint64_t Cells) {
    note('m', Tid, A, Cells);
  }
  void onFree(ThreadId Tid, Addr A) { note('f', Tid, A); }

  std::vector<Entry> Entries;
  std::set<std::thread::id> Threads;

private:
  void note(char Kind, uint64_t A, uint64_t B = 0, uint64_t C = 0) {
    Entries.emplace_back(Kind, A, B, C);
    Threads.insert(std::this_thread::get_id());
  }
};

/// Keeps every word a dispatcher delivers, in order. Read Words (or
/// decodeEventStream(Words)) only after the dispatcher's finish().
class WordSink : public EventDispatcher::RecordSink {
public:
  void recordBatch(const Event *Batch, size_t Count) override {
    Words.insert(Words.end(), Batch, Batch + Count);
  }
  std::vector<Event> Words;
};

/// First activation record of routine \p Rtn in \p Database's log.
inline const ActivationRecord *findActivation(const ProfileDatabase &Database,
                                              RoutineId Rtn) {
  for (const ActivationRecord &R : Database.log())
    if (R.Rtn == Rtn)
      return &R;
  return nullptr;
}

} // namespace isp

#endif // ISPROF_TESTS_TESTUTIL_H
