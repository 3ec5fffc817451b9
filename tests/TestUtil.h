//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test suites: a fluent trace builder for
/// hand-constructed executions (the paper's figures), and shorthands for
/// running profilers over traces and fetching per-routine results.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TESTS_TESTUTIL_H
#define ISPROF_TESTS_TESTUTIL_H

#include "core/ProfileData.h"
#include "instr/Dispatcher.h"
#include "trace/Event.h"

#include <vector>

namespace isp {

/// Builds totally ordered traces.
class TraceBuilder {
public:
  TraceBuilder &start(ThreadId Tid, ThreadId Parent = 0) {
    Events.push_back(EventRecord::threadStart(Tid, Parent));
    return *this;
  }
  TraceBuilder &end(ThreadId Tid) {
    Events.push_back(EventRecord::threadEnd(Tid));
    return *this;
  }
  TraceBuilder &call(ThreadId Tid, RoutineId Rtn) {
    Events.push_back(EventRecord::call(Tid, Rtn));
    return *this;
  }
  TraceBuilder &ret(ThreadId Tid, RoutineId Rtn) {
    Events.push_back(EventRecord::ret(Tid, Rtn, 0));
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
    Events.push_back(EventRecord::basicBlock(Tid, Count));
    return *this;
  }

  const std::vector<EventRecord> &events() const { return Events; }

private:
  std::vector<EventRecord> Events;
};

/// Runs \p ProfilerT over \p Events with activation logging and returns
/// the database.
template <typename ProfilerT, typename OptionsT>
ProfileDatabase profileTrace(const std::vector<EventRecord> &Events,
                             OptionsT Options) {
  Options.KeepActivationLog = true;
  ProfilerT Profiler(Options);
  replayTrace(Events, Profiler);
  return Profiler.takeDatabase();
}

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
