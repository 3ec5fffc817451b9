//===- tools/NulTool.h - The nulgrind analogue ------------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "null" analysis tool: subscribes to every event and does nothing
/// with it. Like nulgrind in the paper's Table 1, it isolates the cost
/// of the instrumentation substrate itself — every other tool's
/// slowdown is reported relative to this baseline.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TOOLS_NULTOOL_H
#define ISPROF_TOOLS_NULTOOL_H

#include "instr/Tool.h"

#include <string>

namespace isp {

class NulTool final : public ToolImpl<NulTool> {
public:
  std::string name() const override { return "nulgrind"; }
  /// One private counter; safe on any fixed worker.
  ToolAffinity threadAffinity() const override {
    return ToolAffinity::AnyWorker;
  }

  uint64_t eventsSeen() const { return Events; }

  void onThreadStart(ThreadId, ThreadId) { ++Events; }
  void onThreadEnd(ThreadId) { ++Events; }
  void onCall(ThreadId, RoutineId) { ++Events; }
  void onReturn(ThreadId, RoutineId) { ++Events; }
  void onRead(ThreadId, Addr, uint64_t) { ++Events; }
  void onWrite(ThreadId, Addr, uint64_t) { ++Events; }
  void onKernelRead(ThreadId, Addr, uint64_t) { ++Events; }
  void onKernelWrite(ThreadId, Addr, uint64_t) { ++Events; }
  void onSyncAcquire(ThreadId, SyncId, bool) { ++Events; }
  void onSyncRelease(ThreadId, SyncId, bool) { ++Events; }
  void onThreadCreate(ThreadId, ThreadId) { ++Events; }
  void onThreadJoin(ThreadId, ThreadId) { ++Events; }
  void onAlloc(ThreadId, Addr, uint64_t) { ++Events; }
  void onFree(ThreadId, Addr) { ++Events; }

private:
  uint64_t Events = 0;
};

} // namespace isp

#endif // ISPROF_TOOLS_NULTOOL_H
