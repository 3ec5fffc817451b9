//===- tools/CallgrindTool.h - Call-graph profiler --------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The callgrind analogue: a call-graph profiler that attributes
/// basic-block costs to routines, maintaining exclusive and inclusive
/// counts and caller->callee edges. Like the original it instruments
/// calls/returns and basic blocks but *not* individual memory accesses,
/// making it the cheap end of the Table 1 comparison.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TOOLS_CALLGRINDTOOL_H
#define ISPROF_TOOLS_CALLGRINDTOOL_H

#include "instr/Tool.h"

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace isp {

class CallgrindTool : public ToolImpl<CallgrindTool> {
public:
  struct RoutineCost {
    uint64_t Calls = 0;
    uint64_t ExclusiveBlocks = 0;
    uint64_t InclusiveBlocks = 0;
  };

  std::string name() const override { return "callgrind"; }
  uint64_t memoryFootprintBytes() const override;

  void onCall(ThreadId Tid, RoutineId Rtn);
  void onReturn(ThreadId Tid, RoutineId Rtn);
  void onBasicBlock(ThreadId Tid, uint64_t Count);
  void onThreadEnd(ThreadId Tid);
  void onFinish() override;

  const std::map<RoutineId, RoutineCost> &routineCosts() const {
    return Costs;
  }
  /// (caller, callee) -> call count; callers of thread entry functions
  /// are recorded as the callee itself.
  const std::map<std::pair<RoutineId, RoutineId>, uint64_t> &
  callEdges() const {
    return Edges;
  }

  /// Renders a flat profile sorted by exclusive cost.
  std::string renderReport(const SymbolTable *Symbols = nullptr,
                           size_t MaxRoutines = 20) const;

private:
  struct StackEntry {
    RoutineId Rtn = 0;
    uint64_t BlocksAtEntry = 0;
    /// The routine's totals (a Costs node) and its count of open
    /// activations on this thread (an OnStackCount node): both stay put.
    RoutineCost *Cost = nullptr;
    uint32_t *OnStack = nullptr;
    /// Recursion guard: only the outermost activation of a routine adds
    /// to its inclusive count.
    bool CountsInclusive = false;
  };

  struct ThreadState {
    std::vector<StackEntry> Stack;
    /// Keyed by routine id, never indexed by it: a stream's Calls may
    /// name any 32-bit id.
    std::unordered_map<RoutineId, uint32_t> OnStackCount;
    uint64_t Blocks = 0;
  };

  void unwind(ThreadState &TS);
  void popEntry(ThreadState &TS);

  std::map<ThreadId, ThreadState> Threads;
  std::map<RoutineId, RoutineCost> Costs;
  std::map<std::pair<RoutineId, RoutineId>, uint64_t> Edges;
};

/// The batch walk is instantiated in CallgrindTool.cpp, beside the callbacks.
extern template class ToolImpl<CallgrindTool>;

} // namespace isp

#endif // ISPROF_TOOLS_CALLGRINDTOOL_H
