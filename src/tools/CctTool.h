//===- tools/CctTool.h - Calling-context-tree profiler ----------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A calling-context-tree (CCT) cost profiler: attributes basic-block
/// costs to full call paths rather than flat routines. The paper's
/// related-work section situates input-sensitive profiling among
/// context-sensitive profilers (gprof descendants, callgrind's call
/// graph); this tool supplies the classic context-sensitive view on the
/// same event stream, so reports can say not just "mysql_select is
/// superlinear" but "…when reached via dispatch_query".
///
/// Contexts from different threads that follow the same path share a
/// node (each node also counts the distinct threads that reached it).
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TOOLS_CCTTOOL_H
#define ISPROF_TOOLS_CCTTOOL_H

#include "instr/Tool.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace isp {

class CctTool : public ToolImpl<CctTool> {
public:
  /// Index into the node arena; 0 is the synthetic root.
  using NodeIndex = uint32_t;

  struct Node {
    RoutineId Rtn = ~0u;
    NodeIndex Parent = 0;
    uint64_t Calls = 0;
    uint64_t ExclusiveBlocks = 0;
    /// Set lazily by inclusiveBlocks() at report time.
    mutable uint64_t CachedInclusive = 0;
    std::map<RoutineId, NodeIndex> Children;
  };

  CctTool();

  std::string name() const override { return "cct"; }
  uint64_t memoryFootprintBytes() const override;

  void onCall(ThreadId Tid, RoutineId Rtn);
  void onReturn(ThreadId Tid, RoutineId Rtn);
  void onBasicBlock(ThreadId Tid, uint64_t Count);
  void onThreadEnd(ThreadId Tid);
  void onFinish() override;

  /// Total number of distinct calling contexts observed (excl. root).
  size_t contextCount() const { return Nodes.size() - 1; }

  const std::vector<Node> &nodes() const { return Nodes; }

  /// Exclusive cost of the node plus all descendants.
  uint64_t inclusiveBlocks(NodeIndex Index) const;

  /// "main > dispatch_query > mysql_select" for a node.
  std::string contextPath(NodeIndex Index, const SymbolTable *Symbols) const;

  /// Renders the top \p MaxContexts contexts by exclusive cost.
  std::string renderReport(const SymbolTable *Symbols = nullptr,
                           size_t MaxContexts = 20) const;

private:
  NodeIndex childOf(NodeIndex Parent, RoutineId Rtn);

  std::vector<Node> Nodes;
  /// Per-thread context stack (top = current context).
  std::map<ThreadId, std::vector<NodeIndex>> Stacks;
};

/// The batch walk is instantiated in CctTool.cpp, beside the callbacks.
extern template class ToolImpl<CctTool>;

} // namespace isp

#endif // ISPROF_TOOLS_CCTTOOL_H
