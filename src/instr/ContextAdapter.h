//===- instr/ContextAdapter.h - Context-sensitive profiling -----*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Upgrades any routine-level analysis to calling-context sensitivity by
/// event rewriting: the adapter sits between the substrate and an inner
/// Tool, interning each distinct call path as a fresh pseudo-routine id
/// ("main > dispatch_query > mysql_select") and forwarding Call/Return
/// events with the context id substituted. An input-sensitive profiler
/// behind the adapter therefore produces *per-context* cost-vs-input
/// plots — the context-sensitive profiles the paper's related work
/// contrasts with — without the profiler knowing anything changed.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_INSTR_CONTEXTADAPTER_H
#define ISPROF_INSTR_CONTEXTADAPTER_H

#include "instr/SymbolTable.h"
#include "instr/Tool.h"

#include <map>
#include <string>
#include <vector>

namespace isp {

class ContextAdapter : public Tool {
public:
  /// \p Inner receives the rewritten events. Not owned.
  explicit ContextAdapter(Tool &Inner) : Inner(Inner) {}

  std::string name() const override {
    return Inner.name() + "+contexts";
  }
  /// The adapter's context tree lives wherever the inner tool runs, so
  /// it inherits the inner tool's affinity.
  ToolAffinity threadAffinity() const override {
    return Inner.threadAffinity();
  }
  uint64_t memoryFootprintBytes() const override;
  ProfileDatabase *profileDatabase() override {
    return Inner.profileDatabase();
  }

  void onStart(const SymbolTable *Symbols) override;
  void onFinish() override { Inner.onFinish(); }
  void onThreadStart(ThreadId Tid, ThreadId Parent) override {
    Inner.onThreadStart(Tid, Parent);
  }
  void onThreadEnd(ThreadId Tid) override;
  void onCall(ThreadId Tid, RoutineId Rtn) override;
  void onReturn(ThreadId Tid, RoutineId Rtn) override;
  void onBasicBlock(ThreadId Tid, uint64_t Count) override {
    Inner.onBasicBlock(Tid, Count);
  }
  void onRead(ThreadId Tid, Addr A, uint64_t Cells) override {
    Inner.onRead(Tid, A, Cells);
  }
  void onWrite(ThreadId Tid, Addr A, uint64_t Cells) override {
    Inner.onWrite(Tid, A, Cells);
  }
  void onKernelRead(ThreadId Tid, Addr A, uint64_t Cells) override {
    Inner.onKernelRead(Tid, A, Cells);
  }
  void onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells) override {
    Inner.onKernelWrite(Tid, A, Cells);
  }
  void onSyncAcquire(ThreadId Tid, SyncId Id, bool IsLock) override {
    Inner.onSyncAcquire(Tid, Id, IsLock);
  }
  void onSyncRelease(ThreadId Tid, SyncId Id, bool IsLock) override {
    Inner.onSyncRelease(Tid, Id, IsLock);
  }
  void onThreadCreate(ThreadId Tid, ThreadId Child) override {
    Inner.onThreadCreate(Tid, Child);
  }
  void onThreadJoin(ThreadId Tid, ThreadId Child) override {
    Inner.onThreadJoin(Tid, Child);
  }
  void onAlloc(ThreadId Tid, Addr A, uint64_t Cells) override {
    Inner.onAlloc(Tid, A, Cells);
  }
  void onFree(ThreadId Tid, Addr A) override { Inner.onFree(Tid, A); }

  /// The synthesized symbol table mapping context ids to path names.
  /// Use this (not the program's) when rendering the inner tool's
  /// reports.
  const SymbolTable &contextSymbols() const { return ContextSymbols; }

  /// Number of distinct contexts interned so far.
  size_t contextCount() const { return Nodes.size() - 1; }

private:
  /// Context-tree node; index 0 is the synthetic root.
  struct Node {
    RoutineId Rtn = ~0u;
    uint32_t Parent = 0;
    RoutineId ContextId = ~0u; ///< interned pseudo-routine id
    std::map<RoutineId, uint32_t> Children;
  };

  uint32_t childOf(uint32_t Parent, RoutineId Rtn);
  std::string pathName(uint32_t NodeIndex) const;

  Tool &Inner;
  const SymbolTable *ProgramSymbols = nullptr;
  SymbolTable ContextSymbols;
  std::vector<Node> Nodes{Node{}};
  std::map<ThreadId, std::vector<uint32_t>> Stacks;
};

} // namespace isp

#endif // ISPROF_INSTR_CONTEXTADAPTER_H
