//===- instr/ContextAdapter.h - Context-sensitive profiling -----*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Upgrades any routine-level analysis to calling-context sensitivity by
/// word rewriting: the adapter sits between the substrate and an inner
/// Tool, interning each distinct call path as a fresh pseudo-routine id
/// ("main > dispatch_query > mysql_select") and handing the inner tool
/// each batch with the context id in place of every Call's and Return's
/// routine id. An input-sensitive profiler behind the adapter therefore
/// produces *per-context* cost-vs-input plots — the context-sensitive
/// profiles the paper's related work contrasts with — without the
/// profiler knowing anything changed.
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
  /// \p Inner receives the rewritten batches. Not owned.
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
  /// Copies the batch into a reused buffer, rewriting it on the way,
  /// and hands the copy to the inner tool:
  ///  - a Call's or Return's routine id becomes its context id;
  ///  - a Return that meets an empty context stack is dropped, with the
  ///    blocks it carries: no frame is open to charge them to;
  ///  - a ThreadEnd is preceded by a Return for each frame still open on
  ///    its thread, innermost first, so the inner tool's own unwinding
  ///    sees context ids; the first of them takes the ThreadEnd's
  ///    blocks, so the innermost frame still gets them;
  ///  - every other word, follow-on words included, is copied unchanged.
  /// A record whose follow-on word is cut off ends the copy, as it ends
  /// the walk.
  void handleBatch(const Event *Words, size_t Count) override;

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
  /// The rewritten batch, reused across batches.
  std::vector<Event> Rewritten;
  const SymbolTable *ProgramSymbols = nullptr;
  SymbolTable ContextSymbols;
  std::vector<Node> Nodes{Node{}};
  std::map<ThreadId, std::vector<uint32_t>> Stacks;
};

} // namespace isp

#endif // ISPROF_INSTR_CONTEXTADAPTER_H
