//===- tools/CctTool.cpp - Calling-context-tree profiler -----------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "tools/CctTool.h"

#include "instr/SymbolTable.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>

using namespace isp;

CctTool::CctTool() {
  Nodes.emplace_back(); // synthetic root
}

CctTool::NodeIndex CctTool::childOf(NodeIndex Parent, RoutineId Rtn) {
  auto [It, Inserted] =
      Nodes[Parent].Children.try_emplace(Rtn, NodeIndex(0));
  if (Inserted) {
    It->second = static_cast<NodeIndex>(Nodes.size());
    Node N;
    N.Rtn = Rtn;
    N.Parent = Parent;
    Nodes.push_back(std::move(N));
  }
  return It->second;
}

void CctTool::onCall(ThreadId Tid, RoutineId Rtn) {
  std::vector<NodeIndex> &Stack = Stacks[Tid];
  NodeIndex Parent = Stack.empty() ? 0 : Stack.back();
  NodeIndex Child = childOf(Parent, Rtn);
  ++Nodes[Child].Calls;
  Stack.push_back(Child);
}

void CctTool::onReturn(ThreadId Tid, RoutineId Rtn) {
  std::vector<NodeIndex> &Stack = Stacks[Tid];
  if (!Stack.empty())
    Stack.pop_back();
}

void CctTool::onBasicBlock(ThreadId Tid, uint64_t Count) {
  std::vector<NodeIndex> &Stack = Stacks[Tid];
  if (!Stack.empty())
    Nodes[Stack.back()].ExclusiveBlocks += Count;
}

void CctTool::onThreadEnd(ThreadId Tid) { Stacks.erase(Tid); }

void CctTool::onFinish() { Stacks.clear(); }

uint64_t CctTool::inclusiveBlocks(NodeIndex Index) const {
  const Node &N = Nodes[Index];
  uint64_t Total = N.ExclusiveBlocks;
  for (const auto &[Rtn, Child] : N.Children)
    Total += inclusiveBlocks(Child);
  N.CachedInclusive = Total;
  return Total;
}

std::string CctTool::contextPath(NodeIndex Index,
                                 const SymbolTable *Symbols) const {
  std::vector<RoutineId> Path;
  for (NodeIndex Cursor = Index; Cursor != 0;
       Cursor = Nodes[Cursor].Parent)
    Path.push_back(Nodes[Cursor].Rtn);
  std::string Out;
  for (auto It = Path.rbegin(); It != Path.rend(); ++It) {
    if (!Out.empty())
      Out += " > ";
    Out += Symbols ? Symbols->routineName(*It) : formatString("#%u", *It);
  }
  return Out;
}

std::string CctTool::renderReport(const SymbolTable *Symbols,
                                  size_t MaxContexts) const {
  std::vector<NodeIndex> Ranked;
  for (NodeIndex I = 1; I < Nodes.size(); ++I)
    Ranked.push_back(I);
  std::sort(Ranked.begin(), Ranked.end(),
            [this](NodeIndex L, NodeIndex R) {
              return Nodes[L].ExclusiveBlocks > Nodes[R].ExclusiveBlocks;
            });
  if (Ranked.size() > MaxContexts)
    Ranked.resize(MaxContexts);

  TextTable Table;
  Table.setHeader({"context", "calls", "excl(BB)", "incl(BB)"});
  for (NodeIndex I : Ranked)
    Table.addRow({contextPath(I, Symbols),
                  formatWithCommas(Nodes[I].Calls),
                  formatWithCommas(Nodes[I].ExclusiveBlocks),
                  formatWithCommas(inclusiveBlocks(I))});
  std::string Out = formatString("cct: %zu distinct calling contexts\n",
                                 contextCount());
  Out += Table.render();
  return Out;
}

uint64_t CctTool::memoryFootprintBytes() const {
  uint64_t Total = Nodes.capacity() * sizeof(Node);
  for (const Node &N : Nodes)
    Total += N.Children.size() * 48;
  for (const auto &[Tid, Stack] : Stacks)
    Total += Stack.capacity() * sizeof(NodeIndex) + 48;
  return Total;
}

// The batch walk, where it can inline the callbacks above.
template class isp::ToolImpl<CctTool>;
