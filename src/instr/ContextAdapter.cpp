//===- instr/ContextAdapter.cpp - Context-sensitive profiling ----------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "instr/ContextAdapter.h"

#include "support/Format.h"

using namespace isp;

void ContextAdapter::onStart(const SymbolTable *Symbols) {
  ProgramSymbols = Symbols;
  // The inner tool sees the synthesized table so its reports print
  // full call paths.
  Inner.onStart(&ContextSymbols);
}

std::string ContextAdapter::pathName(uint32_t NodeIndex) const {
  std::vector<RoutineId> Path;
  for (uint32_t Cursor = NodeIndex; Cursor != 0;
       Cursor = Nodes[Cursor].Parent)
    Path.push_back(Nodes[Cursor].Rtn);
  std::string Out;
  for (auto It = Path.rbegin(); It != Path.rend(); ++It) {
    if (!Out.empty())
      Out += " > ";
    Out += ProgramSymbols ? ProgramSymbols->routineName(*It)
                          : formatString("#%u", *It);
  }
  return Out;
}

uint32_t ContextAdapter::childOf(uint32_t Parent, RoutineId Rtn) {
  auto [It, Inserted] = Nodes[Parent].Children.try_emplace(Rtn, 0u);
  if (Inserted) {
    It->second = static_cast<uint32_t>(Nodes.size());
    Node N;
    N.Rtn = Rtn;
    N.Parent = Parent;
    Nodes.push_back(std::move(N));
    Nodes.back().ContextId =
        ContextSymbols.intern(pathName(It->second));
  }
  return It->second;
}

void ContextAdapter::handleBatch(const Event *Words, size_t Count) {
  Rewritten.clear();
  const Event *W = Words;
  const Event *const End = Words + Count;
  while (W != End) {
    const Event &M = *W;
    const size_t Len = M.hasFollow() ? 2 : 1;
    if (static_cast<size_t>(End - W) < Len)
      break; // the record's follow-on word is cut off
    W += Len;
    bool FollowOn = Len == 2;
    switch (M.kind()) {
    case EventKind::Call: {
      std::vector<uint32_t> &Stack = Stacks[M.Tid];
      uint32_t Parent = Stack.empty() ? 0 : Stack.back();
      Stack.push_back(childOf(Parent, static_cast<RoutineId>(M.Arg)));
      Rewritten.push_back({M.Meta, M.Tid, Nodes[Stack.back()].ContextId});
      break;
    }
    case EventKind::Return: {
      std::vector<uint32_t> &Stack = Stacks[M.Tid];
      if (Stack.empty())
        continue;
      Rewritten.push_back({M.Meta, M.Tid, Nodes[Stack.back()].ContextId});
      Stack.pop_back();
      break;
    }
    case EventKind::ThreadEnd: {
      // Unwind in sync with the inner tool's own unwinding, keeping the
      // Return routine ids consistent. The first Return takes the
      // ThreadEnd's blocks (its follow-on word), so they still reach
      // the innermost frame.
      auto It = Stacks.find(M.Tid);
      if (It != Stacks.end()) {
        for (auto Frame = It->second.rbegin(); Frame != It->second.rend();
             ++Frame) {
          Rewritten.push_back({static_cast<uint32_t>(EventKind::Return) |
                                   (FollowOn ? Event::FollowBit : 0),
                               M.Tid, Nodes[*Frame].ContextId});
          if (FollowOn)
            Rewritten.push_back(W[-1]);
          FollowOn = false;
        }
        Stacks.erase(It);
      }
      Rewritten.push_back(
          {FollowOn ? M.Meta : M.Meta & ~Event::FollowBit, M.Tid, M.Arg});
      break;
    }
    default:
      Rewritten.push_back(M);
      break;
    }
    if (FollowOn)
      Rewritten.push_back(W[-1]); // the follow-on word, unchanged
  }
  Inner.handleBatch(Rewritten.data(), Rewritten.size());
}

uint64_t ContextAdapter::memoryFootprintBytes() const {
  uint64_t Total = Inner.memoryFootprintBytes();
  Total += Nodes.capacity() * sizeof(Node);
  for (const Node &N : Nodes)
    Total += N.Children.size() * 48;
  for (const auto &[Tid, Stack] : Stacks)
    Total += Stack.capacity() * sizeof(uint32_t) + 48;
  return Total;
}
