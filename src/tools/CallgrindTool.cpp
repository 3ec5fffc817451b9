//===- tools/CallgrindTool.cpp - Call-graph profiler ---------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "tools/CallgrindTool.h"

#include "instr/SymbolTable.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <cassert>

using namespace isp;

void CallgrindTool::onCall(ThreadId Tid, RoutineId Rtn) {
  ThreadState &TS = Threads[Tid];
  RoutineId Caller = TS.Stack.empty() ? Rtn : TS.Stack.back().Rtn;
  ++Edges[{Caller, Rtn}];
  RoutineCost &Cost = Costs[Rtn];
  ++Cost.Calls;

  StackEntry Entry;
  Entry.Rtn = Rtn;
  Entry.BlocksAtEntry = TS.Blocks;
  Entry.Cost = &Cost;
  Entry.OnStack = &TS.OnStackCount[Rtn];
  Entry.CountsInclusive = *Entry.OnStack == 0;
  ++*Entry.OnStack;
  TS.Stack.push_back(Entry);
}

void CallgrindTool::popEntry(ThreadState &TS) {
  assert(!TS.Stack.empty());
  StackEntry Entry = TS.Stack.back();
  TS.Stack.pop_back();
  --*Entry.OnStack;
  if (Entry.CountsInclusive)
    Entry.Cost->InclusiveBlocks += TS.Blocks - Entry.BlocksAtEntry;
}

void CallgrindTool::onReturn(ThreadId Tid, RoutineId Rtn) {
  ThreadState &TS = Threads[Tid];
  if (TS.Stack.empty())
    return;
  popEntry(TS);
}

void CallgrindTool::onBasicBlock(ThreadId Tid, uint64_t Count) {
  ThreadState &TS = Threads[Tid];
  TS.Blocks += Count;
  if (!TS.Stack.empty())
    TS.Stack.back().Cost->ExclusiveBlocks += Count;
}

void CallgrindTool::unwind(ThreadState &TS) {
  while (!TS.Stack.empty())
    popEntry(TS);
}

void CallgrindTool::onThreadEnd(ThreadId Tid) { unwind(Threads[Tid]); }

void CallgrindTool::onFinish() {
  for (auto &[Tid, TS] : Threads)
    unwind(TS);
}

uint64_t CallgrindTool::memoryFootprintBytes() const {
  uint64_t Total = Costs.size() * (sizeof(RoutineCost) + 48) +
                   Edges.size() * (sizeof(uint64_t) * 3 + 48);
  for (const auto &[Tid, TS] : Threads)
    Total += TS.Stack.capacity() * sizeof(StackEntry) +
             TS.OnStackCount.size() * (sizeof(RoutineId) + sizeof(uint32_t) +
                                       16) +
             TS.OnStackCount.bucket_count() * sizeof(void *);
  return Total;
}

std::string CallgrindTool::renderReport(const SymbolTable *Symbols,
                                        size_t MaxRoutines) const {
  std::vector<std::pair<RoutineId, RoutineCost>> Ranked(Costs.begin(),
                                                        Costs.end());
  std::sort(Ranked.begin(), Ranked.end(), [](const auto &L, const auto &R) {
    return L.second.ExclusiveBlocks > R.second.ExclusiveBlocks;
  });
  if (Ranked.size() > MaxRoutines)
    Ranked.resize(MaxRoutines);

  TextTable Table;
  Table.setHeader({"routine", "calls", "excl(BB)", "incl(BB)"});
  for (const auto &[Rtn, Cost] : Ranked)
    Table.addRow({Symbols ? Symbols->routineName(Rtn)
                          : formatString("#%u", Rtn),
                  formatWithCommas(Cost.Calls),
                  formatWithCommas(Cost.ExclusiveBlocks),
                  formatWithCommas(Cost.InclusiveBlocks)});
  return Table.render();
}

// The batch walk, where it can inline the callbacks above.
template class isp::ToolImpl<CallgrindTool>;
