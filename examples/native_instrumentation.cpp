//===- examples/native_instrumentation.cpp - Profiling host C++ code -------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The profilers consume an abstract event stream, so they can profile
// *host* C++ code too: this example wraps a real C++ binary-search-tree
// implementation with a tiny manual instrumentation layer (call/return
// plus reads/writes keyed by node identity) and lets aprof-trms infer
// the empirical cost curves — O(log n) per lookup, O(n) per full sweep —
// without the VM in the loop. The layer feeds an EventDispatcher exactly
// as the VM does (start, enqueue, finish): it is the pattern a
// Pin/DynamoRIO frontend would automate.
//
// Usage: ./build/examples/native_instrumentation [--keys=N]
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "instr/SymbolTable.h"
#include "support/CommandLine.h"
#include "support/Random.h"

#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>

using namespace isp;

namespace {

/// Minimal manual instrumentation layer: scoped routine activations and
/// tagged memory accesses, enqueued to a dispatcher that delivers them
/// to a Tool in batches.
class Instrumentation {
public:
  explicit Instrumentation(Tool &T) {
    Dispatcher.addTool(&T);
    Dispatcher.start(nullptr);
    Dispatcher.enqueue(EventRecord::threadStart(0, 0));
  }
  ~Instrumentation() {
    Dispatcher.enqueue(EventRecord::threadEnd(0, std::exchange(Blocks, 0)));
    Dispatcher.finish();
  }

  RoutineId routine(const std::string &Name) { return Symbols.intern(Name); }
  const SymbolTable &symbols() const { return Symbols; }

  void call(RoutineId Rtn) {
    Dispatcher.enqueue(EventRecord::call(0, Rtn, std::exchange(Blocks, 0)));
  }
  void ret(RoutineId Rtn) {
    block(); // at least one block per activation
    Dispatcher.enqueue(EventRecord::ret(0, Rtn, std::exchange(Blocks, 0)));
  }
  void read(const void *P) {
    Dispatcher.enqueue(EventRecord::read(0, addressOf(P)));
  }
  void write(const void *P) {
    Dispatcher.enqueue(EventRecord::write(0, addressOf(P)));
  }
  /// Blocks have no event of their own: the thread's count rides on
  /// its next call, return or thread end, as the VM's does.
  void block() { ++Blocks; }

private:
  /// Host pointers are interned into a compact cell address space (raw
  /// 64-bit pointers exceed the shadow memories' address range).
  Addr addressOf(const void *P) {
    auto [It, Inserted] = AddressMap.try_emplace(P, NextAddress);
    if (Inserted)
      ++NextAddress;
    return It->second;
  }

  EventDispatcher Dispatcher;
  /// Blocks the (one) instrumented thread ran since its last boundary.
  uint64_t Blocks = 0;
  SymbolTable Symbols;
  std::unordered_map<const void *, Addr> AddressMap;
  Addr NextAddress = 1;
};

/// A plain C++ BST, instrumented by hand at its memory touchpoints.
struct TreeNode {
  int64_t Key;
  std::unique_ptr<TreeNode> Left;
  std::unique_ptr<TreeNode> Right;
};

class InstrumentedTree {
public:
  explicit InstrumentedTree(Instrumentation &Instr)
      : Instr(Instr), InsertId(Instr.routine("bst_insert")),
        LookupId(Instr.routine("bst_lookup")),
        SumId(Instr.routine("bst_sum")) {}

  void insert(int64_t Key) {
    Instr.call(InsertId);
    std::unique_ptr<TreeNode> *Slot = &Root;
    while (*Slot) {
      Instr.read(&(*Slot)->Key);
      Instr.block();
      Slot = Key < (*Slot)->Key ? &(*Slot)->Left : &(*Slot)->Right;
    }
    *Slot = std::make_unique<TreeNode>();
    (*Slot)->Key = Key;
    Instr.write(&(*Slot)->Key);
    Instr.ret(InsertId);
  }

  bool lookup(int64_t Key) {
    Instr.call(LookupId);
    const TreeNode *Node = Root.get();
    bool Found = false;
    while (Node) {
      Instr.read(&Node->Key);
      Instr.block();
      if (Node->Key == Key) {
        Found = true;
        break;
      }
      Node = Key < Node->Key ? Node->Left.get() : Node->Right.get();
    }
    Instr.ret(LookupId);
    return Found;
  }

  int64_t sum() {
    Instr.call(SumId);
    int64_t Total = sumFrom(Root.get());
    Instr.ret(SumId);
    return Total;
  }

private:
  int64_t sumFrom(const TreeNode *Node) {
    if (!Node)
      return 0;
    Instr.read(&Node->Key);
    Instr.block();
    return Node->Key + sumFrom(Node->Left.get()) +
           sumFrom(Node->Right.get());
  }

  Instrumentation &Instr;
  RoutineId InsertId, LookupId, SumId;
  std::unique_ptr<TreeNode> Root;
};

} // namespace

int main(int Argc, char **Argv) {
  OptionParser Options("Profiles a host C++ binary search tree through "
                       "manual instrumentation");
  Options.addOption("keys", "4000", "keys to insert");
  if (!Options.parse(Argc, Argv))
    return 1;
  int64_t Keys = Options.getInt("keys");

  TrmsProfiler Profiler;
  SymbolTable Symbols;
  int64_t Checksum = 0;
  {
    Instrumentation Instr(Profiler);
    InstrumentedTree Tree(Instr);
    Rng R(2024);
    for (int64_t I = 0; I != Keys; ++I) {
      Tree.insert(static_cast<int64_t>(R.nextBelow(1000000)));
      if (I % 64 == 0)
        Tree.lookup(static_cast<int64_t>(R.nextBelow(1000000)));
      if ((I & (I + 1)) == 0) // at sizes 2^k - 1: full sweeps
        Checksum ^= Tree.sum();
    }
    Symbols = Instr.symbols();
  }
  std::printf("checksum %lld over %lld keys\n\n",
              static_cast<long long>(Checksum),
              static_cast<long long>(Keys));

  auto Merged = Profiler.database().mergedByRoutine();
  for (const auto &[Rtn, Profile] : Merged) {
    FitResult Fit = fitWorstCase(Profile, InputMetric::Trms);
    uint64_t MaxInput = Profile.costByTrms().empty()
                            ? 0
                            : Profile.costByTrms().rbegin()->first;
    std::printf("%-12s %6llu calls, %3zu distinct input sizes (max %llu), "
                "cost vs input: %s (alpha %.2f)\n",
                Symbols.routineName(Rtn).c_str(),
                static_cast<unsigned long long>(Profile.activations()),
                Profile.distinctTrmsValues(),
                static_cast<unsigned long long>(MaxInput),
                growthModelName(Fit.best().Model), Fit.PowerLawAlpha);
  }
  std::printf(
      "\nReading the shapes: each routine's cost is linear in the nodes it\n"
      "touches (its own input), but the *input sizes* differ sharply —\n"
      "bst_lookup/bst_insert touch only root-to-leaf paths (max input ~log\n"
      "of the tree), while bst_sum's input reaches the full tree size.\n");
  return 0;
}
