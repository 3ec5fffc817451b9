//===- tests/ToolsTest.cpp - Comparison tool tests ------------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The memcheck/callgrind/helgrind analogues, exercised end-to-end by
// running guest programs with the defects (or their absence) the tools
// exist to detect, and the batch walk every tool is driven through
// (ToolImpl::handleBatch) against the records decodeEvent yields.
//
//===----------------------------------------------------------------------===//

#include "core/NaiveProfiler.h"
#include "core/RmsProfiler.h"
#include "core/TrmsProfiler.h"
#include "tools/CallgrindTool.h"
#include "tools/CctTool.h"
#include "tools/HelgrindTool.h"
#include "tools/MemcheckTool.h"
#include "tools/NulTool.h"

#include "TestUtil.h"

#include "instr/Dispatcher.h"
#include "vm/Compiler.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <tuple>

using namespace isp;

namespace {

/// Runs \p Source under \p Tools; asserts guest-level success unless
/// \p ExpectGuestFailure.
RunResult runUnder(const std::string &Source, std::vector<Tool *> Tools,
                   bool ExpectGuestFailure = false) {
  EventDispatcher Dispatcher;
  for (Tool *T : Tools)
    Dispatcher.addTool(T);
  RunResult R = compileAndRun(Source, &Dispatcher);
  if (!ExpectGuestFailure) {
    EXPECT_TRUE(R.Ok) << R.Error;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Memcheck
//===----------------------------------------------------------------------===//

TEST(Memcheck, CleanProgramHasNoErrors) {
  MemcheckTool Tool;
  runUnder(R"(
    fn main() {
      var p = alloc(8);
      store(p, 1);
      var v = load(p);
      free(p);
      return v;
    })",
           {&Tool});
  EXPECT_EQ(Tool.totalErrors(), 0u);
  EXPECT_EQ(Tool.leakedCells(), 0u);
}

TEST(Memcheck, DetectsUseAfterFree) {
  MemcheckTool Tool;
  runUnder(R"(
    fn main() {
      var p = alloc(4);
      store(p, 5);
      free(p);
      return load(p);
    })",
           {&Tool});
  ASSERT_GE(Tool.errors().size(), 1u);
  EXPECT_EQ(Tool.errors()[0].ErrorKind, MemError::Kind::InvalidRead);
}

TEST(Memcheck, DetectsUninitializedHeapRead) {
  MemcheckTool Tool;
  runUnder(R"(
    fn main() {
      var p = alloc(4);
      var v = load(p + 2); // never written
      store(p, 1);
      var w = load(p);     // fine
      free(p);
      return v + w;
    })",
           {&Tool});
  ASSERT_EQ(Tool.errors().size(), 1u);
  EXPECT_EQ(Tool.errors()[0].ErrorKind, MemError::Kind::UninitializedRead);
}

TEST(Memcheck, DetectsDoubleFreeAndBadFree) {
  MemcheckTool Tool;
  runUnder(R"(
    fn main() {
      var p = alloc(4);
      free(p);
      free(p);
      free(p + 1);
      return 0;
    })",
           {&Tool});
  ASSERT_EQ(Tool.errors().size(), 2u);
  EXPECT_EQ(Tool.errors()[0].ErrorKind, MemError::Kind::DoubleFree);
  EXPECT_EQ(Tool.errors()[1].ErrorKind, MemError::Kind::BadFree);
}

TEST(Memcheck, DetectsLeaks) {
  MemcheckTool Tool;
  runUnder(R"(
    fn main() {
      var kept = alloc(16);
      var freed = alloc(8);
      store(kept, 1);
      free(freed);
      return 0;
    })",
           {&Tool});
  EXPECT_EQ(Tool.leakedCells(), 16u);
  std::string Report = Tool.renderReport();
  EXPECT_NE(Report.find("leaked"), std::string::npos);
}

TEST(Memcheck, KernelFillInitializesBuffer) {
  MemcheckTool Tool;
  runUnder(R"(
    fn main() {
      var p = alloc(8);
      sysread(1, p, 8);
      var v = load(p + 7); // initialized by the kernel
      free(p);
      return v;
    })",
           {&Tool});
  EXPECT_EQ(Tool.totalErrors(), 0u);
}

//===----------------------------------------------------------------------===//
// Callgrind
//===----------------------------------------------------------------------===//

TEST(Callgrind, CountsCallsAndCosts) {
  CallgrindTool Tool;
  DiagnosticEngine Diags;
  auto Prog = compileProgram(R"(
    fn leaf() { return 1; }
    fn mid() { return leaf() + leaf(); }
    fn main() {
      var acc = 0;
      for (var i = 0; i < 10; i = i + 1) { acc = acc + mid(); }
      return acc;
    })",
                             Diags);
  ASSERT_TRUE(Prog.has_value());
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Tool);
  Machine M(*Prog, &Dispatcher);
  ASSERT_TRUE(M.run().Ok);

  RoutineId Leaf = Prog->Symbols.lookup("leaf");
  RoutineId Mid = Prog->Symbols.lookup("mid");
  RoutineId Main = Prog->Symbols.lookup("main");
  const auto &Costs = Tool.routineCosts();
  EXPECT_EQ(Costs.at(Leaf).Calls, 20u);
  EXPECT_EQ(Costs.at(Mid).Calls, 10u);
  EXPECT_EQ(Costs.at(Main).Calls, 1u);
  // main's inclusive cost covers everything; exclusive does not.
  EXPECT_GT(Costs.at(Main).InclusiveBlocks, Costs.at(Main).ExclusiveBlocks);
  EXPECT_EQ(Costs.at(Mid).InclusiveBlocks,
            Costs.at(Mid).ExclusiveBlocks + Costs.at(Leaf).InclusiveBlocks);
  // Call edges.
  EXPECT_EQ(Tool.callEdges().at({Mid, Leaf}), 20u);
  EXPECT_EQ(Tool.callEdges().at({Main, Mid}), 10u);

  std::string Report = Tool.renderReport(&Prog->Symbols);
  EXPECT_NE(Report.find("leaf"), std::string::npos);
}

TEST(Callgrind, RecursionDoesNotDoubleCountInclusive) {
  CallgrindTool Tool;
  DiagnosticEngine Diags;
  auto Prog = compileProgram(R"(
    fn down(n) {
      if (n == 0) { return 0; }
      return down(n - 1);
    }
    fn main() { return down(6); })",
                             Diags);
  ASSERT_TRUE(Prog.has_value());
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Tool);
  Machine M(*Prog, &Dispatcher);
  ASSERT_TRUE(M.run().Ok);
  RoutineId Down = Prog->Symbols.lookup("down");
  const auto &Costs = Tool.routineCosts();
  EXPECT_EQ(Costs.at(Down).Calls, 7u);
  // Inclusive counted only at the outermost activation: it must equal
  // the exclusive total, not 7x it.
  EXPECT_EQ(Costs.at(Down).InclusiveBlocks, Costs.at(Down).ExclusiveBlocks);
}

//===----------------------------------------------------------------------===//
// Helgrind
//===----------------------------------------------------------------------===//

TEST(Helgrind, DetectsUnsynchronizedCounter) {
  HelgrindTool Tool;
  runUnder(R"(
    var counter;
    fn bump(n) {
      var i = 0;
      while (i < n) { counter = counter + 1; i = i + 1; }
      return 0;
    }
    fn main() {
      counter = 0;
      var a = spawn bump(20);
      var b = spawn bump(20);
      join(a); join(b);
      return counter;
    })",
           {&Tool});
  EXPECT_GT(Tool.racesDetected(), 0u);
  EXPECT_NE(Tool.renderReport().find("race"), std::string::npos);
}

TEST(Helgrind, LockedCounterIsClean) {
  HelgrindTool Tool;
  runUnder(R"(
    var counter;
    var lk;
    fn bump(n) {
      var i = 0;
      while (i < n) {
        lock_acquire(lk);
        counter = counter + 1;
        lock_release(lk);
        i = i + 1;
      }
      return 0;
    }
    fn main() {
      lk = lock_create();
      counter = 0;
      var a = spawn bump(20);
      var b = spawn bump(20);
      join(a); join(b);
      return counter;
    })",
           {&Tool});
  EXPECT_EQ(Tool.racesDetected(), 0u);
}

TEST(Helgrind, CreateAndJoinOrderAccesses) {
  HelgrindTool Tool;
  runUnder(R"(
    var cell;
    fn child() { cell = cell + 5; return 0; }
    fn main() {
      cell = 1;                 // before create: ordered
      var t = spawn child();
      var v = join(t);
      cell = cell * 2;          // after join: ordered
      return cell + v;
    })",
           {&Tool});
  EXPECT_EQ(Tool.racesDetected(), 0u);
}

TEST(Helgrind, SemaphorePairingOrdersProducerConsumer) {
  HelgrindTool Tool;
  runUnder(R"(
    var x;
    var emptySem;
    var fullSem;
    fn producer(n) {
      var i = 0;
      while (i < n) {
        sem_wait(emptySem);
        x = i;
        sem_post(fullSem);
        i = i + 1;
      }
      return 0;
    }
    fn consumer(n) {
      var sum = 0;
      var i = 0;
      while (i < n) {
        sem_wait(fullSem);
        sum = sum + x;
        sem_post(emptySem);
        i = i + 1;
      }
      return sum;
    }
    fn main() {
      emptySem = sem_create(1);
      fullSem = sem_create(0);
      var p = spawn producer(15);
      var c = spawn consumer(15);
      join(p);
      return join(c);
    })",
           {&Tool});
  EXPECT_EQ(Tool.racesDetected(), 0u);
}

//===----------------------------------------------------------------------===//
// Tool plumbing
//===----------------------------------------------------------------------===//

TEST(ToolPlumbing, MultipleToolsShareOneRun) {
  NulTool Nul;
  MemcheckTool Memcheck;
  CallgrindTool Callgrind;
  HelgrindTool Helgrind;
  runUnder(R"(
    fn work(n) {
      var a[8];
      var i = 0;
      while (i < n) { a[i % 8] = i; i = i + 1; }
      return a[0];
    }
    fn main() {
      var t = spawn work(30);
      work(10);
      return join(t);
    })",
           {&Nul, &Memcheck, &Callgrind, &Helgrind});
  EXPECT_GT(Nul.eventsSeen(), 100u);
  EXPECT_EQ(Memcheck.totalErrors(), 0u);
  EXPECT_EQ(Callgrind.routineCosts().size(), 2u);
  EXPECT_EQ(Helgrind.racesDetected(), 0u);
}

TEST(ToolPlumbing, FootprintsAreReported) {
  MemcheckTool Memcheck;
  HelgrindTool Helgrind;
  runUnder(R"(
    var big[4000];
    fn main() {
      var i = 0;
      while (i < 4000) { big[i] = i; i = i + 1; }
      return 0;
    })",
           {&Memcheck, &Helgrind});
  EXPECT_GT(Memcheck.memoryFootprintBytes(), 4000u);
  EXPECT_GT(Helgrind.memoryFootprintBytes(), 4000u * 8u);
}

} // namespace

//===----------------------------------------------------------------------===//
// DRD (lockset detector)
//===----------------------------------------------------------------------===//

#include "tools/CctTool.h"
#include "tools/DrdTool.h"
#include "tools/ToolRegistry.h"

namespace {

TEST(Drd, DetectsUnsynchronizedCounter) {
  DrdTool Tool;
  runUnder(R"(
    var counter;
    fn bump(n) {
      var i = 0;
      while (i < n) { counter = counter + 1; i = i + 1; }
      return 0;
    }
    fn main() {
      counter = 0;
      var a = spawn bump(20);
      var b = spawn bump(20);
      join(a); join(b);
      return counter;
    })",
           {&Tool});
  EXPECT_GT(Tool.racesDetected(), 0u);
}

TEST(Drd, LockedCounterIsClean) {
  // Note main's final read also takes the lock: the lockset model cannot
  // see join-ordering, so consistent lock discipline is what it checks.
  DrdTool Tool;
  runUnder(R"(
    var counter;
    var lk;
    fn bump(n) {
      var i = 0;
      while (i < n) {
        lock_acquire(lk);
        counter = counter + 1;
        lock_release(lk);
        i = i + 1;
      }
      return 0;
    }
    fn main() {
      lk = lock_create();
      counter = 0;
      var a = spawn bump(20);
      var b = spawn bump(20);
      join(a); join(b);
      lock_acquire(lk);
      var result = counter;
      lock_release(lk);
      return result;
    })",
           {&Tool});
  EXPECT_EQ(Tool.racesDetected(), 0u);
}

TEST(Drd, FlagsJoinOrderedReadWithoutLock) {
  // The complementary case: reading the counter after join *without*
  // the lock is safe (helgrind agrees) but outside the lockset
  // discipline, so drd flags it — the documented Eraser trade-off.
  DrdTool Drd;
  HelgrindTool Helgrind;
  runUnder(R"(
    var counter;
    var lk;
    fn bump(n) {
      var i = 0;
      while (i < n) {
        lock_acquire(lk);
        counter = counter + 1;
        lock_release(lk);
        i = i + 1;
      }
      return 0;
    }
    fn main() {
      lk = lock_create();
      counter = 0;
      var a = spawn bump(5);
      join(a);
      return counter; // no lock: outside the discipline
    })",
           {&Drd, &Helgrind});
  EXPECT_GT(Drd.racesDetected(), 0u);
  EXPECT_EQ(Helgrind.racesDetected(), 0u);
}

TEST(Drd, InitializeThenShareUnderLockIsClean) {
  // Eraser's initialization refinement: lock-free init by one thread
  // followed by locked sharing must not be flagged.
  DrdTool Tool;
  runUnder(R"(
    var data[16];
    var lk;
    fn consumer() {
      lock_acquire(lk);
      var sum = data[3] + data[7];
      lock_release(lk);
      return sum;
    }
    fn main() {
      lk = lock_create();
      var i = 0;
      while (i < 16) { data[i] = i; i = i + 1; } // init without lock
      var t = spawn consumer();
      lock_acquire(lk);
      data[3] = 99;
      lock_release(lk);
      return join(t);
    })",
           {&Tool});
  EXPECT_EQ(Tool.racesDetected(), 0u);
}

TEST(Drd, FlagsSemaphoreOnlySynchronization) {
  // The characteristic lockset weakness: semaphore-paired producer and
  // consumer are correctly ordered (helgrind agrees) but hold no common
  // mutex, so the lockset model reports the cell. Both behaviours are
  // intended — they document the detector trade-off.
  const char *Source = R"(
    var x;
    var emptySem;
    var fullSem;
    fn producer(n) {
      var i = 0;
      while (i < n) {
        sem_wait(emptySem);
        x = i;
        sem_post(fullSem);
        i = i + 1;
      }
      return 0;
    }
    fn consumer(n) {
      var sum = 0;
      var i = 0;
      while (i < n) {
        sem_wait(fullSem);
        sum = sum + x;
        sem_post(emptySem);
        i = i + 1;
      }
      return sum;
    }
    fn main() {
      emptySem = sem_create(1);
      fullSem = sem_create(0);
      var p = spawn producer(10);
      var c = spawn consumer(10);
      join(p);
      return join(c);
    })";
  DrdTool Drd;
  HelgrindTool Helgrind;
  runUnder(Source, {&Drd, &Helgrind});
  EXPECT_GT(Drd.racesDetected(), 0u) << "lockset model should flag this";
  EXPECT_EQ(Helgrind.racesDetected(), 0u)
      << "happens-before model should not";
}

//===----------------------------------------------------------------------===//
// CCT (calling-context tree)
//===----------------------------------------------------------------------===//

TEST(Cct, DistinguishesContextsByPath) {
  CctTool Tool;
  DiagnosticEngine Diags;
  auto Prog = compileProgram(R"(
    fn leaf() { return 1; }
    fn viaA() { return leaf() + leaf(); }
    fn viaB() { return leaf(); }
    fn main() { return viaA() + viaB(); })",
                             Diags);
  ASSERT_TRUE(Prog.has_value());
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Tool);
  Machine M(*Prog, &Dispatcher);
  ASSERT_TRUE(M.run().Ok);

  // Contexts: main, main>viaA, main>viaA>leaf, main>viaB, main>viaB>leaf.
  EXPECT_EQ(Tool.contextCount(), 5u);
  uint64_t LeafViaA = 0, LeafViaB = 0;
  for (CctTool::NodeIndex I = 1; I < Tool.nodes().size(); ++I) {
    std::string Path = Tool.contextPath(I, &Prog->Symbols);
    if (Path == "main > viaA > leaf")
      LeafViaA = Tool.nodes()[I].Calls;
    if (Path == "main > viaB > leaf")
      LeafViaB = Tool.nodes()[I].Calls;
  }
  EXPECT_EQ(LeafViaA, 2u);
  EXPECT_EQ(LeafViaB, 1u);

  std::string Report = Tool.renderReport(&Prog->Symbols);
  EXPECT_NE(Report.find("main > viaA > leaf"), std::string::npos);
}

TEST(Cct, InclusiveCoversDescendants) {
  CctTool Tool;
  DiagnosticEngine Diags;
  auto Prog = compileProgram(R"(
    fn inner() {
      var i = 0;
      while (i < 5) { i = i + 1; }
      return i;
    }
    fn outer() { return inner(); }
    fn main() { return outer(); })",
                             Diags);
  ASSERT_TRUE(Prog.has_value());
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Tool);
  Machine M(*Prog, &Dispatcher);
  ASSERT_TRUE(M.run().Ok);
  for (CctTool::NodeIndex I = 1; I < Tool.nodes().size(); ++I) {
    if (Tool.contextPath(I, &Prog->Symbols) == "main > outer") {
      EXPECT_GT(Tool.inclusiveBlocks(I),
                Tool.nodes()[I].ExclusiveBlocks);
      return;
    }
  }
  FAIL() << "context main > outer not found";
}

//===----------------------------------------------------------------------===//
// Tool registry
//===----------------------------------------------------------------------===//

TEST(Registry, CreatesEveryRegisteredTool) {
  for (const std::string &Name : allToolNames()) {
    auto T = makeTool(Name);
    ASSERT_NE(T, nullptr) << Name;
    EXPECT_TRUE(knownToolName(Name));
  }
  EXPECT_TRUE(knownToolName("native"));
  EXPECT_FALSE(knownToolName("bogus"));
  EXPECT_EQ(makeTool("bogus"), nullptr);
}

TEST(Registry, RendersReportsForEveryTool) {
  for (const std::string &Name : allToolNames()) {
    auto T = makeTool(Name);
    ASSERT_NE(T, nullptr);
    EventDispatcher Dispatcher;
    Dispatcher.addTool(T.get());
    RunResult R = compileAndRun(
        "fn work(n) { var s = 0; for (var i = 0; i < n; i = i + 1) "
        "{ s = s + i; } return s; } "
        "fn main() { var t = spawn work(10); return work(5) + join(t); }",
        &Dispatcher);
    ASSERT_TRUE(R.Ok) << Name << ": " << R.Error;
    std::string Report = renderToolReport(*T, nullptr);
    EXPECT_FALSE(Report.empty()) << Name;
  }
}

//===----------------------------------------------------------------------===//
// The batch walk (ToolImpl::handleBatch)
//===----------------------------------------------------------------------===//

bool isBoundary(EventKind K) {
  return K == EventKind::Call || K == EventKind::Return ||
         K == EventKind::ThreadEnd;
}

/// Appends the callbacks the decoded record \p E must reach a tool as,
/// in RecordingTool's notation: a boundary's blocks first, if any.
void appendExpected(const EventRecord &E,
                    std::vector<RecordingTool::Entry> &Out) {
  if (isBoundary(E.Kind) && E.Arg1 != 0)
    Out.push_back({'B', E.Tid, E.Arg1, 0});
  switch (E.Kind) {
  case EventKind::ThreadStart:
    Out.push_back({'S', E.Tid, static_cast<ThreadId>(E.Arg0), 0});
    return;
  case EventKind::ThreadEnd:
    Out.push_back({'E', E.Tid, 0, 0});
    return;
  case EventKind::Call:
    Out.push_back({'C', E.Tid, static_cast<RoutineId>(E.Arg0), 0});
    return;
  case EventKind::Return:
    Out.push_back({'R', E.Tid, static_cast<RoutineId>(E.Arg0), 0});
    return;
  case EventKind::Read:
    Out.push_back({'r', E.Tid, E.Arg0, E.Arg1});
    return;
  case EventKind::Write:
    Out.push_back({'w', E.Tid, E.Arg0, E.Arg1});
    return;
  case EventKind::KernelRead:
    Out.push_back({'k', E.Tid, E.Arg0, E.Arg1});
    return;
  case EventKind::KernelWrite:
    Out.push_back({'K', E.Tid, E.Arg0, E.Arg1});
    return;
  case EventKind::SyncAcquire:
    Out.push_back({'a', E.Tid, static_cast<SyncId>(E.Arg0), E.Arg1 != 0});
    return;
  case EventKind::SyncRelease:
    Out.push_back({'l', E.Tid, static_cast<SyncId>(E.Arg0), E.Arg1 != 0});
    return;
  case EventKind::ThreadCreate:
    Out.push_back({'c', E.Tid, static_cast<ThreadId>(E.Arg0), 0});
    return;
  case EventKind::ThreadJoin:
    Out.push_back({'j', E.Tid, static_cast<ThreadId>(E.Arg0), 0});
    return;
  case EventKind::Alloc:
    Out.push_back({'m', E.Tid, E.Arg0, E.Arg1});
    return;
  case EventKind::Free:
    Out.push_back({'f', E.Tid, E.Arg0, 0});
    return;
  }
  ADD_FAILURE() << "unknown event kind";
}

/// A random packed word sequence: main words of every kind, with and
/// without a follow-on (for a boundary, a random block count), over the
/// full thread id range, and sometimes a main word whose follow-on is
/// cut off by the end.
std::vector<Event> randomWords(std::mt19937_64 &Rng) {
  std::vector<Event> Words;
  size_t N = 1 + Rng() % 64;
  const unsigned Kinds = static_cast<unsigned>(EventKind::Free) + 1;
  for (size_t I = 0; I != N; ++I) {
    const auto K = static_cast<EventKind>(Rng() % Kinds);
    bool Follow = Rng() % (isBoundary(K) ? 2 : 3) == 0;
    Event W;
    W.Meta = static_cast<uint32_t>(K) | (Follow ? Event::FollowBit : 0);
    W.Tid = static_cast<ThreadId>(Rng() % 2 ? Rng() % 4 : Rng());
    W.Arg = Rng() % 4 ? Rng() % 4096 : Rng();
    Words.push_back(W);
    if (Follow)
      Words.push_back({0, 0, Rng() % 2 ? Rng() % 64 : Rng()});
  }
  if (Rng() % 4 == 0) // a record whose follow-on never arrives
    Words.push_back(
        {static_cast<uint32_t>(EventKind::Read) | Event::FollowBit, 0, 7});
  return Words;
}

TEST(ToolWalk, MatchesDecodedRecordsOnRandomWords) {
  // The walk must give a tool the callbacks of each record decodeEvent
  // yields, with that record's arguments — a boundary's nonzero block
  // count as an onBasicBlock just before the boundary's own callback —
  // for RecordingTool, and one event per record for NulTool's count.
  std::mt19937_64 Rng(20261017);
  for (int Round = 0; Round != 2000; ++Round) {
    std::vector<Event> Words = randomWords(Rng);
    std::vector<RecordingTool::Entry> Expected;
    size_t Records = 0;
    EventRecord E;
    for (size_t Pos = 0, Used;
         (Used = decodeEvent(Words.data() + Pos, Words.size() - Pos, E)) != 0;
         Pos += Used, ++Records)
      appendExpected(E, Expected);

    RecordingTool Recording;
    NulTool Nul;
    for (Tool *T : std::initializer_list<Tool *>{&Recording, &Nul})
      T->handleBatch(Words.data(), Words.size());
    ASSERT_EQ(Recording.Entries, Expected) << "round " << Round;
    ASSERT_EQ(Nul.eventsSeen(), Records) << "round " << Round;
  }
}

TEST(ToolWalk, EncodedRecordsRoundTripThroughTheWalk) {
  // Records the encoder produces — follow-ons for non-default second
  // arguments, block counts on boundaries, the largest thread id —
  // reach the callbacks unchanged.
  std::vector<EventRecord> Records = {
      EventRecord::threadStart(0, 0),
      EventRecord::call(0, 7),
      EventRecord::call(0, 8, 41),
      EventRecord::read(0, 100),
      EventRecord::read(0, 200, 9),
      EventRecord::write(MaxThreadId, 300),
      EventRecord::kernelWrite(3, 400, 2),
      EventRecord::syncAcquire(3, 5, true),
      EventRecord::syncRelease(3, 5, false),
      EventRecord::alloc(1, 64, 16),
      EventRecord::free(1, 64),
      EventRecord::ret(0, 8, 12),
      EventRecord::threadEnd(0, 3),
  };
  std::vector<Event> Words = encodeEventStream(Records);
  std::vector<RecordingTool::Entry> Expected;
  for (const EventRecord &E : Records)
    appendExpected(E, Expected);
  RecordingTool Recording;
  Recording.handleBatch(Words.data(), Words.size());
  EXPECT_EQ(Recording.Entries, Expected);
  ASSERT_EQ(Recording.Entries.size(), Records.size() + 3);
  EXPECT_EQ(Recording.Entries[2], RecordingTool::Entry('B', 0, 41, 0));
  EXPECT_EQ(Recording.Entries[3], RecordingTool::Entry('C', 0, 8, 0));
  EXPECT_EQ(Recording.Entries[6],
            RecordingTool::Entry('w', MaxThreadId, 300, 1));
  EXPECT_EQ(Recording.Entries[12], RecordingTool::Entry('B', 0, 12, 0));
  EXPECT_EQ(Recording.Entries[14], RecordingTool::Entry('B', 0, 3, 0));
}

/// Appends a record of kind \p K whose second argument, \p Blocks for
/// a boundary, is 0 unless a follow-on word carries it.
void pushRecord(std::vector<Event> &Words, EventKind K, ThreadId Tid,
                uint64_t Arg, uint64_t Blocks = 0) {
  Words.push_back({static_cast<uint32_t>(K) |
                       (Blocks != 0 ? Event::FollowBit : 0u),
                   Tid, Arg});
  if (Blocks != 0)
    Words.push_back({0, 0, Blocks});
}

TEST(ToolWalk, BoundaryBlockCountsChargeTheOpenFrames) {
  // Thread 1 runs main (routine 0), which calls f (1) and then g (2);
  // the thread ends with main and g still open. Thread 2 runs w (3).
  // Block counts ride on the boundaries: main runs 3 blocks before f
  // and 2 before g, f runs 4, g runs 5 up to the ThreadEnd; blocks
  // thread 2 runs before w's Call belong to no frame, and w runs 7.
  // Fed the same trace with block records, the walk before block counts
  // moved onto the boundaries gave these same values.
  using K = EventKind;
  std::vector<Event> Words;
  pushRecord(Words, K::ThreadStart, 1, 0);
  pushRecord(Words, K::Call, 1, 0);
  pushRecord(Words, K::ThreadStart, 2, 1);
  pushRecord(Words, K::Call, 2, 3, 1);
  pushRecord(Words, K::Call, 1, 1, 3);
  Words.push_back({static_cast<uint32_t>(K::Read), 1, 100});
  pushRecord(Words, K::Return, 1, 1, 4);
  pushRecord(Words, K::Return, 2, 3, 7);
  pushRecord(Words, K::Call, 1, 2, 2);
  Words.push_back({static_cast<uint32_t>(K::Read), 1, 101});
  // Under two open frames: the 5 blocks go to g, the innermost.
  pushRecord(Words, K::ThreadEnd, 1, 0, 5);
  pushRecord(Words, K::ThreadEnd, 2, 0);

  auto feed = [&](Tool &T) {
    T.onStart(nullptr);
    T.handleBatch(Words.data(), Words.size());
    T.onFinish();
  };
  // Activation costs, in completion order: f, w, g, main.
  const std::vector<std::pair<RoutineId, uint64_t>> Costs = {
      {1, 4}, {3, 7}, {2, 5}, {0, 14}};
  auto costsOf = [](const ProfileDatabase &Db) {
    std::vector<std::pair<RoutineId, uint64_t>> Out;
    for (const ActivationRecord &R : Db.log())
      Out.push_back({R.Rtn, R.Cost});
    return Out;
  };
  TrmsProfilerOptions TrmsOpts;
  TrmsOpts.KeepActivationLog = true;
  TrmsProfiler Trms(TrmsOpts);
  RmsProfilerOptions RmsOpts;
  RmsOpts.KeepActivationLog = true;
  RmsProfiler Rms(RmsOpts);
  NaiveProfilerOptions NaiveOpts;
  NaiveOpts.KeepActivationLog = true;
  NaiveTrmsProfiler Naive(NaiveOpts);
  feed(Trms);
  feed(Rms);
  feed(Naive);
  EXPECT_EQ(costsOf(Trms.database()), Costs);
  EXPECT_EQ(costsOf(Rms.database()), Costs);
  EXPECT_EQ(costsOf(Naive.database()), Costs);

  CallgrindTool Callgrind;
  feed(Callgrind);
  const auto &Routine = Callgrind.routineCosts();
  // {exclusive, inclusive} blocks per routine.
  const std::map<RoutineId, std::pair<uint64_t, uint64_t>> Blocks = {
      {0, {5, 14}}, {1, {4, 4}}, {2, {5, 5}}, {3, {7, 7}}};
  ASSERT_EQ(Routine.size(), Blocks.size());
  for (const auto &[Rtn, Expect] : Blocks) {
    ASSERT_TRUE(Routine.count(Rtn)) << "routine " << Rtn;
    EXPECT_EQ(Routine.at(Rtn).ExclusiveBlocks, Expect.first) << Rtn;
    EXPECT_EQ(Routine.at(Rtn).InclusiveBlocks, Expect.second) << Rtn;
  }

  CctTool Cct;
  feed(Cct);
  std::map<std::string, uint64_t> NodeBlocks;
  for (CctTool::NodeIndex I = 1; I != Cct.nodes().size(); ++I)
    NodeBlocks[Cct.contextPath(I, nullptr)] = Cct.nodes()[I].ExclusiveBlocks;
  const std::map<std::string, uint64_t> ExpectedNodes = {
      {"#0", 5}, {"#0 > #1", 4}, {"#0 > #2", 5}, {"#3", 7}};
  EXPECT_EQ(NodeBlocks, ExpectedNodes);
}

} // namespace
