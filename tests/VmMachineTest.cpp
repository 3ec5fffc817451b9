//===- tests/VmMachineTest.cpp - Interpreter and scheduler tests ---------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "TestUtil.h"
#include "instr/Dispatcher.h"
#include "tools/NulTool.h"
#include "vm/Compiler.h"
#include "vm/Diag.h"
#include "vm/Optimizer.h"

#include <gtest/gtest.h>

using namespace isp;

namespace {

RunResult run(const std::string &Source,
              MachineOptions Opts = MachineOptions()) {
  return compileAndRun(Source, nullptr, Opts);
}

std::string runOutput(const std::string &Source) {
  RunResult R = run(Source);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Output;
}

//===----------------------------------------------------------------------===//
// Sequential semantics
//===----------------------------------------------------------------------===//

TEST(Machine, ArithmeticAndPrecedence) {
  EXPECT_EQ(runOutput("fn main() { print(2 + 3 * 4); return 0; }"), "14\n");
  EXPECT_EQ(runOutput("fn main() { print((2 + 3) * 4); return 0; }"),
            "20\n");
  EXPECT_EQ(runOutput("fn main() { print(7 / 2); print(7 % 2); "
                      "print(-7 / 2); return 0; }"),
            "3\n1\n-3\n");
  EXPECT_EQ(runOutput("fn main() { print(1 < 2); print(2 <= 1); "
                      "print(3 == 3); print(3 != 3); return 0; }"),
            "1\n0\n1\n0\n");
}

TEST(Machine, ShortCircuitEvaluation) {
  // The right operand must not run when the left decides: a division by
  // zero there would kill the program.
  EXPECT_EQ(runOutput("fn main() { print(0 != 0 && 1 / 0 > 0); "
                      "print(1 == 1 || 1 / 0 > 0); return 0; }"),
            "0\n1\n");
  EXPECT_EQ(runOutput("fn main() { print(2 && 3); print(0 || 5); "
                      "print(!0); print(!7); return 0; }"),
            "1\n1\n1\n0\n");
}

TEST(Machine, ControlFlow) {
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var sum = 0;
      for (var i = 1; i <= 10; i = i + 1) { sum = sum + i; }
      var j = 10;
      while (j > 0) { sum = sum + 1; j = j - 1; }
      if (sum == 65) { print(sum); } else { print(0 - sum); }
      return 0;
    })"),
            "65\n");
}

TEST(Machine, FunctionsAndRecursion) {
  EXPECT_EQ(runOutput(R"(
    fn fib(n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    fn main() { print(fib(15)); return 0; })"),
            "610\n");
}

TEST(Machine, ArraysLocalAndGlobal) {
  EXPECT_EQ(runOutput(R"(
    var g[4];
    fn main() {
      var a[3];
      a[0] = 5; a[1] = 6; a[2] = a[0] + a[1];
      g[3] = a[2] * 2;
      print(g[3]);
      print(g[0]); // zero-initialized globals
      return 0;
    })"),
            "22\n0\n");
}

TEST(Machine, ArrayArgumentsAreAddresses) {
  EXPECT_EQ(runOutput(R"(
    fn fill(buf, n) {
      var i = 0;
      while (i < n) { buf[i] = i * i; i = i + 1; }
      return 0;
    }
    fn main() {
      var a[5];
      fill(a, 5);
      print(a[4]);
      return 0;
    })"),
            "16\n");
}

TEST(Machine, HeapAllocAndRawAccess) {
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var p = alloc(10);
      store(p + 3, 77);
      print(load(p + 3));
      free(p);
      return 0;
    })"),
            "77\n");
}

TEST(Machine, GlobalInitializers) {
  EXPECT_EQ(runOutput("var a = 7; var b = -3; fn main() { print(a + b); "
                      "return 0; }"),
            "4\n");
}

TEST(Machine, ExitCodeFromMain) {
  RunResult R = run("fn main() { return 42; }");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 42);
}

//===----------------------------------------------------------------------===//
// Runtime errors
//===----------------------------------------------------------------------===//

TEST(Machine, DivisionByZeroFails) {
  RunResult R = run("fn main() { var x = 0; return 1 / x; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

TEST(Machine, WildAddressFails) {
  RunResult R = run("fn main() { return load(123456789); }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invalid memory access"), std::string::npos);
}

TEST(Machine, StackOverflowFails) {
  RunResult R = run("fn inf(n) { return inf(n + 1); } "
                    "fn main() { return inf(0); }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("stack overflow"), std::string::npos);
}

TEST(Machine, InstructionBudgetStopsInfiniteLoops) {
  MachineOptions Opts;
  Opts.MaxInstructions = 10000;
  RunResult R = run("fn main() { for (;;) { } return 0; }", Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(Machine, DeadlockIsDetected) {
  RunResult R = run(R"(
    fn main() {
      var s = sem_create(0);
      sem_wait(s);
      return 0;
    })");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("deadlock"), std::string::npos);
}

TEST(Machine, CompileErrorsSurfaceInResult) {
  RunResult R = run("fn main() { return undefined_thing; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("compile error"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Threads and synchronization
//===----------------------------------------------------------------------===//

TEST(Machine, SpawnJoinReturnsValue) {
  EXPECT_EQ(runOutput(R"(
    fn square(x) { return x * x; }
    fn main() {
      var t1 = spawn square(9);
      var t2 = spawn square(10);
      print(join(t1) + join(t2));
      return 0;
    })"),
            "181\n");
}

TEST(Machine, ManyThreadsShareGlobals) {
  EXPECT_EQ(runOutput(R"(
    var counter;
    var lk;
    fn bump(times) {
      var i = 0;
      while (i < times) {
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
      var tids[8];
      var t = 0;
      while (t < 8) { tids[t] = spawn bump(50); t = t + 1; }
      t = 0;
      while (t < 8) { join(tids[t]); t = t + 1; }
      print(counter);
      return 0;
    })"),
            "400\n");
}

TEST(Machine, SemaphoresEnforceAlternation) {
  // Producer-consumer with capacity 1: the consumer must read every
  // value exactly once, in order.
  EXPECT_EQ(runOutput(R"(
    var x;
    var emptySem;
    var fullSem;
    fn producer(n) {
      var i = 1;
      while (i <= n) {
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
      var p = spawn producer(20);
      var c = spawn consumer(20);
      join(p);
      print(join(c));
      return 0;
    })"),
            "210\n");
}

TEST(Machine, JoinAfterThreadAlreadyFinished) {
  EXPECT_EQ(runOutput(R"(
    fn quick() { return 5; }
    fn main() {
      var t = spawn quick();
      var i = 0;
      while (i < 1000) { i = i + 1; } // let it finish
      print(join(t));
      return 0;
    })"),
            "5\n");
}

TEST(Machine, SchedulerIsDeterministic) {
  const char *Source = R"(
    var acc;
    var lk;
    fn work(id) {
      var i = 0;
      while (i < 30) {
        lock_acquire(lk);
        acc = acc * 2 + id;
        lock_release(lk);
        i = i + 1;
      }
      return 0;
    }
    fn main() {
      lk = lock_create();
      acc = 1;
      var a = spawn work(1);
      var b = spawn work(2);
      join(a); join(b);
      print(acc % 1000000007);
      return 0;
    })";
  std::string First = runOutput(Source);
  std::string Second = runOutput(Source);
  EXPECT_EQ(First, Second);
}

TEST(Machine, SliceLengthChangesInterleavingNotResults) {
  const char *Source = R"(
    var total;
    var lk;
    fn add(n) {
      var i = 0;
      while (i < n) {
        lock_acquire(lk);
        total = total + 1;
        lock_release(lk);
        i = i + 1;
      }
      return 0;
    }
    fn main() {
      lk = lock_create();
      total = 0;
      var a = spawn add(40);
      var b = spawn add(40);
      join(a); join(b);
      print(total);
      return 0;
    })";
  MachineOptions Short;
  Short.SliceLength = 7;
  MachineOptions Long;
  Long.SliceLength = 5000;
  RunResult A = run(Source, Short);
  RunResult B = run(Source, Long);
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_EQ(A.Output, "80\n");
  EXPECT_EQ(B.Output, "80\n");
  EXPECT_GT(A.Stats.ThreadSwitches, B.Stats.ThreadSwitches);
}

//===----------------------------------------------------------------------===//
// Devices and system calls
//===----------------------------------------------------------------------===//

TEST(Machine, SysReadDeliversPreloadedData) {
  DiagnosticEngine Diags;
  auto Prog = compileProgram(R"(
    var buf[4];
    fn main() {
      sysread(1, buf, 4);
      print(buf[0] + buf[1] + buf[2] + buf[3]);
      return 0;
    })",
                             Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();
  Machine M(*Prog, nullptr);
  M.device().preload(1, {10, 20, 30, 40});
  RunResult R = M.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "100\n");
}

TEST(Machine, SysWriteReachesDevice) {
  DiagnosticEngine Diags;
  auto Prog = compileProgram(R"(
    var buf[3];
    fn main() {
      buf[0] = 7; buf[1] = 8; buf[2] = 9;
      syswrite(2, buf, 3);
      return 0;
    })",
                             Diags);
  ASSERT_TRUE(Prog.has_value());
  Machine M(*Prog, nullptr);
  RunResult R = M.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(M.device().valuesWritten(2), 3u);
  ASSERT_EQ(M.device().writtenTail(2).size(), 3u);
  EXPECT_EQ(M.device().writtenTail(2)[0], 7);
  EXPECT_EQ(M.device().writtenTail(2)[2], 9);
}

TEST(Machine, DeviceStreamsAreDeterministic) {
  const char *Source = R"(
    var buf[8];
    fn main() {
      sysread(5, buf, 8);
      var sum = 0;
      var i = 0;
      while (i < 8) { sum = sum + buf[i]; i = i + 1; }
      print(sum);
      return 0;
    })";
  EXPECT_EQ(runOutput(Source), runOutput(Source));
}

//===----------------------------------------------------------------------===//
// Instrumentation contract
//===----------------------------------------------------------------------===//

TEST(Machine, EventStreamIsWellFormed) {
  const char *Source = R"(
    var buf[4];
    fn helper(x) { return x + buf[0]; }
    fn worker(n) {
      var i = 0;
      var acc = 0;
      while (i < n) { acc = helper(acc); i = i + 1; }
      return acc;
    }
    fn main() {
      sysread(1, buf, 4);
      var t = spawn worker(5);
      var r = worker(3);
      syswrite(2, buf, 2);
      return r + join(t);
    })";
  DiagnosticEngine Diags;
  auto Prog = compileProgram(Source, Diags);
  ASSERT_TRUE(Prog.has_value());
  WordSink Sink;
  EventDispatcher Dispatcher;
  Dispatcher.setRecordSink(&Sink);
  Machine M(*Prog, &Dispatcher);
  RunResult R = M.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  const std::vector<EventRecord> Events = decodeEventStream(Sink.Words);
  ASSERT_FALSE(Events.empty());
  // Call/return balance per thread; memory ops happen inside
  // activations (except spawn-argument publication).
  std::map<ThreadId, int> Depth;
  uint64_t Reads = 0, Writes = 0, KernelReads = 0, KernelWrites = 0;
  for (const EventRecord &E : Events) {
    switch (E.Kind) {
    case EventKind::Call:
      ++Depth[E.Tid];
      break;
    case EventKind::Return:
      --Depth[E.Tid];
      EXPECT_GE(Depth[E.Tid], 0);
      break;
    case EventKind::Read:
      // The dispatcher coalesces adjacent accesses to consecutive cells,
      // so one event may carry several cells in Arg1; cell totals must
      // still match the machine's counters exactly.
      Reads += E.Arg1;
      EXPECT_GT(Depth[E.Tid], 0);
      break;
    case EventKind::Write:
      Writes += E.Arg1;
      break;
    case EventKind::KernelRead:
      ++KernelReads;
      break;
    case EventKind::KernelWrite:
      ++KernelWrites;
      break;
    default:
      break;
    }
  }
  for (auto &[Tid, D] : Depth)
    EXPECT_EQ(D, 0);
  EXPECT_GT(Reads, 0u);
  EXPECT_GT(Writes, 0u);
  EXPECT_EQ(KernelReads, 1u);  // one syswrite
  EXPECT_EQ(KernelWrites, 1u); // one sysread
  EXPECT_EQ(Reads, R.Stats.MemReads);
  EXPECT_EQ(Writes, R.Stats.MemWrites);
}

TEST(Machine, BoundariesCarryTheThreadsBlockCounts) {
  // The VM emits no block record: each Call, Return and ThreadEnd
  // carries the blocks its thread ran since the thread's previous
  // boundary. A thread's entry Call is its first boundary, so it carries
  // none; the caller's blocks before each call of leaf ride on that
  // Call; leaf has no control flow, so its Return carries its one
  // block; a ThreadEnd follows its thread's last Return, so it carries
  // none. Together the counts are every block the run executed.
  const char *Source = R"(
    fn leaf(n) { return n + 1; }
    fn worker(n) {
      var s = 0;
      var i = 0;
      while (i < n) { s = s + leaf(i); i = i + 1; }
      return s;
    }
    fn main() {
      var t = spawn worker(4);
      return worker(3) + join(t);
    })";
  DiagnosticEngine Diags;
  auto Prog = compileProgram(Source, Diags);
  ASSERT_TRUE(Prog.has_value());
  const RoutineId Leaf = Prog->Symbols.lookup("leaf");
  WordSink Sink;
  EventDispatcher Dispatcher;
  Dispatcher.setRecordSink(&Sink);
  Machine M(*Prog, &Dispatcher);
  RunResult R = M.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  uint64_t Total = 0;
  unsigned LeafCalls = 0, LeafReturns = 0, ThreadEnds = 0;
  std::set<ThreadId> Entered;
  for (const EventRecord &E : decodeEventStream(Sink.Words)) {
    switch (E.Kind) {
    case EventKind::Call:
      Total += E.Arg1;
      if (Entered.insert(E.Tid).second) {
        EXPECT_EQ(E.Arg1, 0u) << "entry call of thread " << E.Tid;
      } else if (E.Arg0 == Leaf) {
        ++LeafCalls;
        EXPECT_GT(E.Arg1, 0u);
      }
      break;
    case EventKind::Return:
      Total += E.Arg1;
      if (E.Arg0 == Leaf) {
        ++LeafReturns;
        EXPECT_EQ(E.Arg1, 1u);
      }
      break;
    case EventKind::ThreadEnd:
      Total += E.Arg1;
      ++ThreadEnds;
      EXPECT_EQ(E.Arg1, 0u);
      break;
    default:
      break;
    }
  }
  EXPECT_EQ(LeafCalls, 7u);
  EXPECT_EQ(LeafReturns, 7u);
  EXPECT_EQ(ThreadEnds, 2u);
  EXPECT_EQ(Total, R.Stats.BasicBlocks);
}

TEST(Machine, NativeRunMatchesInstrumentedRun) {
  const char *Source = R"(
    fn main() {
      var acc = 0;
      for (var i = 0; i < 200; i = i + 1) { acc = acc + i * i; }
      print(acc);
      return 0;
    })";
  RunResult Native = compileAndRun(Source, nullptr);
  NulTool Nul;
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Nul);
  RunResult Instrumented = compileAndRun(Source, &Dispatcher);
  ASSERT_TRUE(Native.Ok && Instrumented.Ok);
  EXPECT_EQ(Native.Output, Instrumented.Output);
  EXPECT_EQ(Native.Stats.Instructions, Instrumented.Stats.Instructions);
  EXPECT_EQ(Native.Stats.BasicBlocks, Instrumented.Stats.BasicBlocks);
  EXPECT_GT(Nul.eventsSeen(), 0u);
}

} // namespace

//===----------------------------------------------------------------------===//
// break / continue
//===----------------------------------------------------------------------===//

namespace {

TEST(Machine, BreakLeavesInnermostLoop) {
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var found = -1;
      for (var i = 0; i < 10; i = i + 1) {
        var j = 0;
        while (j < 10) {
          if (i * 10 + j == 37) {
            found = i * 100 + j;
            break;
          }
          j = j + 1;
        }
        if (found >= 0) { break; }
      }
      print(found);
      return 0;
    })"),
            "307\n");
}

TEST(Machine, ContinueSkipsRestOfBody) {
  // Sum of odd numbers below 10 via continue in a while loop.
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var sum = 0;
      var i = 0;
      while (i < 10) {
        i = i + 1;
        if (i % 2 == 0) { continue; }
        sum = sum + i;
      }
      print(sum);
      return 0;
    })"),
            "25\n");
}

TEST(Machine, ContinueInForRunsStepClause) {
  // If continue skipped the step clause this would loop forever (and be
  // stopped by the instruction budget); getting 5 proves it ran.
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var count = 0;
      for (var i = 0; i < 10; i = i + 1) {
        if (i % 2 == 1) { continue; }
        count = count + 1;
      }
      print(count);
      return 0;
    })"),
            "5\n");
}

TEST(Machine, BreakOutsideLoopIsCompileError) {
  RunResult R = run("fn main() { break; return 0; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("outside of a loop"), std::string::npos);
  RunResult R2 = run("fn main() { continue; return 0; }");
  EXPECT_FALSE(R2.Ok);
  EXPECT_NE(R2.Error.find("outside of a loop"), std::string::npos);
}

TEST(Machine, BreakForInfiniteLoop) {
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var n = 0;
      for (;;) {
        n = n + 1;
        if (n == 42) { break; }
      }
      print(n);
      return 0;
    })"),
            "42\n");
}

} // namespace

//===----------------------------------------------------------------------===//
// Edge cases
//===----------------------------------------------------------------------===//

namespace {

TEST(MachineEdge, SelfJoinDeadlocks) {
  RunResult R = run("fn main() { return join(thread_id()); }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("deadlock"), std::string::npos);
}

TEST(MachineEdge, JoinInvalidThreadFails) {
  RunResult R = run("fn main() { return join(99); }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invalid thread"), std::string::npos);
}

TEST(MachineEdge, SemaphoreInvalidIdFails) {
  RunResult R = run("fn main() { sem_wait(42); return 0; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invalid semaphore"), std::string::npos);
}

TEST(MachineEdge, ZeroSizedAllocIsHarmless) {
  EXPECT_EQ(runOutput(R"(
    fn main() {
      var p = alloc(0);
      var q = alloc(4);
      store(q, 9);
      print(load(q));
      free(p);
      free(q);
      return 0;
    })"),
            "9\n");
}

TEST(MachineEdge, CrossThreadStackSharingWorks) {
  // A thread passes the address of its own local array to a worker,
  // which fills it — pointers into stacks are first-class.
  EXPECT_EQ(runOutput(R"(
    fn fill(buf, n, v) {
      for (var i = 0; i < n; i = i + 1) { buf[i] = v + i; }
      return 0;
    }
    fn main() {
      var mine[6];
      var t = spawn fill(mine, 6, 100);
      join(t);
      print(mine[0] + mine[5]);
      return 0;
    })"),
            "205\n");
}

TEST(MachineEdge, SpawnStormCompletes) {
  MachineOptions Opts;
  Opts.MaxInstructions = 1u << 24;
  RunResult R = run(R"(
    fn tiny(x) { return x + 1; }
    fn main() {
      var total = 0;
      for (var round = 0; round < 60; round = round + 1) {
        var a = spawn tiny(round);
        var b = spawn tiny(round * 2);
        total = total + join(a) + join(b);
      }
      print(total);
      return 0;
    })",
                    Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Stats.ThreadsSpawned, 121u); // main + 120 workers
}

TEST(MachineEdge, ThreadIdBuiltin) {
  EXPECT_EQ(runOutput(R"(
    fn who() { return thread_id(); }
    fn main() {
      var t = spawn who();
      print(thread_id());
      print(join(t));
      return 0;
    })"),
            "0\n1\n");
}

TEST(MachineEdge, NegativeArraySizeFails) {
  RunResult R = run("fn main() { var n = 0 - 4; var a[n]; return 0; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("negative local array size"), std::string::npos);
}

TEST(MachineEdge, ModuloOfNegativeOperands) {
  // C-style truncation semantics, pinned.
  EXPECT_EQ(runOutput("fn main() { print(-7 % 3); print(7 % -3); "
                      "return 0; }"),
            "-1\n1\n");
}

TEST(MachineEdge, ArithmeticWrapsAndNeverTraps) {
  // Guest integers wrap modulo 2^64, interpreted and constant-folded
  // alike; INT64_MIN / -1 once killed the whole process with SIGFPE.
  const char *Source = R"(
    fn main() {
      var m = 0 - 9223372036854775807 - 1;
      var d = 0 - 1;
      print(m * 3);
      print(0 - m);
      print(-m);
      print(m % d);
      print(m / d);
      print((0 - 9223372036854775807 - 1) / (0 - 1));
      return 0;
    })";
  const char *Min = "-9223372036854775808\n";
  std::string Expected = std::string(Min) + Min + Min + "0\n" + Min + Min;
  for (bool Optimize : {false, true}) {
    DiagnosticEngine Diags;
    std::optional<Program> Prog = compileProgram(Source, Diags);
    ASSERT_TRUE(Prog.has_value()) << Diags.render();
    if (Optimize)
      optimizeProgram(*Prog);
    Machine M(*Prog, nullptr);
    RunResult R = M.run();
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, Expected) << (Optimize ? "optimized" : "plain");
  }
}

} // namespace
