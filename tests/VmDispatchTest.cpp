//===- tests/VmDispatchTest.cpp - Dispatch-mode / block-compile identity ---===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The interpreter's contract across its execution strategies: the switch
// loop, the computed-goto threaded loop, and the block-compiled fast
// path must produce byte-identical packed event streams, identical
// guest output, and identical run statistics (modulo the CompiledBlock*
// engagement counters). These are the property tests the hot-path
// refactor is gated on — a divergence anywhere in event content,
// compaction, *or flush timing* shows up as a word-level mismatch here.
//
//===----------------------------------------------------------------------===//

#include "instr/Dispatcher.h"
#include "vm/Compiler.h"
#include "vm/Diag.h"
#include "vm/Machine.h"
#include "vm/Optimizer.h"

#include <gtest/gtest.h>

using namespace isp;

namespace {

struct RunCapture {
  std::vector<Event> Words;
  RunResult Result;
};

RunCapture runWith(const Program &Prog, MachineOptions Opts) {
  RunCapture Out;
  EventDispatcher Dispatcher;
  Dispatcher.enableRecording();
  Machine M(Prog, &Dispatcher, Opts);
  Out.Result = M.run();
  Out.Words = Dispatcher.recordedEvents();
  return Out;
}

/// Equality over everything a guest run observes — including failure
/// diagnostics — with the block-compile engagement counters (which
/// legitimately differ) masked out.
void expectEquivalent(const RunCapture &A, const RunCapture &B,
                      const char *What) {
  EXPECT_EQ(A.Result.Ok, B.Result.Ok) << What;
  EXPECT_EQ(A.Result.ExitCode, B.Result.ExitCode) << What;
  EXPECT_EQ(A.Result.Error, B.Result.Error) << What;
  EXPECT_EQ(A.Result.Output, B.Result.Output) << What;
  RunStats SA = A.Result.Stats, SB = B.Result.Stats;
  SA.CompiledBlockRuns = SB.CompiledBlockRuns = 0;
  SA.CompiledBlockInstrs = SB.CompiledBlockInstrs = 0;
  EXPECT_EQ(SA.Instructions, SB.Instructions) << What;
  EXPECT_EQ(SA.BasicBlocks, SB.BasicBlocks) << What;
  EXPECT_EQ(SA.MemReads, SB.MemReads) << What;
  EXPECT_EQ(SA.MemWrites, SB.MemWrites) << What;
  EXPECT_EQ(SA.GuestMemoryBytes, SB.GuestMemoryBytes) << What;
  EXPECT_EQ(SA.QuietEventsSuppressed, SB.QuietEventsSuppressed) << What;
  EXPECT_EQ(SA.QuietIndirectSuppressed, SB.QuietIndirectSuppressed) << What;
  EXPECT_EQ(SA.QuietWindowAborts, SB.QuietWindowAborts) << What;
  ASSERT_EQ(A.Words.size(), B.Words.size()) << What;
  for (size_t I = 0; I != A.Words.size(); ++I)
    ASSERT_TRUE(A.Words[I] == B.Words[I])
        << What << ": packed word " << I << " differs";
}

/// Runs \p Source under all four strategy combinations and checks the
/// full pairwise identity. Returns the block-compiled capture so tests
/// can also assert engagement. With \p ExpectOk false the guest is
/// expected to fail, identically, in every mode.
RunCapture checkAllModes(const std::string &Source, bool Optimize = false,
                         uint64_t SliceLength = 150, bool ExpectOk = true) {
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(Source, Diags);
  EXPECT_TRUE(Prog.has_value()) << Diags.render();
  if (!Prog)
    return {};
  if (Optimize)
    optimizeProgram(*Prog);

  MachineOptions Base;
  Base.SliceLength = SliceLength;
  struct Config {
    const char *Name;
    DispatchMode Dispatch;
    bool BlockCompile;
  };
  const Config Configs[] = {
      {"switch", DispatchMode::Switch, false},
      {"threaded", DispatchMode::Threaded, false},
      {"switch+block", DispatchMode::Switch, true},
      {"threaded+block", DispatchMode::Threaded, true},
  };
  RunCapture Reference;
  RunCapture BlockCompiled;
  for (const Config &C : Configs) {
    MachineOptions Opts = Base;
    Opts.Dispatch = C.Dispatch;
    Opts.BlockCompile = C.BlockCompile;
    RunCapture Capture = runWith(*Prog, Opts);
    EXPECT_EQ(Capture.Result.Ok, ExpectOk)
        << C.Name << ": " << Capture.Result.Error;
    if (C.BlockCompile)
      BlockCompiled = Capture;
    if (&C == &Configs[0]) {
      Reference = std::move(Capture);
      continue;
    }
    expectEquivalent(Reference, Capture, C.Name);
  }
  return BlockCompiled;
}

const char *StraightLineHeavySource = R"(
  var total;
  var bias;
  fn step(a, b) {
    var x = a * 3 + b;
    var y = x - a;
    var z = x * y + bias;
    total = total + z;
    return z;
  }
  fn main() {
    bias = 7;
    var i = 0;
    var acc = 0;
    while (i < 200) {
      acc = acc + step(i, acc);
      i = i + 1;
    }
    return acc % 255;
  })";

TEST(DispatchEquivalence, StraightLineHeavyGuest) {
  RunCapture Block = checkAllModes(StraightLineHeavySource);
  EXPECT_GT(Block.Result.Stats.CompiledBlockRuns, 0u)
      << "guest has straight-line runs; the block compiler must engage";
  EXPECT_GT(Block.Result.Stats.CompiledBlockInstrs,
            Block.Result.Stats.CompiledBlockRuns)
      << "templated runs cover more than their BasicBlock markers";
}

TEST(DispatchEquivalence, QuietMarkedGuest) {
  // The optimizer's quiet marks exercise the statically-suppressed
  // template path (no event word, no time tick) and its
  // WindowInterrupted runtime gate.
  RunCapture Block = checkAllModes(StraightLineHeavySource, /*Optimize=*/true);
  EXPECT_GT(Block.Result.Stats.QuietEventsSuppressed, 0u)
      << "optimizer marks must fire under block compilation too";
}

TEST(DispatchEquivalence, MultiThreadedGuestAcrossSliceLengths) {
  const char *Source = R"(
    var shared[8];
    var gate;
    fn worker(id, rounds) {
      var i = 0;
      var acc = 0;
      while (i < rounds) {
        var v = shared[id] + i;
        shared[id] = v;
        acc = acc + v * 2 - id;
        i = i + 1;
      }
      return acc;
    }
    fn main() {
      gate = lock_create();
      var a = spawn worker(1, 40);
      var b = spawn worker(2, 55);
      var own = worker(0, 30);
      return (own + join(a) + join(b)) % 1023;
    })";
  // Short slices maximize thread switches (WindowInterrupted churn and
  // mid-window budget exhaustion); the default exercises long runs.
  checkAllModes(Source, /*Optimize=*/true, /*SliceLength=*/7);
  checkAllModes(Source, /*Optimize=*/true, /*SliceLength=*/150);
}

TEST(DispatchEquivalence, LongRunKeepsFlushTimingExactAcrossBatches) {
  // A run long enough to fill many batches: templated runs regularly
  // meet a nearly full batch, and the fast path must fall back rather
  // than flush early, keeping batch boundaries — and the recorded words
  // — exact.
  std::string Source = StraightLineHeavySource;
  size_t At = Source.find("i < 200");
  ASSERT_NE(At, std::string::npos);
  Source.replace(At, 7, "i < 6000");
  RunCapture Block = checkAllModes(Source);
  EXPECT_GT(Block.Words.size(), 8 * EventDispatcher::BatchWords)
      << "the run must span many batches";
}

TEST(DispatchEquivalence, IndirectAndBuiltinGuest) {
  // Indirect accesses ride inside hybrid runs (their events enqueued at
  // the segment seams); allocas, kernel I/O, and builtins remain
  // block-ineligible, so templates must end cleanly at each and the
  // slow path must resume with identical dispatcher state.
  const char *Source = R"(
    var buf[16];
    fn fill(n) {
      var i = 0;
      while (i < n) {
        buf[i] = i * i;
        i = i + 1;
      }
      return i;
    }
    fn main() {
      sysread(1, buf, 8);
      var n = fill(12);
      var p = alloc(6);
      store(p + 1, 42);
      var v = load(p + 1);
      syswrite(2, buf, 4);
      return n + v + buf[3];
    })";
  RunCapture Block = checkAllModes(Source, /*Optimize=*/true);
  EXPECT_GT(Block.Result.Stats.CompiledBlockRuns, 0u)
      << "hybrid runs must engage on the indirect-heavy fill loop";
}

TEST(DispatchEquivalence, DivideByZeroMidRunFailsIdentically) {
  // The divisor reaches zero on the fourth iteration, inside a compiled
  // run: stop-before-failure must reproduce the slow path's diagnostic,
  // prefix events, and prefix stats exactly.
  const char *Source = R"(
    fn main() {
      var i = 0;
      var acc = 7;
      while (i < 10) {
        acc = acc + 100 / (3 - i);
        i = i + 1;
      }
      return acc;
    })";
  RunCapture Block =
      checkAllModes(Source, /*Optimize=*/false, /*SliceLength=*/150,
                    /*ExpectOk=*/false);
  EXPECT_GT(Block.Result.Stats.CompiledBlockRuns, 0u)
      << "the failing run must have engaged the fast path";
}

TEST(DispatchEquivalence, InvalidIndirectAddressMidRunFailsIdentically) {
  // The second iteration indexes far outside the globals region: the
  // hybrid run's LoadIndirect fails after one successful iteration and
  // one successful in-run dynamic event.
  const char *Source = R"(
    var buf[4];
    fn main() {
      var i = 0;
      var acc = 0;
      while (i < 100) {
        acc = acc + buf[i * 50];
        i = i + 1;
      }
      return acc;
    })";
  RunCapture Block =
      checkAllModes(Source, /*Optimize=*/false, /*SliceLength=*/150,
                    /*ExpectOk=*/false);
  EXPECT_GT(Block.Result.Stats.CompiledBlockRuns, 0u)
      << "the failing run must have engaged the fast path";
}

TEST(DispatchEquivalence, ThreadedIsDefaultWhenAvailable) {
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram("fn main() { return 3; }",
                                               Diags);
  ASSERT_TRUE(Prog.has_value());
  MachineOptions Auto; // DispatchMode::Auto picks threaded when built in.
  RunCapture A = runWith(*Prog, Auto);
  EXPECT_TRUE(A.Result.Ok);
  EXPECT_EQ(A.Result.ExitCode, 3);
}

/// Structural invariants every plan must satisfy: the compaction
/// identity (with dynamic events self-counting), the segment partition
/// of the word array, per-segment tick accounting, and the opcode
/// whitelist over the covered range.
void expectPlanInvariants(const Function &Fn, const BlockPlan &P) {
  EXPECT_EQ(Fn.Code[P.BeginPc].Opcode, Op::BasicBlock);
  EXPECT_GE(P.instrCount(), 2u);
  EXPECT_EQ(P.EnqueueCount, uint64_t(P.NumRecords + P.InternalMerges +
                                     P.InternalBbFolds + P.NumDynEvents))
      << "records + merges + folds + dynamic events must reassemble the "
         "uncompacted count";
  EXPECT_EQ(P.InternalBbFolds, P.NumBlocks - 1);
  ASSERT_FALSE(P.Words.empty());
  EXPECT_EQ(P.Words.front().Word.kind(), EventKind::BasicBlock);
  EXPECT_EQ(P.Words.front().TimeOff, 1u);
  EXPECT_EQ(P.Words.front().Word.Arg, uint64_t(P.NumBlocks))
      << "interior markers fold into the leading block count";

  // Segments partition Words in run order, one per dynamic event plus
  // one; each segment's tick count is its own record/merge/fold total,
  // and its LastMainOff names its final main word.
  ASSERT_EQ(P.Segments.size(), size_t(P.NumDynEvents) + 1);
  uint32_t WordCursor = 0;
  uint64_t Records = 0, Merges = 0, Folds = 0, Ticks = 0;
  for (const BlockPlan::Segment &S : P.Segments) {
    EXPECT_EQ(S.WordBegin, WordCursor);
    EXPECT_LE(S.WordBegin, S.WordEnd);
    WordCursor = S.WordEnd;
    EXPECT_EQ(S.Ticks, S.NumRecords + S.InternalMerges + S.InternalBbFolds);
    Records += S.NumRecords;
    Merges += S.InternalMerges;
    Folds += S.InternalBbFolds;
    Ticks += S.Ticks;
    uint32_t LastMain = 0, MainWords = 0;
    for (uint32_t W = S.WordBegin; W != S.WordEnd; ++W)
      if (P.Words[W].MainMask != 0) {
        LastMain = P.Words[W].TimeOff;
        ++MainWords;
      }
    EXPECT_EQ(MainWords, S.NumRecords) << "one main word per record";
    if (S.NumRecords != 0)
      EXPECT_EQ(S.LastMainOff, LastMain);
  }
  EXPECT_EQ(WordCursor, P.Words.size());
  EXPECT_EQ(Records, P.NumRecords);
  EXPECT_EQ(Merges, P.InternalMerges);
  EXPECT_EQ(Folds, P.InternalBbFolds);
  EXPECT_EQ(Ticks + P.NumDynEvents, P.EnqueueCount);

  for (const TemplateWord &W : P.Words) {
    EXPECT_EQ(W.Word.inlineTid(), 0u) << "tid patched at runtime";
    EXPECT_EQ(W.Word.TimeLow, 0u) << "time patched at runtime";
    EXPECT_FALSE(W.Word.isEscape()) << "templates cannot hold escapes";
    if (W.MainMask == 0) {
      EXPECT_EQ(W.FrameMask, 0u) << "follow-ons take no frame base";
      EXPECT_EQ(W.TimeOff, 0u) << "follow-ons take no time";
    }
  }
  // Covered instructions are all whitelisted and in range; interior
  // BasicBlock markers are allowed (folded statically) and the dynamic
  // instructions ride inside hybrid runs, but terminators, calls, and
  // the remaining fallible op (AllocaArray) never appear.
  uint32_t Markers = 1, DynAccesses = 0;
  for (uint32_t Pc = P.BeginPc + 1; Pc != P.EndPc; ++Pc) {
    const Instr &I = Fn.Code[Pc];
    if (I.Opcode == Op::BasicBlock) {
      ++Markers;
      continue;
    }
    if ((I.Opcode == Op::LoadIndirect || I.Opcode == Op::StoreIndirect) &&
        I.B == 0)
      ++DynAccesses;
    EXPECT_TRUE(I.Opcode != Op::Call && I.Opcode != Op::Return &&
                I.Opcode != Op::Jump && I.Opcode != Op::JumpIfFalse &&
                I.Opcode != Op::JumpIfTrue && I.Opcode != Op::CallBuiltin &&
                I.Opcode != Op::Spawn && I.Opcode != Op::AllocaArray);
  }
  EXPECT_EQ(Markers, P.NumBlocks);
  EXPECT_EQ(DynAccesses, P.NumDynEvents)
      << "each unmarked dynamic access is one runtime-enqueued event";
}

TEST(BlockCompiler, PlansCoverStraightLineRunsOnly) {
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(StraightLineHeavySource, Diags);
  ASSERT_TRUE(Prog.has_value());
  const Function *Step = Prog->findFunction("step");
  ASSERT_NE(Step, nullptr);
  FunctionBlockPlans Plans = compileFunctionBlocks(*Step, Prog->GlobalCells);
  ASSERT_FALSE(Plans.Plans.empty()) << "step() is one straight-line block";
  for (const BlockPlan &P : Plans.Plans) {
    expectPlanInvariants(*Step, P);
    EXPECT_EQ(P.NumDynEvents, 0u) << "step() is purely static";
    EXPECT_EQ(P.Segments.size(), 1u);
  }
}

TEST(BlockCompiler, HybridPlansSegmentAtDynamicAccesses) {
  const char *Source = R"(
    var data[32];
    fn kernel(i) {
      var a = data[i];
      var b = data[i + 1];
      data[i] = a + b / 3;
      return a * b;
    }
    fn main() { return kernel(4); })";
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(Source, Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();
  const Function *Kernel = Prog->findFunction("kernel");
  ASSERT_NE(Kernel, nullptr);
  FunctionBlockPlans Plans =
      compileFunctionBlocks(*Kernel, Prog->GlobalCells);
  ASSERT_FALSE(Plans.Plans.empty())
      << "indirect accesses and division must not break the cover";
  bool SawHybrid = false;
  for (const BlockPlan &P : Plans.Plans) {
    expectPlanInvariants(*Kernel, P);
    if (P.NumDynEvents >= 3)
      SawHybrid = true; // two loads and a store in one run
  }
  EXPECT_TRUE(SawHybrid)
      << "kernel() body must compile to one hybrid run with >= 3 segments";
}

} // namespace
