//===- tests/AnalysisTest.cpp - Static analysis layer tests --------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Unit tests for src/analysis: CFG construction, the generic dataflow
// solver (forward and backward), the bytecode verifier on valid and
// adversarial programs, Andersen points-to site facts, and the static
// lockset lint.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "analysis/Escape.h"
#include "analysis/LocksetLint.h"
#include "analysis/PointsTo.h"
#include "analysis/Range.h"
#include "analysis/Verifier.h"
#include "vm/Compiler.h"
#include "vm/Diag.h"
#include "vm/Machine.h"
#include "vm/Optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace isp;
using namespace isp::analysis;

namespace {

Program compile(const std::string &Source) {
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(Source, Diags);
  EXPECT_TRUE(Prog.has_value()) << Diags.render();
  return Prog ? std::move(*Prog) : Program();
}

// --- CFG. ---

TEST(CfgTest, LoopFunctionShape) {
  Program Prog = compile(R"(
    fn main() {
      var sum = 0;
      for (var i = 0; i < 10; i = i + 1) { sum = sum + i; }
      print(sum);
      return 0;
    })");
  const Function &F = Prog.Functions[Prog.EntryIndex];
  CFG G(F);
  ASSERT_GE(G.numBlocks(), 3u);
  EXPECT_EQ(G.entry(), 0u);
  EXPECT_EQ(G.block(0).Begin, 0u);

  // Blocks partition the code and agree with blockOf().
  size_t Covered = 0;
  for (uint32_t B = 0; B != G.numBlocks(); ++B) {
    const BasicBlock &Blk = G.block(B);
    ASSERT_LT(Blk.Begin, Blk.End);
    Covered += Blk.End - Blk.Begin;
    for (size_t I = Blk.Begin; I != Blk.End; ++I)
      EXPECT_EQ(G.blockOf(I), B);
  }
  EXPECT_EQ(Covered, F.Code.size());

  // Edges are symmetric (succ lists match pred lists).
  for (uint32_t B = 0; B != G.numBlocks(); ++B)
    for (uint32_t S : G.block(B).Succs) {
      const auto &Preds = G.block(S).Preds;
      EXPECT_NE(std::find(Preds.begin(), Preds.end(), B), Preds.end());
    }

  // The loop body is cyclic; the entry block is not.
  bool AnyCycle = false;
  for (uint32_t B = 0; B != G.numBlocks(); ++B)
    AnyCycle |= G.inCycle(B);
  EXPECT_TRUE(AnyCycle);
  EXPECT_FALSE(G.inCycle(G.entry()));

  // RPO visits the entry first and lists every block exactly once.
  ASSERT_EQ(G.rpo().size(), G.numBlocks());
  EXPECT_EQ(G.rpo().front(), G.entry());
}

TEST(CfgTest, StraightLineIsOneReachableRegion) {
  Program Prog = compile("fn main() { return 1 + 2; }");
  CFG G(Prog.Functions[Prog.EntryIndex]);
  EXPECT_TRUE(G.reachable(G.entry()));
  for (uint32_t B = 0; B != G.numBlocks(); ++B)
    EXPECT_FALSE(G.inCycle(B));
}

TEST(CfgTest, StackEffects) {
  auto effect = [](Op O, int64_t A = 0, int64_t B = 0) {
    Instr I;
    I.Opcode = O;
    I.A = A;
    I.B = B;
    return stackEffect(I);
  };
  EXPECT_EQ(effect(Op::PushConst).Pops, 0);
  EXPECT_EQ(effect(Op::PushConst).Pushes, 1);
  EXPECT_EQ(effect(Op::StoreIndirect).Pops, 3);
  EXPECT_EQ(effect(Op::StoreIndirect).Pushes, 0);
  EXPECT_EQ(effect(Op::LoadIndirect).Pops, 2);
  EXPECT_EQ(effect(Op::LoadIndirect).Pushes, 1);
  EXPECT_EQ(effect(Op::Add).Pops, 2);
  EXPECT_EQ(effect(Op::Add).Pushes, 1);
  // Calls pop their arguments and push one result.
  EXPECT_EQ(effect(Op::Call, 0, 3).Pops, 3);
  EXPECT_EQ(effect(Op::Call, 0, 3).Pushes, 1);
  EXPECT_EQ(effect(Op::Return).Pops, 1);
  EXPECT_EQ(effect(Op::Return).Pushes, 0);
}

// --- Dataflow solver. ---

/// Forward: can this block be reached without passing a BasicBlock
/// marker? (Gen/kill on a one-bit lattice; join = logical OR.)
struct MarkerFreeProblem {
  using State = int; // -1 top, 0 no, 1 yes
  State boundary() const { return 1; }
  State top() const { return -1; }
  bool join(State &Into, const State &From) const {
    State New = Into == -1 ? From : (Into | From);
    bool Changed = New != Into;
    Into = New;
    return Changed;
  }
  State transfer(const CFG &G, uint32_t Block, State In) const {
    if (In != 1)
      return In;
    const BasicBlock &B = G.block(Block);
    for (size_t I = B.Begin; I != B.End; ++I)
      if (G.function().Code[I].Opcode == Op::BasicBlock)
        return 0;
    return 1;
  }
};

/// Backward: number of blocks on the shortest path to a function exit
/// (min join) — exercises the against-the-edges propagation.
struct DistanceToExitProblem {
  using State = int; // large = top
  static constexpr int Inf = 1 << 20;
  State boundary() const { return 0; }
  State top() const { return Inf; }
  bool join(State &Into, const State &From) const {
    int New = std::min(Into, From);
    bool Changed = New != Into;
    Into = New;
    return Changed;
  }
  State transfer(const CFG &, uint32_t, State Out) const {
    return Out == Inf ? Inf : Out + 1;
  }
};

TEST(DataflowTest, ForwardReachesFixpointOnLoop) {
  Program Prog = compile(R"(
    fn main() {
      var i = 0;
      while (i < 5) { i = i + 1; }
      return i;
    })");
  CFG G(Prog.Functions[Prog.EntryIndex]);
  std::vector<int> Entry =
      solveDataflow(G, MarkerFreeProblem(), Direction::Forward);
  // The compiler emits a BasicBlock marker at the function entry, so
  // every block *after* it — in particular every loop block — is
  // reached only through a marker.
  EXPECT_EQ(Entry[G.entry()], 1);
  for (uint32_t B = 1; B != G.numBlocks(); ++B)
    if (G.reachable(B))
      EXPECT_EQ(Entry[B], 0) << "block " << B;
}

TEST(DataflowTest, BackwardDistanceToExit) {
  Program Prog = compile(R"(
    fn main() {
      var x = 7;
      if (x > 3) { x = 1; } else { x = 2; }
      return x;
    })");
  CFG G(Prog.Functions[Prog.EntryIndex]);
  std::vector<int> Exit =
      solveDataflow(G, DistanceToExitProblem(), Direction::Backward);
  // Exit blocks see distance 0; everything reachable sees a finite
  // distance that decreases along some successor edge.
  for (uint32_t B = 0; B != G.numBlocks(); ++B) {
    if (!G.reachable(B))
      continue;
    ASSERT_LT(Exit[B], DistanceToExitProblem::Inf) << "block " << B;
    if (G.block(B).Succs.empty())
      EXPECT_EQ(Exit[B], 0);
    else {
      int Best = DistanceToExitProblem::Inf;
      for (uint32_t S : G.block(B).Succs)
        Best = std::min(Best, Exit[S]);
      EXPECT_EQ(Exit[B], Best + 1);
    }
  }
}

// --- Verifier. ---

TEST(VerifierTest, CompilerAndOptimizerOutputVerifyClean) {
  const char *Sources[] = {
      "fn main() { return 0; }",
      R"(
        var a[16];
        var g;
        fn helper(x, y) { return x * y + a[x % 16]; }
        fn main() {
          g = 0;
          for (var i = 0; i < 8; i = i + 1) {
            a[i] = helper(i, i + 1);
            g = g + a[i];
          }
          var t = spawn helper(2, 3);
          print(join(t));
          return g;
        })",
  };
  for (const char *Source : Sources) {
    Program Prog = compile(Source);
    EXPECT_TRUE(verifyProgram(Prog).ok()) << Source;
    optimizeProgram(Prog);
    VerifyResult R = verifyProgram(Prog);
    EXPECT_TRUE(R.ok()) << R.render(Prog);
  }
}

/// A minimal structurally-valid program to corrupt: main with one
/// local, one global cell.
Program tinyProgram() {
  Program Prog;
  Prog.GlobalCells = 1;
  Function F;
  F.Name = "main";
  F.NumLocals = 1;
  F.Code.push_back({Op::PushConst, 0, 0});
  F.Code.push_back({Op::Return, 0, 0});
  Prog.Functions.push_back(std::move(F));
  return Prog;
}

TEST(VerifierTest, AcceptsTinyProgram) {
  Program Prog = tinyProgram();
  VerifyResult R = verifyProgram(Prog);
  EXPECT_TRUE(R.ok()) << R.render(Prog);
}

TEST(VerifierTest, RejectsStructuralCorruption) {
  struct Case {
    const char *Label;
    void (*Corrupt)(Program &);
  } Cases[] = {
      {"opcode out of range",
       [](Program &P) {
         P.Functions[0].Code[0].Opcode = static_cast<Op>(200);
       }},
      {"jump target out of range",
       [](Program &P) {
         P.Functions[0].Code[0] = {Op::Jump, 99, 0};
       }},
      {"negative jump target",
       [](Program &P) {
         P.Functions[0].Code[0] = {Op::Jump, -1, 0};
       }},
      {"falls off the end",
       [](Program &P) { P.Functions[0].Code.pop_back(); }},
      {"local slot out of range",
       [](Program &P) {
         P.Functions[0].Code[0] = {Op::LoadLocal, 5, 0};
       }},
      {"global address outside region",
       [](Program &P) {
         P.Functions[0].Code[0] = {Op::LoadGlobal, 3, 0};
       }},
      {"callee index invalid",
       [](Program &P) {
         P.Functions[0].Code[0] = {Op::Call, 7, 0};
       }},
      {"builtin arity mismatch",
       [](Program &P) {
         P.Functions[0].Code[0] = {
             Op::CallBuiltin, static_cast<int64_t>(Builtin::Print), 0};
       }},
      {"builtin id invalid",
       [](Program &P) {
         P.Functions[0].Code[0] = {Op::CallBuiltin, 99, 0};
       }},
      {"stray operand on plain opcode",
       [](Program &P) {
         P.Functions[0].Code[0] = {Op::Nop, 0, 1};
       }},
      {"quiet mark on non-access opcode",
       [](Program &P) {
         P.Functions[0].Code[0] = {Op::PushConst, 0, 1};
       }},
      {"params exceed locals",
       [](Program &P) { P.Functions[0].NumParams = 3; }},
      {"entry index invalid",
       [](Program &P) { P.EntryIndex = 4; }},
  };
  for (const Case &C : Cases) {
    Program Prog = tinyProgram();
    C.Corrupt(Prog);
    EXPECT_FALSE(verifyProgram(Prog).ok()) << C.Label;
  }
}

TEST(VerifierTest, RejectsStackDisciplineViolations) {
  // Underflow: Add on an empty stack.
  {
    Program Prog = tinyProgram();
    Prog.Functions[0].Code.insert(Prog.Functions[0].Code.begin(),
                                  {Op::Add, 0, 0});
    EXPECT_FALSE(verifyProgram(Prog).ok());
  }
  // Return with an empty stack.
  {
    Program Prog = tinyProgram();
    Prog.Functions[0].Code = {{Op::Return, 0, 0}};
    EXPECT_FALSE(verifyProgram(Prog).ok());
  }
  // Join-depth conflict: two paths reach the same target with depths
  // 0 and 2.
  {
    Program Prog = tinyProgram();
    Prog.Functions[0].Code = {
        {Op::PushConst, 1, 0},  // 0: depth 0 -> 1
        {Op::JumpIfTrue, 4, 0}, // 1: pops; taken -> pc 4 at depth 0
        {Op::PushConst, 2, 0},  // 2: depth 0 -> 1
        {Op::PushConst, 3, 0},  // 3: depth 1 -> 2; falls into pc 4
        {Op::PushConst, 9, 0},  // 4: joined at depth 0 vs 2: conflict
        {Op::Return, 0, 0},
    };
    EXPECT_FALSE(verifyProgram(Prog).ok());
  }
}

TEST(VerifierTest, RenderNamesFunctionAndPc) {
  Program Prog = tinyProgram();
  Prog.Functions[0].Code[0] = {Op::Jump, 99, 0};
  VerifyResult R = verifyProgram(Prog);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.render(Prog).find("main"), std::string::npos);
}

// --- Points-to. ---

TEST(PointsToTest, GlobalArrayConstIndexPointsToTheArray) {
  Program Prog = compile(R"(
    var a[8];
    fn main() {
      a[2] = 5;
      return a[2];
    })");
  PointsToResult PT = computePointsTo(Prog);
  ASSERT_FALSE(Prog.GlobalArrays.empty());
  size_t Fn = Prog.EntryIndex;
  const Function &F = Prog.Functions[Fn];
  unsigned Checked = 0;
  for (size_t Pc = 0; Pc != F.Code.size(); ++Pc) {
    Op O = F.Code[Pc].Opcode;
    if (O != Op::LoadIndirect && O != Op::StoreIndirect)
      continue;
    const SiteFacts *Facts = PT.siteFacts(Fn, Pc);
    ASSERT_NE(Facts, nullptr);
    EXPECT_TRUE(Facts->BaseKnown);
    ASSERT_EQ(Facts->Objects.size(), 1u);
    EXPECT_EQ(PT.Objects[Facts->Objects[0]].K,
              AbstractObject::Kind::GlobalArray);
    EXPECT_EQ(F.Code[Pc].Opcode == Op::StoreIndirect, Facts->IsStore);
    ++Checked;
  }
  EXPECT_EQ(Checked, 2u);
  EXPECT_FALSE(PT.HasWildStore);
  EXPECT_GT(PT.TotalFacts, 0u);
}

TEST(PointsToTest, PointerArithmeticKeepsProvenance) {
  // p = a + 1 still points into a's storage: provenance is tracked.
  Program Prog = compile(R"(
    var a[8];
    fn main() {
      var p = a + 1;
      return p[0];
    })");
  PointsToResult PT = computePointsTo(Prog);
  size_t Fn = Prog.EntryIndex;
  const Function &F = Prog.Functions[Fn];
  unsigned Checked = 0;
  for (size_t Pc = 0; Pc != F.Code.size(); ++Pc) {
    if (F.Code[Pc].Opcode != Op::LoadIndirect)
      continue;
    const SiteFacts *Facts = PT.siteFacts(Fn, Pc);
    ASSERT_NE(Facts, nullptr);
    EXPECT_TRUE(Facts->BaseKnown);
    ASSERT_EQ(Facts->Objects.size(), 1u);
    EXPECT_EQ(PT.Objects[Facts->Objects[0]].K,
              AbstractObject::Kind::GlobalArray);
    ++Checked;
  }
  EXPECT_EQ(Checked, 1u);
}

TEST(PointsToTest, PointerFlowsThroughCallsAndGlobals) {
  // The base reaches the access through a global cell and a call
  // boundary; provenance must survive both.
  Program Prog = compile(R"(
    var buf;
    fn reader(p) { return p[0]; }
    fn main() {
      buf = alloc(4);
      return reader(buf);
    })");
  PointsToResult PT = computePointsTo(Prog);
  const Function *Reader = Prog.findFunction("reader");
  ASSERT_NE(Reader, nullptr);
  size_t Fn = static_cast<size_t>(Reader - Prog.Functions.data());
  unsigned Found = 0;
  for (size_t Pc = 0; Pc != Reader->Code.size(); ++Pc) {
    if (Reader->Code[Pc].Opcode != Op::LoadIndirect)
      continue;
    const SiteFacts *Facts = PT.siteFacts(Fn, Pc);
    ASSERT_NE(Facts, nullptr);
    EXPECT_TRUE(Facts->BaseKnown);
    ASSERT_EQ(Facts->Objects.size(), 1u);
    EXPECT_EQ(PT.Objects[Facts->Objects[0]].K,
              AbstractObject::Kind::HeapSite);
    ++Found;
  }
  EXPECT_EQ(Found, 1u);
}

TEST(PointsToTest, RawStoreBuiltinIsWild) {
  Program Prog = compile(R"(
    fn main() {
      store(16, 1);
      return load(16);
    })");
  PointsToResult PT = computePointsTo(Prog);
  EXPECT_TRUE(PT.HasWildStore);
}

// --- Lockset lint. ---

TEST(LintTest, FlagsUnprotectedSharedGlobal) {
  Program Prog = compile(R"(
    var racy;
    var safe;
    var lk;
    fn worker(n) {
      for (var i = 0; i < n; i = i + 1) {
        racy = racy + 1;
        lock_acquire(lk);
        safe = safe + 1;
        lock_release(lk);
      }
      return 0;
    }
    fn main() {
      lk = lock_create();
      racy = 0;
      safe = 0;
      var a = spawn worker(10);
      var b = spawn worker(10);
      join(a);
      join(b);
      lock_acquire(lk);
      var t = safe;
      lock_release(lk);
      return t;
    })");
  LintReport Report = runLocksetLint(Prog);
  EXPECT_GE(Report.ContextCount, 3u);
  ASSERT_EQ(Report.Warnings.size(), 1u);
  EXPECT_EQ(Report.Warnings[0].Address, GlobalBase); // racy: first cell
  EXPECT_EQ(Report.Warnings[0].Name, "racy");
  EXPECT_GE(Report.Warnings[0].Contexts, 2u);
  EXPECT_GE(Report.Warnings[0].Writers, 1u);
  EXPECT_NE(Report.render().find("possible race at address 16"),
            std::string::npos);
}

TEST(LintTest, SilentOnConsistentLocking) {
  Program Prog = compile(R"(
    var count;
    var lk;
    fn worker(n) {
      for (var i = 0; i < n; i = i + 1) {
        lock_acquire(lk);
        count = count + 1;
        lock_release(lk);
      }
      return 0;
    }
    fn main() {
      lk = lock_create();
      count = 0;
      var a = spawn worker(10);
      var b = spawn worker(10);
      join(a);
      join(b);
      lock_acquire(lk);
      var t = count;
      lock_release(lk);
      return t;
    })");
  LintReport Report = runLocksetLint(Prog);
  EXPECT_TRUE(Report.Warnings.empty()) << Report.render();
  EXPECT_NE(Report.render().find("0 location(s)"), std::string::npos);
}

TEST(LintTest, InitPhaseWritesAreNotRaces) {
  // Main writes g before spawning; the worker only reads it. One
  // post-spawn writer context is required for a warning.
  Program Prog = compile(R"(
    var g;
    fn worker(n) { return g + n; }
    fn main() {
      g = 42;
      var a = spawn worker(1);
      var b = spawn worker(2);
      return join(a) + join(b);
    })");
  LintReport Report = runLocksetLint(Prog);
  EXPECT_TRUE(Report.Warnings.empty()) << Report.render();
}

TEST(LintTest, SpawnInLoopCountsAsManyThreads) {
  // One spawn site inside a loop: the worker races with its own other
  // instances even though there is a single Spawn instruction.
  Program Prog = compile(R"(
    var g;
    fn worker(n) {
      g = g + n;
      return 0;
    }
    fn main() {
      g = 0;
      for (var i = 0; i < 4; i = i + 1) {
        var t = spawn worker(i);
        join(t);
      }
      return g;
    })");
  LintReport Report = runLocksetLint(Prog);
  ASSERT_EQ(Report.Warnings.size(), 1u);
  EXPECT_EQ(Report.Warnings[0].Name, "g");
}

TEST(LintTest, SingleThreadedProgramsNeverWarn) {
  Program Prog = compile(R"(
    var g;
    fn main() {
      g = 1;
      g = g + 1;
      return g;
    })");
  LintReport Report = runLocksetLint(Prog);
  EXPECT_EQ(Report.ContextCount, 1u);
  EXPECT_TRUE(Report.Warnings.empty());
}

TEST(LintTest, ArrayAccessesAttributedThroughPointsTo) {
  // Two threads write a global array through indirect stores with no
  // lock: the storage base must be flagged via points-to attribution.
  Program Prog = compile(R"(
    var a[8];
    fn worker(i) {
      a[i] = i;
      return 0;
    }
    fn main() {
      var x = spawn worker(1);
      var y = spawn worker(2);
      join(x);
      join(y);
      return a[1];
    })");
  LintReport Report = runLocksetLint(Prog);
  ASSERT_EQ(Report.Warnings.size(), 1u);
  EXPECT_TRUE(Report.Warnings[0].IsArray);
  EXPECT_EQ(Report.Warnings[0].Name, "a");
  EXPECT_EQ(Report.Warnings[0].Address, Prog.GlobalArrays[0].Base);
}

TEST(LintTest, JoinPublishesWorkerWritesHappensBefore) {
  // join() retires the spawned thread: after the join main is the only
  // thread running, so its unlocked writes to the worker's global are
  // not races. No lock appears anywhere in the program.
  Program Prog = compile(R"(
    var tally;
    fn worker(n) {
      for (var i = 0; i < n; i = i + 1) {
        tally = tally + i;
      }
      return tally;
    }
    fn main() {
      tally = 0;
      var t = spawn worker(8);
      var partial = join(t);
      tally = tally + partial;
      return tally;
    })");
  LintReport Report = runLocksetLint(Prog);
  EXPECT_TRUE(Report.Warnings.empty()) << Report.render();
}

TEST(LintTest, AccessBetweenSpawnAndJoinStillWarns) {
  // The happens-before edge is at the join, not the spawn: a write in
  // the window where the worker is live races with the worker's writes.
  Program Prog = compile(R"(
    var g;
    fn worker(n) {
      g = g + n;
      return 0;
    }
    fn main() {
      g = 0;
      var t = spawn worker(5);
      g = g + 1;
      var r = join(t);
      return g + r;
    })");
  LintReport Report = runLocksetLint(Prog);
  ASSERT_EQ(Report.Warnings.size(), 1u);
  EXPECT_EQ(Report.Warnings[0].Name, "g");
}

TEST(LintTest, CalleeThatMaySpawnPinsTheLiveBound) {
  // Spawns hidden behind a call are accounted conservatively: once main
  // calls a may-spawn callee, the live-thread bound saturates and stays
  // saturated — a later join of a local handle cannot prove quiescence.
  Program Prog = compile(R"(
    var g;
    fn worker(n) {
      g = g + n;
      return 0;
    }
    fn helper() {
      var t = spawn worker(3);
      return join(t);
    }
    fn main() {
      g = 0;
      var r = helper();
      g = g + r;
      return g;
    })");
  LintReport Report = runLocksetLint(Prog);
  ASSERT_EQ(Report.Warnings.size(), 1u);
  EXPECT_EQ(Report.Warnings[0].Name, "g");
}

// --- End to end: verified programs run clean. ---

TEST(AnalysisIntegration, VerifiedExamplesExecute) {
  Program Prog = compile(R"(
    var a[4];
    fn main() {
      for (var i = 0; i < 4; i = i + 1) { a[i] = i * i; }
      return a[3];
    })");
  optimizeProgram(Prog);
  ASSERT_TRUE(verifyProgram(Prog).ok());
  RunResult R = Machine(Prog, nullptr).run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 9);
}

// --- Value ranges. ---

TEST(IntervalTest, ArithmeticAndWrapSoundness) {
  Interval A = Interval::range(2, 5);
  Interval B = Interval::range(-1, 3);
  Interval Sum = intervalAdd(A, B);
  EXPECT_EQ(Sum.Lo, 1);
  EXPECT_EQ(Sum.Hi, 8);
  EXPECT_FALSE(Sum.Saturated);
  Interval Diff = intervalSub(A, B);
  EXPECT_EQ(Diff.Lo, -1);
  EXPECT_EQ(Diff.Hi, 6);
  Interval Prod = intervalMul(A, B);
  EXPECT_EQ(Prod.Lo, -5);
  EXPECT_EQ(Prod.Hi, 15);

  // A finite computation that can exceed int64 wraps on the machine:
  // top with the sticky Saturated flag (the lint's overflow signal).
  Interval Wrap = intervalAdd(Interval::constant(INT64_MAX - 1),
                              Interval::constant(2));
  EXPECT_TRUE(Wrap.isTop());
  EXPECT_TRUE(Wrap.Saturated);

  // The same overflow *through a widening infinity* is an artifact of
  // the sentinel encoding, not wrap evidence: plain top, so ordinary
  // widened loop counters never look like overflows.
  Interval Widened = Interval::range(Interval::NegInf, 0);
  Interval Dec = intervalSub(Widened, Interval::constant(1));
  EXPECT_TRUE(Dec.isTop());
  EXPECT_FALSE(Dec.Saturated);

  // Mod by a positive divisor re-normalizes: bounds below the divisor
  // and upstream saturation cleared.
  Interval Messy = intervalAdd(Wrap, Interval::constant(1));
  Interval M = intervalMod(Messy, Interval::constant(8));
  EXPECT_FALSE(M.Saturated);
  EXPECT_GE(M.Lo, -7);
  EXPECT_LE(M.Hi, 7);

  EXPECT_EQ(Interval::range(0, 3).str(), "[0,3]");
  EXPECT_EQ(Interval::top().str(), "[-inf,+inf]");
  EXPECT_TRUE(Interval::range(0, 3).within(4));
  EXPECT_FALSE(Interval::range(0, 4).within(4));
  EXPECT_FALSE(Interval::range(-1, 3).within(4));
}

size_t functionIndex(const Program &Prog, const std::string &Name) {
  for (size_t I = 0; I != Prog.Functions.size(); ++I)
    if (Prog.Functions[I].Name == Name)
      return I;
  ADD_FAILURE() << "no function " << Name;
  return 0;
}

TEST(RangeTest, LoopCountersRefineAndParamsJoinOverCallSites) {
  Program Prog = compile(R"(
    var a[8];
    fn get(i) {
      return a[i];
    }
    fn main() {
      var sum = 0;
      for (var i = 0; i < 8; i = i + 1) { sum = sum + get(i); }
      print(sum);
      return 0;
    })");
  RangeResult RR = computeRanges(Prog);
  EXPECT_GT(RR.Facts, 0u);

  // get's parameter joins over its only call site: the loop counter
  // under its guard, i in [0, 7].
  size_t Get = functionIndex(Prog, "get");
  const FunctionRanges &FR = RR.Functions[Get];
  EXPECT_TRUE(FR.Called);
  ASSERT_EQ(FR.Params.size(), 1u);
  EXPECT_EQ(FR.Params[0].Lo, 0);
  EXPECT_EQ(FR.Params[0].Hi, 7);

  // The a[i] site inherits the interprocedural bound.
  const Function &F = Prog.Functions[Get];
  for (size_t Pc = 0; Pc != F.Code.size(); ++Pc)
    if (F.Code[Pc].Opcode == Op::LoadIndirect) {
      const IndirectSiteRange *Site = RR.site(Get, Pc);
      ASSERT_NE(Site, nullptr);
      EXPECT_TRUE(Site->Index.within(8)) << Site->Index.str();
    }
}

// --- Frame-escape analysis. ---

TEST(EscapeTest, IndexOnlyFrameArrayNeverEscapes) {
  Program Prog = compile(R"(
    fn main() {
      var w[4];
      for (var i = 0; i < 4; i = i + 1) { w[i] = i; }
      return w[2];
    })");
  EscapeResult Esc = computeEscape(Prog);
  ASSERT_EQ(Esc.NeverEscaping.size(), 1u);
  EXPECT_EQ(Esc.NeverEscaping[0].Cells, 4u);
  EXPECT_NE(Esc.find(Esc.NeverEscaping[0].Fn, Esc.NeverEscaping[0].Slot),
            nullptr);
}

TEST(EscapeTest, PassingTheBaseToACalleeEscapes) {
  Program Prog = compile(R"(
    fn fill(p) {
      return p;
    }
    fn main() {
      var w[4];
      for (var i = 0; i < 4; i = i + 1) { w[i] = i; }
      var x = fill(w);
      return w[2];
    })");
  EscapeResult Esc = computeEscape(Prog);
  EXPECT_TRUE(Esc.NeverEscaping.empty());
}

// --- Bounds lint. ---

TEST(BoundsLintTest, FlagsDefiniteOutOfRangeIndex) {
  Program Prog = compile(R"(
    var a[4];
    fn main() {
      var i = rand(4) + 6;
      a[i] = 1;
      return 0;
    })");
  BoundsReport Report = runBoundsLint(Prog);
  ASSERT_EQ(Report.Warnings.size(), 1u);
  EXPECT_NE(Report.Warnings[0].Message.find("out of bounds"),
            std::string::npos);
  EXPECT_NE(Report.render(Prog).find("bounds lint: 1 warning(s)"),
            std::string::npos);
}

TEST(BoundsLintTest, InRangeAndUnprovableAccessesStayQuiet) {
  // Definite-only by design: a loop-bounded index and an unconstrained
  // parameter index may both be fine, so neither warns.
  Program Prog = compile(R"(
    var a[4];
    fn get(i) {
      return a[i];
    }
    fn main() {
      var sum = 0;
      for (var i = 0; i < 4; i = i + 1) { sum = sum + a[i]; }
      return sum + get(3);
    })");
  BoundsReport Report = runBoundsLint(Prog);
  EXPECT_TRUE(Report.Warnings.empty()) << Report.render(Prog);
}

// --- Static growth estimator. ---

TEST(GrowthTest, LoopNestsCallsAndRecursion) {
  Program Prog = compile(R"(
    fn flat(n) {
      return n + 1;
    }
    fn linear(n) {
      var s = 0;
      for (var i = 0; i < n; i = i + 1) { s = s + i; }
      return s;
    }
    fn quad(n) {
      var s = 0;
      for (var i = 0; i < n; i = i + 1) {
        for (var j = 0; j < n; j = j + 1) { s = s + j; }
      }
      return s;
    }
    fn caller(n) {
      var s = 0;
      for (var i = 0; i < n; i = i + 1) { s = s + linear(n); }
      return s;
    }
    fn rec(n) {
      if (n < 1) { return 0; }
      return rec(n - 1);
    }
    fn main() {
      return flat(4) + linear(4) + quad(4) + caller(4) + rec(4);
    })");
  std::map<RoutineId, unsigned> G = estimateGrowth(Prog);
  auto degree = [&](const char *Name) {
    return G.at(Prog.Functions[functionIndex(Prog, Name)].Id);
  };
  EXPECT_EQ(degree("flat"), 0u);
  EXPECT_EQ(degree("linear"), 1u);
  EXPECT_EQ(degree("quad"), 2u);
  EXPECT_EQ(degree("caller"), 2u); // loop depth 1 + linear's degree 1
  EXPECT_EQ(degree("rec"), 3u);    // recursion pins the cap
}

// --- The covered-read certificate. ---

const char *CoveredReadSource = R"(
    fn work(n) {
      var acc = 0;
      for (var i = 0; i < n; i = i + 1) { acc = acc + i; }
      return acc;
    }
    fn main() {
      var w[4];
      var t = 0;
      while (t < 4) {
        w[t] = spawn work(16);
        t = t + 1;
      }
      var total = 0;
      t = 0;
      while (t < 4) {
        total = total + join(w[t]);
        t = t + 1;
      }
      print(total);
      return 0;
    })";

TEST(CoveredReadTest, FillLoopPlusReadLoopCertifies) {
  Program Prog = compile(CoveredReadSource);
  PointsToResult PT = computePointsTo(Prog);
  EscapeResult Esc = computeEscape(Prog);
  RangeResult RR = computeRanges(Prog);
  std::vector<std::pair<size_t, size_t>> Covered =
      coveredIndirectReads(Prog, PT, Esc, RR);
  ASSERT_EQ(Covered.size(), 1u);
  // The certified site is the join(w[t]) re-read in main.
  size_t Main = functionIndex(Prog, "main");
  EXPECT_EQ(Covered[0].first, Main);
  EXPECT_EQ(Prog.Functions[Main].Code[Covered[0].second].Opcode,
            Op::LoadIndirect);
}

TEST(CoveredReadTest, EscapingBaseKillsTheCertificate) {
  Program Prog = compile(R"(
    fn peek(p) {
      return p;
    }
    fn main() {
      var w[4];
      var t = 0;
      while (t < 4) {
        w[t] = t * t;
        t = t + 1;
      }
      var x = peek(w);
      var total = 0;
      t = 0;
      while (t < 4) {
        total = total + w[t];
        t = t + 1;
      }
      print(total);
      return 0;
    })");
  PointsToResult PT = computePointsTo(Prog);
  EscapeResult Esc = computeEscape(Prog);
  RangeResult RR = computeRanges(Prog);
  EXPECT_TRUE(coveredIndirectReads(Prog, PT, Esc, RR).empty());
}

// --- Verifier: exact-range index rejection. ---

TEST(VerifierTest, RejectsConstantFoldableOutOfBoundsIndex) {
  // The index never appears as a literal — the range analysis folds
  // 5 + 6 — yet the access is a definite fault, so the verifier
  // rejects it before and after optimization.
  const char *Source = "var arr[8]; fn main() { return arr[5 + 6]; }";
  Program Prog = compile(Source);
  VerifyResult R = verifyProgram(Prog);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.render(Prog).find("out of bounds"), std::string::npos);

  Program Opt = compile(Source);
  optimizeProgram(Opt);
  EXPECT_FALSE(verifyProgram(Opt).ok());

  // In-bounds constant stays accepted.
  Program Ok = compile("var arr[8]; fn main() { return arr[5 + 2]; }");
  EXPECT_TRUE(verifyProgram(Ok).ok());

  // A non-singleton out-of-range interval is the lint's domain, not a
  // verification failure: the program still runs.
  Program Fuzzy = compile(R"(
    var a[4];
    var pad[16];
    fn main() {
      var i = rand(4) + 6;
      a[i] = 1;
      return 0;
    })");
  EXPECT_TRUE(verifyProgram(Fuzzy).ok());
}

} // namespace
