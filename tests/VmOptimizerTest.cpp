//===- tests/VmOptimizerTest.cpp - Peephole optimizer tests --------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The optimizer's contract: semantics preserved exactly (output, exit
// code, runtime errors), profiles bit-identical (the quiet-access pass
// may legitimately drop redundant read/write events from the stream,
// but on one thread never ones a tool's report depends on — see
// Optimizer.h for helgrind on a racy guest), and strictly fewer
// interpreted instructions on foldable code.
//
//===----------------------------------------------------------------------===//

#include "vm/Optimizer.h"

#include "analysis/Escape.h"
#include "analysis/Range.h"
#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "tools/ToolRegistry.h"
#include "vm/Compiler.h"
#include "vm/Disasm.h"
#include "vm/Machine.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

using namespace isp;

namespace {

struct Pair {
  RunResult Plain;
  RunResult Optimized;
  OptimizerStats Stats;
};

Pair runBoth(const std::string &Source,
             MachineOptions Opts = MachineOptions()) {
  Pair Out;
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(Source, Diags);
  EXPECT_TRUE(Prog.has_value()) << Diags.render();
  if (!Prog)
    return Out;
  {
    Machine M(*Prog, nullptr, Opts);
    Out.Plain = M.run();
  }
  Out.Stats = optimizeProgram(*Prog);
  {
    Machine M(*Prog, nullptr, Opts);
    Out.Optimized = M.run();
  }
  return Out;
}

TEST(Optimizer, FoldsConstantExpressions) {
  Pair P = runBoth(R"(
    fn main() {
      var a = 2 + 3 * 4;
      var b = (100 / 5) % 7;
      var c = -(1 + 1);
      var d = !0;
      print(a + b + c + d);
      return 0;
    })");
  ASSERT_TRUE(P.Plain.Ok && P.Optimized.Ok);
  EXPECT_EQ(P.Plain.Output, P.Optimized.Output);
  EXPECT_GT(P.Stats.ConstantsFolded, 3u);
  EXPECT_LT(P.Optimized.Stats.Instructions, P.Plain.Stats.Instructions);
  EXPECT_EQ(P.Optimized.Stats.BasicBlocks, P.Plain.Stats.BasicBlocks);
}

TEST(Optimizer, ResolvesConstantBranches) {
  Pair P = runBoth(R"(
    fn main() {
      var a = 0;
      if (1 == 1) { a = a + 7; }
      if (2 < 1) { a = a + 1000; }
      while (0) { a = 99; }
      print(a);
      return 0;
    })");
  ASSERT_TRUE(P.Plain.Ok && P.Optimized.Ok);
  EXPECT_EQ(P.Plain.Output, "7\n");
  EXPECT_EQ(P.Optimized.Output, "7\n");
  EXPECT_GT(P.Stats.BranchesResolved, 0u);
}

TEST(Optimizer, PreservesDivisionByZeroError) {
  // 1 / 0 must stay a runtime error, not become a silent constant or a
  // compile-time crash.
  Pair P = runBoth("fn main() { return 1 / 0; }");
  EXPECT_FALSE(P.Plain.Ok);
  EXPECT_FALSE(P.Optimized.Ok);
  EXPECT_EQ(P.Plain.Error, P.Optimized.Error);
}

TEST(Optimizer, LoopSemanticsSurviveFolding) {
  Pair P = runBoth(R"(
    fn main() {
      var sum = 0;
      for (var i = 0; i < 3 + 7; i = i + 1) {
        if (i % (1 + 1) == 0) { sum = sum + i; }
        if (i == 2 * 4) { break; }
      }
      print(sum);
      return 0;
    })");
  ASSERT_TRUE(P.Plain.Ok && P.Optimized.Ok);
  EXPECT_EQ(P.Plain.Output, P.Optimized.Output);
}

TEST(Optimizer, EventStreamIsInvariantSingleThreaded) {
  // The optimization contract: per-thread event sequences are untouched
  // but for quiet marks, which no tool can observe on one thread, so
  // every tool's report on a single-threaded program is bit-identical. (With threads, the
  // interleaving may shift — scheduler quanta count instructions — like
  // running under a different slice length.) main's first window reads
  // an uninitialized heap cell twice: memcheck reports both reads, so
  // neither may be marked quiet.
  const char *Source = R"(
    var table[32];
    fn work(id, n) {
      var acc = 0;
      for (var i = 0; i < n; i = i + 1) {
        acc = acc + table[(i * (2 + 1)) % 32];
        table[i % (16 + 16)] = acc;
      }
      return acc;
    }
    fn main() {
      var p = alloc(4);
      var u = p[1] + p[1];
      var r = work(1, 40) + work(0, 4 * 5);
      print(r);
      return 0;
    })";
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(Source, Diags);
  ASSERT_TRUE(Prog.has_value());

  // aprof-trms's activation log, then every registry tool's report.
  auto reports = [](const Program &P) {
    TrmsProfilerOptions Opts;
    Opts.KeepActivationLog = true;
    TrmsProfiler Profiler(Opts);
    EventDispatcher D;
    D.addTool(&Profiler);
    std::vector<std::unique_ptr<Tool>> Tools;
    for (const std::string &Name : allToolNames()) {
      Tools.push_back(makeTool(Name));
      D.addTool(Tools.back().get());
    }
    Machine M(P, &D);
    EXPECT_TRUE(M.run().Ok);
    std::vector<ActivationRecord> Log = Profiler.takeDatabase().log();
    std::map<std::string, std::string> Reports;
    for (const std::unique_ptr<Tool> &T : Tools)
      Reports[T->name()] = renderToolReport(*T, &P.Symbols);
    return std::make_pair(Log, Reports);
  };

  auto Plain = reports(*Prog);
  OptimizerStats Stats = optimizeProgram(*Prog);
  EXPECT_GT(Stats.InstructionsRemoved, 0u);
  auto Optimized = reports(*Prog);
  EXPECT_EQ(Plain.first, Optimized.first);
  EXPECT_EQ(Plain.second, Optimized.second);
  // Two uninitialized reads and the leaked block.
  EXPECT_NE(Plain.second["memcheck"].find("memcheck: 3 error(s)"),
            std::string::npos);
}

class OptimizerWorkloadTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(OptimizerWorkloadTest, SemanticsPreservedOnWorkloads) {
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  WorkloadParams Params;
  Params.Threads = 3;
  Params.Size = 48;
  std::optional<Program> Prog = compileWorkload(*W, Params);
  ASSERT_TRUE(Prog.has_value());

  RunResult Plain = Machine(*Prog, nullptr).run();
  optimizeProgram(*Prog);
  RunResult Optimized = Machine(*Prog, nullptr).run();
  ASSERT_TRUE(Plain.Ok && Optimized.Ok)
      << Plain.Error << Optimized.Error;
  EXPECT_EQ(Plain.Output, Optimized.Output);
  EXPECT_EQ(Plain.Stats.BasicBlocks, Optimized.Stats.BasicBlocks);
  EXPECT_LE(Optimized.Stats.Instructions, Plain.Stats.Instructions);
}

INSTANTIATE_TEST_SUITE_P(Workloads, OptimizerWorkloadTest,
                         ::testing::Values("dbserver", "vips_pipeline",
                                           "dedup", "md", "smithwa",
                                           "kdtree", "sort_compare",
                                           "producer_consumer"),
                         [](const ::testing::TestParamInfo<const char *>
                                &Info) { return Info.param; });

// --- Quiet marks: the window's direct marks and the range certificate. ---

TEST(QuietIndirect, GoldenDisassembly) {
  // One fixed program exercising the whole quiet story: re-reads and
  // re-writes of locals and of the array's named cell are marked, and
  // the indirect re-read of a[i] (pc 9) is not — only the range
  // certificate marks indirect accesses, and only on frame arrays. The
  // exact mark placement is load-bearing — any change to it must be a
  // deliberate (and re-proven) change to the pass.
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(R"(
    var a[8];
    fn main() {
      var i = 2;
      var x = a[i];
      var y = a[i] + x;
      a[i] = y;
      x = x + y;
      print(x);
      return 0;
    })",
                                               Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();
  OptimizerStats Stats = optimizeProgram(*Prog);
  EXPECT_EQ(Stats.RangeQuietMarked, 0u);
  EXPECT_EQ(disassembleFunction(Prog->Functions[0], &*Prog),
            "fn main (0 params, 3 locals):\n"
            "     0  basic_block\n"
            "     1  push_const     2\n"
            "     2  store_local    0\n"
            "     3  load_global    16\n"
            "     4  load_local     0  ; quiet\n"
            "     5  load_indirect\n"
            "     6  store_local    1\n"
            "     7  load_global    16  ; quiet\n"
            "     8  load_local     0  ; quiet\n"
            "     9  load_indirect\n"
            "    10  load_local     1  ; quiet\n"
            "    11  add\n"
            "    12  store_local    2\n"
            "    13  load_global    16  ; quiet\n"
            "    14  load_local     0  ; quiet\n"
            "    15  load_local     2  ; quiet\n"
            "    16  store_indirect\n"
            "    17  load_local     1  ; quiet\n"
            "    18  load_local     2  ; quiet\n"
            "    19  add\n"
            "    20  store_local    1  ; quiet\n"
            "    21  load_local     1  ; quiet\n"
            "    22  call_builtin   print, 1 args\n"
            "    23  pop\n"
            "    24  push_const     0\n"
            "    25  return\n"
            "    26  push_const     0\n"
            "    27  return\n");
}

TEST(QuietDirect, FirstWriteAfterReadIsNotQuiet) {
  // A store is quiet only when the cell was already *written* this
  // window — write timestamps must advance on the first store even if
  // the cell was read before.
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(R"(
    var g;
    fn main() {
      var x = g;
      g = 10;
      g = 20;
      return g + x;
    })",
                                               Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();
  optimizeProgram(*Prog);
  std::vector<int> StoreMarks, LoadMarks;
  for (const Instr &I : Prog->Functions[0].Code) {
    if (I.Opcode == Op::StoreGlobal)
      StoreMarks.push_back(static_cast<int>(I.B));
    if (I.Opcode == Op::LoadGlobal)
      LoadMarks.push_back(static_cast<int>(I.B));
  }
  ASSERT_EQ(StoreMarks.size(), 2u);
  EXPECT_EQ(StoreMarks[0], 0); // first write after a read: event must fire
  EXPECT_EQ(StoreMarks[1], 1); // repeated write: redundant
  ASSERT_EQ(LoadMarks.size(), 2u);
  EXPECT_EQ(LoadMarks[0], 0); // first read
  EXPECT_EQ(LoadMarks[1], 1); // read after write: redundant
}

/// Returns \p Prog with every quiet mark cleared. Instruction streams
/// (and hence scheduling) are identical to the marked program; only
/// event suppression differs.
Program stripQuietMarks(Program Prog) {
  for (Function &F : Prog.Functions)
    for (Instr &I : F.Code)
      switch (I.Opcode) {
      case Op::LoadLocal:
      case Op::StoreLocal:
      case Op::LoadGlobal:
      case Op::StoreGlobal:
      case Op::LoadIndirect:
      case Op::StoreIndirect:
        I.B = 0;
        break;
      default:
        break;
      }
  return Prog;
}

class QuietIndirectWorkloadTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(QuietIndirectWorkloadTest, MarksFireAndProfilesAreByteIdentical) {
  // The acceptance gate for quiet marking: honoring the marks leaves the
  // trms profile byte-identical to running the *same* optimized program
  // with all marks stripped (identical instruction streams, so
  // multithreaded scheduling matches exactly). Every workload has
  // direct marks; md and dedup also have the range certificate's
  // indirect marks, which must fire.
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  WorkloadParams Params;
  Params.Threads = 3;
  Params.Size = 48;
  // Compile the raw source (compileWorkload would already optimize,
  // making a second pass report zero *new* certificate marks) so Stats
  // reflects one full optimization of virgin bytecode.
  DiagnosticEngine Diags;
  std::optional<Program> Prog =
      compileProgram(W->MakeSource(Params), Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();
  OptimizerStats Stats = optimizeProgram(*Prog);
  EXPECT_GT(Stats.QuietAccessesMarked, 0u);
  bool Certified = std::string(GetParam()) == "md" ||
                   std::string(GetParam()) == "dedup";

  auto profile = [](const Program &P, RunStats *StatsOut) {
    TrmsProfilerOptions Opts;
    Opts.KeepActivationLog = true;
    TrmsProfiler Profiler(Opts);
    EventDispatcher D;
    D.addTool(&Profiler);
    Machine M(P, &D);
    RunResult R = M.run();
    EXPECT_TRUE(R.Ok) << R.Error;
    *StatsOut = R.Stats;
    return Profiler.takeDatabase();
  };

  RunStats Marked, Stripped;
  ProfileDatabase WithMarks = profile(*Prog, &Marked);
  ProfileDatabase NoMarks = profile(stripQuietMarks(*Prog), &Stripped);
  EXPECT_EQ(WithMarks.log(), NoMarks.log());
  EXPECT_EQ(Marked.Instructions, Stripped.Instructions);
  EXPECT_GT(Marked.QuietEventsSuppressed, 0u);
  if (Certified) {
    EXPECT_GT(Stats.RangeQuietMarked, 0u);
    EXPECT_GT(Marked.QuietIndirectSuppressed, 0u);
  }
  EXPECT_EQ(Stripped.QuietEventsSuppressed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, QuietIndirectWorkloadTest,
                         ::testing::Values("sort_compare", "botsalgn",
                                           "md", "dedup"),
                         [](const ::testing::TestParamInfo<const char *>
                                &Info) { return Info.param; });

TEST(QuietIndirect, RangeCertificateRecoversVariableIndexMarks) {
  // md and dedup re-read their spawn-handle frame arrays with a loop
  // counter index — a re-read no straight-line window covers, but
  // provable by the interprocedural covered-read certificate. The
  // certificate must mark it on both.
  for (const char *Name : {"md", "dedup"}) {
    const WorkloadInfo *W = findWorkload(Name);
    ASSERT_NE(W, nullptr) << Name;
    WorkloadParams Params;
    Params.Threads = 3;
    Params.Size = 48;
    DiagnosticEngine Diags;
    std::optional<Program> Prog =
        compileProgram(W->MakeSource(Params), Diags);
    ASSERT_TRUE(Prog.has_value()) << Name;
    OptimizerStats Stats = optimizeProgram(*Prog);
    EXPECT_GT(Stats.RangeQuietMarked, 0u) << Name;
  }
}

TEST(QuietIndirect, AnnotatedDisassemblyGolden) {
  // The --annotate-ranges surface: value-range facts on indirect and
  // alloca sites, escape facts on the alloca. Golden like the quiet
  // disassembly above — annotation drift means the analysis changed.
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(R"(
    fn main() {
      var w[4];
      var t = 0;
      while (t < 4) {
        w[t] = t;
        t = t + 1;
      }
      print(w[2]);
      return 0;
    })",
                                               Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();
  analysis::RangeResult RR = analysis::computeRanges(*Prog);
  analysis::EscapeResult Esc = analysis::computeEscape(*Prog);
  DisasmAnnotations Notes;
  for (const auto &[Key, Site] : RR.Sites)
    Notes[Key] = "range=" + Site.Index.str();
  for (const auto &[Key, Site] : RR.Allocas)
    Notes[Key] = "range=" + Site.Size.str();
  for (const analysis::FrameArray &A : Esc.NeverEscaping) {
    std::string &Note = Notes[{A.Fn, A.AllocaPc}];
    if (!Note.empty())
      Note += " ";
    Note += "noescape cells=" + std::to_string(A.Cells);
  }
  EXPECT_EQ(
      disassembleFunction(Prog->Functions[0], &*Prog, &Notes, 0),
      "fn main (0 params, 2 locals):\n"
      "     0  basic_block\n"
      "     1  push_const     4\n"
      "     2  alloca_array  ; range=[4,4] noescape cells=4\n"
      "     3  store_local    0\n"
      "     4  push_const     0\n"
      "     5  store_local    1\n"
      "     6  basic_block\n"
      "     7  load_local     1\n"
      "     8  push_const     4\n"
      "     9  lt\n"
      "    10  jump_if_false  20\n"
      "    11  load_local     0\n"
      "    12  load_local     1\n"
      "    13  load_local     1\n"
      "    14  store_indirect  ; range=[0,3]\n"
      "    15  load_local     1\n"
      "    16  push_const     1\n"
      "    17  add\n"
      "    18  store_local    1\n"
      "    19  jump           6\n"
      "    20  basic_block\n"
      "    21  load_local     0\n"
      "    22  push_const     2\n"
      "    23  load_indirect  ; range=[2,2]\n"
      "    24  call_builtin   print, 1 args\n"
      "    25  pop\n"
      "    26  push_const     0\n"
      "    27  return\n"
      "    28  push_const     0\n"
      "    29  return\n");
}

} // namespace
