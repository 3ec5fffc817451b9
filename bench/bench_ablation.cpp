//===- bench/bench_ablation.cpp - Design-choice ablations -------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Ablations for the design decisions DESIGN.md calls out:
//   A1 (Section 4.2): the read/write timestamping algorithm vs the naive
//       per-activation set algorithm of Figure 10, as thread count and
//       stack depth grow — time per event and analysis-state bytes.
//   A2 (Section 5): three-level shadow tables vs a dense hash shadow,
//       same profiler, same trace.
//   A3 (Section 4.4): renumbering cost — counter limits from 2^12 to
//       2^32 on the same trace; renumber count and total time.
//   A4: serializing-scheduler slice length — interleaving granularity vs
//       instrumented run time (results must not change).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/NaiveProfiler.h"
#include "core/TrmsProfiler.h"
#include "instr/ContextAdapter.h"
#include "instr/Dispatcher.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"
#include "trace/Synthetic.h"
#include "vm/Optimizer.h"
#include "workloads/Runner.h"

#include <chrono>
#include <cstdio>

using namespace isp;

namespace {

/// Seconds walkWords takes to hand \p Words to \p T.
double timeReplay(const std::vector<Event> &Words, Tool &T) {
  auto Start = std::chrono::steady_clock::now();
  walkWords(Words, T);
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

void ablationNaiveVsTimestamping() {
  printBanner("A1 (Section 4.2): timestamping algorithm vs Figure 10 "
              "naive sets");
  TextTable Table;
  Table.setHeader({"threads", "depth", "events", "naive ns/ev",
                   "fast ns/ev", "time ratio", "naive bytes",
                   "fast bytes"});
  for (unsigned Threads : {1u, 2u, 4u, 8u, 16u}) {
    for (unsigned Depth : {6u, 16u}) {
      SyntheticTraceOptions Gen;
      Gen.NumThreads = Threads;
      Gen.MaxCallDepth = Depth;
      Gen.NumOperations = 60000;
      Gen.SharedAddresses = 512;
      Gen.PrivateAddresses = 128;
      Gen.Seed = 1234 + Threads * 7 + Depth;
      std::vector<EventRecord> Trace = generateSyntheticTrace(Gen);
      std::vector<Event> Words = encodeEventStream(Trace);

      NaiveTrmsProfiler Naive;
      double NaiveSecs = timeReplay(Words, Naive);
      TrmsProfiler Fast;
      double FastSecs = timeReplay(Words, Fast);

      double PerEvent = 1e9 / static_cast<double>(Trace.size());
      Table.addRow({std::to_string(Threads), std::to_string(Depth),
                    formatWithCommas(Trace.size()),
                    formatString("%.0f", NaiveSecs * PerEvent),
                    formatString("%.0f", FastSecs * PerEvent),
                    formatString("%.1fx", NaiveSecs / FastSecs),
                    formatBytes(Naive.memoryFootprintBytes()),
                    formatBytes(Fast.memoryFootprintBytes())});
    }
  }
  std::printf("%s", Table.render().c_str());
  std::printf("expected shape: the naive ratio grows with threads and "
              "depth (stack walking + cross-thread set removals); the "
              "timestamping algorithm stays flat.\n");
}

void ablationShadowLayout() {
  printBanner("A2 (Section 5): three-level shadow vs dense hash shadow");
  TextTable Table;
  Table.setHeader({"address spread", "3-level ns/ev", "dense ns/ev",
                   "3-level bytes", "dense bytes"});
  for (unsigned Spread : {1u, 16u, 256u}) {
    SyntheticTraceOptions Gen;
    Gen.NumThreads = 4;
    Gen.NumOperations = 120000;
    Gen.SharedAddresses = 256 * Spread;
    Gen.PrivateAddresses = 64 * Spread;
    Gen.Seed = 99 + Spread;
    std::vector<EventRecord> Trace = generateSyntheticTrace(Gen);
    std::vector<Event> Words = encodeEventStream(Trace);

    TrmsProfiler ThreeLevel;
    double ThreeSecs = timeReplay(Words, ThreeLevel);
    DenseTrmsProfiler Dense;
    double DenseSecs = timeReplay(Words, Dense);

    double PerEvent = 1e9 / static_cast<double>(Trace.size());
    Table.addRow({formatString("%ux", Spread),
                  formatString("%.0f", ThreeSecs * PerEvent),
                  formatString("%.0f", DenseSecs * PerEvent),
                  formatBytes(ThreeLevel.memoryFootprintBytes()),
                  formatBytes(Dense.memoryFootprintBytes())});
  }
  std::printf("%s", Table.render().c_str());
  std::printf("expected shape: the chunked tables win on lookup time at "
              "every spread; hash nodes cost more per populated cell on "
              "clustered address use.\n");
}

void ablationRenumbering() {
  printBanner("A3 (Section 4.4): timestamp renumbering cost vs counter "
              "width");
  SyntheticTraceOptions Gen;
  Gen.NumThreads = 4;
  Gen.NumOperations = 150000;
  Gen.Seed = 31;
  std::vector<Event> Words = encodeEventStream(generateSyntheticTrace(Gen));

  TextTable Table;
  Table.setHeader({"counter limit", "renumberings", "seconds",
                   "vs unlimited"});
  double Baseline = 0;
  for (uint64_t LimitLog : {32u, 16u, 14u, 12u}) {
    TrmsProfilerOptions Opts;
    Opts.CounterLimit = uint64_t(1) << LimitLog;
    TrmsProfiler Profiler(Opts);
    double Secs = timeReplay(Words, Profiler);
    if (LimitLog == 32)
      Baseline = Secs;
    Table.addRow({formatString("2^%llu",
                               static_cast<unsigned long long>(LimitLog)),
                  formatWithCommas(Profiler.renumberings()),
                  formatString("%.3f", Secs),
                  formatString("%.2fx", Baseline > 0 ? Secs / Baseline
                                                     : 0.0)});
  }
  std::printf("%s", Table.render().c_str());
  std::printf("expected shape: renumbering is amortized — even a 2^12 "
              "counter (thousands of renumber passes) costs only a small "
              "constant factor; results are bit-identical (tested).\n");
}

void ablationSliceLength() {
  printBanner("A4: scheduler slice length (interleaving granularity)");
  const WorkloadInfo *W = findWorkload("dedup");
  WorkloadParams Params;
  Params.Threads = 4;
  Params.Size = 64;

  TextTable Table;
  Table.setHeader({"slice (instrs)", "thread switches", "aprof-trms secs",
                   "guest output stable"});
  std::string ReferenceOutput;
  for (uint64_t Slice : {25u, 150u, 1000u, 10000u}) {
    MachineOptions MachineOpts;
    MachineOpts.SliceLength = Slice;
    Measurement M =
        measureWorkload(*W, Params, "aprof-trms", /*Repeats=*/1,
                        MachineOpts);
    if (!M.Ok) {
      std::fprintf(stderr, "dedup: %s\n", M.Error.c_str());
      return;
    }
    RunResult Native = runWorkloadNative(*W, Params, MachineOpts);
    if (ReferenceOutput.empty())
      ReferenceOutput = Native.Output;
    Table.addRow({formatWithCommas(Slice),
                  formatWithCommas(M.Stats.ThreadSwitches),
                  formatString("%.3f", M.Seconds),
                  Native.Output == ReferenceOutput ? "yes" : "NO"});
  }
  std::printf("%s", Table.render().c_str());
  std::printf("expected shape: finer slices multiply thread switches "
              "(more induced-access churn) at modest time cost; the "
              "synchronized guest computes identical results throughout.\n");
}

void ablationContextSensitivity() {
  printBanner("A5: routine-level vs calling-context-level profiling");
  TextTable Table;
  Table.setHeader({"workload", "mode", "profiles", "seconds",
                   "state bytes"});
  for (const char *Name : {"dbserver", "dedup"}) {
    const WorkloadInfo *W = findWorkload(Name);
    WorkloadParams Params;
    Params.Threads = 4;
    Params.Size = 96;
    std::optional<Program> Prog = compileWorkload(*W, Params);
    if (!Prog)
      continue;
    for (bool Contexts : {false, true}) {
      TrmsProfiler Profiler;
      ContextAdapter Adapter(Profiler);
      EventDispatcher Dispatcher;
      Dispatcher.addTool(Contexts ? static_cast<Tool *>(&Adapter)
                                  : &Profiler);
      Machine M(*Prog, &Dispatcher);
      auto Start = std::chrono::steady_clock::now();
      RunResult R = M.run();
      auto End = std::chrono::steady_clock::now();
      if (!R.Ok)
        continue;
      uint64_t Bytes = Contexts ? Adapter.memoryFootprintBytes()
                                : Profiler.memoryFootprintBytes();
      Table.addRow({Name, Contexts ? "contexts" : "routines",
                    formatWithCommas(
                        Profiler.database().mergedByRoutine().size()),
                    formatString("%.3f",
                                 std::chrono::duration<double>(End - Start)
                                     .count()),
                    formatBytes(Bytes)});
    }
  }
  std::printf("%s", Table.render().c_str());
  std::printf("expected shape: context keying multiplies the number of "
              "distinct profiles at a modest time/space premium (the "
              "adapter adds one tree walk per call).\n");
}

void ablationOptimizer() {
  printBanner("A6: bytecode peephole optimizer (profiles invariant by "
              "construction)");
  TextTable Table;
  Table.setHeader({"workload", "instrs before", "instrs after", "saved",
                   "folds", "branches", "BBs unchanged"});
  for (const char *Name :
       {"dbserver", "vips_pipeline", "md", "smithwa", "sort_compare"}) {
    const WorkloadInfo *W = findWorkload(Name);
    WorkloadParams Params;
    Params.Threads = 4;
    Params.Size = 96;
    std::optional<Program> Prog = compileWorkload(*W, Params);
    if (!Prog)
      continue;
    RunResult Plain = Machine(*Prog, nullptr).run();
    OptimizerStats Stats = optimizeProgram(*Prog);
    RunResult Optimized = Machine(*Prog, nullptr).run();
    if (!Plain.Ok || !Optimized.Ok)
      continue;
    double Saved =
        100.0 *
        (1.0 - static_cast<double>(Optimized.Stats.Instructions) /
                   static_cast<double>(Plain.Stats.Instructions));
    Table.addRow(
        {Name, formatWithCommas(Plain.Stats.Instructions),
         formatWithCommas(Optimized.Stats.Instructions),
         formatString("%.1f%%", Saved),
         std::to_string(Stats.ConstantsFolded),
         std::to_string(Stats.BranchesResolved),
         Plain.Stats.BasicBlocks == Optimized.Stats.BasicBlocks ? "yes"
                                                                : "NO"});
  }
  std::printf("%s", Table.render().c_str());
  std::printf("expected shape: modest instruction savings (template-"
              "substituted constants fold), zero change to the basic-"
              "block cost metric or to any per-thread event sequence.\n");
}

} // namespace

int main(int Argc, char **Argv) {
  OptionParser Options("Ablations: naive vs timestamping, shadow layout, "
                       "renumbering, scheduler slice, context keying");
  if (!Options.parse(Argc, Argv))
    return 1;
  ablationNaiveVsTimestamping();
  ablationShadowLayout();
  ablationRenumbering();
  ablationSliceLength();
  ablationContextSensitivity();
  ablationOptimizer();
  return 0;
}
