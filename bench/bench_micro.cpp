//===- bench/bench_micro.cpp - google-benchmark microbenchmarks ------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Per-component microbenchmarks (google-benchmark): shadow memory
// get/set, the profiler's per-event costs on characteristic event mixes,
// trace merging throughput, synthetic generation, and raw VM
// interpretation speed. These are the numbers behind the macro tables:
// e.g. aprof-trms's slowdown over nulgrind is its per-memory-event cost
// times the workload's event density.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/NaiveProfiler.h"
#include "core/RmsProfiler.h"
#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "shadow/ShadowMemory.h"
#include "support/Random.h"
#include "trace/Synthetic.h"
#include "trace/TraceMerger.h"
#include "vm/Machine.h"
#include "workloads/Runner.h"

#include <benchmark/benchmark.h>

using namespace isp;

//===----------------------------------------------------------------------===//
// Shadow memories
//===----------------------------------------------------------------------===//

static void BM_ShadowThreeLevelSet(benchmark::State &State) {
  ThreeLevelShadow<uint64_t> Shadow;
  Rng R(1);
  uint64_t Range = static_cast<uint64_t>(State.range(0));
  for (auto _ : State)
    Shadow.set(R.nextBelow(Range), 42);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ShadowThreeLevelSet)->Arg(1 << 12)->Arg(1 << 20)->Arg(1 << 26);

static void BM_ShadowThreeLevelGet(benchmark::State &State) {
  ThreeLevelShadow<uint64_t> Shadow;
  uint64_t Range = static_cast<uint64_t>(State.range(0));
  for (uint64_t A = 0; A < Range; A += 7)
    Shadow.set(A, A);
  Rng R(2);
  uint64_t Sink = 0;
  for (auto _ : State)
    Sink += Shadow.get(R.nextBelow(Range));
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ShadowThreeLevelGet)->Arg(1 << 12)->Arg(1 << 20)->Arg(1 << 26);

static void BM_ShadowDenseSet(benchmark::State &State) {
  DenseShadow<uint64_t> Shadow;
  Rng R(1);
  uint64_t Range = static_cast<uint64_t>(State.range(0));
  for (auto _ : State)
    Shadow.set(R.nextBelow(Range), 42);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ShadowDenseSet)->Arg(1 << 12)->Arg(1 << 20)->Arg(1 << 26);

//===----------------------------------------------------------------------===//
// Profiler event costs
//===----------------------------------------------------------------------===//

/// Replays a pre-generated trace repeatedly through a fresh profiler.
/// The trace is encoded once, outside the timed loop.
template <typename ProfilerT>
static void replayBenchmark(benchmark::State &State,
                            const SyntheticTraceOptions &Gen) {
  std::vector<EventRecord> Trace = generateSyntheticTrace(Gen);
  std::vector<Event> Words = encodeEventStream(Trace);
  for (auto _ : State) {
    ProfilerT Profiler;
    walkWords(Words, Profiler);
    benchmark::DoNotOptimize(Profiler.database().totalActivations());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Trace.size()));
}

static SyntheticTraceOptions mixFor(int Threads) {
  SyntheticTraceOptions Gen;
  Gen.NumThreads = static_cast<unsigned>(Threads);
  Gen.NumOperations = 30000;
  Gen.SharedAddresses = 256;
  Gen.PrivateAddresses = 64;
  Gen.Seed = 7;
  return Gen;
}

static void BM_TrmsProfilerReplay(benchmark::State &State) {
  replayBenchmark<TrmsProfiler>(State, mixFor(State.range(0)));
}
BENCHMARK(BM_TrmsProfilerReplay)->Arg(1)->Arg(4)->Arg(16);

static void BM_RmsProfilerReplay(benchmark::State &State) {
  replayBenchmark<RmsProfiler>(State, mixFor(State.range(0)));
}
BENCHMARK(BM_RmsProfilerReplay)->Arg(1)->Arg(4)->Arg(16);

/// One activation folded into a routine's cost curves, which already
/// hold State.range(0) distinct input sizes: ProfileDatabase's
/// per-activation aggregation in steady state (kdtree's
/// tree_count_range has about 150 sizes at benchmark size).
static void BM_RoutineProfileAdd(benchmark::State &State) {
  const uint64_t Sizes = static_cast<uint64_t>(State.range(0));
  RoutineProfile Profile;
  ActivationRecord Fill;
  for (uint64_t S = 0; S != Sizes; ++S) {
    Fill.Rms = Fill.Trms = S;
    Profile.addActivation(Fill);
  }
  Rng R(3);
  std::vector<ActivationRecord> Records(4096);
  for (ActivationRecord &A : Records) {
    A.Rms = R.nextBelow(Sizes);
    A.Trms = A.Rms + R.nextBelow(Sizes - A.Rms);
    A.Cost = R.nextBelow(1 << 16);
  }
  size_t I = 0;
  for (auto _ : State) {
    Profile.addActivation(Records[I]);
    I = (I + 1) & (Records.size() - 1);
  }
  benchmark::DoNotOptimize(Profile.totalCost());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RoutineProfileAdd)->Arg(150)->Arg(100000);

static void BM_NaiveProfilerReplay(benchmark::State &State) {
  replayBenchmark<NaiveTrmsProfiler>(State, mixFor(State.range(0)));
}
BENCHMARK(BM_NaiveProfilerReplay)->Arg(1)->Arg(4)->Arg(16);

/// Read-dominated mix with kernel writes: the induced-access hot path.
static void BM_TrmsInducedHeavy(benchmark::State &State) {
  SyntheticTraceOptions Gen = mixFor(4);
  Gen.KernelWriteProbability = 0.2;
  Gen.WriteProbability = 0.1;
  Gen.SharedProbability = 0.95;
  replayBenchmark<TrmsProfiler>(State, Gen);
}
BENCHMARK(BM_TrmsInducedHeavy);

/// Renumbering in the loop: a deliberately small counter.
static void BM_TrmsWithRenumbering(benchmark::State &State) {
  std::vector<EventRecord> Trace = generateSyntheticTrace(mixFor(4));
  std::vector<Event> Words = encodeEventStream(Trace);
  for (auto _ : State) {
    TrmsProfilerOptions Opts;
    Opts.CounterLimit = uint64_t(1) << State.range(0);
    TrmsProfiler Profiler(Opts);
    walkWords(Words, Profiler);
    benchmark::DoNotOptimize(Profiler.renumberings());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Trace.size()));
}
BENCHMARK(BM_TrmsWithRenumbering)->Arg(12)->Arg(16)->Arg(32);

//===----------------------------------------------------------------------===//
// Trace infrastructure
//===----------------------------------------------------------------------===//

static void BM_TraceMerge(benchmark::State &State) {
  SyntheticTraceOptions Gen = mixFor(static_cast<int>(State.range(0)));
  auto PerThread = splitByThread(generateSyntheticTrace(Gen));
  for (auto _ : State) {
    auto Merged = mergeTraces(PerThread);
    benchmark::DoNotOptimize(Merged.size());
  }
  State.SetItemsProcessed(State.iterations() * 30000);
}
BENCHMARK(BM_TraceMerge)->Arg(2)->Arg(8);

static void BM_SyntheticGeneration(benchmark::State &State) {
  SyntheticTraceOptions Gen = mixFor(4);
  for (auto _ : State) {
    Gen.Seed += 1;
    auto Trace = generateSyntheticTrace(Gen);
    benchmark::DoNotOptimize(Trace.size());
  }
  State.SetItemsProcessed(State.iterations() * 30000);
}
BENCHMARK(BM_SyntheticGeneration);

//===----------------------------------------------------------------------===//
// VM substrate
//===----------------------------------------------------------------------===//

static void BM_VmNativeExecution(benchmark::State &State) {
  const WorkloadInfo *W = findWorkload("md");
  WorkloadParams Params;
  Params.Threads = 4;
  Params.Size = 48;
  std::optional<Program> Prog = compileWorkload(*W, Params);
  for (auto _ : State) {
    Machine M(*Prog, nullptr);
    RunResult R = M.run();
    benchmark::DoNotOptimize(R.Stats.Instructions);
    State.SetItemsProcessed(State.items_processed() +
                            static_cast<int64_t>(R.Stats.Instructions));
  }
}
BENCHMARK(BM_VmNativeExecution);

static void BM_VmInstrumentedExecution(benchmark::State &State) {
  const WorkloadInfo *W = findWorkload("md");
  WorkloadParams Params;
  Params.Threads = 4;
  Params.Size = 48;
  std::optional<Program> Prog = compileWorkload(*W, Params);
  uint64_t Emitted = 0;
  uint64_t Delivered = 0;
  for (auto _ : State) {
    TrmsProfiler Profiler;
    EventDispatcher Dispatcher;
    Dispatcher.addTool(&Profiler);
    Machine M(*Prog, &Dispatcher);
    RunResult R = M.run();
    benchmark::DoNotOptimize(R.Stats.Instructions);
    State.SetItemsProcessed(State.items_processed() +
                            static_cast<int64_t>(R.Stats.Instructions));
    Emitted += Dispatcher.enqueuedEvents();
    Delivered += Dispatcher.deliveredEvents();
  }
  State.counters["emitted_events/s"] = benchmark::Counter(
      static_cast<double>(Emitted), benchmark::Counter::kIsRate);
  State.counters["delivered_events/s"] = benchmark::Counter(
      static_cast<double>(Delivered), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmInstrumentedExecution);

static void BM_GuestCompilation(benchmark::State &State) {
  const WorkloadInfo *W = findWorkload("dbserver");
  WorkloadParams Params;
  Params.Threads = 4;
  Params.Size = 64;
  for (auto _ : State) {
    std::optional<Program> Prog = compileWorkload(*W, Params);
    benchmark::DoNotOptimize(Prog->Functions.size());
  }
}
BENCHMARK(BM_GuestCompilation);

BENCHMARK_MAIN();
