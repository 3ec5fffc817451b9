//===- tests/IntegrationTest.cpp - Cross-module integration tests --------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// End-to-end flows across module boundaries:
//  - live VM profiling == record-then-replay profiling,
//  - per-thread splitting + timestamped merging (Section 4's offline
//    pipeline) reproduces the profile for any tie-break policy,
//  - the complete VM -> trms -> metrics -> report pipeline emits sane
//    artefacts for a multithreaded program.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Metrics.h"
#include "core/Report.h"
#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "trace/Synthetic.h"
#include "trace/TraceMerger.h"
#include "vm/Compiler.h"
#include "vm/Machine.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

using namespace isp;

namespace {

const char *PipelineSource = R"(
var shared[16];
var lk;
fn stage_a(rounds) {
  var r = 0;
  while (r < rounds) {
    lock_acquire(lk);
    var i = 0;
    while (i < 16) { shared[i] = shared[i] + r + i; i = i + 1; }
    lock_release(lk);
    yield();
    r = r + 1;
  }
  return 0;
}
fn stage_b(rounds) {
  var acc = 0;
  var r = 0;
  while (r < rounds) {
    lock_acquire(lk);
    var i = 0;
    while (i < 16) { acc = acc + shared[i]; i = i + 1; }
    lock_release(lk);
    yield();
    r = r + 1;
  }
  return acc;
}
fn main() {
  lk = lock_create();
  sysread(1, shared, 16);
  var a = spawn stage_a(12);
  var b = spawn stage_b(12);
  join(a);
  var result = join(b);
  syswrite(2, shared, 16);
  print(result % 1000003);
  return 0;
}
)";

std::vector<ActivationRecord> liveProfile(const Program &Prog,
                                          std::vector<EventRecord> *TraceOut) {
  TrmsProfilerOptions Opts;
  Opts.KeepActivationLog = true;
  TrmsProfiler Profiler(Opts);
  WordSink Sink;
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Profiler);
  if (TraceOut)
    Dispatcher.setRecordSink(&Sink);
  Machine M(Prog, &Dispatcher);
  RunResult R = M.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  if (TraceOut)
    *TraceOut = decodeEventStream(Sink.Words);
  return Profiler.database().log();
}

std::vector<ActivationRecord>
replayProfile(const std::vector<EventRecord> &Trace) {
  TrmsProfilerOptions Opts;
  Opts.KeepActivationLog = true;
  TrmsProfiler Profiler(Opts);
  walkTrace(Trace, Profiler);
  return Profiler.database().log();
}

TEST(Integration, LiveEqualsRecordedReplay) {
  DiagnosticEngine Diags;
  auto Prog = compileProgram(PipelineSource, Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();

  std::vector<EventRecord> Trace;
  auto Live = liveProfile(*Prog, &Trace);
  ASSERT_FALSE(Trace.empty());
  auto Replayed = replayProfile(Trace);
  EXPECT_EQ(Live, Replayed);
}

TEST(Integration, SplitMergeReplayMatchesForAllPolicies) {
  DiagnosticEngine Diags;
  auto Prog = compileProgram(PipelineSource, Diags);
  ASSERT_TRUE(Prog.has_value());

  std::vector<EventRecord> Trace;
  auto Live = liveProfile(*Prog, &Trace);
  auto PerThread = splitByThread(Trace);
  EXPECT_GE(PerThread.size(), 3u);

  // splitByThread times each record by its position, so no ties exist
  // and every policy must reconstruct the same total order (hence the
  // same profile).
  for (TieBreakPolicy Policy :
       {TieBreakPolicy::ByThreadId, TieBreakPolicy::RoundRobin,
        TieBreakPolicy::SeededRandom}) {
    TraceMergeOptions Opts;
    Opts.Policy = Policy;
    std::vector<EventRecord> Merged = mergeTraces(PerThread, Opts);
    EXPECT_EQ(replayProfile(Merged), Live)
        << "policy " << static_cast<int>(Policy);
  }
}

TEST(Integration, MergedSyntheticTracesTieBreakConsistency) {
  // With artificial ties, different policies may yield different yet
  // *valid* profiles; the analysis must at minimum stay self-consistent
  // (Inequality 1, non-negative sizes) under each.
  SyntheticTraceOptions Gen;
  Gen.NumThreads = 4;
  Gen.NumOperations = 4000;
  Gen.Seed = 23;
  auto PerThread = splitByThread(generateSyntheticTrace(Gen));
  // Collapse the split's times to create many cross-thread ties.
  for (auto &Trace : PerThread)
    for (TimedEvent &E : Trace)
      E.Time /= 3;
  ASSERT_TRUE(verifyThreadTraces(PerThread));

  for (uint64_t Seed : {1u, 2u, 3u}) {
    TraceMergeOptions Opts;
    Opts.Policy = TieBreakPolicy::SeededRandom;
    Opts.Seed = Seed;
    std::vector<EventRecord> Merged = mergeTraces(PerThread, Opts);
    auto Log = replayProfile(Merged);
    ASSERT_FALSE(Log.empty());
    for (const ActivationRecord &R : Log)
      ASSERT_GE(R.Trms, R.Rms);
  }
}

TEST(Integration, FullPipelineProducesReports) {
  const WorkloadInfo *W = findWorkload("dbserver");
  ASSERT_NE(W, nullptr);
  WorkloadParams P;
  P.Threads = 3;
  P.Size = 40;
  ProfiledRun Run = profileWorkload(*W, P);
  ASSERT_TRUE(Run.Run.Ok) << Run.Run.Error;

  std::string Summary = renderRunSummary(Run.Profile, &Run.Symbols);
  EXPECT_NE(Summary.find("mysql_select"), std::string::npos);
  EXPECT_NE(Summary.find("input volume"), std::string::npos);

  auto Metrics = computeRoutineMetrics(Run.Profile);
  EXPECT_GT(Metrics.size(), 5u);
  std::vector<double> Volumes;
  for (const RoutineMetrics &M : Metrics)
    Volumes.push_back(M.InputVolume);
  auto Tail = tailDistribution(Volumes);
  ASSERT_FALSE(Tail.empty());
  EXPECT_GT(Tail.front().second, 0.0) << "no routine with induced input";
}

TEST(Integration, RenumberingUnderLiveVmMatchesDefault) {
  const WorkloadInfo *W = findWorkload("dedup");
  ASSERT_NE(W, nullptr);
  WorkloadParams P;
  P.Threads = 3;
  P.Size = 24;

  TrmsProfilerOptions Default;
  Default.KeepActivationLog = true;
  TrmsProfilerOptions Tiny = Default;
  Tiny.CounterLimit = 2048;

  ProfiledRun A = profileWorkload(*W, P, Default);
  ProfiledRun B = profileWorkload(*W, P, Tiny);
  ASSERT_TRUE(A.Run.Ok && B.Run.Ok);
  EXPECT_EQ(A.Profile.log(), B.Profile.log());
}

} // namespace

//===----------------------------------------------------------------------===//
// Context-sensitive profiling (ContextAdapter)
//===----------------------------------------------------------------------===//

#include "instr/ContextAdapter.h"

namespace {

const char *ContextSource = R"(
var data[128];
fn leaf(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) { s = s + data[i]; }
  return s;
}
fn viaSmall() { return leaf(4); }
fn viaBig() { return leaf(64); }
fn main() {
  for (var i = 0; i < 128; i = i + 1) { data[i] = i; }
  var acc = 0;
  for (var r = 0; r < 6; r = r + 1) {
    acc = acc + viaSmall() + viaBig();
  }
  print(acc);
  return 0;
}
)";

TEST(ContextAdapter, SplitsRoutineProfilesByCallPath) {
  DiagnosticEngine Diags;
  auto Prog = compileProgram(ContextSource, Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();

  TrmsProfilerOptions Opts;
  TrmsProfiler Inner(Opts);
  ContextAdapter Adapter(Inner);
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Adapter);
  Machine M(*Prog, &Dispatcher);
  ASSERT_TRUE(M.run().Ok);

  // leaf appears as two distinct contexts with distinct input sizes.
  const SymbolTable &Ctx = Adapter.contextSymbols();
  RoutineId Small = Ctx.lookup("main > viaSmall > leaf");
  RoutineId Big = Ctx.lookup("main > viaBig > leaf");
  ASSERT_NE(Small, ~0u);
  ASSERT_NE(Big, ~0u);
  auto Merged = Inner.database().mergedByRoutine();
  ASSERT_TRUE(Merged.count(Small));
  ASSERT_TRUE(Merged.count(Big));
  EXPECT_EQ(Merged.at(Small).activations(), 6u);
  EXPECT_EQ(Merged.at(Big).activations(), 6u);
  // The big-context leaf reads far more input than the small-context one.
  EXPECT_GT(Merged.at(Big).sumTrms(), Merged.at(Small).sumTrms() * 4);
}

TEST(ContextAdapter, PreservesAggregateTotals) {
  // Wrapping must only re-key activations, never change their number,
  // total cost, or total input.
  DiagnosticEngine Diags;
  auto Prog = compileProgram(ContextSource, Diags);
  ASSERT_TRUE(Prog.has_value());

  TrmsProfiler Plain;
  {
    EventDispatcher D;
    D.addTool(&Plain);
    Machine M(*Prog, &D);
    ASSERT_TRUE(M.run().Ok);
  }
  TrmsProfiler Inner;
  ContextAdapter Adapter(Inner);
  {
    EventDispatcher D;
    D.addTool(&Adapter);
    Machine M(*Prog, &D);
    ASSERT_TRUE(M.run().Ok);
  }

  EXPECT_EQ(Plain.database().totalActivations(),
            Inner.database().totalActivations());
  auto totals = [](const ProfileDatabase &Db) {
    uint64_t Cost = 0, Trms = 0, Rms = 0;
    for (const auto &[Key, Profile] : Db.threadRoutineProfiles()) {
      Cost += Profile.totalCost();
      Trms += Profile.sumTrms();
      Rms += Profile.sumRms();
    }
    return std::tuple(Cost, Trms, Rms);
  };
  EXPECT_EQ(totals(Plain.database()), totals(Inner.database()));
  // ...while the context view has strictly more profile keys.
  EXPECT_GT(Inner.database().mergedByRoutine().size(),
            Plain.database().mergedByRoutine().size());
}

Event word(EventKind K, ThreadId Tid, uint64_t Arg, bool Follow = false) {
  return {static_cast<uint32_t>(K) | (Follow ? Event::FollowBit : 0u), Tid,
          Arg};
}
Event follow(uint64_t Arg) { return {0, 0, Arg}; }

TEST(ContextAdapter, RewritesHandBuiltBatches) {
  // The inner tool must see exactly the callbacks that a per-event
  // adapter (one rewriting callback per decoded record) gave it on the
  // same words. The expected entries were captured from that adapter.
  using K = EventKind;
  std::vector<std::vector<Event>> Batches = {
      {word(K::ThreadStart, 1, 0), word(K::Call, 1, 5), word(K::Call, 1, 6),
       word(K::Read, 1, 100, true), follow(3),
       // A Return on an empty stack is dropped with its follow-on word.
       word(K::Return, 2, 9, true), follow(4),
       // A Call whose Return comes in the next batch.
       word(K::Call, 1, 7),
       // A record whose follow-on word is cut off is not an event.
       word(K::Write, 1, 200, true)},
      {word(K::Return, 1, 7, true), follow(12),
       word(K::SyncAcquire, 1, 4, true), follow(1),
       word(K::Alloc, 1, 64, true), follow(16), word(K::ThreadCreate, 1, 2),
       // A ThreadEnd under two open frames: a Return for each comes first.
       word(K::ThreadEnd, 1, 0), word(K::ThreadStart, 2, 1),
       word(K::Call, 2, 5), word(K::Return, 2, 5), word(K::Return, 2, 5),
       // A cut-off Call opens no frame...
       word(K::Call, 2, 8, true)},
      // ...so the Return that follows meets an empty stack.
      {word(K::Return, 2, 8), word(K::Free, 2, 64), word(K::ThreadEnd, 2, 0),
       word(K::ThreadJoin, 0, 2)},
  };
  RecordingTool Inner;
  ContextAdapter Adapter(Inner);
  Adapter.onStart(nullptr);
  for (const std::vector<Event> &Batch : Batches)
    Adapter.handleBatch(Batch.data(), Batch.size());
  Adapter.onFinish();

  const std::vector<RecordingTool::Entry> Expected = {
      {'S', 1, 0, 0},  {'C', 1, 0, 0}, {'C', 1, 1, 0},    {'r', 1, 100, 3},
      {'C', 1, 2, 0},  {'B', 1, 12, 0}, {'R', 1, 2, 0},   {'a', 1, 4, 1},
      {'m', 1, 64, 16}, {'c', 1, 2, 0}, {'R', 1, 1, 0},   {'R', 1, 0, 0},
      {'E', 1, 0, 0},  {'S', 2, 1, 0}, {'C', 2, 0, 0},    {'R', 2, 0, 0},
      {'f', 2, 64, 0}, {'E', 2, 0, 0}, {'j', 0, 2, 0},
  };
  EXPECT_EQ(Inner.Entries, Expected);
  ASSERT_EQ(Adapter.contextCount(), 3u);
  EXPECT_EQ(Adapter.contextSymbols().routineName(0), "#5");
  EXPECT_EQ(Adapter.contextSymbols().routineName(1), "#5 > #6");
  EXPECT_EQ(Adapter.contextSymbols().routineName(2), "#5 > #6 > #7");
}

/// Keeps every word an adapter hands its inner tool.
class WordTool final : public Tool {
public:
  std::string name() const override { return "words"; }
  void handleBatch(const Event *Batch, size_t Count) override {
    Words.insert(Words.end(), Batch, Batch + Count);
  }
  std::vector<Event> Words;
};

TEST(ContextAdapter, MovesBlockCountsWithTheirFrames) {
  using K = EventKind;
  const std::vector<Event> Batch = {
      word(K::ThreadStart, 1, 0), word(K::Call, 1, 5),
      word(K::Call, 1, 6, true), follow(2),
      // A ThreadEnd with blocks under two open frames: the first
      // synthesized Return, the innermost frame's, carries them.
      word(K::ThreadEnd, 1, 0, true), follow(9),
      // A Return with blocks on an empty stack is dropped with them...
      word(K::Return, 2, 8, true), follow(4),
      // ...and a ThreadEnd with no frame open keeps its blocks.
      word(K::ThreadEnd, 2, 0, true), follow(3)};
  WordTool Inner;
  ContextAdapter Adapter(Inner);
  Adapter.onStart(nullptr);
  Adapter.handleBatch(Batch.data(), Batch.size());
  Adapter.onFinish();

  // Context ids: 0 is "#5", 1 is "#5 > #6".
  const std::vector<Event> Expected = {
      word(K::ThreadStart, 1, 0), word(K::Call, 1, 0),
      word(K::Call, 1, 1, true), follow(2),
      word(K::Return, 1, 1, true), follow(9), word(K::Return, 1, 0),
      word(K::ThreadEnd, 1, 0),
      word(K::ThreadEnd, 2, 0, true), follow(3)};
  EXPECT_EQ(Inner.Words, Expected);

  // Through the walk, the innermost frame's blocks come just before its
  // Return.
  RecordingTool Recording;
  Recording.handleBatch(Inner.Words.data(), Inner.Words.size());
  const std::vector<RecordingTool::Entry> Callbacks = {
      {'S', 1, 0, 0}, {'C', 1, 0, 0}, {'B', 1, 2, 0}, {'C', 1, 1, 0},
      {'B', 1, 9, 0}, {'R', 1, 1, 0}, {'R', 1, 0, 0}, {'E', 1, 0, 0},
      {'B', 2, 3, 0}, {'E', 2, 0, 0}};
  EXPECT_EQ(Recording.Entries, Callbacks);
}

TEST(ContextAdapter, RecursionProducesPerDepthContexts) {
  const char *Source = R"(
    fn down(n) {
      if (n == 0) { return 0; }
      return down(n - 1) + 1;
    }
    fn main() { return down(4); }
  )";
  DiagnosticEngine Diags;
  auto Prog = compileProgram(Source, Diags);
  ASSERT_TRUE(Prog.has_value());
  TrmsProfiler Inner;
  ContextAdapter Adapter(Inner);
  EventDispatcher D;
  D.addTool(&Adapter);
  Machine M(*Prog, &D);
  ASSERT_TRUE(M.run().Ok);
  // main, main>down, main>down>down, ..., 5 levels of down.
  EXPECT_EQ(Adapter.contextCount(), 6u);
  EXPECT_NE(Adapter.contextSymbols().lookup(
                "main > down > down > down > down > down"),
            ~0u);
}

} // namespace
