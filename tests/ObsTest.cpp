//===- tests/ObsTest.cpp - Observability subsystem tests -----------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Covers the obs registry (counter/gauge/histogram semantics, the
// disabled-mode no-allocation guarantee, exporter golden output), the
// trace_event timeline, the dispatcher's flush-cause and compaction
// accounting (including the enqueued == delivered + merges identity),
// and the machine's quiet-access suppression tallies.
//
// Ordering matters: the registry is a process-wide singleton, so the
// disabled-mode test and the exporter golden test run first, before any
// other test interns a metric name. gtest executes TESTs in declaration
// order within one binary.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"
#include "obs/TraceLog.h"

#include "analysis/Escape.h"
#include "analysis/LocksetLint.h"
#include "analysis/Range.h"
#include "analysis/Verifier.h"
#include "collect/Collector.h"
#include "core/RmsProfiler.h"
#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "support/Format.h"
#include "trace/Synthetic.h"
#include "trace/TraceStream.h"
#include "tools/NulTool.h"
#include "vm/Compiler.h"
#include "vm/Machine.h"
#include "vm/Optimizer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <thread>

using namespace isp;

namespace {

//===----------------------------------------------------------------------===//
// Disabled mode (must run first: asserts nothing was ever registered)
//===----------------------------------------------------------------------===//

TEST(ObsDisabled, FullPipelineRegistersNothing) {
  obs::setStatsEnabled(false);
  ASSERT_FALSE(obs::statsEnabled());
  ASSERT_FALSE(obs::tracingEnabled());

  // Run the whole instrumented pipeline — machine, dispatcher, shadow
  // memory, profiler — with collection off. Not a single metric may be
  // interned: a disabled process pays branch tests only, never a name
  // allocation.
  TrmsProfiler Profiler;
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Profiler);
  RunResult R = compileAndRun(R"(
    fn main() {
      var sum = 0;
      for (var i = 0; i < 100; i = i + 1) { sum = sum + i; }
      print(sum);
      return 0;
    })",
                              &Dispatcher);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "4950\n");
  EXPECT_TRUE(obs::Registry::get().empty());
  EXPECT_EQ(obs::TraceLog::get().eventCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Exporters (runs on a still-pristine registry for exact golden output)
//===----------------------------------------------------------------------===//

TEST(ObsExport, JsonAndCsvGolden) {
  obs::Registry &R = obs::Registry::get();
  ASSERT_TRUE(R.empty()) << "registry polluted before the golden test";

  R.counter("alpha.events").add(7);
  R.counter("beta.events").add(41);
  R.gauge("alpha.bytes").set(2048);
  obs::Histogram &H = R.histogram("alpha.fill");
  H.record(0);
  H.record(1);
  H.record(5);
  H.record(5);

  EXPECT_EQ(R.renderJson(),
            "{\n"
            "  \"schema_version\": 1,\n"
            "  \"counters\": {\n"
            "    \"alpha.events\": 7,\n"
            "    \"beta.events\": 41\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"alpha.bytes\": 2048\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"alpha.fill\": {\"count\": 4, \"sum\": 11, \"max\": 5, "
            "\"mean\": 2.750, \"buckets\": [[0, 1], [1, 1], [4, 2]]}\n"
            "  }\n"
            "}\n");

  EXPECT_EQ(R.renderCsv(), "kind,name,value\n"
                           "counter,alpha.events,7\n"
                           "counter,beta.events,41\n"
                           "gauge,alpha.bytes,2048\n"
                           "histogram.count,alpha.fill,4\n"
                           "histogram.sum,alpha.fill,11\n"
                           "histogram.max,alpha.fill,5\n");

  // reset() zeroes values but keeps names registered and references
  // valid — bench repetitions rely on both.
  obs::Counter &Alpha = R.counter("alpha.events");
  R.reset();
  EXPECT_EQ(Alpha.value(), 0u);
  EXPECT_EQ(R.counterValues().at("beta.events"), 0u);
  EXPECT_FALSE(R.empty());
}

//===----------------------------------------------------------------------===//
// Metric primitives
//===----------------------------------------------------------------------===//

TEST(ObsMetrics, CounterAndGauge) {
  obs::Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);

  obs::Gauge G;
  G.set(10);
  EXPECT_EQ(G.value(), 10u);
  G.noteMax(7); // lower: ignored
  EXPECT_EQ(G.value(), 10u);
  G.noteMax(99);
  EXPECT_EQ(G.value(), 99u);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  // Bucket 0 holds zeros; bucket i (i >= 1) covers [2^(i-1), 2^i).
  EXPECT_EQ(obs::Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(obs::Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(obs::Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(obs::Histogram::bucketIndex(255), 8u);
  EXPECT_EQ(obs::Histogram::bucketIndex(256), 9u);
  // Samples past 2^32 saturate into the last bucket.
  EXPECT_EQ(obs::Histogram::bucketIndex(uint64_t(1) << 40),
            obs::Histogram::NumBuckets - 1);

  EXPECT_EQ(obs::Histogram::bucketLowerBound(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketLowerBound(1), 1u);
  EXPECT_EQ(obs::Histogram::bucketLowerBound(9), 256u);

  obs::Histogram H;
  H.record(0);
  H.record(3);
  H.record(300);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.sum(), 303u);
  EXPECT_EQ(H.max(), 300u);
  EXPECT_DOUBLE_EQ(H.mean(), 101.0);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.bucketCount(9), 1u);
}

//===----------------------------------------------------------------------===//
// TraceLog
//===----------------------------------------------------------------------===//

TEST(ObsTrace, RecordsAndRendersTimeline) {
  obs::TraceLog &T = obs::TraceLog::get();
  T.enable();
  ASSERT_TRUE(obs::tracingEnabled());

  obs::LaneId Lane = T.allocLane("test lane");
  EXPECT_GE(Lane, obs::TraceLog::FirstInfraLane);
  T.completeSpan(Lane, "work", "test", 1000, 3500);
  T.instant(7, "tick", "test", 2000);
  T.counterSample("fill", 42, 2500);
  EXPECT_EQ(T.eventCount(), 3u);

  std::string Json = T.renderJson();
  // Lane-name metadata plus the three records, with nanosecond stamps
  // rendered as microseconds.
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("thread_name"), std::string::npos);
  EXPECT_NE(Json.find("test lane"), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"dur\": 2.500"), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"C\""), std::string::npos);

  // ScopedSpan arms on construction and records on destruction.
  { obs::ScopedSpan Span(Lane, "scoped", "test"); }
  EXPECT_EQ(T.eventCount(), 4u);

  T.reset();
  EXPECT_FALSE(obs::tracingEnabled());
  EXPECT_EQ(T.eventCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Dispatcher accounting
//===----------------------------------------------------------------------===//

TEST(ObsDispatcher, FlushCausesAndCompactionIdentity) {
  NulTool Tool;
  EventDispatcher D;
  D.addTool(&Tool);
  D.start(nullptr);

  // Non-adjacent reads of one word each: no merges, and a batch flushes
  // once it holds BatchWords - MaxWordsPerRecord + 1 words, so this
  // fills it twice and leaves 88 events buffered.
  const uint64_t PerBatch =
      EventDispatcher::BatchWords - Event::MaxWordsPerRecord + 1;
  const uint64_t Reads = 2 * PerBatch + 88;
  for (Addr A = 0; A != Reads; ++A)
    D.enqueue(EventRecord::read(1, 2 * A));
  EXPECT_EQ(D.flushCount(EventDispatcher::FlushCause::Capacity), 2u);

  // Manual flush of the non-empty remainder counts as Explicit.
  D.flush();
  EXPECT_EQ(D.flushCount(EventDispatcher::FlushCause::Explicit), 1u);
  // Flushing an empty batch is not a delivery and must not count.
  D.flush();
  EXPECT_EQ(D.flushCount(EventDispatcher::FlushCause::Explicit), 1u);

  // Three adjacent reads merge into the first; two Calls carrying
  // blocks do not merge.
  D.enqueue(EventRecord::read(1, 5000));
  D.enqueue(EventRecord::read(1, 5001));
  D.enqueue(EventRecord::read(1, 5002));
  D.enqueue(EventRecord::call(1, 0, 10));
  D.enqueue(EventRecord::call(1, 0, 20));
  EXPECT_EQ(D.accessMerges(), 2u);

  D.finish();
  EXPECT_EQ(D.flushCount(EventDispatcher::FlushCause::Finish), 1u);
  EXPECT_EQ(D.totalFlushes(), 4u);

  // The exact compaction identity: every enqueued event either merged
  // into a buffered one or was delivered.
  EXPECT_EQ(D.enqueuedEvents(), D.deliveredEvents() + D.accessMerges());
  EXPECT_EQ(D.enqueuedEvents(), Reads + 5);
  EXPECT_EQ(D.deliveredEvents(), Reads + 3);
  EXPECT_EQ(Tool.eventsSeen(), Reads + 3);
}

TEST(ObsDispatcher, LiveRunIdentityWithStatsOn) {
  obs::setStatsEnabled(true);
  obs::Registry::get().reset();

  NulTool Tool;
  EventDispatcher D;
  D.addTool(&Tool);
  RunResult R = compileAndRun(R"(
    var table[64];
    fn main() {
      var acc = 0;
      for (var i = 0; i < 200; i = i + 1) {
        table[i % 64] = i;
        acc = acc + table[(i * 3) % 64];
      }
      print(acc);
      return 0;
    })",
                              &D);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(D.enqueuedEvents(), D.deliveredEvents() + D.accessMerges());

  // finish() folded the tallies into the registry under the documented
  // names, including the per-tool delivery counter.
  std::map<std::string, uint64_t> C = obs::Registry::get().counterValues();
  EXPECT_EQ(C.at("dispatcher.enqueued_events"), D.enqueuedEvents());
  EXPECT_EQ(C.at("dispatcher.delivered_events"), D.deliveredEvents());
  EXPECT_EQ(C.at("dispatcher.access_merges"), D.accessMerges());
  EXPECT_EQ(C.count("dispatcher.bb_folds"), 0u);
  EXPECT_EQ(C.at("tool.nulgrind.events_delivered"), D.deliveredEvents());
  EXPECT_EQ(C.at("dispatcher.flushes.capacity") +
                C.at("dispatcher.flushes.explicit") +
                C.at("dispatcher.flushes.finish"),
            D.totalFlushes());

  obs::setStatsEnabled(false);
}

TEST(ObsShadow, WtsAndTsChunkCachesPublishTallies) {
  // Both shadow caches report chunks, hits and misses, under aprof-trms
  // and aprof-rms alike. Every thread here ends before the run does, so
  // the ts tallies are those folded in as each thread's shadow is
  // released.
  const char *Source = R"(
    var table[64];
    fn work(n) {
      var local[16];
      for (var i = 0; i < n; i = i + 1) {
        local[i % 16] = table[i % 64] + i;
        table[(i * 7) % 64] = local[(i * 3) % 16];
      }
      return local[1];
    }
    fn main() {
      var a = spawn work(300);
      var b = spawn work(300);
      return join(a) + join(b) + work(100);
    })";
  auto countersUnder = [&](Tool &T) {
    obs::setStatsEnabled(true);
    obs::Registry::get().reset();
    EventDispatcher D;
    D.addTool(&T);
    RunResult R = compileAndRun(Source, &D);
    obs::setStatsEnabled(false);
    EXPECT_TRUE(R.Ok) << R.Error;
    return obs::Registry::get().counterValues();
  };
  TrmsProfiler Trms;
  RmsProfiler Rms;
  std::map<std::string, uint64_t> TrmsCounters = countersUnder(Trms);
  std::map<std::string, uint64_t> RmsCounters = countersUnder(Rms);

  auto checkShadow = [](std::map<std::string, uint64_t> &C,
                        const std::string &Shadow) {
    SCOPED_TRACE(Shadow);
    // A tally that was never published reads 0.
    uint64_t Chunks = C[Shadow + ".chunks_allocated"];
    uint64_t Hits = C[Shadow + ".cache_hits"];
    uint64_t Misses = C[Shadow + ".cache_misses"];
    // Every chunk is materialized on a cache miss.
    EXPECT_GT(Chunks, 0u);
    EXPECT_GE(Misses, Chunks);
    // Globals and three threads' stacks are a handful of chunks, so
    // the cache serves nearly every lookup.
    EXPECT_GT(Hits, 20 * Misses);
  };
  checkShadow(TrmsCounters, "shadow.wts");
  checkShadow(TrmsCounters, "shadow.ts");
  checkShadow(RmsCounters, "shadow.ts");
  // aprof-rms keeps no wts shadow (reset() keeps the names aprof-trms
  // interned, so the tally may be present, at 0).
  EXPECT_EQ(RmsCounters["shadow.wts.cache_hits"], 0u);
  // The two profilers stamp their ts shadows on the same accesses.
  for (const char *Tally : {"shadow.ts.chunks_allocated",
                            "shadow.ts.cache_hits", "shadow.ts.cache_misses"})
    EXPECT_EQ(RmsCounters[Tally], TrmsCounters[Tally]) << Tally;
}

//===----------------------------------------------------------------------===//
// Quiet-access suppression tallies
//===----------------------------------------------------------------------===//

// A guest whose inner loop re-reads and re-writes locals — exactly the
// shape the optimizer's quiet-access pass marks.
const char *QuietGuest = R"(
  fn work(n) {
    var acc = 0;
    var tmp = 0;
    for (var i = 0; i < n; i = i + 1) {
      tmp = i + 1;
      acc = acc + tmp;
      tmp = tmp * 2;
      acc = acc + tmp;
    }
    return acc;
  }
  fn main() {
    var t1 = spawn work(200);
    var t2 = spawn work(200);
    return join(t1) + join(t2) - work(200) * 2;
  }
)";

RunStats runQuietGuest(uint64_t Slice) {
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(QuietGuest, Diags);
  EXPECT_TRUE(Prog.has_value()) << Diags.render();
  OptimizerStats Opt = optimizeProgram(*Prog);
  EXPECT_GT(Opt.QuietAccessesMarked, 0u);
  NulTool Tool;
  EventDispatcher D;
  D.addTool(&Tool);
  MachineOptions Opts;
  Opts.SliceLength = Slice;
  Machine M(*Prog, &D, Opts);
  RunResult R = M.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 0);
  return R.Stats;
}

TEST(ObsQuiet, SuppressionVsWindowAbortTallies) {
  // Long slices: threads run their loops uninterrupted, so quiet marks
  // are honored nearly always — many suppressions, few aborts.
  RunStats Calm = runQuietGuest(/*Slice=*/100000);
  EXPECT_GT(Calm.QuietEventsSuppressed, 0u);

  // Slice of 1: every instruction is a potential switch point, so the
  // WindowInterrupted guard keeps firing and forces marked events
  // through.
  RunStats Stormy = runQuietGuest(/*Slice=*/1);
  EXPECT_GT(Stormy.QuietWindowAborts, 0u);
  EXPECT_GT(Stormy.QuietWindowAborts, Calm.QuietWindowAborts);
  EXPECT_LT(Stormy.QuietEventsSuppressed, Calm.QuietEventsSuppressed);
}

TEST(ObsAnalysis, PassCountersAndTimersRegister) {
  // Every analysis pass folds its findings and wall time into the
  // registry: the CFG/verifier pair, points-to, the lint, and the
  // quiet-marking phase (with its indirect-mark count).
  obs::setStatsEnabled(true);
  obs::Registry &Reg = obs::Registry::get();
  uint64_t Blocks0 = Reg.counter("analysis.cfg_blocks").value();
  uint64_t Facts0 = Reg.counter("analysis.points_to_facts").value();
  uint64_t Warn0 = Reg.counter("analysis.lint_warnings").value();
  uint64_t Fail0 = Reg.counter("analysis.verifier_failures").value();
  uint64_t Indirect0 =
      Reg.counter("analysis.quiet_indirect_marked").value();

  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(R"(
    var shared;
    var a[8];
    fn worker(n) {
      shared = shared + a[2] + a[2] * n;
      return 0;
    }
    fn main() {
      var t = spawn worker(3);
      shared = 1;            // racy: written while the worker runs
      var r = join(t);
      return r;
    })",
                                               Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();
  optimizeProgram(*Prog);
  EXPECT_TRUE(analysis::verifyProgram(*Prog).ok());
  analysis::LintReport Lint = analysis::runLocksetLint(*Prog);
  EXPECT_FALSE(Lint.Warnings.empty());

  EXPECT_GT(Reg.counter("analysis.cfg_blocks").value(), Blocks0);
  EXPECT_GT(Reg.counter("analysis.points_to_facts").value(), Facts0);
  EXPECT_GT(Reg.counter("analysis.lint_warnings").value(), Warn0);
  EXPECT_EQ(Reg.counter("analysis.verifier_failures").value(), Fail0);
  EXPECT_GT(Reg.counter("analysis.quiet_indirect_marked").value(),
            Indirect0);
  // Pass timers accumulated real time.
  EXPECT_GT(Reg.counter("analysis.verify_ns").value(), 0u);
  EXPECT_GT(Reg.counter("analysis.points_to_ns").value(), 0u);
  EXPECT_GT(Reg.counter("analysis.lint_ns").value(), 0u);
  EXPECT_GT(Reg.counter("analysis.quiet_mark_ns").value(), 0u);

  // A corrupt program bumps the failure counter.
  Prog->Functions[0].Code[0] = {Op::Jump, 9999, 0};
  EXPECT_FALSE(analysis::verifyProgram(*Prog).ok());
  EXPECT_GT(Reg.counter("analysis.verifier_failures").value(), Fail0);
  obs::setStatsEnabled(false);
}

TEST(ObsAnalysis, RangeEscapeAndBoundsCountersExport) {
  // The value-range/escape layer publishes its own family: interval
  // facts, never-escaping frame arrays, lint warnings, and the
  // variable-index marks the covered-read certificate recovers — plus
  // wall-time for the range solve and the lint. All of them must also
  // survive both export formats.
  obs::setStatsEnabled(true);
  obs::Registry &Reg = obs::Registry::get();
  uint64_t RangeFacts0 = Reg.counter("analysis.range_facts").value();
  uint64_t Escape0 = Reg.counter("analysis.escape_objects").value();
  uint64_t Bounds0 = Reg.counter("analysis.bounds_warnings").value();
  uint64_t RangeMarked0 =
      Reg.counter("analysis.range_quiet_marked").value();

  // Fill loop covers every cell of a never-escaping frame array, so the
  // read loop's variable-index load earns a quiet mark.
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(R"(
    fn main() {
      var w[4];
      var i = 0;
      while (i < 4) {
        w[i] = i * 3;
        i = i + 1;
      }
      var total = 0;
      i = 0;
      while (i < 4) {
        total = total + w[i];
        i = i + 1;
      }
      return total;
    })",
                                               Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();
  (void)analysis::computeEscape(*Prog);
  optimizeProgram(*Prog);

  // A provably out-of-range store feeds the bounds-warning counter.
  std::optional<Program> Bad = compileProgram(R"(
    var a[4];
    fn main() {
      var i = rand(4) + 6;
      a[i] = 1;
      return 0;
    })",
                                              Diags);
  ASSERT_TRUE(Bad.has_value()) << Diags.render();
  analysis::BoundsReport Report = analysis::runBoundsLint(*Bad);
  EXPECT_EQ(Report.Warnings.size(), 1u);

  EXPECT_GT(Reg.counter("analysis.range_facts").value(), RangeFacts0);
  EXPECT_GT(Reg.counter("analysis.escape_objects").value(), Escape0);
  EXPECT_GT(Reg.counter("analysis.bounds_warnings").value(), Bounds0);
  EXPECT_GT(Reg.counter("analysis.range_quiet_marked").value(),
            RangeMarked0);
  EXPECT_GT(Reg.counter("analysis.range_ns").value(), 0u);
  EXPECT_GT(Reg.counter("analysis.bounds_lint_ns").value(), 0u);

  // Both exporters carry the family end-to-end.
  const std::string Json = Reg.renderJson();
  const std::string Csv = Reg.renderCsv();
  for (const char *Name :
       {"analysis.range_facts", "analysis.escape_objects",
        "analysis.bounds_warnings", "analysis.range_quiet_marked",
        "analysis.range_ns", "analysis.bounds_lint_ns"}) {
    EXPECT_NE(Json.find(formatString("\"%s\"", Name)), std::string::npos)
        << Name;
    EXPECT_NE(Csv.find(formatString("counter,%s,", Name)),
              std::string::npos)
        << Name;
  }
  obs::setStatsEnabled(false);
}

//===----------------------------------------------------------------------===//
// Stats heartbeat (--stats-interval)
//===----------------------------------------------------------------------===//

TEST(ObsHeartbeat, EmitsAtLeastTwoWellFormedSnapshots) {
  obs::setStatsEnabled(true);
  obs::Registry::get().reset();
  obs::Registry::get().counter("heartbeat.test").add(3);

  std::string Path = ::testing::TempDir() + "isprof_heartbeat.jsonl";
  std::remove(Path.c_str());
  {
    obs::StatsHeartbeat Hb;
    ASSERT_TRUE(Hb.start(Path, /*IntervalMs=*/5));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    Hb.stop();
    // start() writes an initial snapshot and stop() a final one, so
    // even a run too short for any interval tick yields two.
    EXPECT_GE(Hb.snapshots(), 2u);
    // stop() is idempotent.
    Hb.stop();
  }

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    ASSERT_FALSE(Line.empty());
    EXPECT_EQ(Line.front(), '{') << Line;
    EXPECT_EQ(Line.back(), '}') << Line;
    EXPECT_NE(Line.find("\"schema_version\": 1"), std::string::npos) << Line;
    EXPECT_NE(Line.find(formatString("\"seq\": %zu", Lines)),
              std::string::npos)
        << Line;
    EXPECT_NE(Line.find("\"ts_ns\": "), std::string::npos) << Line;
    EXPECT_NE(Line.find("\"heartbeat.test\": 3"), std::string::npos) << Line;
    ++Lines;
  }
  EXPECT_GE(Lines, 2u);
  std::remove(Path.c_str());
  obs::setStatsEnabled(false);
}

//===----------------------------------------------------------------------===//
// Collector metrics
//===----------------------------------------------------------------------===//

TEST(ObsCollector, IngestionPublishesMetrics) {
  obs::setStatsEnabled(true);
  obs::Registry &Reg = obs::Registry::get();
  Reg.reset();

  std::vector<std::string> Paths;
  for (int I = 0; I != 2; ++I) {
    SyntheticTraceOptions Gen;
    Gen.NumOperations = 2000;
    Gen.Seed = 7 + I;
    std::string Path = ::testing::TempDir() + "isprof_obs_collect_" +
                       std::to_string(I) + ".strm";
    TraceStreamWriter Writer;
    ASSERT_TRUE(Writer.open(Path, {}, {})) << Writer.error();
    for (const EventRecord &E : generateSyntheticTrace(Gen))
      Writer.append(E);
    ASSERT_TRUE(Writer.close()) << Writer.error();
    Paths.push_back(Path);
  }

  collect::FleetStore Store;
  collect::CollectorOptions Opts;
  Opts.Workers = 2;
  collect::Collector C(Opts, Store);
  EXPECT_EQ(C.ingestFiles(Paths), 2u);
  for (const std::string &P : Paths)
    std::remove(P.c_str());

  const collect::CollectorTotals &T = C.totals();
  EXPECT_EQ(T.Streams, 2u);
  EXPECT_GT(Store.routineCount(), 0u);

  std::map<std::string, uint64_t> Cv = Reg.counterValues();
  EXPECT_EQ(Cv.at("collector.streams"), T.Streams);
  EXPECT_EQ(Cv.at("collector.streams_failed"), 0u);
  EXPECT_EQ(Cv.at("collector.decode_errors"), 0u);
  EXPECT_EQ(Cv.at("collector.chunks_read"), T.ChunksRead);
  EXPECT_EQ(Cv.at("collector.chunks_skipped"), T.ChunksSkipped);
  EXPECT_EQ(Cv.at("collector.events"), T.Events);
  EXPECT_EQ(Cv.at("collector.merge_ns"), T.MergeNs);
  EXPECT_EQ(Reg.gauge("collector.store_routines").value(),
            Store.routineCount());

  // Both export formats surface the collector family.
  std::string Json = Reg.renderJson();
  std::string Csv = Reg.renderCsv();
  for (const char *Name :
       {"collector.streams", "collector.chunks_read",
        "collector.chunks_skipped", "collector.decode_errors",
        "collector.merge_ns", "collector.store_routines"}) {
    EXPECT_NE(Json.find(std::string("\"") + Name + "\""), std::string::npos)
        << Name;
    EXPECT_NE(Csv.find(Name), std::string::npos) << Name;
  }
  obs::setStatsEnabled(false);
}

TEST(ObsQuiet, NativeRunsKeepTalliesZero) {
  // With no dispatcher attached, nothing is emitted or suppressed.
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(QuietGuest, Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.render();
  optimizeProgram(*Prog);
  Machine M(*Prog, /*Events=*/nullptr);
  RunResult R = M.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Stats.QuietEventsSuppressed, 0u);
  EXPECT_EQ(R.Stats.QuietWindowAborts, 0u);
}

} // namespace
