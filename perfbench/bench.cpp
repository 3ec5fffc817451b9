//===- perfbench/bench.cpp - isprof end-to-end and per-layer benchmark ----===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// One closed-loop benchmark run of one workload:
//
//   isprof_bench --workload NAME --seed N --seconds S --trace 0|1
//                --work-dir DIR [--trace-file FILE]
//
// A repetition compiles the workload's guest, profiles it live under
// aprof-trms, records it to a chunked stream, replays the stream under
// aprof-trms, and collects the stream with and without a routine filter.
// Repetitions run back to back until S seconds have passed. With --trace 0
// the run reports the end-to-end metrics, each time scaled to a reference
// host speed by a host clock read between the stages (see HostClock and
// Bench::run). With --trace 1 it reports the per-layer split instead, from
// raw times: it subtracts four configurations of the live run (native ->
// discard sink -> nulgrind -> aprof-trms), times the record sink and a
// read-only chunk pass, records its own spans around every call into a
// layer (written to --trace-file as Chrome trace JSON), and reads the
// program's counters in one separate, untimed counting pass.
//
// Every output is checked: the aprof-trms profile against the Fig. 10
// naive oracle at a reduced size, replay against the live profile, the
// collector rollup against the live activations, Inequality 1, the
// compaction identity, and exact repetition of every count. The last
// stdout line is the JSON result; the line before it records the host.
//
//===----------------------------------------------------------------------===//

#include "SpanLog.h"

#include "collect/Collector.h"
#include "collect/FleetStore.h"
#include "core/NaiveProfiler.h"
#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "obs/Obs.h"
#include "tools/NulTool.h"
#include "trace/TraceStream.h"
#include "vm/Machine.h"
#include "workloads/Runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace isp;
using namespace isp::bench;

namespace {

//===--- Workloads ---------------------------------------------------------===//

struct GuestSpec {
  const char *Workload;
  unsigned Threads;
  uint64_t Size;
};

struct WorkloadSpec {
  const char *Name;
  GuestSpec Guest;
  /// Routine of the filtered collect.
  const char *FilterRoutine;
  /// Live guest size for the naive-oracle comparison.
  uint64_t OracleSize;
};

/// Sizes keep every stage near 50-150 ms, so that a run holds many
/// repetitions: on a shared host only a run with many samples reliably
/// contains undisturbed ones. At these sizes kdtree's analysis (L3) share
/// of the profile still exceeds dbserver's, and dbserver's interpretation
/// (L0) share still exceeds kdtree's.
const std::vector<WorkloadSpec> &workloadSpecs() {
  static const std::vector<WorkloadSpec> Specs = {
      {"live-kdtree", {"kdtree", 4, 512}, "tree_insert", 64},
      {"live-dbserver", {"dbserver", 4, 384}, "buf_flush_buffered_writes", 32},
  };
  return Specs;
}

/// Collector ingestion threads (the collector's own default would use
/// one per stream, and each workload collects one stream).
constexpr unsigned CollectWorkers = 1;

//===--- Small helpers -----------------------------------------------------===//

double secondsBetween(uint64_t StartNs, uint64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) * 1e-9;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double ratio(double Num, double Den) { return Den != 0.0 ? Num / Den : 0.0; }

/// FNV-1a over 64-bit words: a canonical fingerprint of a profile.
class Fingerprint {
public:
  void add(uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      Hash ^= (V >> (8 * I)) & 0xff;
      Hash *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return Hash; }

private:
  uint64_t Hash = 0xcbf29ce484222325ULL;
};

uint64_t profileFingerprint(const ProfileDatabase &Db) {
  Fingerprint F;
  for (const auto &[Key, P] : Db.threadRoutineProfiles()) {
    F.add(Key.Tid);
    F.add(Key.Rtn);
    F.add(P.activations());
    F.add(P.sumRms());
    F.add(P.sumTrms());
    F.add(P.inducedThread());
    F.add(P.inducedExternal());
    F.add(P.totalCost());
    for (const auto *Curve : {&P.costByTrms(), &P.costByRms()})
      for (const auto &[Size, C] : *Curve) {
        F.add(Size);
        F.add(C.Count);
        F.add(C.MinCost);
        F.add(C.MaxCost);
      }
  }
  F.add(Db.GlobalInducedThread);
  F.add(Db.GlobalInducedExternal);
  F.add(Db.GlobalPlainFirstAccesses);
  F.add(Db.GlobalReads);
  return F.value();
}

/// Inequality 1 on every per-thread routine profile.
bool trmsDominatesRms(const ProfileDatabase &Db) {
  for (const auto &[Key, P] : Db.threadRoutineProfiles())
    if (P.sumTrms() < P.sumRms())
      return false;
  return true;
}

/// Counts checks and failures. Every check is one attempted operation.
class Checker {
public:
  bool expect(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "isprof_bench: check failed: %s\n", What.c_str());
    }
    return Ok;
  }

  /// Count metrics must repeat exactly across repetitions of one seed.
  void expectRepeats(const std::string &Name, uint64_t Value) {
    auto [It, First] = FirstSeen.try_emplace(Name, Value);
    expect(First || It->second == Value,
           Name + " repeats (" + std::to_string(It->second) + " then " +
               std::to_string(Value) + ")");
  }

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, uint64_t> FirstSeen;
};

/// A record sink that drops every batch: the emit-only configuration.
class DiscardSink : public EventDispatcher::RecordSink {
public:
  void recordBatch(const Event *, size_t) override {}
};

/// Forwards batches to a stream writer, summing the time spent inside
/// recordBatch (traced runs only).
class TimedSink : public EventDispatcher::RecordSink {
public:
  explicit TimedSink(TraceStreamWriter &Writer) : Writer(Writer) {}
  void recordBatch(const Event *Words, size_t Count) override {
    uint64_t Start = steadyNs();
    Writer.recordBatch(Words, Count);
    Ns += steadyNs() - Start;
    ++Calls;
  }

  uint64_t Ns = 0;
  uint64_t Calls = 0;

private:
  TraceStreamWriter &Writer;
};

/// The speed of the shared host's memory system right now. It times a fixed
/// piece of work that calls nothing in the program: pseudo-random
/// read-modify-writes, behind an unpredictable branch, over a table that
/// fits the shared last-level cache but no core's private caches, as the
/// profiler's shadow memory and event buffers do. Other tenants of the host
/// contend for that cache and for memory bandwidth in phases of seconds to
/// minutes, and a phase can slow every stage of a run by up to 1.8x. The
/// stages slow down with this work (a stage's time and the readings next
/// to it correlated at 0.8-0.9), so the run divides each stage's time by
/// the mean of the readings taken just before and after it and reports it
/// at ReferenceSeconds per reading. The correction is approximate: the
/// stages and this work are not equally sensitive to every kind of
/// contention (a neighbour streaming through DRAM slowed the stages by 20%
/// and this work by 55%).
class HostClock {
public:
  /// The median reading of a quiet run on the host the benchmark was
  /// tuned on (a 4-vCPU Intel Xeon virtual machine at 2.0 GHz).
  static constexpr double ReferenceSeconds = 0.0015;

  /// Seconds the work takes now.
  double measure() {
    uint64_t Start = steadyNs();
    uint64_t X = State;
    for (unsigned I = 0; I != Steps; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      uint32_t &Cell = Table[X & (Words - 1)];
      if (Cell & 1)
        Cell += static_cast<uint32_t>(X >> 40);
      else
        Cell ^= static_cast<uint32_t>(X);
    }
    State = X;
    return secondsBetween(Start, steadyNs());
  }

private:
  static constexpr size_t Words = size_t(1) << 20;
  static constexpr unsigned Steps = 1u << 17;
  std::vector<uint32_t> Table = std::vector<uint32_t>(Words, 0);
  uint64_t State = 0x9e3779b97f4a7c15ULL;
};

//===--- Stage results -----------------------------------------------------===//

enum class LiveConfig { Native, Discard, Nulgrind, Trms };

const char *configName(LiveConfig C) {
  switch (C) {
  case LiveConfig::Native:
    return "native";
  case LiveConfig::Discard:
    return "discard";
  case LiveConfig::Nulgrind:
    return "nulgrind";
  case LiveConfig::Trms:
    return "aprof-trms";
  }
  return "?";
}

struct LiveResult {
  double Seconds = 0;
  RunStats Stats;
  uint64_t Enqueued = 0;
  uint64_t Delivered = 0;
  uint64_t Merges = 0;
  uint64_t Folds = 0;
  uint64_t Flushes = 0;
  uint64_t Activations = 0;
  uint64_t Footprint = 0;
  uint64_t Fingerprint = 0;
};

struct RecordResult {
  double Seconds = 0;
  double WriteSeconds = 0; ///< inside recordBatch + close (traced only)
  uint64_t Delivered = 0;
  uint64_t Bytes = 0;
  uint64_t Chunks = 0;
  uint64_t PeakBuffered = 0;
};

struct CollectResult {
  double Seconds = 0;
  collect::CollectorTotals Totals;
  uint64_t Activations = 0;
};

//===--- The benchmark -----------------------------------------------------===//

struct BenchOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;
  std::string TraceFile;
};

class Bench {
public:
  Bench(const WorkloadSpec &Spec, const BenchOptions &Opts)
      : Spec(Spec), Opts(Opts), Spans(Opts.Trace) {
    MachineOpts.Seed = Opts.Seed;
  }

  int run();

private:
  std::optional<Program> compileGuest(const GuestSpec &G, unsigned Rep);
  double compileLive(unsigned Rep);
  bool setUp();
  void checkOracle();

  LiveResult runLive(LiveConfig Config, unsigned Rep, bool Traced);
  RecordResult recordStream(unsigned Rep);
  bool replayStream(unsigned Rep, double &Seconds, uint64_t &Fingerprint);
  double readStream(unsigned Rep);
  CollectResult collectStream(bool Filtered, unsigned Rep);
  void countingPass();
  LiveResult runConfigurations(unsigned Rep);

  void repetition(unsigned Rep);
  void sample(const std::string &Name, double Value) {
    Samples[Name].push_back(Value);
  }
  /// Samples the seconds of back-to-back runs of one stage. An untraced
  /// run then reads the host clock and samples each time at the reference
  /// speed (see HostClock), from the mean of this reading and the one
  /// taken before the stage; it keeps the measured seconds as
  /// "raw.<Name>".
  void sampleTimes(const std::string &Name,
                   const std::vector<double> &Seconds) {
    if (Opts.Trace) {
      for (double S : Seconds)
        sample(Name, S);
      return;
    }
    double After = Host.measure();
    double Reading = (HostBefore + After) / 2;
    HostBefore = After;
    sample("host.clock_s", After);
    for (double S : Seconds) {
      sample("raw." + Name, S);
      sample(Name, S * HostClock::ReferenceSeconds / Reading);
    }
  }
  /// Samples the seconds \p Stage returns. In untraced runs a stage
  /// shorter than MinStageSeconds runs again, up to MaxStageRuns times
  /// in all, so a short stage's statistic rests on enough samples.
  template <typename StageFn>
  void timeStage(const std::string &Metric, StageFn &&Stage) {
    constexpr double MinStageSeconds = 0.05;
    constexpr unsigned MaxStageRuns = 16;
    std::vector<double> Seconds;
    double Total = 0;
    do {
      Seconds.push_back(Stage());
      Total += Seconds.back();
    } while (!Opts.Trace && Seconds.size() < MaxStageRuns &&
             Total < MinStageSeconds);
    sampleTimes(Metric, Seconds);
  }
  /// Fastest sample of \p Name (0 when none).
  double best(const std::string &Name) const;
  void deriveLayers();
  void printResult();

  const WorkloadSpec &Spec;
  BenchOptions Opts;
  MachineOptions MachineOpts;
  SpanLog Spans;
  /// Stand-in for runs that must not be traced.
  SpanLog NoSpans{false};
  Checker Check;
  HostClock Host;
  /// The host clock's reading before the stage being timed.
  double HostBefore = 0;

  std::optional<Program> LiveProg;
  std::string StreamFile;
  unsigned Repetitions = 0;

  /// Every sample of every repetition, by name.
  std::map<std::string, std::vector<double>> Samples;
  /// The reported metrics.
  std::map<std::string, double> Metrics;
};

std::optional<Program> Bench::compileGuest(const GuestSpec &G, unsigned Rep) {
  const WorkloadInfo *Info = findWorkload(G.Workload);
  if (!Check.expect(Info != nullptr,
                    std::string("guest '") + G.Workload + "' exists"))
    return std::nullopt;
  WorkloadParams Params;
  Params.Threads = G.Threads;
  Params.Size = G.Size;
  std::string Error;
  ScopedSpan S(Spans, "compileWorkload", Rep);
  std::optional<Program> Prog = compileWorkload(*Info, Params, &Error);
  Check.expect(Prog.has_value(), "compile " + std::string(G.Workload) + ": " +
                                     Error);
  return Prog;
}

/// Compiles and optimizes the guest and keeps the program; returns the
/// seconds taken.
double Bench::compileLive(unsigned Rep) {
  uint64_t Start = steadyNs();
  std::optional<Program> Prog = compileGuest(Spec.Guest, Rep);
  double Seconds = secondsBetween(Start, steadyNs());
  if (Prog)
    LiveProg = std::move(Prog);
  return Seconds;
}

/// Set-up: compiles the guest. The set-up metric is sampled here and
/// again in every repetition, so that its median does not rest on the
/// first, cold compile.
bool Bench::setUp() {
  sample("setup_s", compileLive(0));
  std::filesystem::create_directories(Opts.WorkDir);
  StreamFile = Opts.WorkDir + "/live.strm";
  return LiveProg.has_value();
}

/// The Fig. 10 naive oracle and aprof-trms must agree activation for
/// activation on the live guest at a reduced size.
void Bench::checkOracle() {
  GuestSpec Small = Spec.Guest;
  Small.Size = Spec.OracleSize;
  std::optional<Program> Prog = compileGuest(Small, 0);
  if (!Prog)
    return;
  TrmsProfilerOptions FastOpts;
  FastOpts.KeepActivationLog = true;
  TrmsProfiler Fast(FastOpts);
  NaiveProfilerOptions NaiveOpts;
  NaiveOpts.KeepActivationLog = true;
  NaiveTrmsProfiler Naive(NaiveOpts);
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Fast);
  Dispatcher.addTool(&Naive);
  Machine M(*Prog, &Dispatcher, MachineOpts);
  RunResult Run = M.run();
  const ProfileDatabase &A = Fast.database();
  const ProfileDatabase &B = Naive.database();
  Check.expect(Run.Ok, "oracle run: " + Run.Error);
  Check.expect(A.log().size() > 0 && A.log() == B.log(),
               "aprof-trms activations equal the naive oracle's");
  Check.expect(A.GlobalInducedThread == B.GlobalInducedThread &&
                   A.GlobalInducedExternal == B.GlobalInducedExternal &&
                   A.GlobalPlainFirstAccesses == B.GlobalPlainFirstAccesses &&
                   A.GlobalReads == B.GlobalReads,
               "aprof-trms global tallies equal the naive oracle's");
}

LiveResult Bench::runLive(LiveConfig Config, unsigned Rep, bool Traced) {
  LiveResult Out;
  DiscardSink Discard;
  NulTool Nul;
  TrmsProfiler Profiler;
  EventDispatcher Dispatcher;
  switch (Config) {
  case LiveConfig::Native:
    break;
  case LiveConfig::Discard:
    Dispatcher.setRecordSink(&Discard);
    break;
  case LiveConfig::Nulgrind:
    Dispatcher.addTool(&Nul);
    break;
  case LiveConfig::Trms:
    Dispatcher.addTool(&Profiler);
    break;
  }
  bool Native = Config == LiveConfig::Native;
  Machine M(*LiveProg, Native ? nullptr : &Dispatcher, MachineOpts);
  RunResult Run;
  {
    ScopedSpan S(Traced ? Spans : NoSpans,
                 std::string("Machine.run.") + configName(Config), Rep);
    uint64_t Start = steadyNs();
    Run = M.run();
    Out.Seconds = secondsBetween(Start, steadyNs());
  }
  std::string What = std::string(configName(Config)) + " run";
  Check.expect(Run.Ok, What + ": " + Run.Error);
  Out.Stats = Run.Stats;
  Out.Enqueued = Dispatcher.enqueuedEvents();
  Out.Delivered = Dispatcher.deliveredEvents();
  Out.Merges = Dispatcher.accessMerges();
  Out.Folds = Dispatcher.bbFolds();
  Out.Flushes = Dispatcher.totalFlushes();
  Check.expectRepeats(What + " instructions", Run.Stats.Instructions);
  if (!Native) {
    Check.expect(Out.Enqueued == Out.Delivered + Out.Merges + Out.Folds,
                 What + ": enqueued == delivered + merges + folds");
    Check.expectRepeats(What + " events enqueued", Out.Enqueued);
    Check.expectRepeats(What + " access merges", Out.Merges);
    Check.expectRepeats(What + " bb folds", Out.Folds);
  }
  if (Config == LiveConfig::Nulgrind)
    Check.expect(Nul.eventsSeen() == Out.Delivered,
                 "nulgrind saw every delivered event");
  if (Config == LiveConfig::Trms) {
    const ProfileDatabase &Db = Profiler.database();
    Out.Activations = Db.totalActivations();
    Out.Footprint = Profiler.memoryFootprintBytes();
    Out.Fingerprint = profileFingerprint(Db);
    Check.expect(trmsDominatesRms(Db), "live profile: trms >= rms");
    Check.expectRepeats("live profile fingerprint", Out.Fingerprint);
  }
  return Out;
}

/// Live run with a stream writer as the only consumer (no tool), through
/// close().
RecordResult Bench::recordStream(unsigned Rep) {
  RecordResult Out;
  TraceStreamWriter Writer;
  TimedSink Timed(Writer);
  EventDispatcher Dispatcher;
  Dispatcher.setRecordSink(Spans.enabled()
                               ? static_cast<EventDispatcher::RecordSink *>(
                                     &Timed)
                               : &Writer);
  RunResult Run;
  uint64_t Start = steadyNs();
  bool Opened = Writer.open(StreamFile, LiveProg->Symbols.entries());
  Check.expect(Opened, "open " + StreamFile + ": " + Writer.error());
  Machine M(*LiveProg, &Dispatcher, MachineOpts);
  {
    ScopedSpan S(Spans, "Machine.run.record", Rep);
    Run = M.run();
    Spans.addAggregate(S.id(), "RecordSink.recordBatch", Timed.Ns,
                       Timed.Calls);
  }
  uint64_t CloseStart = steadyNs();
  bool Closed = false;
  {
    ScopedSpan S(Spans, "TraceStreamWriter.close", Rep);
    Closed = Opened && Writer.close();
  }
  uint64_t End = steadyNs();
  Out.Seconds = secondsBetween(Start, End);
  Out.WriteSeconds =
      static_cast<double>(Timed.Ns) * 1e-9 + secondsBetween(CloseStart, End);
  Check.expect(Run.Ok, "record run: " + Run.Error);
  Check.expect(Closed, "close " + StreamFile + ": " + Writer.error());
  Out.Delivered = Dispatcher.deliveredEvents();
  Out.Bytes = Writer.bytesWritten();
  Out.Chunks = Writer.chunksWritten();
  Out.PeakBuffered = Writer.peakBufferedBytes();
  Check.expect(Dispatcher.enqueuedEvents() ==
                   Out.Delivered + Dispatcher.accessMerges() +
                       Dispatcher.bbFolds(),
               "record: enqueued == delivered + merges + folds");
  Check.expect(Writer.eventsWritten() == Out.Delivered,
               "record: every delivered event written");
  Check.expectRepeats("record bytes", Out.Bytes);
  Check.expectRepeats("record chunks", Out.Chunks);
  return Out;
}

bool Bench::replayStream(unsigned Rep, double &Seconds,
                         uint64_t &Fingerprint) {
  TrmsProfiler Profiler;
  TraceStreamReader Reader;
  uint64_t Start = steadyNs();
  bool Ok = Reader.open(StreamFile);
  if (Ok) {
    ScopedSpan S(Spans, "replayTraceStream", Rep);
    Ok = replayTraceStream(Reader, Profiler, &LiveProg->Symbols);
  }
  Seconds = secondsBetween(Start, steadyNs());
  Fingerprint = profileFingerprint(Profiler.database());
  return Check.expect(Ok, "replay: " + Reader.error());
}

/// A read-only pass over the stream: nextChunk with no consumer.
double Bench::readStream(unsigned Rep) {
  TraceStreamReader Reader;
  std::vector<Event> Chunk;
  size_t Chunks = 0;
  uint64_t Start = steadyNs();
  bool Opened = Reader.open(StreamFile);
  while (Opened) {
    ScopedSpan S(Spans, "TraceStreamReader.nextChunk", Rep);
    if (!Reader.nextChunk(Chunk))
      break;
    ++Chunks;
  }
  double Seconds = secondsBetween(Start, steadyNs());
  Check.expect(Opened && Reader.error().empty() &&
                   Chunks == Reader.chunkCount(),
               "read: " + Reader.error());
  return Seconds;
}

CollectResult Bench::collectStream(bool Filtered, unsigned Rep) {
  CollectResult Out;
  collect::FleetStore Store;
  collect::CollectorOptions CollectOpts;
  CollectOpts.Workers = CollectWorkers;
  if (Filtered)
    CollectOpts.RoutineFilter = {Spec.FilterRoutine};
  collect::Collector Collector(CollectOpts, Store);
  size_t Merged = 0;
  {
    ScopedSpan S(Spans,
                 Filtered ? "Collector.ingestFiles.filtered"
                          : "Collector.ingestFiles",
                 Rep);
    uint64_t Start = steadyNs();
    Merged = Collector.ingestFiles({StreamFile});
    Out.Seconds = secondsBetween(Start, steadyNs());
  }
  std::string What = Filtered ? "filtered collect" : "collect";
  Check.expect(Merged == 1 && Collector.errors().empty(),
               What + ": stream merged");
  Out.Totals = Collector.totals();
  Out.Activations = Store.totalActivations();
  bool Dominates = true;
  for (const auto &[Key, R] : Store.rollups())
    Dominates = Dominates && R.SumTrms >= R.SumRms;
  Check.expect(Dominates, What + ": trms >= rms in the rollup");
  Check.expectRepeats(What + " chunks read", Out.Totals.ChunksRead);
  Check.expectRepeats(What + " chunks skipped", Out.Totals.ChunksSkipped);
  Check.expectRepeats(What + " events", Out.Totals.Events);
  Check.expectRepeats(What + " activations", Out.Activations);
  return Out;
}

/// Untimed pass with the program's stats on: reads the shadow cache and
/// per-callback timer counters the timed runs must not switch on.
void Bench::countingPass() {
  obs::Registry::get().reset();
  obs::setStatsEnabled(true);
  TrmsProfiler Profiler;
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Profiler);
  Machine M(*LiveProg, &Dispatcher, MachineOpts);
  RunResult Run = M.run();
  obs::setStatsEnabled(false);
  Check.expect(Run.Ok, "counting run: " + Run.Error);
  std::map<std::string, uint64_t> C = obs::Registry::get().counterValues();
  double Hits = static_cast<double>(C["shadow.wts.cache_hits"]);
  double Misses = static_cast<double>(C["shadow.wts.cache_misses"]);
  Metrics["shadow.wts_miss_ratio"] = ratio(Misses, Hits + Misses);
  Metrics["trms.callback_timer_s"] =
      static_cast<double>(C["tool.aprof-trms.callback_ns"]) * 1e-9;
}

/// The traced run's live configurations: native -> discard sink ->
/// nulgrind -> aprof-trms, each adding one layer, plus an untraced twin of
/// the aprof-trms run (alternating which goes first) for the tracing
/// overhead. Returns the traced aprof-trms run.
LiveResult Bench::runConfigurations(unsigned Rep) {
  LiveResult Native = runLive(LiveConfig::Native, Rep, true);
  LiveResult Discard = runLive(LiveConfig::Discard, Rep, true);
  LiveResult Nul = runLive(LiveConfig::Nulgrind, Rep, true);
  LiveResult Profile, Untraced;
  if (Rep % 2) {
    Profile = runLive(LiveConfig::Trms, Rep, true);
    Untraced = runLive(LiveConfig::Trms, Rep, false);
  } else {
    Untraced = runLive(LiveConfig::Trms, Rep, false);
    Profile = runLive(LiveConfig::Trms, Rep, true);
  }
  Check.expect(Nul.Delivered == Profile.Delivered &&
                   Discard.Delivered == Profile.Delivered,
               "every configuration delivers the same events");
  sample("native_s", Native.Seconds);
  sample("discard_s", Discard.Seconds);
  sample("nulgrind_s", Nul.Seconds);
  sample("untraced_profile_s", Untraced.Seconds);
  sample("vm.instructions", static_cast<double>(Native.Stats.Instructions));
  sample("vm.quiet_suppressed",
         static_cast<double>(Profile.Stats.QuietEventsSuppressed));
  sample("instr.events_enqueued", static_cast<double>(Profile.Enqueued));
  sample("instr.access_merges", static_cast<double>(Profile.Merges));
  sample("instr.bb_folds", static_cast<double>(Profile.Folds));
  sample("instr.events_delivered", static_cast<double>(Profile.Delivered));
  sample("instr.flushes", static_cast<double>(Profile.Flushes));
  sample("trms.footprint_bytes", static_cast<double>(Profile.Footprint));
  return Profile;
}

void Bench::repetition(unsigned Rep) {
  if (!Opts.Trace)
    HostBefore = Host.measure();
  timeStage("setup_s", [&] { return compileLive(Rep); });

  LiveResult Profile = Opts.Trace ? runConfigurations(Rep)
                                  : runLive(LiveConfig::Trms, Rep, false);
  sampleTimes("profile_s", {Profile.Seconds});

  RecordResult Record = recordStream(Rep);
  Check.expect(Record.Delivered == Profile.Delivered,
               "record delivers the profiled events");
  sampleTimes("record_s", {Record.Seconds});
  sample("stream_bytes_per_event",
         ratio(static_cast<double>(Record.Bytes),
               static_cast<double>(Record.Delivered)));
  if (Opts.Trace)
    sample("trace.read_s", readStream(Rep));
  double ReplaySeconds = 0;
  uint64_t ReplayFingerprint = 0;
  if (replayStream(Rep, ReplaySeconds, ReplayFingerprint))
    Check.expect(ReplayFingerprint == Profile.Fingerprint,
                 "replayed profile equals the live profile");
  sampleTimes("replay_s", {ReplaySeconds});

  CollectResult Full = collectStream(false, Rep);
  Check.expect(Full.Activations == Profile.Activations,
               "collect rollup activations equal the live profile's");
  sampleTimes("collect_s", {Full.Seconds});
  CollectResult Filtered;
  timeStage(Opts.Trace ? "collect.filtered_s" : "collect_filtered_s", [&] {
    Filtered = collectStream(true, Rep);
    return Filtered.Seconds;
  });

  if (!Opts.Trace)
    return;
  sample("trace.write_s", Record.WriteSeconds);
  sample("trace.bytes_written", static_cast<double>(Record.Bytes));
  sample("trace.chunks", static_cast<double>(Record.Chunks));
  sample("trace.peak_buffered_bytes", static_cast<double>(Record.PeakBuffered));
  sample("collect.merge_s", static_cast<double>(Full.Totals.MergeNs) * 1e-9);
  sample("collect.events", static_cast<double>(Full.Totals.Events));
  sample("collect.chunks_read", static_cast<double>(Full.Totals.ChunksRead));
  sample("collect.chunks_skipped",
         static_cast<double>(Filtered.Totals.ChunksSkipped));
  sample("collect.skip_ratio",
         ratio(static_cast<double>(Filtered.Totals.ChunksSkipped),
               static_cast<double>(Filtered.Totals.ChunksRead +
                                   Filtered.Totals.ChunksSkipped)));
  sample("collect.workers", CollectWorkers);
  for (const auto &[Name, Self] : Spans.selfSecondsByName(Rep))
    sample("span." + Name + ".self_s", Self);
}

double Bench::best(const std::string &Name) const {
  auto It = Samples.find(Name);
  if (It == Samples.end() || It->second.empty())
    return 0.0;
  return *std::min_element(It->second.begin(), It->second.end());
}

/// The per-layer split from the fastest sample of each configuration:
/// each layer is the difference between the configurations that add it.
void Bench::deriveLayers() {
  double Native = best("native_s");
  double Discard = best("discard_s");
  double Nul = best("nulgrind_s");
  double Profile = best("profile_s");
  double Enqueued = best("instr.events_enqueued");
  double Delivered = best("instr.events_delivered");
  double Emit = Discard - Native;
  double Deliver = Nul - Discard;
  double Analyze = Profile - Nul;
  Metrics["vm.compile_s"] = median(Samples["setup_s"]);
  Metrics["vm.run_s"] = Native;
  Metrics["vm.ns_per_instr"] = ratio(Native * 1e9, best("vm.instructions"));
  Metrics["vm.run_share"] = ratio(Native, Profile);
  Metrics["instr.emit_s"] = Emit;
  Metrics["instr.merge_share"] =
      ratio(best("instr.access_merges"), Enqueued);
  Metrics["instr.compaction_ratio"] = ratio(Delivered, Enqueued);
  Metrics["instr.deliver_s"] = Deliver;
  Metrics["instr.deliver_ns_per_event"] = ratio(Deliver * 1e9, Delivered);
  Metrics["trms.analyze_s"] = Analyze;
  Metrics["trms.analyze_ns_per_event"] = ratio(Analyze * 1e9, Delivered);
  Metrics["trms.analyze_share"] = ratio(Analyze, Profile);
  Metrics["trms.deliver_plus_analyze_s"] = Deliver + Analyze;
  Metrics["trace.write_ns_per_event"] =
      ratio(best("trace.write_s") * 1e9, Delivered);
  Metrics["trace.read_ns_per_event"] =
      ratio(best("trace.read_s") * 1e9, Delivered);
  Metrics["replay.deliver_analyze_s"] =
      best("replay_s") - best("trace.read_s");
  Metrics["bench.trace_overhead_share"] =
      ratio(Profile - best("untraced_profile_s"), best("untraced_profile_s"));
}

int Bench::run() {
  if (!setUp())
    return 1;
  checkOracle();

  uint64_t Deadline =
      steadyNs() + static_cast<uint64_t>(Opts.Seconds * 1e9);
  do
    repetition(++Repetitions);
  while (steadyNs() < Deadline);

  // A traced timing is the fastest of its samples. An untraced one is the
  // median of its samples at the reference host speed: the share of a run
  // that other tenants disturb varies from run to run, so neither the raw
  // median nor the raw minimum repeated (across runs of one seed they
  // spread by 15-35% and, in slow phases, by up to 80%), while the median
  // of the scaled samples spread by 2-11%. Layer metrics have a dot in
  // their name; end-to-end metrics have none.
  for (const auto &[Name, Values] : Samples)
    if ((Name.find('.') != std::string::npos) == Opts.Trace)
      Metrics[Name] = Opts.Trace ? best(Name) : median(Values);
  if (Opts.Trace) {
    countingPass();
    deriveLayers();
    if (!Opts.TraceFile.empty())
      Check.expect(Spans.writeChromeTrace(Opts.TraceFile),
                   "write " + Opts.TraceFile);
    Metrics["failed_share"] = ratio(static_cast<double>(Check.failed()),
                                    static_cast<double>(Check.attempted()));
  } else {
    rusage Usage{};
    getrusage(RUSAGE_SELF, &Usage);
    Metrics["peak_rss_mb"] = static_cast<double>(Usage.ru_maxrss) / 1024.0;
  }
  std::error_code Ec;
  std::filesystem::remove_all(Opts.WorkDir, Ec);
  printResult();
  return 0;
}

/// Unit of a metric, from its name.
std::string unitOf(const std::string &Name) {
  auto EndsWith = [&](const char *Suffix) {
    std::string S(Suffix);
    return Name.size() >= S.size() &&
           Name.compare(Name.size() - S.size(), S.size(), S) == 0;
  };
  if (EndsWith("_s"))
    return "s";
  if (EndsWith("_ns_per_event"))
    return "ns/event";
  if (EndsWith("_per_instr"))
    return "ns/instr";
  if (EndsWith("_bytes") || EndsWith("bytes_written"))
    return "B";
  if (EndsWith("_per_event"))
    return "B/event";
  if (EndsWith("_mb"))
    return "MB";
  if (EndsWith("_share") || EndsWith("_ratio"))
    return "ratio";
  return "count";
}

void Bench::printResult() {
  double FailedShare = ratio(static_cast<double>(Check.failed()),
                             static_cast<double>(Check.attempted()));

  std::string Compiler =
#if defined(__clang__)
      "clang " __clang_version__;
#elif defined(__GNUC__)
      "gcc " __VERSION__;
#else
      "unknown";
#endif
  std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"hardware_concurrency\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"repetitions\": %u, "
              "\"failed_share\": %.17g, \"samples\": {",
              Spec.Name, Opts.Seed, std::thread::hardware_concurrency(),
              Compiler.c_str(), ISPROF_BENCH_BUILD_TYPE, Repetitions,
              FailedShare);
  // Every sample behind each metric, in repetition order.
  bool FirstSample = true;
  for (const auto &[Name, Values] : Samples) {
    std::printf("%s\"%s\": [", FirstSample ? "" : ", ", Name.c_str());
    for (size_t I = 0; I != Values.size(); ++I)
      std::printf("%s%.6g", I ? ", " : "", Values[I]);
    std::printf("]");
    FirstSample = false;
  }
  std::printf("}}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Check.failed() == 0 ? "true" : "false", Check.attempted(),
              Check.failed());
  bool First = true;
  for (const auto &[Name, Value] : Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), Value, unitOf(Name).c_str());
    First = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool parseArgs(int Argc, char **Argv, BenchOptions &Opts) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I];
    std::string Value = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload")
      Opts.Workload = Value;
    else if (Key == "--seed")
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
    else if (Key == "--seconds")
      Opts.Seconds = std::strtod(Value.c_str(), &End);
    else if (Key == "--trace")
      Opts.Trace = Value == "1";
    else if (Key == "--work-dir")
      Opts.WorkDir = Value;
    else if (Key == "--trace-file")
      Opts.TraceFile = Value;
    else
      return false;
    if (End && *End != '\0')
      return false;
  }
  return Argc % 2 == 1 && !Opts.Workload.empty() && !Opts.WorkDir.empty() &&
         Opts.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    std::fprintf(stderr,
                 "usage: isprof_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-file FILE]\n");
    return 2;
  }
  for (const WorkloadSpec &Spec : workloadSpecs())
    if (Opts.Workload == Spec.Name)
      return Bench(Spec, Opts).run();
  std::fprintf(stderr, "isprof_bench: unknown workload '%s'\n",
               Opts.Workload.c_str());
  return 2;
}
