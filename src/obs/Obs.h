//===- obs/Obs.h - Runtime metrics registry ---------------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Self-observability for the event pipeline: a process-wide registry of
/// monotonic counters, gauges, and fixed-bucket power-of-two histograms,
/// plus scoped wall-clock timers and JSON/CSV exporters.
///
/// Design constraints, in order:
///
///  1. **Near-zero cost when disabled.** Collection is gated on one
///     global bool (`statsEnabled()`); every instrumentation site is a
///     predicted-not-taken branch via the ISP_STATS macro, and a
///     disabled process never interns a metric name or allocates a
///     metric slot (tested). The pipeline's highest-frequency counters
///     (dispatcher merge counts, machine access tallies) stay plain
///     per-object integers that are *folded* into the registry at
///     publish points, so the interpreter loop never pays even the
///     branch.
///  2. **Honest under the serialized scheduler.** Guest threads are
///     serialized, but pipelined delivery bumps tool-side counters
///     from dispatcher worker threads; all registry metrics are
///     therefore relaxed atomics — unsynchronized visibility is
///     acceptable for statistics, torn counts are not. Per-tool tallies
///     (events delivered, callback time) stay plain integers because a
///     tool is owned by exactly one consumer thread; the dispatcher
///     folds them into the registry after the finish() join.
///  3. **Stable exports.** Metric maps are name-sorted, so JSON/CSV
///     dumps are deterministic and diffable (the golden-file tests rely
///     on this).
///
/// Naming convention: "<stage>.<metric>" with '.'-separated lowercase
/// segments — "machine.instructions", "dispatcher.access_merges",
/// "shadow.wts.cache_hits", "tool.aprof-trms.callback_ns". Durations are
/// counters in nanoseconds with an "_ns" suffix; sizes are gauges in
/// bytes with a "_bytes" suffix. Pipelined delivery publishes under
/// "dispatcher.parallel.*": the worker count, the
/// blocked-on-backpressure counter ("backpressure_blocks" plus the
/// nanoseconds spent blocked), and the peak batch-queue depth.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_OBS_OBS_H
#define ISPROF_OBS_OBS_H

#include "support/Compiler.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace isp {
namespace obs {

/// Version stamp of every JSON stats export (renderJson and the
/// heartbeat's renderJsonLine). Bump it whenever the export shape
/// changes; fleet scrapers gate on the field.
inline constexpr unsigned StatsSchemaVersion = 1;

/// Global stats-collection switch. Off by default; the driver's --stats
/// flag and the ISP_STATS=1 environment variable turn it on. Read
/// through statsEnabled() — a single non-atomic bool load. (The flag is
/// flipped only during single-threaded setup, never mid-run.)
extern bool StatsEnabledFlag;
inline bool statsEnabled() { return StatsEnabledFlag; }
void setStatsEnabled(bool Enabled);

/// Runs \p ... only when stats collection is on. The guard is the whole
/// cost of a disabled instrumentation site.
#define ISP_STATS(...)                                                        \
  do {                                                                        \
    if (ISP_UNLIKELY(::isp::obs::statsEnabled())) {                           \
      __VA_ARGS__;                                                            \
    }                                                                         \
  } while (0)

/// Nanoseconds of steady-clock time since the first call in this
/// process. All obs timestamps (timers, trace spans) share this anchor.
uint64_t nowNs();

/// A monotonic counter.
class Counter {
public:
  void add(uint64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// A last-value / high-water-mark cell.
class Gauge {
public:
  void set(uint64_t V) { Value.store(V, std::memory_order_relaxed); }
  /// Raises the gauge to \p V if larger (peak tracking).
  void noteMax(uint64_t V) {
    uint64_t Cur = Value.load(std::memory_order_relaxed);
    while (V > Cur &&
           !Value.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// A fixed-bucket histogram over uint64 samples. Buckets are powers of
/// two: bucket 0 holds zeros, bucket i (i >= 1) holds values in
/// [2^(i-1), 2^i). 33 buckets cover [0, 2^32); larger samples land in
/// the last bucket. Fixed storage means record() never allocates — safe
/// on hot paths and in the disabled->enabled transition.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 33;

  void record(uint64_t V) {
    Buckets[bucketIndex(V)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
    uint64_t Cur = Max.load(std::memory_order_relaxed);
    while (V > Cur &&
           !Max.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t N = count();
    return N ? static_cast<double>(sum()) / static_cast<double>(N) : 0.0;
  }
  uint64_t bucketCount(unsigned I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }
  /// Smallest sample value that lands in bucket \p I.
  static uint64_t bucketLowerBound(unsigned I) {
    return I == 0 ? 0 : uint64_t(1) << (I - 1);
  }
  static unsigned bucketIndex(uint64_t V) {
    unsigned Bits = 0;
    while (V != 0) {
      ++Bits;
      V >>= 1;
    }
    return Bits < NumBuckets ? Bits : NumBuckets - 1;
  }

  void reset() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    Count.store(0, std::memory_order_relaxed);
    Sum.store(0, std::memory_order_relaxed);
    Max.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Max{0};
};

/// The process-wide metric registry. Lookup interns the name under a
/// mutex (cold — instrumentation sites cache the reference or run at
/// publish points); the returned references stay valid for the process
/// lifetime, including across reset().
class Registry {
public:
  static Registry &get();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Zeroes every registered metric (bench repetitions, tests). Names
  /// stay registered; references stay valid.
  void reset();

  /// All counters by name (snapshot; used by the bench harnesses).
  std::map<std::string, uint64_t> counterValues() const;
  /// True when nothing has ever been registered (disabled-mode test).
  bool empty() const;

  /// Renders every metric as a stable, name-sorted JSON object:
  /// {"schema_version":N,"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,max,mean,buckets:[[lower,count],
  /// ...]}}}. schema_version is bumped whenever the export shape
  /// changes, so fleet scrapers can gate on it.
  std::string renderJson() const;
  /// Renders every metric as "kind,name,value" CSV rows (histograms are
  /// flattened into .count/.sum/.max rows).
  std::string renderCsv() const;
  /// One compact single-line JSON snapshot (JSONL) carrying
  /// schema_version, \p Seq, a steady-clock timestamp, and every
  /// counter/gauge plus histogram count/sum/max — the heartbeat record
  /// long-lived runs append per --stats-interval tick.
  std::string renderJsonLine(uint64_t Seq) const;

private:
  Registry();

  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// Export format for writeStatsFile.
enum class StatsFormat { Json, Csv };

/// Writes the registry to \p Path ("" or "-" mean stdout). Returns false
/// when the file cannot be opened.
bool writeStatsFile(const std::string &Path, StatsFormat Format);

/// Accumulates elapsed wall-clock nanoseconds into a counter and/or a
/// histogram on destruction. Pass null for a disabled site — the timer
/// then never reads the clock.
class ScopedTimer {
public:
  explicit ScopedTimer(Counter *NsTotal, Histogram *NsHist = nullptr)
      : NsTotal(NsTotal), NsHist(NsHist),
        StartNs(NsTotal || NsHist ? nowNs() : 0) {}
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;
  ~ScopedTimer() { stop(); }

  /// Records once and disarms; returns the elapsed nanoseconds.
  uint64_t stop() {
    if (!NsTotal && !NsHist)
      return 0;
    uint64_t Elapsed = nowNs() - StartNs;
    if (NsTotal)
      NsTotal->add(Elapsed);
    if (NsHist)
      NsHist->record(Elapsed);
    NsTotal = nullptr;
    NsHist = nullptr;
    return Elapsed;
  }

private:
  Counter *NsTotal;
  Histogram *NsHist;
  uint64_t StartNs;
};

/// Periodic live-stats emitter for always-on runs (--stats-interval).
/// A background thread appends one renderJsonLine snapshot to the
/// target file per interval; start() writes an initial snapshot and
/// stop() a final one, so every run produces at least two. The file is
/// JSONL: one self-contained JSON object per line, each carrying
/// schema_version and a monotonically increasing seq.
class StatsHeartbeat {
public:
  StatsHeartbeat() = default;
  StatsHeartbeat(const StatsHeartbeat &) = delete;
  StatsHeartbeat &operator=(const StatsHeartbeat &) = delete;
  ~StatsHeartbeat() { stop(); }

  /// Opens \p Path for appending and starts the emitter thread. Returns
  /// false (without starting) when the file cannot be opened.
  bool start(const std::string &Path, unsigned IntervalMs);
  /// Appends the final snapshot, joins the thread, closes the file.
  /// Idempotent.
  void stop();

  /// Snapshots appended so far.
  uint64_t snapshots() const { return Seq; }

private:
  void run(unsigned IntervalMs);
  void emitSnapshot();

  std::thread Thread;
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Stopping = false;
  FILE *File = nullptr;
  uint64_t Seq = 0;
};

} // namespace obs
} // namespace isp

#endif // ISPROF_OBS_OBS_H
