//===- obs/TraceLog.h - Chrome trace_event timeline -------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-profiling timeline of the instrumentation pipeline in the
/// Chrome trace_event JSON format, loadable in chrome://tracing and
/// Perfetto. One lane ("tid" in trace terms, all under pid 1) per guest
/// thread — spans are the scheduler slices that thread ran, named after
/// the function on top of its stack — plus dedicated lanes for the
/// dispatcher (flush spans, tagged with their cause) and for each
/// registered tool (per-flush callback spans). Under pipelined
/// delivery each dispatcher worker gets its own lane ("worker N") in
/// place of the dispatcher's, with the same spans: one per batch it
/// consumes, tagged with the batch's flush cause. Tool callback spans
/// are then emitted from the worker that owns the tool (the recorder
/// itself is mutex-protected, so lanes interleave safely).
///
/// Recording is gated on one global bool like stats collection; span
/// granularity is scheduler slices and batch flushes (hundreds of
/// events apiece), never individual events, so an enabled timeline
/// costs two clock reads per slice/flush, not per event.
///
/// Timestamps are obs::nowNs() nanoseconds, written as microseconds
/// (the format's unit) with 3 fractional digits.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_OBS_TRACELOG_H
#define ISPROF_OBS_TRACELOG_H

#include "obs/Obs.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace isp {
namespace obs {

/// A timeline lane ("tid" in the trace_event model). Guest threads use
/// their ThreadId verbatim; infrastructure lanes (dispatcher, tools,
/// driver) are allocated from FirstInfraLane upward so they can never
/// collide with guest ids.
using LaneId = uint32_t;

/// Global timeline switch, mirroring StatsEnabledFlag.
extern bool TracingEnabledFlag;
inline bool tracingEnabled() { return TracingEnabledFlag; }

class TraceLog {
public:
  static constexpr LaneId FirstInfraLane = 1u << 20;

  static TraceLog &get();

  /// Turns recording on (idempotent).
  void enable();
  /// Turns recording off and drops everything recorded.
  void reset();

  /// Allocates a fresh infrastructure lane named \p Name.
  LaneId allocLane(const std::string &Name);
  /// Names a lane (guest lanes are named on thread start).
  void setLaneName(LaneId Lane, const std::string &Name);

  /// Records a completed span ('X' phase). No-op when disabled.
  void completeSpan(LaneId Lane, const std::string &Name,
                    const char *Category, uint64_t StartNs, uint64_t EndNs);
  /// Records an instant event ('i' phase). No-op when disabled.
  void instant(LaneId Lane, const std::string &Name, const char *Category,
               uint64_t TsNs);
  /// Records a counter sample ('C' phase) on the process track.
  void counterSample(const std::string &Name, uint64_t Value, uint64_t TsNs);

  size_t eventCount() const;

  /// Renders the whole timeline as a trace_event JSON object.
  std::string renderJson() const;
  /// Writes renderJson() to \p Path. Returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  TraceLog() = default;

  struct Record {
    char Phase; // 'X', 'i', 'C'
    LaneId Lane = 0;
    uint64_t TsNs = 0;
    uint64_t DurNs = 0; // 'X' only
    uint64_t Value = 0; // 'C' only
    std::string Name;
    const char *Category = "";
  };

  mutable std::mutex Mutex;
  std::vector<Record> Records;
  std::vector<std::pair<LaneId, std::string>> LaneNames;
  LaneId NextInfraLane = FirstInfraLane;
};

/// Records a span around a scope. Arms only if tracing was enabled at
/// construction, so a disabled scope costs one bool test.
class ScopedSpan {
public:
  ScopedSpan(LaneId Lane, std::string Name, const char *Category)
      : Active(tracingEnabled()), Lane(Lane), Name(std::move(Name)),
        Category(Category), StartNs(Active ? nowNs() : 0) {}
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  ~ScopedSpan() {
    if (Active)
      TraceLog::get().completeSpan(Lane, Name, Category, StartNs, nowNs());
  }

private:
  bool Active;
  LaneId Lane;
  std::string Name;
  const char *Category;
  uint64_t StartNs;
};

} // namespace obs
} // namespace isp

#endif // ISPROF_OBS_TRACELOG_H
