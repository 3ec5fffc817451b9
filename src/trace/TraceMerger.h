//===- trace/TraceMerger.h - Timestamped trace merging ----------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Merges per-thread event traces into one totally ordered execution
/// trace, exactly as the paper's Section 4 prescribes: events are
/// interleaved by timestamp, and ties between threads are broken
/// arbitrarily (we expose deterministic and seeded-random tie-break
/// policies so tests can assert schedule-independence). A thread switch
/// is any two consecutive events of different threads; the merged trace
/// marks it with nothing else.
///
/// Events carry no time of their own (trace/Event.h): a per-thread trace
/// pairs each record with the time that orders it, and the merged trace
/// is the order itself.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TRACE_TRACEMERGER_H
#define ISPROF_TRACE_TRACEMERGER_H

#include "trace/Event.h"

#include <cstdint>
#include <vector>

namespace isp {

/// How the merger breaks timestamp ties between threads. Per the paper,
/// "ties are broken arbitrarily: no assumption can be done about which
/// operation will be processed first" — analyses must be correct for any
/// policy.
enum class TieBreakPolicy {
  ByThreadId,    ///< Deterministic: lowest thread id first.
  RoundRobin,    ///< Deterministic: rotate among tied threads.
  SeededRandom   ///< Randomized by an explicit seed (for property tests).
};

struct TraceMergeOptions {
  TieBreakPolicy Policy = TieBreakPolicy::ByThreadId;
  uint64_t Seed = 0;
};

/// One event of a per-thread trace and the time that orders it against
/// the other threads' events.
struct TimedEvent {
  uint64_t Time = 0;
  EventRecord Record;
};

/// Merges \p ThreadTraces (each sorted by time, each from a single
/// thread) into one totally ordered trace. Asserts in debug builds if a
/// per-thread trace is not time-sorted or mixes thread ids.
std::vector<EventRecord>
mergeTraces(const std::vector<std::vector<TimedEvent>> &ThreadTraces,
            const TraceMergeOptions &Options = TraceMergeOptions());

/// Verifies the per-thread invariants mergeTraces relies on; returns true
/// when every input trace is non-decreasing in time and single-threaded.
bool verifyThreadTraces(
    const std::vector<std::vector<TimedEvent>> &ThreadTraces);

} // namespace isp

#endif // ISPROF_TRACE_TRACEMERGER_H
