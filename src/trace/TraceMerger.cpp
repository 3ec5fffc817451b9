//===- trace/TraceMerger.cpp - Timestamped trace merging --------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceMerger.h"

#include "support/Random.h"

#include <cassert>
#include <cstddef>

using namespace isp;

bool isp::verifyThreadTraces(
    const std::vector<std::vector<TimedEvent>> &ThreadTraces) {
  for (const auto &Trace : ThreadTraces) {
    if (Trace.empty())
      continue;
    ThreadId Tid = Trace.front().Record.Tid;
    uint64_t LastTime = 0;
    for (const TimedEvent &E : Trace) {
      if (E.Record.Tid != Tid)
        return false;
      if (E.Time < LastTime)
        return false;
      LastTime = E.Time;
    }
  }
  return true;
}

std::vector<EventRecord>
isp::mergeTraces(const std::vector<std::vector<TimedEvent>> &ThreadTraces,
                 const TraceMergeOptions &Options) {
  assert(verifyThreadTraces(ThreadTraces) &&
         "per-thread traces must be time-sorted and single-threaded");

  std::vector<size_t> Cursor(ThreadTraces.size(), 0);
  size_t Remaining = 0;
  for (const auto &Trace : ThreadTraces)
    Remaining += Trace.size();

  std::vector<EventRecord> Merged;
  Merged.reserve(Remaining);

  Rng TieRng(Options.Seed);
  size_t RoundRobinNext = 0;

  std::vector<size_t> Tied;
  while (Remaining != 0) {
    // Find the minimum next timestamp across all cursors, and the set of
    // input traces tied at that timestamp.
    uint64_t MinTime = UINT64_MAX;
    Tied.clear();
    for (size_t I = 0; I != ThreadTraces.size(); ++I) {
      if (Cursor[I] >= ThreadTraces[I].size())
        continue;
      uint64_t T = ThreadTraces[I][Cursor[I]].Time;
      if (T < MinTime) {
        MinTime = T;
        Tied.clear();
        Tied.push_back(I);
      } else if (T == MinTime) {
        Tied.push_back(I);
      }
    }
    assert(!Tied.empty() && "remaining events but no candidate");

    size_t Chosen = Tied.front();
    if (Tied.size() > 1) {
      switch (Options.Policy) {
      case TieBreakPolicy::ByThreadId:
        // Tied is already in input order; choose the lowest thread id.
        for (size_t I : Tied)
          if (ThreadTraces[I][Cursor[I]].Record.Tid <
              ThreadTraces[Chosen][Cursor[Chosen]].Record.Tid)
            Chosen = I;
        break;
      case TieBreakPolicy::RoundRobin: {
        // Pick the first tied trace at or after the rotation point.
        Chosen = Tied[RoundRobinNext % Tied.size()];
        ++RoundRobinNext;
        break;
      }
      case TieBreakPolicy::SeededRandom:
        Chosen = Tied[TieRng.nextBelow(Tied.size())];
        break;
      }
    }

    Merged.push_back(ThreadTraces[Chosen][Cursor[Chosen]].Record);
    ++Cursor[Chosen];
    --Remaining;
  }
  return Merged;
}
