//===- trace/Synthetic.h - Random valid trace generation --------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random but structurally valid multithreaded execution traces
/// (balanced call/return nesting, per-thread start/end, shared and private
/// address pools, kernel I/O). These drive the property-based test suites
/// — most importantly the equivalence check between the O(1)-per-event
/// read/write timestamping profiler and the naive set-based oracle — and
/// the algorithmic ablation benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TRACE_SYNTHETIC_H
#define ISPROF_TRACE_SYNTHETIC_H

#include "trace/Event.h"
#include "trace/TraceMerger.h"

#include <vector>

namespace isp {

struct SyntheticTraceOptions {
  unsigned NumThreads = 4;
  unsigned NumRoutines = 8;
  /// Number of addresses in the pool shared by all threads.
  unsigned SharedAddresses = 64;
  /// Number of addresses private to each thread.
  unsigned PrivateAddresses = 32;
  /// Total number of operations to generate across all threads (memory
  /// accesses, calls, returns, kernel ops, basic blocks). A basic block
  /// adds to its thread's count, which rides on the thread's next Call,
  /// Return or ThreadEnd (trace/Event.h).
  uint64_t NumOperations = 10000;
  unsigned MaxCallDepth = 12;
  /// Operation mix (remaining probability mass goes to plain reads).
  double CallProbability = 0.08;
  double ReturnProbability = 0.08;
  double WriteProbability = 0.25;
  double KernelReadProbability = 0.02;
  double KernelWriteProbability = 0.02;
  double BasicBlockProbability = 0.20;
  /// Probability that a memory operation touches the shared pool.
  double SharedProbability = 0.5;
  uint64_t Seed = 1;
};

/// Generates one totally ordered multithreaded trace. Every thread begins
/// with ThreadStart + a root routine Call and ends with the matching
/// unwinding Returns and ThreadEnd; memory operations only occur inside
/// at least one activation.
std::vector<EventRecord> generateSyntheticTrace(const SyntheticTraceOptions &Opts);

/// Splits a merged trace into per-thread traces, suitable for feeding
/// back into mergeTraces(). Each record's time is its position in
/// \p Trace, so the times are unique and mergeTraces() reproduces the
/// trace under any tie-break policy.
std::vector<std::vector<TimedEvent>>
splitByThread(const std::vector<EventRecord> &Trace);

} // namespace isp

#endif // ISPROF_TRACE_SYNTHETIC_H
