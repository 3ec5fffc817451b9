//===- bench/BenchUtil.h - Shared benchmark harness pieces ------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the table/figure reproduction harnesses: the
/// evaluated-tool registry (native baseline, nulgrind, memcheck,
/// callgrind, helgrind, aprof-rms, aprof-trms — the paper's Table 1
/// line-up), wall-clock measurement of a workload under a tool, and
/// small output helpers.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_BENCH_BENCHUTIL_H
#define ISPROF_BENCH_BENCHUTIL_H

#include "core/ProfileData.h"
#include "instr/Tool.h"
#include "vm/Machine.h"
#include "workloads/Workload.h"

#include <memory>
#include <string>
#include <vector>

namespace isp {

/// The evaluated tools, in the paper's Table 1 column order. Native is
/// the uninstrumented VM run every slowdown is relative to.
extern const std::vector<std::string> EvaluatedToolNames;

/// Creates a fresh tool by name; null for "native".
std::unique_ptr<Tool> makeEvaluatedTool(const std::string &Name);

/// One measured workload-under-tool execution.
struct Measurement {
  bool Ok = false;
  std::string Error;
  double Seconds = 0;
  /// Analysis-state footprint (0 for native/nulgrind).
  uint64_t ToolBytes = 0;
  /// Guest program footprint (globals + heap + touched stacks).
  uint64_t GuestBytes = 0;
  /// Substrate events emitted into the dispatcher (pre-compaction) and
  /// delivered to the tool (post-compaction) during the kept run; both
  /// 0 for native, where no dispatcher is attached.
  uint64_t EventsEmitted = 0;
  uint64_t EventsDelivered = 0;
  /// Pipeline observability breakdown of the kept run (all 0 for
  /// native). EventsEmitted == EventsDelivered + AccessMerges,
  /// and the suppression tallies split the quiet-mark wins from the
  /// WindowInterrupted aborts — the same counters the obs registry
  /// aggregates, surfaced per-measurement here.
  uint64_t AccessMerges = 0;
  uint64_t FlushesCapacity = 0;
  uint64_t FlushesExplicit = 0;
  uint64_t FlushesFinish = 0;
  RunStats Stats;
  /// Populated only for the aprof tools.
  ProfileDatabase Profile;
  SymbolTable Symbols;
};

/// Compiles and runs \p Workload at \p Params under \p ToolName,
/// measuring wall-clock time and footprints. \p Repeats re-runs and
/// keeps the fastest time (variance control on a shared machine).
Measurement measureWorkload(const WorkloadInfo &Workload,
                            const WorkloadParams &Params,
                            const std::string &ToolName,
                            unsigned Repeats = 1,
                            MachineOptions MachineOpts = MachineOptions());

/// Hands \p Words to \p T as one batch, bracketed by onStart/onFinish:
/// the profiler microbenchmarks time a tool's walk on a trace encoded
/// once, outside the timing.
void walkWords(const std::vector<Event> &Words, Tool &T);

/// Names of the workloads in a suite, in registry order.
std::vector<std::string> workloadsInSuite(const std::string &Suite);

/// Ensures ./bench_out exists and returns "bench_out/<Name>".
std::string benchOutputPath(const std::string &Name);

/// Prints a banner for a reproduced table/figure.
void printBanner(const std::string &Title);

} // namespace isp

#endif // ISPROF_BENCH_BENCHUTIL_H
