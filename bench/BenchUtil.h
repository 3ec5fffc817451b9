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

#include <cstdio>
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
  /// native). EventsEmitted == EventsDelivered + AccessMerges + BbFolds,
  /// and the suppression tallies split the quiet-mark wins from the
  /// WindowInterrupted aborts — the same counters the obs registry
  /// aggregates, surfaced per-measurement here.
  uint64_t AccessMerges = 0;
  uint64_t BbFolds = 0;
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

/// Names of the workloads in a suite, in registry order.
std::vector<std::string> workloadsInSuite(const std::string &Suite);

/// Ensures ./bench_out exists and returns "bench_out/<Name>".
std::string benchOutputPath(const std::string &Name);

/// Prints a banner for a reproduced table/figure.
void printBanner(const std::string &Title);

/// Measures the event-pipeline hot path on a representative workload
/// under nulgrind (instrumentation-only baseline), aprof-rms, and
/// aprof-trms, and writes machine-readable per-config timings, event
/// counts, and events/sec to bench_out/BENCH_hotpath.json. Returns the
/// path written, or "" on failure.
std::string writeHotpathReport(unsigned Repeats = 5);

/// Writes the "interp_dispatch" object of BENCH_hotpath.json into \p F:
/// wall-clock interpreter rows for the full aprof-trms pipeline under
/// switch dispatch, threaded dispatch, and the block compiler (both
/// dispatch modes), each with seconds, slowdown vs native, emitted
/// events/sec, and speedup vs the switch baseline — the numbers the
/// hot-path-v2 acceptance gate (threaded+block >= 1.3x switch) and the
/// bench-smoke CI assert (threaded >= switch) read. Returns false
/// (after a diagnostic) on failure.
bool writeInterpDispatchSection(FILE *F, unsigned Repeats);

/// Writes the "quiet_indirect" object of BENCH_hotpath.json into \p F:
/// static quiet-mark counts from the alias-driven optimizer pass,
/// runtime suppression tallies, and the marked-vs-stripped event-count
/// and events/sec delta on the same optimized program. Returns false
/// (after printing a diagnostic) on failure.
bool writeQuietIndirectSection(FILE *F, unsigned Repeats);

/// Writes the "streaming" object of BENCH_hotpath.json into \p F:
/// records the same workload at a small and a >=10x-larger event count
/// through the chunked stream writer, reporting file bytes, the
/// writer's peak buffered bytes (which must stay flat — the
/// bounded-memory claim) against the in-memory recording vector's
/// growth, and replay events/sec for the streaming reader vs the
/// in-memory reader. Returns false (after a diagnostic) on failure.
bool writeStreamingSection(FILE *F, unsigned Repeats);

/// Writes the "collector" object of BENCH_hotpath.json into \p F:
/// records several chunked streams of one workload, then measures the
/// fleet collector's concurrent ingest throughput (streams/sec and
/// events/sec into one rollup store) and a routine-filtered pass over
/// the same streams, reporting the footer-bitmap chunk-skip ratio for
/// the rarest-active routine. Returns false (after a diagnostic) on
/// failure.
bool writeCollectorSection(FILE *F, unsigned Repeats);

} // namespace isp

#endif // ISPROF_BENCH_BENCHUTIL_H
