//===- workloads/Runner.h - Workload execution helpers ----------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience helpers shared by tests, examples, and benchmark
/// harnesses: compile a workload, run it natively, or run it under the
/// trms profiler and hand back the profile with symbol names.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_WORKLOADS_RUNNER_H
#define ISPROF_WORKLOADS_RUNNER_H

#include "core/ProfileData.h"
#include "core/TrmsProfiler.h"
#include "instr/SymbolTable.h"
#include "vm/Machine.h"
#include "workloads/Workload.h"

#include <optional>
#include <string>

namespace isp {

/// Compiles \p Workload at \p Params; reports diagnostics on failure.
std::optional<Program> compileWorkload(const WorkloadInfo &Workload,
                                       const WorkloadParams &Params,
                                       std::string *ErrorOut = nullptr);

/// The result of one profiled workload run.
struct ProfiledRun {
  RunResult Run;
  ProfileDatabase Profile;
  SymbolTable Symbols;
};

/// Runs \p Workload natively (no instrumentation).
RunResult runWorkloadNative(const WorkloadInfo &Workload,
                            const WorkloadParams &Params,
                            MachineOptions MachineOpts = MachineOptions());

/// Runs \p Workload under aprof-trms and returns profile + symbols.
ProfiledRun
profileWorkload(const WorkloadInfo &Workload, const WorkloadParams &Params,
                TrmsProfilerOptions ProfOpts = TrmsProfilerOptions(),
                MachineOptions MachineOpts = MachineOptions());

} // namespace isp

#endif // ISPROF_WORKLOADS_RUNNER_H
