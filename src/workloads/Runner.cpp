//===- workloads/Runner.cpp - Workload execution helpers -----------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "workloads/Runner.h"

#include "instr/Dispatcher.h"
#include "obs/Obs.h"
#include "vm/Compiler.h"
#include "vm/Diag.h"
#include "vm/Optimizer.h"

using namespace isp;

/// Phase-timer target: the named duration counter when stats collection
/// is on, null (a disarmed timer) otherwise.
static obs::Counter *phaseCounter(const char *Name) {
  return obs::statsEnabled() ? &obs::Registry::get().counter(Name) : nullptr;
}

std::optional<Program> isp::compileWorkload(const WorkloadInfo &Workload,
                                            const WorkloadParams &Params,
                                            std::string *ErrorOut) {
  DiagnosticEngine Diags;
  std::string Source;
  std::optional<Program> Prog;
  {
    obs::ScopedTimer Timer(phaseCounter("runner.compile_ns"));
    Source = Workload.MakeSource(Params);
    Prog = compileProgram(Source, Diags);
  }
  if (!Prog && ErrorOut)
    *ErrorOut = "workload '" + Workload.Name +
                "' failed to compile:\n" + Diags.render();
  // Match the driver: benchmarks run optimized bytecode. The optimizer
  // preserves the event stream, so tool measurements are unaffected
  // except through shorter interpreter time (which benefits native and
  // instrumented runs alike).
  if (Prog) {
    obs::ScopedTimer Timer(phaseCounter("runner.optimize_ns"));
    optimizeProgram(*Prog);
  }
  return Prog;
}

RunResult isp::runWorkloadNative(const WorkloadInfo &Workload,
                                 const WorkloadParams &Params,
                                 MachineOptions MachineOpts) {
  std::string Error;
  std::optional<Program> Prog = compileWorkload(Workload, Params, &Error);
  if (!Prog) {
    RunResult Result;
    Result.Error = Error;
    return Result;
  }
  Machine M(*Prog, /*Events=*/nullptr, MachineOpts);
  obs::ScopedTimer Timer(phaseCounter("runner.execute_ns"));
  return M.run();
}

ProfiledRun isp::profileWorkload(const WorkloadInfo &Workload,
                                 const WorkloadParams &Params,
                                 TrmsProfilerOptions ProfOpts,
                                 MachineOptions MachineOpts) {
  ProfiledRun Out;
  std::string Error;
  std::optional<Program> Prog = compileWorkload(Workload, Params, &Error);
  if (!Prog) {
    Out.Run.Error = Error;
    return Out;
  }
  TrmsProfiler Profiler(ProfOpts);
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Profiler);
  Machine M(*Prog, &Dispatcher, MachineOpts);
  {
    obs::ScopedTimer Timer(phaseCounter("runner.execute_ns"));
    Out.Run = M.run();
  }
  Out.Profile = Profiler.takeDatabase();
  Out.Symbols = Prog->Symbols;
  return Out;
}
