//===- bench/BenchUtil.cpp - Shared benchmark harness pieces --------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "instr/Dispatcher.h"
#include "tools/ToolRegistry.h"
#include "workloads/Runner.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <sys/stat.h>

using namespace isp;

const std::vector<std::string> isp::EvaluatedToolNames = {
    "native",   "nulgrind",  "memcheck", "callgrind",
    "helgrind", "aprof-rms", "aprof-trms"};

std::unique_ptr<Tool> isp::makeEvaluatedTool(const std::string &Name) {
  if (Name == "native")
    return nullptr;
  std::unique_ptr<Tool> T = makeTool(Name);
  if (!T)
    std::fprintf(stderr, "unknown tool '%s'\n", Name.c_str());
  return T;
}

/// CPU seconds this process has used, over all its threads.
static double processCpuSeconds() {
  timespec Ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + 1e-9 * static_cast<double>(Ts.tv_nsec);
}

Measurement isp::measureWorkload(const WorkloadInfo &Workload,
                                 const WorkloadParams &Params,
                                 const std::string &ToolName,
                                 unsigned Repeats, MachineOptions MachineOpts,
                                 unsigned ThreadBudget) {
  Measurement Out;
  std::string Error;
  std::optional<Program> Prog = compileWorkload(Workload, Params, &Error);
  if (!Prog) {
    Out.Error = Error;
    return Out;
  }

  Out.Seconds = 1e100;
  for (unsigned Rep = 0; Rep == 0 || Rep < Repeats; ++Rep) {
    std::unique_ptr<Tool> ToolPtr = makeEvaluatedTool(ToolName);
    EventDispatcher Dispatcher(ThreadBudget);
    if (ToolPtr)
      Dispatcher.addTool(ToolPtr.get());
    Machine M(*Prog, ToolPtr ? &Dispatcher : nullptr, MachineOpts);

    double CpuStart = processCpuSeconds();
    auto Start = std::chrono::steady_clock::now();
    RunResult R = M.run();
    auto End = std::chrono::steady_clock::now();
    double CpuSeconds = processCpuSeconds() - CpuStart;
    if (!R.Ok) {
      Out.Error = R.Error;
      return Out;
    }
    double Seconds = std::chrono::duration<double>(End - Start).count();
    if (Seconds < Out.Seconds) {
      Out.Seconds = Seconds;
      Out.CpuSeconds = CpuSeconds;
      Out.Stats = R.Stats;
      Out.GuestBytes = R.Stats.GuestMemoryBytes;
      Out.ToolBytes = ToolPtr ? ToolPtr->memoryFootprintBytes() : 0;
      Out.EventsEmitted = ToolPtr ? Dispatcher.enqueuedEvents() : 0;
      Out.EventsDelivered = ToolPtr ? Dispatcher.deliveredEvents() : 0;
      Out.AccessMerges = ToolPtr ? Dispatcher.accessMerges() : 0;
      Out.FlushesCapacity =
          ToolPtr ? Dispatcher.flushCount(EventDispatcher::FlushCause::Capacity)
                  : 0;
      Out.FlushesExplicit =
          ToolPtr ? Dispatcher.flushCount(EventDispatcher::FlushCause::Explicit)
                  : 0;
      Out.FlushesFinish =
          ToolPtr ? Dispatcher.flushCount(EventDispatcher::FlushCause::Finish)
                  : 0;
    }
    if (Rep + 1 >= Repeats) {
      // Keep the last repetition's profile for the aprof tools.
      if (ToolPtr && ToolPtr->profileDatabase())
        Out.Profile = std::move(*ToolPtr->profileDatabase());
      Out.Symbols = Prog->Symbols;
      break;
    }
  }
  Out.Ok = true;
  return Out;
}

void isp::walkWords(const std::vector<Event> &Words, Tool &T) {
  T.onStart(nullptr);
  T.handleBatch(Words.data(), Words.size());
  T.onFinish();
}

std::vector<std::string> isp::workloadsInSuite(const std::string &Suite) {
  std::vector<std::string> Names;
  for (const WorkloadInfo &W : allWorkloads())
    if (W.Suite == Suite)
      Names.push_back(W.Name);
  return Names;
}

std::string isp::benchOutputPath(const std::string &Name) {
  ::mkdir("bench_out", 0755);
  return "bench_out/" + Name;
}

void isp::printBanner(const std::string &Title) {
  std::string Rule(Title.size() + 4, '=');
  std::printf("\n%s\n= %s =\n%s\n", Rule.c_str(), Title.c_str(),
              Rule.c_str());
}
