//===- examples/trace_record_replay.cpp - Offline profiling ---------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Record once, analyze many times: runs a workload while streaming its
// event trace to a chunked stream file, then replays the file offline
// under several independent analyses (aprof-trms, aprof-rms, the race
// detector) and verifies the offline trms profile matches the live one.
// This decoupling is what the trace model of Section 4 buys.
//
// Usage: ./build/examples/trace_record_replay [--workload=dedup]
//                                             [--out=/tmp/isprof.strm]
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "core/RmsProfiler.h"
#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "tools/HelgrindTool.h"
#include "trace/TraceStream.h"
#include "vm/Machine.h"
#include "workloads/Runner.h"

#include <cstdio>

using namespace isp;

int main(int Argc, char **Argv) {
  OptionParser Options("Records a workload trace to disk, then profiles "
                       "it offline");
  Options.addOption("workload", "dedup", "workload name (see registry)");
  Options.addOption("threads", "4", "worker threads");
  Options.addOption("size", "48", "workload scale");
  Options.addOption("out", "/tmp/isprof_example.strm", "stream file path");
  if (!Options.parse(Argc, Argv))
    return 1;

  const WorkloadInfo *W = findWorkload(Options.getString("workload"));
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'; known:\n",
                 Options.getString("workload").c_str());
    for (const WorkloadInfo &Info : allWorkloads())
      std::fprintf(stderr, "  %-18s (%s) %s\n", Info.Name.c_str(),
                   Info.Suite.c_str(), Info.Description.c_str());
    return 1;
  }
  WorkloadParams Params;
  Params.Threads = static_cast<unsigned>(Options.getInt("threads"));
  Params.Size = static_cast<uint64_t>(Options.getInt("size"));

  // --- Record (with a live profiler attached for the cross-check). ---
  std::string CompileError;
  std::optional<Program> Prog = compileWorkload(*W, Params, &CompileError);
  if (!Prog) {
    std::fprintf(stderr, "%s\n", CompileError.c_str());
    return 1;
  }
  TrmsProfilerOptions ProfOpts;
  ProfOpts.KeepActivationLog = true;
  TrmsProfiler Live(ProfOpts);
  std::string Path = Options.getString("out");
  TraceStreamWriter Writer;
  if (!Writer.open(Path, Prog->Symbols.entries())) {
    std::fprintf(stderr, "%s\n", Writer.error().c_str());
    return 1;
  }
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Live);
  Dispatcher.setRecordSink(&Writer);
  Machine M(*Prog, &Dispatcher);
  RunResult Run = M.run();
  if (!Run.Ok) {
    std::fprintf(stderr, "guest failed: %s\n", Run.Error.c_str());
    return 1;
  }
  if (!Writer.close()) {
    std::fprintf(stderr, "%s\n", Writer.error().c_str());
    return 1;
  }
  std::printf("recorded %llu events from '%s' to %s (%s)\n\n",
              static_cast<unsigned long long>(Writer.eventsWritten()),
              W->Name.c_str(), Path.c_str(),
              formatBytes(Writer.bytesWritten()).c_str());

  // --- Replay offline under three analyses, one chunk at a time. ---
  TraceStreamReader Reader;
  if (!Reader.open(Path)) {
    std::fprintf(stderr, "cannot read back %s: %s\n", Path.c_str(),
                 Reader.error().c_str());
    return 1;
  }
  SymbolTable Symbols;
  for (const std::string &Name : Reader.routines())
    Symbols.intern(Name);

  TrmsProfiler Offline(ProfOpts);
  RmsProfiler Rms;
  HelgrindTool Races;
  for (Tool *T : std::initializer_list<Tool *>{&Offline, &Rms, &Races})
    if (!replayTraceStream(Reader, *T, &Symbols)) {
      std::fprintf(stderr, "cannot replay %s: %s\n", Path.c_str(),
                   Reader.error().c_str());
      return 1;
    }
  bool Identical = Offline.database().log() == Live.database().log();
  std::printf("offline trms profile %s the live profile (%llu "
              "activations)\n",
              Identical ? "matches" : "DIFFERS FROM",
              static_cast<unsigned long long>(
                  Offline.database().totalActivations()));

  std::printf("offline aprof-rms saw %llu activations; helgrind reports "
              "%llu race(s)\n\n",
              static_cast<unsigned long long>(
                  Rms.database().totalActivations()),
              static_cast<unsigned long long>(Races.racesDetected()));

  std::printf("%s", renderRunSummary(Offline.database(), &Symbols).c_str());
  return Identical ? 0 : 1;
}
