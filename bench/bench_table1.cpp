//===- bench/bench_table1.cpp - Reproduces the paper's Table 1 -------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Table 1: time slowdown and space overhead of aprof-trms against
// nulgrind, memcheck, callgrind, helgrind, and aprof-rms on the twelve
// OMP2012-like benchmarks at four threads.
//
// Columns mirror the paper: native seconds, then per-tool slowdown
// factors (relative to native); native MB, then per-tool space
// overheads ((guest + tool) / guest). A geometric-mean summary row
// closes each half, as in the paper.
//
// Every cell is measured under both deliveries: serial, where the tool
// runs on the VM's thread as the paper's Valgrind tools run inline on
// the serialized guest, and pipelined, the default on a multi-core
// host, where it runs on a worker. The shape checks use serial; the
// pipelined table is the product's number. table1.csv carries both,
// with each run's process CPU seconds beside its wall time.
//
// Expected shape (the paper's findings, which hold here):
//   nulgrind < callgrind < memcheck ~ aprof-rms < aprof-trms < helgrind
// for time, and modest (single-digit) space factors with aprof-trms
// slightly above aprof-rms (the extra global wts shadow).
//
// Usage: bench_table1 [--threads=4] [--size=96] [--repeats=1]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "instr/Dispatcher.h"
#include "support/CommandLine.h"
#include "support/Csv.h"
#include "support/Format.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <cstdio>

using namespace isp;

int main(int Argc, char **Argv) {
  OptionParser Options("Reproduces Table 1: tool comparison on the "
                       "OMP2012-like benchmarks");
  Options.addOption("threads", "4", "OpenMP-style worker threads");
  Options.addOption("size", "256", "problem scale");
  Options.addOption("repeats", "3", "timing repetitions (keep fastest)");
  if (!Options.parse(Argc, Argv))
    return 1;

  WorkloadParams Params;
  Params.Threads = static_cast<unsigned>(Options.getInt("threads"));
  Params.Size = static_cast<uint64_t>(Options.getInt("size"));
  unsigned Repeats = static_cast<unsigned>(Options.getInt("repeats"));

  printBanner(formatString("Table 1: tool comparison, %u threads, scale "
                           "%llu",
                           Params.Threads,
                           static_cast<unsigned long long>(Params.Size)));

  /// A delivery and the dispatcher thread budget that selects it.
  struct Delivery {
    const char *Name;
    unsigned ThreadBudget;
    TextTable TimeTable;
    std::map<std::string, std::vector<double>> SlowdownSamples;
  };
  Delivery Deliveries[] = {
      {"serial", 1, {}, {}},
      {"pipelined", EventDispatcher::hardwareThreads(), {}, {}}};
  if (EventDispatcher::hardwareThreads() < 2)
    std::printf("note: one hardware thread, so pipelined runs deliver "
                "serially too\n");

  std::vector<std::string> Benchmarks = workloadsInSuite("omp2012");
  CsvWriter Csv;
  Csv.addRow({"benchmark", "delivery", "tool", "seconds", "cpu_seconds",
              "slowdown", "guest_bytes", "tool_bytes", "space_overhead"});

  TextTable SpaceTable;
  std::vector<std::string> TimeHeader = {"benchmark", "native(s)"};
  std::vector<std::string> SpaceHeader = {"benchmark", "native"};
  for (const std::string &ToolName : EvaluatedToolNames) {
    if (ToolName == "native")
      continue;
    TimeHeader.push_back(ToolName);
    SpaceHeader.push_back(ToolName);
  }
  for (Delivery &D : Deliveries)
    D.TimeTable.setHeader(TimeHeader);
  SpaceTable.setHeader(SpaceHeader);

  std::map<std::string, std::vector<double>> SpaceSamples;

  for (const std::string &Benchmark : Benchmarks) {
    const WorkloadInfo *W = findWorkload(Benchmark);
    for (Delivery &D : Deliveries) {
      // Space does not depend on delivery; it is taken from serial runs.
      bool TakeSpace = &D == &Deliveries[0];
      std::vector<std::string> TimeRow = {Benchmark};
      std::vector<std::string> SpaceRow = {Benchmark};
      double NativeSeconds = 0;
      uint64_t GuestBytes = 0;

      for (const std::string &ToolName : EvaluatedToolNames) {
        Measurement M = measureWorkload(*W, Params, ToolName, Repeats,
                                        MachineOptions(), D.ThreadBudget);
        if (!M.Ok) {
          std::fprintf(stderr, "%s under %s (%s) failed: %s\n",
                       Benchmark.c_str(), ToolName.c_str(), D.Name,
                       M.Error.c_str());
          return 1;
        }
        if (ToolName == "native") {
          NativeSeconds = M.Seconds;
          GuestBytes = M.GuestBytes;
          TimeRow.push_back(formatString("%.3f", NativeSeconds));
          SpaceRow.push_back(formatBytes(GuestBytes));
          Csv.addRow({Benchmark, D.Name, ToolName,
                      formatString("%.6f", M.Seconds),
                      formatString("%.6f", M.CpuSeconds), "1.0",
                      std::to_string(M.GuestBytes), "0", "1.0"});
          continue;
        }
        double Slowdown =
            NativeSeconds > 0 ? M.Seconds / NativeSeconds : 0.0;
        double SpaceOverhead =
            GuestBytes > 0
                ? static_cast<double>(M.GuestBytes + M.ToolBytes) /
                      static_cast<double>(GuestBytes)
                : 0.0;
        TimeRow.push_back(formatString("%.1f", Slowdown));
        SpaceRow.push_back(formatString("%.1f", SpaceOverhead));
        D.SlowdownSamples[ToolName].push_back(Slowdown);
        if (TakeSpace)
          SpaceSamples[ToolName].push_back(SpaceOverhead);
        Csv.addRow({Benchmark, D.Name, ToolName,
                    formatString("%.6f", M.Seconds),
                    formatString("%.6f", M.CpuSeconds),
                    formatString("%.3f", Slowdown),
                    std::to_string(M.GuestBytes),
                    std::to_string(M.ToolBytes),
                    formatString("%.3f", SpaceOverhead)});
      }
      D.TimeTable.addRow(TimeRow);
      if (TakeSpace)
        SpaceTable.addRow(SpaceRow);
    }
  }

  std::vector<std::string> SpaceMeanRow = {"geometric mean", ""};
  for (const std::string &ToolName : EvaluatedToolNames)
    if (ToolName != "native")
      SpaceMeanRow.push_back(
          formatString("%.1f", geometricMean(SpaceSamples[ToolName])));
  SpaceTable.addSeparator();
  SpaceTable.addRow(SpaceMeanRow);

  for (Delivery &D : Deliveries) {
    std::vector<std::string> TimeMeanRow = {"geometric mean", ""};
    for (const std::string &ToolName : EvaluatedToolNames)
      if (ToolName != "native")
        TimeMeanRow.push_back(formatString(
            "%.1f", geometricMean(D.SlowdownSamples[ToolName])));
    D.TimeTable.addSeparator();
    D.TimeTable.addRow(TimeMeanRow);
    std::printf("\nTime, %s delivery: slowdown vs native\n%s", D.Name,
                D.TimeTable.render().c_str());
  }
  std::printf("\nSpace: overhead vs native guest footprint\n%s",
              SpaceTable.render().c_str());

  std::printf("\nShape checks (paper: aprof-trms ~38%% over aprof-rms; "
              "helgrind slowest):\n");
  for (Delivery &D : Deliveries) {
    double TrmsMean = geometricMean(D.SlowdownSamples["aprof-trms"]);
    double RmsMean = geometricMean(D.SlowdownSamples["aprof-rms"]);
    double HelMean = geometricMean(D.SlowdownSamples["helgrind"]);
    std::printf("  %-9s aprof-trms / aprof-rms time ratio: %.2f\n", D.Name,
                RmsMean > 0 ? TrmsMean / RmsMean : 0.0);
    std::printf("  %-9s helgrind / aprof-trms time ratio:  %.2f\n", D.Name,
                TrmsMean > 0 ? HelMean / TrmsMean : 0.0);
  }

  std::string CsvPath = benchOutputPath("table1.csv");
  if (Csv.writeToFile(CsvPath))
    std::printf("\nraw data written to %s\n", CsvPath.c_str());
  return 0;
}
