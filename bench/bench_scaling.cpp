//===- bench/bench_scaling.cpp - Reproduces the paper's Figure 14 ----------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Figure 14: average (a) time and (b) space overhead, relative to
// nulgrind, as a function of the number of spawned worker threads
// (1, 2, 4, 8, 16), over a set of OMP2012-like benchmarks.
//
// Expected shape: all tools scale smoothly with thread count; memcheck
// and callgrind space is ~flat (thread-independent analyses) while
// aprof-trms and helgrind grow modestly (per-thread shadow state whose
// total stays sublinear because threads partition the touched memory —
// the paper's three-level-table argument).
//
// Every cell is measured under both deliveries, each against its own
// nulgrind baseline: serial, where the tool runs on the VM's thread as
// the paper's inline tools do, and pipelined, the default on a
// multi-core host. Each gets a time table; space does not depend on
// delivery and is tabled from the serial runs. figure14.csv carries
// both, with a delivery column and the process CPU time ratio beside
// the wall-clock one.
//
// Usage: bench_scaling [--size=72] [--benchmarks=md,ilbdc,fma3d,smithwa]
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

static std::vector<std::string> splitList(const std::string &Csv) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= Csv.size()) {
    size_t Comma = Csv.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Csv.size();
    if (Comma > Pos)
      Out.push_back(Csv.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

int main(int Argc, char **Argv) {
  OptionParser Options("Reproduces Figure 14: overhead vs thread count");
  Options.addOption("size", "72", "problem scale");
  Options.addOption("benchmarks", "md,ilbdc,fma3d,smithwa",
                    "comma-separated workload names");
  if (!Options.parse(Argc, Argv))
    return 1;

  std::vector<std::string> Benchmarks =
      splitList(Options.getString("benchmarks"));
  const unsigned ThreadCounts[] = {1, 2, 4, 8, 16};

  printBanner("Figure 14: overhead vs number of threads (relative to "
              "nulgrind)");

  /// A delivery and the dispatcher thread budget that selects it.
  struct Delivery {
    const char *Name;
    unsigned ThreadBudget;
    TextTable TimeTable;
  };
  Delivery Deliveries[] = {
      {"serial", 1, {}},
      {"pipelined", EventDispatcher::hardwareThreads(), {}}};
  if (EventDispatcher::hardwareThreads() < 2)
    std::printf("note: one hardware thread, so pipelined runs deliver "
                "serially too\n");

  CsvWriter Csv;
  Csv.addRow({"threads", "delivery", "tool", "mean_slowdown_vs_nulgrind",
              "mean_cpu_vs_nulgrind", "mean_space_vs_nulgrind"});

  TextTable SpaceTable;
  std::vector<std::string> Header = {"threads"};
  for (const std::string &ToolName : EvaluatedToolNames)
    if (ToolName != "native" && ToolName != "nulgrind")
      Header.push_back(ToolName);
  for (Delivery &D : Deliveries)
    D.TimeTable.setHeader(Header);
  SpaceTable.setHeader(Header);

  std::vector<const WorkloadInfo *> Workloads;
  for (const std::string &Benchmark : Benchmarks) {
    const WorkloadInfo *W = findWorkload(Benchmark);
    if (!W) {
      std::fprintf(stderr, "unknown benchmark %s\n", Benchmark.c_str());
      return 1;
    }
    Workloads.push_back(W);
  }

  for (unsigned Threads : ThreadCounts) {
    WorkloadParams Params;
    Params.Threads = Threads;
    Params.Size = static_cast<uint64_t>(Options.getInt("size"));

    for (Delivery &D : Deliveries) {
      // Per benchmark: nulgrind baseline, then each tool.
      std::map<std::string, std::vector<double>> TimeRatios, CpuRatios,
          SpaceRatios;
      for (const WorkloadInfo *W : Workloads) {
        Measurement Nul = measureWorkload(*W, Params, "nulgrind", 1,
                                          MachineOptions(), D.ThreadBudget);
        if (!Nul.Ok) {
          std::fprintf(stderr, "%s (%s): %s\n", W->Name.c_str(), D.Name,
                       Nul.Error.c_str());
          return 1;
        }
        double NulBytes =
            static_cast<double>(Nul.GuestBytes + Nul.ToolBytes);
        for (const std::string &ToolName : EvaluatedToolNames) {
          if (ToolName == "native" || ToolName == "nulgrind")
            continue;
          Measurement M = measureWorkload(*W, Params, ToolName, 1,
                                          MachineOptions(), D.ThreadBudget);
          if (!M.Ok) {
            std::fprintf(stderr, "%s under %s (%s): %s\n", W->Name.c_str(),
                         ToolName.c_str(), D.Name, M.Error.c_str());
            return 1;
          }
          TimeRatios[ToolName].push_back(
              Nul.Seconds > 0 ? M.Seconds / Nul.Seconds : 0.0);
          CpuRatios[ToolName].push_back(
              Nul.CpuSeconds > 0 ? M.CpuSeconds / Nul.CpuSeconds : 0.0);
          SpaceRatios[ToolName].push_back(
              NulBytes > 0
                  ? static_cast<double>(M.GuestBytes + M.ToolBytes) /
                        NulBytes
                  : 0.0);
        }
      }

      std::vector<std::string> TimeRow = {std::to_string(Threads)};
      std::vector<std::string> SpaceRow = {std::to_string(Threads)};
      for (const std::string &ToolName : EvaluatedToolNames) {
        if (ToolName == "native" || ToolName == "nulgrind")
          continue;
        double MeanTime = geometricMean(TimeRatios[ToolName]);
        double MeanSpace = geometricMean(SpaceRatios[ToolName]);
        TimeRow.push_back(formatString("%.2f", MeanTime));
        SpaceRow.push_back(formatString("%.2f", MeanSpace));
        Csv.addRow({std::to_string(Threads), D.Name, ToolName,
                    formatString("%.4f", MeanTime),
                    formatString("%.4f", geometricMean(CpuRatios[ToolName])),
                    formatString("%.4f", MeanSpace)});
      }
      D.TimeTable.addRow(TimeRow);
      if (&D == &Deliveries[0])
        SpaceTable.addRow(SpaceRow);
    }
  }

  for (Delivery &D : Deliveries)
    std::printf("\n(a) mean time overhead vs nulgrind, %s delivery\n%s",
                D.Name, D.TimeTable.render().c_str());
  std::printf("\n(b) mean space overhead vs nulgrind\n%s",
              SpaceTable.render().c_str());

  std::string CsvPath = benchOutputPath("figure14.csv");
  if (Csv.writeToFile(CsvPath))
    std::printf("\nraw data written to %s\n", CsvPath.c_str());
  return 0;
}
