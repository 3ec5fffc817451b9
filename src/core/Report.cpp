//===- core/Report.cpp - Cost plots and text reports -------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"

#include "core/Metrics.h"
#include "instr/SymbolTable.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>

using namespace isp;

static const std::map<uint64_t, CostStats> &
selectMap(const RoutineProfile &Profile, InputMetric Metric) {
  return Metric == InputMetric::Trms ? Profile.costByTrms()
                                     : Profile.costByRms();
}

std::vector<FitPoint> isp::worstCasePlot(const RoutineProfile &Profile,
                                         InputMetric Metric) {
  std::vector<FitPoint> Points;
  for (const auto &[Size, Stats] : selectMap(Profile, Metric))
    Points.push_back({static_cast<double>(Size),
                      static_cast<double>(Stats.MaxCost)});
  return Points;
}

std::vector<FitPoint> isp::averageCasePlot(const RoutineProfile &Profile,
                                           InputMetric Metric) {
  std::vector<FitPoint> Points;
  for (const auto &[Size, Stats] : selectMap(Profile, Metric))
    Points.push_back({static_cast<double>(Size), Stats.averageCost()});
  return Points;
}

std::vector<FitPoint> isp::workloadPlot(const RoutineProfile &Profile,
                                        InputMetric Metric) {
  std::vector<FitPoint> Points;
  for (const auto &[Size, Stats] : selectMap(Profile, Metric))
    Points.push_back({static_cast<double>(Size),
                      static_cast<double>(Stats.Count)});
  return Points;
}

FitResult isp::fitWorstCase(const RoutineProfile &Profile,
                            InputMetric Metric) {
  return fitCurve(worstCasePlot(Profile, Metric));
}

std::string isp::renderSeries(const std::vector<FitPoint> &Points,
                              const char *XLabel, const char *YLabel) {
  std::string Out = formatString("%s,%s\n", XLabel, YLabel);
  for (const FitPoint &P : Points)
    Out += formatString("%.0f,%.2f\n", P.N, P.Cost);
  return Out;
}

std::string isp::renderRoutineReport(RoutineId Rtn,
                                     const RoutineProfile &Profile,
                                     const SymbolTable *Symbols) {
  std::string Name =
      Symbols ? Symbols->routineName(Rtn) : formatString("routine#%u", Rtn);
  std::string Out = formatString("== %s ==\n", Name.c_str());
  Out += formatString(
      "activations: %s, distinct trms values: %zu, distinct rms values: "
      "%zu\n",
      formatCount(Profile.activations()).c_str(),
      Profile.distinctTrmsValues(), Profile.distinctRmsValues());
  uint64_t Induced = Profile.inducedThread() + Profile.inducedExternal();
  double InducedPct =
      Profile.sumTrms()
          ? 100.0 * static_cast<double>(Induced) /
                static_cast<double>(Profile.sumTrms())
          : 0.0;
  Out += formatString(
      "input: sum trms %llu, sum rms %llu (%.1f%% induced: %llu "
      "thread-induced, %llu external)\n",
      static_cast<unsigned long long>(Profile.sumTrms()),
      static_cast<unsigned long long>(Profile.sumRms()), InducedPct,
      static_cast<unsigned long long>(Profile.inducedThread()),
      static_cast<unsigned long long>(Profile.inducedExternal()));

  for (InputMetric Metric : {InputMetric::Trms, InputMetric::Rms}) {
    const char *Label = Metric == InputMetric::Trms ? "trms" : "rms";
    std::vector<FitPoint> Plot = worstCasePlot(Profile, Metric);
    FitResult Fit = fitCurve(Plot);
    Out += formatString("worst-case plot by %s: %zu points, best fit %s",
                        Label, Plot.size(), formatFit(Fit.best()).c_str());
    if (Fit.PowerLawValid)
      Out += formatString(", power-law exponent %.2f", Fit.PowerLawAlpha);
    Out += '\n';
  }
  return Out;
}

namespace {

std::string renderRunSummaryImpl(
    const ProfileDatabase &Database, const SymbolTable *Symbols,
    const std::map<RoutineId, unsigned> *StaticGrowth, size_t MaxRoutines) {
  auto Merged = Database.mergedByRoutine();
  std::vector<std::pair<RoutineId, const RoutineProfile *>> Ranked;
  Ranked.reserve(Merged.size());
  for (const auto &[Rtn, Profile] : Merged)
    Ranked.emplace_back(Rtn, &Profile);
  std::sort(Ranked.begin(), Ranked.end(), [](const auto &L, const auto &R) {
    return L.second->totalCost() > R.second->totalCost();
  });
  if (Ranked.size() > MaxRoutines)
    Ranked.resize(MaxRoutines);

  TextTable Table;
  std::vector<std::string> Header = {"routine",  "calls",    "cost(BB)",
                                     "|trms|",   "|rms|",    "sum trms",
                                     "thr-ind",  "external", "fit(trms)"};
  if (StaticGrowth != nullptr) {
    Header.push_back("static");
    Header.push_back("agree");
  }
  Table.setHeader(Header);
  std::string Contradictions;
  for (const auto &[Rtn, Profile] : Ranked) {
    FitResult Fit = fitWorstCase(*Profile, InputMetric::Trms);
    std::string Name =
        Symbols ? Symbols->routineName(Rtn) : formatString("#%u", Rtn);
    std::vector<std::string> Row = {
        Name,
        formatWithCommas(Profile->activations()),
        formatWithCommas(Profile->totalCost()),
        formatString("%zu", Profile->distinctTrmsValues()),
        formatString("%zu", Profile->distinctRmsValues()),
        formatWithCommas(Profile->sumTrms()),
        formatWithCommas(Profile->inducedThread()),
        formatWithCommas(Profile->inducedExternal()),
        growthModelName(Fit.best().Model)};
    if (StaticGrowth != nullptr) {
      // The static degree is an upper bound on polynomial growth in the
      // routine's input size: a measured exponent meaningfully above it
      // contradicts the analysis (or flags a routine whose cost is
      // driven by something other than its loop structure).
      auto It = StaticGrowth->find(Rtn);
      appendStaticGrowthCells(
          Row, Contradictions, Name,
          It == StaticGrowth->end() ? std::nullopt
                                    : std::optional<unsigned>(It->second),
          Fit.PowerLawValid ? std::optional<double>(Fit.PowerLawAlpha)
                            : std::nullopt);
    }
    Table.addRow(Row);
  }

  RunMetrics Run = computeRunMetrics(Database);
  std::string Out = Table.render();
  Out += Contradictions;
  Out += formatString(
      "\nrun totals: %s activations, input volume %.3f, induced "
      "first-accesses: %.1f%% thread-induced / %.1f%% external\n",
      formatCount(Database.totalActivations()).c_str(), Run.InputVolume,
      Run.ThreadInducedPct, Run.ExternalPct);
  return Out;
}

} // namespace

std::string isp::renderRunSummary(const ProfileDatabase &Database,
                                  const SymbolTable *Symbols,
                                  size_t MaxRoutines) {
  return renderRunSummaryImpl(Database, Symbols, nullptr, MaxRoutines);
}

std::string isp::renderRunSummary(
    const ProfileDatabase &Database, const SymbolTable *Symbols,
    const std::map<RoutineId, unsigned> &StaticGrowth, size_t MaxRoutines) {
  return renderRunSummaryImpl(Database, Symbols, &StaticGrowth, MaxRoutines);
}
