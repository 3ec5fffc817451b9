//===- core/Report.h - Cost plots and text reports --------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns RoutineProfiles into the artefacts the paper's case studies
/// show: worst-case running time plots (max cost per distinct input
/// size), workload plots (activation count per input size), fitted
/// asymptotic models, and human-readable per-routine reports.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_CORE_REPORT_H
#define ISPROF_CORE_REPORT_H

#include "core/ProfileData.h"
#include "support/CurveFit.h"

#include <map>
#include <string>
#include <vector>

namespace isp {

class SymbolTable;

/// Which input-size metric keys the plot.
enum class InputMetric { Rms, Trms };

/// (input size, max cost) per distinct input size: the paper's
/// worst-case running time plot.
std::vector<FitPoint> worstCasePlot(const RoutineProfile &Profile,
                                    InputMetric Metric);

/// (input size, average cost) per distinct input size.
std::vector<FitPoint> averageCasePlot(const RoutineProfile &Profile,
                                      InputMetric Metric);

/// (input size, number of activations): the workload plot of Figure 8.
std::vector<FitPoint> workloadPlot(const RoutineProfile &Profile,
                                   InputMetric Metric);

/// Fits the worst-case plot to the standard asymptotic models.
FitResult fitWorstCase(const RoutineProfile &Profile, InputMetric Metric);

/// Renders a per-routine report: activation counts, rms vs trms point
/// counts, induced input split, both worst-case plots and their fitted
/// models. \p Symbols may be null.
std::string renderRoutineReport(RoutineId Rtn, const RoutineProfile &Profile,
                                const SymbolTable *Symbols);

/// Renders a run summary: top \p MaxRoutines routines by total cost with
/// their input characterization, plus the run-wide induced split.
std::string renderRunSummary(const ProfileDatabase &Database,
                             const SymbolTable *Symbols,
                             size_t MaxRoutines = 20);

/// Run summary with a static-vs-dynamic growth cross-check: adds a
/// "static" column (the analysis's predicted growth class, a loop-nest
/// degree per routine id) and an "agree" column comparing it with the
/// measured log-log alpha (agreement when alpha <= degree + 0.5, the
/// rule staticGrowthAgrees in support/CurveFit.h implements).
/// Contradictions append a warning line per routine.
std::string renderRunSummary(const ProfileDatabase &Database,
                             const SymbolTable *Symbols,
                             const std::map<RoutineId, unsigned> &StaticGrowth,
                             size_t MaxRoutines = 20);

/// Renders a plot as a two-column text series (for CSV-ish dumps).
std::string renderSeries(const std::vector<FitPoint> &Points,
                         const char *XLabel, const char *YLabel);

} // namespace isp

#endif // ISPROF_CORE_REPORT_H
