//===- support/CurveFit.h - Asymptotic model fitting ------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Least-squares fitting of cost-vs-input-size samples to standard
/// asymptotic models. Input-sensitive profiles are consumed as (n, cost)
/// points; the paper's Figure 6 applies "standard curve fitting techniques"
/// to decide whether a routine's worst-case plot is linear or superlinear.
/// We fit cost = A + B * g(n) for each model g and select the best by RMSE
/// on normalized data, and additionally estimate a free power-law exponent
/// via log-log regression.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_SUPPORT_CURVEFIT_H
#define ISPROF_SUPPORT_CURVEFIT_H

#include <optional>
#include <string>
#include <vector>

namespace isp {

/// The candidate asymptotic shapes, ordered by growth rate.
enum class GrowthModel {
  Constant, ///< g(n) = 1
  Log,      ///< g(n) = log2 n
  Linear,   ///< g(n) = n
  NLogN,    ///< g(n) = n log2 n
  Quadratic,///< g(n) = n^2
  Cubic     ///< g(n) = n^3
};

/// Returns a printable name such as "O(n log n)".
const char *growthModelName(GrowthModel Model);

/// Evaluates the model basis function g(n).
double growthBasis(GrowthModel Model, double N);

/// One fitted model: cost ~= Intercept + Slope * g(n).
struct ModelFit {
  GrowthModel Model = GrowthModel::Constant;
  double Intercept = 0;
  double Slope = 0;
  /// Root-mean-square error of the fit, normalized by the mean cost so
  /// fits of differently-scaled routines are comparable.
  double NormalizedRmse = 0;
  /// Coefficient of determination in [~0, 1].
  double R2 = 0;

  double evaluate(double N) const;
};

/// Result of fitting all candidate models plus the free power law.
struct FitResult {
  /// All candidate fits, in GrowthModel order.
  std::vector<ModelFit> Candidates;
  /// Index into Candidates of the selected (lowest-RMSE, with a parsimony
  /// tie-break preferring slower growth) model.
  size_t BestIndex = 0;
  /// Free exponent fit cost ~= C * n^Alpha from log-log regression;
  /// Alpha is the headline "does it scale superlinearly?" number.
  double PowerLawAlpha = 0;
  double PowerLawCoeff = 0;
  bool PowerLawValid = false;

  const ModelFit &best() const { return Candidates[BestIndex]; }
};

/// A single (input size, cost) observation.
struct FitPoint {
  double N = 0;
  double Cost = 0;
};

/// Fits all candidate models to \p Points. Requires at least two points
/// with distinct N for a meaningful answer; with fewer, the constant model
/// is returned. Ties within \p ParsimonyTolerance of the best RMSE are
/// resolved in favour of the slower-growing model, which keeps noisy
/// linear data from being labelled quadratic.
FitResult fitCurve(const std::vector<FitPoint> &Points,
                   double ParsimonyTolerance = 0.05);

/// Formats a fit as e.g. "O(n): cost = 3.1 + 2.0*n (rmse 0.02)".
std::string formatFit(const ModelFit &Fit);

/// "O(1)" / "O(n)" / "O(n^2)" / "O(n^3+)" for a static loop-nest degree
/// (analysis::estimateGrowth).
const char *staticGrowthClassName(unsigned Degree);

/// The agreement rule of the --growth-check and --growth-source
/// columns: a measured log-log alpha agrees with a static degree when
/// alpha <= degree + 0.5 (the static degree is an upper bound on
/// polynomial growth in the routine's input size).
bool staticGrowthAgrees(unsigned Degree, double Alpha);

/// Appends the "static" and "agree" cells of routine \p Name to \p Cells:
/// "-" for each when the analysis has no \p Degree, and "-" for agree
/// when there is no valid measured \p Alpha. A disagreement is "NO" and
/// adds one contradiction warning line to \p Warnings.
void appendStaticGrowthCells(std::vector<std::string> &Cells,
                             std::string &Warnings, const std::string &Name,
                             std::optional<unsigned> Degree,
                             std::optional<double> Alpha);

} // namespace isp

#endif // ISPROF_SUPPORT_CURVEFIT_H
