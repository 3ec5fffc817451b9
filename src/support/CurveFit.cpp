//===- support/CurveFit.cpp - Asymptotic model fitting --------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/CurveFit.h"

#include "support/Compiler.h"
#include "support/Format.h"

#include <cassert>
#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace isp;

const char *isp::growthModelName(GrowthModel Model) {
  switch (Model) {
  case GrowthModel::Constant:
    return "O(1)";
  case GrowthModel::Log:
    return "O(log n)";
  case GrowthModel::Linear:
    return "O(n)";
  case GrowthModel::NLogN:
    return "O(n log n)";
  case GrowthModel::Quadratic:
    return "O(n^2)";
  case GrowthModel::Cubic:
    return "O(n^3)";
  }
  ISP_UNREACHABLE("unknown growth model");
}

double isp::growthBasis(GrowthModel Model, double N) {
  // Clamp so log-based bases stay finite for n <= 1.
  double SafeN = N < 1.0 ? 1.0 : N;
  switch (Model) {
  case GrowthModel::Constant:
    return 1.0;
  case GrowthModel::Log:
    return std::log2(SafeN);
  case GrowthModel::Linear:
    return N;
  case GrowthModel::NLogN:
    return N * std::log2(SafeN);
  case GrowthModel::Quadratic:
    return N * N;
  case GrowthModel::Cubic:
    return N * N * N;
  }
  ISP_UNREACHABLE("unknown growth model");
}

double ModelFit::evaluate(double N) const {
  return Intercept + Slope * growthBasis(Model, N);
}

/// Simple linear regression of Y on X. Returns false when X is degenerate
/// (all equal), in which case only the intercept is meaningful.
static bool linearRegression(const std::vector<double> &X,
                             const std::vector<double> &Y, double &Intercept,
                             double &Slope) {
  assert(X.size() == Y.size() && !X.empty());
  double N = static_cast<double>(X.size());
  double SumX = 0, SumY = 0, SumXX = 0, SumXY = 0;
  for (size_t I = 0; I != X.size(); ++I) {
    SumX += X[I];
    SumY += Y[I];
    SumXX += X[I] * X[I];
    SumXY += X[I] * Y[I];
  }
  double Denominator = N * SumXX - SumX * SumX;
  if (std::fabs(Denominator) < 1e-12 * (1.0 + SumXX)) {
    Intercept = SumY / N;
    Slope = 0;
    return false;
  }
  Slope = (N * SumXY - SumX * SumY) / Denominator;
  Intercept = (SumY - Slope * SumX) / N;
  return true;
}

FitResult isp::fitCurve(const std::vector<FitPoint> &Points,
                        double ParsimonyTolerance) {
  FitResult Result;
  const GrowthModel AllModels[] = {GrowthModel::Constant, GrowthModel::Log,
                                   GrowthModel::Linear,   GrowthModel::NLogN,
                                   GrowthModel::Quadratic, GrowthModel::Cubic};

  double MeanCost = 0;
  for (const FitPoint &P : Points)
    MeanCost += P.Cost;
  if (!Points.empty())
    MeanCost /= static_cast<double>(Points.size());
  double CostScale = MeanCost > 0 ? MeanCost : 1.0;

  double TotalVar = 0;
  for (const FitPoint &P : Points)
    TotalVar += (P.Cost - MeanCost) * (P.Cost - MeanCost);

  for (GrowthModel Model : AllModels) {
    ModelFit Fit;
    Fit.Model = Model;
    if (!Points.empty()) {
      std::vector<double> X, Y;
      X.reserve(Points.size());
      Y.reserve(Points.size());
      for (const FitPoint &P : Points) {
        X.push_back(growthBasis(Model, P.N));
        Y.push_back(P.Cost);
      }
      linearRegression(X, Y, Fit.Intercept, Fit.Slope);
      double SqErr = 0;
      for (const FitPoint &P : Points) {
        double E = Fit.evaluate(P.N) - P.Cost;
        SqErr += E * E;
      }
      Fit.NormalizedRmse =
          std::sqrt(SqErr / static_cast<double>(Points.size())) / CostScale;
      Fit.R2 = TotalVar > 0 ? 1.0 - SqErr / TotalVar : 1.0;
    }
    Result.Candidates.push_back(Fit);
  }

  // A negative slope disqualifies a growth model: it means the basis is
  // being used to fit a *decreasing* trend, which none of our asymptotic
  // shapes represent. Among the remaining fits, find the minimum RMSE,
  // then pick the slowest-growing model within the parsimony tolerance of
  // that minimum so noisy linear data is not labelled quadratic.
  auto isEligible = [&](size_t I) {
    return I == 0 || Result.Candidates[I].Slope >= 0;
  };
  double MinRmse = 1e100;
  for (size_t I = 0; I != Result.Candidates.size(); ++I)
    if (isEligible(I))
      MinRmse = std::min(MinRmse, Result.Candidates[I].NormalizedRmse);
  // Relative margin plus a small absolute floor so exact fits do not get
  // displaced by a merely-adequate slower model, while genuinely noisy
  // data still prefers the simpler shape.
  double Threshold = MinRmse * (1.0 + ParsimonyTolerance) + 0.005;
  Result.BestIndex = 0;
  for (size_t I = 0; I != Result.Candidates.size(); ++I) {
    if (isEligible(I) && Result.Candidates[I].NormalizedRmse <= Threshold) {
      Result.BestIndex = I;
      break;
    }
  }

  // Free power-law exponent from log-log regression over positive samples.
  std::vector<double> LogN, LogCost;
  for (const FitPoint &P : Points) {
    if (P.N > 1 && P.Cost > 0) {
      LogN.push_back(std::log(P.N));
      LogCost.push_back(std::log(P.Cost));
    }
  }
  if (LogN.size() >= 2) {
    double Intercept = 0, Slope = 0;
    if (linearRegression(LogN, LogCost, Intercept, Slope)) {
      Result.PowerLawAlpha = Slope;
      Result.PowerLawCoeff = std::exp(Intercept);
      Result.PowerLawValid = true;
    }
  }
  return Result;
}

std::string isp::formatFit(const ModelFit &Fit) {
  char Buffer[128];
  std::snprintf(Buffer, sizeof(Buffer), "%s: cost = %.4g + %.4g*g(n) (rmse %.3g)",
                growthModelName(Fit.Model), Fit.Intercept, Fit.Slope,
                Fit.NormalizedRmse);
  return Buffer;
}

const char *isp::staticGrowthClassName(unsigned Degree) {
  switch (Degree) {
  case 0:
    return "O(1)";
  case 1:
    return "O(n)";
  case 2:
    return "O(n^2)";
  default:
    return "O(n^3+)";
  }
}

bool isp::staticGrowthAgrees(unsigned Degree, double Alpha) {
  return Alpha <= static_cast<double>(Degree) + 0.5;
}

void isp::appendStaticGrowthCells(std::vector<std::string> &Cells,
                                  std::string &Warnings,
                                  const std::string &Name,
                                  std::optional<unsigned> Degree,
                                  std::optional<double> Alpha) {
  if (!Degree) {
    Cells.push_back("-");
    Cells.push_back("-");
    return;
  }
  Cells.push_back(staticGrowthClassName(*Degree));
  if (!Alpha) {
    Cells.push_back("-");
  } else if (staticGrowthAgrees(*Degree, *Alpha)) {
    Cells.push_back("yes");
  } else {
    Cells.push_back("NO");
    Warnings += formatString("warning: static-vs-dynamic growth "
                             "contradiction: %s measured alpha %.2f exceeds "
                             "static %s\n",
                             Name.c_str(), *Alpha,
                             staticGrowthClassName(*Degree));
  }
}
