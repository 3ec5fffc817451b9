//===- collect/FleetStore.cpp - Fleet-level profile rollup --------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "collect/FleetStore.h"

#include "instr/SymbolTable.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <bit>
#include <cmath>

using namespace isp;
using namespace isp::collect;

void CostQuantiles::record(uint64_t Cost) {
  unsigned I = Cost ? static_cast<unsigned>(std::bit_width(Cost)) : 0;
  Buckets[I] += 1;
  Count += 1;
  Sum += Cost;
  MinCost = std::min(MinCost, Cost);
  MaxCost = std::max(MaxCost, Cost);
}

void CostQuantiles::merge(const CostQuantiles &Other) {
  for (unsigned I = 0; I != NumBuckets; ++I)
    Buckets[I] += Other.Buckets[I];
  Count += Other.Count;
  Sum += Other.Sum;
  MinCost = std::min(MinCost, Other.MinCost);
  MaxCost = std::max(MaxCost, Other.MaxCost);
}

uint64_t CostQuantiles::percentile(double Q) const {
  if (!Count)
    return 0;
  if (Q <= 0.0)
    return MinCost;
  if (Q >= 1.0)
    return MaxCost;
  // Nearest-rank, then the selected bucket's midpoint clamped into the
  // observed [min, max] — deterministic, merge-order independent, and
  // exact whenever the distribution has a single distinct value.
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(Q * static_cast<double>(Count)));
  Rank = std::clamp<uint64_t>(Rank, 1, Count);
  uint64_t Cum = 0;
  for (unsigned I = 0; I != NumBuckets; ++I) {
    Cum += Buckets[I];
    if (Cum < Rank)
      continue;
    uint64_t Lower = I == 0 ? 0 : uint64_t(1) << (I - 1);
    uint64_t Upper =
        I == 0 ? 0 : (I == 64 ? UINT64_MAX : (uint64_t(1) << I) - 1);
    uint64_t Mid = Lower + (Upper - Lower) / 2;
    return std::clamp(Mid, MinCost, MaxCost);
  }
  return MaxCost;
}

void RoutineRollup::addActivation(const ActivationRecord &R) {
  Activations += 1;
  SumCost += R.Cost;
  SumRms += R.Rms;
  SumTrms += R.Trms;
  InducedThread += R.InducedThread;
  InducedExternal += R.InducedExternal;
  ByRms[R.Rms].record(R.Cost);
}

void RoutineRollup::merge(const RoutineRollup &Other) {
  Activations += Other.Activations;
  SumCost += Other.SumCost;
  SumRms += Other.SumRms;
  SumTrms += Other.SumTrms;
  InducedThread += Other.InducedThread;
  InducedExternal += Other.InducedExternal;
  Streams += Other.Streams;
  for (const auto &[Rms, Q] : Other.ByRms)
    ByRms[Rms].merge(Q);
}

FitResult RoutineRollup::growth() const {
  std::vector<FitPoint> Points;
  Points.reserve(ByRms.size());
  for (const auto &[Rms, Q] : ByRms)
    Points.push_back({static_cast<double>(Rms), Q.mean()});
  return fitCurve(Points);
}

void StreamRollup::addActivation(const ActivationRecord &R) {
  if (!Last || R.Rtn != LastRtn) {
    Last = &ById[R.Rtn]; // std::map nodes stay put
    LastRtn = R.Rtn;
  }
  Last->addActivation(R);
}

void FleetStore::mergeStream(const std::string &Program,
                             const StreamRollup &Stream,
                             const SymbolTable &Symbols,
                             const std::set<std::string> *Only) {
  // Two ids may share a name (an id past the routine table prints as
  // routine#<id>); their rollup still counts the stream once.
  std::set<RoutineRollup *> Touched;
  for (const auto &[Rtn, Rollup] : Stream.byRoutine()) {
    std::string Name = Symbols.routineName(Rtn);
    if (Only && !Only->count(Name))
      continue;
    RoutineRollup &Into = Rollups[Key{Program, std::move(Name)}];
    Into.merge(Rollup);
    Touched.insert(&Into);
  }
  for (RoutineRollup *Rollup : Touched)
    Rollup->Streams += 1;
}

void FleetStore::merge(const FleetStore &Other) {
  for (const auto &[K, R] : Other.Rollups)
    Rollups[K].merge(R);
}

size_t FleetStore::programCount() const {
  std::set<std::string> Programs;
  for (const auto &[K, R] : Rollups)
    Programs.insert(K.Program);
  return Programs.size();
}

uint64_t FleetStore::totalActivations() const {
  uint64_t Total = 0;
  for (const auto &[K, R] : Rollups)
    Total += R.Activations;
  return Total;
}

namespace {

/// Ranking row: growth exponent first (unfittable curves sink), total
/// cost as tie-break, then the key for determinism.
struct RankedRollup {
  const FleetStore::Key *K = nullptr;
  const RoutineRollup *R = nullptr;
  double Alpha = 0.0;
  bool AlphaValid = false;
  const ModelFit *Best = nullptr;
  FitResult Fit;
};

std::vector<RankedRollup> rankByGrowth(const FleetStore &Store) {
  std::vector<RankedRollup> Rows;
  for (const auto &[K, R] : Store.rollups()) {
    RankedRollup Row;
    Row.K = &K;
    Row.R = &R;
    Row.Fit = R.growth();
    Row.AlphaValid = Row.Fit.PowerLawValid;
    Row.Alpha = Row.AlphaValid ? Row.Fit.PowerLawAlpha : 0.0;
    Rows.push_back(std::move(Row));
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const RankedRollup &A, const RankedRollup &B) {
              if (A.AlphaValid != B.AlphaValid)
                return A.AlphaValid;
              if (A.Alpha != B.Alpha)
                return A.Alpha > B.Alpha;
              if (A.R->SumCost != B.R->SumCost)
                return A.R->SumCost > B.R->SumCost;
              return *A.K < *B.K;
            });
  return Rows;
}

} // namespace

std::string FleetStore::renderRollup(unsigned TopN) const {
  return renderRollupImpl(TopN, nullptr);
}

std::string FleetStore::renderRollup(
    unsigned TopN,
    const std::map<std::string, unsigned> &StaticGrowth) const {
  return renderRollupImpl(TopN, &StaticGrowth);
}

std::string FleetStore::renderRollupImpl(
    unsigned TopN,
    const std::map<std::string, unsigned> *StaticGrowth) const {
  std::string Out = formatString(
      "fleet rollup: %zu routine(s) across %zu program(s), %s "
      "activation(s)\n",
      routineCount(), programCount(),
      formatWithCommas(totalActivations()).c_str());
  if (Rollups.empty())
    return Out;
  Out += formatString("top %u by growth (cost ~ rms^alpha):\n",
                      TopN);
  TextTable Table;
  std::vector<std::string> Header = {"program", "routine", "streams",
                                     "acts",    "rms pts", "growth",
                                     "alpha",   "p50",     "p90",
                                     "p99"};
  if (StaticGrowth != nullptr) {
    Header.push_back("static");
    Header.push_back("agree");
  }
  Table.setHeader(Header);
  std::string Contradictions;
  std::vector<RankedRollup> Rows = rankByGrowth(*this);
  if (Rows.size() > TopN)
    Rows.resize(TopN);
  for (const RankedRollup &Row : Rows) {
    // Percentiles at the routine's largest observed rms — the paper's
    // "worst-case plot" point; renderCurve exposes the full curve.
    const CostQuantiles &AtMax = Row.R->ByRms.rbegin()->second;
    std::vector<std::string> Cells = {
        Row.K->Program, Row.K->Routine,
        formatWithCommas(Row.R->Streams),
        formatWithCommas(Row.R->Activations),
        formatWithCommas(Row.R->ByRms.size()),
        Row.AlphaValid ? growthModelName(Row.Fit.best().Model) : "-",
        Row.AlphaValid ? formatString("%.2f", Row.Alpha) : "-",
        formatWithCommas(AtMax.percentile(0.50)),
        formatWithCommas(AtMax.percentile(0.90)),
        formatWithCommas(AtMax.percentile(0.99))};
    if (StaticGrowth != nullptr) {
      auto It = StaticGrowth->find(Row.K->Routine);
      appendStaticGrowthCells(
          Cells, Contradictions, Row.K->Routine,
          It == StaticGrowth->end() ? std::nullopt
                                    : std::optional<unsigned>(It->second),
          Row.AlphaValid ? std::optional<double>(Row.Alpha) : std::nullopt);
    }
    Table.addRow(Cells);
  }
  Out += Table.render();
  Out += Contradictions;
  return Out;
}

std::string FleetStore::renderCurve(const std::string &Routine) const {
  std::string Out;
  for (const auto &[K, R] : Rollups) {
    if (K.Routine != Routine)
      continue;
    Out += formatString("curve for '%s' (program '%s', %s activation(s)):\n",
                        K.Routine.c_str(), K.Program.c_str(),
                        formatWithCommas(R.Activations).c_str());
    TextTable Table;
    Table.setHeader({"rms", "count", "mean", "min", "p50", "p90", "p99",
                     "max"});
    for (const auto &[Rms, Q] : R.ByRms)
      Table.addRow({formatWithCommas(Rms), formatWithCommas(Q.count()),
                    formatString("%.1f", Q.mean()),
                    formatWithCommas(Q.min()),
                    formatWithCommas(Q.percentile(0.50)),
                    formatWithCommas(Q.percentile(0.90)),
                    formatWithCommas(Q.percentile(0.99)),
                    formatWithCommas(Q.max())});
    Out += Table.render();
  }
  if (Out.empty())
    Out = formatString("no routine '%s' in the store\n", Routine.c_str());
  return Out;
}

namespace {

/// Programs merged per routine name: the diff compares builds/runs
/// routine-by-routine, whatever program labels each side used.
std::map<std::string, RoutineRollup> byRoutine(const FleetStore &Store) {
  std::map<std::string, RoutineRollup> Out;
  for (const auto &[K, R] : Store.rollups())
    Out[K.Routine].merge(R);
  return Out;
}

} // namespace

std::vector<FleetRoutineDelta>
isp::collect::diffFleetStores(const FleetStore &Base,
                              const FleetStore &Candidate,
                              const FleetDiffOptions &Opts) {
  std::map<std::string, RoutineRollup> B = byRoutine(Base);
  std::map<std::string, RoutineRollup> C = byRoutine(Candidate);
  std::vector<FleetRoutineDelta> Deltas;

  for (const auto &[Name, BR] : B) {
    auto It = C.find(Name);
    if (It == C.end()) {
      FleetRoutineDelta D;
      D.Routine = Name;
      D.OnlyInBase = true;
      Deltas.push_back(std::move(D));
      continue;
    }
    const RoutineRollup &CR = It->second;
    // Mean cost over the rms values both sides observed; disjoint
    // curves fall back to the overall means.
    uint64_t BaseSum = 0, BaseCount = 0, CandSum = 0, CandCount = 0;
    uint64_t Shared = 0;
    double MaxDev = 0.0;
    for (const auto &[Rms, BQ] : BR.ByRms) {
      auto CIt = CR.ByRms.find(Rms);
      if (CIt == CR.ByRms.end()) {
        MaxDev = std::max(MaxDev, 1.0); // rms point vanished
        continue;
      }
      Shared += 1;
      BaseSum += BQ.sum();
      BaseCount += BQ.count();
      CandSum += CIt->second.sum();
      CandCount += CIt->second.count();
      double BM = BQ.mean(), CM = CIt->second.mean();
      if (BM == 0.0 && CM == 0.0)
        continue;
      MaxDev = std::max(
          MaxDev, BM == 0.0 ? 1e9 : std::fabs(CM / BM - 1.0));
    }
    for (const auto &[Rms, CQ] : CR.ByRms)
      if (!BR.ByRms.count(Rms))
        MaxDev = std::max(MaxDev, 1.0); // rms point appeared

    FleetRoutineDelta D;
    D.Routine = Name;
    D.SharedRmsValues = Shared;
    double BaseMean = Shared
                          ? (BaseCount ? static_cast<double>(BaseSum) /
                                             static_cast<double>(BaseCount)
                                       : 0.0)
                          : (BR.Activations
                                 ? static_cast<double>(BR.SumCost) /
                                       static_cast<double>(BR.Activations)
                                 : 0.0);
    double CandMean = Shared
                          ? (CandCount ? static_cast<double>(CandSum) /
                                             static_cast<double>(CandCount)
                                       : 0.0)
                          : (CR.Activations
                                 ? static_cast<double>(CR.SumCost) /
                                       static_cast<double>(CR.Activations)
                                 : 0.0);
    D.CostRatio = BaseMean == 0.0 ? (CandMean == 0.0 ? 1.0 : 1e9)
                                  : CandMean / BaseMean;
    FitResult BFit = BR.growth(), CFit = CR.growth();
    D.AlphaBase = BFit.PowerLawValid ? BFit.PowerLawAlpha : 0.0;
    D.AlphaCandidate = CFit.PowerLawValid ? CFit.PowerLawAlpha : 0.0;
    double AlphaDev = std::fabs(D.AlphaCandidate - D.AlphaBase);
    if (MaxDev > Opts.Epsilon || AlphaDev > Opts.Epsilon)
      Deltas.push_back(std::move(D));
  }
  for (const auto &[Name, CR] : C) {
    if (B.count(Name))
      continue;
    FleetRoutineDelta D;
    D.Routine = Name;
    D.OnlyInCandidate = true;
    Deltas.push_back(std::move(D));
  }
  std::sort(Deltas.begin(), Deltas.end(),
            [](const FleetRoutineDelta &A, const FleetRoutineDelta &X) {
              if (A.CostRatio != X.CostRatio)
                return A.CostRatio > X.CostRatio;
              return A.Routine < X.Routine;
            });
  return Deltas;
}

std::string
isp::collect::renderFleetDiff(const std::vector<FleetRoutineDelta> &Deltas) {
  std::string Out = formatString("fleet diff: %zu routine(s) differ\n",
                                 Deltas.size());
  for (const FleetRoutineDelta &D : Deltas) {
    if (D.OnlyInBase) {
      Out += formatString("  %s: only in baseline\n", D.Routine.c_str());
      continue;
    }
    if (D.OnlyInCandidate) {
      Out += formatString("  %s: only in candidate\n", D.Routine.c_str());
      continue;
    }
    Out += formatString(
        "  %s: mean cost %s over %llu shared rms value(s), "
        "growth alpha %.2f -> %.2f\n",
        D.Routine.c_str(), formatRatio(D.CostRatio).c_str(),
        static_cast<unsigned long long>(D.SharedRmsValues), D.AlphaBase,
        D.AlphaCandidate);
  }
  return Out;
}

bool isp::collect::hasFleetRegressions(
    const std::vector<FleetRoutineDelta> &Deltas,
    const FleetDiffOptions &Opts) {
  for (const FleetRoutineDelta &D : Deltas) {
    if (D.OnlyInBase || D.OnlyInCandidate)
      continue;
    if (D.CostRatio >= Opts.CostRatioThreshold)
      return true;
    if (D.AlphaCandidate - D.AlphaBase >= Opts.AlphaThreshold)
      return true;
  }
  return false;
}
