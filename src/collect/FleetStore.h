//===- collect/FleetStore.h - Fleet-level profile rollup --------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet collector's aggregate store. Many recorded runs — from many
/// programs, machines, and build versions — are replayed through the
/// input-sensitive profiler and folded into one store keyed by
/// (program, routine). Per routine the store keeps the cross-run rms
/// curve: for every observed rms value, a mergeable cost distribution
/// (count/sum/min/max plus power-of-two buckets) from which p50/p90/p99
/// are answered deterministically.
///
/// Each stream is first folded on its own, activation by activation, into
/// a StreamRollup keyed by routine id; the store then merges that by
/// routine name. Every aggregate is a commutative, associative fold
/// (bucket-wise sums, min/max), so this equals folding the stream's
/// activations into the store one by one, and merging N streams
/// concurrently in any order yields a store exactly equal to merging the
/// N per-stream results serially — the rollup identities the collector's
/// tests assert.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_COLLECT_FLEETSTORE_H
#define ISPROF_COLLECT_FLEETSTORE_H

#include "core/ProfileData.h"
#include "support/CurveFit.h"

#include <array>
#include <compare>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace isp {

class SymbolTable;

namespace collect {

/// A mergeable cost distribution: exact count/sum/min/max plus
/// power-of-two buckets (bucket 0 holds zeros; bucket I >= 1 holds
/// [2^(I-1), 2^I)). Percentiles interpolate inside the selected bucket
/// and clamp into [min, max], so a distribution with one distinct value
/// answers exactly and any distribution answers deterministically.
class CostQuantiles {
public:
  static constexpr unsigned NumBuckets = 65;

  void record(uint64_t Cost);
  /// Bucket-wise sum; min/max fold. Commutative and associative.
  void merge(const CostQuantiles &Other);

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t min() const { return Count ? MinCost : 0; }
  uint64_t max() const { return MaxCost; }
  double mean() const {
    return Count ? static_cast<double>(Sum) / static_cast<double>(Count) : 0.0;
  }
  /// Cost at quantile \p Q in [0, 1]; 0 for an empty distribution.
  uint64_t percentile(double Q) const;

  bool operator==(const CostQuantiles &Other) const = default;

private:
  std::array<uint64_t, NumBuckets> Buckets = {};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t MinCost = UINT64_MAX;
  uint64_t MaxCost = 0;
};

/// One routine's cross-run aggregate: totals plus the rms curve
/// (rms value -> cost distribution).
struct RoutineRollup {
  uint64_t Activations = 0;
  uint64_t SumCost = 0;
  uint64_t SumRms = 0;
  uint64_t SumTrms = 0;
  uint64_t InducedThread = 0;
  uint64_t InducedExternal = 0;
  /// Number of stream merges that contributed at least one activation.
  uint64_t Streams = 0;
  std::map<uint64_t, CostQuantiles> ByRms;

  void addActivation(const ActivationRecord &R);
  void merge(const RoutineRollup &Other);
  /// Free power-law fit over (rms, mean cost) — the ranking key for
  /// "which routines grow worst with input size".
  FitResult growth() const;

  bool operator==(const RoutineRollup &Other) const = default;
};

/// One stream's rollups by routine id, folded as its activations
/// complete. The collector sets one as its profiler's ActivationSink, so
/// an ingest holds O(routines x distinct rms values), never a record per
/// activation.
class StreamRollup final : public ActivationSink {
public:
  StreamRollup() = default;
  StreamRollup(const StreamRollup &) = delete;
  StreamRollup &operator=(const StreamRollup &) = delete;

  void addActivation(const ActivationRecord &R) override;

  const std::map<RoutineId, RoutineRollup> &byRoutine() const { return ById; }

private:
  std::map<RoutineId, RoutineRollup> ById;
  /// The rollup of the last activation's routine: a stream's activations
  /// come in long runs of one routine.
  RoutineId LastRtn = 0;
  RoutineRollup *Last = nullptr;
};

/// The fleet-level store: (program, routine) -> rollup.
class FleetStore {
public:
  struct Key {
    std::string Program;
    std::string Routine;
    auto operator<=>(const Key &Other) const = default;
  };

  /// Merges one stream's rollups into the store under program label
  /// \p Program, each under the name \p Symbols gives its id, and counts
  /// the stream once in every rollup it adds to. \p Only, when non-null,
  /// restricts the merge to the named routines.
  void mergeStream(const std::string &Program, const StreamRollup &Stream,
                   const SymbolTable &Symbols,
                   const std::set<std::string> *Only = nullptr);
  /// Whole-store merge (the serial side of the rollup-identity test).
  void merge(const FleetStore &Other);

  const std::map<Key, RoutineRollup> &rollups() const { return Rollups; }
  size_t routineCount() const { return Rollups.size(); }
  size_t programCount() const;
  uint64_t totalActivations() const;

  /// Human-readable fleet report: totals banner plus the top
  /// \p TopN routines ranked by power-law growth exponent, with
  /// p50/p90/p99 cost at each routine's largest observed rms.
  std::string renderRollup(unsigned TopN) const;
  /// Rollup with a static-vs-dynamic growth cross-check: \p
  /// StaticGrowth maps routine *names* to the compile-time loop-nest
  /// degree (isprof collect --growth-source=FILE); adds "static" and
  /// "agree" columns (agreement when alpha <= degree + 0.5) and a
  /// warning line per contradiction.
  std::string renderRollup(unsigned TopN,
                           const std::map<std::string, unsigned>
                               &StaticGrowth) const;
  /// Full rms curve for every (program, routine) whose routine name is
  /// \p Routine: one row per rms value with count and percentiles.
  std::string renderCurve(const std::string &Routine) const;

  bool operator==(const FleetStore &Other) const = default;

private:
  std::string renderRollupImpl(unsigned TopN,
                               const std::map<std::string, unsigned>
                                   *StaticGrowth) const;

  std::map<Key, RoutineRollup> Rollups;
};

/// One routine-level difference between two stores (programs merged:
/// the diff compares builds/runs routine-by-routine).
struct FleetRoutineDelta {
  std::string Routine;
  bool OnlyInBase = false;
  bool OnlyInCandidate = false;
  /// Candidate mean cost / base mean cost over the shared rms values
  /// (1.0 when there are none).
  double CostRatio = 1.0;
  double AlphaBase = 0.0;
  double AlphaCandidate = 0.0;
  uint64_t SharedRmsValues = 0;
};

struct FleetDiffOptions {
  /// Cost ratio at or above which a delta counts as a regression
  /// (mirrors ProfileDiffOptions::CostRatioThreshold).
  double CostRatioThreshold = 1.5;
  /// Growth-exponent increase that counts as a regression on its own.
  double AlphaThreshold = 0.5;
  /// Relative deviation below which curves are considered equal, so a
  /// diff of a store against itself reports zero deltas.
  double Epsilon = 1e-9;
};

/// Routine-by-routine curve deltas, largest cost ratio first. Routines
/// whose shared-rms mean costs and growth exponents agree within
/// Epsilon produce no entry.
std::vector<FleetRoutineDelta>
diffFleetStores(const FleetStore &Base, const FleetStore &Candidate,
                const FleetDiffOptions &Opts = FleetDiffOptions());

std::string renderFleetDiff(const std::vector<FleetRoutineDelta> &Deltas);

/// True when any delta crosses the regression thresholds (driver exit
/// code 3, like `isprof diff`).
bool hasFleetRegressions(const std::vector<FleetRoutineDelta> &Deltas,
                         const FleetDiffOptions &Opts = FleetDiffOptions());

} // namespace collect
} // namespace isp

#endif // ISPROF_COLLECT_FLEETSTORE_H
