//===- core/ProfileData.cpp - Input-sensitive profile storage ----------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "core/ProfileData.h"

#include <cassert>

using namespace isp;

void RoutineProfile::addActivation(const ActivationRecord &R) {
  assert(R.Trms >= R.Rms && "Inequality 1 (trms >= rms) violated");
  ByTrms[R.Trms].add(R.Cost);
  ByRms[R.Rms].add(R.Cost);
  ++Activations;
  SumRms += R.Rms;
  SumTrms += R.Trms;
  InducedThread += R.InducedThread;
  InducedExternal += R.InducedExternal;
  TotalCost += R.Cost;
}

void RoutineProfile::merge(const RoutineProfile &Other) {
  for (const auto &[Trms, Stats] : Other.ByTrms)
    ByTrms[Trms].merge(Stats);
  for (const auto &[Rms, Stats] : Other.ByRms)
    ByRms[Rms].merge(Stats);
  Activations += Other.Activations;
  SumRms += Other.SumRms;
  SumTrms += Other.SumTrms;
  InducedThread += Other.InducedThread;
  InducedExternal += Other.InducedExternal;
  TotalCost += Other.TotalCost;
}

void ProfileDatabase::recordActivation(const ActivationRecord &R) {
  ++TotalActivations;
  if (Sink) {
    // RoutineProfile::addActivation checks this on the aggregating path.
    assert(R.Trms >= R.Rms && "Inequality 1 (trms >= rms) violated");
    Sink->addActivation(R);
    return;
  }
  Profiles[{R.Tid, R.Rtn}].addActivation(R);
  if (KeepLog)
    Log.push_back(R);
}

std::map<RoutineId, RoutineProfile> ProfileDatabase::mergedByRoutine() const {
  std::map<RoutineId, RoutineProfile> Merged;
  for (const auto &[Key, Profile] : Profiles)
    Merged[Key.Rtn].merge(Profile);
  return Merged;
}
