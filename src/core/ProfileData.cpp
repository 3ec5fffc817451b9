//===- core/ProfileData.cpp - Input-sensitive profile storage ----------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "core/ProfileData.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace isp;

void CurveIndex::insert(uint64_t Size, CostStats *Stats) {
  if (2 * (Used + 1) > Slots.size()) {
    std::vector<Slot> Old =
        std::exchange(Slots, std::vector<Slot>(std::max<size_t>(
                                 16, 2 * Slots.size())));
    Shift = 64 - static_cast<unsigned>(std::countr_zero(Slots.size()));
    Used = 0;
    for (const Slot &S : Old)
      if (S.Stats != nullptr)
        insert(S.Size, S.Stats);
  }
  size_t I = slotOf(Size);
  while (Slots[I].Stats != nullptr)
    I = (I + 1) & (Slots.size() - 1);
  Slots[I] = {Size, Stats};
  ++Used;
}

void RoutineProfile::addActivation(const ActivationRecord &R) {
  assert(R.Trms >= R.Rms && "Inequality 1 (trms >= rms) violated");
  TrmsIndex.at(ByTrms, R.Trms).add(R.Cost);
  RmsIndex.at(ByRms, R.Rms).add(R.Cost);
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

uint64_t RoutineProfile::footprintBytes() const {
  // A std::map node: the CostStats, its key, three links and the color
  // word, and the allocator's header.
  constexpr uint64_t NodeBytes = sizeof(CostStats) + 48;
  return sizeof(RoutineProfile) + (ByTrms.size() + ByRms.size()) * NodeBytes +
         TrmsIndex.bytes() + RmsIndex.bytes();
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
