//===- tests/CorePropertyTest.cpp - Property-based profiler tests --------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Property-based validation of the read/write timestamping algorithm on
// randomly generated (but structurally valid) multithreaded traces:
//
//  P1. Equivalence with the Figure 10 naive set-based oracle: identical
//      ActivationRecords — same rms, trms, cost, and induced splits —
//      for every activation of every trace.
//  P2. Renumbering transparency: a tiny counter limit (forcing frequent
//      Figure 13 passes) changes nothing.
//  P3. Shadow-memory transparency: the dense hash shadow and the
//      three-level shadow give identical results.
//  P4. Inequality 1: trms >= rms for every activation.
//  P5. Determinism: running twice gives identical databases.
//  P6. Delivery transparency: the profiler fed through batched delivery
//      (compaction, the packed-word walk, its redundancy skip) matches
//      the per-event oracle, also under a tiny counter limit.
//  P7. Curve-index transparency: RoutineProfile, which reaches a cell
//      through its curve indexes, folds random activations into the same
//      curves and totals as a plain std::map fold, across rehashes,
//      copies, moves and merges.
//
//===----------------------------------------------------------------------===//

#include "core/NaiveProfiler.h"
#include "core/TrmsProfiler.h"
#include "support/Random.h"
#include "trace/Synthetic.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace isp;

namespace {

struct TraceShape {
  unsigned Threads;
  unsigned Routines;
  unsigned SharedAddresses;
  unsigned PrivateAddresses;
  uint64_t Operations;
  double KernelProbability;
};

class TrmsPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {
protected:
  std::vector<EventRecord> makeTrace() const {
    static const TraceShape Shapes[] = {
        {1, 4, 32, 16, 4000, 0.02},  // single-threaded, kernel I/O
        {2, 6, 16, 8, 6000, 0.00},   // two threads, no kernel
        {4, 8, 48, 24, 8000, 0.03},  // the default mix
        {8, 12, 24, 4, 9000, 0.05},  // many threads, hot shared pool
        {3, 5, 4, 2, 5000, 0.10},    // tiny address space, heavy reuse
    };
    SyntheticTraceOptions Opts;
    const TraceShape &Shape =
        Shapes[static_cast<size_t>(std::get<1>(GetParam()))];
    Opts.NumThreads = Shape.Threads;
    Opts.NumRoutines = Shape.Routines;
    Opts.SharedAddresses = Shape.SharedAddresses;
    Opts.PrivateAddresses = Shape.PrivateAddresses;
    Opts.NumOperations = Shape.Operations;
    Opts.KernelReadProbability = Shape.KernelProbability;
    Opts.KernelWriteProbability = Shape.KernelProbability;
    Opts.Seed = std::get<0>(GetParam());
    return generateSyntheticTrace(Opts);
  }
};

TEST_P(TrmsPropertyTest, MatchesNaiveOracle) {
  std::vector<EventRecord> Trace = makeTrace();

  TrmsProfilerOptions FastOpts;
  ProfileDatabase Fast = profileTrace<TrmsProfiler>(Trace, FastOpts);
  NaiveProfilerOptions NaiveOpts;
  ProfileDatabase Naive =
      profileTrace<NaiveTrmsProfiler>(Trace, NaiveOpts);

  ASSERT_EQ(Fast.log().size(), Naive.log().size());
  for (size_t I = 0; I != Fast.log().size(); ++I)
    ASSERT_EQ(Fast.log()[I], Naive.log()[I]) << "activation " << I;

  EXPECT_EQ(Fast.GlobalInducedThread, Naive.GlobalInducedThread);
  EXPECT_EQ(Fast.GlobalInducedExternal, Naive.GlobalInducedExternal);
  EXPECT_EQ(Fast.GlobalPlainFirstAccesses, Naive.GlobalPlainFirstAccesses);
  EXPECT_EQ(Fast.GlobalReads, Naive.GlobalReads);
}

TEST_P(TrmsPropertyTest, BatchedDeliveryMatchesNaiveOracle) {
  std::vector<EventRecord> Trace = makeTrace();
  NaiveProfilerOptions NaiveOpts;
  ProfileDatabase Naive =
      profileTrace<NaiveTrmsProfiler>(Trace, NaiveOpts);

  for (uint64_t Limit : {TrmsProfilerOptions().CounterLimit, uint64_t(256)}) {
    TrmsProfilerOptions Opts;
    Opts.CounterLimit = Limit;
    Opts.KeepActivationLog = true;
    TrmsProfiler Batched(Opts);
    // The live delivery path: compaction merges adjacent accesses
    // before the batches reach the profiler.
    EventDispatcher Dispatcher;
    Dispatcher.addTool(&Batched);
    Dispatcher.start(nullptr);
    for (const EventRecord &E : Trace)
      Dispatcher.enqueue(E);
    Dispatcher.finish();
    const ProfileDatabase &Fast = Batched.database();
    if (Limit == 256)
      EXPECT_GT(Batched.renumberings(), 0u);
    ASSERT_EQ(Fast.log().size(), Naive.log().size()) << "limit " << Limit;
    for (size_t I = 0; I != Fast.log().size(); ++I)
      ASSERT_EQ(Fast.log()[I], Naive.log()[I])
          << "activation " << I << ", limit " << Limit;
    EXPECT_EQ(Fast.GlobalInducedThread, Naive.GlobalInducedThread);
    EXPECT_EQ(Fast.GlobalInducedExternal, Naive.GlobalInducedExternal);
    EXPECT_EQ(Fast.GlobalPlainFirstAccesses, Naive.GlobalPlainFirstAccesses);
    EXPECT_EQ(Fast.GlobalReads, Naive.GlobalReads);
  }
}

TEST_P(TrmsPropertyTest, RenumberingIsTransparent) {
  std::vector<EventRecord> Trace = makeTrace();

  TrmsProfilerOptions BigOpts;
  TrmsProfilerOptions TinyOpts;
  TinyOpts.CounterLimit = 256;
  TinyOpts.KeepActivationLog = true;
  BigOpts.KeepActivationLog = true;

  TrmsProfiler Big(BigOpts), Tiny(TinyOpts);
  walkTrace(Trace, Big);
  walkTrace(Trace, Tiny);

  EXPECT_GT(Tiny.renumberings(), 0u);
  ASSERT_EQ(Big.database().log().size(), Tiny.database().log().size());
  for (size_t I = 0; I != Big.database().log().size(); ++I)
    ASSERT_EQ(Big.database().log()[I], Tiny.database().log()[I])
        << "activation " << I;
  EXPECT_EQ(Big.database().GlobalInducedThread,
            Tiny.database().GlobalInducedThread);
  EXPECT_EQ(Big.database().GlobalInducedExternal,
            Tiny.database().GlobalInducedExternal);
}

TEST_P(TrmsPropertyTest, ShadowChoiceIsTransparent) {
  std::vector<EventRecord> Trace = makeTrace();
  TrmsProfilerOptions Opts;
  ProfileDatabase ThreeLevel = profileTrace<TrmsProfiler>(Trace, Opts);
  ProfileDatabase Dense = profileTrace<DenseTrmsProfiler>(Trace, Opts);
  ASSERT_EQ(ThreeLevel.log().size(), Dense.log().size());
  for (size_t I = 0; I != ThreeLevel.log().size(); ++I)
    ASSERT_EQ(ThreeLevel.log()[I], Dense.log()[I]) << "activation " << I;
}

TEST_P(TrmsPropertyTest, TrmsAlwaysAtLeastRms) {
  std::vector<EventRecord> Trace = makeTrace();
  TrmsProfilerOptions Opts;
  ProfileDatabase Db = profileTrace<TrmsProfiler>(Trace, Opts);
  ASSERT_FALSE(Db.log().empty());
  for (const ActivationRecord &R : Db.log()) {
    EXPECT_GE(R.Trms, R.Rms);
    EXPECT_GE(R.Trms, R.InducedThread + R.InducedExternal);
  }
}

TEST_P(TrmsPropertyTest, Deterministic) {
  std::vector<EventRecord> Trace = makeTrace();
  TrmsProfilerOptions Opts;
  ProfileDatabase First = profileTrace<TrmsProfiler>(Trace, Opts);
  ProfileDatabase Second = profileTrace<TrmsProfiler>(Trace, Opts);
  ASSERT_EQ(First.log().size(), Second.log().size());
  for (size_t I = 0; I != First.log().size(); ++I)
    ASSERT_EQ(First.log()[I], Second.log()[I]);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTraces, TrmsPropertyTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3, 5, 8, 13, 21,
                                                   34, 55, 89),
                       ::testing::Values(0, 1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, int>> &Info) {
      return "seed" + std::to_string(std::get<0>(Info.param)) + "_shape" +
             std::to_string(std::get<1>(Info.param));
    });

} // namespace

//===----------------------------------------------------------------------===//
// P7. Curve-index transparency
//===----------------------------------------------------------------------===//

namespace {

using Curve = std::map<uint64_t, CostStats>;

/// The reference fold: every activation walks both maps, as
/// RoutineProfile did before its curve indexes.
struct TreeFold {
  Curve ByTrms, ByRms;
  uint64_t Activations = 0, SumRms = 0, SumTrms = 0;
  uint64_t InducedThread = 0, InducedExternal = 0, TotalCost = 0;

  void add(const ActivationRecord &R) {
    ByTrms[R.Trms].add(R.Cost);
    ByRms[R.Rms].add(R.Cost);
    ++Activations;
    SumRms += R.Rms;
    SumTrms += R.Trms;
    InducedThread += R.InducedThread;
    InducedExternal += R.InducedExternal;
    TotalCost += R.Cost;
  }

  void merge(const TreeFold &Other) {
    for (const auto &[Size, Stats] : Other.ByTrms)
      ByTrms[Size].merge(Stats);
    for (const auto &[Size, Stats] : Other.ByRms)
      ByRms[Size].merge(Stats);
    Activations += Other.Activations;
    SumRms += Other.SumRms;
    SumTrms += Other.SumTrms;
    InducedThread += Other.InducedThread;
    InducedExternal += Other.InducedExternal;
    TotalCost += Other.TotalCost;
  }
};

/// An activation whose rms is drawn from [Base, Base + Sizes) and whose
/// trms exceeds it by 0..2.
ActivationRecord randomActivation(Rng &R, uint64_t Base, uint64_t Sizes) {
  ActivationRecord A;
  A.Rms = Base + R.nextBelow(Sizes);
  A.Trms = A.Rms + R.nextBelow(3);
  A.Cost = R.nextBelow(1 << 20);
  A.InducedThread = R.nextBelow(4);
  A.InducedExternal = R.nextBelow(2);
  return A;
}

/// Folds \p N random activations into both \p P and \p F.
void foldBoth(RoutineProfile &P, TreeFold &F, uint64_t Seed, uint64_t N,
              uint64_t Base, uint64_t Sizes) {
  Rng R(Seed);
  for (uint64_t I = 0; I != N; ++I) {
    ActivationRecord A = randomActivation(R, Base, Sizes);
    P.addActivation(A);
    F.add(A);
  }
}

::testing::AssertionResult sameCurve(const Curve &Got, const Curve &Want) {
  if (Got.size() != Want.size())
    return ::testing::AssertionFailure()
           << Got.size() << " sizes, expected " << Want.size();
  for (auto G = Got.begin(), W = Want.begin(); G != Got.end(); ++G, ++W) {
    const CostStats &A = G->second, &B = W->second;
    if (G->first != W->first || A.Count != B.Count ||
        A.MinCost != B.MinCost || A.MaxCost != B.MaxCost ||
        A.SumCost != B.SumCost)
      return ::testing::AssertionFailure()
             << "size " << G->first << " (expected " << W->first
             << "): count " << A.Count << "/" << B.Count << ", min "
             << A.MinCost << "/" << B.MinCost << ", max " << A.MaxCost
             << "/" << B.MaxCost << ", sum " << A.SumCost << "/"
             << B.SumCost;
  }
  return ::testing::AssertionSuccess();
}

void expectSameFold(const RoutineProfile &P, const TreeFold &F) {
  EXPECT_TRUE(sameCurve(P.costByTrms(), F.ByTrms)) << "trms curve";
  EXPECT_TRUE(sameCurve(P.costByRms(), F.ByRms)) << "rms curve";
  EXPECT_EQ(P.activations(), F.Activations);
  EXPECT_EQ(P.sumRms(), F.SumRms);
  EXPECT_EQ(P.sumTrms(), F.SumTrms);
  EXPECT_EQ(P.inducedThread(), F.InducedThread);
  EXPECT_EQ(P.inducedExternal(), F.InducedExternal);
  EXPECT_EQ(P.totalCost(), F.TotalCost);
}

TEST(CurveIndex, FoldEqualsTreeFoldOnAKdtreeShapedCurve) {
  // About 150 distinct sizes over 30,000 activations: the shape of
  // kdtree's tree_count_range at benchmark size.
  RoutineProfile P;
  TreeFold F;
  foldBoth(P, F, 1, 30000, 0, 150);
  EXPECT_GE(P.distinctRmsValues(), 145u);
  expectSameFold(P, F);
}

TEST(CurveIndex, FoldEqualsTreeFoldThroughEveryRehash) {
  // 100,000 distinct sizes in one profile, each first met in random
  // order, so each index grows from 16 slots through every doubling;
  // the trms sizes are spread wide to vary the hashed bits. A second
  // pass then lands on rms sizes that are all in the index, and adds
  // small trms sizes to the wide ones.
  std::vector<uint64_t> Sizes(100000);
  for (uint64_t I = 0; I != Sizes.size(); ++I)
    Sizes[I] = I;
  Rng R(2);
  for (size_t I = Sizes.size() - 1; I > 0; --I)
    std::swap(Sizes[I], Sizes[R.nextBelow(I + 1)]);
  RoutineProfile P;
  TreeFold F;
  for (uint64_t Size : Sizes) {
    ActivationRecord A;
    A.Rms = Size;
    A.Trms = Size * 1000003;
    A.Cost = R.nextBelow(1000);
    P.addActivation(A);
    F.add(A);
  }
  EXPECT_EQ(P.distinctRmsValues(), 100000u);
  EXPECT_EQ(P.distinctTrmsValues(), 100000u);
  foldBoth(P, F, 3, 50000, 0, 100000);
  expectSameFold(P, F);
}

TEST(CurveIndex, CopiesAndMovesFoldIntoTheirOwnCurves) {
  // Each copy folds on after the copy; an index entry that still
  // pointed into another profile's map would add to that map instead.
  RoutineProfile Original;
  TreeFold OriginalF;
  foldBoth(Original, OriginalF, 10, 3000, 0, 200);

  RoutineProfile Copied(Original);
  TreeFold CopiedF = OriginalF;

  // Copy assignment over a profile with other sizes of its own: the map
  // may reuse those nodes for the copied sizes.
  RoutineProfile Assigned;
  TreeFold AssignedF;
  foldBoth(Assigned, AssignedF, 11, 2000, 500, 300);
  Assigned = Original;
  AssignedF = OriginalF;

  // Moves keep their index: fold into the source first so it is full.
  RoutineProfile Source(Original);
  TreeFold SourceF = OriginalF;
  foldBoth(Source, SourceF, 12, 1000, 0, 400);
  RoutineProfile Moved(std::move(Source));
  TreeFold MovedF = SourceF;

  RoutineProfile Source2(Original);
  TreeFold Source2F = OriginalF;
  foldBoth(Source2, Source2F, 13, 1000, 100, 400);
  RoutineProfile MoveAssigned;
  TreeFold MoveAssignedF;
  foldBoth(MoveAssigned, MoveAssignedF, 14, 500, 0, 50);
  MoveAssigned = std::move(Source2);
  MoveAssignedF = Source2F;

  foldBoth(Original, OriginalF, 20, 2000, 0, 600);
  foldBoth(Copied, CopiedF, 21, 2000, 0, 600);
  foldBoth(Assigned, AssignedF, 22, 2000, 0, 600);
  foldBoth(Moved, MovedF, 23, 2000, 0, 600);
  foldBoth(MoveAssigned, MoveAssignedF, 24, 2000, 0, 600);
  {
    SCOPED_TRACE("original");
    expectSameFold(Original, OriginalF);
  }
  {
    SCOPED_TRACE("copy-constructed");
    expectSameFold(Copied, CopiedF);
  }
  {
    SCOPED_TRACE("copy-assigned");
    expectSameFold(Assigned, AssignedF);
  }
  {
    SCOPED_TRACE("move-constructed");
    expectSameFold(Moved, MovedF);
  }
  {
    SCOPED_TRACE("move-assigned");
    expectSameFold(MoveAssigned, MoveAssignedF);
  }
}

TEST(CurveIndex, SizesAddedByMergeAreFoundOnFirstTouch) {
  // merge() adds to the maps directly; the activations after it land
  // on sizes the index has not seen but the map already holds.
  RoutineProfile P, Q;
  TreeFold PF, QF;
  foldBoth(P, PF, 30, 1000, 0, 100);
  foldBoth(Q, QF, 31, 1000, 50, 150);
  P.merge(Q);
  PF.merge(QF);
  foldBoth(P, PF, 32, 3000, 0, 250);
  expectSameFold(P, PF);
  // The merged-from profile is untouched and still folds on its own.
  foldBoth(Q, QF, 33, 1000, 0, 250);
  expectSameFold(Q, QF);
}

} // namespace
