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
//
//===----------------------------------------------------------------------===//

#include "core/NaiveProfiler.h"
#include "core/TrmsProfiler.h"
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
