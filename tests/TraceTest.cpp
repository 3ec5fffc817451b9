//===- tests/TraceTest.cpp - Trace model, merger, packed events ----------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "trace/Event.h"
#include "trace/Synthetic.h"
#include "trace/TraceMerger.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace isp;

namespace {

//===----------------------------------------------------------------------===//
// Merger (Section 4)
//===----------------------------------------------------------------------===//

TEST(TraceMerger, InterleavesByTimestamp) {
  std::vector<std::vector<TimedEvent>> Traces(2);
  Traces[0] = {{1, EventRecord::call(0, 0)},
               {5, EventRecord::read(0, 10)},
               {9, EventRecord::ret(0, 0, 0)}};
  Traces[1] = {{2, EventRecord::call(1, 1)},
               {6, EventRecord::write(1, 10)},
               {7, EventRecord::ret(1, 1, 0)}};
  std::vector<EventRecord> Merged = mergeTraces(Traces);
  std::vector<EventRecord> Expected = {
      EventRecord::call(0, 0),   EventRecord::call(1, 1),
      EventRecord::read(0, 10),  EventRecord::write(1, 10),
      EventRecord::ret(1, 1, 0), EventRecord::ret(0, 0, 0)};
  EXPECT_EQ(Merged, Expected);
}

TEST(TraceMerger, TieBreakByThreadId) {
  std::vector<std::vector<TimedEvent>> Traces(2);
  Traces[0] = {{5, EventRecord::read(7, 1)}};
  Traces[1] = {{5, EventRecord::read(3, 2)}};
  std::vector<EventRecord> Merged = mergeTraces(Traces);
  ASSERT_EQ(Merged.size(), 2u);
  EXPECT_EQ(Merged[0].Tid, 3u);
  EXPECT_EQ(Merged[1].Tid, 7u);
}

TEST(TraceMerger, SeededRandomTieBreakIsDeterministic) {
  std::vector<std::vector<TimedEvent>> Traces(3);
  for (ThreadId T = 0; T != 3; ++T)
    for (uint64_t Time = 1; Time != 40; ++Time)
      Traces[T].push_back({Time, EventRecord::read(T, 100 + T)});
  TraceMergeOptions Opts;
  Opts.Policy = TieBreakPolicy::SeededRandom;
  Opts.Seed = 99;
  std::vector<EventRecord> A = mergeTraces(Traces, Opts);
  std::vector<EventRecord> B = mergeTraces(Traces, Opts);
  EXPECT_EQ(A, B);
  Opts.Seed = 100;
  std::vector<EventRecord> C = mergeTraces(Traces, Opts);
  EXPECT_NE(A, C);
}

TEST(TraceMerger, PreservesPerThreadOrderUnderAnyPolicy) {
  SyntheticTraceOptions Gen;
  Gen.NumThreads = 4;
  Gen.NumOperations = 2000;
  Gen.Seed = 5;
  std::vector<EventRecord> Original = generateSyntheticTrace(Gen);
  auto PerThread = splitByThread(Original);
  for (TieBreakPolicy Policy :
       {TieBreakPolicy::ByThreadId, TieBreakPolicy::RoundRobin,
        TieBreakPolicy::SeededRandom}) {
    TraceMergeOptions Opts;
    Opts.Policy = Policy;
    std::vector<EventRecord> Merged = mergeTraces(PerThread, Opts);
    // Per-thread subsequences must match the originals exactly.
    std::map<ThreadId, size_t> Cursor;
    for (const EventRecord &E : Merged) {
      size_t &Pos = Cursor[E.Tid];
      bool Found = false;
      for (const auto &Trace : PerThread) {
        if (!Trace.empty() && Trace.front().Record.Tid == E.Tid) {
          ASSERT_LT(Pos, Trace.size());
          EXPECT_EQ(Trace[Pos].Record, E);
          Found = true;
          break;
        }
      }
      EXPECT_TRUE(Found);
      ++Pos;
    }
  }
}

TEST(TraceMerger, SyntheticRoundTripsExactly) {
  // splitByThread times each record by its position, so split + merge
  // must reproduce the trace exactly.
  SyntheticTraceOptions Gen;
  Gen.NumThreads = 3;
  Gen.NumOperations = 3000;
  Gen.Seed = 11;
  std::vector<EventRecord> Original = generateSyntheticTrace(Gen);
  EXPECT_EQ(Original, mergeTraces(splitByThread(Original)));
}

TEST(TraceMerger, VerifyCatchesBadInput) {
  std::vector<std::vector<TimedEvent>> Mixed(1);
  Mixed[0] = {{5, EventRecord::read(0, 1)}, {6, EventRecord::read(1, 1)}};
  EXPECT_FALSE(verifyThreadTraces(Mixed));
  std::vector<std::vector<TimedEvent>> Unsorted(1);
  Unsorted[0] = {{5, EventRecord::read(0, 1)}, {4, EventRecord::read(0, 1)}};
  EXPECT_FALSE(verifyThreadTraces(Unsorted));
  std::vector<std::vector<TimedEvent>> Good(1);
  Good[0] = {{4, EventRecord::read(0, 1)}, {4, EventRecord::read(0, 2)}};
  EXPECT_TRUE(verifyThreadTraces(Good));
}

//===----------------------------------------------------------------------===//
// Synthetic generator validity
//===----------------------------------------------------------------------===//

class SyntheticValidityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SyntheticValidityTest, TracesAreWellFormed) {
  SyntheticTraceOptions Gen;
  Gen.NumThreads = 1 + GetParam() % 7;
  Gen.NumOperations = 3000;
  Gen.Seed = GetParam();
  std::vector<EventRecord> Trace = generateSyntheticTrace(Gen);

  std::map<ThreadId, int> Depth;
  std::map<ThreadId, bool> Started, Ended;
  for (const EventRecord &E : Trace) {
    switch (E.Kind) {
    case EventKind::ThreadStart:
      EXPECT_FALSE(Started[E.Tid]);
      Started[E.Tid] = true;
      break;
    case EventKind::ThreadEnd:
      EXPECT_EQ(Depth[E.Tid], 0) << "all calls must return before end";
      Ended[E.Tid] = true;
      break;
    case EventKind::Call:
      ++Depth[E.Tid];
      break;
    case EventKind::Return:
      --Depth[E.Tid];
      EXPECT_GE(Depth[E.Tid], 0);
      break;
    case EventKind::Read:
    case EventKind::Write:
    case EventKind::KernelRead:
    case EventKind::KernelWrite:
      EXPECT_TRUE(Started[E.Tid]);
      EXPECT_FALSE(Ended[E.Tid]);
      EXPECT_GT(Depth[E.Tid], 0) << "memory ops only inside activations";
      break;
    default:
      break;
    }
  }
  for (auto &[Tid, WasStarted] : Started)
    EXPECT_TRUE(Ended[Tid]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticValidityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 10, 20, 40));

TEST(EventModel, KindNamesAreDistinct) {
  EXPECT_STREQ(eventKindName(EventKind::Call), "Call");
  EXPECT_STREQ(eventKindName(EventKind::KernelWrite), "KernelWrite");
  EXPECT_STREQ(eventKindName(EventKind::Free), "Free");
}

//===----------------------------------------------------------------------===//
// Packed 16-byte stream words
//===----------------------------------------------------------------------===//

static_assert(sizeof(Event) == 16, "packed stream word layout regressed");
static_assert(Event::MaxWordsPerRecord == 2,
              "a record is at most main + follow-on");

TEST(PackedEvent, SingleCellAccessIsOneWord) {
  // The dominant events — single-cell accesses and fresh basic blocks —
  // must stay one 16-byte word, with the full thread id inline.
  Event Words[Event::MaxWordsPerRecord];
  EXPECT_EQ(encodeEvent(EventRecord::read(MaxThreadId, 0x1234), Words), 1u);
  EXPECT_EQ(Words[0].kind(), EventKind::Read);
  EXPECT_EQ(Words[0].Tid, MaxThreadId);
  EXPECT_EQ(Words[0].Arg, 0x1234u);
  EXPECT_FALSE(Words[0].hasFollow());
  EXPECT_EQ(encodeEvent(EventRecord::basicBlock(7), Words), 1u);
  EXPECT_EQ(Words[0].Arg, 1u) << "block count rides in the main word";
}

TEST(PackedEvent, FollowOnWordFuzz) {
  // Randomized round-trip over records with and without the follow-on
  // word (a non-default second argument), across the full tid range.
  std::mt19937_64 Rng(0xfeedULL);
  std::vector<EventRecord> Records;
  for (int I = 0; I != 5000; ++I) {
    EventRecord E;
    ThreadId Tid = static_cast<ThreadId>(Rng());
    switch (Rng() % 5) {
    case 0:
      E = EventRecord::read(Tid, Rng() % 1000000, 1 + Rng() % 64);
      break;
    case 1:
      E = EventRecord::write(Tid, Rng() % 1000000, 1); // default: one word
      break;
    case 2:
      E = EventRecord::basicBlock(Tid, 1 + Rng() % 100);
      break;
    case 3:
      E = EventRecord::ret(Tid, static_cast<RoutineId>(Rng() % 100),
                           Rng() % 5000);
      break;
    default:
      E = EventRecord::syncAcquire(Tid, static_cast<SyncId>(Rng() % 8),
                                   (Rng() & 1) != 0);
      break;
    }
    Records.push_back(E);
  }
  std::vector<Event> Words = encodeEventStream(Records);
  EXPECT_EQ(decodeEventStream(Words), Records);
  EXPECT_EQ(packedEventCount(Words), Records.size());
  // A main word whose follow-on is cut off is no record.
  EXPECT_EQ(packedEventCount(Words.data(), 1),
            Words[0].hasFollow() ? 0u : 1u);
  EventRecord Back;
  Event Cut = {static_cast<uint32_t>(EventKind::Read) | Event::FollowBit, 3,
               10};
  EXPECT_EQ(decodeEvent(&Cut, 1, Back), 0u);
  EXPECT_EQ(packedEventCount(&Cut, 1), 0u);
}

} // namespace
