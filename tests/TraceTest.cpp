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
  std::vector<std::vector<EventRecord>> Traces(2);
  Traces[0] = {EventRecord::call(0, 1, 0), EventRecord::read(0, 5, 10),
               EventRecord::ret(0, 9, 0, 0)};
  Traces[1] = {EventRecord::call(1, 2, 1), EventRecord::write(1, 6, 10),
               EventRecord::ret(1, 7, 1, 0)};
  TraceMergeOptions Opts;
  Opts.InsertThreadSwitches = false;
  std::vector<EventRecord> Merged = mergeTraces(Traces, Opts);
  ASSERT_EQ(Merged.size(), 6u);
  for (size_t I = 1; I != Merged.size(); ++I)
    EXPECT_LE(Merged[I - 1].Time, Merged[I].Time);
  EXPECT_EQ(Merged[0].Time, 1u);
  EXPECT_EQ(Merged[5].Time, 9u);
}

TEST(TraceMerger, InsertsThreadSwitches) {
  std::vector<std::vector<EventRecord>> Traces(2);
  Traces[0] = {EventRecord::read(0, 1, 10), EventRecord::read(0, 3, 11)};
  Traces[1] = {EventRecord::read(1, 2, 20)};
  std::vector<EventRecord> Merged = mergeTraces(Traces);
  // r0, switch(1), r1, switch(0), r0.
  ASSERT_EQ(Merged.size(), 5u);
  EXPECT_EQ(Merged[1].Kind, EventKind::ThreadSwitch);
  EXPECT_EQ(Merged[1].Arg0, 1u);
  EXPECT_EQ(Merged[3].Kind, EventKind::ThreadSwitch);
  EXPECT_EQ(Merged[3].Arg0, 0u);
}

TEST(TraceMerger, TieBreakByThreadId) {
  std::vector<std::vector<EventRecord>> Traces(2);
  Traces[0] = {EventRecord::read(7, 5, 1)};
  Traces[1] = {EventRecord::read(3, 5, 2)};
  TraceMergeOptions Opts;
  Opts.InsertThreadSwitches = false;
  std::vector<EventRecord> Merged = mergeTraces(Traces, Opts);
  ASSERT_EQ(Merged.size(), 2u);
  EXPECT_EQ(Merged[0].Tid, 3u);
  EXPECT_EQ(Merged[1].Tid, 7u);
}

TEST(TraceMerger, SeededRandomTieBreakIsDeterministic) {
  std::vector<std::vector<EventRecord>> Traces(3);
  for (ThreadId T = 0; T != 3; ++T)
    for (uint64_t Time = 1; Time != 40; ++Time)
      Traces[T].push_back(EventRecord::read(T, Time, 100 + T));
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
      if (E.Kind == EventKind::ThreadSwitch)
        continue;
      size_t &Pos = Cursor[E.Tid];
      bool Found = false;
      for (const auto &Trace : PerThread) {
        if (!Trace.empty() && Trace.front().Tid == E.Tid) {
          ASSERT_LT(Pos, Trace.size());
          EXPECT_EQ(Trace[Pos], E);
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
  // Synthetic traces have unique timestamps, so split + merge must
  // reproduce them exactly (modulo inserted switches).
  SyntheticTraceOptions Gen;
  Gen.NumThreads = 3;
  Gen.NumOperations = 3000;
  Gen.Seed = 11;
  std::vector<EventRecord> Original = generateSyntheticTrace(Gen);
  TraceMergeOptions Opts;
  Opts.InsertThreadSwitches = false;
  std::vector<EventRecord> Merged = mergeTraces(splitByThread(Original), Opts);
  EXPECT_EQ(Original, Merged);
}

TEST(TraceMerger, VerifyCatchesBadInput) {
  std::vector<std::vector<EventRecord>> Mixed(1);
  Mixed[0] = {EventRecord::read(0, 5, 1), EventRecord::read(1, 6, 1)};
  EXPECT_FALSE(verifyThreadTraces(Mixed));
  std::vector<std::vector<EventRecord>> Unsorted(1);
  Unsorted[0] = {EventRecord::read(0, 5, 1), EventRecord::read(0, 4, 1)};
  EXPECT_FALSE(verifyThreadTraces(Unsorted));
  std::vector<std::vector<EventRecord>> Good(1);
  Good[0] = {EventRecord::read(0, 4, 1), EventRecord::read(0, 4, 2)};
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
  uint64_t LastTime = 0;
  for (const EventRecord &E : Trace) {
    EXPECT_GT(E.Time, LastTime) << "timestamps must be strictly increasing";
    LastTime = E.Time;
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
  EXPECT_STREQ(eventKindName(EventKind::ThreadSwitch), "ThreadSwitch");
}

//===----------------------------------------------------------------------===//
// Packed 16-byte stream words
//===----------------------------------------------------------------------===//

static_assert(sizeof(Event) == 16, "packed stream word layout regressed");
static_assert(Event::MaxWordsPerRecord == 3,
              "a record is at most escape + main + follow-on");

TEST(PackedEvent, SingleCellAccessIsOneWord) {
  // The dominant events — single-cell accesses, fresh basic blocks with
  // inline tids and in-epoch times — must stay one 16-byte word.
  EventEncoder Enc;
  Event Words[Event::MaxWordsPerRecord];
  EXPECT_EQ(Enc.encode(EventRecord::read(7, 100, 0x1234), Words), 1u);
  EXPECT_EQ(Words[0].kind(), EventKind::Read);
  EXPECT_EQ(Words[0].inlineTid(), 7u);
  EXPECT_EQ(Words[0].TimeLow, 100u);
  EXPECT_EQ(Words[0].Arg, 0x1234u);
  EXPECT_FALSE(Words[0].hasFollow());
  EXPECT_EQ(Enc.encode(EventRecord::basicBlock(7, 101), Words), 1u);
  EXPECT_EQ(Words[0].Arg, 1u) << "block count rides in the main word";
}

TEST(PackedEvent, TimeEpochEscapeRoundTrip) {
  // Non-decreasing times that cross a 32-bit boundary decode through
  // the implicit wrap rule (no escape word); a discontinuous jump in
  // the high half forces an explicit escape word.
  uint64_t Wrap = uint64_t(1) << 32;
  std::vector<EventRecord> Records = {
      EventRecord::read(1, Wrap - 2, 10),  // needs escape: epoch 0 -> 0? no:
                                           // first event, hi=0 == inferred 0
      EventRecord::write(1, Wrap - 1, 11), // still epoch 0
      EventRecord::read(1, Wrap + 5, 12),  // low wrapped: implicit bump
      EventRecord::read(1, 3 * Wrap + 7, 13), // jump: explicit escape
      EventRecord::write(1, 3 * Wrap + 7, 14),
  };
  std::vector<Event> Words = encodeEventStream(Records);
  size_t Escapes = 0;
  for (const Event &W : Words)
    Escapes += W.isEscape() ? 1 : 0;
  EXPECT_EQ(Escapes, 1u) << "only the epoch jump needs an escape word";
  EXPECT_EQ(decodeEventStream(Words), Records);
  EXPECT_EQ(packedEventCount(Words), Records.size());
}

TEST(PackedEvent, FollowOnWordFuzz) {
  // Randomized round-trip over the encoder's three follow-on triggers:
  // non-default second argument, >24-bit thread id, and both at once.
  std::mt19937_64 Rng(0xfeedULL);
  std::vector<EventRecord> Records;
  uint64_t Time = 0;
  for (int I = 0; I != 5000; ++I) {
    EventRecord E;
    switch (Rng() % 5) {
    case 0:
      E = EventRecord::read(static_cast<ThreadId>(Rng() % (1u << 26)), Time,
                            Rng() % 1000000, 1 + Rng() % 64);
      break;
    case 1:
      E = EventRecord::write(static_cast<ThreadId>(Rng() % 16), Time,
                             Rng() % 1000000, 1); // default cells: one word
      break;
    case 2:
      E = EventRecord::basicBlock(static_cast<ThreadId>(Rng() % 16), Time,
                                  1 + Rng() % 100);
      break;
    case 3:
      E = EventRecord::ret(static_cast<ThreadId>(Rng() % (1u << 25)), Time,
                           static_cast<RoutineId>(Rng() % 100), Rng() % 5000);
      break;
    default:
      E = EventRecord::syncAcquire(static_cast<ThreadId>(Rng() % 16), Time,
                                   static_cast<SyncId>(Rng() % 8),
                                   (Rng() & 1) != 0);
      break;
    }
    Records.push_back(E);
    Time += Rng() % 3; // non-decreasing, with occasional ties
    if (I % 1000 == 999)
      Time += (uint64_t(1) << 32) / 2; // march toward epoch wraps
  }
  std::vector<Event> Words = encodeEventStream(Records);
  EXPECT_EQ(decodeEventStream(Words), Records);
  EXPECT_EQ(packedEventCount(Words), Records.size());
  // Big tids must spill the full id into the follow-on word.
  EventEncoder Enc;
  Event W[Event::MaxWordsPerRecord];
  EventRecord Big = EventRecord::read(Event::MaxInlineTid + 5, 1, 99);
  ASSERT_EQ(Enc.encode(Big, W), 2u);
  EXPECT_TRUE(W[0].hasFollow());
  EXPECT_EQ(W[1].TimeLow, Event::MaxInlineTid + 5);
  EventDecoder Dec;
  EventRecord Back;
  ASSERT_EQ(Dec.decode(W, 2, Back), 2u);
  EXPECT_EQ(Back, Big);
}

} // namespace
