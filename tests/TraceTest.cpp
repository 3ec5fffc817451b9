//===- tests/TraceTest.cpp - Trace model, merger, serialization ----------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "trace/Event.h"
#include "trace/Synthetic.h"
#include "trace/TraceFile.h"
#include "trace/TraceMerger.h"

#include <gtest/gtest.h>

#include <cstdio>
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
// Serialization
//===----------------------------------------------------------------------===//

TEST(TraceFile, InMemoryRoundTrip) {
  TraceData Data;
  Data.Routines = {{0, "main"}, {1, "worker"}};
  SyntheticTraceOptions Gen;
  Gen.NumOperations = 500;
  Gen.Seed = 3;
  Data.Events = generateSyntheticTrace(Gen);

  std::string Bytes = serializeTrace(Data);
  TraceData Back;
  ASSERT_TRUE(deserializeTrace(Bytes, Back));
  EXPECT_EQ(Back.Routines, Data.Routines);
  EXPECT_EQ(Back.Events, Data.Events);
}

TEST(TraceFile, RejectsCorruptInput) {
  TraceData Data;
  Data.Events = {EventRecord::read(0, 1, 1)};
  std::string Bytes = serializeTrace(Data);

  TraceData Back;
  EXPECT_FALSE(deserializeTrace("not a trace", Back));
  EXPECT_FALSE(deserializeTrace(Bytes.substr(0, Bytes.size() - 3), Back));
  std::string BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_FALSE(deserializeTrace(BadMagic, Back));
  std::string BadKind = Bytes;
  BadKind[8 + 4 + 8] = 120; // event kind byte out of range
  EXPECT_FALSE(deserializeTrace(BadKind, Back));
}

TEST(TraceFile, RejectsMismatchedCallNesting) {
  // The profilers assert on a Return that closes another routine than
  // its thread's innermost open Call; both formats refuse such a trace.
  // A Return with no open Call, a Return on another thread, and a Return
  // after ThreadEnd closed the frames stay legal.
  TraceData Bad;
  Bad.Routines = {{1, "a"}, {2, "b"}};
  Bad.Events = {EventRecord::threadStart(0, 1, 0), EventRecord::call(0, 2, 1),
                EventRecord::read(0, 3, 100), EventRecord::ret(0, 4, 2, 0),
                EventRecord::threadEnd(0, 5)};
  TraceData Legal = Bad;
  Legal.Events = {EventRecord::ret(0, 1, 2, 0),    EventRecord::call(0, 2, 1),
                  EventRecord::ret(1, 3, 2, 0),    EventRecord::threadEnd(0, 4),
                  EventRecord::ret(0, 5, 2, 0),    EventRecord::call(0, 6, 1),
                  EventRecord::ret(0, 7, 1, 0)};
  // Twenty nested activations (deeper than a stack's first allocation)
  // with a ThreadStart in the middle, which moves no stack; then the
  // same nest with its innermost Return naming the outer routine.
  TraceData Deep = Legal, DeepBad = Legal;
  Deep.Events.clear();
  uint64_t Time = 1;
  for (RoutineId R = 0; R != 20; ++R)
    Deep.Events.push_back(EventRecord::call(3, Time++, R));
  Deep.Events.push_back(EventRecord::threadStart(3, Time++, 0));
  DeepBad.Events = Deep.Events;
  DeepBad.Events.push_back(EventRecord::ret(3, Time, 0, 0));
  for (RoutineId R = 20; R-- != 0;)
    Deep.Events.push_back(EventRecord::ret(3, Time++, R, 0));
  for (TraceFormat Format : {TraceFormat::Raw, TraceFormat::Compressed}) {
    TraceData Back;
    EXPECT_FALSE(deserializeTrace(serializeTrace(Bad, Format), Back));
    EXPECT_FALSE(deserializeTrace(serializeTrace(DeepBad, Format), Back));
    ASSERT_TRUE(deserializeTrace(serializeTrace(Legal, Format), Back));
    EXPECT_EQ(Back.Events, Legal.Events);
    ASSERT_TRUE(deserializeTrace(serializeTrace(Deep, Format), Back));
    EXPECT_EQ(Back.Events, Deep.Events);
  }
  std::string Path = ::testing::TempDir() + "isprof_trace_nesting.bin";
  ASSERT_TRUE(writeTraceFile(Path, Bad));
  TraceData Back;
  EXPECT_FALSE(readTraceFile(Path, Back));
  std::remove(Path.c_str());
}

TEST(TraceFile, FileRoundTrip) {
  TraceData Data;
  Data.Routines = {{0, "f"}};
  Data.Events = {EventRecord::call(0, 1, 0), EventRecord::ret(0, 2, 0, 0)};
  std::string Path = ::testing::TempDir() + "isprof_trace_test.bin";
  ASSERT_TRUE(writeTraceFile(Path, Data));
  TraceData Back;
  ASSERT_TRUE(readTraceFile(Path, Back));
  EXPECT_EQ(Back.Events, Data.Events);
  std::remove(Path.c_str());
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

//===----------------------------------------------------------------------===//
// Compressed (v2) trace format
//===----------------------------------------------------------------------===//

namespace {

TraceData makeSampleTrace(uint64_t Operations, uint64_t Seed) {
  TraceData Data;
  Data.Routines = {{0, "main"}, {1, "worker"}, {2, "very_long_routine_name"}};
  SyntheticTraceOptions Gen;
  Gen.NumThreads = 4;
  Gen.NumOperations = Operations;
  Gen.Seed = Seed;
  Data.Events = generateSyntheticTrace(Gen);
  return Data;
}

TEST(TraceFileV2, RoundTripsExactly) {
  TraceData Data = makeSampleTrace(4000, 9);
  std::string Bytes = serializeTrace(Data, TraceFormat::Compressed);
  TraceData Back;
  ASSERT_TRUE(deserializeTrace(Bytes, Back));
  EXPECT_EQ(Back.Routines, Data.Routines);
  EXPECT_EQ(Back.Events, Data.Events);
}

TEST(TraceFileV2, SubstantiallySmallerThanRaw) {
  TraceData Data = makeSampleTrace(20000, 10);
  size_t Raw = serializeTrace(Data, TraceFormat::Raw).size();
  size_t Compressed =
      serializeTrace(Data, TraceFormat::Compressed).size();
  EXPECT_LT(Compressed * 3, Raw)
      << "raw " << Raw << " vs compressed " << Compressed;
}

TEST(TraceFileV2, RejectsCorruptInput) {
  TraceData Data = makeSampleTrace(100, 11);
  std::string Bytes = serializeTrace(Data, TraceFormat::Compressed);
  TraceData Back;
  EXPECT_FALSE(
      deserializeTrace(Bytes.substr(0, Bytes.size() - 2), Back));
  std::string Grown = Bytes + "x";
  EXPECT_FALSE(deserializeTrace(Grown, Back));
  std::string BadKind = Bytes;
  // Find the first event's kind byte and corrupt it. The header is
  // magic + varints, so corrupt a byte late in the stream instead and
  // accept either failure or a changed payload — the contract is "never
  // crash, never silently accept truncation".
  BadKind[BadKind.size() / 2] = static_cast<char>(0xff);
  TraceData Whatever;
  (void)deserializeTrace(BadKind, Whatever);
}

TEST(TraceFileV2, FileRoundTripDefaultsToCompressed) {
  TraceData Data = makeSampleTrace(500, 12);
  std::string Path = ::testing::TempDir() + "isprof_trace_v2.bin";
  ASSERT_TRUE(writeTraceFile(Path, Data)); // default: compressed
  TraceData Back;
  ASSERT_TRUE(readTraceFile(Path, Back));
  EXPECT_EQ(Back.Events, Data.Events);
  std::remove(Path.c_str());
}

TEST(TraceFileV2, BothFormatsInteroperate) {
  TraceData Data = makeSampleTrace(800, 13);
  for (TraceFormat Format : {TraceFormat::Raw, TraceFormat::Compressed}) {
    std::string Bytes = serializeTrace(Data, Format);
    TraceData Back;
    ASSERT_TRUE(deserializeTrace(Bytes, Back));
    EXPECT_EQ(Back.Events, Data.Events);
  }
}

//===----------------------------------------------------------------------===//
// Codec hardening: adversarial inputs must be rejected, never trusted
//===----------------------------------------------------------------------===//

/// Unsigned LEB128 append, mirroring the writer, for hand-building
/// hostile streams.
void appendVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

std::string v2Header() { return std::string("ISPTRC02", 8); }

/// A syntactically complete v2 event: kind 0 plus four varints.
void appendEvent(std::string &Out, uint64_t Tid, uint64_t TimeDelta,
                 uint64_t Arg0Zigzag, uint64_t Arg1) {
  Out.push_back(0); // smallest valid kind
  appendVarint(Out, Tid);
  appendVarint(Out, TimeDelta);
  appendVarint(Out, Arg0Zigzag);
  appendVarint(Out, Arg1);
}

TEST(TraceCodecHardening, RejectsOverlongVarint) {
  // Eleven continuation bytes: more than any uint64 can need.
  std::string Bytes = v2Header();
  for (int I = 0; I != 11; ++I)
    Bytes.push_back(static_cast<char>(0x81));
  Bytes.push_back(0x00);
  TraceData Back;
  EXPECT_FALSE(deserializeTrace(Bytes, Back));

  // Ten bytes, but the tenth carries a payload bit past bit 63 — the
  // classic overlong encoding that used to wrap silently.
  std::string Wrap = v2Header();
  for (int I = 0; I != 9; ++I)
    Wrap.push_back(static_cast<char>(0x80));
  Wrap.push_back(0x02); // bit 64
  EXPECT_FALSE(deserializeTrace(Wrap, Back));

  // A continuation bit on the tenth byte is just as overlong.
  std::string Cont = v2Header();
  for (int I = 0; I != 10; ++I)
    Cont.push_back(static_cast<char>(0x80));
  Cont.push_back(0x00);
  EXPECT_FALSE(deserializeTrace(Cont, Back));
}

TEST(TraceCodecHardening, AcceptsMaximalTenByteVarint) {
  // UINT64_MAX encodes as nine 0xff bytes plus 0x01 — legal, and must
  // keep working after the overlong rejection. Exercised through a real
  // event: TimeDelta = UINT64_MAX.
  std::string Bytes = v2Header();
  appendVarint(Bytes, 0); // routines
  appendVarint(Bytes, 1); // events
  Bytes.push_back(0);
  appendVarint(Bytes, 7); // tid
  for (int I = 0; I != 9; ++I)
    Bytes.push_back(static_cast<char>(0xff));
  Bytes.push_back(0x01);  // time delta = UINT64_MAX
  appendVarint(Bytes, 0); // arg0 zigzag
  appendVarint(Bytes, 0); // arg1
  TraceData Back;
  ASSERT_TRUE(deserializeTrace(Bytes, Back));
  ASSERT_EQ(Back.Events.size(), 1u);
  EXPECT_EQ(Back.Events[0].Time, UINT64_MAX);
  EXPECT_EQ(Back.Events[0].Tid, 7u);
}

TEST(TraceCodecHardening, RejectsOversizedThreadId) {
  // ThreadId is 32-bit; a Tid of 2^32 must fail loudly instead of
  // truncating to 0.
  std::string Bytes = v2Header();
  appendVarint(Bytes, 0); // routines
  appendVarint(Bytes, 1); // events
  appendEvent(Bytes, uint64_t(1) << 32, 1, 0, 0);
  TraceData Back;
  EXPECT_FALSE(deserializeTrace(Bytes, Back));

  // The largest representable Tid stays accepted.
  std::string Ok = v2Header();
  appendVarint(Ok, 0);
  appendVarint(Ok, 1);
  appendEvent(Ok, UINT32_MAX, 1, 0, 0);
  ASSERT_TRUE(deserializeTrace(Ok, Back));
  ASSERT_EQ(Back.Events.size(), 1u);
  EXPECT_EQ(Back.Events[0].Tid, UINT32_MAX);
}

TEST(TraceCodecHardening, RejectsOversizedRoutineId) {
  std::string Bytes = v2Header();
  appendVarint(Bytes, 1);                 // one routine
  appendVarint(Bytes, uint64_t(1) << 33); // id > UINT32_MAX
  appendVarint(Bytes, 1);                 // name length
  Bytes.push_back('f');
  appendVarint(Bytes, 0); // events
  TraceData Back;
  EXPECT_FALSE(deserializeTrace(Bytes, Back));
}

TEST(TraceCodecHardening, RejectsHugeEventCountWithoutAllocating) {
  // An EventCount of 2^60 over a few payload bytes must be rejected
  // before Events.reserve() tries to honour it. (If the clamp were
  // missing this test would OOM, not just fail.)
  std::string V2 = v2Header();
  appendVarint(V2, 0);              // routines
  appendVarint(V2, uint64_t(1) << 60);
  appendEvent(V2, 0, 1, 0, 0);      // one real event, not 2^60
  TraceData Back;
  EXPECT_FALSE(deserializeTrace(V2, Back));

  std::string Raw("ISPTRC01", 8);
  for (int I = 0; I != 4; ++I)
    Raw.push_back(0); // routine count u32 = 0
  uint64_t Count = uint64_t(1) << 60;
  for (int I = 0; I != 8; ++I)
    Raw.push_back(static_cast<char>((Count >> (8 * I)) & 0xff));
  Raw.append(29, '\0'); // one event's worth of payload
  EXPECT_FALSE(deserializeTrace(Raw, Back));
}

TEST(TraceCodecHardening, RejectsHugeRoutineCountAndLength) {
  std::string V2 = v2Header();
  appendVarint(V2, uint64_t(1) << 50); // routine count nothing can back
  TraceData Back;
  EXPECT_FALSE(deserializeTrace(V2, Back));

  // Raw format: a routine whose claimed name length exceeds the file.
  std::string Raw("ISPTRC01", 8);
  Raw.push_back(1);
  Raw.append(3, '\0'); // routine count u32 = 1
  Raw.append(4, '\0'); // id = 0
  Raw.append(4, static_cast<char>(0xff)); // length = UINT32_MAX
  Raw.append("abc", 3);
  EXPECT_FALSE(deserializeTrace(Raw, Back));
}

TEST(TraceCodecHardening, TruncationFuzzNeverCrashes) {
  TraceData Data = makeSampleTrace(300, 21);
  for (TraceFormat Format : {TraceFormat::Raw, TraceFormat::Compressed}) {
    std::string Bytes = serializeTrace(Data, Format);
    for (size_t Len = 0; Len < Bytes.size(); Len += 7) {
      TraceData Back;
      // Every proper prefix is missing bytes the header promises.
      EXPECT_FALSE(deserializeTrace(Bytes.substr(0, Len), Back))
          << "prefix of length " << Len << " accepted";
    }
  }
}

TEST(TraceCodecHardening, BitFlipFuzzNeverCrashes) {
  TraceData Data = makeSampleTrace(200, 22);
  for (TraceFormat Format : {TraceFormat::Raw, TraceFormat::Compressed}) {
    std::string Bytes = serializeTrace(Data, Format);
    for (size_t Pos = 0; Pos < Bytes.size(); Pos += 3) {
      for (int Bit : {0, 3, 7}) {
        std::string Mutated = Bytes;
        Mutated[Pos] = static_cast<char>(Mutated[Pos] ^ (1 << Bit));
        TraceData Back;
        // Acceptance is fine when the flip lands in a payload byte; the
        // contract is no crash, no unbounded allocation.
        (void)deserializeTrace(Mutated, Back);
      }
    }
  }
}

TEST(TraceCodecHardening, ExtremeFieldValuesRoundTrip) {
  // Arguments that carry no guest address may take any 64-bit value.
  TraceData Data;
  Data.Routines = {{UINT32_MAX, "edge"}};
  EventRecord E;
  E.Kind = EventKind::Return;
  E.Tid = UINT32_MAX;
  E.Time = UINT64_MAX - 1;
  E.Arg0 = UINT64_MAX;
  E.Arg1 = UINT64_MAX;
  EventRecord E2 = E;
  E2.Time = UINT64_MAX;
  E2.Arg0 = 0; // forces a maximal negative zigzag delta
  Data.Events = {E, E2};
  for (TraceFormat Format : {TraceFormat::Raw, TraceFormat::Compressed}) {
    std::string Bytes = serializeTrace(Data, Format);
    TraceData Back;
    ASSERT_TRUE(deserializeTrace(Bytes, Back));
    EXPECT_EQ(Back.Routines, Data.Routines);
    EXPECT_EQ(Back.Events, Data.Events);
  }
}

TEST(TraceCodecHardening, RejectsAddressesPastTheGuestSpace) {
  // Memory events must stay inside the shadowable guest space; a range
  // check that could wrap would let [2^64 - 1, +2) through.
  const Addr Max = MaxGuestAddress;
  struct Case {
    EventKind Kind;
    uint64_t Arg0, Arg1;
    bool Ok;
  };
  const Case Cases[] = {
      {EventKind::Read, Max, 1, true},
      {EventKind::Read, Max, 2, false},
      {EventKind::Write, 0, Max + 1, true},
      {EventKind::Write, 0, Max + 2, false},
      {EventKind::KernelRead, Max + 1, 0, false},
      {EventKind::KernelWrite, uint64_t(1) << 40, 1, false},
      {EventKind::Alloc, 16, ~uint64_t(0), false},
      {EventKind::Read, ~uint64_t(0), 2, false},
      {EventKind::Free, Max, ~uint64_t(0), true},
      {EventKind::Free, Max + 1, 0, false},
  };
  for (const Case &C : Cases)
    for (TraceFormat Format : {TraceFormat::Raw, TraceFormat::Compressed}) {
      TraceData Data;
      Data.Events = {{C.Kind, 0, 1, C.Arg0, C.Arg1}};
      TraceData Back;
      EXPECT_EQ(deserializeTrace(serializeTrace(Data, Format), Back), C.Ok)
          << eventKindName(C.Kind) << " " << C.Arg0 << " +" << C.Arg1;
    }
}

} // namespace
