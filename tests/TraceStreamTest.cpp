//===- tests/TraceStreamTest.cpp - Chunked streaming trace format --------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The chunked stream format (TraceStream.h) under test:
//
//  - round trip: append + close then chunk-by-chunk read reproduces the
//    event sequence and routine table exactly, across chunk sizes;
//  - chunks decode independently (out-of-order readChunk) — the property
//    chunk-level seek relies on;
//  - the dispatcher RecordSink hook observes a stream byte-identical to
//    the in-memory Recorded vector, and replaying a stream gives every
//    tool the report in-memory replay gives, with serial and with
//    pipelined delivery;
//  - writer memory (peakBufferedBytes) is bounded by one chunk no matter
//    how many events stream through;
//  - the file bytes match hashes pinned from the original writer;
//  - adversarial inputs — truncated chunks, corrupt footer index,
//    overlong varints, invalid kinds, thread ids and guest addresses
//    inside a chunk (on both the fast and the bounds-checked decode
//    path), chunk lengths past EOF, and a Return that breaks call
//    nesting in a stream read in order — are rejected with a diagnostic,
//    never crash, never allocate beyond what the actual payload bytes
//    can back.
//
//===----------------------------------------------------------------------===//

#include "PinnedThreads.h"

#include "core/TrmsProfiler.h"
#include "tools/NulTool.h"
#include "tools/ToolRegistry.h"
#include "trace/Synthetic.h"
#include "trace/TraceStream.h"
#include "vm/Machine.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

using namespace isp;

namespace {

using RoutineTable = std::vector<std::pair<RoutineId, std::string>>;

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + Name;
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good());
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::vector<EventRecord> makeTrace(uint64_t Operations, uint64_t Seed,
                             unsigned Threads = 4) {
  SyntheticTraceOptions Gen;
  Gen.NumThreads = Threads;
  Gen.NumOperations = Operations;
  Gen.Seed = Seed;
  return generateSyntheticTrace(Gen);
}

/// Writes \p Events to \p Path as a stream and asserts success.
void writeStream(const std::string &Path, const std::vector<EventRecord> &Events,
                 const RoutineTable &Routines,
                 TraceStreamOptions Opts = TraceStreamOptions()) {
  TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, Routines, Opts)) << Writer.error();
  for (const EventRecord &E : Events)
    Writer.append(E);
  ASSERT_TRUE(Writer.close()) << Writer.error();
}

/// Drains every chunk of \p Reader from the start into one vector.
std::vector<EventRecord> readAll(TraceStreamReader &Reader) {
  std::vector<EventRecord> All, Chunk;
  Reader.seek(0);
  while (Reader.nextChunk(Chunk))
    All.insert(All.end(), Chunk.begin(), Chunk.end());
  return All;
}

//===----------------------------------------------------------------------===//
// Round trip and chunk independence
//===----------------------------------------------------------------------===//

TEST(TraceStream, RoundTripsExactly) {
  std::vector<EventRecord> Events = makeTrace(3000, 7);
  RoutineTable Routines = {{0, "main"}, {1, "worker"}, {9, "long_name_rtn"}};
  std::string Path = tempPath("isprof_stream_roundtrip.strm");
  writeStream(Path, Events, Routines);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(Reader.routines(), Routines);
  EXPECT_EQ(Reader.eventCount(), Events.size());
  EXPECT_EQ(readAll(Reader), Events);
  EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  EXPECT_TRUE(isTraceStreamFile(Path));
  std::remove(Path.c_str());
}

TEST(TraceStream, ChunksDecodeIndependently) {
  // A tiny chunk size forces many chunks; decoding them in reverse must
  // give the same per-chunk events as decoding in order, because each
  // chunk's delta state starts from a clean slate.
  std::vector<EventRecord> Events = makeTrace(2000, 8);
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 256;
  std::string Path = tempPath("isprof_stream_chunks.strm");
  writeStream(Path, Events, {}, Opts);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GT(Reader.chunkCount(), 4u);

  std::vector<std::vector<EventRecord>> InOrder(Reader.chunkCount());
  uint64_t IndexedEvents = 0;
  for (size_t I = 0; I != Reader.chunkCount(); ++I) {
    ASSERT_TRUE(Reader.readChunk(I, InOrder[I])) << Reader.error();
    EXPECT_EQ(InOrder[I].size(), Reader.chunkEvents(I));
    EXPECT_EQ(InOrder[I].front().Time, Reader.chunkFirstTime(I));
    IndexedEvents += Reader.chunkEvents(I);
  }
  EXPECT_EQ(IndexedEvents, Events.size());

  std::vector<EventRecord> Chunk;
  for (size_t I = Reader.chunkCount(); I-- != 0;) {
    ASSERT_TRUE(Reader.readChunk(I, Chunk)) << Reader.error();
    EXPECT_EQ(Chunk, InOrder[I]) << "chunk " << I;
  }

  std::vector<EventRecord> All;
  for (const auto &C : InOrder)
    All.insert(All.end(), C.begin(), C.end());
  EXPECT_EQ(All, Events);
  std::remove(Path.c_str());
}

TEST(TraceStream, SeekResumesMidStream) {
  std::vector<EventRecord> Events = makeTrace(2000, 9);
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 512;
  std::string Path = tempPath("isprof_stream_seek.strm");
  writeStream(Path, Events, {}, Opts);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GT(Reader.chunkCount(), 2u);

  // chunkIndexForTime finds the last chunk starting at or before Time.
  EXPECT_EQ(Reader.chunkIndexForTime(0), 0u);
  EXPECT_EQ(Reader.chunkIndexForTime(UINT64_MAX), Reader.chunkCount() - 1);
  for (size_t I = 0; I != Reader.chunkCount(); ++I)
    EXPECT_EQ(Reader.chunkIndexForTime(Reader.chunkFirstTime(I)), I);

  // Replay resumed from a mid-stream chunk yields exactly the tail.
  size_t Mid = Reader.chunkCount() / 2;
  uint64_t Skipped = 0;
  for (size_t I = 0; I != Mid; ++I)
    Skipped += Reader.chunkEvents(I);
  Reader.seek(Mid);
  std::vector<EventRecord> Tail, Chunk;
  while (Reader.nextChunk(Chunk))
    Tail.insert(Tail.end(), Chunk.begin(), Chunk.end());
  ASSERT_TRUE(Reader.error().empty()) << Reader.error();
  ASSERT_EQ(Tail.size(), Events.size() - Skipped);
  for (size_t I = 0; I != Tail.size(); ++I)
    EXPECT_EQ(Tail[I], Events[Skipped + I]);
  std::remove(Path.c_str());
}

TEST(TraceStream, EmptyStreamIsValid) {
  RoutineTable Routines = {{3, "only"}};
  std::string Path = tempPath("isprof_stream_empty.strm");
  writeStream(Path, {}, Routines);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(Reader.chunkCount(), 0u);
  EXPECT_EQ(Reader.eventCount(), 0u);
  EXPECT_EQ(Reader.routines(), Routines);
  std::vector<EventRecord> Chunk;
  EXPECT_FALSE(Reader.nextChunk(Chunk));
  EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Dispatcher integration: sink identity, bounded writer memory
//===----------------------------------------------------------------------===//

TEST(TraceStream, SinkObservesExactlyTheRecordedStream) {
  // The RecordSink contract: a sink sees the same compacted stream the
  // in-memory recorder accumulates, batch for batch. Recording into a
  // stream file and reading it back must therefore reproduce the
  // Recorded vector exactly.
  std::vector<EventRecord> Raw = makeTrace(4000, 10);
  std::string Path = tempPath("isprof_stream_sink.strm");

  TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, {}));
  EventDispatcher Dispatcher;
  Dispatcher.enableRecording();
  Dispatcher.setRecordSink(&Writer);
  Dispatcher.start(nullptr);
  for (const EventRecord &E : Raw)
    Dispatcher.enqueue(E);
  Dispatcher.finish();
  ASSERT_TRUE(Writer.close()) << Writer.error();
  EXPECT_EQ(Writer.eventsWritten(),
            packedEventCount(Dispatcher.recordedEvents()));

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(readAll(Reader), Dispatcher.decodedRecordedEvents());
  EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  std::remove(Path.c_str());
}

TEST(TraceStream, StreamedReplayMatchesInMemoryProfile) {
  // Profile equivalence end to end: replaying a stream file through
  // replayTraceStream, which hands each decoded chunk to the tool as one
  // batch, gives every tool the report batched in-memory replay of the
  // identical event sequence gives. The in-memory dispatcher merges
  // access runs that the stream delivers unmerged, and 256-byte chunks
  // cut many of those runs at a chunk boundary.
  TraceStreamOptions SmallChunks;
  SmallChunks.ChunkBytes = 256;
  for (uint64_t Seed : {11u, 12u}) {
    std::vector<EventRecord> Events = makeTrace(5000, Seed);
    std::string Path = tempPath("isprof_stream_profile.strm");
    writeStream(Path, Events, {}, SmallChunks);

    // One hardware thread replays serially; four publish each chunk to
    // the tool on a worker while the next one is decoded.
    for (unsigned Hw : {1u, 4u}) {
      for (const std::string &Name : allToolNames()) {
        std::unique_ptr<Tool> InMemory = makeTool(Name);
        std::unique_ptr<Tool> Streamed = makeTool(Name);
        replayTraceBatched(Events, *InMemory);
        TraceStreamReader Reader;
        ASSERT_TRUE(Reader.open(Path)) << Reader.error();
        ASSERT_GT(Reader.chunkCount(), 100u);
        PinnedThreads Pin(Hw);
        ASSERT_TRUE(replayTraceStream(Reader, *Streamed)) << Reader.error();
        EXPECT_EQ(renderToolReport(*Streamed, nullptr),
                  renderToolReport(*InMemory, nullptr))
            << Name << ", seed " << Seed << ", " << Hw << " threads";
      }

      TrmsProfilerOptions ProfOpts;
      ProfOpts.KeepActivationLog = true;
      TrmsProfiler InMemory(ProfOpts);
      replayTraceBatched(Events, InMemory);

      TraceStreamReader Reader;
      ASSERT_TRUE(Reader.open(Path)) << Reader.error();
      TrmsProfiler Streamed(ProfOpts);
      PinnedThreads Pin(Hw);
      ASSERT_TRUE(replayTraceStream(Reader, Streamed)) << Reader.error();

      const ProfileDatabase &A = InMemory.database();
      const ProfileDatabase &B = Streamed.database();
      ASSERT_EQ(A.log().size(), B.log().size());
      for (size_t I = 0; I != A.log().size(); ++I)
        ASSERT_EQ(A.log()[I], B.log()[I]) << "activation " << I;
      EXPECT_EQ(A.GlobalReads, B.GlobalReads);
      EXPECT_EQ(A.GlobalInducedThread, B.GlobalInducedThread);
    }
    std::remove(Path.c_str());
  }
}

TEST(TraceStream, WriterMemoryIsBoundedByOneChunk) {
  // The bounded-memory claim at unit scale: the writer's only variable
  // memory is the open-chunk buffer, whose high-water mark is one chunk
  // plus at most one encoded event — independent of stream length.
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 1024;
  const uint64_t MaxEncodedEvent = 1 + 4 * 10; // kind byte + four varints
  for (uint64_t Operations : {1000u, 10000u}) {
    std::vector<EventRecord> Events = makeTrace(Operations, 13);
    std::string Path = tempPath("isprof_stream_bounded.strm");
    TraceStreamWriter Writer;
    ASSERT_TRUE(Writer.open(Path, {}, Opts));
    for (const EventRecord &E : Events)
      Writer.append(E);
    EXPECT_LE(Writer.peakBufferedBytes(), Opts.ChunkBytes + MaxEncodedEvent)
        << "at " << Operations << " events";
    ASSERT_TRUE(Writer.close());
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// On-disk bytes
//===----------------------------------------------------------------------===//

/// 64-bit FNV-1a over \p Bytes.
uint64_t fnv1a(const std::string &Bytes) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (char C : Bytes) {
    Hash ^= static_cast<unsigned char>(C);
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

TEST(TraceStreamGolden, FileBytesMatchPinnedHashes) {
  // Streams outlive the binary that wrote them, and their size is a
  // benchmark metric, so the writer's output is pinned byte for byte:
  // the hashes below were taken from files the writer produced before
  // its one-pass rewrite. The trace ends with events that need the rare
  // encodings: a time past 2^32 (a time-base escape word in a batch), a
  // thread id past 24 bits (a follow-on word), large and decreasing
  // addresses (long zigzag deltas).
  std::vector<EventRecord> Events = makeTrace(20000, 23);
  uint64_t T = Events.back().Time + (uint64_t(1) << 32);
  ThreadId BigTid = ThreadId(1) << 25;
  Events.push_back(EventRecord::threadStart(BigTid, T, 0));
  Events.push_back(EventRecord::write(BigTid, T + 1, uint64_t(1) << 40, 3));
  Events.push_back(EventRecord::read(BigTid, T + 2, 17));
  Events.push_back(EventRecord::ret(BigTid, T + 3, 2, ~uint64_t(0)));
  Events.push_back(EventRecord::threadEnd(BigTid, T + 4));
  const RoutineTable Routines = {{0, "main"}, {1, "worker"}, {2, "ret"}};

  struct Case {
    bool ViaSink;
    size_t ChunkBytes;
    unsigned Version;
    uint64_t Hash;
  };
  const Case Cases[] = {
      {false, size_t(1) << 16, 3, 0x9a3b1e341590045bULL},
      {false, size_t(1) << 16, 1, 0x66b939efe71d2b19ULL},
      {false, 256, 3, 0xfac476f5f2621c3dULL},
      {false, 256, 1, 0x0b75a25095196a80ULL},
      // Through a sink the stream is the dispatcher's compacted one, so
      // these also pin where 4,096-word batches stop access runs from
      // merging (taken from the serial writer at that batch size).
      {true, size_t(1) << 16, 3, 0xc7dce962919cd026ULL},
      {true, size_t(1) << 16, 1, 0xecbfaaa1649f0488ULL},
      {true, 256, 3, 0xfba7b50d64350fb7ULL},
      {true, 256, 1, 0xc4097acefdacad75ULL},
  };
  std::string Path = tempPath("isprof_stream_golden.strm");
  // The sink writes on the producer thread with one hardware thread and
  // on a pipeline worker with two; the bytes must not care.
  for (unsigned Hw : {1u, 2u})
    for (const Case &C : Cases) {
      TraceStreamOptions Opts;
      Opts.ChunkBytes = C.ChunkBytes;
      Opts.FormatVersion = C.Version;
      TraceStreamWriter Writer;
      ASSERT_TRUE(Writer.open(Path, Routines, Opts)) << Writer.error();
      if (C.ViaSink) {
        PinnedThreads Pin(Hw);
        EventDispatcher Dispatcher;
        Dispatcher.setRecordSink(&Writer);
        Dispatcher.start(nullptr);
        EXPECT_EQ(Dispatcher.pipelineActive(), Hw >= 2);
        for (const EventRecord &E : Events)
          Dispatcher.enqueue(E);
        Dispatcher.finish();
      } else {
        for (const EventRecord &E : Events)
          Writer.append(E);
      }
      ASSERT_TRUE(Writer.close()) << Writer.error();
      EXPECT_GT(Writer.chunksWritten(), C.ChunkBytes == 256 ? 100u : 1u);
      uint64_t Hash = fnv1a(readFile(Path));
      EXPECT_EQ(Hash, C.Hash) << std::hex << "actual 0x" << Hash
                              << (C.ViaSink ? " via sink" : " via append")
                              << std::dec << ", " << C.ChunkBytes
                              << "-byte chunks, v" << C.Version << ", "
                              << Hw << " threads";
    }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Adversarial inputs: reject with a diagnostic, never crash
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

void appendU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void appendU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// Hand-builds syntactically valid stream files around arbitrary chunk
/// payloads, so single fields can be made hostile in isolation.
struct StreamBuilder {
  std::string Bytes;
  struct IndexEntry {
    uint64_t Offset, Events, FirstTime;
  };
  std::vector<IndexEntry> Index;

  StreamBuilder() {
    Bytes.assign("ISPSTM01", 8);
    appendVarint(Bytes, 0); // empty routine table
  }
  /// Appends a chunk; \p Events is what the footer index will claim.
  void addChunk(const std::string &Payload, uint64_t Events,
                uint64_t FirstTime = 1) {
    Index.push_back({Bytes.size(), Events, FirstTime});
    appendU32(Bytes, static_cast<uint32_t>(Payload.size()));
    Bytes += Payload;
  }
  std::string finish() {
    uint64_t FooterOffset = Bytes.size();
    appendVarint(Bytes, Index.size());
    for (const IndexEntry &E : Index) {
      appendVarint(Bytes, E.Offset);
      appendVarint(Bytes, E.Events);
      appendVarint(Bytes, E.FirstTime);
    }
    appendU64(Bytes, FooterOffset);
    Bytes.append("ISPSTMIX", 8);
    return Bytes;
  }
};

/// One well-formed encoded event for hand-built payloads.
void appendEvent(std::string &Out, uint64_t Tid = 0, uint64_t TimeDelta = 1,
                 uint64_t Arg0Zigzag = 0, uint64_t Arg1 = 0) {
  Out.push_back(0); // smallest valid kind
  appendVarint(Out, Tid);
  appendVarint(Out, TimeDelta);
  appendVarint(Out, Arg0Zigzag);
  appendVarint(Out, Arg1);
}

/// Opens the stream in \p Bytes and, if the index parses, tries to read
/// every chunk. Returns the first diagnostic hit, or "" when the whole
/// file was accepted. Must never crash, whatever the input.
std::string probeStream(const std::string &Bytes, const char *Name) {
  std::string Path = tempPath(Name);
  writeFile(Path, Bytes);
  TraceStreamReader Reader;
  std::string Diag;
  if (!Reader.open(Path)) {
    Diag = Reader.error();
    EXPECT_FALSE(Diag.empty()) << "rejection must carry a diagnostic";
  } else {
    std::vector<EventRecord> Chunk;
    for (size_t I = 0; I != Reader.chunkCount() && Diag.empty(); ++I)
      if (!Reader.readChunk(I, Chunk))
        Diag = Reader.error();
  }
  std::remove(Path.c_str());
  return Diag;
}

/// Probes one encoded event in both of the reader's decode paths and
/// expects \p Diagnostic ("" for accepted) from each: once as the payload's
/// last event, where the varints go through the bounds-checked decoder,
/// and once followed by 45 bytes of valid events, where a worst-case
/// record (41 bytes) still fits and one bounds check covers all four
/// varints.
void expectOnBothDecodePaths(const std::string &Hostile,
                               const std::string &Diagnostic,
                               unsigned HostileEvents = 1) {
  for (unsigned Trailing : {0u, 9u}) {
    std::string Payload;
    appendVarint(Payload, HostileEvents + Trailing);
    Payload += Hostile;
    for (unsigned I = 0; I != Trailing; ++I)
      appendEvent(Payload);
    StreamBuilder B;
    B.addChunk(Payload, HostileEvents + Trailing);
    std::string Diag = probeStream(B.finish(), "isprof_stream_hostile.strm");
    EXPECT_EQ(Diag, Diagnostic) << "with " << Trailing << " valid events after";
  }
}

TEST(TraceStreamHardening, RejectsOverlongVarintInsideChunk) {
  // A time-delta varint with eleven continuation bytes: more than any
  // uint64 can need. The chunk framing is valid, so only the in-chunk
  // varint decoder can catch it.
  std::string Overlong;
  Overlong.push_back(0);     // kind
  appendVarint(Overlong, 0); // tid
  for (int I = 0; I != 11; ++I)
    Overlong.push_back(static_cast<char>(0x81));
  Overlong.push_back(0x00);  // the overlong time delta
  appendVarint(Overlong, 0); // arg0
  appendVarint(Overlong, 0); // arg1
  expectOnBothDecodePaths(Overlong, "corrupt chunk: bad event varint");

  // Ten bytes with payload past bit 63 — the wrap-silently classic.
  std::string Wrap;
  Wrap.push_back(0);
  appendVarint(Wrap, 0);
  for (int I = 0; I != 9; ++I)
    Wrap.push_back(static_cast<char>(0x80));
  Wrap.push_back(0x02); // bit 64
  appendVarint(Wrap, 0);
  appendVarint(Wrap, 0);
  expectOnBothDecodePaths(Wrap, "corrupt chunk: bad event varint");

  // The largest value ten bytes may hold is accepted on both paths.
  std::string Max;
  Max.push_back(0);
  appendVarint(Max, 0);
  appendVarint(Max, ~uint64_t(0));
  appendVarint(Max, 0);
  appendVarint(Max, 0);
  expectOnBothDecodePaths(Max, "");
}

TEST(TraceStreamHardening, RejectsInvalidKindAndThreadId) {
  // One past the last event kind.
  std::string BadKind;
  BadKind.push_back(static_cast<char>(EventKind::ThreadSwitch) + 1);
  for (int I = 0; I != 4; ++I)
    appendVarint(BadKind, 0);
  expectOnBothDecodePaths(BadKind, "corrupt chunk: invalid event kind");

  // A thread id one past UINT32_MAX: a valid varint, an invalid id.
  std::string BigTid;
  BigTid.push_back(0);
  appendVarint(BigTid, uint64_t(UINT32_MAX) + 1);
  for (int I = 0; I != 3; ++I)
    appendVarint(BigTid, 0);
  expectOnBothDecodePaths(BigTid, "corrupt chunk: thread id out of range");
}

/// Zigzag encoding of \p V's delta from the per-chunk Arg0 predictor,
/// which starts at 0.
uint64_t zigzagFromZero(uint64_t V) {
  return (V << 1) ^ static_cast<uint64_t>(static_cast<int64_t>(V) >> 63);
}

/// One encoded event of \p Kind with the given arguments, the first
/// event of its kind in the chunk (Arg0 deltas start from zero).
std::string encodedEvent(EventKind Kind, uint64_t Arg0, uint64_t Arg1,
                         uint64_t Tid = 0) {
  std::string Out;
  Out.push_back(static_cast<char>(Kind));
  appendVarint(Out, Tid);
  appendVarint(Out, 1); // time delta
  appendVarint(Out, zigzagFromZero(Arg0));
  appendVarint(Out, Arg1);
  return Out;
}

TEST(TraceStreamHardening, RejectsAddressesPastTheGuestSpace) {
  // An access the shadow memories cannot hold must end in a diagnostic,
  // not in the shadow's assert, for every addressing kind.
  const Addr Max = MaxGuestAddress;
  const std::string OutOfRange = "corrupt chunk: address out of range";
  expectOnBothDecodePaths(
      encodedEvent(EventKind::Read, uint64_t(0x10000000000), 1), OutOfRange);
  expectOnBothDecodePaths(encodedEvent(EventKind::Write, Max, 2), OutOfRange);
  expectOnBothDecodePaths(encodedEvent(EventKind::KernelRead, Max + 1, 0),
                          OutOfRange);
  expectOnBothDecodePaths(encodedEvent(EventKind::KernelWrite, 0, Max + 2),
                          OutOfRange);
  expectOnBothDecodePaths(encodedEvent(EventKind::Alloc, 16, Max), OutOfRange);
  expectOnBothDecodePaths(encodedEvent(EventKind::Free, Max + 1, 0),
                          OutOfRange);
  // A range whose end wraps 2^64 back into the address space.
  expectOnBothDecodePaths(encodedEvent(EventKind::Read, ~uint64_t(0), 2),
                          OutOfRange);
  expectOnBothDecodePaths(
      encodedEvent(EventKind::Write, uint64_t(1) << 63, uint64_t(1) << 63),
      OutOfRange);
  // The last cell, the whole space, and a Free's ignored count pass.
  expectOnBothDecodePaths(encodedEvent(EventKind::Read, Max, 1), "");
  expectOnBothDecodePaths(encodedEvent(EventKind::Write, 0, Max + 1), "");
  expectOnBothDecodePaths(encodedEvent(EventKind::Free, Max, ~uint64_t(0)),
                          "");
}

TEST(TraceStreamHardening, RejectsMismatchedReturn) {
  // A Return that closes another routine than its thread's innermost
  // open Call (the profilers assert on one), on both decode paths.
  const std::string Mismatch = "corrupt chunk: mismatched return";
  std::string CallA = encodedEvent(EventKind::Call, 1, 0);
  expectOnBothDecodePaths(CallA + encodedEvent(EventKind::Return, 2, 0),
                          Mismatch, 2);
  // Still legal: the matching Return, a Return with no open Call, a
  // Return on another thread, and one after ThreadEnd closed the frames.
  expectOnBothDecodePaths(CallA + encodedEvent(EventKind::Return, 1, 0), "",
                          2);
  expectOnBothDecodePaths(encodedEvent(EventKind::Return, 2, 0), "");
  expectOnBothDecodePaths(CallA + encodedEvent(EventKind::Return, 2, 0, 1),
                          "", 2);
  expectOnBothDecodePaths(CallA + encodedEvent(EventKind::ThreadEnd, 0, 0) +
                              encodedEvent(EventKind::Return, 2, 0),
                          "", 3);
  // Thread ids key the stacks without sizing any table.
  expectOnBothDecodePaths(
      encodedEvent(EventKind::Call, 1, 0, 4000000000u) +
          encodedEvent(EventKind::Return, 2, 0, 4000000000u),
      Mismatch, 2);
}

TEST(TraceStreamHardening, NestingIsCheckedAcrossChunksReadInOrder) {
  // ThreadStart(0); Call(0, a); Read(0, 100); Return(0, b); ThreadEnd(0),
  // one event per chunk. Read in order from chunk 0 — by nextChunk,
  // readChunk or replay — the Return's chunk is rejected. Reading that
  // chunk out of order turns the check off for the pass (a pass that
  // skips chunks tears frames on purpose); reading chunk 0 starts a new,
  // checked pass.
  std::string Path = tempPath("isprof_stream_nesting.strm");
  TraceStreamOptions OneEventChunks;
  OneEventChunks.ChunkBytes = 1;
  writeStream(Path,
              {EventRecord::threadStart(0, 1, 0), EventRecord::call(0, 2, 1),
               EventRecord::read(0, 3, 100), EventRecord::ret(0, 4, 2, 0),
               EventRecord::threadEnd(0, 5)},
              {{1, "a"}, {2, "b"}}, OneEventChunks);
  const std::string Mismatch = "corrupt chunk: mismatched return";
  {
    TraceStreamReader Reader;
    ASSERT_TRUE(Reader.open(Path)) << Reader.error();
    ASSERT_EQ(Reader.chunkCount(), 5u);
    std::vector<Event> Chunk;
    size_t Read = 0;
    while (Reader.nextChunk(Chunk))
      ++Read;
    EXPECT_EQ(Read, 3u);
    EXPECT_EQ(Reader.error(), Mismatch);
  }
  {
    TraceStreamReader Reader;
    ASSERT_TRUE(Reader.open(Path)) << Reader.error();
    std::vector<EventRecord> Chunk;
    ASSERT_TRUE(Reader.readChunk(1, Chunk)) << Reader.error();
    EXPECT_TRUE(Reader.readChunk(3, Chunk)) << Reader.error();
    for (size_t I = 0; I != 3; ++I)
      ASSERT_TRUE(Reader.readChunk(I, Chunk)) << Reader.error();
    EXPECT_FALSE(Reader.readChunk(3, Chunk));
    EXPECT_EQ(Reader.error(), Mismatch);
  }
  for (unsigned Hw : {1u, 4u}) {
    PinnedThreads Pin(Hw);
    TraceStreamReader Reader;
    ASSERT_TRUE(Reader.open(Path)) << Reader.error();
    TrmsProfiler Profiler;
    EXPECT_FALSE(replayTraceStream(Reader, Profiler));
    EXPECT_EQ(Reader.error(), Mismatch);
  }
  std::remove(Path.c_str());
}

TEST(TraceStreamHardening, VmRecordedStreamsReadClean) {
  // Every stream the VM records is well nested, so the nesting check
  // accepts it whole: workloads with nested calls, recursion and several
  // threads whose frames ThreadEnd closes.
  for (const char *Name : {"md", "kdtree", "dbserver", "sort_compare"}) {
    const WorkloadInfo *Info = findWorkload(Name);
    ASSERT_NE(Info, nullptr) << Name;
    WorkloadParams Params;
    Params.Threads = 4;
    Params.Size = 24;
    std::string Error;
    std::optional<Program> Prog = compileWorkload(*Info, Params, &Error);
    ASSERT_TRUE(Prog) << Name << ": " << Error;
    std::string Path = tempPath("isprof_stream_vm.strm");
    TraceStreamWriter Writer;
    TraceStreamOptions SmallChunks;
    SmallChunks.ChunkBytes = 512;
    ASSERT_TRUE(Writer.open(Path, Prog->Symbols.entries(), SmallChunks))
        << Writer.error();
    EventDispatcher Dispatcher;
    Dispatcher.setRecordSink(&Writer);
    Machine M(*Prog, &Dispatcher);
    RunResult Run = M.run();
    ASSERT_TRUE(Run.Ok) << Name << ": " << Run.Error;
    ASSERT_TRUE(Writer.close()) << Writer.error();

    TraceStreamReader Reader;
    ASSERT_TRUE(Reader.open(Path)) << Reader.error();
    EXPECT_GT(Reader.chunkCount(), 1u) << Name;
    std::vector<Event> Chunk;
    while (Reader.nextChunk(Chunk)) {
    }
    EXPECT_EQ(Reader.error(), "") << Name;
    std::remove(Path.c_str());
  }
}

TEST(TraceStreamHardening, CorruptChunkUnderPipelinedReplayIsReported) {
  // A mid-stream chunk addressing past the guest space: the pipelined
  // replay stops there with the chunk's diagnostic, the worker is
  // joined, and the tool saw exactly the chunks before it.
  std::vector<EventRecord> Events = makeTrace(3000, 24);
  TraceStreamOptions SmallChunks;
  SmallChunks.ChunkBytes = 1024;
  std::string Path = tempPath("isprof_stream_pipelined_bad.strm");
  TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, {}, SmallChunks));
  for (size_t I = 0; I != Events.size(); ++I) {
    Writer.append(Events[I]);
    if (I == Events.size() / 2)
      Writer.append(EventRecord::read(Events[I].Tid, Events[I].Time,
                                      uint64_t(0x10000000000)));
  }
  ASSERT_TRUE(Writer.close()) << Writer.error();

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  size_t BadChunk = Reader.chunkCount();
  uint64_t EventsBefore = 0;
  std::vector<EventRecord> Chunk;
  for (size_t I = 0; I != Reader.chunkCount(); ++I) {
    if (!Reader.readChunk(I, Chunk)) {
      BadChunk = I;
      break;
    }
    EventsBefore += Chunk.size();
  }
  ASSERT_GT(BadChunk, 0u);
  ASSERT_LT(BadChunk + 1, Reader.chunkCount());

  PinnedThreads Pin(4);
  NulTool Tool;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_FALSE(replayTraceStream(Reader, Tool));
  EXPECT_EQ(Reader.error(), "corrupt chunk: address out of range");
  EXPECT_EQ(Reader.cursor() - 1, BadChunk);
  EXPECT_EQ(Tool.eventsSeen(), EventsBefore);
  std::remove(Path.c_str());
}

TEST(TraceStreamHardening, RejectsChunkLengthPastEOF) {
  // Patch a valid single-chunk file's u32 length prefix to run past the
  // footer (and the file): the read must be refused before any payload
  // I/O is attempted.
  std::string Payload;
  appendVarint(Payload, 1);
  appendEvent(Payload);
  StreamBuilder B;
  B.addChunk(Payload, 1);
  std::string Bytes = B.finish();
  size_t LenAt = B.Index[0].Offset;
  for (uint32_t Hostile : {0xffffffffu, 0u}) {
    std::string Mutated = Bytes;
    for (int I = 0; I != 4; ++I)
      Mutated[LenAt + I] = static_cast<char>((Hostile >> (8 * I)) & 0xff);
    std::string Diag = probeStream(Mutated, "isprof_stream_pasteof.strm");
    EXPECT_NE(Diag.find("payload length out of bounds"), std::string::npos)
        << "length " << Hostile << ": " << Diag;
  }
}

TEST(TraceStreamHardening, RejectsEventCountDisagreement) {
  // Payload says two events, footer index says one: the cross-check
  // must refuse rather than trust either side.
  std::string Payload;
  appendVarint(Payload, 2);
  appendEvent(Payload, 0, 1);
  appendEvent(Payload, 0, 1);
  StreamBuilder B;
  B.addChunk(Payload, /*Events=*/1);
  std::string Diag = probeStream(B.finish(), "isprof_stream_disagree.strm");
  EXPECT_NE(Diag.find("disagrees with footer index"), std::string::npos)
      << Diag;
}

TEST(TraceStreamHardening, RejectsHugeEventCountWithoutAllocating) {
  // A claimed in-chunk count of 2^60 over a few payload bytes must be
  // clamped before Out.reserve() tries to honour it. (If the clamp were
  // missing this test would OOM, not just fail.)
  std::string Payload;
  appendVarint(Payload, uint64_t(1) << 60);
  appendEvent(Payload);
  StreamBuilder B;
  B.addChunk(Payload, uint64_t(1) << 60);
  std::string Diag = probeStream(B.finish(), "isprof_stream_hugecount.strm");
  EXPECT_NE(Diag.find("exceeds payload bytes"), std::string::npos) << Diag;

  // Same for the footer's chunk count: nothing may be reserved for
  // entries the index bytes cannot encode.
  StreamBuilder B2;
  std::string P2;
  appendVarint(P2, 1);
  appendEvent(P2);
  B2.addChunk(P2, 1);
  std::string Bytes = B2.finish();
  // Rebuild the footer with a hostile chunk count but keep the trailer
  // pointing at it.
  std::string Hostile(Bytes.begin(),
                      Bytes.begin() + static_cast<long>(B2.Index[0].Offset) +
                          4 + static_cast<long>(P2.size()));
  uint64_t FooterOffset = Hostile.size();
  appendVarint(Hostile, uint64_t(1) << 58);
  appendU64(Hostile, FooterOffset);
  Hostile.append("ISPSTMIX", 8);
  Diag = probeStream(Hostile, "isprof_stream_hugechunks.strm");
  EXPECT_NE(Diag.find("corrupt footer"), std::string::npos) << Diag;
}

TEST(TraceStreamHardening, RejectsCorruptTrailer) {
  std::vector<EventRecord> Events = makeTrace(200, 14);
  std::string Path = tempPath("isprof_stream_trailer.strm");
  writeStream(Path, Events, {});
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());
  ASSERT_GE(Bytes.size(), 16u);

  std::string BadMagic = Bytes;
  BadMagic[BadMagic.size() - 1] ^= 0x01;
  std::string Diag = probeStream(BadMagic, "isprof_stream_badmagic.strm");
  EXPECT_NE(Diag.find("bad trailer magic"), std::string::npos) << Diag;

  for (uint64_t Hostile : {uint64_t(0), ~uint64_t(0), uint64_t(Bytes.size())}) {
    std::string BadOffset = Bytes;
    for (int I = 0; I != 8; ++I)
      BadOffset[BadOffset.size() - 16 + I] =
          static_cast<char>((Hostile >> (8 * I)) & 0xff);
    Diag = probeStream(BadOffset, "isprof_stream_badoffset.strm");
    EXPECT_FALSE(Diag.empty()) << "footer offset " << Hostile << " accepted";
  }
}

TEST(TraceStreamHardening, TruncationFuzzNeverAccepted) {
  // Every proper prefix of a valid stream is missing bytes the trailer
  // promises; all of them must be rejected at open(), with a diagnostic.
  std::vector<EventRecord> Events = makeTrace(400, 15);
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 128; // many chunks, so truncation lands everywhere
  std::string Path = tempPath("isprof_stream_truncsrc.strm");
  writeStream(Path, Events, {{0, "f"}, {1, "g"}}, Opts);
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());
  ASSERT_GT(Bytes.size(), 100u);

  std::string TruncPath = tempPath("isprof_stream_trunc.strm");
  for (size_t Len = 0; Len < Bytes.size(); Len += 7) {
    writeFile(TruncPath, Bytes.substr(0, Len));
    TraceStreamReader Reader;
    EXPECT_FALSE(Reader.open(TruncPath))
        << "prefix of length " << Len << " accepted";
    EXPECT_FALSE(Reader.error().empty());
  }
  std::remove(TruncPath.c_str());
}

TEST(TraceStreamHardening, CorruptFooterIndexFuzz) {
  // Flip every footer-index byte: the reader must either refuse the
  // file, refuse some chunk, or — when the flip lands in a field with
  // no bearing on decoding (a chunk's FirstTime seek key) — still
  // reproduce the original events exactly. Silent wrong decodes and
  // crashes are the failures being hunted.
  std::vector<EventRecord> Events = makeTrace(600, 16);
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 256;
  std::string Path = tempPath("isprof_stream_footersrc.strm");
  writeStream(Path, Events, {}, Opts);
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());

  uint64_t FooterOffset = 0;
  for (int I = 0; I != 8; ++I)
    FooterOffset |= static_cast<uint64_t>(static_cast<unsigned char>(
                        Bytes[Bytes.size() - 16 + I]))
                    << (8 * I);
  ASSERT_LT(FooterOffset, Bytes.size() - 16);

  std::string MutPath = tempPath("isprof_stream_footermut.strm");
  for (size_t Pos = FooterOffset; Pos != Bytes.size() - 16; ++Pos) {
    for (int Bit : {0, 6}) {
      std::string Mutated = Bytes;
      Mutated[Pos] = static_cast<char>(Mutated[Pos] ^ (1 << Bit));
      writeFile(MutPath, Mutated);
      TraceStreamReader Reader;
      if (!Reader.open(MutPath)) {
        EXPECT_FALSE(Reader.error().empty());
        continue;
      }
      std::vector<EventRecord> All, Chunk;
      bool Failed = false;
      for (size_t I = 0; I != Reader.chunkCount() && !Failed; ++I) {
        if (!Reader.readChunk(I, Chunk))
          Failed = true;
        else
          All.insert(All.end(), Chunk.begin(), Chunk.end());
      }
      if (!Failed) {
        EXPECT_EQ(All, Events)
            << "footer byte " << (Pos - FooterOffset) << " bit " << Bit
            << " silently changed the decoded stream";
      }
    }
  }
  std::remove(MutPath.c_str());
}

TEST(TraceStreamHardening, BitFlipFuzzNeverCrashes) {
  // Whole-file bit flips: acceptance is fine when the flip lands in a
  // payload byte; the contract is no crash, no unbounded allocation.
  std::vector<EventRecord> Events = makeTrace(300, 17);
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 512;
  std::string Path = tempPath("isprof_stream_flipsrc.strm");
  writeStream(Path, Events, {{0, "main"}}, Opts);
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());

  std::string MutPath = tempPath("isprof_stream_flip.strm");
  for (size_t Pos = 0; Pos < Bytes.size(); Pos += 3) {
    for (int Bit : {0, 3, 7}) {
      std::string Mutated = Bytes;
      Mutated[Pos] = static_cast<char>(Mutated[Pos] ^ (1 << Bit));
      writeFile(MutPath, Mutated);
      TraceStreamReader Reader;
      if (Reader.open(MutPath)) {
        std::vector<EventRecord> Chunk;
        while (Reader.nextChunk(Chunk)) {
        }
      }
    }
  }
  std::remove(MutPath.c_str());
}

//===----------------------------------------------------------------------===//
// Format v2: per-chunk activity masks
//===----------------------------------------------------------------------===//

TEST(TraceStreamV2, ActivityMasksRoundTrip) {
  // One chunk: routine 3 called, memory confined to shadow-chunk keys
  // 0 and 5. The footer masks must name exactly those.
  std::vector<EventRecord> Events;
  Events.push_back(EventRecord::threadStart(0, 1, 0));
  Events.push_back(EventRecord::call(0, 2, 3));
  Events.push_back(EventRecord::write(0, 3, 16, 4));        // key 0
  Events.push_back(EventRecord::read(0, 4, 5 * 512 + 7, 2)); // key 5
  Events.push_back(EventRecord::ret(0, 5, 3, 0));
  Events.push_back(EventRecord::threadEnd(0, 6));
  std::string Path = tempPath("isprof_stream_v2masks.strm");
  writeStream(Path, Events, {});

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(Reader.formatVersion(), 3u);
  ASSERT_TRUE(Reader.hasActivityMasks());
  ASSERT_TRUE(Reader.hasWrittenMasks());
  ASSERT_EQ(Reader.chunkCount(), 1u);
  EXPECT_EQ(Reader.chunkRoutineMask(0), uint64_t(1) << 3);
  const ShardActivityMask &Mask = Reader.chunkShardMask(0);
  EXPECT_EQ(Mask[0], (uint64_t(1) << 0) | (uint64_t(1) << 5));
  EXPECT_EQ(Mask[1], 0u);
  EXPECT_EQ(Mask[2], 0u);
  EXPECT_EQ(Mask[3], 0u);
  // Only the write touches the written mask; the read's key 5 stays out.
  const ShardActivityMask &Written = Reader.chunkWrittenMask(0);
  EXPECT_EQ(Written[0], uint64_t(1) << 0);
  EXPECT_EQ(Written[1], 0u);
  EXPECT_EQ(Written[2], 0u);
  EXPECT_EQ(Written[3], 0u);
  EXPECT_EQ(readAll(Reader), Events);
  std::remove(Path.c_str());
}

TEST(TraceStreamV2, WideRangeSaturatesShardMask) {
  // A single access spanning more shadow chunks than there are mask
  // slots degrades to the all-ones superset rather than wrapping.
  std::vector<EventRecord> Events;
  Events.push_back(EventRecord::threadStart(0, 1, 0));
  Events.push_back(EventRecord::write(0, 2, 0, 300 * 512));
  Events.push_back(EventRecord::threadEnd(0, 3));
  std::string Path = tempPath("isprof_stream_v2wide.strm");
  writeStream(Path, Events, {});

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  const ShardActivityMask &Mask = Reader.chunkShardMask(0);
  for (uint64_t Word : Mask)
    EXPECT_EQ(Word, ~uint64_t(0));
  std::remove(Path.c_str());
}

TEST(TraceStreamV2, Version1ModeInteroperates) {
  // FormatVersion=1 writes the old magic with a mask-less footer; the
  // reader accepts it and reports conservative all-ones masks.
  std::vector<EventRecord> Events = makeTrace(500, 18);
  std::string Path = tempPath("isprof_stream_v1compat.strm");
  TraceStreamOptions Opts;
  Opts.FormatVersion = 1;
  writeStream(Path, Events, {{0, "main"}}, Opts);

  EXPECT_EQ(readFile(Path).substr(0, 8), "ISPSTM01");
  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(Reader.formatVersion(), 1u);
  EXPECT_FALSE(Reader.hasActivityMasks());
  EXPECT_EQ(Reader.chunkRoutineMask(0), ~uint64_t(0));
  for (uint64_t Word : Reader.chunkShardMask(0))
    EXPECT_EQ(Word, ~uint64_t(0));
  EXPECT_EQ(readAll(Reader), Events);
  std::remove(Path.c_str());
}

TEST(TraceStreamV2, UnknownVersionsRejected) {
  // A hypothetical v9 stream and a bogus writer request both fail
  // cleanly instead of being misparsed.
  std::vector<EventRecord> Events = makeTrace(100, 19);
  std::string Path = tempPath("isprof_stream_v9.strm");
  writeStream(Path, Events, {});
  std::string Bytes = readFile(Path);
  Bytes[7] = '9';
  writeFile(Path, Bytes);
  TraceStreamReader Reader;
  EXPECT_FALSE(Reader.open(Path));
  EXPECT_NE(Reader.error().find("bad magic or unsupported version"),
            std::string::npos)
      << Reader.error();
  std::remove(Path.c_str());

  TraceStreamWriter Writer;
  TraceStreamOptions Bad;
  Bad.FormatVersion = 7;
  EXPECT_FALSE(Writer.open(tempPath("isprof_stream_badver.strm"), {}, Bad));
  EXPECT_NE(Writer.error().find("unsupported trace stream format version"),
            std::string::npos);
}

TEST(TraceStreamV2, TruncatedMasksRejected) {
  // A v2 footer whose entries lack the activity-mask words must be
  // rejected, not silently read past.
  StreamBuilder Builder;
  Builder.Bytes[7] = '2'; // v2 magic over the v1 template
  std::string Payload;
  appendVarint(Payload, 1);
  appendEvent(Payload);
  // The huge FirstTime makes the mask-less entry wide enough to pass
  // the footer size clamp, so the mask read itself is what trips.
  Builder.addChunk(Payload, 1, /*FirstTime=*/~uint64_t(0));
  // finish() writes v1-style (mask-less) footer entries.
  std::string Diag = probeStream(Builder.finish(), "isprof_stream_v2trunc.strm");
  EXPECT_NE(Diag.find("truncated activity masks"), std::string::npos) << Diag;
}

} // namespace
