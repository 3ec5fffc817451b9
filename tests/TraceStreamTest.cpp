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
//  - the file bytes match pinned hashes, and the writer refuses a
//    routine table whose ids are not their positions;
//  - adversarial inputs — truncated chunks, corrupt footer index or
//    routine table (a repeated name among them), overlong varints, invalid kinds, thread ids and guest
//    addresses inside a chunk (on both the fast and the bounds-checked
//    decode path), chunk lengths past EOF, and a Return that breaks call
//    nesting in a stream read in order — are rejected with a diagnostic,
//    never crash, never allocate beyond what the actual payload bytes
//    can back;
//  - any change to the metadata the checksum covers (header, footer
//    index, footer offset) is rejected at open(), and stream versions
//    other than the current one are refused by name.
//
//===----------------------------------------------------------------------===//

#include "PinnedThreads.h"
#include "TestUtil.h"

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

/// The names of \p Routines in order: what a reader reports for a table
/// whose ids are its positions.
std::vector<std::string> namesOf(const RoutineTable &Routines) {
  std::vector<std::string> Names;
  for (const auto &[Id, Name] : Routines)
    Names.push_back(Name);
  return Names;
}

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
  std::vector<Event> All, Chunk;
  Reader.seek(0);
  while (Reader.nextChunk(Chunk))
    All.insert(All.end(), Chunk.begin(), Chunk.end());
  return decodeEventStream(All);
}

//===----------------------------------------------------------------------===//
// Round trip and chunk independence
//===----------------------------------------------------------------------===//

TEST(TraceStream, RoundTripsExactly) {
  std::vector<EventRecord> Events = makeTrace(3000, 7);
  RoutineTable Routines = {{0, "main"}, {1, "worker"}, {2, "long_name_rtn"}};
  std::string Path = tempPath("isprof_stream_roundtrip.strm");
  writeStream(Path, Events, Routines);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(Reader.routines(), namesOf(Routines));
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

  std::vector<std::vector<Event>> InOrder(Reader.chunkCount());
  uint64_t IndexedEvents = 0;
  for (size_t I = 0; I != Reader.chunkCount(); ++I) {
    ASSERT_TRUE(Reader.readChunk(I, InOrder[I])) << Reader.error();
    EXPECT_EQ(packedEventCount(InOrder[I]), Reader.chunkEvents(I));
    IndexedEvents += Reader.chunkEvents(I);
  }
  EXPECT_EQ(IndexedEvents, Events.size());

  std::vector<Event> Chunk;
  for (size_t I = Reader.chunkCount(); I-- != 0;) {
    ASSERT_TRUE(Reader.readChunk(I, Chunk)) << Reader.error();
    EXPECT_TRUE(Chunk == InOrder[I]) << "chunk " << I;
  }

  std::vector<EventRecord> All;
  for (const auto &C : InOrder) {
    std::vector<EventRecord> Records = decodeEventStream(C);
    All.insert(All.end(), Records.begin(), Records.end());
  }
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

  // Replay resumed from a mid-stream chunk yields exactly the tail.
  size_t Mid = Reader.chunkCount() / 2;
  uint64_t Skipped = 0;
  for (size_t I = 0; I != Mid; ++I)
    Skipped += Reader.chunkEvents(I);
  Reader.seek(Mid);
  std::vector<EventRecord> Tail;
  std::vector<Event> Chunk;
  while (Reader.nextChunk(Chunk)) {
    std::vector<EventRecord> Records = decodeEventStream(Chunk);
    Tail.insert(Tail.end(), Records.begin(), Records.end());
  }
  ASSERT_TRUE(Reader.error().empty()) << Reader.error();
  ASSERT_EQ(Tail.size(), Events.size() - Skipped);
  for (size_t I = 0; I != Tail.size(); ++I)
    EXPECT_EQ(Tail[I], Events[Skipped + I]);
  std::remove(Path.c_str());
}

TEST(TraceStream, EmptyStreamIsValid) {
  RoutineTable Routines = {{0, "only"}};
  std::string Path = tempPath("isprof_stream_empty.strm");
  writeStream(Path, {}, Routines);

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(Reader.chunkCount(), 0u);
  EXPECT_EQ(Reader.eventCount(), 0u);
  EXPECT_EQ(Reader.routines(), namesOf(Routines));
  std::vector<Event> Chunk;
  EXPECT_FALSE(Reader.nextChunk(Chunk));
  EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  std::remove(Path.c_str());
}

TEST(TraceStream, WriterRefusesSparseRoutineTable) {
  // A routine's id is its position in the header, so a table whose ids
  // are not 0..n-1 cannot be written: the writer says so, creates no
  // file, and reports the failure again at close().
  std::string Path = tempPath("isprof_stream_sparse.strm");
  std::remove(Path.c_str());
  TraceStreamWriter Writer;
  EXPECT_FALSE(Writer.open(Path, {{5, "five"}, {9, "nine"}}));
  EXPECT_EQ(Writer.error(),
            "routine 'five' has id 5, not its table position 0");
  EXPECT_FALSE(Writer.isOpen());
  EXPECT_FALSE(std::ifstream(Path).good());
  Writer.append(EventRecord::threadStart(0, 0));
  EXPECT_FALSE(Writer.close());
}

//===----------------------------------------------------------------------===//
// Dispatcher integration: sink identity, bounded writer memory
//===----------------------------------------------------------------------===//

TEST(TraceStream, SinkObservesExactlyTheRecordedStream) {
  // The RecordSink contract: the stream writer, as the dispatcher's
  // sink, is handed the compacted stream batch by batch. Reading the
  // file back must reproduce exactly the words it was handed.
  std::vector<EventRecord> Raw = makeTrace(4000, 10);
  std::string Path = tempPath("isprof_stream_sink.strm");

  /// Hands every batch to the writer and keeps a copy.
  struct TeeSink : EventDispatcher::RecordSink {
    explicit TeeSink(TraceStreamWriter &Writer) : Writer(Writer) {}
    void recordBatch(const Event *Words, size_t Count) override {
      Writer.recordBatch(Words, Count);
      Copy.recordBatch(Words, Count);
    }
    TraceStreamWriter &Writer;
    WordSink Copy;
  };
  TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, {}));
  TeeSink Tee(Writer);
  EventDispatcher Dispatcher;
  Dispatcher.setRecordSink(&Tee);
  Dispatcher.start(nullptr);
  for (const EventRecord &E : Raw)
    Dispatcher.enqueue(E);
  Dispatcher.finish();
  ASSERT_TRUE(Writer.close()) << Writer.error();
  EXPECT_LT(packedEventCount(Tee.Copy.Words), Raw.size()); // compacted
  EXPECT_EQ(Writer.eventsWritten(), packedEventCount(Tee.Copy.Words));

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(readAll(Reader), decodeEventStream(Tee.Copy.Words));
  EXPECT_TRUE(Reader.error().empty()) << Reader.error();
  std::remove(Path.c_str());
}

TEST(TraceStream, StreamedReplayMatchesInMemoryProfile) {
  // Profile equivalence end to end: replaying a stream file through
  // replayTraceStream, which hands each decoded chunk to the tool as one
  // batch, gives every tool the report that enqueuing the identical
  // event sequence into a dispatcher gives. The enqueuing dispatcher
  // merges access runs that the stream delivers unmerged, and 192-byte
  // chunks cut many of those runs at a chunk boundary.
  TraceStreamOptions SmallChunks;
  SmallChunks.ChunkBytes = 192;
  for (uint64_t Seed : {11u, 12u}) {
    std::vector<EventRecord> Events = makeTrace(6000, Seed);
    auto Enqueue = [&Events](Tool &T) {
      EventDispatcher Dispatcher;
      Dispatcher.addTool(&T);
      Dispatcher.start(nullptr);
      for (const EventRecord &E : Events)
        Dispatcher.enqueue(E);
      Dispatcher.finish();
    };
    std::string Path = tempPath("isprof_stream_profile.strm");
    writeStream(Path, Events, {}, SmallChunks);

    // One hardware thread replays serially; four publish each chunk to
    // the tool on a worker while the next one is decoded.
    for (unsigned Hw : {1u, 4u}) {
      for (const std::string &Name : allToolNames()) {
        std::unique_ptr<Tool> InMemory = makeTool(Name);
        std::unique_ptr<Tool> Streamed = makeTool(Name);
        Enqueue(*InMemory);
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
      Enqueue(InMemory);

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
  const uint64_t MaxEncodedEvent = 1 + 3 * 10; // kind byte + three varints
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

/// 64-bit FNV-1a over \p Bytes, continued from \p Hash.
uint64_t fnv1a(const std::string &Bytes,
               uint64_t Hash = 0xcbf29ce484222325ULL) {
  for (char C : Bytes) {
    Hash ^= static_cast<unsigned char>(C);
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

/// The footer offset a stream's 24-byte trailer points at.
uint64_t footerOffsetOf(const std::string &Bytes) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(
             static_cast<unsigned char>(Bytes[Bytes.size() - 24 + I]))
         << (8 * I);
  return V;
}

/// FNV-1a of bytes [8, footer offset): the routine table and every
/// chunk, which no change of magic or trailer touches.
uint64_t bodyHash(const std::string &Bytes) {
  return fnv1a(Bytes.substr(8, footerOffsetOf(Bytes) - 8));
}

TEST(TraceStreamGolden, FileBytesMatchPinnedHashes) {
  // Streams outlive the binary that wrote them, and their size is a
  // benchmark metric, so the writer's output is pinned byte for byte,
  // twice: the body hash covers the routine table and the chunks, so it
  // proves no event byte moved; the file hash covers everything, magic
  // and trailer included. Both were taken from the ISPSTM06 writer. The
  // trace ends with events that need the rare encodings: the largest
  // thread id, large and decreasing addresses (long zigzag deltas).
  std::vector<EventRecord> Events = makeTrace(20000, 23);
  ThreadId BigTid = MaxThreadId;
  Events.push_back(EventRecord::threadStart(BigTid, 0));
  Events.push_back(EventRecord::write(BigTid, uint64_t(1) << 40, 3));
  Events.push_back(EventRecord::read(BigTid, 17));
  Events.push_back(EventRecord::ret(BigTid, 2, ~uint64_t(0)));
  Events.push_back(EventRecord::threadEnd(BigTid));
  const RoutineTable Routines = {{0, "main"}, {1, "worker"}, {2, "ret"}};

  struct Case {
    bool ViaSink;
    size_t ChunkBytes;
    uint64_t BodyHash;
    uint64_t FileHash;
  };
  const Case Cases[] = {
      {false, size_t(1) << 16, 0xea5caa4ae46135f7ULL, 0xe6019e7c88fa7e29ULL},
      {false, 256, 0x0687af59030014c7ULL, 0xf23d2000114d7381ULL},
      // Through a sink the stream is the dispatcher's compacted one, so
      // these also pin where 4,096-word batches stop access runs from
      // merging (taken from the serial writer at that batch size).
      {true, size_t(1) << 16, 0x98cce8bade63d2caULL, 0x161e69af96631f48ULL},
      {true, 256, 0xed3938dfc787ec00ULL, 0x342a9fe59d066b6dULL},
  };
  std::string Path = tempPath("isprof_stream_golden.strm");
  // The sink writes on the producer thread with one hardware thread and
  // on a pipeline worker with two; the bytes must not care.
  for (unsigned Hw : {1u, 2u})
    for (const Case &C : Cases) {
      TraceStreamOptions Opts;
      Opts.ChunkBytes = C.ChunkBytes;
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
      std::string Bytes = readFile(Path);
      uint64_t Body = bodyHash(Bytes), File = fnv1a(Bytes);
      EXPECT_EQ(Body, C.BodyHash)
          << std::hex << "body 0x" << Body
          << (C.ViaSink ? " via sink" : " via append") << std::dec << ", "
          << C.ChunkBytes << "-byte chunks, " << Hw << " threads";
      EXPECT_EQ(File, C.FileHash)
          << std::hex << "file 0x" << File
          << (C.ViaSink ? " via sink" : " via append") << std::dec << ", "
          << C.ChunkBytes << "-byte chunks, " << Hw << " threads";
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

/// Hand-builds stream files around arbitrary routine tables, chunk
/// payloads and footers, with a valid checksum, so single fields can be
/// made hostile in isolation and still reach the check they target.
struct StreamBuilder {
  std::string Bytes;
  struct IndexEntry {
    uint64_t Offset, Events;
  };
  std::vector<IndexEntry> Index;
  /// Footer entries carry all-ones routine, shard and written masks;
  /// without, each entry stops after its event count.
  bool WithMasks = true;

  /// \p RoutineTable defaults to an empty table (a zero count).
  explicit StreamBuilder(const std::string &RoutineTable = std::string(1, '\0'))
      : Bytes("ISPSTM06" + RoutineTable) {}
  /// Appends a chunk; \p Events is what the footer index will claim.
  void addChunk(const std::string &Payload, uint64_t Events) {
    Index.push_back({Bytes.size(), Events});
    appendU32(Bytes, static_cast<uint32_t>(Payload.size()));
    Bytes += Payload;
  }
  /// The file: the chunks so far, then the footer index of Index.
  std::string finish() const {
    std::string Footer;
    appendVarint(Footer, Index.size());
    for (const IndexEntry &E : Index) {
      appendVarint(Footer, E.Offset);
      appendVarint(Footer, E.Events);
      for (int Word = 0; WithMasks && Word != 9; ++Word)
        appendVarint(Footer, ~uint64_t(0));
    }
    return seal(Footer);
  }
  /// The file with \p Footer in place of the footer index, and a trailer
  /// whose checksum covers the header, \p Footer and the footer offset.
  std::string seal(const std::string &Footer) const {
    size_t HeaderEnd = Index.empty() ? Bytes.size() : Index.front().Offset;
    uint64_t FooterOffset = Bytes.size();
    std::string Covered = Footer;
    appendU64(Covered, FooterOffset);
    std::string Out = Bytes + Covered;
    appendU64(Out, fnv1a(Covered, fnv1a(Bytes.substr(0, HeaderEnd))));
    Out.append("ISPSTMIX", 8);
    return Out;
  }
};

/// One well-formed encoded event for hand-built payloads.
void appendEvent(std::string &Out, uint64_t Tid = 0, uint64_t Arg0Zigzag = 0,
                 uint64_t Arg1 = 0) {
  Out.push_back(0); // smallest valid kind
  appendVarint(Out, Tid);
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
    std::vector<Event> Chunk;
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
/// and once followed by 36 bytes of valid events, where a worst-case
/// record (31 bytes) still fits and one bounds check covers all three
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
  // An Arg0-delta varint with eleven continuation bytes: more than any
  // uint64 can need. The chunk framing is valid, so only the in-chunk
  // varint decoder can catch it.
  std::string Overlong;
  Overlong.push_back(0);     // kind
  appendVarint(Overlong, 0); // tid
  for (int I = 0; I != 11; ++I)
    Overlong.push_back(static_cast<char>(0x81));
  Overlong.push_back(0x00);  // the overlong Arg0 delta
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
  expectOnBothDecodePaths(Wrap, "corrupt chunk: bad event varint");

  // The largest value ten bytes may hold is accepted on both paths.
  std::string Max;
  Max.push_back(0);
  appendVarint(Max, 0);
  appendVarint(Max, ~uint64_t(0));
  appendVarint(Max, 0);
  expectOnBothDecodePaths(Max, "");
}

TEST(TraceStreamHardening, RejectsInvalidKindAndThreadId) {
  // One past the last event kind.
  std::string BadKind;
  BadKind.push_back(static_cast<char>(EventKind::Free) + 1);
  for (int I = 0; I != 3; ++I)
    appendVarint(BadKind, 0);
  expectOnBothDecodePaths(BadKind, "corrupt chunk: invalid event kind");

  // Thread ids one past MaxThreadId (which tools size per-thread tables
  // by) and one past UINT32_MAX: valid varints, invalid ids.
  for (uint64_t Tid : {uint64_t(MaxThreadId) + 1, uint64_t(UINT32_MAX) + 1}) {
    std::string BigTid;
    BigTid.push_back(0);
    appendVarint(BigTid, Tid);
    for (int I = 0; I != 2; ++I)
      appendVarint(BigTid, 0);
    expectOnBothDecodePaths(BigTid, "corrupt chunk: thread id out of range");
  }
  std::string MaxTid;
  MaxTid.push_back(0);
  appendVarint(MaxTid, MaxThreadId);
  for (int I = 0; I != 2; ++I)
    appendVarint(MaxTid, 0);
  expectOnBothDecodePaths(MaxTid, "");
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
  // The largest thread id keys the stacks without sizing any table.
  expectOnBothDecodePaths(
      encodedEvent(EventKind::Call, 1, 0, MaxThreadId) +
          encodedEvent(EventKind::Return, 2, 0, MaxThreadId),
      Mismatch, 2);

  // Twenty nested activations (deeper than a stack's first allocation)
  // with a ThreadStart in the middle, which moves no stack; then the
  // same nest with its innermost Return naming the outer routine.
  std::vector<EventRecord> Deep;
  for (RoutineId R = 0; R != 20; ++R)
    Deep.push_back(EventRecord::call(3, R));
  Deep.push_back(EventRecord::threadStart(3, 0));
  std::vector<EventRecord> DeepBad = Deep;
  DeepBad.push_back(EventRecord::ret(3, 0, 0));
  for (RoutineId R = 20; R-- != 0;)
    Deep.push_back(EventRecord::ret(3, R, 0));
  std::string Path = tempPath("isprof_stream_deep.strm");
  for (const auto &[Events, Diagnostic] :
       {std::pair(Deep, std::string()), std::pair(DeepBad, Mismatch)}) {
    writeStream(Path, Events, {});
    EXPECT_EQ(probeStream(readFile(Path), "isprof_stream_deep_probe.strm"),
              Diagnostic);
  }
  std::remove(Path.c_str());
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
              {EventRecord::threadStart(0, 0), EventRecord::call(0, 1),
               EventRecord::read(0, 100), EventRecord::ret(0, 2, 0),
               EventRecord::threadEnd(0)},
              {{0, "main"}, {1, "a"}, {2, "b"}}, OneEventChunks);
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
    std::vector<Event> Chunk;
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
      Writer.append(EventRecord::read(Events[I].Tid, uint64_t(0x10000000000)));
  }
  ASSERT_TRUE(Writer.close()) << Writer.error();

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  size_t BadChunk = Reader.chunkCount();
  uint64_t EventsBefore = 0;
  std::vector<Event> Chunk;
  for (size_t I = 0; I != Reader.chunkCount(); ++I) {
    if (!Reader.readChunk(I, Chunk)) {
      BadChunk = I;
      break;
    }
    EventsBefore += packedEventCount(Chunk);
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
  appendEvent(Payload);
  appendEvent(Payload);
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
  std::string HugeCount;
  appendVarint(HugeCount, uint64_t(1) << 58);
  Diag = probeStream(B2.seal(HugeCount), "isprof_stream_hugechunks.strm");
  EXPECT_NE(Diag.find("corrupt footer"), std::string::npos) << Diag;
}

TEST(TraceStreamHardening, RejectsCorruptTrailer) {
  std::vector<EventRecord> Events = makeTrace(200, 14);
  std::string Path = tempPath("isprof_stream_trailer.strm");
  writeStream(Path, Events, {});
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());
  ASSERT_GE(Bytes.size(), 24u);

  std::string BadMagic = Bytes;
  BadMagic[BadMagic.size() - 1] ^= 0x01;
  std::string Diag = probeStream(BadMagic, "isprof_stream_badmagic.strm");
  EXPECT_NE(Diag.find("bad trailer magic"), std::string::npos) << Diag;

  for (uint64_t Hostile : {uint64_t(0), ~uint64_t(0), uint64_t(Bytes.size())}) {
    std::string BadOffset = Bytes;
    for (int I = 0; I != 8; ++I)
      BadOffset[BadOffset.size() - 24 + I] =
          static_cast<char>((Hostile >> (8 * I)) & 0xff);
    Diag = probeStream(BadOffset, "isprof_stream_badoffset.strm");
    EXPECT_FALSE(Diag.empty()) << "footer offset " << Hostile << " accepted";
  }

  std::string BadChecksum = Bytes;
  BadChecksum[BadChecksum.size() - 16] ^= 0x01;
  EXPECT_EQ(probeStream(BadChecksum, "isprof_stream_badsum.strm"),
            "corrupt stream metadata: checksum mismatch");
}

TEST(TraceStreamHardening, AlteredMetadataFailsTheChecksum) {
  // Metadata that still parses but was changed on disk: a routine
  // renamed in place, two routines swapped (which moves both ids), and
  // a Call's routine-mask bit cleared (what filtered collect would
  // otherwise trust to skip the chunk). Each is refused at open() by
  // the checksum.
  std::vector<EventRecord> Events = {
      EventRecord::threadStart(0, 0), EventRecord::call(0, 1),
      EventRecord::read(0, 100), EventRecord::ret(0, 1, 0),
      EventRecord::threadEnd(0)};
  std::string Path = tempPath("isprof_stream_altered.strm");
  writeStream(Path, Events, {{0, "main"}, {1, "work"}});
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());
  ASSERT_EQ(probeStream(Bytes, "isprof_stream_altered.strm"), "");
  // Header: magic, count 2, length 4, "main", length 4, "work"; the
  // footer starts with count 1, offset 19, 5 events, routine mask 2.
  ASSERT_EQ(Bytes.substr(8, 11), std::string("\x02\x04main\x04work", 11));
  uint64_t Footer = footerOffsetOf(Bytes);
  ASSERT_EQ(Bytes.substr(Footer, 4), std::string("\x01\x13\x05\x02", 4));

  std::string Renamed = Bytes, Swapped = Bytes, Unmasked = Bytes;
  Renamed[15] = 'W';
  Swapped.replace(9, 10, std::string("\x04work\x04main", 10));
  Unmasked[Footer + 3] = 0;
  for (const std::string &Altered : {Renamed, Swapped, Unmasked})
    EXPECT_EQ(probeStream(Altered, "isprof_stream_altered.strm"),
              "corrupt stream metadata: checksum mismatch");
}

TEST(TraceStreamHardening, RejectsHostileRoutineTable) {
  // One table per routine-table diagnostic, each with a valid checksum
  // so the structural check is what trips.
  struct Case {
    std::string Table;
    const char *Diagnostic;
  };
  std::string HugeCount, LongName, Trailing, Duplicate;
  appendVarint(HugeCount, uint64_t(1) << 50);
  HugeCount += "ab";
  appendVarint(LongName, 1);
  appendVarint(LongName, 100);
  LongName += "abc";
  appendVarint(Trailing, 1);
  appendVarint(Trailing, 1);
  Trailing += "fx";
  // {0: "main", 1: "main", 2: "work"}: interning the names in order
  // would give "work" id 1, so the repeat is refused.
  appendVarint(Duplicate, 3);
  for (const char *Name : {"main", "main", "work"}) {
    appendVarint(Duplicate, 4);
    Duplicate += Name;
  }
  const Case Cases[] = {
      {HugeCount, "corrupt routine table: count exceeds header bytes"},
      {LongName, "corrupt routine table: truncated entry"},
      {Trailing, "corrupt routine table: trailing bytes"},
      {Duplicate, "corrupt routine table: duplicate name"},
  };
  for (const Case &C : Cases) {
    std::string Payload;
    appendVarint(Payload, 1);
    appendEvent(Payload);
    StreamBuilder B(C.Table);
    B.addChunk(Payload, 1);
    EXPECT_EQ(probeStream(B.finish(), "isprof_stream_table.strm"),
              C.Diagnostic);
  }
}

TEST(TraceStreamHardening, ExtremeFieldValuesRoundTrip) {
  // Fields that carry no guest address may take any value their width
  // allows, and the thread id any value up to MaxThreadId: the largest
  // thread id, and Return arguments of UINT64_MAX followed by an Arg0 of
  // 0, which forces the largest negative zigzag delta.
  EventRecord E = EventRecord::ret(MaxThreadId, 0, UINT64_MAX);
  E.Arg0 = UINT64_MAX;
  EventRecord E2 = E;
  E2.Arg0 = 0;
  const RoutineTable Routines = {{0, "edge"}};
  std::string Path = tempPath("isprof_stream_extreme.strm");
  writeStream(Path, {E, E2}, Routines);
  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  EXPECT_EQ(Reader.routines(), namesOf(Routines));
  ASSERT_EQ(Reader.chunkCount(), 1u);
  std::vector<Event> Chunk;
  ASSERT_TRUE(Reader.readChunk(0, Chunk)) << Reader.error();
  EXPECT_EQ(decodeEventStream(Chunk), (std::vector<EventRecord>{E, E2}));
  std::remove(Path.c_str());
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

/// True when byte \p Pos of the stream \p Bytes lies in the metadata
/// the checksum guards: the header (magic and routine table, up to the
/// first chunk at \p HeaderEnd), the footer index or the trailer.
bool isMetadataByte(const std::string &Bytes, size_t HeaderEnd, size_t Pos) {
  return Pos < HeaderEnd || Pos >= footerOffsetOf(Bytes);
}

TEST(TraceStreamHardening, CorruptFooterIndexFuzz) {
  // Change every header, footer-index and trailer byte, one at a time:
  // open() must refuse each. A change the structural checks let through
  // still changes the checksum. For a fixed byte b, FNV-1a's step
  // h' = (h ^ b) * p, with p odd, is a bijection in h; for a fixed h it
  // is injective in b. So two byte sequences of one length that differ
  // in one byte reach different states at that byte and keep differing
  // to the end: a single-byte change always changes the final hash. A
  // changed checksum field mismatches trivially, and a changed footer
  // offset moves the bytes read as the footer, which the structural
  // checks or the hash refuse.
  std::vector<EventRecord> Events = makeTrace(720, 16);
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 256;
  std::string Path = tempPath("isprof_stream_footersrc.strm");
  writeStream(Path, Events, {{0, "main"}, {1, "worker"}}, Opts);
  TraceStreamReader Source;
  ASSERT_TRUE(Source.open(Path)) << Source.error();
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());
  ASSERT_GT(Source.chunkCount(), 10u);
  size_t HeaderEnd = 8 + 1 + (1 + 4) + (1 + 6);
  ASSERT_EQ(Bytes.substr(HeaderEnd - 6, 6), "worker");

  std::string MutPath = tempPath("isprof_stream_footermut.strm");
  for (size_t Pos = 0; Pos != Bytes.size(); ++Pos) {
    if (!isMetadataByte(Bytes, HeaderEnd, Pos))
      continue;
    for (int Flip : {0x01, 0x40, 0xff}) {
      std::string Mutated = Bytes;
      Mutated[Pos] = static_cast<char>(Mutated[Pos] ^ Flip);
      writeFile(MutPath, Mutated);
      TraceStreamReader Reader;
      EXPECT_FALSE(Reader.open(MutPath))
          << "byte " << Pos << " ^ " << Flip << " accepted";
      EXPECT_FALSE(Reader.error().empty());
    }
  }
  std::remove(MutPath.c_str());
}

TEST(TraceStreamHardening, BitFlipFuzzNeverCrashes) {
  // Whole-file bit flips. A flip in the header, footer or trailer is
  // refused at open(), by the structural checks or the checksum (see
  // CorruptFooterIndexFuzz for why the hash always changes). Nothing
  // hashes chunk payloads, so a flip there may be accepted; the
  // contract is no crash, no unbounded allocation.
  std::vector<EventRecord> Events = makeTrace(300, 17);
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 512;
  std::string Path = tempPath("isprof_stream_flipsrc.strm");
  writeStream(Path, Events, {{0, "main"}}, Opts);
  std::string Bytes = readFile(Path);
  std::remove(Path.c_str());
  size_t HeaderEnd = 8 + 1 + (1 + 4);
  ASSERT_EQ(Bytes.substr(HeaderEnd - 4, 4), "main");

  std::string MutPath = tempPath("isprof_stream_flip.strm");
  for (size_t Pos = 0; Pos < Bytes.size(); Pos += 3) {
    for (int Bit : {0, 3, 7}) {
      std::string Mutated = Bytes;
      Mutated[Pos] = static_cast<char>(Mutated[Pos] ^ (1 << Bit));
      writeFile(MutPath, Mutated);
      TraceStreamReader Reader;
      if (Reader.open(MutPath)) {
        EXPECT_FALSE(isMetadataByte(Bytes, HeaderEnd, Pos))
            << "metadata byte " << Pos << " bit " << Bit << " accepted";
        std::vector<Event> Chunk;
        while (Reader.nextChunk(Chunk)) {
        }
      }
    }
  }
  std::remove(MutPath.c_str());
}

//===----------------------------------------------------------------------===//
// Per-chunk activity masks and the format version
//===----------------------------------------------------------------------===//

TEST(TraceStreamV2, ActivityMasksRoundTrip) {
  // One chunk: routine 3 called, memory confined to shadow-chunk keys
  // 0 and 5. The footer masks must name exactly those.
  std::vector<EventRecord> Events;
  Events.push_back(EventRecord::threadStart(0, 0));
  Events.push_back(EventRecord::call(0, 3));
  Events.push_back(EventRecord::write(0, 16, 4));        // key 0
  Events.push_back(EventRecord::read(0, 5 * 512 + 7, 2)); // key 5
  Events.push_back(EventRecord::ret(0, 3, 0));
  Events.push_back(EventRecord::threadEnd(0));
  std::string Path = tempPath("isprof_stream_v2masks.strm");
  writeStream(Path, Events, {});

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
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
  Events.push_back(EventRecord::threadStart(0, 0));
  Events.push_back(EventRecord::write(0, 0, 300 * 512));
  Events.push_back(EventRecord::threadEnd(0));
  std::string Path = tempPath("isprof_stream_v2wide.strm");
  writeStream(Path, Events, {});

  TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  const ShardActivityMask &Mask = Reader.chunkShardMask(0);
  for (uint64_t Word : Mask)
    EXPECT_EQ(Word, ~uint64_t(0));
  std::remove(Path.c_str());
}

TEST(TraceStreamV2, UnknownVersionsRejected) {
  // The earlier stream versions and a later one fail by name instead of
  // being misparsed.
  std::vector<EventRecord> Events = makeTrace(100, 19);
  std::string Path = tempPath("isprof_stream_version.strm");
  writeStream(Path, Events, {});
  std::string Bytes = readFile(Path);
  ASSERT_EQ(Bytes.substr(0, 8), "ISPSTM06");
  for (char Version : {'1', '2', '3', '4', '5', '7'}) {
    Bytes[7] = Version;
    writeFile(Path, Bytes);
    TraceStreamReader Reader;
    EXPECT_FALSE(Reader.open(Path));
    EXPECT_EQ(Reader.error(),
              std::string("unsupported trace stream version ") + Version);
    EXPECT_TRUE(isTraceStreamFile(Path)) << Version;
  }
  std::remove(Path.c_str());
}

TEST(TraceStreamV2, TruncatedMasksRejected) {
  // A footer whose entries lack the activity-mask words must be
  // rejected, not silently read past.
  StreamBuilder Builder;
  Builder.WithMasks = false;
  std::string Payload;
  appendVarint(Payload, 1);
  appendEvent(Payload);
  // The huge event count makes the mask-less entry wide enough to pass
  // the footer size clamp, so the mask read itself is what trips.
  Builder.addChunk(Payload, /*Events=*/~uint64_t(0));
  std::string Diag = probeStream(Builder.finish(), "isprof_stream_v2trunc.strm");
  EXPECT_NE(Diag.find("truncated activity masks"), std::string::npos) << Diag;
}

} // namespace
