//===- trace/TraceStream.h - Chunked streaming trace files ------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded-memory trace recording and replay: a delta/varint event codec
/// layered on an incremental, chunked file writer, so recording a long
/// run never materializes the whole event vector and replaying one never
/// loads more than a single chunk. This is isprof's one trace format.
///
/// Stream layout (magic "ISPSTM06"):
///
///   header  : magic | varint routine count
///             | routine names in id order (varint length, name bytes):
///               a routine's id is its position, and no name repeats
///   chunk*  : u32 payload length | payload
///   payload : varint event count | events, each a kind byte and three
///             varints (tid, zigzag Arg0 delta against the chunk's last
///             event of the same kind, Arg1), with the delta state RESET
///             at each chunk start, so every chunk decodes independently
///             — the property that makes chunk-level seek possible
///   footer  : varint chunk count
///             | per chunk (varint file offset, varint event count,
///               varint routine-activity mask,
///               4 x varint shard-activity mask words,
///               4 x varint written-shard mask words)
///   trailer : u64 footer offset | u64 checksum | magic "ISPSTMIX"
///
/// Events carry no time, and basic blocks have no record of their own
/// (trace/Event.h): a stream is the serialized trace, so its order is
/// the order of execution, and a Call's, Return's or ThreadEnd's Arg1
/// is the block count its thread ran since its previous boundary.
///
/// The footer index is written last (the writer knows chunk offsets only
/// after the fact) and found through the fixed-size trailer, so a reader
/// can seek to any chunk — and a truncated file is detected immediately
/// rather than half-replayed.
///
/// The checksum is a 64-bit FNV-1a over the header, the footer index and
/// the footer offset: every byte open() trusts without decoding a chunk.
/// open() verifies it after the structural checks pass, so metadata that
/// parses but was altered — a cleared mask bit, a renamed routine — is
/// "corrupt stream metadata: checksum mismatch". Chunk payloads are not
/// hashed; the reader's structural checks are their only guard. The
/// checksum detects damage, not forgery: anyone can recompute it.
///
/// The activity masks are per-chunk Bloom-style summaries: the routine
/// mask sets bit `RoutineId & 63` for every Call in the chunk, and the
/// 256-bit shard mask sets bit `(Addr >> ActivityChunkShift) & 255` for
/// every shadow chunk a memory access touches. The written-shard mask
/// records the shard slots touched by *mutating* events (Write,
/// KernelWrite, Alloc). Only the collector's routine-filtered ingest
/// reads the masks: it skips, undecoded, a chunk whose routine mask
/// rules out the filtered routines and whose written mask shows it
/// cannot induce any retained read (collect/Collector.cpp has the
/// suffix-union argument). Unfiltered replay and collect never read
/// them.
///
/// In memory, a decoded chunk is a run of packed 16-byte stream words
/// (trace/Event.h), the form the dispatcher hands its tools. Both codec
/// directions are one pass: the writer encodes each record straight
/// from the packed words into a chunk buffer allocated once, and the
/// reader decodes each record's varints straight into packed words in
/// the caller's vector (with a single bounds check per record whenever
/// a worst-case record still fits the payload). A decoded chunk is the
/// compacted stream and decodes standalone, so replay publishes it to
/// the tool as one batch.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TRACE_TRACESTREAM_H
#define ISPROF_TRACE_TRACESTREAM_H

#include "instr/Dispatcher.h"
#include "trace/CallStacks.h"
#include "trace/Event.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace isp {

class SymbolTable;
class Tool;

/// Shadow-chunk key geometry for the activity masks. A memory address
/// maps to shadow chunk key `Addr >> ActivityChunkShift`; the mask
/// records `key & (ActivityShardSlots - 1)`. Both constants are part of
/// the stream format: changing either changes what every recorded mask
/// means.
inline constexpr unsigned ActivityChunkShift = 9;
inline constexpr unsigned ActivityShardSlots = 256;

/// A 256-bit shard-activity bitmap: bit `k` of word `k / 64` is set when
/// the chunk touches some shadow chunk whose key folds to slot `k`.
using ShardActivityMask = std::array<uint64_t, 4>;

struct TraceStreamOptions {
  /// Target chunk payload size. A chunk is sealed when its encoded
  /// payload reaches this many bytes, so writer memory is bounded by
  /// roughly one chunk regardless of trace length. The default keeps
  /// chunks comfortably cache-resident while amortizing per-chunk
  /// overhead (header, footer entry, one fwrite) over ~10k events.
  size_t ChunkBytes = size_t(1) << 16;
};

/// Incremental trace writer: events stream to disk chunk by chunk as
/// they arrive. Implements EventDispatcher::RecordSink so it can be
/// plugged directly into the dispatcher as a recording sink that
/// consumes flushed batches (see EventDispatcher::setRecordSink).
class TraceStreamWriter : public EventDispatcher::RecordSink {
public:
  TraceStreamWriter() = default;
  ~TraceStreamWriter() override;
  TraceStreamWriter(const TraceStreamWriter &) = delete;
  TraceStreamWriter &operator=(const TraceStreamWriter &) = delete;

  /// Creates \p Path and writes the header. \p Routines must be dense,
  /// each id its position, as SymbolTable::entries() gives them. Returns
  /// false on I/O failure or a sparse routine table (error() explains).
  bool open(const std::string &Path,
            const std::vector<std::pair<RoutineId, std::string>> &Routines,
            TraceStreamOptions Opts = TraceStreamOptions());

  /// Appends one event to the current chunk, sealing it to disk when
  /// the target payload size is reached. I/O errors are sticky: the
  /// writer goes inert and close() reports the failure.
  void append(const EventRecord &E);
  /// Appends a flushed dispatcher batch of packed stream words (the
  /// RecordSink hook); each batch decodes standalone. Byte-identical to
  /// appending the batch's decoded records one by one.
  void recordBatch(const Event *Words, size_t Count) override;

  /// Seals the final chunk, writes the footer index and trailer, and
  /// closes the file. Returns false if any write (including earlier
  /// append I/O) failed. The writer can be reused via open() after.
  bool close();

  bool isOpen() const { return File != nullptr; }
  const std::string &error() const { return Error; }

  uint64_t eventsWritten() const { return EventsWritten; }
  uint64_t chunksWritten() const { return Chunks.size(); }
  uint64_t bytesWritten() const { return BytesWritten; }
  /// Bytes currently buffered for the open chunk, and the high-water
  /// mark over the stream's lifetime — the writer's whole variable
  /// memory cost, which the bounded-memory benchmarks assert stays flat
  /// as the event count grows.
  uint64_t bufferedBytes() const { return Used - ChunkHeadRoom; }
  uint64_t peakBufferedBytes() const {
    return std::max<uint64_t>(PeakBufferedBytes, bufferedBytes());
  }

private:
  struct ChunkMeta {
    uint64_t Offset = 0;
    uint64_t Events = 0;
    uint64_t RoutineMask = 0;
    ShardActivityMask ShardMask = {};
    ShardActivityMask WrittenMask = {};
  };

  /// Room kept in front of the buffered events for the chunk's u32
  /// payload length and varint event count, so a sealed chunk leaves in
  /// one write.
  static constexpr size_t ChunkHeadRoom = 4 + 10;

  /// Encodes one record into the open chunk: the single encoder behind
  /// append and recordBatch, defined (and inlined into both) in
  /// TraceStream.cpp.
  inline void put(const EventRecord &E);
  /// Folds one record into the open chunk's activity masks.
  inline void noteActivity(EventKind Kind, uint64_t Arg0, uint64_t Arg1);
  void sealChunk();
  void writeRaw(const void *Data, size_t Size);

  std::FILE *File = nullptr;
  TraceStreamOptions Options;
  /// The open chunk: ChunkHeadRoom bytes, then the encoded events. Sized
  /// once in open() to hold a chunk one byte short of ChunkBytes plus a
  /// worst-case record, the most it can hold before it seals.
  std::unique_ptr<unsigned char[]> Buffer;
  size_t Used = ChunkHeadRoom;
  std::string Error;
  std::vector<ChunkMeta> Chunks;
  uint64_t ChunkEvents = 0;
  /// Activity accumulated for the open chunk.
  uint64_t ChunkRoutineMask = 0;
  ShardActivityMask ChunkShardMask = {};
  ShardActivityMask ChunkWrittenMask = {};
  /// Per-chunk delta state (reset when a chunk is sealed), one Arg0
  /// predictor per encodable kind value.
  uint64_t LastArg0[Event::KindMask + 1] = {};
  uint64_t EventsWritten = 0;
  uint64_t BytesWritten = 0;
  uint64_t PeakBufferedBytes = 0;
  /// FNV-1a state over the bytes the trailer checksum covers.
  uint64_t MetaHash = 0;
  bool Failed = false;
};

/// Incremental trace reader: open() loads only the header and the
/// footer index; chunks are decoded one at a time into a caller-owned
/// reuse buffer, so replay memory is one chunk regardless of trace
/// length. Chunk-level random access (seek) goes through the index.
///
/// Every malformed input — truncated chunk, corrupt footer, overlong
/// varint, chunk length past EOF, an access past the guest address
/// space (MaxGuestAddress), a thread id past MaxThreadId, a repeated
/// routine name — is rejected with a diagnostic in error();
/// no input crashes the reader or a consumer's shadow memory, or makes
/// the reader allocate beyond what the actual payload bytes can back.
///
/// While chunks are read in order from the first, the reader also checks
/// call nesting per thread (CallStacks): a Return that does not close
/// its thread's innermost open Call is "corrupt chunk: mismatched
/// return". Reading any chunk but the next turns the check off until
/// chunk 0 is read again, since a pass that skips chunks (filtered
/// collect) tears frames on purpose.
class TraceStreamReader {
public:
  TraceStreamReader() = default;
  ~TraceStreamReader();
  TraceStreamReader(const TraceStreamReader &) = delete;
  TraceStreamReader &operator=(const TraceStreamReader &) = delete;

  /// Opens \p Path, validating the header, trailer, and footer index,
  /// then the checksum over them.
  bool open(const std::string &Path);

  const std::string &error() const { return Error; }
  /// Routine names in id order: routine I is named routines()[I].
  const std::vector<std::string> &routines() const { return Routines; }
  size_t chunkCount() const { return Chunks.size(); }
  /// Total events across all chunks, from the footer index (no decode).
  uint64_t eventCount() const { return TotalEvents; }
  /// Event count of chunk \p I, from the index.
  uint64_t chunkEvents(size_t I) const { return Chunks[I].Events; }

  /// Routine-activity mask of chunk \p I: bit `RoutineId & 63` is set
  /// for every Call the chunk contains.
  uint64_t chunkRoutineMask(size_t I) const { return Chunks[I].RoutineMask; }
  /// Shard-activity mask of chunk \p I (see ShardActivityMask).
  const ShardActivityMask &chunkShardMask(size_t I) const {
    return Chunks[I].ShardMask;
  }
  /// Written-shard mask of chunk \p I: shard slots touched by the
  /// chunk's mutating events (Write, KernelWrite, Alloc).
  const ShardActivityMask &chunkWrittenMask(size_t I) const {
    return Chunks[I].WrittenMask;
  }

  /// Decodes chunk \p I into packed stream words, replacing \p Out's
  /// contents (its storage is reused across calls). Each chunk's word
  /// run decodes standalone. Returns false, with \p Out empty and a
  /// diagnostic in error(), on any malformed chunk.
  bool readChunk(size_t I, std::vector<Event> &Out);

  /// Sequential cursor: decodes the next unread chunk into \p Out.
  /// Returns false at end of stream (error() empty) or on a malformed
  /// chunk (error() set). seek() repositions the cursor.
  bool nextChunk(std::vector<Event> &Out);
  void seek(size_t ChunkIndex) { Cursor = ChunkIndex; }
  size_t cursor() const { return Cursor; }

private:
  struct ChunkMeta {
    uint64_t Offset = 0;
    uint64_t Events = 0;
    uint64_t RoutineMask = 0;
    ShardActivityMask ShardMask = {};
    ShardActivityMask WrittenMask = {};
  };

  bool fail(const std::string &Message);

  std::FILE *File = nullptr;
  std::string Error;
  std::vector<std::string> Routines;
  std::vector<ChunkMeta> Chunks;
  uint64_t TotalEvents = 0;
  uint64_t FooterOffset = 0;
  size_t Cursor = 0;
  /// Open Calls of the in-order pass, and the chunk that continues it;
  /// NoNestingPass once the pass has read out of order.
  CallStacks Nesting;
  static constexpr size_t NoNestingPass = ~size_t(0);
  size_t NestingNext = 0;
  /// Reused raw-payload buffer (readChunk decodes out of it).
  std::string Payload;
};

/// True when \p Path starts with "ISPSTM0", the prefix every stream
/// version's magic shares. A spool scan selects files by it, so a file
/// of a version the reader does not accept is opened and rejected with
/// a diagnostic instead of silently dropping out of the scan.
bool isTraceStreamFile(const std::string &Path);

/// Replays \p Reader's full stream into \p T: the calling thread
/// decodes one chunk at a time and publishes each as one batch
/// (EventDispatcher::publishChunk), so \p T consumes chunk k on a worker
/// while chunk k+1 is decoded whenever delivery is pipelined. A chunk
/// decodes standalone and already holds the compacted stream the live
/// tools saw, so nothing is re-enqueued. Returns false on a read error
/// (Reader.error() explains); the tool still sees onFinish so partial
/// results are well-formed.
bool replayTraceStream(TraceStreamReader &Reader, Tool &T,
                       const SymbolTable *Symbols = nullptr);

} // namespace isp

#endif // ISPROF_TRACE_TRACESTREAM_H
