//===- trace/TraceStream.cpp - Chunked streaming trace files -----------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceStream.h"

#include "instr/Tool.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <unordered_set>

using namespace isp;

static const char StreamMagic[8] = {'I', 'S', 'P', 'S', 'T', 'M', '0', '6'};
static const char TrailerMagic[8] = {'I', 'S', 'P', 'S', 'T', 'M', 'I', 'X'};

static constexpr size_t MagicBytes = sizeof(StreamMagic);
/// Bytes 0..6 of the magic ("ISPSTM0"), shared by every version.
static constexpr size_t MagicPrefixBytes = MagicBytes - 1;

/// Trailer: u64 footer offset, u64 checksum and the trailer magic,
/// always the last 24 file bytes.
static constexpr size_t TrailerBytes = 8 + 8 + sizeof(TrailerMagic);

namespace {

/// Longest LEB128 encoding of a uint64.
constexpr size_t MaxVarintBytes = 10;
/// Longest encoded event: the kind byte and three varints.
constexpr size_t MaxEncodedEventBytes = 1 + 3 * MaxVarintBytes;
/// Shortest encoded event: the kind byte and three one-byte varints.
constexpr size_t MinEncodedEventBytes = 4;

/// Unsigned LEB128 append.
void writeVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

/// The same encoding stored at \p P, which the caller has sized for
/// MaxVarintBytes; returns the byte past the varint.
ISP_ALWAYS_INLINE unsigned char *putVarint(unsigned char *P, uint64_t V) {
  while (V >= 0x80) {
    *P++ = static_cast<unsigned char>(V | 0x80);
    V >>= 7;
  }
  *P++ = static_cast<unsigned char>(V);
  return P;
}

/// Unsigned LEB128 read; false on truncation or overlong encodings. A
/// uint64 needs at most ten bytes, and the tenth may carry only bit 63:
/// a continuation bit or payload bits 64+ there mean the value cannot
/// fit, so the stream is rejected rather than silently wrapped.
bool readVarint(const std::string &Bytes, size_t &Pos, uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    if (Pos >= Bytes.size())
      return false;
    uint8_t Byte = static_cast<uint8_t>(Bytes[Pos++]);
    if (Shift == 63 && (Byte & 0xfe))
      return false;
    V |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      return true;
  }
  return false;
}

/// readVarint for a caller that has proved MaxVarintBytes bytes remain
/// at \p Pos: no bounds checks, the same overlong-encoding rejection.
ISP_ALWAYS_INLINE bool readVarintUnchecked(const unsigned char *Bytes,
                                           size_t &Pos, uint64_t &V) {
  uint64_t Byte = Bytes[Pos++];
  V = Byte & 0x7f;
  for (unsigned Shift = 7; Byte & 0x80; Shift += 7) {
    Byte = Bytes[Pos++];
    if (Shift == 63) {
      if (Byte & 0xfe)
        return false;
      V |= Byte << 63;
      return true;
    }
    V |= (Byte & 0x7f) << Shift;
  }
  return true;
}

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}
int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

/// The 64-bit FNV-1a hash of no bytes.
constexpr uint64_t FnvOffsetBasis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over \p Size bytes at \p Data, continued from \p Hash.
uint64_t fnv1a(uint64_t Hash, const void *Data, size_t Size) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= P[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

void appendU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

uint32_t decodeU32(const unsigned char *P) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(P[I]) << (8 * I);
  return V;
}

uint64_t decodeU64(const unsigned char *P) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceStreamWriter
//===----------------------------------------------------------------------===//

TraceStreamWriter::~TraceStreamWriter() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

bool TraceStreamWriter::open(
    const std::string &Path,
    const std::vector<std::pair<RoutineId, std::string>> &Routines,
    TraceStreamOptions Opts) {
  if (File)
    std::fclose(File);
  File = nullptr;
  Options = Opts;
  // A chunk's payload length is a u32: the event count plus events up
  // to one worst-case record past ChunkBytes must fit it.
  Options.ChunkBytes =
      std::clamp<size_t>(Options.ChunkBytes, 1,
                         UINT32_MAX - MaxVarintBytes - MaxEncodedEventBytes);
  // Left uninitialized: only bytes that events are encoded into are
  // ever touched.
  Buffer.reset(new unsigned char[ChunkHeadRoom + Options.ChunkBytes - 1 +
                                 MaxEncodedEventBytes]);
  Used = ChunkHeadRoom;
  Error.clear();
  Chunks.clear();
  ChunkEvents = 0;
  std::memset(LastArg0, 0, sizeof(LastArg0));
  EventsWritten = 0;
  BytesWritten = 0;
  PeakBufferedBytes = 0;
  Failed = false;
  ChunkRoutineMask = 0;
  ChunkShardMask = {};
  ChunkWrittenMask = {};
  // The header records names only: a routine's id is its position.
  std::string Header(StreamMagic, MagicBytes);
  writeVarint(Header, Routines.size());
  for (size_t I = 0; I != Routines.size(); ++I) {
    const auto &[Id, Name] = Routines[I];
    if (Id != I) {
      Error = "routine '" + Name + "' has id " + std::to_string(Id) +
              ", not its table position " + std::to_string(I);
      Failed = true;
      return false;
    }
    writeVarint(Header, Name.size());
    Header.append(Name);
  }
  File = std::fopen(Path.c_str(), "wb");
  if (!File) {
    Error = "cannot open '" + Path + "' for writing";
    Failed = true;
    return false;
  }
  MetaHash = fnv1a(FnvOffsetBasis, Header.data(), Header.size());
  writeRaw(Header.data(), Header.size());
  return !Failed;
}

void TraceStreamWriter::writeRaw(const void *Data, size_t Size) {
  if (Failed || !File)
    return;
  if (std::fwrite(Data, 1, Size, File) != Size) {
    Error = "short write to trace stream";
    Failed = true;
    return;
  }
  BytesWritten += Size;
}

/// Sets the shard-slot bits the cell range [Addr, Addr+Cells) touches.
static ISP_ALWAYS_INLINE void noteShardRange(ShardActivityMask &Mask, Addr A,
                                             uint64_t Cells) {
  uint64_t FirstKey = A >> ActivityChunkShift;
  uint64_t LastKey = (A + Cells - 1) >> ActivityChunkShift;
  if (ISP_LIKELY(Cells != 0 && FirstKey == LastKey)) {
    // One shadow chunk, the common case: slot FirstKey mod 256.
    Mask[(FirstKey >> 6) & 3] |= uint64_t(1) << (FirstKey & 63);
    return;
  }
  if (Cells == 0)
    return;
  if (LastKey - FirstKey >= ActivityShardSlots - 1) {
    Mask.fill(~uint64_t(0));
    return;
  }
  for (uint64_t Key = FirstKey; Key <= LastKey; ++Key) {
    unsigned Slot = static_cast<unsigned>(Key & (ActivityShardSlots - 1));
    Mask[Slot >> 6] |= uint64_t(1) << (Slot & 63);
  }
}

ISP_ALWAYS_INLINE void TraceStreamWriter::noteActivity(EventKind Kind,
                                                       uint64_t Arg0,
                                                       uint64_t Arg1) {
  switch (Kind) {
  case EventKind::Call:
    ChunkRoutineMask |= uint64_t(1) << (Arg0 & 63);
    return;
  case EventKind::Read:
  case EventKind::KernelRead:
    noteShardRange(ChunkShardMask, Arg0, Arg1);
    return;
  case EventKind::Write:
  case EventKind::KernelWrite:
    noteShardRange(ChunkShardMask, Arg0, Arg1);
    noteShardRange(ChunkWrittenMask, Arg0, Arg1);
    return;
  case EventKind::Alloc:
    // Allocation defines memory (shadow state changes) without a Read
    // or Write event; a filtered-ingest consumer must treat it as a
    // mutation, so it contributes to the written mask. It stays out of
    // the access-shard mask, whose consumers route only memory-access
    // events.
    noteShardRange(ChunkWrittenMask, Arg0, Arg1);
    return;
  default:
    return;
  }
}

ISP_ALWAYS_INLINE void TraceStreamWriter::put(const EventRecord &E) {
  if (Failed || !File)
    return;
  noteActivity(E.Kind, E.Arg0, E.Arg1);
  // The buffer always has room for one more worst-case record: it seals
  // as soon as the events reach ChunkBytes.
  uint8_t K = static_cast<uint8_t>(E.Kind);
  uint64_t &PrevArg0 = LastArg0[K & Event::KindMask];
  unsigned char *P = Buffer.get() + Used;
  *P++ = K;
  P = putVarint(P, E.Tid);
  P = putVarint(P, zigzag(static_cast<int64_t>(E.Arg0) -
                          static_cast<int64_t>(PrevArg0)));
  P = putVarint(P, E.Arg1);
  PrevArg0 = E.Arg0;
  Used = static_cast<size_t>(P - Buffer.get());
  ++ChunkEvents;
  ++EventsWritten;
  if (bufferedBytes() >= Options.ChunkBytes)
    sealChunk();
}

void TraceStreamWriter::append(const EventRecord &E) { put(E); }

void TraceStreamWriter::recordBatch(const Event *Words, size_t Count) {
  // Every flushed batch decodes standalone; decode and put() inline into
  // one loop.
  EventRecord E;
  for (size_t Pos = 0; Pos != Count;) {
    size_t N = decodeEvent(Words + Pos, Count - Pos, E);
    if (N == 0)
      return;
    put(E);
    Pos += N;
  }
}

void TraceStreamWriter::sealChunk() {
  if (ChunkEvents == 0)
    return;
  ChunkMeta Meta;
  Meta.Offset = BytesWritten;
  Meta.Events = ChunkEvents;
  Meta.RoutineMask = ChunkRoutineMask;
  Meta.ShardMask = ChunkShardMask;
  Meta.WrittenMask = ChunkWrittenMask;
  // Payload = varint event count + the buffered encoded events; the
  // chunk is the u32 payload length followed by the payload. Both
  // prefixes go into the head room right in front of the events.
  size_t EventBytes = bufferedBytes();
  PeakBufferedBytes = std::max<uint64_t>(PeakBufferedBytes, EventBytes);
  unsigned char Count[MaxVarintBytes];
  size_t CountBytes = static_cast<size_t>(putVarint(Count, ChunkEvents) - Count);
  unsigned char *Chunk = Buffer.get() + ChunkHeadRoom - CountBytes - 4;
  uint32_t PayloadLen = static_cast<uint32_t>(CountBytes + EventBytes);
  for (int I = 0; I != 4; ++I)
    Chunk[I] = static_cast<unsigned char>(PayloadLen >> (8 * I));
  std::memcpy(Chunk + 4, Count, CountBytes);
  writeRaw(Chunk, 4 + CountBytes + EventBytes);
  Chunks.push_back(Meta);
  Used = ChunkHeadRoom;
  ChunkEvents = 0;
  ChunkRoutineMask = 0;
  ChunkShardMask = {};
  ChunkWrittenMask = {};
  // Reset the delta state: each chunk decodes independently, which is
  // what makes chunk-level seek possible.
  std::memset(LastArg0, 0, sizeof(LastArg0));
}

bool TraceStreamWriter::close() {
  if (!File)
    return !Failed;
  sealChunk();
  uint64_t FooterOffset = BytesWritten;
  std::string Footer;
  writeVarint(Footer, Chunks.size());
  for (const ChunkMeta &Meta : Chunks) {
    writeVarint(Footer, Meta.Offset);
    writeVarint(Footer, Meta.Events);
    writeVarint(Footer, Meta.RoutineMask);
    for (uint64_t Word : Meta.ShardMask)
      writeVarint(Footer, Word);
    for (uint64_t Word : Meta.WrittenMask)
      writeVarint(Footer, Word);
  }
  appendU64(Footer, FooterOffset);
  uint64_t Checksum = fnv1a(MetaHash, Footer.data(), Footer.size());
  appendU64(Footer, Checksum);
  Footer.append(TrailerMagic, sizeof(TrailerMagic));
  writeRaw(Footer.data(), Footer.size());
  // fclose flushes stdio's buffer; a full disk surfaces here, not in
  // fwrite, so its result is part of the write succeeding.
  if (std::fclose(File) != 0 && !Failed) {
    Error = "close failed on trace stream";
    Failed = true;
  }
  File = nullptr;
  return !Failed;
}

//===----------------------------------------------------------------------===//
// TraceStreamReader
//===----------------------------------------------------------------------===//

TraceStreamReader::~TraceStreamReader() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

bool TraceStreamReader::fail(const std::string &Message) {
  Error = Message;
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
  return false;
}

bool TraceStreamReader::open(const std::string &Path) {
  if (File)
    std::fclose(File);
  File = nullptr;
  Error.clear();
  Routines.clear();
  Chunks.clear();
  TotalEvents = 0;
  FooterOffset = 0;
  Cursor = 0;
  Nesting.clear();
  NestingNext = 0;
  File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return fail("cannot open '" + Path + "'");
  if (std::fseek(File, 0, SEEK_END) != 0)
    return fail("cannot seek in '" + Path + "'");
  long EndPos = std::ftell(File);
  if (EndPos < 0)
    return fail("cannot tell file size of '" + Path + "'");
  uint64_t FileSize = static_cast<uint64_t>(EndPos);
  if (FileSize < MagicBytes + TrailerBytes)
    return fail("not a trace stream: file too small");

  char Head[MagicBytes];
  if (std::fseek(File, 0, SEEK_SET) != 0 ||
      std::fread(Head, 1, sizeof(Head), File) != sizeof(Head) ||
      std::memcmp(Head, StreamMagic, MagicPrefixBytes) != 0)
    return fail("not a trace stream: bad magic");
  char Version = Head[MagicPrefixBytes];
  if (Version != StreamMagic[MagicPrefixBytes]) {
    if (Version < '0' || Version > '9')
      return fail("not a trace stream: bad magic");
    return fail(std::string("unsupported trace stream version ") + Version);
  }

  // Trailer: the last 24 bytes locate the footer index and hold the
  // checksum.
  unsigned char Trailer[TrailerBytes];
  if (std::fseek(File, static_cast<long>(FileSize - TrailerBytes),
                 SEEK_SET) != 0 ||
      std::fread(Trailer, 1, TrailerBytes, File) != TrailerBytes)
    return fail("truncated trace stream: missing trailer");
  if (std::memcmp(Trailer + 16, TrailerMagic, sizeof(TrailerMagic)) != 0)
    return fail("truncated trace stream: bad trailer magic");
  FooterOffset = decodeU64(Trailer);
  if (FooterOffset < MagicBytes ||
      FooterOffset > FileSize - TrailerBytes)
    return fail("corrupt footer offset");

  // Footer index: chunk count, then (offset, events, masks) per chunk. Counts are clamped to what the footer bytes can encode
  // before anything is reserved.
  size_t FooterLen = static_cast<size_t>(FileSize - TrailerBytes - FooterOffset);
  std::string Footer(FooterLen, '\0');
  if (std::fseek(File, static_cast<long>(FooterOffset), SEEK_SET) != 0 ||
      std::fread(Footer.data(), 1, FooterLen, File) != FooterLen)
    return fail("truncated trace stream: missing footer");
  size_t Pos = 0;
  uint64_t ChunkCount = 0;
  if (!readVarint(Footer, Pos, ChunkCount))
    return fail("corrupt footer: bad chunk count");
  // Each index entry is at least eleven one-byte varints: offset,
  // events, the routine mask and eight mask words.
  constexpr size_t MinEntryBytes = 11;
  if (ChunkCount > (Footer.size() - Pos) / MinEntryBytes)
    return fail("corrupt footer: chunk count exceeds index bytes");
  Chunks.reserve(ChunkCount);
  uint64_t PrevEnd = MagicBytes;
  for (uint64_t I = 0; I != ChunkCount; ++I) {
    ChunkMeta Meta;
    if (!readVarint(Footer, Pos, Meta.Offset) ||
        !readVarint(Footer, Pos, Meta.Events))
      return fail("corrupt footer: truncated index entry");
    bool MasksOk = readVarint(Footer, Pos, Meta.RoutineMask);
    for (uint64_t &Word : Meta.ShardMask)
      MasksOk = MasksOk && readVarint(Footer, Pos, Word);
    if (!MasksOk)
      return fail("corrupt footer: truncated activity masks");
    for (uint64_t &Word : Meta.WrittenMask)
      MasksOk = MasksOk && readVarint(Footer, Pos, Word);
    if (!MasksOk)
      return fail("corrupt footer: truncated written masks");
    // Offsets must be in order, past the header (and every earlier
    // chunk), and leave room for the chunk's own length prefix.
    if (Meta.Offset < PrevEnd || Meta.Offset + 4 > FooterOffset)
      return fail("corrupt footer: chunk offset out of bounds");
    PrevEnd = Meta.Offset + 4;
    TotalEvents += Meta.Events;
    Chunks.push_back(Meta);
  }
  if (Pos != Footer.size())
    return fail("corrupt footer: trailing bytes");

  // Routine table: everything between the magic and the first chunk
  // (or the footer, for an event-free stream).
  uint64_t HeaderEnd = Chunks.empty() ? FooterOffset : Chunks.front().Offset;
  size_t HeaderLen = static_cast<size_t>(HeaderEnd - MagicBytes);
  std::string Header(HeaderLen, '\0');
  if (std::fseek(File, MagicBytes, SEEK_SET) != 0 ||
      std::fread(Header.data(), 1, HeaderLen, File) != HeaderLen)
    return fail("truncated trace stream: missing routine table");
  Pos = 0;
  uint64_t RoutineCount = 0;
  if (!readVarint(Header, Pos, RoutineCount))
    return fail("corrupt routine table: bad count");
  // Each routine needs at least its one-byte length varint.
  if (RoutineCount > Header.size() - Pos)
    return fail("corrupt routine table: count exceeds header bytes");
  Routines.reserve(RoutineCount);
  // A routine's id is its position, so a repeated name would shift the
  // ids of every later routine when a reader interns the names.
  std::unordered_set<std::string_view> Seen;
  for (uint64_t I = 0; I != RoutineCount; ++I) {
    uint64_t Len = 0;
    if (!readVarint(Header, Pos, Len) || Header.size() - Pos < Len)
      return fail("corrupt routine table: truncated entry");
    if (!Seen.insert(std::string_view(Header).substr(Pos, Len)).second)
      return fail("corrupt routine table: duplicate name");
    Routines.push_back(Header.substr(Pos, Len));
    Pos += Len;
  }
  if (Pos != Header.size())
    return fail("corrupt routine table: trailing bytes");

  // The metadata parsed; the checksum tells whether it is what the
  // writer wrote.
  uint64_t Checksum = fnv1a(FnvOffsetBasis, Head, MagicBytes);
  Checksum = fnv1a(Checksum, Header.data(), Header.size());
  Checksum = fnv1a(Checksum, Footer.data(), Footer.size());
  Checksum = fnv1a(Checksum, Trailer, 8);
  if (Checksum != decodeU64(Trailer + 8))
    return fail("corrupt stream metadata: checksum mismatch");
  return true;
}

bool TraceStreamReader::readChunk(size_t I, std::vector<Event> &Out) {
  // Every failure leaves Out empty.
  auto Corrupt = [&](const std::string &Message) {
    Out.clear();
    return fail(Message);
  };
  if (!File)
    return Corrupt(Error.empty() ? "trace stream is not open" : Error);
  if (I >= Chunks.size()) {
    Out.clear();
    Error = "chunk index out of range";
    return false;
  }
  const ChunkMeta &Meta = Chunks[I];
  unsigned char LenBytes[4];
  if (std::fseek(File, static_cast<long>(Meta.Offset), SEEK_SET) != 0 ||
      std::fread(LenBytes, 1, 4, File) != 4)
    return Corrupt("truncated chunk: missing length prefix");
  uint32_t PayloadLen = decodeU32(LenBytes);
  // A chunk must end before the footer index begins; a length that
  // runs past it (or past EOF) is rejected before any read.
  if (PayloadLen == 0 ||
      static_cast<uint64_t>(PayloadLen) > FooterOffset - (Meta.Offset + 4))
    return Corrupt("corrupt chunk: payload length out of bounds");
  Payload.resize(PayloadLen);
  if (std::fread(Payload.data(), 1, PayloadLen, File) != PayloadLen)
    return Corrupt("truncated chunk: payload cut short");

  size_t Pos = 0;
  uint64_t EventCount = 0;
  if (!readVarint(Payload, Pos, EventCount))
    return Corrupt("corrupt chunk: bad event count");
  // Clamp the declared count to what the payload can hold before sizing
  // Out, and cross-check it against the footer index so the two can
  // never disagree silently.
  if (EventCount > (Payload.size() - Pos) / MinEncodedEventBytes)
    return Corrupt("corrupt chunk: event count exceeds payload bytes");
  if (EventCount != Meta.Events)
    return Corrupt("corrupt chunk: event count disagrees with footer index");
  // Chunk 0 starts a new in-order pass; any chunk but the pass's next
  // ends nesting checks for it.
  if (I == 0)
    Nesting.clear();
  bool CheckNesting = I == 0 || I == NestingNext;
  NestingNext = CheckNesting ? I + 1 : NoNestingPass;
  // Per-chunk delta state: every chunk decodes from a clean slate.
  uint64_t LastArg0[Event::KindMask + 1] = {};
  // Words are encoded straight into Out. Out keeps the size the last
  // call left it as scratch: growing value-initializes only the new
  // tail, and it is trimmed to the decoded words at the end.
  size_t Words = 0;
  const auto *Bytes = reinterpret_cast<const unsigned char *>(Payload.data());
  const size_t Size = Payload.size();
  for (uint64_t N = 0; N != EventCount; ++N) {
    if (Pos >= Size)
      return Corrupt("corrupt chunk: truncated event");
    uint8_t KindByte = Bytes[Pos++];
    if (KindByte > static_cast<uint8_t>(EventKind::Free))
      return Corrupt("corrupt chunk: invalid event kind");
    uint64_t Tid = 0, Arg0Delta = 0, Arg1 = 0;
    // While three worst-case varints still fit the payload, one bounds
    // check covers them all; the last few records take the checked path.
    bool VarintsOk =
        Size - Pos >= 3 * MaxVarintBytes
            ? readVarintUnchecked(Bytes, Pos, Tid) &&
                  readVarintUnchecked(Bytes, Pos, Arg0Delta) &&
                  readVarintUnchecked(Bytes, Pos, Arg1)
            : readVarint(Payload, Pos, Tid) &&
                  readVarint(Payload, Pos, Arg0Delta) &&
                  readVarint(Payload, Pos, Arg1);
    if (!VarintsOk)
      return Corrupt("corrupt chunk: bad event varint");
    if (Tid > MaxThreadId)
      return Corrupt("corrupt chunk: thread id out of range");
    uint64_t &Arg0 = LastArg0[KindByte];
    Arg0 = static_cast<uint64_t>(static_cast<int64_t>(Arg0) +
                                 unzigzag(Arg0Delta));
    if (!eventAddressesInRange(static_cast<EventKind>(KindByte), Arg0, Arg1))
      return Corrupt("corrupt chunk: address out of range");
    if (ISP_UNLIKELY(CheckNesting && CallStacks::movesStacks(
                                         static_cast<EventKind>(KindByte))) &&
        !Nesting.noteEvent(static_cast<EventKind>(KindByte),
                           static_cast<ThreadId>(Tid), Arg0))
      return Corrupt("corrupt chunk: mismatched return");
    if (Out.size() - Words < Event::MaxWordsPerRecord)
      Out.resize(Words + Event::MaxWordsPerRecord + (EventCount - N - 1));
    EventRecord E{static_cast<EventKind>(KindByte),
                  static_cast<ThreadId>(Tid), Arg0, Arg1};
    Words += encodeEvent(E, Out.data() + Words);
  }
  if (Pos != Size)
    return Corrupt("corrupt chunk: trailing payload bytes");
  Out.resize(Words);
  return true;
}

bool TraceStreamReader::nextChunk(std::vector<Event> &Out) {
  if (Cursor >= Chunks.size()) {
    Out.clear();
    return false; // end of stream; error() stays empty
  }
  return readChunk(Cursor++, Out);
}

//===----------------------------------------------------------------------===//
// Free functions
//===----------------------------------------------------------------------===//

bool isp::isTraceStreamFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  char Head[MagicPrefixBytes];
  bool Ok = std::fread(Head, 1, sizeof(Head), File) == sizeof(Head) &&
            std::memcmp(Head, StreamMagic, MagicPrefixBytes) == 0;
  std::fclose(File);
  return Ok;
}

bool isp::replayTraceStream(TraceStreamReader &Reader, Tool &T,
                            const SymbolTable *Symbols) {
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&T);
  Dispatcher.start(Symbols);
  std::vector<Event> Chunk;
  Reader.seek(0);
  while (Reader.nextChunk(Chunk))
    Dispatcher.publishChunk(Chunk, Reader.chunkEvents(Reader.cursor() - 1));
  // finish() runs either way — joining the worker and calling onFinish —
  // so partial results are well-formed even when a mid-stream chunk is
  // corrupt.
  Dispatcher.finish();
  return Reader.error().empty();
}
