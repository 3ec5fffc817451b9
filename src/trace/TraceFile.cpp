//===- trace/TraceFile.cpp - Binary trace serialization ---------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceFile.h"

#include "trace/CallStacks.h"

#include <cstdint>
#include <cstdio>
#include <cstring>

using namespace isp;

static const char Magic[8] = {'I', 'S', 'P', 'T', 'R', 'C', '0', '1'};
static const char MagicV2[8] = {'I', 'S', 'P', 'T', 'R', 'C', '0', '2'};

namespace {

/// Appends fixed-width little-endian integers to a byte buffer.
class ByteWriter {
public:
  explicit ByteWriter(std::string &Out) : Out(Out) {}

  void writeU32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void writeU64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void writeBytes(const void *Data, size_t Size) {
    Out.append(static_cast<const char *>(Data), Size);
  }

private:
  std::string &Out;
};

/// Reads fixed-width little-endian integers from a byte buffer; sets a
/// sticky failure flag on underflow instead of reading out of bounds.
class ByteReader {
public:
  ByteReader(const char *Data, size_t Size) : Data(Data), Size(Size) {}

  bool readU32(uint32_t &V) {
    if (!ensure(4))
      return false;
    V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(static_cast<unsigned char>(Data[Pos++]))
           << (8 * I);
    return true;
  }
  bool readU64(uint64_t &V) {
    if (!ensure(8))
      return false;
    V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(static_cast<unsigned char>(Data[Pos++]))
           << (8 * I);
    return true;
  }
  bool readBytes(void *Out, size_t N) {
    if (!ensure(N))
      return false;
    std::memcpy(Out, Data + Pos, N);
    Pos += N;
    return true;
  }
  bool atEnd() const { return Pos == Size; }
  size_t remaining() const { return Size - Pos; }

private:
  bool ensure(size_t N) const { return Size - Pos >= N; }

  const char *Data;
  size_t Size;
  size_t Pos = 0;
};

} // namespace

namespace {

/// Unsigned LEB128 append.
void writeVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
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

/// ZigZag for signed deltas.
uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}
int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

std::string serializeCompressed(const TraceData &Data) {
  std::string Out;
  Out.reserve(16 + Data.Events.size() * 6);
  Out.append(MagicV2, sizeof(MagicV2));
  writeVarint(Out, Data.Routines.size());
  for (const auto &[Id, Name] : Data.Routines) {
    writeVarint(Out, Id);
    writeVarint(Out, Name.size());
    Out.append(Name);
  }
  writeVarint(Out, Data.Events.size());
  // Delta state: time is monotone (plain delta); Arg0 (addresses) is
  // delta-coded per event kind via zigzag since accesses cluster.
  uint64_t LastTime = 0;
  uint64_t LastArg0[32] = {};
  for (const EventRecord &E : Data.Events) {
    Out.push_back(static_cast<char>(E.Kind));
    writeVarint(Out, E.Tid);
    writeVarint(Out, E.Time - LastTime);
    LastTime = E.Time;
    uint8_t K = static_cast<uint8_t>(E.Kind);
    writeVarint(Out, zigzag(static_cast<int64_t>(E.Arg0) -
                            static_cast<int64_t>(LastArg0[K])));
    LastArg0[K] = E.Arg0;
    writeVarint(Out, E.Arg1);
  }
  return Out;
}

bool deserializeCompressed(const std::string &Bytes, TraceData &Data) {
  size_t Pos = sizeof(MagicV2);
  uint64_t RoutineCount = 0;
  if (!readVarint(Bytes, Pos, RoutineCount))
    return false;
  // Each routine needs at least two bytes (id + length varints), so a
  // count beyond remaining/2 is a lie — reject before trusting it.
  if (RoutineCount > (Bytes.size() - Pos) / 2)
    return false;
  Data.Routines.clear();
  for (uint64_t I = 0; I != RoutineCount; ++I) {
    uint64_t Id = 0, Len = 0;
    if (!readVarint(Bytes, Pos, Id) || !readVarint(Bytes, Pos, Len) ||
        Bytes.size() - Pos < Len)
      return false;
    if (Id > UINT32_MAX)
      return false;
    Data.Routines.emplace_back(static_cast<RoutineId>(Id),
                               Bytes.substr(Pos, Len));
    Pos += Len;
  }
  uint64_t EventCount = 0;
  if (!readVarint(Bytes, Pos, EventCount))
    return false;
  // The smallest encoded event is five bytes (kind + four one-byte
  // varints). Clamping the declared count to what the payload could
  // possibly hold keeps a hostile header from reserving gigabytes.
  if (EventCount > (Bytes.size() - Pos) / 5)
    return false;
  Data.Events.clear();
  Data.Events.reserve(EventCount);
  uint64_t LastTime = 0;
  uint64_t LastArg0[32] = {};
  for (uint64_t I = 0; I != EventCount; ++I) {
    if (Pos >= Bytes.size())
      return false;
    uint8_t KindByte = static_cast<uint8_t>(Bytes[Pos++]);
    if (KindByte > static_cast<uint8_t>(EventKind::ThreadSwitch))
      return false;
    EventRecord E;
    E.Kind = static_cast<EventKind>(KindByte);
    uint64_t Tid = 0, TimeDelta = 0, Arg0Delta = 0, Arg1 = 0;
    if (!readVarint(Bytes, Pos, Tid) ||
        !readVarint(Bytes, Pos, TimeDelta) ||
        !readVarint(Bytes, Pos, Arg0Delta) ||
        !readVarint(Bytes, Pos, Arg1))
      return false;
    // ThreadId is 32-bit; a larger varint would truncate silently.
    if (Tid > UINT32_MAX)
      return false;
    E.Tid = static_cast<ThreadId>(Tid);
    LastTime += TimeDelta;
    E.Time = LastTime;
    LastArg0[KindByte] = static_cast<uint64_t>(
        static_cast<int64_t>(LastArg0[KindByte]) + unzigzag(Arg0Delta));
    E.Arg0 = LastArg0[KindByte];
    E.Arg1 = Arg1;
    if (!eventAddressesInRange(E.Kind, E.Arg0, E.Arg1))
      return false;
    Data.Events.push_back(E);
  }
  return Pos == Bytes.size();
}

} // namespace

static std::string serializeRaw(const TraceData &Data) {
  std::string Out;
  Out.reserve(16 + Data.Events.size() * 29);
  ByteWriter W(Out);
  W.writeBytes(Magic, sizeof(Magic));
  W.writeU32(static_cast<uint32_t>(Data.Routines.size()));
  for (const auto &[Id, Name] : Data.Routines) {
    W.writeU32(Id);
    W.writeU32(static_cast<uint32_t>(Name.size()));
    W.writeBytes(Name.data(), Name.size());
  }
  W.writeU64(Data.Events.size());
  for (const EventRecord &E : Data.Events) {
    Out.push_back(static_cast<char>(E.Kind));
    W.writeU32(E.Tid);
    W.writeU64(E.Time);
    W.writeU64(E.Arg0);
    W.writeU64(E.Arg1);
  }
  return Out;
}

std::string isp::serializeTrace(const TraceData &Data, TraceFormat Format) {
  return Format == TraceFormat::Compressed ? serializeCompressed(Data)
                                           : serializeRaw(Data);
}

/// True when every Return closes its thread's innermost open Call (or
/// finds no open Call): the nesting the profilers assert on.
static bool callsWellNested(const std::vector<EventRecord> &Events) {
  CallStacks Nesting;
  for (const EventRecord &E : Events)
    if (CallStacks::movesStacks(E.Kind) &&
        !Nesting.noteEvent(E.Kind, E.Tid, E.Arg0))
      return false;
  return true;
}

static bool deserializeRaw(const std::string &Bytes, TraceData &Data) {
  ByteReader R(Bytes.data(), Bytes.size());
  char Header[8];
  if (!R.readBytes(Header, sizeof(Header)) ||
      std::memcmp(Header, Magic, sizeof(Magic)) != 0)
    return false;

  uint32_t RoutineCount = 0;
  if (!R.readU32(RoutineCount))
    return false;
  // A routine record is at least eight bytes (two u32s); bound the
  // declared count by the bytes actually present before reserving.
  if (RoutineCount > R.remaining() / 8)
    return false;
  Data.Routines.clear();
  Data.Routines.reserve(RoutineCount);
  for (uint32_t I = 0; I != RoutineCount; ++I) {
    uint32_t Id = 0, Len = 0;
    if (!R.readU32(Id) || !R.readU32(Len))
      return false;
    if (Len > R.remaining())
      return false;
    std::string Name(Len, '\0');
    if (!R.readBytes(Name.data(), Len))
      return false;
    Data.Routines.emplace_back(Id, std::move(Name));
  }

  uint64_t EventCount = 0;
  if (!R.readU64(EventCount))
    return false;
  // Raw events are 29 bytes each; an EventCount the payload cannot hold
  // is rejected before Events.reserve() trusts it.
  if (EventCount > R.remaining() / 29)
    return false;
  Data.Events.clear();
  Data.Events.reserve(EventCount);
  for (uint64_t I = 0; I != EventCount; ++I) {
    unsigned char KindByte = 0;
    EventRecord E;
    if (!R.readBytes(&KindByte, 1) || !R.readU32(E.Tid) ||
        !R.readU64(E.Time) || !R.readU64(E.Arg0) || !R.readU64(E.Arg1))
      return false;
    if (KindByte > static_cast<unsigned char>(EventKind::ThreadSwitch))
      return false;
    E.Kind = static_cast<EventKind>(KindByte);
    if (!eventAddressesInRange(E.Kind, E.Arg0, E.Arg1))
      return false;
    Data.Events.push_back(E);
  }
  return R.atEnd();
}

bool isp::deserializeTrace(const std::string &Bytes, TraceData &Data) {
  bool Compressed = Bytes.size() >= sizeof(MagicV2) &&
                    std::memcmp(Bytes.data(), MagicV2, sizeof(MagicV2)) == 0;
  return (Compressed ? deserializeCompressed(Bytes, Data)
                     : deserializeRaw(Bytes, Data)) &&
         callsWellNested(Data.Events);
}

bool isp::writeTraceFile(const std::string &Path, const TraceData &Data,
                         TraceFormat Format) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  std::string Bytes = serializeTrace(Data, Format);
  size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), File);
  // fclose flushes stdio's buffer; a full disk surfaces here, not in
  // fwrite, so its result is part of the write succeeding.
  int CloseResult = std::fclose(File);
  return Written == Bytes.size() && CloseResult == 0;
}

bool isp::readTraceFile(const std::string &Path, TraceData &Data) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  std::string Bytes;
  char Buffer[1 << 16];
  size_t N;
  while ((N = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Bytes.append(Buffer, N);
  // fread returning 0 means EOF *or* error; only EOF leaves the bytes
  // trustworthy enough to hand to the deserializer.
  bool ReadOk = !std::ferror(File);
  std::fclose(File);
  return ReadOk && deserializeTrace(Bytes, Data);
}
