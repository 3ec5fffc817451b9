//===- support/Crc32c.cpp - CRC-32C checksums -----------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

using namespace isp;

namespace {

constexpr uint32_t Polynomial = 0x82F63B78u;

constexpr std::array<uint32_t, 256> makeTable() {
  std::array<uint32_t, 256> Table = {};
  for (uint32_t Byte = 0; Byte != 256; ++Byte) {
    uint32_t Crc = Byte;
    for (int Bit = 0; Bit != 8; ++Bit)
      Crc = (Crc >> 1) ^ (Crc & 1 ? Polynomial : 0);
    Table[Byte] = Crc;
  }
  return Table;
}

constexpr std::array<uint32_t, 256> Table = makeTable();

} // namespace

uint32_t isp::crc32cTable(const void *Data, size_t Size) {
  const auto *P = static_cast<const unsigned char *>(Data);
  uint32_t Crc = ~uint32_t(0);
  for (size_t I = 0; I != Size; ++I)
    Crc = (Crc >> 8) ^ Table[(Crc ^ P[I]) & 0xff];
  return ~Crc;
}

#if defined(__x86_64__)

bool isp::crc32cHardwareAvailable() {
  static const bool Available = __builtin_cpu_supports("sse4.2");
  return Available;
}

__attribute__((target("sse4.2"))) uint32_t isp::crc32cHardware(const void *Data,
                                                               size_t Size) {
  const auto *P = static_cast<const unsigned char *>(Data);
  uint64_t Crc = ~uint32_t(0);
  for (; Size >= 8; P += 8, Size -= 8) {
    uint64_t Word;
    std::memcpy(&Word, P, 8);
    Crc = _mm_crc32_u64(Crc, Word);
  }
  auto Crc32 = static_cast<uint32_t>(Crc);
  for (; Size != 0; ++P, --Size)
    Crc32 = _mm_crc32_u8(Crc32, *P);
  return ~Crc32;
}

#else

bool isp::crc32cHardwareAvailable() { return false; }

uint32_t isp::crc32cHardware(const void *Data, size_t Size) {
  return crc32cTable(Data, Size);
}

#endif

uint32_t isp::crc32c(const void *Data, size_t Size) {
  return crc32cHardwareAvailable() ? crc32cHardware(Data, Size)
                                   : crc32cTable(Data, Size);
}
