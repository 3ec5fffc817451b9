//===- support/Crc32c.h - CRC-32C checksums ---------------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32C (Castagnoli polynomial, reflected 0x82F63B78, initial value and
/// final XOR 0xFFFFFFFF), the checksum of trace stream chunk payloads.
/// crc32c() uses the SSE4.2 crc32 instruction when the CPU has it and a
/// byte table otherwise; both give the same value, so a stream written on
/// one host verifies on any other.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_SUPPORT_CRC32C_H
#define ISPROF_SUPPORT_CRC32C_H

#include <cstddef>
#include <cstdint>

namespace isp {

/// CRC-32C of \p Size bytes at \p Data.
uint32_t crc32c(const void *Data, size_t Size);

/// The two implementations crc32c() chooses between, exposed so tests can
/// pin that they agree. crc32cHardware() may be called only when
/// crc32cHardwareAvailable() is true.
uint32_t crc32cTable(const void *Data, size_t Size);
uint32_t crc32cHardware(const void *Data, size_t Size);
bool crc32cHardwareAvailable();

} // namespace isp

#endif // ISPROF_SUPPORT_CRC32C_H
