//===- trace/TraceFile.h - Binary trace serialization -----------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of event traces to a compact binary format, enabling
/// offline profiling: record once under the VM, replay under any number
/// of analysis tools. The format is versioned and self-describing:
///
///   magic "ISPTRC01" | u32 routine count | routines (u32 id, u32 len,
///   bytes name) ... | u64 event count | packed events.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TRACE_TRACEFILE_H
#define ISPROF_TRACE_TRACEFILE_H

#include "trace/Event.h"

#include <string>
#include <utility>
#include <vector>

namespace isp {

/// A trace plus the symbol information needed to render reports.
struct TraceData {
  /// (routine id, routine name) pairs.
  std::vector<std::pair<RoutineId, std::string>> Routines;
  std::vector<EventRecord> Events;
};

/// On-disk encodings. Raw is the fixed-width v1 layout; Compressed (v2)
/// stores events as LEB128 varints with delta-coded timestamps and
/// addresses, typically 3-5x smaller on real traces. readTraceFile and
/// deserializeTrace auto-detect the format from the magic.
enum class TraceFormat { Raw, Compressed };

/// Writes \p Data to \p Path. Returns false on I/O failure.
bool writeTraceFile(const std::string &Path, const TraceData &Data,
                    TraceFormat Format = TraceFormat::Compressed);

/// Reads a trace from \p Path into \p Data. Returns false on I/O failure,
/// a malformed/mismatched header, an event addressing past the guest
/// address space (eventAddressesInRange), or a Return that does not close
/// its thread's innermost open Call (trace/CallStacks.h).
bool readTraceFile(const std::string &Path, TraceData &Data);

/// In-memory round trip used by tests and by tools that pipe traces
/// between stages without touching the filesystem.
std::string serializeTrace(const TraceData &Data,
                           TraceFormat Format = TraceFormat::Raw);
bool deserializeTrace(const std::string &Bytes, TraceData &Data);

} // namespace isp

#endif // ISPROF_TRACE_TRACEFILE_H
