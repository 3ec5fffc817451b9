//===- trace/Event.h - Instrumentation event model --------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event vocabulary shared by the instrumentation substrate, the trace
/// files, and every analysis tool. This mirrors the trace model of the
/// paper's Section 4: routine activations (call/return), memory accesses
/// (read/write), kernel-mediated accesses (kernelRead/kernelWrite), plus
/// the synchronization and allocation events the comparison tools
/// (helgrind-, memcheck-analogues) need.
///
/// Two representations share the vocabulary:
///
///  - EventRecord is the decoded, fully explicit form (kind, tid, two
///    64-bit args) that tools, the on-disk codec, and every analysis
///    consume.
///  - Event is the packed 16-byte *stream word* the hot path moves:
///    dispatcher batch buffers, the recorded stream, and decoded
///    TraceStream chunks hold Events, so one cache line carries four
///    words instead of ~2 wide records.
///
/// An event carries no time. The VM emits one serialized trace, so its
/// order is the only clock any analysis needs; a thread switch is a
/// change of tid between consecutive events, which the profilers detect
/// as Figure 11 does (TrmsProfilerT::noteThread). Only TraceMerger,
/// which interleaves per-thread traces, keeps an ordering key of its
/// own.
///
/// Packed word layout:
///
///      Meta : u32   bits 0..5  event kind
///                   bit  7     a follow-on word follows
///      Tid  : u32   thread id
///      Arg  : u64   primary argument (Arg0; for BasicBlock the block
///                   count, since its Arg0 is always zero — keeping the
///                   count in the main word lets block-count folding
///                   stay a single in-place add)
///
/// The second argument rides in an optional follow-on word (Arg = Arg1,
/// Meta and Tid zero) emitted only when Arg1 differs from the kind's
/// default (1 cell for memory accesses, 0 otherwise). Single-cell reads
/// and writes — the dominant events — and basic blocks stay one word.
/// A record is thus one or two words, and a walk over a word run steps
/// over main/follow-on pairs.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TRACE_EVENT_H
#define ISPROF_TRACE_EVENT_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace isp {

/// Identifies a guest thread. Thread 0 is the initial (main) thread.
using ThreadId = uint32_t;

/// Identifies a routine (function) of the program under analysis.
using RoutineId = uint32_t;

/// A guest memory location. The substrate traces at the granularity of one
/// 64-bit guest cell per address, matching Definition 1's "memory cells".
using Addr = uint64_t;

/// The highest guest cell address. The guest address space (vm/Bytecode.h
/// lays out globals, heap and thread stacks below it) is 2^27 cells, and
/// the shadow memories (shadow/ShadowMemory.h) cover exactly that range,
/// so trace readers reject events that address past it.
inline constexpr Addr MaxGuestAddress = (Addr(1) << 27) - 1;

/// The highest thread id. Tools index per-thread tables by id, and
/// helgrind packs id + 1 into a 20-bit field of its epochs, so trace
/// readers reject larger ids. The VM's ids stay far below it (one per
/// stack slot, vm/Bytecode.h).
inline constexpr ThreadId MaxThreadId = (ThreadId(1) << 20) - 2;

/// Identifies a synchronization object (semaphore or mutex).
using SyncId = uint32_t;

/// The kinds of events a trace can contain.
enum class EventKind : uint8_t {
  ThreadStart,  ///< A thread begins execution. Arg0 = parent thread id.
  ThreadEnd,    ///< A thread finishes.
  Call,         ///< Routine activation. Arg0 = RoutineId.
  Return,       ///< Topmost activation completes. Arg0 = RoutineId,
                ///< Arg1 = basic blocks executed since the call (cost).
  BasicBlock,   ///< One basic-block entry (the cost metric). Arg1 = count.
  Read,         ///< Memory read. Arg0 = Addr, Arg1 = cell count.
  Write,        ///< Memory write. Arg0 = Addr, Arg1 = cell count.
  KernelRead,   ///< The OS reads guest memory on the thread's behalf
                ///< (thread sends data to a device). Arg0/Arg1 as Read.
  KernelWrite,  ///< The OS writes guest memory on the thread's behalf
                ///< (thread receives external data). Arg0/Arg1 as Write.
  SyncAcquire,  ///< Semaphore wait / mutex lock completed. Arg0 = SyncId,
                ///< Arg1 = 1 when the object is a mutex-style lock.
  SyncRelease,  ///< Semaphore post / mutex unlock. Arg0/Arg1 as above.
  ThreadCreate, ///< Arg0 = created thread id.
  ThreadJoin,   ///< Arg0 = joined thread id.
  Alloc,        ///< Heap allocation. Arg0 = Addr, Arg1 = cell count.
  Free          ///< Heap release. Arg0 = Addr.
};

/// Returns a printable name for \p Kind.
const char *eventKindName(EventKind Kind);

/// True when an event of \p Kind with arguments \p Arg0, \p Arg1 stays
/// inside the guest address space: cells [Arg0, Arg0 + Arg1) of an
/// access or allocation (checked so the sum cannot wrap), the address
/// of a Free. Other kinds carry no address.
inline bool eventAddressesInRange(EventKind Kind, uint64_t Arg0,
                                  uint64_t Arg1) {
  switch (Kind) {
  case EventKind::Read:
  case EventKind::Write:
  case EventKind::KernelRead:
  case EventKind::KernelWrite:
  case EventKind::Alloc:
    return Arg0 <= MaxGuestAddress && Arg1 <= MaxGuestAddress + 1 - Arg0;
  case EventKind::Free:
    return Arg0 <= MaxGuestAddress;
  default:
    return true;
  }
}

/// A single decoded trace event.
struct EventRecord {
  EventKind Kind = EventKind::ThreadStart;
  ThreadId Tid = 0;
  uint64_t Arg0 = 0;
  uint64_t Arg1 = 0;

  static EventRecord threadStart(ThreadId Tid, ThreadId Parent) {
    return {EventKind::ThreadStart, Tid, Parent, 0};
  }
  static EventRecord threadEnd(ThreadId Tid) {
    return {EventKind::ThreadEnd, Tid, 0, 0};
  }
  static EventRecord call(ThreadId Tid, RoutineId Rtn) {
    return {EventKind::Call, Tid, Rtn, 0};
  }
  static EventRecord ret(ThreadId Tid, RoutineId Rtn, uint64_t Cost) {
    return {EventKind::Return, Tid, Rtn, Cost};
  }
  static EventRecord basicBlock(ThreadId Tid, uint64_t Count = 1) {
    return {EventKind::BasicBlock, Tid, 0, Count};
  }
  static EventRecord read(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    return {EventKind::Read, Tid, A, Cells};
  }
  static EventRecord write(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    return {EventKind::Write, Tid, A, Cells};
  }
  static EventRecord kernelRead(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    return {EventKind::KernelRead, Tid, A, Cells};
  }
  static EventRecord kernelWrite(ThreadId Tid, Addr A, uint64_t Cells = 1) {
    return {EventKind::KernelWrite, Tid, A, Cells};
  }
  static EventRecord syncAcquire(ThreadId Tid, SyncId Id,
                                 bool IsLock = false) {
    return {EventKind::SyncAcquire, Tid, Id, IsLock ? 1u : 0u};
  }
  static EventRecord syncRelease(ThreadId Tid, SyncId Id,
                                 bool IsLock = false) {
    return {EventKind::SyncRelease, Tid, Id, IsLock ? 1u : 0u};
  }
  static EventRecord threadCreate(ThreadId Tid, ThreadId Child) {
    return {EventKind::ThreadCreate, Tid, Child, 0};
  }
  static EventRecord threadJoin(ThreadId Tid, ThreadId Child) {
    return {EventKind::ThreadJoin, Tid, Child, 0};
  }
  static EventRecord alloc(ThreadId Tid, Addr A, uint64_t Cells) {
    return {EventKind::Alloc, Tid, A, Cells};
  }
  static EventRecord free(ThreadId Tid, Addr A) {
    return {EventKind::Free, Tid, A, 0};
  }

  bool operator==(const EventRecord &Other) const = default;
};

/// One packed 16-byte stream word (see the file comment for the layout
/// and the follow-on protocol).
struct Event {
  /// Meta bit assignments.
  static constexpr uint32_t KindMask = 0x3F;
  static constexpr uint32_t FollowBit = 0x80;
  /// Words per logical event at most: main + follow-on.
  static constexpr size_t MaxWordsPerRecord = 2;

  uint32_t Meta = 0;
  ThreadId Tid = 0;
  uint64_t Arg = 0;

  EventKind kind() const { return static_cast<EventKind>(Meta & KindMask); }
  bool hasFollow() const { return (Meta & FollowBit) != 0; }

  bool operator==(const Event &Other) const = default;
};

static_assert(sizeof(Event) == 16, "stream words must be packed 16 bytes");

/// Arg1 value a kind carries when no follow-on word is present: memory
/// accesses default to one cell, everything else to zero.
constexpr uint64_t eventSecondaryDefault(EventKind K) {
  switch (K) {
  case EventKind::Read:
  case EventKind::Write:
  case EventKind::KernelRead:
  case EventKind::KernelWrite:
    return 1;
  default:
    return 0;
  }
}

/// Encodes \p E into \p Out, which must have room for MaxWordsPerRecord
/// words, and returns the number of words written. The main word comes
/// first.
inline size_t encodeEvent(const EventRecord &E, Event *Out) {
  bool BlockKind = E.Kind == EventKind::BasicBlock;
  uint64_t Primary = BlockKind ? E.Arg1 : E.Arg0;
  uint64_t Secondary = BlockKind ? E.Arg0 : E.Arg1;
  bool Follow = Secondary != eventSecondaryDefault(E.Kind);
  Out[0] = {static_cast<uint32_t>(E.Kind) | (Follow ? Event::FollowBit : 0),
            E.Tid, Primary};
  if (!Follow)
    return 1;
  Out[1] = {0, 0, Secondary};
  return 2;
}

/// Decodes the record starting at \p W, the inverse of encodeEvent.
/// Returns the number of words consumed, or 0 when no complete record
/// remains (end of batch, or a main word whose follow-on is cut off).
inline size_t decodeEvent(const Event *W, size_t Avail, EventRecord &Out) {
  if (Avail == 0 || (W[0].hasFollow() && Avail == 1))
    return 0;
  const EventKind K = W[0].kind();
  uint64_t Primary = W[0].Arg;
  uint64_t Secondary = W[0].hasFollow() ? W[1].Arg : eventSecondaryDefault(K);
  Out.Kind = K;
  Out.Tid = W[0].Tid;
  if (K == EventKind::BasicBlock) {
    Out.Arg0 = Secondary;
    Out.Arg1 = Primary;
  } else {
    Out.Arg0 = Primary;
    Out.Arg1 = Secondary;
  }
  return W[0].hasFollow() ? 2 : 1;
}

/// Encodes \p Records into a packed word stream.
std::vector<Event> encodeEventStream(const std::vector<EventRecord> &Records);

/// Decodes a packed word stream into records, stopping at a record whose
/// follow-on word is cut off.
std::vector<EventRecord> decodeEventStream(const Event *Words, size_t Count);
std::vector<EventRecord> decodeEventStream(const std::vector<Event> &Words);

/// Number of complete logical records in a packed word stream
/// (follow-on words don't count).
size_t packedEventCount(const Event *Words, size_t Count);
inline size_t packedEventCount(const std::vector<Event> &Words) {
  return packedEventCount(Words.data(), Words.size());
}

} // namespace isp

#endif // ISPROF_TRACE_EVENT_H
