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
///  - EventRecord is the decoded, fully explicit form (kind, tid, 64-bit
///    time, two 64-bit args) that tools, the on-disk codecs, and every
///    analysis consume.
///  - Event is the packed 16-byte *stream word* the hot path moves:
///    dispatcher batch buffers, the recorded stream, and decoded
///    TraceStream chunks hold Events, so one cache line carries four
///    words instead of ~1.5 wide records.
///
/// Packed word layout:
///
///      Meta     : u32   bits 0..5  event kind
///                       bit  6     special word (time-base escape or
///                                  follow-on word)
///                       bit  7     a follow-on word follows / this is one
///                       bits 8..31 thread id (24 bits)
///      TimeLow  : u32   low 32 bits of the absolute event time
///      Arg      : u64   primary argument (Arg0; for BasicBlock the block
///                       count, since its Arg0 is always zero — keeping
///                       the count in the main word lets block-count
///                       folding stay a single in-place add)
///
/// The high 32 bits of the time are carried by a shared decoder *epoch*:
/// a time-base escape word (Meta == SpecialBit, Arg = new epoch) resets
/// it explicitly, and a main word whose TimeLow is smaller than the
/// previous word's bumps it implicitly (times are non-decreasing in
/// every real stream, so a smaller low half means the 32-bit counter
/// wrapped). Streams whose times fit in 32 bits — every practical run —
/// contain no escape words at all.
///
/// The second argument rides in an optional follow-on word
/// (Meta == SpecialBit|FollowBit, Arg = Arg1) emitted only when Arg1
/// differs from the kind's default (1 cell for memory accesses, 0
/// otherwise) or when the thread id exceeds 24 bits (the follow-on's
/// TimeLow then carries the full id). Single-cell reads and writes — the
/// dominant events — and basic blocks stay one word.
///
/// Each encoded record is thus 1..3 words (escape + main + follow-on).
/// Per-batch decode with a fresh decoder is always exact; one continuous
/// decode over concatenated batches is exact as long as times are
/// non-decreasing across batch boundaries — which every
/// dispatcher-produced stream guarantees (each batch's encoder restarts
/// at epoch zero and re-emits an escape if its first time needs one).
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
  Free,         ///< Heap release. Arg0 = Addr.
  ThreadSwitch  ///< Synthesized by the merger between events of different
                ///< threads. Arg0 = incoming thread id.
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

/// A single decoded trace event. \c Time is the per-thread logical
/// timestamp used by the merger to interleave thread-specific traces;
/// events of one thread must be non-decreasing in Time.
struct EventRecord {
  EventKind Kind = EventKind::ThreadStart;
  ThreadId Tid = 0;
  uint64_t Time = 0;
  uint64_t Arg0 = 0;
  uint64_t Arg1 = 0;

  static EventRecord threadStart(ThreadId Tid, uint64_t Time,
                                 ThreadId Parent) {
    return {EventKind::ThreadStart, Tid, Time, Parent, 0};
  }
  static EventRecord threadEnd(ThreadId Tid, uint64_t Time) {
    return {EventKind::ThreadEnd, Tid, Time, 0, 0};
  }
  static EventRecord call(ThreadId Tid, uint64_t Time, RoutineId Rtn) {
    return {EventKind::Call, Tid, Time, Rtn, 0};
  }
  static EventRecord ret(ThreadId Tid, uint64_t Time, RoutineId Rtn,
                         uint64_t Cost) {
    return {EventKind::Return, Tid, Time, Rtn, Cost};
  }
  static EventRecord basicBlock(ThreadId Tid, uint64_t Time,
                                uint64_t Count = 1) {
    return {EventKind::BasicBlock, Tid, Time, 0, Count};
  }
  static EventRecord read(ThreadId Tid, uint64_t Time, Addr A,
                          uint64_t Cells = 1) {
    return {EventKind::Read, Tid, Time, A, Cells};
  }
  static EventRecord write(ThreadId Tid, uint64_t Time, Addr A,
                           uint64_t Cells = 1) {
    return {EventKind::Write, Tid, Time, A, Cells};
  }
  static EventRecord kernelRead(ThreadId Tid, uint64_t Time, Addr A,
                                uint64_t Cells = 1) {
    return {EventKind::KernelRead, Tid, Time, A, Cells};
  }
  static EventRecord kernelWrite(ThreadId Tid, uint64_t Time, Addr A,
                                 uint64_t Cells = 1) {
    return {EventKind::KernelWrite, Tid, Time, A, Cells};
  }
  static EventRecord syncAcquire(ThreadId Tid, uint64_t Time, SyncId Id,
                                 bool IsLock = false) {
    return {EventKind::SyncAcquire, Tid, Time, Id, IsLock ? 1u : 0u};
  }
  static EventRecord syncRelease(ThreadId Tid, uint64_t Time, SyncId Id,
                                 bool IsLock = false) {
    return {EventKind::SyncRelease, Tid, Time, Id, IsLock ? 1u : 0u};
  }
  static EventRecord threadCreate(ThreadId Tid, uint64_t Time,
                                  ThreadId Child) {
    return {EventKind::ThreadCreate, Tid, Time, Child, 0};
  }
  static EventRecord threadJoin(ThreadId Tid, uint64_t Time,
                                ThreadId Child) {
    return {EventKind::ThreadJoin, Tid, Time, Child, 0};
  }
  static EventRecord alloc(ThreadId Tid, uint64_t Time, Addr A,
                           uint64_t Cells) {
    return {EventKind::Alloc, Tid, Time, A, Cells};
  }
  static EventRecord free(ThreadId Tid, uint64_t Time, Addr A) {
    return {EventKind::Free, Tid, Time, A, 0};
  }

  bool operator==(const EventRecord &Other) const = default;
};

/// One packed 16-byte stream word (see the file comment for the layout
/// and the escape/follow-on protocol).
struct Event {
  /// Meta bit assignments.
  static constexpr uint32_t KindMask = 0x3F;
  static constexpr uint32_t SpecialBit = 0x40;
  static constexpr uint32_t FollowBit = 0x80;
  static constexpr unsigned TidShift = 8;
  /// Largest thread id that fits the Meta field; bigger ids spill the
  /// full 32-bit id into the follow-on word's TimeLow.
  static constexpr ThreadId MaxInlineTid = (ThreadId(1) << 24) - 1;
  /// Worst case words per logical event: escape + main + follow-on.
  static constexpr size_t MaxWordsPerRecord = 3;

  uint32_t Meta = 0;
  uint32_t TimeLow = 0;
  uint64_t Arg = 0;

  EventKind kind() const { return static_cast<EventKind>(Meta & KindMask); }
  ThreadId inlineTid() const { return Meta >> TidShift; }
  bool isSpecial() const { return (Meta & SpecialBit) != 0; }
  bool isEscape() const {
    return (Meta & (SpecialBit | FollowBit)) == SpecialBit;
  }
  bool hasFollow() const { return (Meta & FollowBit) != 0; }

  bool operator==(const Event &Other) const = default;
};

static_assert(sizeof(Event) == 16, "stream words must be packed 16 bytes");

/// One pre-encoded word of a compacted run template (the block
/// compiler's unit; spliced by EventDispatcher::spliceTemplateRun).
/// Word carries the static bits — kind, flags, static address or count
/// — with the thread id and TimeLow left zero. At splice time the
/// executing thread's id, the absolute low time, and (for
/// frame-relative addresses) the frame base are patched in through two
/// masks, so the patch is three branch-free ALU ops per word:
///
///     Meta    = Word.Meta    | (TidBits            & MainMask)
///     TimeLow = Word.TimeLow + ((Time0 + TimeOff)  & MainMask)
///     Arg     = Word.Arg     + (FrameBase          & FrameMask)
///
/// MainMask is all-ones on main words and zero on follow-on words
/// (which take neither a tid nor a time); FrameMask is all-ones
/// exactly when Arg is a frame-relative stack address.
struct TemplateWord {
  Event Word;
  uint32_t TimeOff = 0;   ///< event-time offset from the run's entry time
  uint32_t MainMask = 0;  ///< ~0u on main words, 0 on follow-ons
  uint64_t FrameMask = 0; ///< ~0ull when Arg needs the frame base added
};

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

/// Stateful record-to-word encoder. One encoder per batch/chunk; reset()
/// (or a fresh instance) restarts the time base so each batch also
/// decodes standalone.
class EventEncoder {
public:
  /// Encodes \p E into \p Out (which must have room for MaxWordsPerRecord
  /// words) and returns the number of words written. \p MainOff receives
  /// the offset of the main word within the emitted run (0 or 1).
  size_t encode(const EventRecord &E, Event *Out, size_t &MainOff) {
    size_t N = 0;
    uint32_t Low = static_cast<uint32_t>(E.Time);
    uint64_t Hi = E.Time >> 32;
    uint64_t Infer = Epoch + (Low < PrevLow ? 1 : 0);
    if (Hi != Infer) {
      Out[N].Meta = Event::SpecialBit;
      Out[N].TimeLow = 0;
      Out[N].Arg = Hi;
      ++N;
      Epoch = Hi;
    } else {
      Epoch = Infer;
    }
    PrevLow = Low;
    MainOff = N;
    bool BlockKind = E.Kind == EventKind::BasicBlock;
    uint64_t Primary = BlockKind ? E.Arg1 : E.Arg0;
    uint64_t Secondary = BlockKind ? E.Arg0 : E.Arg1;
    bool BigTid = E.Tid > Event::MaxInlineTid;
    bool Follow = BigTid || Secondary != eventSecondaryDefault(E.Kind);
    Out[N].Meta = static_cast<uint32_t>(E.Kind) |
                  (Follow ? Event::FollowBit : 0) |
                  ((E.Tid & Event::MaxInlineTid) << Event::TidShift);
    Out[N].TimeLow = Low;
    Out[N].Arg = Primary;
    ++N;
    if (Follow) {
      Out[N].Meta = Event::SpecialBit | Event::FollowBit;
      Out[N].TimeLow = BigTid ? E.Tid : 0;
      Out[N].Arg = Secondary;
      ++N;
    }
    return N;
  }
  size_t encode(const EventRecord &E, Event *Out) {
    size_t MainOff = 0;
    return encode(E, Out, MainOff);
  }

  void reset() {
    Epoch = 0;
    PrevLow = 0;
  }

  uint64_t epoch() const { return Epoch; }
  uint32_t prevLow() const { return PrevLow; }
  /// Synchronizes the time state after externally produced main words
  /// ending at absolute time \p LastTime — used by the block compiler's
  /// bulk template append, which patches main words directly into the
  /// batch buffer.
  void noteAppended(uint64_t LastTime) {
    Epoch = LastTime >> 32;
    PrevLow = static_cast<uint32_t>(LastTime);
  }

private:
  uint64_t Epoch = 0;
  uint32_t PrevLow = 0;
};

/// Stateful word-to-record decoder, the inverse of EventEncoder.
class EventDecoder {
public:
  /// Decodes the next record starting at \p W, consuming any leading
  /// escape words. Returns the number of words consumed, or 0 when no
  /// complete record remains (end of batch; trailing escapes are still
  /// applied to the decoder state).
  size_t decode(const Event *W, size_t Avail, EventRecord &Out) {
    size_t N = 0;
    while (N != Avail && W[N].isEscape()) {
      Epoch = W[N].Arg;
      PrevLow = 0;
      ++N;
    }
    if (N == Avail)
      return 0;
    const Event &M = W[N];
    uint32_t Low = M.TimeLow;
    if (Low < PrevLow)
      ++Epoch;
    PrevLow = Low;
    EventKind K = M.kind();
    ThreadId Tid = M.inlineTid();
    uint64_t Primary = M.Arg;
    uint64_t Secondary = eventSecondaryDefault(K);
    ++N;
    if (M.hasFollow()) {
      if (N == Avail)
        return 0; // truncated mid-record: treat as end of stream
      Secondary = W[N].Arg;
      if (W[N].TimeLow != 0)
        Tid = W[N].TimeLow;
      ++N;
    }
    Out.Kind = K;
    Out.Tid = Tid;
    Out.Time = (Epoch << 32) | Low;
    if (K == EventKind::BasicBlock) {
      Out.Arg0 = Secondary;
      Out.Arg1 = Primary;
    } else {
      Out.Arg0 = Primary;
      Out.Arg1 = Secondary;
    }
    return N;
  }

  void reset() {
    Epoch = 0;
    PrevLow = 0;
  }

private:
  uint64_t Epoch = 0;
  uint32_t PrevLow = 0;
};

/// Forward pass over a packed word sequence, yielding decoded records.
/// Consumers that used to iterate a std::vector of wide records iterate
/// one of these instead:
///
///     EventStreamView V(Chunk);
///     for (EventRecord E; V.next(E);)
///       process(E);
class EventStreamView {
public:
  EventStreamView(const Event *Words, size_t Count)
      : Words(Words), Count(Count) {}
  explicit EventStreamView(const std::vector<Event> &V)
      : Words(V.data()), Count(V.size()) {}

  bool next(EventRecord &Out) {
    if (Pos == Count)
      return false;
    size_t Used = Decoder.decode(Words + Pos, Count - Pos, Out);
    if (Used == 0) {
      Pos = Count;
      return false;
    }
    Pos += Used;
    return true;
  }

private:
  const Event *Words;
  size_t Count;
  size_t Pos = 0;
  EventDecoder Decoder;
};

/// Encodes \p Records into a packed word stream (fresh encoder).
std::vector<Event> encodeEventStream(const std::vector<EventRecord> &Records);

/// Decodes a packed word stream into records (fresh decoder).
std::vector<EventRecord> decodeEventStream(const Event *Words, size_t Count);
std::vector<EventRecord> decodeEventStream(const std::vector<Event> &Words);

/// Number of logical records in a packed word stream (escape and
/// follow-on words don't count).
size_t packedEventCount(const Event *Words, size_t Count);
inline size_t packedEventCount(const std::vector<Event> &Words) {
  return packedEventCount(Words.data(), Words.size());
}

} // namespace isp

#endif // ISPROF_TRACE_EVENT_H
