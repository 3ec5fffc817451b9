//===- instr/Dispatcher.h - Event fan-out and batch delivery ----*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EventDispatcher fans substrate events out to any number of registered
/// Tools, and to an optional record sink that streams them to a trace
/// file. It is the one way a tool gets events: the live VM enqueues them
/// one at a time, and a stream replay publishes whole decoded chunks, so
/// analyses do not depend on how the event stream was produced.
///
/// The hot path is enqueue(): events accumulate in a pending batch of
/// packed 16-byte stream words (trace/Event.h) that is delivered to the
/// tools in one handleBatch call per flush, and the dense access stream
/// is *compacted* on the way in. Compaction has one rule: a Read or
/// Write whose cells directly continue the *last* buffered event (same
/// kind, same thread, consecutive addresses) extends it into one
/// multi-cell event. Only the literally-last event is a merge target,
/// so a merge never crosses another event: any intervening event — in
/// particular every counter-bump kind — breaks adjacency by itself, and
/// the merged event is observationally identical to the run of
/// single-cell events it replaces for every tool.
///
/// No event forces delivery. Batches are delivered only when the
/// fixed-size buffer fills, keeping flush frequency independent of the
/// scheduler's switch rate; in-batch order preserves the exact event
/// sequence, so tools observe every event at the right position either
/// way.
///
/// In the packed form a logical event occupies one or two words (the
/// main word and an optional follow-on carrying a non-default second
/// argument); the batch flushes when fewer than MaxWordsPerRecord free
/// slots remain, so an enqueue never overruns the buffer. Each delivered
/// batch decodes standalone. The recorded stream is the compacted
/// stream; replaying it is equivalent by construction.
///
/// **Pipelined delivery.** Batches are immutable once flushed, so the
/// consumers can take them on a worker thread while the producer — the
/// VM, or a stream decoder — fills the next batch. This is the default
/// whenever the dispatcher's thread budget (hardwareThreads(), unless a
/// collector hands it a share) is at least two and a tool or a record
/// sink is attached: workersFor() gives one worker per unit, up to
/// budget - 1. Every attached tool is one unit and the record sink is
/// one more; nothing is declared per tool, because every tool's
/// analysis state is its own (Tool.h). Tools, then the sink, are placed
/// round-robin over the workers. Each consumer therefore sees every
/// batch in publication order on one fixed thread, preserving Tool.h's
/// no-reentrancy guarantee, and observes exactly the batch sequence
/// serial delivery would give it: profiles and recorded streams are
/// identical either way.
///
/// A *lane* is the set of consumers one thread feeds: a worker's tools
/// and perhaps the sink, or, when delivery is serial, every consumer on
/// the producer. One routine (deliverOn) delivers every batch on its
/// lane, whichever thread runs it.
///
/// Flushed batches enter a fixed ring of RingSlots slots by buffer move —
/// the filled Pending buffer moves into a free slot and the oldest
/// drained buffer becomes the next Pending — so no batch is copied, and
/// buffers are allocated only as deep as the pipeline runs. The
/// producer's writes must not land on lines still cached on a worker's
/// core: so it reuses the drained buffer that has waited longest, and a
/// worker demotes each live batch it has walked (demoteBatch) before it
/// releases the slot. A stream consumer publishes each decoded chunk as
/// one batch the same way (publishChunk), using only ChunkSlots ring
/// slots, so the worker consumes one chunk while the caller decodes the
/// next. Chunks are not demoted: replay and collect are bound by their
/// consumer, which the demotion would slow. When every slot in use is
/// still being consumed the producer blocks (backpressure), so
/// in-flight memory stays bounded. finish() is the join point: it
/// publishes the final partial batch, drains and joins the workers, and
/// only then calls onFinish().
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_INSTR_DISPATCHER_H
#define ISPROF_INSTR_DISPATCHER_H

#include "instr/Tool.h"
#include "obs/TraceLog.h"
#include "trace/Event.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace isp {

class SymbolTable;

/// Fans events out to registered tools. Tools are not owned.
class EventDispatcher {
public:
  /// Pending-batch size in stream words; a flush is forced when fewer
  /// than Event::MaxWordsPerRecord free words remain. At 4,096 words a
  /// kdtree run hands off ~700 batches rather than the ~11,000 a
  /// 256-word batch needs, which is what lets the pipeline pay.
  static constexpr size_t BatchWords = 4096;
  /// Slots of the pipeline ring: the producer's lead over the slowest
  /// worker. 8 x 4,096 words (512 KiB) bounds live in-flight memory.
  static constexpr size_t RingSlots = 8;
  /// Ring slots a stream consumer uses: the worker consumes one chunk
  /// while the caller decodes the next, so at most two decoded chunks
  /// (~250 KiB each at the default chunk size) are held at once. A
  /// second slot measured no faster, even with the host oversubscribed,
  /// and costs one more chunk of peak memory.
  static constexpr size_t ChunkSlots = 1;

  /// Why a (non-empty) batch was delivered. Capacity is the steady
  /// state; Explicit covers manual flush() calls and published chunks;
  /// Finish is the end-of-run drain.
  enum class FlushCause : uint8_t { Capacity, Explicit, Finish };
  static constexpr size_t NumFlushCauses = 3;

  /// Consumer of recorded batches, for sinks that stream the compacted
  /// event stream somewhere (e.g. TraceStreamWriter writing chunked
  /// trace files). Batches arrive in delivery order on one fixed lane
  /// (the producer thread when delivery is serial, one worker when it
  /// is pipelined), as packed word runs that decode standalone (fresh
  /// decoder per batch) — so a sink observes a byte-identical stream
  /// either way. A sink's state is only safe to read once finish() has
  /// returned.
  class RecordSink {
  public:
    virtual ~RecordSink() = default;
    virtual void recordBatch(const Event *Words, size_t Count) = 0;
  };

  /// \p ThreadBudget is the hardware threads this dispatcher may keep
  /// busy, producer included; delivery is pipelined only when it is at
  /// least two. The collector gives each concurrent ingest its share.
  explicit EventDispatcher(unsigned ThreadBudget = hardwareThreads())
      : ThreadBudget(ThreadBudget) {}
  ~EventDispatcher();

  /// std::thread::hardware_concurrency() (at least 1), unless a test
  /// pinned it with pinHardwareThreads.
  static unsigned hardwareThreads();
  /// Test seam: dispatchers constructed afterwards see \p N hardware
  /// threads (1 forces serial delivery); 0 unpins.
  static void pinHardwareThreads(unsigned N);
  /// The engage rule: workers for \p Units consumers (attached tools
  /// plus the record sink) within \p Budget hardware threads (one stays
  /// with the producer); 0 means serial delivery.
  static unsigned workersFor(unsigned Budget, size_t Units) {
    if (Budget < 2 || Units == 0)
      return 0;
    return static_cast<unsigned>(std::min<size_t>(Units, Budget - 1));
  }

  /// Registers \p T; tools receive events in registration order.
  void addTool(Tool *T) { Tools.push_back(T); }

  /// Streams every delivered batch to \p S. Pass nullptr to detach. The
  /// sink is not owned and must outlive the run.
  void setRecordSink(RecordSink *S) { Sink = S; }

  /// True while worker threads are consuming batches (between start()
  /// and finish() in a pipelined run).
  bool pipelineActive() const { return PipelineActive; }
  /// Workers used by the current/most recent run (0 = serial).
  unsigned workersUsed() const { return WorkerCountUsed; }
  /// Times the producer blocked because every ring slot was in flight.
  uint64_t backpressureBlocks() const { return BackpressureBlocks; }
  /// Peak number of published-but-unconsumed batches (never more than
  /// RingSlots).
  uint64_t maxQueueDepth() const { return MaxQueueDepth; }
  /// Batch buffers the pipeline rotates through: those in flight, the
  /// drained spares and the producer's own (never more than RingSlots
  /// + 1 on a live run).
  uint64_t batchBuffers() const { return MaxBuffers; }

  /// Moves the cache lines of \p Count words at \p Words out of this
  /// core's private caches into the shared one (x86 CLDEMOTE; a NOP on
  /// CPUs without it, and nothing off x86). A worker runs it over each
  /// live batch it has walked: the producer writes that buffer again
  /// soon, and would otherwise take every line from the worker's L1/L2
  /// (about 37 ns a line, measured). The bytes are unchanged.
  static void demoteBatch(const Event *Words, size_t Count);

  /// Signals the start of a run. Forwards to Tool::onStart.
  void start(const SymbolTable *Symbols);
  /// Signals the end of a run. Flushes pending events, then forwards to
  /// Tool::onFinish.
  void finish();

  /// Queues one event for batched delivery, merging it into the last
  /// buffered access when it continues it (see the file comment). The
  /// buffer is a fixed array of packed words so the append is
  /// branch-cheap and inlines into the interpreter loop.
  void enqueue(const EventRecord &E) {
    ++EnqueuedEvents;
    if ((E.Kind == EventKind::Read || E.Kind == EventKind::Write) &&
        HaveLastMain) {
      Event &M = Pending[LastMain];
      if (M.kind() == E.Kind && M.Tid == E.Tid) {
        bool Follow = M.hasFollow();
        uint64_t Cells = Follow ? Pending[LastMain + 1].Arg : 1;
        if (M.Arg + Cells == E.Arg0) {
          // Only the cell count grows (growing 1 -> 2 cells
          // materializes the follow-on word right behind the main
          // word).
          if (Follow) {
            Pending[LastMain + 1].Arg = Cells + E.Arg1;
          } else {
            M.Meta |= Event::FollowBit;
            Pending[PendingWords++] = {0, 0, Cells + E.Arg1};
          }
          ++AccessMerges;
          if (ISP_UNLIKELY(PendingWords + Event::MaxWordsPerRecord >
                           BatchWords))
            flushImpl(FlushCause::Capacity);
          return;
        }
      }
    }
    size_t N = encodeEvent(E, &Pending[PendingWords]);
    LastMain = static_cast<uint32_t>(PendingWords);
    HaveLastMain = true;
    PendingWords += N;
    ++PendingRecords;
    if (ISP_UNLIKELY(PendingWords + Event::MaxWordsPerRecord > BatchWords))
      flushImpl(FlushCause::Capacity);
  }

  /// Delivers the pending batch to every tool (and the record sink) and
  /// empties it.
  void flush() { flushImpl(FlushCause::Explicit); }

  /// Delivers \p Words — a decoded trace-stream chunk of \p Records
  /// events that decodes standalone — as one batch, after flushing any
  /// pending batch so order is preserved. Nothing is re-enqueued or
  /// recompacted. When pipelined the chunk's buffer moves into a ring
  /// slot and \p Words comes back holding a drained buffer (or none) to
  /// decode the next chunk into; at most ChunkSlots chunks wait for the
  /// worker.
  void publishChunk(std::vector<Event> &Words, size_t Records);

  /// True when a tool or a record sink is attached; the VM skips event
  /// construction entirely otherwise ("native" runs).
  bool isActive() const { return Sink != nullptr || !Tools.empty(); }

  /// Events accepted by enqueue() and publishChunk() — i.e. what the
  /// substrate emitted, before compaction.
  uint64_t enqueuedEvents() const { return EnqueuedEvents; }
  /// Events actually delivered to tools after compaction; together with
  /// enqueuedEvents this gives the compaction ratio the benchmark
  /// harnesses report.
  uint64_t deliveredEvents() const { return DeliveredEvents; }

  /// Accesses merged into a buffered one. The exact identity
  ///   enqueuedEvents() == deliveredEvents() + accessMerges()
  /// holds whenever the pending batch is empty (always after finish());
  /// every enqueue either merges into a buffered event or is eventually
  /// delivered. ObsTest asserts this.
  uint64_t accessMerges() const { return AccessMerges; }
  /// Always 0: nothing folds any more. Kept only because perfbench/
  /// still calls it; it goes with the benchmark change that drops the
  /// instr.bb_folds metric.
  uint64_t bbFolds() const { return 0; }

  /// Number of non-empty batch deliveries attributed to \p Cause.
  uint64_t flushCount(FlushCause Cause) const {
    return Flushes[static_cast<size_t>(Cause)];
  }
  uint64_t totalFlushes() const {
    return Flushes[0] + Flushes[1] + Flushes[2];
  }

private:
  /// Per-tool observability: cached name (Tool::name() is virtual),
  /// events consumed, callback wall-time, and a timeline lane.
  /// Populated by start(); parallel to Tools.
  struct ToolObsState {
    std::string Name;
    uint64_t Events = 0;
    uint64_t CallbackNs = 0;
    obs::LaneId Lane = 0;
  };

  /// One slot of the pipeline ring. Publication moves the producer's
  /// filled buffer in, so no batch is ever copied; the last worker to
  /// consume the slot moves the buffer on to Spare. Remaining counts the
  /// workers that have not yet consumed the slot; the producer reuses a
  /// slot only at zero. Live marks a batch enqueue() filled, as opposed
  /// to a published chunk: only live batches are demoted.
  struct BatchSlot {
    std::vector<Event> Words;
    size_t Count = 0;
    size_t Records = 0;
    FlushCause Cause = FlushCause::Capacity;
    bool Live = false;
    unsigned Remaining = 0;
  };

  /// The consumers one thread feeds: indices into Tools, and whether it
  /// also feeds the record sink. Under pipelined delivery each lane is a
  /// worker with its own thread; under serial delivery the one lane is
  /// the producer's, and Thread and NextSeq go unused.
  struct Lane {
    Lane() = default;
    /// A worker holds its lane's address.
    Lane(const Lane &) = delete;
    Lane &operator=(const Lane &) = delete;

    std::thread Thread;
    std::vector<size_t> ToolIdx;
    bool FeedsSink = false;
    /// Next batch sequence number this worker will consume. Guarded by
    /// ParMutex.
    uint64_t NextSeq = 0;
    obs::LaneId TraceLane = 0;
  };

  void flushImpl(FlushCause Cause);
  /// Counts one batch of \p Count words and \p Records events, then
  /// delivers it: on the producer's lane when delivery is serial, by
  /// handOff() otherwise. \p Live is true for a batch enqueue() filled
  /// and false for a published chunk.
  void publish(std::vector<Event> &Buffer, size_t Count, size_t Records,
               FlushCause Cause, bool Live);
  /// The one delivery routine: feeds the batch to \p L's tools and sink,
  /// with per-tool observability when enabled. Each tool index is only
  /// ever touched by the one thread that owns its lane, so the ToolObs
  /// tallies stay single-writer.
  void deliverOn(const Lane &L, const Event *Words, size_t Count,
                 size_t Records, FlushCause Cause);

  /// Places the consumers on lanes, sizing the worker pool with
  /// workersFor(), and spawns the workers. Leaves PipelineActive false
  /// (serial delivery, one lane) when the rule gives no worker.
  void startPipeline();
  /// Pipelined delivery of one batch: moves \p Buffer into the next
  /// ring slot (blocking while that slot is in flight) and hands back
  /// the oldest drained buffer, or none. The first handoff fixes the
  /// ring's size: RingSlots for live batches, ChunkSlots for chunks.
  void handOff(std::vector<Event> &Buffer, size_t Count, size_t Records,
               FlushCause Cause, bool Live);
  /// Signals shutdown, drains every worker queue, joins the threads.
  void joinWorkers();
  void workerLoop(Lane &W);

  /// Folds the dispatcher's plain counters (and the per-tool tallies)
  /// into the process-wide obs registry. Called by finish() when stats
  /// collection is on.
  void publishStats() const;

  std::vector<Tool *> Tools;
  /// Pending batch of packed words, at least BatchWords long (enqueue
  /// flushes when fewer than MaxWordsPerRecord free words remain).
  std::vector<Event> Pending = std::vector<Event>(BatchWords);
  size_t PendingWords = 0;
  /// Logical events among the pending words (delivery accounting).
  size_t PendingRecords = 0;
  /// Word index of the last logical event's main word (merge target);
  /// valid only while HaveLastMain.
  uint32_t LastMain = 0;
  bool HaveLastMain = false;
  RecordSink *Sink = nullptr;
  uint64_t EnqueuedEvents = 0;
  uint64_t DeliveredEvents = 0;
  /// Compaction and flush-cause tallies. Plain (non-atomic) members like
  /// EnqueuedEvents, bumped unconditionally: they sit on paths that
  /// already do comparable work per event, and folding them into the
  /// atomic registry happens once per run in publishStats().
  uint64_t AccessMerges = 0;
  uint64_t Flushes[NumFlushCauses] = {0, 0, 0};
  std::vector<ToolObsState> ToolObs;
  obs::LaneId DispatcherLane = 0;
  /// One per worker under pipelined delivery; the producer's one lane
  /// under serial delivery. Set by start().
  std::vector<std::unique_ptr<Lane>> Lanes;

  //===--- Pipeline state (untouched by serial delivery) -----------------===//

  unsigned ThreadBudget;
  bool PipelineActive = false;
  unsigned WorkerCountUsed = 0;
  BatchSlot Ring[RingSlots];
  /// Drained buffers, oldest first. The producer takes its next buffer
  /// from the front: the one longest out of a worker's hands, whose
  /// lines are least likely to sit in that worker's cache. Buffers are
  /// allocated only as deep as the pipeline actually runs (at most one
  /// per slot, plus the producer's). Guarded by ParMutex.
  std::deque<std::vector<Event>> Spare;
  /// Ring slots this run uses: RingSlots for enqueued batches,
  /// ChunkSlots for published chunks. Fixed by the first handoff
  /// (0 before it), so the seq -> slot mapping never changes under a
  /// worker. Guarded by ParMutex.
  size_t SlotsInUse = 0;
  /// Batches published so far; slot = seq % SlotsInUse. Guarded by
  /// ParMutex together with ShuttingDown and the slot/worker cursors.
  uint64_t PublishedSeq = 0;
  bool ShuttingDown = false;
  /// Workers currently parked in a WorkReady wait / producer parked in
  /// a SlotFree wait. Guarded by ParMutex; lets each side skip the
  /// condvar signal (a futex syscall per batch) when nobody is waiting.
  unsigned IdleWorkers = 0;
  bool PublisherWaiting = false;
  std::mutex ParMutex;
  std::condition_variable WorkReady;
  std::condition_variable SlotFree;
  uint64_t BackpressureBlocks = 0;
  uint64_t BackpressureWaitNs = 0;
  uint64_t MaxQueueDepth = 0;
  uint64_t MaxBuffers = 0;
};

} // namespace isp

#endif // ISPROF_INSTR_DISPATCHER_H
