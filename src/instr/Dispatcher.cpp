//===- instr/Dispatcher.cpp - Event fan-out and batch delivery ------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "instr/Dispatcher.h"

#include "obs/Obs.h"

#include <atomic>
#include <cassert>

using namespace isp;

/// Hardware threads a test pinned (0 = none); see pinHardwareThreads.
static std::atomic<unsigned> PinnedHardwareThreads{0};

unsigned EventDispatcher::hardwareThreads() {
  unsigned Pinned = PinnedHardwareThreads.load(std::memory_order_relaxed);
  if (Pinned != 0)
    return Pinned;
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw == 0 ? 1 : Hw;
}

void EventDispatcher::pinHardwareThreads(unsigned N) {
  PinnedHardwareThreads.store(N, std::memory_order_relaxed);
}

EventDispatcher::~EventDispatcher() {
  // finish() normally joins; guard against early destruction (error
  // paths, tests) so worker threads never outlive the dispatcher.
  if (PipelineActive)
    joinWorkers();
}

void EventDispatcher::start(const SymbolTable *Symbols) {
  // Cache tool names (and allocate timeline lanes) once; flushImpl must
  // not call the virtual name() per batch.
  if (obs::statsEnabled() || obs::tracingEnabled()) {
    ToolObs.clear();
    for (Tool *T : Tools) {
      ToolObsState S;
      S.Name = T->name();
      if (obs::tracingEnabled())
        S.Lane = obs::TraceLog::get().allocLane("tool " + S.Name);
      ToolObs.push_back(std::move(S));
    }
    if (obs::tracingEnabled() && DispatcherLane == 0)
      DispatcherLane = obs::TraceLog::get().allocLane("dispatcher");
  }
  for (Tool *T : Tools)
    T->onStart(Symbols);
  if (Pending.size() < BatchWords)
    Pending.resize(BatchWords);
  startPipeline();
}

void EventDispatcher::startPipeline() {
  // Every tool is one unit and the record sink is one more. Tools, then
  // the sink, go round-robin over the lanes: one per worker, or the
  // producer's alone when delivery is serial.
  size_t Units = Tools.size() + (Sink ? 1 : 0);
  unsigned N = workersFor(ThreadBudget, Units);
  WorkerCountUsed = N;
  Lanes.clear();
  for (unsigned I = 0; I != std::max(N, 1u); ++I)
    Lanes.push_back(std::make_unique<Lane>());
  for (size_t I = 0; I != Tools.size(); ++I)
    Lanes[I % Lanes.size()]->ToolIdx.push_back(I);
  if (Sink)
    Lanes[Tools.size() % Lanes.size()]->FeedsSink = true;
  if (N == 0) {
    Lanes[0]->TraceLane = DispatcherLane;
    return; // serial delivery
  }

  if (obs::tracingEnabled())
    for (unsigned I = 0; I != N; ++I)
      Lanes[I]->TraceLane =
          obs::TraceLog::get().allocLane("worker " + std::to_string(I));
  SlotsInUse = 0;
  PublishedSeq = 0;
  ShuttingDown = false;
  IdleWorkers = 0;
  PublisherWaiting = false;
  BackpressureBlocks = 0;
  BackpressureWaitNs = 0;
  MaxQueueDepth = 0;
  MaxBuffers = 0;
  PipelineActive = true;
  for (auto &L : Lanes)
    L->Thread = std::thread([this, LPtr = L.get()] { workerLoop(*LPtr); });
}

static const char *flushCauseName(EventDispatcher::FlushCause Cause) {
  switch (Cause) {
  case EventDispatcher::FlushCause::Capacity:
    return "flush:capacity";
  case EventDispatcher::FlushCause::Explicit:
    return "flush:explicit";
  case EventDispatcher::FlushCause::Finish:
    return "flush:finish";
  }
  return "flush";
}

void EventDispatcher::deliverOn(const Lane &L, const Event *Words,
                                size_t Count, size_t Records,
                                FlushCause Cause) {
  // The observed path times each tool's callback (and records timeline
  // spans); the default path is the plain loop.
  bool Observe = obs::statsEnabled() || obs::tracingEnabled();
  if (ISP_LIKELY(!Observe) || ToolObs.size() != Tools.size()) {
    for (size_t I : L.ToolIdx)
      Tools[I]->handleBatch(Words, Count);
    if (L.FeedsSink)
      Sink->recordBatch(Words, Count);
    return;
  }
  uint64_t LaneStart = obs::nowNs();
  for (size_t I : L.ToolIdx) {
    uint64_t Start = obs::nowNs();
    Tools[I]->handleBatch(Words, Count);
    uint64_t End = obs::nowNs();
    ToolObs[I].Events += Records;
    ToolObs[I].CallbackNs += End - Start;
    if (obs::tracingEnabled())
      obs::TraceLog::get().completeSpan(ToolObs[I].Lane, "handleBatch",
                                        "tool", Start, End);
  }
  if (L.FeedsSink)
    Sink->recordBatch(Words, Count);
  if (obs::tracingEnabled())
    obs::TraceLog::get().completeSpan(L.TraceLane, flushCauseName(Cause),
                                      "dispatcher", LaneStart, obs::nowNs());
}

void EventDispatcher::demoteBatch(const Event *Words, size_t Count) {
#if defined(__x86_64__) || defined(__i386__)
  // One CLDEMOTE (NP 0F 1C /0, a hint NOP where unsupported) per 64-byte
  // line, each at an address inside the buffer.
  uintptr_t Begin = reinterpret_cast<uintptr_t>(Words);
  uintptr_t End = Begin + Count * sizeof(Event);
  for (uintptr_t Line = Begin & ~uintptr_t(63); Line < End; Line += 64)
    asm volatile("cldemote %0"
                 :
                 : "m"(*reinterpret_cast<const char *>(
                     std::max(Line, Begin))));
#else
  (void)Words;
  (void)Count;
#endif
}

void EventDispatcher::workerLoop(Lane &W) {
  for (;;) {
    BatchSlot *Slot = nullptr;
    {
      std::unique_lock<std::mutex> Lock(ParMutex);
      while (!(PublishedSeq > W.NextSeq || ShuttingDown)) {
        ++IdleWorkers;
        WorkReady.wait(Lock);
        --IdleWorkers;
      }
      if (PublishedSeq == W.NextSeq)
        return; // shutting down and fully drained
      Slot = &Ring[W.NextSeq % SlotsInUse];
    }
    // Deliver outside the lock: the slot is immutable until every
    // worker (this one included) has marked it consumed.
    deliverOn(W, Slot->Words.data(), Slot->Count, Slot->Records,
              Slot->Cause);
    if (Slot->Live)
      demoteBatch(Slot->Words.data(), Slot->Count);
    {
      std::lock_guard<std::mutex> Lock(ParMutex);
      ++W.NextSeq;
      if (--Slot->Remaining == 0) {
        Spare.push_back(std::move(Slot->Words));
        if (PublisherWaiting)
          SlotFree.notify_one();
      }
    }
  }
}

void EventDispatcher::handOff(std::vector<Event> &Buffer, size_t Count,
                              size_t Records, FlushCause Cause, bool Live) {
  bool WakeWorkers;
  {
    std::unique_lock<std::mutex> Lock(ParMutex);
    if (SlotsInUse == 0)
      SlotsInUse = Live ? RingSlots : ChunkSlots;
    BatchSlot &Slot = Ring[PublishedSeq % SlotsInUse];
    if (Slot.Remaining != 0) {
      // Backpressure: block until the slowest worker frees this slot.
      ++BackpressureBlocks;
      uint64_t WaitStart = obs::nowNs();
      PublisherWaiting = true;
      SlotFree.wait(Lock, [&] { return Slot.Remaining == 0; });
      PublisherWaiting = false;
      BackpressureWaitNs += obs::nowNs() - WaitStart;
    }
    // The filled buffer moves into the slot; the producer continues in
    // the oldest drained buffer (see Spare), and only allocates when
    // every buffer is in flight.
    Slot.Words = std::move(Buffer);
    Buffer.clear();
    if (!Spare.empty()) {
      Buffer = std::move(Spare.front());
      Spare.pop_front();
    }
    Slot.Count = Count;
    Slot.Records = Records;
    Slot.Cause = Cause;
    Slot.Live = Live;
    Slot.Remaining = static_cast<unsigned>(Lanes.size());
    ++PublishedSeq;
    uint64_t MinSeq = PublishedSeq;
    for (const auto &W : Lanes)
      MinSeq = std::min(MinSeq, W->NextSeq);
    // Buffers never leave the rotation before the join, so the ones in
    // flight, the spares and the producer's own are all it has made.
    uint64_t Depth = PublishedSeq - MinSeq;
    MaxQueueDepth = std::max(MaxQueueDepth, Depth);
    MaxBuffers = std::max<uint64_t>(MaxBuffers, Depth + Spare.size() + 1);
    // Signal only parked workers: a worker that is busy (or runnable)
    // re-checks PublishedSeq under the lock before it ever waits, so
    // skipping the notify can't lose a wakeup.
    WakeWorkers = IdleWorkers != 0;
  }
  if (WakeWorkers)
    WorkReady.notify_all();
}

void EventDispatcher::joinWorkers() {
  {
    std::lock_guard<std::mutex> Lock(ParMutex);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (auto &W : Lanes)
    if (W->Thread.joinable())
      W->Thread.join();
  PipelineActive = false;
  ShuttingDown = false;
  Lanes.clear();
  for (BatchSlot &Slot : Ring)
    Slot = BatchSlot();
  Spare.clear();
}

void EventDispatcher::flushImpl(FlushCause Cause) {
  // The merge target is an index into Pending; invalidate it whether or
  // not anything is delivered.
  HaveLastMain = false;
  if (PendingWords == 0)
    return;
  ISP_STATS(obs::Registry::get()
                .histogram("dispatcher.batch_fill")
                .record(PendingWords));
  publish(Pending, PendingWords, PendingRecords, Cause, /*Live=*/true);
  // A handoff leaves a drained buffer here, or none when every buffer
  // was in flight; after the final flush, start() sizes it if the
  // dispatcher runs again.
  if (Cause != FlushCause::Finish && Pending.size() < BatchWords)
    Pending.resize(BatchWords);
  PendingWords = 0;
  PendingRecords = 0;
}

void EventDispatcher::publish(std::vector<Event> &Buffer, size_t Count,
                              size_t Records, FlushCause Cause, bool Live) {
  assert(!Lanes.empty() && "start() places the consumers on lanes");
  ++Flushes[static_cast<size_t>(Cause)];
  DeliveredEvents += Records;
  if (PipelineActive)
    handOff(Buffer, Count, Records, Cause, Live);
  else
    deliverOn(*Lanes[0], Buffer.data(), Count, Records, Cause);
}

void EventDispatcher::publishChunk(std::vector<Event> &Words,
                                   size_t Records) {
  flushImpl(FlushCause::Explicit);
  EnqueuedEvents += Records;
  if (Words.empty())
    return;
  publish(Words, Words.size(), Records, FlushCause::Explicit,
          /*Live=*/false);
}

void EventDispatcher::publishStats() const {
  obs::Registry &R = obs::Registry::get();
  R.counter("dispatcher.enqueued_events").add(EnqueuedEvents);
  R.counter("dispatcher.delivered_events").add(DeliveredEvents);
  R.counter("dispatcher.access_merges").add(AccessMerges);
  R.counter("dispatcher.flushes.capacity")
      .add(flushCount(FlushCause::Capacity));
  R.counter("dispatcher.flushes.explicit")
      .add(flushCount(FlushCause::Explicit));
  R.counter("dispatcher.flushes.finish").add(flushCount(FlushCause::Finish));
  if (WorkerCountUsed != 0) {
    R.gauge("dispatcher.parallel.workers").noteMax(WorkerCountUsed);
    R.counter("dispatcher.parallel.backpressure_blocks")
        .add(BackpressureBlocks);
    R.counter("dispatcher.parallel.backpressure_wait_ns")
        .add(BackpressureWaitNs);
    R.gauge("dispatcher.parallel.max_queue_depth").noteMax(MaxQueueDepth);
    R.gauge("dispatcher.parallel.buffers").noteMax(MaxBuffers);
  }
  for (size_t I = 0; I != ToolObs.size(); ++I) {
    const ToolObsState &S = ToolObs[I];
    R.counter("tool." + S.Name + ".events_delivered").add(S.Events);
    R.counter("tool." + S.Name + ".callback_ns").add(S.CallbackNs);
    if (I < Tools.size())
      R.gauge("tool." + S.Name + ".footprint_bytes")
          .noteMax(Tools[I]->memoryFootprintBytes());
  }
}

void EventDispatcher::finish() {
  flushImpl(FlushCause::Finish);
  // Join point: drain every worker queue before any tool's onFinish —
  // the join also publishes all worker-side writes to this thread.
  if (PipelineActive)
    joinWorkers();
  for (Tool *T : Tools)
    T->onFinish();
  ISP_STATS(publishStats());
}
