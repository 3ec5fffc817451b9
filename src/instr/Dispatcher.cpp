//===- instr/Dispatcher.cpp - Event fan-out and batch delivery ------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "instr/Dispatcher.h"

#include "obs/Obs.h"

#include <atomic>

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
  // Partition the registered tools by affinity. CoScheduled tools must
  // share one worker; AnyWorker tools spread round-robin.
  std::vector<size_t> CoScheduled, Spreadable;
  for (size_t I = 0; I != Tools.size(); ++I) {
    switch (Tools[I]->threadAffinity()) {
    case ToolAffinity::CoScheduled:
      CoScheduled.push_back(I);
      break;
    case ToolAffinity::AnyWorker:
      Spreadable.push_back(I);
      break;
    }
  }
  // Schedulable units: the whole CoScheduled group is one unit, and so
  // is the record sink.
  size_t Units = Spreadable.size() + (CoScheduled.empty() ? 0 : 1) +
                 (Sink ? 1 : 0);
  unsigned N = workersFor(ThreadBudget, Units);
  WorkerCountUsed = N;
  if (N == 0)
    return; // serial delivery

  Workers.clear();
  for (unsigned I = 0; I != N; ++I) {
    auto W = std::make_unique<WorkerState>();
    if (obs::tracingEnabled())
      W->Lane =
          obs::TraceLog::get().allocLane("worker " + std::to_string(I));
    Workers.push_back(std::move(W));
  }
  // The CoScheduled group shares worker 0; AnyWorker tools and then the
  // sink round-robin over the rest (wrapping back through 0 when the
  // pool is small).
  for (size_t I : CoScheduled)
    Workers[0]->ToolIdx.push_back(I);
  size_t Next = CoScheduled.empty() ? 0 : 1;
  for (size_t I : Spreadable)
    Workers[Next++ % N]->ToolIdx.push_back(I);
  if (Sink)
    Workers[Next % N]->FeedsSink = true;

  Spare.reserve(RingSlots);
  SlotsInUse = 0;
  PublishedSeq = 0;
  ShuttingDown = false;
  IdleWorkers = 0;
  PublisherWaiting = false;
  BackpressureBlocks = 0;
  BackpressureWaitNs = 0;
  MaxQueueDepth = 0;
  PipelineActive = true;
  for (auto &W : Workers)
    W->Thread = std::thread([this, WPtr = W.get()] { workerLoop(*WPtr); });
}

void EventDispatcher::deliverTo(const std::vector<size_t> &Idx,
                                const Event *Words, size_t Count,
                                size_t Records) {
  bool Observe = obs::statsEnabled() || obs::tracingEnabled();
  if (ISP_UNLIKELY(Observe) && ToolObs.size() == Tools.size()) {
    for (size_t I : Idx) {
      uint64_t Start = obs::nowNs();
      Tools[I]->handleBatch(Words, Count);
      uint64_t End = obs::nowNs();
      ToolObs[I].Events += Records;
      ToolObs[I].CallbackNs += End - Start;
      if (obs::tracingEnabled())
        obs::TraceLog::get().completeSpan(ToolObs[I].Lane, "handleBatch",
                                          "tool", Start, End);
    }
  } else {
    for (size_t I : Idx)
      Tools[I]->handleBatch(Words, Count);
  }
}

void EventDispatcher::workerLoop(WorkerState &W) {
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
    uint64_t SpanStart = obs::tracingEnabled() ? obs::nowNs() : 0;
    deliverTo(W.ToolIdx, Slot->Words.data(), Slot->Count, Slot->Records);
    if (W.FeedsSink)
      Sink->recordBatch(Slot->Words.data(), Slot->Count);
    if (obs::tracingEnabled())
      obs::TraceLog::get().completeSpan(W.Lane, "batch", "worker", SpanStart,
                                        obs::nowNs());
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
                              size_t Records, FlushCause Cause,
                              size_t Slots) {
  ++Flushes[static_cast<size_t>(Cause)];
  bool WakeWorkers;
  {
    std::unique_lock<std::mutex> Lock(ParMutex);
    if (SlotsInUse == 0)
      SlotsInUse = Slots;
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
    // the most recently drained buffer (still warm in cache), and only
    // allocates when every buffer is in flight.
    Slot.Words = std::move(Buffer);
    Buffer.clear();
    if (!Spare.empty()) {
      Buffer = std::move(Spare.back());
      Spare.pop_back();
    }
    Slot.Count = Count;
    Slot.Records = Records;
    Slot.Remaining = static_cast<unsigned>(Workers.size());
    ++PublishedSeq;
    uint64_t MinSeq = PublishedSeq;
    for (const auto &W : Workers)
      MinSeq = std::min(MinSeq, W->NextSeq);
    MaxQueueDepth = std::max(MaxQueueDepth, PublishedSeq - MinSeq);
    // Signal only parked workers: a worker that is busy (or runnable)
    // re-checks PublishedSeq under the lock before it ever waits, so
    // skipping the notify can't lose a wakeup.
    WakeWorkers = IdleWorkers != 0;
  }
  if (WakeWorkers)
    WorkReady.notify_all();
  DeliveredEvents += Records;
}

void EventDispatcher::joinWorkers() {
  {
    std::lock_guard<std::mutex> Lock(ParMutex);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (auto &W : Workers)
    if (W->Thread.joinable())
      W->Thread.join();
  PipelineActive = false;
  ShuttingDown = false;
  Workers.clear();
  for (BatchSlot &Slot : Ring)
    Slot = BatchSlot();
  Spare.clear();
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

void EventDispatcher::flushImpl(FlushCause Cause) {
  // The merge target is an index into Pending; invalidate it whether or
  // not anything is delivered.
  HaveLastMain = false;
  if (PendingWords == 0)
    return;
  ISP_STATS(obs::Registry::get()
                .histogram("dispatcher.batch_fill")
                .record(PendingWords));
  if (PipelineActive) {
    handOff(Pending, PendingWords, PendingRecords, Cause, RingSlots);
    // The handoff left a drained buffer here, or none when every buffer
    // was in flight; after the final flush, start() sizes it if the
    // dispatcher runs again.
    if (Cause != FlushCause::Finish && Pending.size() < BatchWords)
      Pending.resize(BatchWords);
  } else {
    deliverSerial(Pending.data(), PendingWords, PendingRecords, Cause);
  }
  PendingWords = 0;
  PendingRecords = 0;
}

void EventDispatcher::deliverSerial(const Event *Words, size_t Count,
                                    size_t Records, FlushCause Cause) {
  ++Flushes[static_cast<size_t>(Cause)];
  if (ISP_UNLIKELY(Sink != nullptr))
    Sink->recordBatch(Words, Count);
  // The observed path times each tool's callback (and records timeline
  // spans); the default path is the plain loop.
  bool Observe = obs::statsEnabled() || obs::tracingEnabled();
  if (ISP_UNLIKELY(Observe) && ToolObs.size() == Tools.size()) {
    uint64_t FlushStart = obs::nowNs();
    for (size_t I = 0; I != Tools.size(); ++I) {
      uint64_t Start = obs::nowNs();
      Tools[I]->handleBatch(Words, Count);
      uint64_t End = obs::nowNs();
      ToolObs[I].Events += Records;
      ToolObs[I].CallbackNs += End - Start;
      if (obs::tracingEnabled())
        obs::TraceLog::get().completeSpan(ToolObs[I].Lane, "handleBatch",
                                          "tool", Start, End);
    }
    if (obs::tracingEnabled())
      obs::TraceLog::get().completeSpan(DispatcherLane,
                                        flushCauseName(Cause), "dispatcher",
                                        FlushStart, obs::nowNs());
  } else {
    for (Tool *T : Tools)
      T->handleBatch(Words, Count);
  }
  DeliveredEvents += Records;
}

void EventDispatcher::publishChunk(std::vector<Event> &Words,
                                   size_t Records) {
  flushImpl(FlushCause::Explicit);
  EnqueuedEvents += Records;
  if (Words.empty())
    return;
  if (PipelineActive)
    handOff(Words, Words.size(), Records, FlushCause::Explicit,
            ChunkSlots);
  else
    deliverSerial(Words.data(), Words.size(), Records, FlushCause::Explicit);
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
