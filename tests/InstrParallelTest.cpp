//===- tests/InstrParallelTest.cpp - Pipelined delivery ------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Pipelined delivery — the default whenever a dispatcher sees two or
// more hardware threads — promises three things, and these tests hold
// it to them: (1) every consumer observes exactly the batch sequence
// serial delivery would give it, so reports, profiles and recorded
// streams are byte-identical; (2) each consumer runs on one fixed thread
// chosen by its declared affinity — DispatchThread tools on the producer
// thread, worker tools and the record sink on exactly one worker; (3)
// finish() is a real join: after it returns, every event has been
// consumed and the compaction identity holds. Tests pin the hardware
// thread count (PinnedThreads.h) so both deliveries run on any host.
//
//===----------------------------------------------------------------------===//

#include "PinnedThreads.h"

#include "core/RmsProfiler.h"
#include "core/TrmsProfiler.h"
#include "instr/Dispatcher.h"
#include "tools/NulTool.h"
#include "tools/ToolRegistry.h"
#include "trace/Synthetic.h"
#include "vm/Compiler.h"
#include "vm/Machine.h"
#include "workloads/Runner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

using namespace isp;

namespace {

std::vector<EventRecord> makeTrace(uint64_t Operations, uint64_t Seed,
                             unsigned Threads = 4) {
  SyntheticTraceOptions Gen;
  Gen.NumThreads = Threads;
  Gen.NumOperations = Operations;
  Gen.Seed = Seed;
  return generateSyntheticTrace(Gen);
}

/// Runs \p Events through a dispatcher that sees \p HardwareThreads
/// threads (1 = serial delivery) over freshly created \p ToolNames and
/// returns each tool's rendered report. \p FlushEvery > 0 forces a
/// flush after every that many events, moving the batch boundaries.
std::vector<std::string> reportsForRun(const std::vector<EventRecord> &Events,
                                       const std::vector<std::string> &ToolNames,
                                       unsigned HardwareThreads,
                                       size_t FlushEvery = 0) {
  PinnedThreads Pin(HardwareThreads);
  std::vector<std::unique_ptr<Tool>> Tools;
  for (const std::string &Name : ToolNames) {
    Tools.push_back(makeTool(Name));
    EXPECT_NE(Tools.back(), nullptr) << Name;
  }
  EventDispatcher Dispatcher;
  for (auto &T : Tools)
    Dispatcher.addTool(T.get());
  Dispatcher.start(nullptr);
  EXPECT_EQ(Dispatcher.pipelineActive(), HardwareThreads >= 2);
  for (size_t I = 0; I != Events.size(); ++I) {
    Dispatcher.enqueue(Events[I]);
    if (FlushEvery != 0 && (I + 1) % FlushEvery == 0)
      Dispatcher.flush();
  }
  Dispatcher.finish();
  std::vector<std::string> Reports;
  for (auto &T : Tools)
    Reports.push_back(renderToolReport(*T, nullptr));
  return Reports;
}

/// Records every callback's payload and the thread it ran on.
class RecordingTool : public Tool {
public:
  explicit RecordingTool(ToolAffinity A) : Affinity(A) {}

  ToolAffinity threadAffinity() const override { return Affinity; }
  std::string name() const override { return "recording"; }

  void onThreadStart(ThreadId Tid, ThreadId Parent) override {
    note('S', Tid, Parent, 0);
  }
  void onThreadEnd(ThreadId Tid) override { note('E', Tid, 0, 0); }
  void onCall(ThreadId Tid, RoutineId Rtn) override {
    note('C', Tid, Rtn, 0);
  }
  void onReturn(ThreadId Tid, RoutineId Rtn) override {
    note('R', Tid, Rtn, 0);
  }
  void onBasicBlock(ThreadId Tid, uint64_t Count) override {
    note('B', Tid, Count, 0);
  }
  void onRead(ThreadId Tid, Addr A, uint64_t Cells) override {
    note('r', Tid, A, Cells);
  }
  void onWrite(ThreadId Tid, Addr A, uint64_t Cells) override {
    note('w', Tid, A, Cells);
  }
  void onKernelRead(ThreadId Tid, Addr A, uint64_t Cells) override {
    note('k', Tid, A, Cells);
  }
  void onKernelWrite(ThreadId Tid, Addr A, uint64_t Cells) override {
    note('K', Tid, A, Cells);
  }

  using Entry = std::tuple<char, uint64_t, uint64_t, uint64_t>;
  const std::vector<Entry> &entries() const { return Entries; }
  const std::set<std::thread::id> &threads() const { return Threads; }

private:
  void note(char Kind, uint64_t A, uint64_t B, uint64_t C) {
    Entries.emplace_back(Kind, A, B, C);
    Threads.insert(std::this_thread::get_id());
  }

  ToolAffinity Affinity;
  std::vector<Entry> Entries;
  std::set<std::thread::id> Threads;
};

/// An AnyWorker tool that naps every 256 reads — slow enough for the
/// producer to lap the batch ring and hit backpressure.
class SlowTool : public Tool {
public:
  ToolAffinity threadAffinity() const override {
    return ToolAffinity::AnyWorker;
  }
  std::string name() const override { return "slow"; }
  void onRead(ThreadId, Addr, uint64_t) override {
    if (++Reads % 256 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  uint64_t reads() const { return Reads; }

private:
  uint64_t Reads = 0;
};

/// A record sink that keeps every batch it is handed and the threads it
/// ran on.
class CapturingSink : public EventDispatcher::RecordSink {
public:
  void recordBatch(const Event *Words, size_t Count) override {
    this->Words.insert(this->Words.end(), Words, Words + Count);
    Threads.insert(std::this_thread::get_id());
  }
  std::vector<Event> Words;
  std::set<std::thread::id> Threads;
};

//===----------------------------------------------------------------------===//
// Affinity declarations and the engage rule
//===----------------------------------------------------------------------===//

TEST(Pipeline, RegistryToolsDeclareExpectedAffinities) {
  // The profiler family shares global shadow state across instances, so
  // it must stay co-scheduled on one worker.
  for (const char *Name : {"aprof-trms", "aprof-rms", "aprof-trms-naive"}) {
    std::unique_ptr<Tool> T = makeTool(Name);
    ASSERT_NE(T, nullptr) << Name;
    EXPECT_EQ(T->threadAffinity(), ToolAffinity::CoScheduled) << Name;
  }
  // Instance-private tools may take any fixed worker.
  for (const char *Name :
       {"nulgrind", "memcheck", "callgrind", "helgrind", "drd", "cct"}) {
    std::unique_ptr<Tool> T = makeTool(Name);
    ASSERT_NE(T, nullptr) << Name;
    EXPECT_EQ(T->threadAffinity(), ToolAffinity::AnyWorker) << Name;
  }
  // The base class stays conservative for unaudited tools.
  RecordingTool Base(ToolAffinity::DispatchThread);
  EXPECT_EQ(static_cast<Tool &>(Base).threadAffinity(),
            ToolAffinity::DispatchThread);
}

TEST(Pipeline, EngageRuleNeedsASecondThreadAndAWorkerConsumer) {
  // One hardware thread, or nothing a worker may consume: serial.
  EXPECT_EQ(EventDispatcher::workersFor(1, 1), 0u);
  EXPECT_EQ(EventDispatcher::workersFor(1, 5), 0u);
  EXPECT_EQ(EventDispatcher::workersFor(0, 3), 0u);
  EXPECT_EQ(EventDispatcher::workersFor(4, 0), 0u);
  // Otherwise one worker per unit, leaving one thread to the producer.
  EXPECT_EQ(EventDispatcher::workersFor(2, 1), 1u);
  EXPECT_EQ(EventDispatcher::workersFor(2, 3), 1u);
  EXPECT_EQ(EventDispatcher::workersFor(4, 2), 2u);
  EXPECT_EQ(EventDispatcher::workersFor(4, 5), 3u);

  // The dispatcher applies it to the hardware threads it sees.
  for (unsigned Hw : {1u, 2u, 4u}) {
    PinnedThreads Pin(Hw);
    NulTool T;
    EventDispatcher D;
    D.addTool(&T);
    D.start(nullptr);
    EXPECT_EQ(D.pipelineActive(), Hw >= 2) << Hw;
    EXPECT_EQ(D.workersUsed(), Hw >= 2 ? 1u : 0u) << Hw;
    D.enqueue(EventRecord::read(0, 8));
    D.finish();
    EXPECT_FALSE(D.pipelineActive());
    EXPECT_EQ(T.eventsSeen(), 1u);
  }
  // An explicit budget overrides what the host reports.
  NulTool T;
  EventDispatcher Serial(/*ThreadBudget=*/1);
  Serial.addTool(&T);
  Serial.start(nullptr);
  EXPECT_FALSE(Serial.pipelineActive());
  Serial.finish();
}

//===----------------------------------------------------------------------===//
// Pipelined == serial, observationally
//===----------------------------------------------------------------------===//

TEST(Pipeline, ReportsMatchSerialOnSyntheticTrace) {
  const std::vector<std::string> ToolNames = {"aprof-trms", "aprof-rms",
                                              "memcheck", "callgrind"};
  std::vector<EventRecord> Events = makeTrace(20000, 31);
  std::vector<std::string> Serial = reportsForRun(Events, ToolNames, 1);
  for (unsigned Hw : {2u, 3u, 8u}) {
    std::vector<std::string> Pipelined = reportsForRun(Events, ToolNames, Hw);
    ASSERT_EQ(Pipelined.size(), Serial.size());
    for (size_t I = 0; I != Serial.size(); ++I)
      EXPECT_EQ(Pipelined[I], Serial[I])
          << ToolNames[I] << " diverged with " << Hw << " hardware threads";
  }
}

TEST(Pipeline, EveryRegistryToolMatchesReplayOnCompiledWorkload) {
  // Live pipelined delivery of a 4-thread guest against the reference:
  // the recorded (compacted) stream replayed event by event into a
  // fresh tool.
  const WorkloadInfo *W = findWorkload("md");
  ASSERT_NE(W, nullptr);
  WorkloadParams Params;
  Params.Threads = 4;
  Params.Size = 16;
  std::optional<Program> Prog = compileWorkload(*W, Params);
  ASSERT_TRUE(Prog.has_value());

  std::vector<EventRecord> Recorded;
  {
    EventDispatcher Recorder(/*ThreadBudget=*/1);
    Recorder.enableRecording();
    Machine M(*Prog, &Recorder, MachineOptions());
    ASSERT_TRUE(M.run().Ok);
    Recorded = Recorder.decodedRecordedEvents();
  }

  PinnedThreads Pin(4);
  std::vector<std::unique_ptr<Tool>> Live;
  EventDispatcher Dispatcher;
  for (const std::string &Name : allToolNames()) {
    Live.push_back(makeTool(Name));
    ASSERT_NE(Live.back(), nullptr) << Name;
    Dispatcher.addTool(Live.back().get());
  }
  Machine M(*Prog, &Dispatcher, MachineOptions());
  RunResult R = M.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Dispatcher.workersUsed(), 3u);

  for (size_t I = 0; I != Live.size(); ++I) {
    const std::string &Name = allToolNames()[I];
    std::unique_ptr<Tool> Reference = makeTool(Name);
    replayTrace(Recorded, *Reference, &Prog->Symbols);
    EXPECT_EQ(renderToolReport(*Live[I], &Prog->Symbols),
              renderToolReport(*Reference, &Prog->Symbols))
        << Name;
  }
}

TEST(Pipeline, CallbackOrderAndContentMatchSerial) {
  std::vector<EventRecord> Events = makeTrace(8000, 32);
  auto RunOnce = [&](unsigned Hw) {
    PinnedThreads Pin(Hw);
    RecordingTool T(ToolAffinity::AnyWorker);
    EventDispatcher D;
    D.addTool(&T);
    D.start(nullptr);
    EXPECT_EQ(D.pipelineActive(), Hw >= 2);
    for (const EventRecord &E : Events)
      D.enqueue(E);
    D.finish();
    EXPECT_FALSE(D.pipelineActive());
    return T.entries();
  };
  EXPECT_EQ(RunOnce(2), RunOnce(1));
}

TEST(Pipeline, ReportsAreIdenticalAcrossFlushPoints) {
  // Batch boundaries move where access runs stop merging, but every
  // tool is compaction-invariant — so the reports must be
  // byte-identical wherever the batches are cut, serial or pipelined.
  const std::vector<std::string> ToolNames = {"aprof-trms", "aprof-rms",
                                              "memcheck", "callgrind"};
  std::vector<EventRecord> Events = makeTrace(20000, 41);
  std::vector<std::string> Baseline = reportsForRun(Events, ToolNames, 1);
  for (unsigned Hw : {1u, 4u})
    for (size_t FlushEvery : {size_t(1), size_t(7), size_t(300)}) {
      std::vector<std::string> Reports =
          reportsForRun(Events, ToolNames, Hw, FlushEvery);
      ASSERT_EQ(Reports.size(), Baseline.size());
      for (size_t I = 0; I != Baseline.size(); ++I)
        EXPECT_EQ(Reports[I], Baseline[I])
            << ToolNames[I] << " diverged flushing every " << FlushEvery
            << " events with " << Hw << " hardware threads";
    }
}

TEST(Pipeline, PublishedChunksArriveExactlyAsDecoded) {
  // publishChunk hands a decoded stream chunk over as one batch,
  // neither re-enqueued nor recompacted: the consumer must see exactly
  // the chunks' events, in order.
  std::vector<EventRecord> Events = makeTrace(6000, 42);
  std::vector<std::vector<Event>> Chunks;
  std::vector<size_t> ChunkRecords;
  for (size_t At = 0; At < Events.size(); At += 700) {
    std::vector<EventRecord> Part(
        Events.begin() + At,
        Events.begin() + std::min(Events.size(), At + 700));
    Chunks.push_back(encodeEventStream(Part));
    ChunkRecords.push_back(Part.size());
  }
  RecordingTool Reference(ToolAffinity::AnyWorker);
  replayTrace(Events, Reference);
  for (unsigned Hw : {1u, 2u}) {
    PinnedThreads Pin(Hw);
    SlowTool Slow;
    RecordingTool T(ToolAffinity::AnyWorker);
    EventDispatcher D;
    D.addTool(&T);
    D.addTool(&Slow);
    D.start(nullptr);
    for (size_t I = 0; I != Chunks.size(); ++I) {
      std::vector<Event> Chunk = Chunks[I];
      D.publishChunk(Chunk, ChunkRecords[I]);
    }
    D.finish();
    EXPECT_EQ(T.entries(), Reference.entries()) << Hw;
    EXPECT_EQ(D.enqueuedEvents(), Events.size());
    EXPECT_EQ(D.deliveredEvents(), Events.size());
    // One chunk is consumed while the next is decoded.
    EXPECT_LE(D.maxQueueDepth(), EventDispatcher::ChunkSlots);
  }
}

//===----------------------------------------------------------------------===//
// Thread placement
//===----------------------------------------------------------------------===//

TEST(Pipeline, DispatchThreadToolStaysOnProducerThread) {
  PinnedThreads Pin(4);
  RecordingTool Pinned(ToolAffinity::DispatchThread);
  NulTool Spread; // AnyWorker, so the pipeline actually engages
  EventDispatcher D;
  D.addTool(&Pinned);
  D.addTool(&Spread);
  D.start(nullptr);
  ASSERT_TRUE(D.pipelineActive());
  for (const EventRecord &E : makeTrace(4000, 34))
    D.enqueue(E);
  D.finish();
  ASSERT_EQ(Pinned.threads().size(), 1u);
  EXPECT_EQ(*Pinned.threads().begin(), std::this_thread::get_id());
}

TEST(Pipeline, AnyWorkerToolRunsOnOneWorkerThread) {
  PinnedThreads Pin(4);
  RecordingTool Spread(ToolAffinity::AnyWorker);
  EventDispatcher D;
  D.addTool(&Spread);
  D.start(nullptr);
  ASSERT_TRUE(D.pipelineActive());
  for (const EventRecord &E : makeTrace(4000, 35))
    D.enqueue(E);
  D.finish();
  // One fixed consumer thread, and never the producer thread.
  ASSERT_EQ(Spread.threads().size(), 1u);
  EXPECT_NE(*Spread.threads().begin(), std::this_thread::get_id());
}

TEST(Pipeline, WorkerCountClampsToEligibleConsumers) {
  // One spreadable tool can use at most one worker, however many
  // hardware threads there are.
  PinnedThreads Pin(64);
  NulTool T;
  EventDispatcher D;
  D.addTool(&T);
  D.start(nullptr);
  ASSERT_TRUE(D.pipelineActive());
  EXPECT_EQ(D.workersUsed(), 1u);
  D.finish();
}

TEST(Pipeline, StaysSerialWithOnlyDispatchThreadTools) {
  PinnedThreads Pin(4);
  RecordingTool Pinned(ToolAffinity::DispatchThread);
  EventDispatcher D;
  D.addTool(&Pinned);
  D.start(nullptr);
  EXPECT_FALSE(D.pipelineActive());
  EXPECT_EQ(D.workersUsed(), 0u);
  for (const EventRecord &E : makeTrace(1000, 36))
    D.enqueue(E);
  D.finish();
  ASSERT_EQ(Pinned.threads().size(), 1u);
  EXPECT_EQ(*Pinned.threads().begin(), std::this_thread::get_id());
}

TEST(Pipeline, RecordSinkIsOneMoreWorkerConsumer) {
  // The sink alone engages the pipeline, consumes on one worker, and
  // sees exactly the words serial delivery hands it.
  std::vector<EventRecord> Events = makeTrace(12000, 38);
  auto Capture = [&](unsigned Hw, CapturingSink &Sink) {
    PinnedThreads Pin(Hw);
    EventDispatcher D;
    D.setRecordSink(&Sink);
    D.enableRecording();
    D.start(nullptr);
    EXPECT_EQ(D.pipelineActive(), Hw >= 2);
    for (const EventRecord &E : Events)
      D.enqueue(E);
    D.finish();
    EXPECT_EQ(Sink.Words.size(), D.recordedEvents().size());
  };
  CapturingSink Serial, Pipelined;
  Capture(1, Serial);
  Capture(3, Pipelined);
  ASSERT_EQ(Pipelined.Words.size(), Serial.Words.size());
  for (size_t I = 0; I != Serial.Words.size(); ++I)
    ASSERT_TRUE(Pipelined.Words[I] == Serial.Words[I]) << "word " << I;
  ASSERT_EQ(Pipelined.Threads.size(), 1u);
  EXPECT_NE(*Pipelined.Threads.begin(), std::this_thread::get_id());
}

//===----------------------------------------------------------------------===//
// Join, counters, backpressure
//===----------------------------------------------------------------------===//

TEST(Pipeline, CompactionIdentityHoldsAfterFinish) {
  PinnedThreads Pin(4);
  std::vector<EventRecord> Events = makeTrace(12000, 37);
  NulTool A;
  auto B = makeTool("memcheck");
  EventDispatcher D;
  D.addTool(&A);
  D.addTool(B.get());
  D.start(nullptr);
  for (const EventRecord &E : Events)
    D.enqueue(E);
  D.finish();
  EXPECT_EQ(D.enqueuedEvents(),
            D.deliveredEvents() + D.accessMerges() + D.bbFolds());
  EXPECT_EQ(D.enqueuedEvents(), Events.size());
  EXPECT_EQ(A.eventsSeen(), D.deliveredEvents());
}

TEST(Pipeline, RingNeverExceedsItsFixedBound) {
  PinnedThreads Pin(2);
  SlowTool Slow;
  EventDispatcher D;
  D.addTool(&Slow);
  D.start(nullptr);
  ASSERT_TRUE(D.pipelineActive());
  // Dense, non-mergeable reads: the slow consumer drains far behind the
  // producer, which must block rather than grow the ring.
  const uint64_t NumReads = 3 * EventDispatcher::RingSlots *
                            EventDispatcher::BatchWords;
  for (uint64_t I = 0; I != NumReads; ++I)
    D.enqueue(EventRecord::read(0, 8 * I));
  D.finish();
  EXPECT_GT(D.backpressureBlocks(), 0u);
  EXPECT_LE(D.maxQueueDepth(), EventDispatcher::RingSlots);
  // The join delivered everything despite the blocking.
  EXPECT_EQ(Slow.reads(), NumReads);
}

} // namespace
