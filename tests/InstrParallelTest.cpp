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
// streams are byte-identical; (2) each consumer — every tool and the
// record sink — runs on exactly one worker thread, never the
// producer's; (3) finish() is a real join: after it returns, every
// event has been consumed and the compaction identity holds. Tests pin
// the hardware thread count (PinnedThreads.h) so both deliveries run on
// any host.
//
//===----------------------------------------------------------------------===//

#include "PinnedThreads.h"
#include "TestUtil.h"

#include "core/RmsProfiler.h"
#include "core/TrmsProfiler.h"
#include "instr/ContextAdapter.h"
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
/// returns each tool's rendered report. A name ending in "+contexts"
/// puts the named tool behind a ContextAdapter, as the driver's
/// --contexts does. \p FlushEvery > 0 forces a flush after every that
/// many events, moving the batch boundaries.
std::vector<std::string> reportsForRun(const std::vector<EventRecord> &Events,
                                       const std::vector<std::string> &ToolNames,
                                       unsigned HardwareThreads,
                                       size_t FlushEvery = 0) {
  static const std::string ContextsSuffix = "+contexts";
  PinnedThreads Pin(HardwareThreads);
  std::vector<std::unique_ptr<Tool>> Tools;
  std::vector<std::unique_ptr<ContextAdapter>> Adapters;
  EventDispatcher Dispatcher;
  for (const std::string &Name : ToolNames) {
    bool Contexts = Name.ends_with(ContextsSuffix);
    Tools.push_back(makeTool(
        Contexts ? Name.substr(0, Name.size() - ContextsSuffix.size())
                 : Name));
    EXPECT_NE(Tools.back(), nullptr) << Name;
    Adapters.push_back(Contexts ? std::make_unique<ContextAdapter>(
                                      *Tools.back())
                                : nullptr);
    Dispatcher.addTool(Adapters.back() ? Adapters.back().get()
                                       : Tools.back().get());
  }
  Dispatcher.start(nullptr);
  EXPECT_EQ(Dispatcher.pipelineActive(), HardwareThreads >= 2);
  for (size_t I = 0; I != Events.size(); ++I) {
    Dispatcher.enqueue(Events[I]);
    if (FlushEvery != 0 && (I + 1) % FlushEvery == 0)
      Dispatcher.flush();
  }
  Dispatcher.finish();
  std::vector<std::string> Reports;
  for (size_t I = 0; I != Tools.size(); ++I)
    Reports.push_back(renderToolReport(
        *Tools[I], Adapters[I] ? &Adapters[I]->contextSymbols() : nullptr));
  return Reports;
}

/// A tool that naps every 256 reads — slow enough for the producer to
/// lap the batch ring and hit backpressure.
class SlowTool final : public ToolImpl<SlowTool> {
public:
  std::string name() const override { return "slow"; }
  void onRead(ThreadId, Addr, uint64_t) {
    if (++Reads % 256 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  uint64_t reads() const { return Reads; }

private:
  uint64_t Reads = 0;
};

/// A record sink that keeps every batch it is handed, the threads it
/// ran on and the distinct buffers the batches arrived in.
class CapturingSink : public WordSink {
public:
  void recordBatch(const Event *Batch, size_t Count) override {
    WordSink::recordBatch(Batch, Count);
    Threads.insert(std::this_thread::get_id());
    Buffers.insert(Batch);
  }
  std::set<std::thread::id> Threads;
  std::set<const Event *> Buffers;
};

//===----------------------------------------------------------------------===//
// Units and the engage rule
//===----------------------------------------------------------------------===//

TEST(Pipeline, EveryToolIsItsOwnUnit) {
  // Each profiler owns its shadows, counter and database, so nothing
  // ties the three to one thread: with four hardware threads they take
  // three workers, and still report exactly what serial delivery gives.
  const std::vector<std::string> Profilers = {"aprof-rms", "aprof-trms",
                                              "aprof-trms-naive"};
  std::vector<EventRecord> Events = makeTrace(8000, 43);
  std::vector<std::string> Serial = reportsForRun(Events, Profilers, 1);

  PinnedThreads Pin(4);
  std::vector<std::unique_ptr<Tool>> Tools;
  EventDispatcher D;
  for (const std::string &Name : Profilers) {
    Tools.push_back(makeTool(Name));
    ASSERT_NE(Tools.back(), nullptr) << Name;
    D.addTool(Tools.back().get());
  }
  D.start(nullptr);
  EXPECT_EQ(D.workersUsed(), 3u);
  for (const EventRecord &E : Events)
    D.enqueue(E);
  D.finish();
  for (size_t I = 0; I != Profilers.size(); ++I)
    EXPECT_EQ(renderToolReport(*Tools[I], nullptr), Serial[I])
        << Profilers[I];
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
  // the recorded (compacted) stream walked, as one serial batch, by a
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
    WordSink Sink;
    EventDispatcher Recorder(/*ThreadBudget=*/1);
    Recorder.setRecordSink(&Sink);
    Machine M(*Prog, &Recorder, MachineOptions());
    ASSERT_TRUE(M.run().Ok);
    Recorded = decodeEventStream(Sink.Words);
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
    walkTrace(Recorded, *Reference, &Prog->Symbols);
    EXPECT_EQ(renderToolReport(*Live[I], &Prog->Symbols),
              renderToolReport(*Reference, &Prog->Symbols))
        << Name;
  }
}

TEST(Pipeline, CallbackOrderAndContentMatchSerial) {
  std::vector<EventRecord> Events = makeTrace(8000, 32);
  auto RunOnce = [&](unsigned Hw) {
    PinnedThreads Pin(Hw);
    RecordingTool T;
    EventDispatcher D;
    D.addTool(&T);
    D.start(nullptr);
    EXPECT_EQ(D.pipelineActive(), Hw >= 2);
    for (const EventRecord &E : Events)
      D.enqueue(E);
    D.finish();
    EXPECT_FALSE(D.pipelineActive());
    return T.Entries;
  };
  EXPECT_EQ(RunOnce(2), RunOnce(1));
}

TEST(Pipeline, ReportsAreIdenticalAcrossFlushPoints) {
  // Batch boundaries move where access runs stop merging, but every
  // tool is compaction-invariant — so the reports must be
  // byte-identical wherever the batches are cut, serial or pipelined.
  // The ContextAdapter rewrites each batch on its own, so a cut between
  // a Call and its Return, or before a ThreadEnd, must not show either.
  const std::vector<std::string> ToolNames = {
      "aprof-trms", "aprof-rms", "memcheck", "callgrind",
      "aprof-trms+contexts"};
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
  RecordingTool Reference;
  walkTrace(Events, Reference);
  for (unsigned Hw : {1u, 2u}) {
    PinnedThreads Pin(Hw);
    SlowTool Slow;
    RecordingTool T;
    EventDispatcher D;
    D.addTool(&T);
    D.addTool(&Slow);
    D.start(nullptr);
    for (size_t I = 0; I != Chunks.size(); ++I) {
      std::vector<Event> Chunk = Chunks[I];
      D.publishChunk(Chunk, ChunkRecords[I]);
    }
    D.finish();
    EXPECT_EQ(T.Entries, Reference.Entries) << Hw;
    EXPECT_EQ(D.enqueuedEvents(), Events.size());
    EXPECT_EQ(D.deliveredEvents(), Events.size());
    // One chunk is consumed while the next is decoded.
    EXPECT_LE(D.maxQueueDepth(), EventDispatcher::ChunkSlots);
  }
}

//===----------------------------------------------------------------------===//
// Thread placement
//===----------------------------------------------------------------------===//

TEST(Pipeline, EachToolRunsOnItsOwnWorkerThread) {
  PinnedThreads Pin(4);
  RecordingTool First, Second;
  EventDispatcher D;
  D.addTool(&First);
  D.addTool(&Second);
  D.start(nullptr);
  ASSERT_TRUE(D.pipelineActive());
  EXPECT_EQ(D.workersUsed(), 2u);
  for (const EventRecord &E : makeTrace(4000, 35))
    D.enqueue(E);
  D.finish();
  // One fixed consumer thread per tool, never the producer thread, and
  // never the other tool's.
  ASSERT_EQ(First.Threads.size(), 1u);
  ASSERT_EQ(Second.Threads.size(), 1u);
  EXPECT_NE(*First.Threads.begin(), std::this_thread::get_id());
  EXPECT_NE(*Second.Threads.begin(), std::this_thread::get_id());
  EXPECT_NE(*First.Threads.begin(), *Second.Threads.begin());
  EXPECT_EQ(First.Entries, Second.Entries);
}

TEST(Pipeline, WorkerCountClampsToEligibleConsumers) {
  // One tool can use at most one worker, however many hardware threads
  // there are.
  PinnedThreads Pin(64);
  NulTool T;
  EventDispatcher D;
  D.addTool(&T);
  D.start(nullptr);
  ASSERT_TRUE(D.pipelineActive());
  EXPECT_EQ(D.workersUsed(), 1u);
  D.finish();
}

TEST(Pipeline, RecordSinkIsOneMoreWorkerConsumer) {
  // The sink alone engages the pipeline, consumes on one worker, and
  // sees exactly the words serial delivery hands it. The trace fills
  // enough batches to lap the ring three times over, and however the
  // fast sink and the producer interleave, the batches come in at most
  // RingSlots + 1 buffers: in-flight memory stays bounded.
  constexpr size_t MaxBuffers = EventDispatcher::RingSlots + 1;
  std::vector<EventRecord> Events = makeTrace(150000, 38);
  auto Capture = [&](unsigned Hw, CapturingSink &Sink) {
    PinnedThreads Pin(Hw);
    EventDispatcher D;
    D.setRecordSink(&Sink);
    D.start(nullptr);
    EXPECT_EQ(D.pipelineActive(), Hw >= 2);
    for (const EventRecord &E : Events)
      D.enqueue(E);
    D.finish();
    EXPECT_EQ(packedEventCount(Sink.Words), D.deliveredEvents());
    EXPECT_GE(D.flushCount(EventDispatcher::FlushCause::Capacity),
              3 * MaxBuffers);
    EXPECT_LE(D.batchBuffers(), MaxBuffers);
  };
  CapturingSink Serial, Pipelined;
  Capture(1, Serial);
  Capture(3, Pipelined);
  ASSERT_EQ(Pipelined.Words.size(), Serial.Words.size());
  for (size_t I = 0; I != Serial.Words.size(); ++I)
    ASSERT_TRUE(Pipelined.Words[I] == Serial.Words[I]) << "word " << I;
  ASSERT_EQ(Pipelined.Threads.size(), 1u);
  EXPECT_NE(*Pipelined.Threads.begin(), std::this_thread::get_id());
  EXPECT_EQ(Serial.Buffers.size(), 1u);
  EXPECT_LE(Pipelined.Buffers.size(), MaxBuffers);
}

TEST(Pipeline, DemotedBatchKeepsItsBytes) {
  // The demotion is a cache hint: it runs (as a NOP where the CPU lacks
  // it) over whole batches, partial lines at either end, and nothing,
  // and leaves every byte as it was.
  std::vector<Event> Words(EventDispatcher::BatchWords + 3);
  for (size_t I = 0; I != Words.size(); ++I)
    Words[I] = {static_cast<uint32_t>(I * 7), static_cast<ThreadId>(I % 5),
                I * 0x9E3779B97F4A7C15ull};
  const std::vector<Event> Before = Words;
  EventDispatcher::demoteBatch(Words.data(), Words.size());
  EventDispatcher::demoteBatch(Words.data() + 1, 5);
  EventDispatcher::demoteBatch(Words.data() + 3, 0);
  EXPECT_TRUE(Words == Before);
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
  EXPECT_EQ(D.enqueuedEvents(), D.deliveredEvents() + D.accessMerges());
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
