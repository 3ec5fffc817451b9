//===- tests/CoreTrmsTest.cpp - trms algorithm unit tests ----------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Exact-value tests of the read/write timestamping profiler on
// hand-built traces, including every worked example of the paper's
// Section 2 (Figures 1a, 1b, 2, 3 / Examples 1-4), the external-input
// semantics of Figure 12, and the counter renumbering of Figure 13.
//
//===----------------------------------------------------------------------===//

#include "core/TrmsProfiler.h"

#include "core/RmsProfiler.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace isp;

namespace {

constexpr RoutineId F = 0, G = 1, H = 2, Consumer = 3, Producer = 4,
                    ExternalRead = 5;
constexpr Addr X = 100;

ProfileDatabase runTrms(const TraceBuilder &Trace,
                        TrmsProfilerOptions Options = TrmsProfilerOptions()) {
  return profileTrace<TrmsProfiler>(Trace.events(), Options);
}

// Figure 1a / Example 1: f in T1 reads x twice; g in T2 overwrites x in
// between. rms_f = 1 but trms_f = 2 (second read is induced).
TEST(TrmsExamples, Figure1a) {
  TraceBuilder Trace;
  Trace.start(1).call(1, F).read(1, X);
  Trace.start(2).call(2, G).write(2, X).ret(2, G).end(2);
  Trace.read(1, X).ret(1, F).end(1);

  ProfileDatabase Db = runTrms(Trace);
  const ActivationRecord *Rec = findActivation(Db, F);
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Rms, 1u);
  EXPECT_EQ(Rec->Trms, 2u);
  EXPECT_EQ(Rec->InducedThread, 1u);
  EXPECT_EQ(Rec->InducedExternal, 0u);
}

// Figure 1b / Example 2: f reads x, T2 writes x, f's subroutine h reads
// x (induced), then f reads x again (not induced: h already consumed the
// foreign value on f's behalf). rms_f = rms_h = 1; trms_h = 1;
// trms_f = 2.
TEST(TrmsExamples, Figure1b) {
  TraceBuilder Trace;
  Trace.start(1).call(1, F).read(1, X);
  Trace.start(2).call(2, G).write(2, X).ret(2, G).end(2);
  Trace.call(1, H).read(1, X).ret(1, H);
  Trace.read(1, X).ret(1, F).end(1);

  ProfileDatabase Db = runTrms(Trace);
  const ActivationRecord *RecH = findActivation(Db, H);
  ASSERT_NE(RecH, nullptr);
  EXPECT_EQ(RecH->Rms, 1u);
  EXPECT_EQ(RecH->Trms, 1u);
  EXPECT_EQ(RecH->InducedThread, 1u);

  const ActivationRecord *RecF = findActivation(Db, F);
  ASSERT_NE(RecF, nullptr);
  EXPECT_EQ(RecF->Rms, 1u);
  EXPECT_EQ(RecF->Trms, 2u);
  EXPECT_EQ(RecF->InducedThread, 1u);
}

// Figure 2 / Example 3: strict producer-consumer alternation on one
// cell. After n produced values, rms_consumer = 1 and trms_consumer = n.
TEST(TrmsExamples, Figure2ProducerConsumer) {
  constexpr unsigned N = 25;
  TraceBuilder Trace;
  Trace.start(1).start(2);
  Trace.call(2, Consumer);
  for (unsigned I = 0; I != N; ++I) {
    Trace.call(1, Producer).write(1, X).ret(1, Producer);
    Trace.read(2, X);
  }
  Trace.ret(2, Consumer).end(2).end(1);

  ProfileDatabase Db = runTrms(Trace);
  const ActivationRecord *Rec = findActivation(Db, Consumer);
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Rms, 1u);
  EXPECT_EQ(Rec->Trms, N);
  // Every read, including the first, follows a producer write: all N are
  // induced first-accesses (Example 3: "all read operations on x are
  // induced first-accesses").
  EXPECT_EQ(Rec->InducedThread, N);
}

// Figure 3 / Example 4: each iteration the kernel deposits 2 cells but
// the routine reads only one: after n iterations rms = 1, trms = n, and
// all induced accesses are external.
TEST(TrmsExamples, Figure3BufferedRead) {
  constexpr unsigned N = 18;
  constexpr Addr B0 = 200, B1 = 201;
  TraceBuilder Trace;
  Trace.start(1).call(1, ExternalRead);
  for (unsigned I = 0; I != N; ++I) {
    Trace.kernelWrite(1, B0).kernelWrite(1, B1);
    Trace.read(1, B0);
  }
  Trace.ret(1, ExternalRead).end(1);

  ProfileDatabase Db = runTrms(Trace);
  const ActivationRecord *Rec = findActivation(Db, ExternalRead);
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Rms, 1u);
  EXPECT_EQ(Rec->Trms, N);
  EXPECT_EQ(Rec->InducedExternal, N);
  EXPECT_EQ(Rec->InducedThread, 0u);
}

// Figure 12's kernelRead: sending a buffer to a device counts the
// buffer cells as reads by the thread (input of the sending routine).
TEST(TrmsExamples, KernelReadCountsAsInput) {
  TraceBuilder Trace;
  Trace.start(1).call(1, F);
  Trace.call(1, G);
  for (Addr A = 300; A != 308; ++A)
    Trace.write(1, A);
  Trace.ret(1, G);
  Trace.kernelRead(1, 300, 8); // syswrite of the buffer G produced
  Trace.ret(1, F).end(1);

  ProfileDatabase Db = runTrms(Trace);
  const ActivationRecord *RecF = findActivation(Db, F);
  ASSERT_NE(RecF, nullptr);
  // The cells were written inside F's subtree (by G), so they are not
  // first accesses for F...
  EXPECT_EQ(RecF->Rms, 0u);
  EXPECT_EQ(RecF->Trms, 0u);

  // ...but a sender that did not produce the data itself reads it as
  // fresh input.
  TraceBuilder Trace2;
  Trace2.start(1).call(1, G);
  for (Addr A = 300; A != 308; ++A)
    Trace2.write(1, A);
  Trace2.ret(1, G).end(1);
  Trace2.start(2).call(2, F).kernelRead(2, 300, 8).ret(2, F).end(2);
  ProfileDatabase Db2 = runTrms(Trace2);
  const ActivationRecord *Sender = findActivation(Db2, F);
  ASSERT_NE(Sender, nullptr);
  EXPECT_EQ(Sender->Trms, 8u);
  EXPECT_EQ(Sender->InducedThread, 8u);
}

// A kernel buffer fill alone contributes nothing until the thread
// actually reads the filled cells (Figure 12's rationale).
TEST(TrmsExamples, KernelWriteAloneIsNotInput) {
  TraceBuilder Trace;
  Trace.start(1).call(1, F).kernelWrite(1, 400, 16).ret(1, F).end(1);
  ProfileDatabase Db = runTrms(Trace);
  const ActivationRecord *Rec = findActivation(Db, F);
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Trms, 0u);
  EXPECT_EQ(Rec->Rms, 0u);
}

// Re-reading a kernel-filled cell counts once, not per read.
TEST(TrmsExamples, KernelFilledCellCountsOnce) {
  TraceBuilder Trace;
  Trace.start(1).call(1, F).kernelWrite(1, X);
  Trace.read(1, X).read(1, X).read(1, X);
  Trace.ret(1, F).end(1);
  ProfileDatabase Db = runTrms(Trace);
  const ActivationRecord *Rec = findActivation(Db, F);
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Trms, 1u);
  EXPECT_EQ(Rec->InducedExternal, 1u);
}

// A thread's own write shields it from the induced classification: x
// last written by the reader itself is not new input.
TEST(TrmsSemantics, OwnWriteIsNotInduced) {
  TraceBuilder Trace;
  Trace.start(1).call(1, F).write(1, X).read(1, X).ret(1, F).end(1);
  ProfileDatabase Db = runTrms(Trace);
  const ActivationRecord *Rec = findActivation(Db, F);
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Trms, 0u);
  EXPECT_EQ(Rec->Rms, 0u);
}

// Sibling activations: the second sibling re-reading a location the
// first one read still counts it (the parent does not double-count).
TEST(TrmsSemantics, SiblingTransfersUnit) {
  TraceBuilder Trace;
  Trace.start(1).call(1, F);
  Trace.call(1, G).read(1, X).ret(1, G);
  Trace.call(1, H).read(1, X).ret(1, H);
  Trace.ret(1, F).end(1);

  ProfileDatabase Db = runTrms(Trace);
  const ActivationRecord *RecG = findActivation(Db, G);
  const ActivationRecord *RecH = findActivation(Db, H);
  const ActivationRecord *RecF = findActivation(Db, F);
  ASSERT_NE(RecG, nullptr);
  ASSERT_NE(RecH, nullptr);
  ASSERT_NE(RecF, nullptr);
  EXPECT_EQ(RecG->Rms, 1u);
  EXPECT_EQ(RecH->Rms, 1u);
  // F's subtree first-accessed x once: both siblings saw it as input,
  // but F itself gets exactly one unit.
  EXPECT_EQ(RecF->Rms, 1u);
  EXPECT_EQ(RecF->Trms, 1u);
}

// Inequality 1 (trms >= rms) and Invariant 2 are enforced by asserts in
// the profiler; here we check the aggregate stays consistent on a
// deeper nest with cross-thread traffic.
TEST(TrmsSemantics, DeepNestAggregates) {
  TraceBuilder Trace;
  Trace.start(1).start(2);
  Trace.call(1, F).call(1, G).call(1, H);
  Trace.read(1, X).write(2, X).read(1, X);
  Trace.ret(1, H);
  Trace.write(2, X);
  Trace.read(1, X);
  Trace.ret(1, G).ret(1, F).end(1).end(2);

  ProfileDatabase Db = runTrms(Trace);
  const ActivationRecord *RecH = findActivation(Db, H);
  ASSERT_NE(RecH, nullptr);
  EXPECT_EQ(RecH->Rms, 1u);
  EXPECT_EQ(RecH->Trms, 2u);
  const ActivationRecord *RecG = findActivation(Db, G);
  ASSERT_NE(RecG, nullptr);
  // G: H's unit plus its own induced re-read after the second foreign
  // write.
  EXPECT_EQ(RecG->Rms, 1u);
  EXPECT_EQ(RecG->Trms, 3u);
  const ActivationRecord *RecF = findActivation(Db, F);
  ASSERT_NE(RecF, nullptr);
  EXPECT_EQ(RecF->Trms, 3u);
}

// Cost accounting: basic blocks between call and return, inclusive of
// descendants.
TEST(TrmsSemantics, InclusiveBasicBlockCost) {
  TraceBuilder Trace;
  Trace.start(1).call(1, F).bb(1).bb(1);
  Trace.call(1, G).bb(1, 5).ret(1, G);
  Trace.bb(1).ret(1, F).end(1);
  ProfileDatabase Db = runTrms(Trace);
  EXPECT_EQ(findActivation(Db, G)->Cost, 5u);
  EXPECT_EQ(findActivation(Db, F)->Cost, 8u);
}

// Thread-sensitive profiles: the same routine in two threads yields two
// separate profiles that merge on demand.
TEST(TrmsSemantics, ThreadSensitiveProfiles) {
  TraceBuilder Trace;
  Trace.start(1).call(1, F).read(1, 500).ret(1, F).end(1);
  Trace.start(2).call(2, F).read(2, 600).read(2, 601).ret(2, F).end(2);
  ProfileDatabase Db = runTrms(Trace);
  EXPECT_EQ(Db.threadRoutineProfiles().size(), 2u);
  auto Merged = Db.mergedByRoutine();
  ASSERT_EQ(Merged.size(), 1u);
  EXPECT_EQ(Merged.at(F).activations(), 2u);
  EXPECT_EQ(Merged.at(F).distinctTrmsValues(), 2u); // sizes 1 and 2
}

// Pending activations at the end of the trace are unwound and recorded.
TEST(TrmsSemantics, UnterminatedActivationsAreRecorded) {
  TraceBuilder Trace;
  Trace.start(1).call(1, F).read(1, X).call(1, G).read(1, 700);
  ProfileDatabase Db = runTrms(Trace);
  EXPECT_EQ(Db.totalActivations(), 2u);
  EXPECT_EQ(findActivation(Db, F)->Trms, 2u);
}

// The standalone rms profiler computes exactly the rms the trms
// profiler reports in its combined pass.
TEST(TrmsSemantics, MatchesStandaloneRmsProfiler) {
  TraceBuilder Trace;
  Trace.start(1).start(2).call(1, F).read(1, X).write(2, X);
  Trace.call(1, G).read(1, X).read(1, 800).ret(1, G);
  Trace.read(1, 800).ret(1, F).end(1).end(2);

  ProfileDatabase TrmsDb = runTrms(Trace);
  RmsProfilerOptions RmsOpts;
  ProfileDatabase RmsDb = profileTrace<RmsProfiler>(Trace.events(), RmsOpts);
  ASSERT_EQ(TrmsDb.log().size(), RmsDb.log().size());
  for (size_t I = 0; I != TrmsDb.log().size(); ++I) {
    EXPECT_EQ(TrmsDb.log()[I].Rms, RmsDb.log()[I].Rms) << "activation " << I;
    EXPECT_EQ(TrmsDb.log()[I].Rtn, RmsDb.log()[I].Rtn);
  }
}

//===----------------------------------------------------------------------===//
// Renumbering (Figure 13)
//===----------------------------------------------------------------------===//

// A trace long enough to force many renumberings at a tiny counter
// limit must produce byte-identical activation records.
TEST(TrmsRenumbering, PreservesResultsUnderTinyCounter) {
  TraceBuilder Trace;
  Trace.start(1).start(2).start(3);
  Trace.call(1, F).call(2, G).call(3, H);
  for (unsigned Round = 0; Round != 120; ++Round) {
    ThreadId Writer = 1 + Round % 3;
    ThreadId Reader = 1 + (Round + 1) % 3;
    Addr A = 900 + Round % 7;
    Trace.write(Writer, A);
    Trace.read(Reader, A);
    if (Round % 11 == 3)
      Trace.kernelWrite(Reader, A);
    if (Round % 5 == 0) {
      Trace.call(Reader, Consumer).read(Reader, A).ret(Reader, Consumer);
    }
  }
  Trace.ret(1, F).ret(2, G).ret(3, H).end(1).end(2).end(3);

  TrmsProfilerOptions Big;
  Big.KeepActivationLog = true;
  TrmsProfilerOptions Tiny = Big;
  Tiny.CounterLimit = 64;

  TrmsProfiler BigProf(Big), TinyProf(Tiny);
  walkTrace(Trace.events(), BigProf);
  walkTrace(Trace.events(), TinyProf);

  EXPECT_EQ(BigProf.renumberings(), 0u);
  EXPECT_GE(TinyProf.renumberings(), 2u);
  ASSERT_EQ(BigProf.database().log().size(),
            TinyProf.database().log().size());
  for (size_t I = 0; I != BigProf.database().log().size(); ++I)
    EXPECT_EQ(BigProf.database().log()[I], TinyProf.database().log()[I])
        << "activation " << I;
}

// Batched delivery (the live VM's path: pending buffer, adjacent-access
// merging, basic-block folding) must produce a ProfileDatabase
// bit-identical to walking the uncompacted records, one per event —
// including when a tiny counter limit forces renumberings mid-batch. The trace interleaves three
// threads with runs of adjacent single-cell accesses (so compaction
// actually merges), basic-block costs, kernel writes, and nested calls.
TEST(TrmsBatching, BatchedDeliveryMatchesPerEvent) {
  TraceBuilder Trace;
  Trace.start(1).start(2).start(3);
  Trace.call(1, F).call(2, G).call(3, H);
  for (unsigned Round = 0; Round != 200; ++Round) {
    ThreadId Writer = 1 + Round % 3;
    ThreadId Reader = 1 + (Round + 1) % 3;
    Addr Base = 1000 + (Round % 5) * 64;
    for (Addr A = Base; A != Base + 8; ++A)
      Trace.write(Writer, A);
    Trace.bb(Writer).bb(Writer);
    for (Addr A = Base; A != Base + 8; ++A)
      Trace.read(Reader, A);
    Trace.bb(Reader);
    if (Round % 7 == 2)
      Trace.kernelWrite(Reader, Base, 4);
    if (Round % 2 == 1)
      Trace.call(Reader, Consumer)
          .read(Reader, Base)
          .bb(Reader)
          .ret(Reader, Consumer);
  }
  Trace.ret(1, F).ret(2, G).ret(3, H).end(1).end(2).end(3);

  TrmsProfilerOptions Opts;
  Opts.KeepActivationLog = true;
  Opts.CounterLimit = 48;

  TrmsProfiler PerEvent(Opts), Batched(Opts);
  walkTrace(Trace.events(), PerEvent);
  EventDispatcher Dispatcher;
  Dispatcher.addTool(&Batched);
  Dispatcher.start(nullptr);
  for (const EventRecord &E : Trace.events())
    Dispatcher.enqueue(E);
  Dispatcher.finish();
  EXPECT_GT(Dispatcher.accessMerges(), 0u);
  EXPECT_GT(Dispatcher.bbFolds(), 0u);
  EXPECT_GE(Batched.renumberings(), 2u);

  ASSERT_EQ(PerEvent.database().log().size(),
            Batched.database().log().size());
  for (size_t I = 0; I != PerEvent.database().log().size(); ++I)
    EXPECT_EQ(PerEvent.database().log()[I], Batched.database().log()[I])
        << "activation " << I;
  EXPECT_EQ(PerEvent.database().totalActivations(),
            Batched.database().totalActivations());
}

// After a renumbering, the counter restarts just above the pending
// activations' renumbered stamps.
TEST(TrmsRenumbering, CounterRestartsLow) {
  TraceBuilder Trace;
  Trace.start(1).call(1, F);
  for (unsigned I = 0; I != 300; ++I)
    Trace.call(1, G).ret(1, G);
  TrmsProfilerOptions Opts;
  Opts.CounterLimit = 128;
  TrmsProfiler Prof(Opts);
  walkTrace(Trace.events(), Prof);
  EXPECT_GT(Prof.renumberings(), 0u);
  EXPECT_LT(Prof.counterValue(), 128u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Resource management
//===----------------------------------------------------------------------===//

namespace {

// A dead thread's shadow is released; the footprint reported afterwards
// is the high-water mark, not the residual state.
TEST(TrmsResources, ThreadShadowsReleasedAtThreadEnd) {
  TrmsProfiler Prof;
  TraceBuilder Warmup;
  Warmup.start(1).call(1, F);
  for (Addr A = 0; A != 2000; ++A)
    Warmup.read(1, 5000 + A);
  Warmup.ret(1, F).end(1);
  walkTrace(Warmup.events(), Prof);
  uint64_t Peak = Prof.memoryFootprintBytes();
  EXPECT_GT(Peak, 2000u);

  // Replay many more short-lived threads touching the same range into
  // the same profiler: with per-thread shadows released at thread end,
  // the peak should stay roughly flat rather than scale with the total
  // number of threads ever created.
  TrmsProfiler Many;
  TraceBuilder Trace;
  for (ThreadId Tid = 1; Tid <= 64; ++Tid) {
    Trace.start(Tid).call(Tid, F);
    for (Addr A = 0; A != 2000; ++A)
      Trace.read(Tid, 5000 + A);
    Trace.ret(Tid, F).end(Tid);
  }
  walkTrace(Trace.events(), Many);
  EXPECT_LT(Many.memoryFootprintBytes(), 8 * Peak)
      << "footprint scales with dead threads: shadows not released";
}

} // namespace

//===----------------------------------------------------------------------===//
// Figure 13's three renumbering cases, pinned explicitly
//===----------------------------------------------------------------------===//

namespace {

// Build a state where, at renumbering time, location X sits in each of
// the three order relations w.r.t. its last write, then check the
// post-renumbering reads classify exactly as before. The counter limit
// is placed so the renumbering fires between the setup and the probes.
TEST(TrmsRenumbering, ThreeWayCaseClassification) {
  constexpr Addr OwnWritten = 700;   // case 1: ts == wts (own write)
  constexpr Addr ForeignNew = 701;   // case 2: ts < wts (foreign write after)
  constexpr Addr Consumed = 702;     // case 3: ts > wts (read after write)

  TraceBuilder Trace;
  Trace.start(1).start(2).call(1, F).call(2, G);
  // Case 1 setup: thread 1 writes OwnWritten (its ts == wts).
  Trace.write(1, OwnWritten);
  // Case 3 setup: thread 2 writes Consumed, thread 1 reads it (consumed).
  Trace.write(2, Consumed);
  Trace.read(1, Consumed);
  // Case 2 setup: thread 1 reads ForeignNew, then thread 2 writes it.
  Trace.read(1, ForeignNew);
  Trace.write(2, ForeignNew);

  // Pad with calls until the counter limit forces a renumbering.
  for (int I = 0; I != 40; ++I)
    Trace.call(1, H).ret(1, H);

  // Probes: enter a fresh activation and re-read all three locations.
  Trace.call(1, Consumer);
  Trace.read(1, OwnWritten);  // own value: first access for Consumer,
                              // NOT induced
  Trace.read(1, ForeignNew);  // foreign value arrived: induced
  Trace.read(1, Consumed);    // already consumed: first access only
  Trace.ret(1, Consumer);
  Trace.ret(1, F).end(1).ret(2, G).end(2);

  TrmsProfilerOptions Tiny;
  Tiny.KeepActivationLog = true;
  Tiny.CounterLimit = 48; // fires inside the padding loop
  TrmsProfiler Prof(Tiny);
  walkTrace(Trace.events(), Prof);
  ASSERT_GT(Prof.renumberings(), 0u);

  TrmsProfilerOptions Big;
  Big.KeepActivationLog = true;
  TrmsProfiler Reference(Big);
  walkTrace(Trace.events(), Reference);
  ASSERT_EQ(Reference.renumberings(), 0u);

  // Identical classification with and without the renumbering.
  ASSERT_EQ(Prof.database().log().size(),
            Reference.database().log().size());
  for (size_t I = 0; I != Prof.database().log().size(); ++I)
    EXPECT_EQ(Prof.database().log()[I], Reference.database().log()[I]);

  // And the expected absolute values: Consumer read 3 fresh cells, one
  // of them induced by the other thread.
  const ActivationRecord *Probe =
      findActivation(Prof.database(), Consumer);
  ASSERT_NE(Probe, nullptr);
  EXPECT_EQ(Probe->Trms, 3u);
  EXPECT_EQ(Probe->InducedThread, 1u);
}

} // namespace
