//===- tests/CollectTest.cpp - Fleet collector tests ---------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Covers the fleet store's mergeable cost distributions, the rollup
// identity (concurrent multi-stream ingestion equals merging per-stream
// results serially, property-tested over synthetic traces), differential
// views (diff of a store against itself is empty; genuine growth changes
// are flagged), corrupt-stream isolation (including a Return that breaks
// call nesting), routine-filtered chunk skipping on the activity masks,
// filtered ingest that skips nothing agreeing with unfiltered ingest,
// and the equality of pipelined and serial ingest.
//
//===----------------------------------------------------------------------===//

#include "PinnedThreads.h"

#include "collect/Collector.h"
#include "collect/FleetStore.h"

#include "instr/SymbolTable.h"
#include "trace/Synthetic.h"
#include "trace/TraceStream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>

#include <unistd.h>

using namespace isp;
using namespace isp::collect;

namespace {

//===----------------------------------------------------------------------===//
// CostQuantiles
//===----------------------------------------------------------------------===//

TEST(CostQuantiles, SingleValueIsExactAtEveryQuantile) {
  CostQuantiles Q;
  for (int I = 0; I != 10; ++I)
    Q.record(144);
  EXPECT_EQ(Q.count(), 10u);
  EXPECT_EQ(Q.sum(), 1440u);
  EXPECT_EQ(Q.min(), 144u);
  EXPECT_EQ(Q.max(), 144u);
  for (double P : {0.0, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(Q.percentile(P), 144u) << P;
}

TEST(CostQuantiles, PercentilesAreMonotoneAndBounded) {
  CostQuantiles Q;
  std::mt19937_64 Rng(99);
  uint64_t Lo = UINT64_MAX, Hi = 0;
  for (int I = 0; I != 5000; ++I) {
    uint64_t V = Rng() % 100000;
    Lo = std::min(Lo, V);
    Hi = std::max(Hi, V);
    Q.record(V);
  }
  uint64_t Prev = 0;
  for (double P : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    uint64_t V = Q.percentile(P);
    EXPECT_GE(V, Prev) << P;
    EXPECT_GE(V, Lo) << P;
    EXPECT_LE(V, Hi) << P;
    Prev = V;
  }
  EXPECT_EQ(CostQuantiles().percentile(0.5), 0u);
}

TEST(CostQuantiles, MergeEqualsInterleavedRecording) {
  CostQuantiles A, B, Both;
  std::mt19937_64 Rng(7);
  for (int I = 0; I != 2000; ++I) {
    uint64_t V = Rng() % 4096;
    (I % 2 ? A : B).record(V);
    Both.record(V);
  }
  CostQuantiles Merged = A;
  Merged.merge(B);
  EXPECT_EQ(Merged, Both);
  // Commutative: B.merge(A) gives the same distribution.
  CostQuantiles Reversed = B;
  Reversed.merge(A);
  EXPECT_EQ(Reversed, Both);
}

//===----------------------------------------------------------------------===//
// Stream fixtures
//===----------------------------------------------------------------------===//

std::string tempStream(const std::string &Name) {
  return ::testing::TempDir() + "isprof_collect_" + Name + ".strm";
}

/// Names for the synthetic generator's routine ids: "r0", "r1", ...
std::vector<std::pair<RoutineId, std::string>> syntheticRoutines() {
  std::vector<std::pair<RoutineId, std::string>> Routines;
  for (RoutineId Id = 0; Id != SyntheticTraceOptions().NumRoutines; ++Id)
    Routines.emplace_back(Id, "r" + std::to_string(Id));
  return Routines;
}

/// Writes one synthetic trace as a chunked stream; returns its path.
std::string writeSyntheticStream(const std::string &Name, uint64_t Seed,
                                 uint64_t Operations = 3000,
                                 size_t ChunkBytes = 4096) {
  SyntheticTraceOptions Gen;
  Gen.NumOperations = Operations;
  Gen.Seed = Seed;
  std::string Path = tempStream(Name);
  TraceStreamWriter Writer;
  TraceStreamOptions Opts;
  Opts.ChunkBytes = ChunkBytes;
  EXPECT_TRUE(Writer.open(Path, syntheticRoutines(), Opts)) << Writer.error();
  for (const EventRecord &E : generateSyntheticTrace(Gen))
    Writer.append(E);
  EXPECT_TRUE(Writer.close()) << Writer.error();
  return Path;
}

//===----------------------------------------------------------------------===//
// Rollup identity (the collector's core correctness property)
//===----------------------------------------------------------------------===//

TEST(FleetStore, ConcurrentIngestEqualsSerialPerStreamMerge) {
  std::vector<std::string> Paths;
  for (uint64_t Seed : {11u, 22u, 33u, 44u, 55u})
    Paths.push_back(
        writeSyntheticStream("identity_" + std::to_string(Seed), Seed));

  // Concurrent: one store, many worker threads.
  FleetStore Concurrent;
  CollectorOptions Opts;
  Opts.Workers = 4;
  Collector C(Opts, Concurrent);
  EXPECT_EQ(C.ingestFiles(Paths), Paths.size());
  EXPECT_TRUE(C.errors().empty());

  // Serial: one store per stream, folded together afterwards — and in
  // reversed order, so the identity also covers commutativity.
  FleetStore Serial;
  for (auto It = Paths.rbegin(); It != Paths.rend(); ++It) {
    FleetStore One;
    CollectorOptions SerialOpts;
    SerialOpts.Workers = 1;
    Collector SC(SerialOpts, One);
    EXPECT_EQ(SC.ingestFiles({*It}), 1u);
    Serial.merge(One);
  }

  EXPECT_EQ(Concurrent, Serial);
  EXPECT_GT(Concurrent.routineCount(), 0u);
  EXPECT_EQ(Concurrent.totalActivations(), Serial.totalActivations());

  for (const std::string &P : Paths)
    std::remove(P.c_str());
}

//===----------------------------------------------------------------------===//
// Differential views
//===----------------------------------------------------------------------===//

TEST(FleetDiff, SelfDiffIsEmpty) {
  std::string Path = writeSyntheticStream("selfdiff", 5);
  FleetStore A, B;
  CollectorOptions Opts;
  Collector CA(Opts, A), CB(Opts, B);
  EXPECT_EQ(CA.ingestFiles({Path}), 1u);
  EXPECT_EQ(CB.ingestFiles({Path}), 1u);
  std::remove(Path.c_str());

  EXPECT_EQ(A, B);
  std::vector<FleetRoutineDelta> Deltas = diffFleetStores(A, B);
  EXPECT_TRUE(Deltas.empty());
  EXPECT_FALSE(hasFleetRegressions(Deltas));
  EXPECT_NE(renderFleetDiff(Deltas).find("0 routine(s) differ"),
            std::string::npos);
}

TEST(FleetDiff, FlagsCostGrowthAndMissingRoutines) {
  // Hand-built stores: routine "hot" triples its mean cost at every
  // shared rms value; "gone" exists only in the baseline.
  SymbolTable Syms;
  uint64_t Hot = Syms.intern("hot");
  uint64_t Gone = Syms.intern("gone");

  auto makeDb = [&](uint64_t CostScale, bool WithGone) {
    ProfileDatabase Db;
    Db.setKeepLog(true);
    for (uint64_t Rms : {4u, 8u, 16u}) {
      ActivationRecord R;
      R.Tid = 0;
      R.Rtn = Hot;
      R.Rms = Rms;
      R.Trms = Rms;
      R.Cost = Rms * CostScale;
      Db.recordActivation(R);
    }
    if (WithGone) {
      ActivationRecord R;
      R.Tid = 0;
      R.Rtn = Gone;
      R.Rms = 2;
      R.Trms = 2;
      R.Cost = 10;
      Db.recordActivation(R);
    }
    return Db;
  };

  FleetStore Base, Cand;
  ProfileDatabase BaseDb = makeDb(10, /*WithGone=*/true);
  ProfileDatabase CandDb = makeDb(30, /*WithGone=*/false);
  Base.mergeDatabase("prog", BaseDb, Syms);
  Cand.mergeDatabase("prog", CandDb, Syms);

  std::vector<FleetRoutineDelta> Deltas = diffFleetStores(Base, Cand);
  ASSERT_EQ(Deltas.size(), 2u);

  bool SawHot = false, SawGone = false;
  for (const FleetRoutineDelta &D : Deltas) {
    if (D.Routine == "hot") {
      SawHot = true;
      EXPECT_FALSE(D.OnlyInBase);
      EXPECT_NEAR(D.CostRatio, 3.0, 1e-6);
      EXPECT_EQ(D.SharedRmsValues, 3u);
    }
    if (D.Routine == "gone") {
      SawGone = true;
      EXPECT_TRUE(D.OnlyInBase);
    }
  }
  EXPECT_TRUE(SawHot);
  EXPECT_TRUE(SawGone);
  EXPECT_TRUE(hasFleetRegressions(Deltas));
}

//===----------------------------------------------------------------------===//
// Corrupt-stream isolation
//===----------------------------------------------------------------------===//

TEST(Collector, CorruptStreamIsReportedAndDoesNotPoisonTheRollup) {
  std::vector<std::string> Good;
  for (uint64_t Seed : {3u, 6u})
    Good.push_back(
        writeSyntheticStream("corrupt_good_" + std::to_string(Seed), Seed));

  // Truncate a copy of a valid stream mid-chunk: the reader reports the
  // failing chunk, the collector names the file, and the rollup equals
  // ingesting only the good streams.
  std::string Bad = writeSyntheticStream("corrupt_bad", 9);
  {
    FILE *F = std::fopen(Bad.c_str(), "r+");
    ASSERT_NE(F, nullptr);
    std::fseek(F, 0, SEEK_END);
    long Size = std::ftell(F);
    ASSERT_GT(Size, 512);
    ASSERT_EQ(::truncate(Bad.c_str(), Size / 2), 0);
    std::fclose(F);
  }

  std::vector<std::string> All = Good;
  All.insert(All.begin() + 1, Bad); // corrupt one among N

  FleetStore WithBad;
  CollectorOptions Opts;
  Opts.Workers = 3;
  Collector C(Opts, WithBad);
  EXPECT_EQ(C.ingestFiles(All), Good.size());
  EXPECT_EQ(C.totals().StreamsFailed, 1u);
  ASSERT_EQ(C.errors().size(), 1u);
  EXPECT_EQ(C.errors()[0].File, Bad);
  EXPECT_FALSE(C.errors()[0].Message.empty());

  FleetStore GoodOnly;
  Collector CG(Opts, GoodOnly);
  EXPECT_EQ(CG.ingestFiles(Good), Good.size());
  EXPECT_EQ(WithBad, GoodOnly);

  for (const std::string &P : All)
    std::remove(P.c_str());
}

TEST(Collector, OutOfRangeAddressIsReportedAndLeavesTheRollupUntouched) {
  // A mid-stream chunk with a read past the guest address space: the
  // collector names the file, the chunk and the reason — for unfiltered
  // and filtered ingest, pipelined or not — and the store keeps exactly
  // what it held before.
  std::string Good = writeSyntheticStream("range_good", 4);
  std::string Bad = tempStream("range_bad");
  size_t BadChunk = 0;
  {
    SyntheticTraceOptions Gen;
    Gen.NumOperations = 3000;
    Gen.Seed = 8;
    std::vector<EventRecord> Events = generateSyntheticTrace(Gen);
    TraceStreamWriter Writer;
    TraceStreamOptions Opts;
    Opts.ChunkBytes = 4096;
    ASSERT_TRUE(Writer.open(Bad, syntheticRoutines(), Opts))
        << Writer.error();
    for (size_t I = 0; I != Events.size(); ++I) {
      Writer.append(Events[I]);
      if (I == Events.size() / 2) {
        BadChunk = Writer.chunksWritten();
        Writer.append(EventRecord::read(Events[I].Tid, uint64_t(1) << 40));
      }
    }
    ASSERT_TRUE(Writer.close()) << Writer.error();
    ASSERT_GT(BadChunk, 0u);
    ASSERT_LT(BadChunk + 1, Writer.chunksWritten());
  }

  for (unsigned Hw : {1u, 4u})
    for (bool Filtered : {false, true}) {
      PinnedThreads Pin(Hw);
      CollectorOptions Opts;
      Opts.Workers = 1;
      if (Filtered)
        Opts.RoutineFilter = {"r0", "r1"};
      FleetStore Store;
      Collector C(Opts, Store);
      ASSERT_EQ(C.ingestFiles({Good}), 1u);
      FleetStore Before = Store;
      EXPECT_EQ(C.ingestFiles({Bad}), 0u);
      ASSERT_EQ(C.errors().size(), 1u);
      EXPECT_EQ(C.errors()[0].File, Bad);
      EXPECT_EQ(C.errors()[0].Chunk, BadChunk);
      EXPECT_EQ(C.errors()[0].Message, "corrupt chunk: address out of range");
      EXPECT_EQ(Store, Before) << (Filtered ? "filtered" : "unfiltered")
                               << ", " << Hw << " threads";
    }
  std::remove(Good.c_str());
  std::remove(Bad.c_str());
}

TEST(Collector, MismatchedReturnIsReportedAndLeavesTheRollupUntouched) {
  // A Return in a mid-stream chunk that closes another routine than its
  // thread's innermost open Call: the profilers assert on it, so the
  // reader's nesting check must stop the ingest first — unfiltered, and
  // filtered by every routine (no chunk can be skipped, so the chunks
  // are read in order and the check stays on) — naming the file and the
  // chunk, with the store exactly as it was.
  std::string Good = writeSyntheticStream("nesting_good", 4);
  std::string Bad = tempStream("nesting_bad");
  size_t BadChunk = 0;
  {
    SyntheticTraceOptions Gen;
    Gen.NumOperations = 3000;
    Gen.Seed = 8;
    std::vector<EventRecord> Events = generateSyntheticTrace(Gen);
    TraceStreamWriter Writer;
    TraceStreamOptions Opts;
    Opts.ChunkBytes = 4096;
    ASSERT_TRUE(Writer.open(Bad, syntheticRoutines(), Opts))
        << Writer.error();
    for (size_t I = 0; I != Events.size(); ++I) {
      Writer.append(Events[I]);
      if (I == Events.size() / 2) {
        const EventRecord &E = Events[I];
        Writer.append(EventRecord::call(E.Tid, 0));
        BadChunk = Writer.chunksWritten();
        Writer.append(EventRecord::ret(E.Tid, 1, 0));
      }
    }
    ASSERT_TRUE(Writer.close()) << Writer.error();
    ASSERT_GT(BadChunk, 0u);
    ASSERT_LT(BadChunk + 1, Writer.chunksWritten());
  }
  std::vector<std::string> EveryRoutine;
  for (const auto &[Id, Name] : syntheticRoutines())
    EveryRoutine.push_back(Name);

  for (unsigned Hw : {1u, 4u})
    for (bool Filtered : {false, true}) {
      PinnedThreads Pin(Hw);
      CollectorOptions Opts;
      Opts.Workers = 1;
      if (Filtered)
        Opts.RoutineFilter = EveryRoutine;
      FleetStore Store;
      Collector C(Opts, Store);
      ASSERT_EQ(C.ingestFiles({Good}), 1u);
      FleetStore Before = Store;
      EXPECT_EQ(C.ingestFiles({Bad}), 0u);
      ASSERT_EQ(C.errors().size(), 1u);
      EXPECT_EQ(C.errors()[0].File, Bad);
      EXPECT_EQ(C.errors()[0].Chunk, BadChunk);
      EXPECT_EQ(C.errors()[0].Message, "corrupt chunk: mismatched return");
      EXPECT_EQ(C.totals().ChunksSkipped, 0u);
      EXPECT_EQ(Store, Before) << (Filtered ? "filtered" : "unfiltered")
                               << ", " << Hw << " threads";
    }
  std::remove(Good.c_str());
  std::remove(Bad.c_str());
}

//===----------------------------------------------------------------------===//
// Routine-filtered chunk skipping
//===----------------------------------------------------------------------===//

/// A phase-structured stream: routine 1 ("setup") runs once inside the
/// root frame, then routine 2 ("work") dominates many chunks. With a
/// filter on "setup", every post-setup chunk's activity bitmap proves it
/// skippable.
std::string writePhasedStream(const std::string &Name, unsigned WorkCalls,
                              uint64_t *SetupRms, uint64_t *SetupCost) {
  std::vector<std::pair<RoutineId, std::string>> Routines = {
      {0, "root"}, {1, "setup"}, {2, "work"}};
  std::string Path = tempStream(Name);
  TraceStreamWriter Writer;
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 1024;
  EXPECT_TRUE(Writer.open(Path, Routines, Opts)) << Writer.error();

  auto emit = [&](EventKind K, uint64_t Arg0, uint64_t Arg1 = 0) {
    Writer.append({K, 0, Arg0, Arg1});
  };

  emit(EventKind::ThreadStart, 0);
  emit(EventKind::Call, 0); // root
  emit(EventKind::Call, 1); // setup: 3 distinct reads, 2 basic blocks
  emit(EventKind::Read, 100, 1);
  emit(EventKind::Read, 101, 1);
  emit(EventKind::Read, 102, 1);
  emit(EventKind::Return, 1, /*Blocks=*/2);
  *SetupRms = 3;
  *SetupCost = 2;
  for (unsigned I = 0; I != WorkCalls; ++I) {
    emit(EventKind::Call, 2);
    for (int A = 0; A != 40; ++A) {
      emit(EventKind::Read, 200 + (A % 16), 1);
      emit(EventKind::Write, 300 + (A % 8), 1);
    }
    emit(EventKind::Return, 2, /*Blocks=*/40);
  }
  emit(EventKind::Return, 0);
  emit(EventKind::ThreadEnd, 0);
  EXPECT_TRUE(Writer.close()) << Writer.error();
  return Path;
}

TEST(Collector, RoutineFilterSkipsProvablyExcludedChunks) {
  uint64_t SetupRms = 0, SetupCost = 0;
  std::string Path =
      writePhasedStream("skip", /*WorkCalls=*/200, &SetupRms, &SetupCost);

  FleetStore Filtered;
  CollectorOptions Opts;
  Opts.RoutineFilter = {"setup"};
  Collector C(Opts, Filtered);
  ASSERT_EQ(C.ingestFiles({Path}), 1u);
  EXPECT_GT(C.totals().ChunksSkipped, 0u);
  EXPECT_GT(C.totals().ChunksRead, 0u);

  // The filtered rollup holds exactly the setup activation, and its
  // record is exact: skipping never drops anything between a filtered
  // Call and its Return.
  ASSERT_EQ(Filtered.routineCount(), 1u);
  const auto &[Key, Rollup] = *Filtered.rollups().begin();
  EXPECT_EQ(Key.Routine, "setup");
  EXPECT_EQ(Rollup.Activations, 1u);
  EXPECT_EQ(Rollup.SumRms, SetupRms);
  EXPECT_EQ(Rollup.SumCost, SetupCost);

  // An unfiltered ingest decodes everything and agrees on setup.
  FleetStore Full;
  CollectorOptions NoFilter;
  Collector CF(NoFilter, Full);
  ASSERT_EQ(CF.ingestFiles({Path}), 1u);
  EXPECT_EQ(CF.totals().ChunksSkipped, 0u);
  FleetStore::Key SetupKey{Key.Program, "setup"};
  ASSERT_TRUE(Full.rollups().count(SetupKey));
  EXPECT_EQ(Full.rollups().at(SetupKey), Rollup);

  std::remove(Path.c_str());
}

/// A stream whose inducing write sits in a chunk with no filtered Call:
/// routine 1 ("probe", the filter target) reads cell X in two
/// well-separated activations; between them a KernelWrite to X lands in
/// a chunk full of unrelated "noise" activity (no probe call, no probe
/// activation in flight). Dropping that chunk would lose the kernel
/// write timestamp, so probe's second read of X would degrade from an
/// induced external first-access to a plain one — the trms undercount
/// the written-shard masks exist to close.
std::string writeInducedWriteStream(const std::string &Name) {
  constexpr uint64_t X = 5000; // shard key 9 — disjoint from noise below
  std::vector<std::pair<RoutineId, std::string>> Routines = {
      {0, "root"}, {1, "probe"}, {2, "noise"}};
  std::string Path = tempStream(Name);
  TraceStreamWriter Writer;
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 1024;
  EXPECT_TRUE(Writer.open(Path, Routines, Opts)) << Writer.error();

  auto emit = [&](EventKind K, uint64_t Arg0, uint64_t Arg1 = 0) {
    Writer.append({K, 0, Arg0, Arg1});
  };
  auto noiseBurst = [&](unsigned Calls) {
    for (unsigned I = 0; I != Calls; ++I) {
      emit(EventKind::Call, 2);
      for (int A = 0; A != 40; ++A) {
        emit(EventKind::Read, 150000 + (A % 16), 1);  // shard key 37
        emit(EventKind::Write, 160000 + (A % 8), 1);  // shard key 56
      }
      emit(EventKind::Return, 2, /*Blocks=*/40);
    }
  };
  auto probeActivation = [&] {
    emit(EventKind::Call, 1);
    emit(EventKind::Read, X, 1);
    emit(EventKind::Return, 1, /*Blocks=*/1);
  };

  emit(EventKind::ThreadStart, 0);
  emit(EventKind::Call, 0);
  probeActivation();
  noiseBurst(10); // several full chunks with no probe call
  emit(EventKind::KernelWrite, X, 1); // the inducing write
  noiseBurst(10);
  probeActivation();
  noiseBurst(10); // tail chunks: provably irrelevant even with masks
  emit(EventKind::Return, 0);
  emit(EventKind::ThreadEnd, 0);
  EXPECT_TRUE(Writer.close()) << Writer.error();
  return Path;
}

TEST(Collector, WrittenMasksKeepInducedInputExactUnderFiltering) {
  std::string Path = writeInducedWriteStream("induced");

  // Ground truth: decode everything.
  FleetStore Full;
  Collector CF(CollectorOptions{}, Full);
  ASSERT_EQ(CF.ingestFiles({Path}), 1u);
  FleetStore::Key ProbeKey{Full.rollups().begin()->first.Program, "probe"};
  ASSERT_TRUE(Full.rollups().count(ProbeKey));
  const RoutineRollup &Truth = Full.rollups().at(ProbeKey);
  ASSERT_EQ(Truth.Activations, 2u);
  ASSERT_EQ(Truth.InducedExternal, 1u)
      << "the kernel write makes probe's second read an induced access";

  // Filtered ingest: the inducing chunk's written mask intersects the
  // later probe chunk's shard activity, so it is decoded; the
  // post-probe tail still skips. The probe rollup must be
  // exact — including the induced classification.
  FleetStore Filtered;
  CollectorOptions FilterOpts;
  FilterOpts.RoutineFilter = {"probe"};
  Collector C(FilterOpts, Filtered);
  ASSERT_EQ(C.ingestFiles({Path}), 1u);
  EXPECT_GT(C.totals().ChunksSkipped, 0u)
      << "masks must not degrade to decoding everything";
  ASSERT_EQ(Filtered.routineCount(), 1u);
  EXPECT_EQ(Filtered.rollups().at(ProbeKey), Truth);

  std::remove(Path.c_str());
}

TEST(Collector, DroppedReturnTakesItsBlocksAndKeepsRowsExact) {
  // Routine 2 ("outer") opens in a chunk that filtered ingest skips, and
  // its Return, carrying blocks, sits between two "probe" activations,
  // so the chunk that holds it is decoded and the collector drops the
  // Return with its count. The probe rows must equal the unfiltered
  // ingest's.
  std::vector<std::pair<RoutineId, std::string>> Routines = {
      {0, "root"}, {1, "probe"}, {2, "outer"}, {3, "noise"}};
  std::string Path = tempStream("dropped_return");
  TraceStreamWriter Writer;
  TraceStreamOptions Opts;
  Opts.ChunkBytes = 1024;
  ASSERT_TRUE(Writer.open(Path, Routines, Opts)) << Writer.error();
  auto emit = [&](EventKind K, uint64_t Arg0, uint64_t Arg1 = 0) {
    Writer.append({K, 0, Arg0, Arg1});
  };
  auto probeActivation = [&](uint64_t BlocksBefore) {
    emit(EventKind::Call, 1, BlocksBefore);
    emit(EventKind::Read, 10, 1);
    emit(EventKind::Read, 11, 1);
    emit(EventKind::Return, 1, /*Blocks=*/6);
  };
  auto noise = [&] { // several chunks with no probe Call and no write
    for (unsigned I = 0; I != 200; ++I) {
      emit(EventKind::Call, 3, /*Blocks=*/1);
      emit(EventKind::Read, 150000 + I % 16, 1);
      emit(EventKind::Return, 3, /*Blocks=*/2);
    }
  };
  emit(EventKind::ThreadStart, 0);
  emit(EventKind::Call, 0);
  probeActivation(0);
  noise();
  emit(EventKind::Call, 2, /*Blocks=*/3);
  noise();
  probeActivation(5);
  emit(EventKind::Return, 2, /*Blocks=*/1000);
  probeActivation(7);
  emit(EventKind::Return, 0, /*Blocks=*/4);
  emit(EventKind::ThreadEnd, 0);
  ASSERT_TRUE(Writer.close()) << Writer.error();
  {
    // Only outer's Call sets routine bit 2; its chunk has no probe Call.
    TraceStreamReader Reader;
    ASSERT_TRUE(Reader.open(Path)) << Reader.error();
    unsigned OuterChunks = 0;
    for (size_t C = 0; C != Reader.chunkCount(); ++C)
      if ((Reader.chunkRoutineMask(C) >> 2) & 1) {
        EXPECT_EQ((Reader.chunkRoutineMask(C) >> 1) & 1, 0u);
        ++OuterChunks;
      }
    EXPECT_EQ(OuterChunks, 1u);
  }

  FleetStore Full;
  Collector CF(CollectorOptions{}, Full);
  ASSERT_EQ(CF.ingestFiles({Path}), 1u);
  FleetStore::Key ProbeKey{Full.rollups().begin()->first.Program, "probe"};
  ASSERT_TRUE(Full.rollups().count(ProbeKey));
  EXPECT_EQ(Full.rollups().at(ProbeKey).Activations, 3u);
  EXPECT_EQ(Full.rollups().at(ProbeKey).SumCost, 18u);

  FleetStore Filtered;
  CollectorOptions FilterOpts;
  FilterOpts.RoutineFilter = {"probe"};
  Collector C(FilterOpts, Filtered);
  ASSERT_EQ(C.ingestFiles({Path}), 1u);
  EXPECT_GT(C.totals().ChunksSkipped, 0u);
  ASSERT_EQ(Filtered.routineCount(), 1u);
  EXPECT_EQ(Filtered.rollups().at(ProbeKey), Full.rollups().at(ProbeKey));

  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Rendering and spool scanning
//===----------------------------------------------------------------------===//

TEST(Collector, FilterThatSkipsNothingEqualsUnfilteredIngest) {
  // When the filter skips no chunk, filtered ingest publishes exactly
  // the chunks unfiltered ingest publishes, so the filtered routines'
  // rollups must be equal, serial and pipelined.
  std::vector<std::string> Paths;
  for (uint64_t Seed : {71u, 72u})
    Paths.push_back(writeSyntheticStream("noskip_" + std::to_string(Seed),
                                         Seed, 6000));
  const std::vector<std::string> Filter = {"r1", "r3"};
  for (unsigned Hw : {1u, 4u}) {
    PinnedThreads Pin(Hw);
    FleetStore Full, Filtered;
    CollectorOptions FullOpts, FilterOpts;
    FullOpts.Workers = FilterOpts.Workers = 1;
    FilterOpts.RoutineFilter = Filter;
    Collector CF(FullOpts, Full), CS(FilterOpts, Filtered);
    ASSERT_EQ(CF.ingestFiles(Paths), Paths.size());
    ASSERT_EQ(CS.ingestFiles(Paths), Paths.size());
    ASSERT_EQ(CS.totals().ChunksSkipped, 0u);
    ASSERT_EQ(CS.totals().ChunksRead, CF.totals().ChunksRead);
    ASSERT_EQ(Filtered.routineCount(), Filter.size() * Paths.size());
    for (const auto &[Key, Rollup] : Filtered.rollups()) {
      ASSERT_TRUE(Full.rollups().count(Key)) << Key.Routine;
      EXPECT_EQ(Rollup, Full.rollups().at(Key))
          << Key.Program << "/" << Key.Routine << ", " << Hw << " threads";
    }
  }
  for (const std::string &P : Paths)
    std::remove(P.c_str());
}

TEST(Collector, PipelinedIngestEqualsSerial) {
  // One hardware thread ingests serially; four pipeline each stream
  // (decode here, profile on a worker), filtered or not. The stores
  // must be equal.
  std::vector<std::string> Paths;
  for (uint64_t Seed : {61u, 62u})
    Paths.push_back(writeSyntheticStream("pipelined_" + std::to_string(Seed),
                                         Seed, 6000));
  uint64_t SetupRms = 0, SetupCost = 0;
  Paths.push_back(
      writePhasedStream("pipelined_phased", 200, &SetupRms, &SetupCost));
  for (std::vector<std::string> Filter :
       {std::vector<std::string>{}, std::vector<std::string>{"setup", "r1"}}) {
    FleetStore Stores[2];
    for (unsigned Hw : {1u, 4u}) {
      PinnedThreads Pin(Hw);
      CollectorOptions Opts;
      Opts.Workers = 1;
      Opts.RoutineFilter = Filter;
      Collector C(Opts, Stores[Hw == 4]);
      EXPECT_EQ(C.ingestFiles(Paths), Paths.size());
      EXPECT_TRUE(C.errors().empty());
    }
    EXPECT_GT(Stores[0].routineCount(), 0u);
    EXPECT_EQ(Stores[1], Stores[0]) << Filter.size() << " filtered routines";
  }
  for (const std::string &P : Paths)
    std::remove(P.c_str());
}

TEST(FleetStore, RenderRollupAndCurveNameTheRoutines) {
  SymbolTable Syms;
  uint64_t F = Syms.intern("fib");
  ProfileDatabase Db;
  Db.setKeepLog(true);
  for (uint64_t Rms : {2u, 4u, 8u}) {
    ActivationRecord R;
    R.Tid = 0;
    R.Rtn = F;
    R.Rms = Rms;
    R.Trms = Rms;
    R.Cost = Rms * Rms;
    Db.recordActivation(R);
  }
  FleetStore Store;
  Store.mergeDatabase("demo", Db, Syms);

  std::string Rollup = Store.renderRollup(5);
  EXPECT_NE(Rollup.find("fleet rollup: 1 routine(s)"), std::string::npos);
  EXPECT_NE(Rollup.find("fib"), std::string::npos);

  std::string Curve = Store.renderCurve("fib");
  EXPECT_NE(Curve.find("curve for 'fib'"), std::string::npos);
  EXPECT_NE(Store.renderCurve("nope").find("no routine 'nope'"),
            std::string::npos);
}

TEST(Collector, SpoolScanFindsOnlyStreamFilesSorted) {
  std::string Dir = ::testing::TempDir() + "isprof_spool_scan";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  SyntheticTraceOptions Gen;
  Gen.NumOperations = 200;
  for (const char *Name : {"b.strm", "a.strm", "old.bin"}) {
    TraceStreamWriter Writer;
    ASSERT_TRUE(Writer.open(Dir + "/" + Name, {}, {}));
    for (const EventRecord &E : generateSyntheticTrace(Gen))
      Writer.append(E);
    ASSERT_TRUE(Writer.close());
  }
  // A non-stream file is ignored (magic check, not extension). A stream
  // of another version ("ISPSTM03", as an older writer wrote it) is
  // listed, so ingesting the spool names it as a failed stream instead
  // of leaving it out.
  {
    FILE *F = std::fopen((Dir + "/notes.strm").c_str(), "w");
    std::fputs("not a stream\n", F);
    std::fclose(F);
    F = std::fopen((Dir + "/old.bin").c_str(), "r+");
    std::fseek(F, 7, SEEK_SET);
    std::fputc('3', F);
    std::fclose(F);
  }

  std::string Error;
  std::vector<std::string> Found = scanSpoolDir(Dir, &Error);
  EXPECT_TRUE(Error.empty());
  ASSERT_EQ(Found.size(), 3u);
  EXPECT_EQ(Found[0], Dir + "/a.strm");
  EXPECT_EQ(Found[1], Dir + "/b.strm");
  EXPECT_EQ(Found[2], Dir + "/old.bin");

  FleetStore Store;
  Collector C(CollectorOptions{}, Store);
  EXPECT_EQ(C.ingestFiles(Found), 2u);
  ASSERT_EQ(C.errors().size(), 1u);
  EXPECT_EQ(C.errors()[0].File, Dir + "/old.bin");
  EXPECT_EQ(C.errors()[0].Message, "unsupported trace stream version 3");

  EXPECT_TRUE(scanSpoolDir(Dir + "/missing", &Error).empty());
  EXPECT_FALSE(Error.empty());

  std::filesystem::remove_all(Dir);
}

} // namespace
