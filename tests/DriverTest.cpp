//===- tests/DriverTest.cpp - isprof CLI integration tests ---------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of the isprof command-line driver: each test shells
// out to the real binary (path injected by CMake) against the shipped
// guest example programs and checks exit codes and output fragments.
//
//===----------------------------------------------------------------------===//

#include "tools/ToolRegistry.h"
#include "trace/TraceStream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

#ifndef ISPROF_BINARY
#error "ISPROF_BINARY must be defined by the build"
#endif
#ifndef ISPROF_GUEST_DIR
#error "ISPROF_GUEST_DIR must be defined by the build"
#endif

struct CommandResult {
  int ExitCode = -1;
  std::string Output;
};

/// Runs the driver with \p Args, capturing combined stdout+stderr.
CommandResult runDriver(const std::string &Args) {
  std::string OutPath =
      ::testing::TempDir() + "isprof_driver_test_output.txt";
  std::string Command = std::string(ISPROF_BINARY) + " " + Args + " > " +
                        OutPath + " 2>&1";
  int Status = std::system(Command.c_str());
  CommandResult Result;
  Result.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  std::ifstream Stream(OutPath);
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  Result.Output = Buffer.str();
  std::remove(OutPath.c_str());
  return Result;
}

std::string guest(const char *Name) {
  return std::string(ISPROF_GUEST_DIR) + "/" + Name;
}

TEST(Driver, ListShowsToolsAndWorkloads) {
  CommandResult R = runDriver("list");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("aprof-trms"), std::string::npos);
  EXPECT_NE(R.Output.find("dbserver"), std::string::npos);
  EXPECT_NE(R.Output.find("producer_consumer"), std::string::npos);
}

TEST(Driver, RunProfilesQuickstart) {
  CommandResult R = runDriver("run " + guest("quickstart.mini"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("--- aprof-trms ---"), std::string::npos);
  EXPECT_NE(R.Output.find("insertionSort"), std::string::npos);
  EXPECT_NE(R.Output.find("mergeSort"), std::string::npos);
}

TEST(Driver, RaceDetectorsDisagreeAsDesigned) {
  CommandResult R =
      runDriver("run " + guest("race.mini") + " --tools=helgrind,drd");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  // Both report the racy counter; address 16 is the first global.
  EXPECT_NE(R.Output.find("possible data race"), std::string::npos);
  EXPECT_NE(R.Output.find("empty candidate lockset"), std::string::npos);
}

TEST(Driver, MemcheckFindsPlantedErrors) {
  CommandResult R =
      runDriver("run " + guest("leak.mini") + " --tools=memcheck");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("uninitialized read"), std::string::npos);
  EXPECT_NE(R.Output.find("invalid read"), std::string::npos);
  EXPECT_NE(R.Output.find("leaked"), std::string::npos);
}

TEST(Driver, RecordReplayRoundTrip) {
  std::string TracePath = ::testing::TempDir() + "isprof_driver_trace.strm";
  CommandResult Record = runDriver("run " + guest("stream.mini") +
                                   " --record=" + TracePath);
  EXPECT_EQ(Record.ExitCode, 0) << Record.Output;
  CommandResult Replay =
      runDriver("replay " + TracePath + " --tools=aprof-rms,aprof-trms");
  EXPECT_EQ(Replay.ExitCode, 0) << Replay.Output;
  EXPECT_NE(Replay.Output.find("consumeStream"), std::string::npos);
  std::remove(TracePath.c_str());
}

TEST(Driver, HtmlReportIsWritten) {
  std::string HtmlPath = ::testing::TempDir() + "isprof_driver_report.html";
  CommandResult R = runDriver("run " + guest("quickstart.mini") +
                              " --html=" + HtmlPath);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::ifstream Html(HtmlPath);
  ASSERT_TRUE(Html.good());
  std::ostringstream Buffer;
  Buffer << Html.rdbuf();
  EXPECT_NE(Buffer.str().find("<svg"), std::string::npos);
  std::remove(HtmlPath.c_str());
}

TEST(Driver, CheckAndDisasm) {
  CommandResult Check = runDriver("check " + guest("stream.mini"));
  EXPECT_EQ(Check.ExitCode, 0);
  EXPECT_NE(Check.Output.find("ok ("), std::string::npos);

  CommandResult Disasm = runDriver("disasm " + guest("stream.mini"));
  EXPECT_EQ(Disasm.ExitCode, 0);
  EXPECT_NE(Disasm.Output.find("fn consumeStream"), std::string::npos);
  EXPECT_NE(Disasm.Output.find("call_builtin   sysread"),
            std::string::npos);
}

TEST(Driver, VerifyBytecodeAcceptsShippedExamples) {
  for (const char *Name : {"quickstart.mini", "race.mini", "locked.mini",
                           "leak.mini", "stream.mini"}) {
    CommandResult R =
        runDriver("check " + guest(Name) + " --verify-bytecode");
    EXPECT_EQ(R.ExitCode, 0) << Name << "\n" << R.Output;
    EXPECT_NE(R.Output.find("bytecode verified"), std::string::npos)
        << Name;
    // Optimized bytecode must verify too (quiet marks included).
    CommandResult Opt = runDriver("check " + guest(Name) +
                                  " --verify-bytecode --optimize");
    EXPECT_EQ(Opt.ExitCode, 0) << Name << "\n" << Opt.Output;
  }
}

TEST(Driver, LintFlagsRaceAndStaysSilentOnLockedExample) {
  // The static lint agrees with the dynamic drd tool on the shipped
  // pair: race.mini's unsynchronized counter (the first global, address
  // 16) is flagged; the lock-disciplined locked.mini is clean.
  CommandResult Racy = runDriver("check " + guest("race.mini") + " --lint");
  EXPECT_EQ(Racy.ExitCode, 0) << Racy.Output;
  EXPECT_NE(Racy.Output.find("lint: 1 location(s) with empty candidate "
                             "lockset"),
            std::string::npos)
      << Racy.Output;
  EXPECT_NE(Racy.Output.find("possible race at address 16"),
            std::string::npos);

  CommandResult Clean =
      runDriver("check " + guest("locked.mini") + " --lint");
  EXPECT_EQ(Clean.ExitCode, 0) << Clean.Output;
  EXPECT_NE(Clean.Output.find("lint: 0 location(s) with empty candidate "
                              "lockset"),
            std::string::npos)
      << Clean.Output;
  EXPECT_EQ(Clean.Output.find("possible race"), std::string::npos);
}

TEST(Driver, LintRunsUnderRunCommandToo) {
  CommandResult R = runDriver("run " + guest("race.mini") +
                              " --lint --tools=drd");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  // Static prediction and dynamic confirmation in one invocation.
  EXPECT_NE(R.Output.find("lint: 1 location(s)"), std::string::npos);
  EXPECT_NE(R.Output.find("drd: 1 location(s)"), std::string::npos);
}

TEST(Driver, BoundsLintFlagsSeededExampleAndStaysCleanElsewhere) {
  // The seeded example's store index is rand(4) + 6 on a 4-cell array:
  // definitely out of bounds, but only the value-range lint can say so
  // (the verifier needs a single foldable constant). Exit stays 0 —
  // the lint reports, `check` still succeeds.
  CommandResult Oob =
      runDriver("check " + guest("oob.mini") + " --lint-bounds");
  EXPECT_EQ(Oob.ExitCode, 0) << Oob.Output;
  EXPECT_NE(Oob.Output.find("bounds lint: 1 warning(s)"),
            std::string::npos)
      << Oob.Output;
  EXPECT_NE(Oob.Output.find(
                "store index [6,9] is out of bounds for array 'a'"),
            std::string::npos)
      << Oob.Output;

  for (const char *Name : {"locked.mini", "joined.mini"}) {
    CommandResult Clean =
        runDriver("check " + guest(Name) + " --lint-bounds");
    EXPECT_EQ(Clean.ExitCode, 0) << Name << Clean.Output;
    EXPECT_NE(Clean.Output.find("bounds lint: 0 warning(s)"),
              std::string::npos)
        << Name << Clean.Output;
  }
}

TEST(Driver, GrowthCheckAddsAgreementColumns) {
  // --growth-check cross-checks each routine's fitted alpha against the
  // static loop-nest degree: quicksort-shaped code agrees, and routines
  // without a valid fit show "-" rather than a spurious verdict.
  CommandResult R = runDriver("run " + guest("quickstart.mini") +
                              " --growth-check --tools=aprof-rms");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("static  agree"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("O(n^2)"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("yes"), std::string::npos) << R.Output;

  // The workload command grows the same columns.
  CommandResult W = runDriver(
      "workload producer_consumer --size=32 --growth-check");
  EXPECT_EQ(W.ExitCode, 0) << W.Output;
  EXPECT_NE(W.Output.find("static  agree"), std::string::npos) << W.Output;
}

TEST(Driver, AnnotateRangesDisassembly) {
  CommandResult Plain = runDriver("disasm " + guest("indexed.mini"));
  EXPECT_EQ(Plain.ExitCode, 0) << Plain.Output;
  EXPECT_EQ(Plain.Output.find("; range="), std::string::npos)
      << Plain.Output;

  CommandResult Notes =
      runDriver("disasm " + guest("indexed.mini") + " --annotate-ranges");
  EXPECT_EQ(Notes.ExitCode, 0) << Notes.Output;
  EXPECT_NE(Notes.Output.find("; range=[4,4] noescape cells=4"),
            std::string::npos)
      << Notes.Output;
  EXPECT_NE(Notes.Output.find("; range=[0,3]"), std::string::npos)
      << Notes.Output;
}

TEST(Driver, IndexedExampleRecoversRangeQuietMark) {
  // The shipped indexed.mini exists to prove the covered-read
  // certificate fires on real guest code: one variable-index join
  // re-read earns a static quiet mark.
  CommandResult R = runDriver("run " + guest("indexed.mini") +
                              " --optimize --stats=json");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"analysis.range_quiet_marked\": 1"),
            std::string::npos)
      << R.Output;
}

TEST(Driver, WorkloadCommand) {
  CommandResult R = runDriver("workload producer_consumer --size=32");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("consumer"), std::string::npos);

  // --record streams a workload's trace too.
  std::string Path = ::testing::TempDir() + "isprof_driver_workload.strm";
  CommandResult Record =
      runDriver("workload producer_consumer --size=32 --record=" + Path);
  EXPECT_EQ(Record.ExitCode, 0) << Record.Output;
  EXPECT_NE(Record.Output.find("[stream:"), std::string::npos)
      << Record.Output;
  CommandResult Replay = runDriver("replay " + Path);
  EXPECT_EQ(Replay.ExitCode, 0) << Replay.Output;
  EXPECT_NE(Replay.Output.find("consumer"), std::string::npos);
  std::remove(Path.c_str());
}

/// The optimizer.* counter lines of a --stats=json file.
std::vector<std::string> optimizerCounters(const std::string &StatsPath) {
  std::ifstream Stats(StatsPath);
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(Stats, Line);)
    if (Line.find("\"optimizer.") != std::string::npos)
      Lines.push_back(Line);
  return Lines;
}

TEST(Driver, WorkloadOptimizesOnce) {
  // Workloads always run optimized bytecode; --optimize must not run the
  // optimizer a second time (which doubled every optimizer counter).
  std::string Plain = ::testing::TempDir() + "isprof_opt_plain.json";
  std::string Flagged = ::testing::TempDir() + "isprof_opt_flagged.json";
  std::string Args = "workload kdtree --size=64 --stats=json --stats-out=";
  ASSERT_EQ(runDriver(Args + Plain).ExitCode, 0);
  ASSERT_EQ(runDriver(Args + Flagged + " --optimize").ExitCode, 0);
  std::vector<std::string> Once = optimizerCounters(Plain);
  EXPECT_GE(Once.size(), 5u);
  EXPECT_EQ(optimizerCounters(Flagged), Once);
  std::remove(Plain.c_str());
  std::remove(Flagged.c_str());
}

TEST(Driver, MultiToolReportsMatchSingleToolRuns) {
  // Pipelined delivery spreads the tools of one run over workers; each
  // tool's report must still be the one it produces alone.
  std::string Args = "run " + guest("quickstart.mini") + " --tools=";
  const std::vector<std::string> Tools = {"aprof-trms", "aprof-rms",
                                          "memcheck", "callgrind"};
  CommandResult All = runDriver(Args + "aprof-trms,aprof-rms,memcheck,"
                                       "callgrind");
  ASSERT_EQ(All.ExitCode, 0) << All.Output;
  for (const std::string &Tool : Tools) {
    CommandResult Alone = runDriver(Args + Tool);
    ASSERT_EQ(Alone.ExitCode, 0) << Alone.Output;
    size_t At = Alone.Output.find("--- " + Tool + " ---");
    ASSERT_NE(At, std::string::npos) << Alone.Output;
    EXPECT_NE(All.Output.find(Alone.Output.substr(At)), std::string::npos)
        << Tool;
  }
}

TEST(Driver, DeliveryTuningFlagsAreGone) {
  // Delivery is pipelined by default with one fixed batch size, replay
  // is serial within a stream, the VM has one interpreter loop, and
  // --record and replay take the one stream format; the old flags are
  // unknown options now. The last six are spelled in pieces so that
  // searching the tree for them finds no live use.
  std::string Args = "run " + guest("quickstart.mini");
  for (const char *Flag :
       {" --parallel-tools", " --parallel-tools=2", " --batch-capacity=4096",
        " --replay" "-workers=2", " --shadow" "-shards=4",
        " --dis" "patch=switch", " --block" "-compile",
        " --record" "-stream=/dev/null", " --replay" "-stream=/dev/null"}) {
    CommandResult R = runDriver(Args + Flag);
    EXPECT_EQ(R.ExitCode, 2) << Flag;
    EXPECT_NE(R.Output.find("unknown option"), std::string::npos)
        << Flag << ": " << R.Output;
  }
}

TEST(Driver, IntegerOptionsRejectBadValues) {
  // Each value once hung the scheduler (a zero slice), crashed the
  // workload setup (zero or negative threads), or was read as 0.
  struct Case {
    std::string Args;
    const char *Diagnostic;
  };
  std::string Run = "run " + guest("quickstart.mini");
  const Case Cases[] = {
      {Run + " --slice=0", "invalid --slice value '0'"},
      {Run + " --slice=abc", "invalid --slice value 'abc'"},
      {Run + " --seed=abc", "invalid --seed value 'abc'"},
      {"workload md --threads=0", "invalid --threads value '0'"},
      {"workload md --threads=abc", "invalid --threads value 'abc'"},
      {"workload md --threads=-3", "invalid --threads value '-3'"},
      {"workload md --size=abc", "invalid --size value 'abc'"},
      {"workload md --seed=abc", "invalid --seed value 'abc'"},
      {"collect --top=abc x.strm", "invalid --top value 'abc'"},
      {"collect --watch=-1 x.strm", "invalid --watch value '-1'"},
  };
  for (const Case &C : Cases) {
    CommandResult R = runDriver(C.Args);
    EXPECT_EQ(R.ExitCode, 2) << C.Args << ": " << R.Output;
    EXPECT_NE(R.Output.find(C.Diagnostic), std::string::npos)
        << C.Args << ": " << R.Output;
  }
}

TEST(Driver, StreamRecordReplayRoundTrip) {
  // Chunked-stream recording must replay to the byte-identical profile
  // a direct run produces (the report sections; the run/replay banners
  // around them legitimately differ).
  auto Section = [](const std::string &Output) {
    size_t At = Output.find("--- aprof-trms ---");
    EXPECT_NE(At, std::string::npos) << Output;
    return At == std::string::npos ? std::string() : Output.substr(At);
  };
  std::string StreamPath = ::testing::TempDir() + "isprof_driver_stream.strm";
  std::string Args = "run " + guest("stream.mini") + " --tools=aprof-trms";
  CommandResult Direct = runDriver(Args);
  ASSERT_EQ(Direct.ExitCode, 0) << Direct.Output;
  CommandResult Record = runDriver(Args + " --record=" + StreamPath);
  ASSERT_EQ(Record.ExitCode, 0) << Record.Output;
  EXPECT_NE(Record.Output.find("[stream:"), std::string::npos);
  EXPECT_EQ(Section(Record.Output), Section(Direct.Output));

  CommandResult Replay =
      runDriver("replay " + StreamPath + " --tools=aprof-trms");
  ASSERT_EQ(Replay.ExitCode, 0) << Replay.Output;
  EXPECT_NE(Replay.Output.find("[replayed"), std::string::npos);
  EXPECT_EQ(Section(Replay.Output), Section(Direct.Output));
  std::remove(StreamPath.c_str());
}

TEST(Driver, ContextsApplyToWorkloadAndReplay) {
  // --contexts puts every tool behind a ContextAdapter under run,
  // workload and replay alike, so profiles are keyed by call path.
  CommandResult Workload = runDriver(
      "workload kdtree --threads=2 --size=16 --tools=aprof-rms --contexts");
  ASSERT_EQ(Workload.ExitCode, 0) << Workload.Output;
  EXPECT_NE(Workload.Output.find("--- aprof-rms+contexts ---"),
            std::string::npos)
      << Workload.Output;
  EXPECT_NE(Workload.Output.find("main > "), std::string::npos)
      << Workload.Output;

  // A stream recorded without the flag replays, with it, to the context
  // profile of the live run.
  auto Sections = [](const std::string &Output) {
    size_t At = Output.find("--- aprof-rms+contexts ---");
    EXPECT_NE(At, std::string::npos) << Output;
    return At == std::string::npos ? std::string() : Output.substr(At);
  };
  std::string Path = ::testing::TempDir() + "isprof_driver_contexts.strm";
  std::string Args =
      "run " + guest("phased.mini") + " --tools=aprof-rms,aprof-trms";
  CommandResult Record = runDriver(Args + " --record=" + Path);
  ASSERT_EQ(Record.ExitCode, 0) << Record.Output;
  CommandResult Live = runDriver(Args + " --contexts");
  ASSERT_EQ(Live.ExitCode, 0) << Live.Output;
  EXPECT_NE(Live.Output.find("--- aprof-trms+contexts ---"),
            std::string::npos)
      << Live.Output;
  EXPECT_NE(Live.Output.find("main > work"), std::string::npos)
      << Live.Output;
  CommandResult Replay = runDriver("replay " + Path +
                                   " --tools=aprof-rms,aprof-trms --contexts");
  ASSERT_EQ(Replay.ExitCode, 0) << Replay.Output;
  EXPECT_EQ(Sections(Replay.Output), Sections(Live.Output));
  std::remove(Path.c_str());
}

TEST(Driver, ContextsRefusedByCollectAndDiff) {
  // collect and diff profile streams with a bare aprof-trms, so they
  // refuse --contexts instead of ignoring it.
  std::string Path = ::testing::TempDir() + "isprof_driver_ctxrefuse.strm";
  CommandResult Record = runDriver("run " + guest("phased.mini") +
                                   " --record=" + Path);
  ASSERT_EQ(Record.ExitCode, 0) << Record.Output;
  for (const std::string &Args :
       {"collect " + Path + " --contexts",
        "collect --diff " + Path + " " + Path + " --contexts",
        "diff " + Path + " " + Path + " --contexts"}) {
    CommandResult R = runDriver(Args);
    EXPECT_EQ(R.ExitCode, 2) << Args << ": " << R.Output;
    EXPECT_NE(R.Output.find("--contexts applies to run, workload and replay"),
              std::string::npos)
        << Args << ": " << R.Output;
  }
  // Without the flag both still run.
  EXPECT_EQ(runDriver("collect " + Path).ExitCode, 0);
  EXPECT_EQ(runDriver("diff " + Path + " " + Path).ExitCode, 0);
  std::remove(Path.c_str());
}

TEST(Driver, NativeToolNameRunsWithoutTools) {
  // "native" names no tool: the run attaches none, as with --tools=.
  const std::string Args = "workload kdtree --threads=2 --size=16 --tools=";
  CommandResult Native = runDriver(Args + "native");
  CommandResult Empty = runDriver(Args);
  ASSERT_EQ(Native.ExitCode, 0) << Native.Output;
  ASSERT_EQ(Empty.ExitCode, 0) << Empty.Output;
  EXPECT_EQ(Native.Output, Empty.Output);
  CommandResult Bogus = runDriver(Args + "bogus");
  EXPECT_EQ(Bogus.ExitCode, 2);
  EXPECT_NE(Bogus.Output.find("unknown tool 'bogus'"), std::string::npos)
      << Bogus.Output;
}

TEST(Driver, StreamingFlagsRejectBadValues) {
  std::string StreamPath = ::testing::TempDir() + "isprof_chunk_bytes.strm";
  std::string Args = "run " + guest("quickstart.mini") +
                     " --record=" + StreamPath + " --stream-chunk-bytes=";
  for (const char *Value : {"0", "1536", "2097152", "bogus"}) {
    CommandResult R = runDriver(Args + Value);
    EXPECT_EQ(R.ExitCode, 2) << Value;
    EXPECT_NE(R.Output.find("invalid --stream-chunk-bytes"),
              std::string::npos)
        << Value << ": " << R.Output;
  }
  std::remove(StreamPath.c_str());
  // Replaying a corrupt stream is a clean diagnostic, not a crash.
  std::string BadPath = ::testing::TempDir() + "isprof_bad_stream.strm";
  {
    std::ofstream Bad(BadPath, std::ios::binary);
    Bad << "ISPSTM07 this is not a valid stream tail";
  }
  CommandResult R = runDriver("replay " + BadPath + " --tools=aprof-trms");
  EXPECT_NE(R.ExitCode, 0);
  std::remove(BadPath.c_str());
}

TEST(Driver, ReplayStreamErrorNamesChunk) {
  // A damaged chunk mid-stream is named: its payload no longer matches
  // the CRC-32C its footer entry holds.
  std::vector<isp::EventRecord> Events;
  Events.push_back(isp::EventRecord::threadStart(0, 0));
  Events.push_back(isp::EventRecord::call(0, 1));
  for (unsigned I = 0; I != 400; ++I) {
    Events.push_back(isp::EventRecord::write(0, I, 1));
    Events.push_back(isp::EventRecord::read(0, I, 1));
  }
  Events.push_back(isp::EventRecord::ret(0, 1, 0));
  Events.push_back(isp::EventRecord::threadEnd(0));
  std::string Path = ::testing::TempDir() + "isprof_driver_badchunk.strm";
  isp::TraceStreamOptions Opts;
  Opts.ChunkBytes = 256;
  isp::TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, {{0, "main"}, {1, "work"}}, Opts))
      << Writer.error();
  for (const isp::EventRecord &E : Events)
    Writer.append(E);
  ASSERT_TRUE(Writer.close()) << Writer.error();

  // Flip every bit of one byte of chunk 1's payload (header = magic +
  // routine table; chunks are a u32 length and the payload).
  std::string Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Bytes = Buffer.str();
  }
  size_t Header = 8 + 1 + (1 + 4) + (1 + 4); // magic, count, two names
  uint32_t Len0 = 0;
  for (int I = 0; I != 4; ++I)
    Len0 |= static_cast<uint32_t>(
                static_cast<unsigned char>(Bytes[Header + I]))
            << (8 * I);
  size_t Chunk1Byte = Header + 4 + Len0 + 4 + 1;
  ASSERT_LT(Chunk1Byte, Bytes.size());
  Bytes[Chunk1Byte] = static_cast<char>(Bytes[Chunk1Byte] ^ 0xff);
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }

  CommandResult R = runDriver("replay " + Path + " --tools=aprof-trms");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("chunk 1: corrupt chunk: checksum mismatch"),
            std::string::npos)
      << R.Output;
  std::remove(Path.c_str());
}

TEST(Driver, OutOfRangeAddressEndsInDiagnostic) {
  // A read past the guest address space in chunk 1: every consumer of
  // the stream — replay, the multi-tool replay loop, diff, collect —
  // stops with the chunk's diagnostic and exit 1 instead of the shadow
  // memory's assert.
  std::vector<isp::EventRecord> Events;
  Events.push_back(isp::EventRecord::threadStart(0, 0));
  Events.push_back(isp::EventRecord::call(0, 1));
  for (unsigned I = 0; I != 125; ++I)
    Events.push_back(isp::EventRecord::write(0, I, 1));
  Events.push_back(isp::EventRecord::read(0, uint64_t(0x10000000000), 1));
  Events.push_back(isp::EventRecord::ret(0, 1, 0));
  Events.push_back(isp::EventRecord::threadEnd(0));

  std::string Path = ::testing::TempDir() + "isprof_driver_range.strm";
  isp::TraceStreamOptions Opts;
  Opts.ChunkBytes = 64;
  isp::TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, {{0, "main"}, {1, "work"}}, Opts))
      << Writer.error();
  for (const isp::EventRecord &E : Events)
    Writer.append(E);
  ASSERT_TRUE(Writer.close()) << Writer.error();
  ASSERT_GT(Writer.chunksWritten(), 2u);

  isp::TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  size_t BadChunk = 0;
  std::vector<isp::Event> Chunk;
  while (Reader.readChunk(BadChunk, Chunk))
    ++BadChunk;
  ASSERT_EQ(Reader.error(), "corrupt chunk: address out of range");
  std::string Expected = "chunk " + std::to_string(BadChunk) +
                         ": corrupt chunk: address out of range";

  for (std::string Args :
       {"replay " + Path + " --tools=aprof-trms",
        "replay " + Path + " --tools=aprof-trms,memcheck,nulgrind",
        "diff " + Path + " " + Path, "collect " + Path,
        "collect " + Path + " --routine=work"}) {
    CommandResult R = runDriver(Args);
    EXPECT_EQ(R.ExitCode, 1) << Args << ": " << R.Output;
    EXPECT_NE(R.Output.find(Path), std::string::npos) << Args;
    EXPECT_NE(R.Output.find(Expected), std::string::npos)
        << Args << ": " << R.Output;
  }
  std::remove(Path.c_str());
}

TEST(Driver, MismatchedReturnEndsInDiagnostic) {
  // ThreadStart(0); Call(0, a); Read(0, 100); Return(0, b); ThreadEnd(0):
  // the Return closes another routine than the innermost open Call,
  // which the profilers assert on. Replay under each profiler,
  // multi-tool replay, diff, and collect (unfiltered, and filtered on a
  // routine the stream calls) stop with the chunk's diagnostic and exit
  // 1.
  std::vector<isp::EventRecord> Events = {
      isp::EventRecord::threadStart(0, 0), isp::EventRecord::call(0, 1),
      isp::EventRecord::read(0, 100), isp::EventRecord::ret(0, 2, 0),
      isp::EventRecord::threadEnd(0)};
  std::vector<std::pair<isp::RoutineId, std::string>> Routines = {
      {0, "main"}, {1, "a"}, {2, "b"}};
  std::string Path = ::testing::TempDir() + "isprof_driver_nesting.strm";
  isp::TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, Routines)) << Writer.error();
  for (const isp::EventRecord &E : Events)
    Writer.append(E);
  ASSERT_TRUE(Writer.close()) << Writer.error();
  const std::string Expected = "chunk 0: corrupt chunk: mismatched return";

  for (std::string Args :
       {"replay " + Path + " --tools=aprof-trms",
        "replay " + Path + " --tools=aprof-rms",
        "replay " + Path + " --tools=aprof-trms,aprof-rms,nulgrind",
        "diff " + Path + " " + Path, "collect " + Path,
        "collect " + Path + " --routine=a"}) {
    CommandResult R = runDriver(Args);
    EXPECT_EQ(R.ExitCode, 1) << Args << ": " << R.Output;
    EXPECT_NE(R.Output.find(Path), std::string::npos) << Args;
    EXPECT_NE(R.Output.find(Expected), std::string::npos)
        << Args << ": " << R.Output;
  }
  std::remove(Path.c_str());
}

/// Writes \p Events as a stream at \p Path with the routine table
/// \p Routines.
void writeStream(
    const std::string &Path, const std::vector<isp::EventRecord> &Events,
    const std::vector<std::pair<isp::RoutineId, std::string>> &Routines) {
  isp::TraceStreamWriter Writer;
  ASSERT_TRUE(Writer.open(Path, Routines)) << Writer.error();
  for (const isp::EventRecord &E : Events)
    Writer.append(E);
  ASSERT_TRUE(Writer.close()) << Writer.error();
}

TEST(Driver, HugeThreadIdEndsInDiagnostic) {
  // A well-nested stream whose thread id is 4,000,000,000. The tools
  // size per-thread tables by id, so the reader bounds ids
  // (MaxThreadId): replay under each of them, and collect, stop with
  // the chunk's diagnostic and exit 1 instead of allocating tables for
  // four billion threads.
  const isp::ThreadId Tid = 4000000000u;
  std::string Path = ::testing::TempDir() + "isprof_driver_bigtid.strm";
  writeStream(Path,
              {isp::EventRecord::threadStart(Tid, 0),
               isp::EventRecord::call(Tid, 0), isp::EventRecord::read(Tid, 100),
               isp::EventRecord::ret(Tid, 0, 0),
               isp::EventRecord::threadEnd(Tid)},
              {{0, "work"}});
  const std::string Expected =
      "chunk 0: corrupt chunk: thread id out of range";
  for (std::string Args : {"replay " + Path + " --tools=aprof-trms",
                           "replay " + Path + " --tools=aprof-rms",
                           "replay " + Path + " --tools=helgrind",
                           "collect " + Path}) {
    CommandResult R = runDriver(Args);
    EXPECT_EQ(R.ExitCode, 1) << Args << ": " << R.Output;
    EXPECT_NE(R.Output.find(Expected), std::string::npos)
        << Args << ": " << R.Output;
  }
  std::remove(Path.c_str());
}

TEST(Driver, RoutineIdPastTheTableReplaysUnderEveryTool) {
  // A well-nested stream whose Call names routine 4,294,967,295, past
  // its one-entry routine table. The reader does not bound routine ids
  // (anonymous traces call ids outside the table), so no tool may size a
  // table by one: replay under every registry tool, and collect, exit 0
  // and print the id as routine#<id>.
  const isp::RoutineId Rtn = 4294967295u;
  const std::string Name = "routine#4294967295";
  std::string Path = ::testing::TempDir() + "isprof_driver_bigrtn.strm";
  writeStream(Path,
              {isp::EventRecord::threadStart(0, 0),
               isp::EventRecord::call(0, Rtn, 1), isp::EventRecord::read(0, 100),
               isp::EventRecord::ret(0, Rtn, 2), isp::EventRecord::threadEnd(0)},
              {{0, "work"}});
  for (const std::string &Tool : isp::allToolNames()) {
    CommandResult R = runDriver("replay " + Path + " --tools=" + Tool);
    EXPECT_EQ(R.ExitCode, 0) << Tool << ": " << R.Output;
    if (Tool != "callgrind")
      continue;
    // routine, calls, excl(BB), incl(BB): one call of two blocks.
    std::istringstream Rows(R.Output);
    std::string Line;
    bool Found = false;
    while (std::getline(Rows, Line)) {
      std::istringstream Fields(Line);
      std::string Routine, Calls;
      Fields >> Routine >> Calls;
      if (Routine == Name) {
        Found = true;
        EXPECT_EQ(Calls, "1") << Line;
      }
    }
    EXPECT_TRUE(Found) << R.Output;
  }
  CommandResult R = runDriver("collect " + Path);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find(Name), std::string::npos) << R.Output;
  std::remove(Path.c_str());
}

TEST(Driver, RepeatedRoutineNameEndsInDiagnostic) {
  // Routine ids are positions in the table, and the driver interns the
  // names in order: in {0: "main", 1: "main", 2: "work"} the repeat
  // would give work id 1, so its activations would print as routine#2.
  // The reader refuses the table instead.
  std::string Path = ::testing::TempDir() + "isprof_driver_dupname.strm";
  writeStream(Path,
              {isp::EventRecord::threadStart(0, 0), isp::EventRecord::call(0, 2),
               isp::EventRecord::read(0, 100), isp::EventRecord::ret(0, 2, 0),
               isp::EventRecord::threadEnd(0)},
              {{0, "main"}, {1, "main"}, {2, "work"}});
  for (std::string Args : {"replay " + Path + " --tools=aprof-rms",
                           "collect " + Path + " --routine=work"}) {
    CommandResult R = runDriver(Args);
    EXPECT_EQ(R.ExitCode, 1) << Args << ": " << R.Output;
    EXPECT_NE(R.Output.find("corrupt routine table: duplicate name"),
              std::string::npos)
        << Args << ": " << R.Output;
  }
  std::remove(Path.c_str());
}

TEST(Driver, ErrorsAreClean) {
  EXPECT_NE(runDriver("run /nonexistent.mini").ExitCode, 0);
  EXPECT_NE(runDriver("frobnicate").ExitCode, 0);
  EXPECT_NE(runDriver("run " + guest("stream.mini") + " --tools=bogus")
                .ExitCode,
            0);
  // A guest compile error must surface the diagnostics.
  std::string BadPath = ::testing::TempDir() + "isprof_bad.mini";
  {
    std::ofstream Bad(BadPath);
    Bad << "fn main() { return nope; }";
  }
  CommandResult R = runDriver("run " + BadPath);
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("undeclared variable"), std::string::npos);
  std::remove(BadPath.c_str());
}

} // namespace

namespace {

TEST(Driver, DiffDetectsPlantedRegression) {
  std::string Dir = ::testing::TempDir();
  std::string V1 = Dir + "isprof_diff_v1.mini";
  std::string V2 = Dir + "isprof_diff_v2.mini";
  {
    std::ofstream F(V1);
    F << "fn scan(a, n) { var s = 0; for (var i = 0; i < n; i = i + 1) "
         "{ s = s + a[i]; } return s; }\n"
         "fn main() { for (var n = 4; n <= 64; n = n * 2) { var a[n]; "
         "for (var i = 0; i < n; i = i + 1) { a[i] = i; } "
         "print(scan(a, n)); } return 0; }\n";
  }
  {
    std::ofstream F(V2);
    F << "fn scan(a, n) { var s = 0; for (var i = 0; i < n; i = i + 1) "
         "{ for (var j = 0; j < n; j = j + 1) { s = s + a[j]; } } "
         "return s / n; }\n"
         "fn main() { for (var n = 4; n <= 64; n = n * 2) { var a[n]; "
         "for (var i = 0; i < n; i = i + 1) { a[i] = i; } "
         "print(scan(a, n)); } return 0; }\n";
  }
  std::string T1 = Dir + "isprof_diff_v1.strm";
  std::string T2 = Dir + "isprof_diff_v2.strm";
  ASSERT_EQ(runDriver("run " + V1 + " --record=" + T1).ExitCode, 0);
  ASSERT_EQ(runDriver("run " + V2 + " --record=" + T2).ExitCode, 0);

  CommandResult Same = runDriver("diff " + T1 + " " + T1);
  EXPECT_EQ(Same.ExitCode, 0) << Same.Output;

  CommandResult Diff = runDriver("diff " + T1 + " " + T2);
  EXPECT_EQ(Diff.ExitCode, 3) << Diff.Output; // regressions found
  EXPECT_NE(Diff.Output.find("GROWTH REGRESSION"), std::string::npos);
  EXPECT_NE(Diff.Output.find("O(n) -> O(n^2)"), std::string::npos);

  for (const std::string &Path : {V1, V2, T1, T2})
    std::remove(Path.c_str());
}

// --- Fleet collector. ---

/// Records \p Guest as a chunked stream at \p Path; returns success.
bool recordStream(const std::string &Guest, const std::string &Path,
                  const std::string &Extra = "") {
  return runDriver("run " + Guest + " --tools=aprof-trms --record=" + Path +
                   Extra)
             .ExitCode == 0;
}

TEST(Driver, CollectRollsUpExplicitStreams) {
  std::string A = ::testing::TempDir() + "isprof_collect_a.strm";
  std::string B = ::testing::TempDir() + "isprof_collect_b.strm";
  ASSERT_TRUE(recordStream(guest("stream.mini"), A));
  ASSERT_TRUE(recordStream(guest("quickstart.mini"), B));

  CommandResult R = runDriver("collect " + A + " " + B);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("[collector: 2 stream(s) ingested, 0 failed"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("fleet rollup:"), std::string::npos);
  EXPECT_NE(R.Output.find("consumeStream"), std::string::npos);
  EXPECT_NE(R.Output.find("mergeSort"), std::string::npos);

  // --curve drills into one routine's rms profile.
  CommandResult Curve =
      runDriver("collect " + A + " " + B + " --curve=consumeStream");
  EXPECT_EQ(Curve.ExitCode, 0) << Curve.Output;
  EXPECT_NE(Curve.Output.find("curve for 'consumeStream'"),
            std::string::npos)
      << Curve.Output;

  std::remove(A.c_str());
  std::remove(B.c_str());
}

TEST(Driver, CollectGrowthSourceAddsStaticColumn) {
  // --growth-source compiles the named guest, estimates each routine's
  // static growth class, and folds a static/agree column pair into the
  // rollup — the fleet-level side of the cross-check.
  std::string A = ::testing::TempDir() + "isprof_collect_growth.strm";
  ASSERT_TRUE(recordStream(guest("stream.mini"), A));
  CommandResult R = runDriver("collect " + A + " --growth-source=" +
                              guest("stream.mini"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("static  agree"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("O(n)"), std::string::npos) << R.Output;
  // A source that fails to compile is a runtime error, not a crash.
  EXPECT_EQ(runDriver("collect " + A + " --growth-source=/nonexistent.mini")
                .ExitCode,
            1);
  std::remove(A.c_str());
}

TEST(Driver, CollectSpoolDirectoryScan) {
  std::string Spool = ::testing::TempDir() + "isprof_collect_spool";
  std::filesystem::create_directories(Spool);
  ASSERT_TRUE(recordStream(guest("stream.mini"), Spool + "/one.strm"));
  ASSERT_TRUE(recordStream(guest("stream.mini"), Spool + "/two.strm"));
  // Non-stream files in the spool are ignored, not errors.
  { std::ofstream Note(Spool + "/notes.txt"); Note << "not a stream"; }

  CommandResult R = runDriver("collect --spool=" + Spool);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("[collector: 2 stream(s) ingested, 0 failed"),
            std::string::npos)
      << R.Output;
  std::filesystem::remove_all(Spool);
}

TEST(Driver, CollectDiffOfSelfIsEmpty) {
  std::string A = ::testing::TempDir() + "isprof_collect_self.strm";
  ASSERT_TRUE(recordStream(guest("stream.mini"), A));
  CommandResult R = runDriver("collect --diff " + A + " " + A);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("fleet diff: 0 routine(s) differ"),
            std::string::npos)
      << R.Output;
  std::remove(A.c_str());
}

TEST(Driver, CollectCorruptStreamIsNamedAndIsolated) {
  std::string Good = ::testing::TempDir() + "isprof_collect_good.strm";
  std::string Bad = ::testing::TempDir() + "isprof_collect_bad.strm";
  ASSERT_TRUE(recordStream(guest("stream.mini"), Good));
  ASSERT_TRUE(recordStream(guest("stream.mini"), Bad,
                           " --stream-chunk-bytes=1024"));
  // Truncate the bad copy mid-chunk; the collector must name the file
  // and the chunk, fail that stream, and still roll up the good one.
  std::error_code Ec;
  uint64_t Size = std::filesystem::file_size(Bad, Ec);
  ASSERT_FALSE(Ec);
  std::filesystem::resize_file(Bad, Size / 2, Ec);
  ASSERT_FALSE(Ec);

  CommandResult R = runDriver("collect " + Good + " " + Bad);
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("isprof: stream " + Bad + ": chunk "),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("1 stream(s) ingested, 1 failed"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("consumeStream"), std::string::npos);
  std::remove(Good.c_str());
  std::remove(Bad.c_str());
}

TEST(Driver, CollectRoutineFilterSkipsChunks) {
  // phased.mini: setup touches the table once, then work dominates the
  // stream. Small chunks + a setup-only filter make most chunks
  // provably irrelevant via their activity masks.
  std::string Path = ::testing::TempDir() + "isprof_collect_phased.strm";
  ASSERT_TRUE(recordStream(guest("phased.mini"), Path,
                           " --stream-chunk-bytes=1024"));
  CommandResult R = runDriver("collect " + Path + " --routine=setup");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("fleet rollup: 1 routine(s)"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("setup"), std::string::npos);
  // The banner must show a nonzero skip count.
  size_t At = R.Output.find(" skipped");
  ASSERT_NE(At, std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find(", 0 skipped"), std::string::npos) << R.Output;
  std::remove(Path.c_str());
}

/// Unsigned LEB128 at \p Pos of \p Bytes; advances \p Pos.
uint64_t readVarint(const std::string &Bytes, size_t &Pos) {
  uint64_t V = 0;
  for (unsigned Shift = 0;; Shift += 7) {
    uint8_t Byte = static_cast<uint8_t>(Bytes[Pos++]);
    V |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      return V;
  }
}

/// Unsigned LEB128 append.
void appendVarint(std::string &Out, uint64_t V) {
  for (; V >= 0x80; V >>= 7)
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
  Out.push_back(static_cast<char>(V));
}

TEST(Driver, TamperedStreamMetadataEndsInDiagnostic) {
  // Stream metadata altered on disk, with the checksum left as it was:
  // (a) routine `work`'s mask bit cleared in every chunk that calls it,
  // with those chunks' written masks zeroed — without the checksum,
  // filtered collect skips every chunk and reports 0 activations; (b)
  // `work` moved to another id, by swapping its name with `main`'s.
  // Every consumer refuses both, naming the file.
  std::string Path = ::testing::TempDir() + "isprof_tamper.strm";
  ASSERT_TRUE(recordStream(guest("phased.mini"), Path,
                           " --stream-chunk-bytes=1024"));
  std::string Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Bytes = Buffer.str();
  }
  // Routine table: names in id order; find where main and work are.
  size_t Pos = 8, MainAt = 0, WorkAt = 0;
  uint64_t WorkId = 0;
  uint64_t Count = readVarint(Bytes, Pos);
  for (uint64_t Id = 0; Id != Count; ++Id) {
    uint64_t Len = readVarint(Bytes, Pos);
    if (Bytes.substr(Pos, Len) == "main")
      MainAt = Pos;
    if (Bytes.substr(Pos, Len) == "work") {
      WorkAt = Pos;
      WorkId = Id;
    }
    Pos += Len;
  }
  ASSERT_NE(MainAt, 0u);
  ASSERT_NE(WorkAt, 0u);
  ASSERT_LT(WorkId, 64u);

  // (a): re-encode the footer index with the masks cleared; the trailer
  // (footer offset, checksum, magic) stays as recorded.
  size_t FooterOffset = 0;
  for (int I = 0; I != 8; ++I)
    FooterOffset |= static_cast<size_t>(static_cast<unsigned char>(
                        Bytes[Bytes.size() - 24 + I]))
                    << (8 * I);
  Pos = FooterOffset;
  uint64_t Chunks = readVarint(Bytes, Pos);
  std::string Footer;
  appendVarint(Footer, Chunks);
  unsigned Cleared = 0;
  for (uint64_t C = 0; C != Chunks; ++C) {
    // Offset, events, payload CRC, routine mask, 4 shard and 4 written
    // mask words.
    uint64_t Fields[12];
    for (uint64_t &F : Fields)
      F = readVarint(Bytes, Pos);
    if ((Fields[3] >> WorkId) & 1) {
      Fields[3] &= ~(uint64_t(1) << WorkId);
      std::fill(Fields + 8, Fields + 12, 0);
      ++Cleared;
    }
    for (uint64_t F : Fields)
      appendVarint(Footer, F);
  }
  ASSERT_GT(Cleared, 0u);
  std::string Unmasked = Path + ".unmasked";
  std::string Moved = Path + ".moved";
  {
    std::ofstream Out(Unmasked, std::ios::binary);
    Out << Bytes.substr(0, FooterOffset) << Footer
        << Bytes.substr(Bytes.size() - 24);
  }
  // (b): main and work trade places, and so ids.
  std::string MovedBytes = Bytes;
  MovedBytes.replace(MainAt, 4, "work");
  MovedBytes.replace(WorkAt, 4, "main");
  {
    std::ofstream Out(Moved, std::ios::binary);
    Out << MovedBytes;
  }

  ASSERT_EQ(runDriver("collect --routine=work " + Path).ExitCode, 0);
  for (const std::string &Bad : {Unmasked, Moved})
    for (std::string Args :
         {"collect --routine=work " + Bad, "collect " + Bad, "replay " + Bad,
          "diff " + Path + " " + Bad}) {
      CommandResult R = runDriver(Args);
      EXPECT_EQ(R.ExitCode, 1) << Args << ": " << R.Output;
      EXPECT_NE(R.Output.find(Bad + ": "), std::string::npos)
          << Args << ": " << R.Output;
      EXPECT_NE(R.Output.find("checksum mismatch"), std::string::npos)
          << Args << ": " << R.Output;
    }
  for (const std::string &P : {Path, Unmasked, Moved})
    std::remove(P.c_str());
}

TEST(Driver, PayloadBitFlipsEndInChecksumDiagnostic) {
  // 300 single-bit flips at pseudo-random chunk payload bytes of a
  // kdtree stream, one file each: every replay exits 1 naming the chunk
  // and its failed payload CRC-32C, where an unchecked payload could
  // decode to a different profile and exit 0.
  std::string Path = ::testing::TempDir() + "isprof_flip.strm";
  ASSERT_EQ(runDriver("workload kdtree --threads=4 --size=128 --seed=91 "
                      "--tools= --record=" +
                      Path)
                .ExitCode,
            0);
  std::string Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Bytes = Buffer.str();
  }
  isp::TraceStreamReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GT(Reader.chunkCount(), 2u);
  // The routine table ends where chunk 0 begins; each chunk is a u32
  // length and the payload, back to back.
  size_t Pos = 8;
  for (uint64_t Count = readVarint(Bytes, Pos); Count != 0; --Count) {
    uint64_t Len = readVarint(Bytes, Pos);
    Pos += Len;
  }
  struct Payload {
    size_t Chunk, Begin, End;
  };
  std::vector<Payload> Payloads;
  for (size_t C = 0; C != Reader.chunkCount(); ++C) {
    uint32_t Len = 0;
    for (int I = 0; I != 4; ++I)
      Len |= uint32_t(static_cast<unsigned char>(Bytes[Pos + I])) << (8 * I);
    Payloads.push_back({C, Pos + 4, Pos + 4 + Len});
    Pos += 4 + Len;
  }

  std::string Flipped = Path + ".flipped";
  uint64_t State = 91;
  for (int Flip = 0; Flip != 300; ++Flip) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    const Payload &P = Payloads[(State >> 33) % Payloads.size()];
    size_t At = P.Begin + (State >> 12) % (P.End - P.Begin);
    std::string Mutated = Bytes;
    Mutated[At] = static_cast<char>(Mutated[At] ^ (1 << (State >> 60) % 8));
    {
      std::ofstream Out(Flipped, std::ios::binary | std::ios::trunc);
      Out << Mutated;
    }
    CommandResult R = runDriver("replay " + Flipped + " --tools=aprof-trms");
    EXPECT_EQ(R.ExitCode, 1) << "byte " << At << ": " << R.Output;
    EXPECT_NE(R.Output.find("chunk " + std::to_string(P.Chunk) +
                            ": corrupt chunk: checksum mismatch"),
              std::string::npos)
        << "byte " << At << ": " << R.Output;
  }
  std::remove(Path.c_str());
  std::remove(Flipped.c_str());
}

TEST(Driver, CollectRejectsBadInvocations) {
  EXPECT_EQ(runDriver("collect").ExitCode, 2);
  EXPECT_EQ(runDriver("collect --top=0 x.strm").ExitCode, 2);
  EXPECT_EQ(runDriver("collect --diff onlyone.strm").ExitCode, 2);
  // A missing spool directory is a runtime error, not a crash.
  EXPECT_EQ(runDriver("collect --spool=/nonexistent_spool_dir").ExitCode, 1);
}

TEST(Driver, IngestWorkerFlagIsGone) {
  // The collector sizes its own pool from the streams and the hardware
  // threads; the worker-count flag is an unknown option now. It is
  // spelled in pieces so that searching the tree for it finds no live
  // use.
  for (const char *Flag : {" --ingest" "-workers=999",
                           " --ingest" "-workers=2"}) {
    CommandResult R = runDriver(std::string("collect x.strm") + Flag);
    EXPECT_EQ(R.ExitCode, 2) << Flag;
    EXPECT_NE(R.Output.find("unknown option"), std::string::npos)
        << Flag << ": " << R.Output;
  }
}

TEST(Driver, StatsIntervalWritesHeartbeatSnapshots) {
  std::string StatsPath = ::testing::TempDir() + "isprof_hb_stats.json";
  std::string LivePath = StatsPath + ".live";
  std::remove(LivePath.c_str());
  CommandResult R = runDriver("run " + guest("quickstart.mini") +
                              " --stats=json --stats-out=" + StatsPath +
                              " --stats-interval=10");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::ifstream Live(LivePath);
  ASSERT_TRUE(Live.good());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(Live, Line)) {
    EXPECT_EQ(Line.front(), '{') << Line;
    EXPECT_EQ(Line.back(), '}') << Line;
    EXPECT_NE(Line.find("\"schema_version\": 1"), std::string::npos) << Line;
    EXPECT_NE(Line.find("\"ts_ns\": "), std::string::npos) << Line;
    ++Lines;
  }
  EXPECT_GE(Lines, 2u);
  // The final stats file carries the schema version too.
  std::ifstream Stats(StatsPath);
  std::ostringstream Buffer;
  Buffer << Stats.rdbuf();
  EXPECT_NE(Buffer.str().find("\"schema_version\": 1"), std::string::npos);
  // --stats-interval without a JSON stats sink is a usage error.
  EXPECT_EQ(runDriver("run " + guest("quickstart.mini") +
                      " --stats-interval=10")
                .ExitCode,
            2);
  std::remove(StatsPath.c_str());
  std::remove(LivePath.c_str());
}

TEST(Driver, LintUnderstandsJoinHappensBefore) {
  // joined.mini writes its global from both the worker and, post-join,
  // from main — with no lock. The join edge makes it race-free.
  CommandResult R = runDriver("check " + guest("joined.mini") + " --lint");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("lint: 0 location(s) with empty candidate "
                          "lockset"),
            std::string::npos)
      << R.Output;
}

} // namespace
