//===- tests/VmDispatchTest.cpp - Interpreter loop, pinned outputs ---------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The interpreter loop against pinned values. For each guest the test
// pins a 64-bit FNV-1a hash of the recorded events (each decoded
// record's kind, tid and two arguments, so the pin names event content,
// not the packed word layout), the run's instruction, block, access and
// quiet-mark tallies, and what the guest observes: success, exit code,
// output and diagnostic. A change to event content, compaction, or
// flush timing shows up as a hash mismatch.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "instr/Dispatcher.h"
#include "vm/Compiler.h"
#include "vm/Diag.h"
#include "vm/Machine.h"
#include "vm/Optimizer.h"

#include <gtest/gtest.h>

using namespace isp;

namespace {

struct RunCapture {
  std::vector<Event> Words;
  RunResult Result;
};

/// Compiles \p Source (optimized when \p Optimize), runs it with a record
/// sink attached, and returns the recorded words and the result.
RunCapture runGuest(const std::string &Source, bool Optimize = false,
                    uint64_t SliceLength = 150) {
  RunCapture Out;
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(Source, Diags);
  EXPECT_TRUE(Prog.has_value()) << Diags.render();
  if (!Prog)
    return Out;
  if (Optimize)
    optimizeProgram(*Prog);
  MachineOptions Opts;
  Opts.SliceLength = SliceLength;
  WordSink Sink;
  EventDispatcher Dispatcher;
  Dispatcher.setRecordSink(&Sink);
  Machine M(*Prog, &Dispatcher, Opts);
  Out.Result = M.run();
  Out.Words = std::move(Sink.Words);
  return Out;
}

/// 64-bit FNV-1a over the little-endian bytes of each record \p Words
/// decodes to: its kind, tid, Arg0 and Arg1.
uint64_t hashRecords(const std::vector<Event> &Words) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  auto Mix = [&Hash](uint64_t Value, unsigned Bytes) {
    for (unsigned I = 0; I != Bytes; ++I) {
      Hash ^= (Value >> (8 * I)) & 0xff;
      Hash *= 0x100000001b3ULL;
    }
  };
  for (const EventRecord &E : decodeEventStream(Words)) {
    Mix(static_cast<uint8_t>(E.Kind), 1);
    Mix(E.Tid, 4);
    Mix(E.Arg0, 8);
    Mix(E.Arg1, 8);
  }
  return Hash;
}

struct Pinned {
  uint64_t RecordsHash;
  uint64_t Instructions;
  uint64_t BasicBlocks;
  uint64_t MemReads;
  uint64_t MemWrites;
  uint64_t QuietEventsSuppressed;
  uint64_t QuietIndirectSuppressed;
  uint64_t QuietWindowAborts;
  bool Ok;
  int64_t ExitCode;
  const char *Output;
  const char *Error;
};

void expectPinned(const RunCapture &C, const Pinned &P) {
  uint64_t Hash = hashRecords(C.Words);
  EXPECT_EQ(Hash, P.RecordsHash) << std::hex << "actual 0x" << Hash
                                 << std::dec << " over " << C.Words.size()
                                 << " words";
  const RunStats &S = C.Result.Stats;
  EXPECT_EQ(S.Instructions, P.Instructions);
  EXPECT_EQ(S.BasicBlocks, P.BasicBlocks);
  EXPECT_EQ(S.MemReads, P.MemReads);
  EXPECT_EQ(S.MemWrites, P.MemWrites);
  EXPECT_EQ(S.QuietEventsSuppressed, P.QuietEventsSuppressed);
  EXPECT_EQ(S.QuietIndirectSuppressed, P.QuietIndirectSuppressed);
  EXPECT_EQ(S.QuietWindowAborts, P.QuietWindowAborts);
  EXPECT_EQ(C.Result.Ok, P.Ok);
  EXPECT_EQ(C.Result.ExitCode, P.ExitCode);
  EXPECT_EQ(C.Result.Output, P.Output);
  EXPECT_EQ(C.Result.Error, P.Error);
}

const char *StraightLineHeavySource = R"(
  var total;
  var bias;
  fn step(a, b) {
    var x = a * 3 + b;
    var y = x - a;
    var z = x * y + bias;
    total = total + z;
    return z;
  }
  fn main() {
    bias = 7;
    var i = 0;
    var acc = 0;
    while (i < 200) {
      acc = acc + step(i, acc);
      i = i + 1;
    }
    return acc % 255;
  })";

TEST(InterpreterLoop, StraightLineGuest) {
  expectPinned(runGuest(StraightLineHeavySource),
               {0xe8c00aa2faa70fdeULL, 7817, 403, 3002, 1603, 0, 0, 0, true, -93,
                "", ""});
}

TEST(InterpreterLoop, QuietMarkedGuest) {
  // The optimizer's quiet marks suppress statically redundant events
  // (no event word).
  expectPinned(runGuest(StraightLineHeavySource, /*Optimize=*/true),
               {0x1570a24f096e6e89ULL, 7817, 403, 3002, 1603, 1598, 0, 2, true,
                -93, "", ""});
}

TEST(InterpreterLoop, MultiThreadedGuestAtShortAndLongSlices) {
  const char *Source = R"(
    var shared[8];
    var gate;
    fn worker(id, rounds) {
      var i = 0;
      var acc = 0;
      while (i < rounds) {
        var v = shared[id] + i;
        shared[id] = v;
        acc = acc + v * 2 - id;
        i = i + 1;
      }
      return acc;
    }
    fn main() {
      gate = lock_create();
      var a = spawn worker(1, 40);
      var b = spawn worker(2, 55);
      var own = worker(0, 30);
      return (own + join(a) + join(b)) % 1023;
    })";
  // Short slices maximize thread switches (WindowInterrupted churn and
  // mid-window budget exhaustion); the default exercises long runs.
  expectPinned(runGuest(Source, /*Optimize=*/true, /*SliceLength=*/7),
               {0x2118f6cfe08ed2baULL, 3566, 135, 1637, 516, 98, 0, 778, true,
                691, "", ""});
  expectPinned(runGuest(Source, /*Optimize=*/true, /*SliceLength=*/150),
               {0xe21abd0ad556a19cULL, 3566, 135, 1637, 516, 789, 0, 87, true,
                691, "", ""});
}

TEST(InterpreterLoop, LongRunSpansManyBatches) {
  // Many batch boundaries: the pinned hash covers where each batch
  // stops access runs from merging.
  std::string Source = StraightLineHeavySource;
  size_t At = Source.find("i < 200");
  ASSERT_NE(At, std::string::npos);
  Source.replace(At, 7, "i < 6000");
  RunCapture C = runGuest(Source);
  EXPECT_GT(C.Words.size(), 8 * EventDispatcher::BatchWords)
      << "the run must span many batches";
  expectPinned(C, {0xdb3e51b2a760d4feULL, 234017, 12003, 90002, 48003, 0, 0, 0,
                   true, 59, "", ""});
}

TEST(InterpreterLoop, IndirectAndBuiltinGuest) {
  // Indirect accesses, allocas, kernel I/O and builtins.
  const char *Source = R"(
    var buf[16];
    fn fill(n) {
      var i = 0;
      while (i < n) {
        buf[i] = i * i;
        i = i + 1;
      }
      return i;
    }
    fn main() {
      sysread(1, buf, 8);
      var n = fill(12);
      var p = alloc(6);
      store(p + 1, 42);
      var v = load(p + 1);
      syswrite(2, buf, 4);
      return n + v + buf[3];
    })";
  expectPinned(runGuest(Source, /*Optimize=*/true),
               {0x0f78bcc1c1b9b26aULL, 239, 16, 96, 30, 49, 0, 0, true, 63, "",
                ""});
}

TEST(InterpreterLoop, DivideByZeroFailsWithDiagnostic) {
  // The divisor reaches zero on the fourth iteration; the events and
  // tallies of the three iterations before it stay.
  const char *Source = R"(
    fn main() {
      var i = 0;
      var acc = 7;
      while (i < 10) {
        acc = acc + 100 / (3 - i);
        i = i + 1;
      }
      return acc;
    })";
  expectPinned(runGuest(Source),
               {0x104bcd5cae6dbd34ULL, 70, 5, 15, 8, 0, 0, 0, false, 0, "",
                "division by zero"});
}

TEST(InterpreterLoop, InvalidIndirectAddressFailsWithDiagnostic) {
  // The second iteration indexes far outside the globals region.
  const char *Source = R"(
    var buf[4];
    fn main() {
      var i = 0;
      var acc = 0;
      while (i < 100) {
        acc = acc + buf[i * 50];
        i = i + 1;
      }
      return acc;
    })";
  expectPinned(runGuest(Source),
               {0x8bf7dda37c4bd0aaULL, 34, 3, 10, 4, 0, 0, 0, false, 0, "",
                "invalid memory access at address 67"});
}

} // namespace
