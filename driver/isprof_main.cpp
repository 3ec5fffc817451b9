//===- driver/isprof_main.cpp - The isprof command-line driver -------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The user-facing driver, mirroring how the paper's tool is invoked as
// `valgrind --tool=aprof <program>`:
//
//   isprof run <prog.mini> [--tools=aprof-trms,...] [--record=run.strm]
//   isprof replay <run.strm> [--tools=...]
//   isprof check <prog.mini>
//   isprof disasm <prog.mini>
//   isprof workload <name> [--tools=...] [--threads=N] [--size=N]
//   isprof list
//
// `run` executes a guest-language program under any combination of the
// registered analysis tools (aprof-trms, aprof-rms, helgrind, drd,
// memcheck, callgrind, cct, nulgrind) in one pass, printing each tool's
// report; --record also streams the event trace to a file for offline
// replay.
//
//===----------------------------------------------------------------------===//

#include "analysis/Escape.h"
#include "analysis/LocksetLint.h"
#include "analysis/Range.h"
#include "analysis/Verifier.h"
#include "collect/Collector.h"
#include "core/HtmlReport.h"
#include "core/ProfileDiff.h"
#include "core/TrmsProfiler.h"
#include "instr/ContextAdapter.h"
#include "instr/Dispatcher.h"
#include "obs/Obs.h"
#include "obs/TraceLog.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "tools/ToolRegistry.h"
#include "trace/TraceStream.h"
#include "vm/Compiler.h"
#include "vm/Diag.h"
#include "vm/Disasm.h"
#include "vm/Machine.h"
#include "vm/Optimizer.h"
#include "workloads/Runner.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include <sys/resource.h>

using namespace isp;

namespace {

int usage() {
  std::fputs(
      "usage: isprof <command> [options]\n"
      "\n"
      "commands:\n"
      "  run <prog.mini>       compile and execute under analysis tools\n"
      "  diff <base.strm> <new.strm>  compare two recorded streams'\n"
      "                        input-sensitive profiles (regressions)\n"
      "  replay <run.strm>     run analysis tools over a recorded stream\n"
      "  collect <stream...>   ingest many recorded streams concurrently\n"
      "                        into a fleet-level rollup; --diff A B\n"
      "                        compares two stream sets' rms curves\n"
      "  check <prog.mini>     compile only; print diagnostics\n"
      "  disasm <prog.mini>    print the compiled bytecode\n"
      "  workload <name>       run a registered benchmark workload\n"
      "  list                  list tools and workloads\n"
      "\n"
      "common options:\n"
      "  --tools=a,b,c   comma-separated tool list (default aprof-trms)\n"
      "  --record=PATH   (run, workload) stream the event trace to a\n"
      "                  chunked file as it happens: bounded memory\n"
      "                  regardless of trace length\n"
      "  --optimize      (run, check, disasm) run the bytecode optimizer;\n"
      "                  workloads always run optimized bytecode\n"
      "  --verify-bytecode  statically verify the compiled bytecode;\n"
      "                  refuse to run on failure\n"
      "  --lint          static lockset lint: report globals shared\n"
      "                  across threads with no consistent lock\n"
      "  --lint-bounds   static bounds lint: report provably\n"
      "                  out-of-range indices and possible index\n"
      "                  overflow from the value-range analysis\n"
      "  --growth-check  (run, workload) add static-vs-dynamic growth\n"
      "                  agreement columns to profile summaries and\n"
      "                  warn on contradictions\n"
      "  --annotate-ranges      (disasm) append ; range=[lo,hi] and\n"
      "                  ; noescape comments from the static analysis\n"
      "  --slice=N       scheduler quantum in instructions (default 150)\n"
      "  --seed=N        guest rand()/device seed (default 42)\n"
      "  --threads=N --size=N   (workload) parameters\n"
      "  --stats=json|csv|off   dump pipeline self-metrics (default off)\n"
      "  --stats-out=PATH       write --stats output to PATH, not stdout\n"
      "  --stats-interval=MS    (with --stats=json --stats-out=PATH)\n"
      "                  append a live JSONL stats snapshot to PATH.live\n"
      "                  every MS milliseconds while the command runs\n"
      "  --trace-out=PATH       write a chrome://tracing timeline to PATH\n"
      "  --stream-chunk-bytes=N (--record) target chunk payload\n"
      "                  size (power of two in [1024, 1048576])\n"
      "\n"
      "collect options:\n"
      "  --spool=DIR     also ingest every stream file found in DIR\n"
      "  --watch=MS      with --spool: poll DIR every MS milliseconds for\n"
      "                  new streams until DIR/collector.stop appears\n"
      "  --ingest-workers=N     concurrent ingestion threads (0 = auto)\n"
      "  --routine=a,b   restrict the rollup to these routines; chunks\n"
      "                  their activity masks provably exclude are\n"
      "                  skipped without decoding\n"
      "  --program=NAME  program label for every stream (default: file\n"
      "                  stem)\n"
      "  --top=N         rollup rows to print (default 10)\n"
      "  --curve=NAME    also print NAME's full per-rms cost curve\n"
      "  --growth-source=FILE   compile FILE and add static/agree\n"
      "                  growth columns to the rollup\n"
      "  --diff          compare two stream sets (exit 3 on regression)\n",
      stderr);
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream Stream(Path, std::ios::binary);
  if (!Stream)
    return false;
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  Out = Buffer.str();
  return true;
}

/// Prints the diagnostic for a malformed --\p Name value and returns
/// false, so callers can `return invalidOption(...)`.
bool invalidOption(const OptionParser &Options, const char *Name,
                   const std::string &Expected) {
  std::fprintf(stderr, "isprof: invalid --%s value '%s' (expected %s)\n",
               Name, Options.getString(Name).c_str(), Expected.c_str());
  return false;
}

/// Reads --\p Name as a decimal integer in [\p Min, \p Max] into \p Out.
/// Anything else (empty, trailing text, out of range) is reported with
/// invalidOption and returns false; callers then exit 2.
template <typename T>
bool parseIntOption(const OptionParser &Options, const char *Name,
                    int64_t Min, int64_t Max, const std::string &Expected,
                    T *Out) {
  std::string V = Options.getString(Name);
  int64_t N = 0;
  auto [End, Ec] = std::from_chars(V.data(), V.data() + V.size(), N);
  if (V.empty() || Ec != std::errc() || End != V.data() + V.size() ||
      N < Min || N > Max)
    return invalidOption(Options, Name, Expected);
  *Out = static_cast<T>(N);
  return true;
}

constexpr int64_t MaxInt64 = std::numeric_limits<int64_t>::max();
constexpr int64_t MaxUnsigned = std::numeric_limits<unsigned>::max();

/// Decodes --slice and --seed into \p Opts. A zero slice would never
/// let a guest thread make progress.
bool parseMachineOptions(const OptionParser &Options, MachineOptions *Opts) {
  return parseIntOption(Options, "slice", 1, MaxInt64,
                        "an instruction count >= 1", &Opts->SliceLength) &&
         parseIntOption(Options, "seed", 0, MaxInt64, "a seed >= 0",
                        &Opts->Seed);
}

/// Decodes --stream-chunk-bytes (a power of two in [1 KiB, 1 MiB]) into
/// \p StreamOpts. Returns false (after printing a diagnostic) on a
/// malformed or out-of-range value.
bool parseStreamChunkBytes(const OptionParser &Options,
                           TraceStreamOptions *StreamOpts) {
  const char *Expected = "a power of two in [1024, 1048576]";
  size_t N = 0;
  if (!parseIntOption(Options, "stream-chunk-bytes", 1024, 1 << 20, Expected,
                      &N))
    return false;
  if ((N & (N - 1)) != 0)
    return invalidOption(Options, "stream-chunk-bytes", Expected);
  StreamOpts->ChunkBytes = N;
  return true;
}

/// Exports the stream writer's counters into the obs registry so the
/// bounded-memory CI assertions can read them from --stats output.
void publishStreamStats(const TraceStreamWriter &Writer) {
  if (!obs::statsEnabled())
    return;
  obs::Registry &R = obs::Registry::get();
  R.counter("trace_stream.events_written").add(Writer.eventsWritten());
  R.counter("trace_stream.chunks_written").add(Writer.chunksWritten());
  R.counter("trace_stream.bytes_written").add(Writer.bytesWritten());
  R.gauge("trace_stream.peak_buffered_bytes")
      .noteMax(Writer.peakBufferedBytes());
}

/// --record=PATH for `run` and `workload`: the stream writer is the
/// dispatcher's record sink, so the trace reaches disk chunk by chunk
/// while the guest runs.
class StreamRecording {
public:
  /// Opens the writer and attaches it to \p Dispatcher when --record is
  /// set. Returns 0, or the exit code to stop with.
  int start(const OptionParser &Options, const Program &Prog,
            EventDispatcher &Dispatcher) {
    Path = Options.getString("record");
    if (Path.empty())
      return 0;
    TraceStreamOptions StreamOpts;
    if (!parseStreamChunkBytes(Options, &StreamOpts))
      return 2;
    if (!Writer.open(Path, Prog.Symbols.entries(), StreamOpts)) {
      std::fprintf(stderr, "isprof: %s\n", Writer.error().c_str());
      return 1;
    }
    Dispatcher.setRecordSink(&Writer);
    return 0;
  }

  /// Seals the stream after the run and prints its banner. Returns 0,
  /// or 1 when any write failed.
  int finish() {
    if (Path.empty())
      return 0;
    if (!Writer.close()) {
      std::fprintf(stderr, "isprof: %s\n", Writer.error().c_str());
      return 1;
    }
    publishStreamStats(Writer);
    std::printf("[stream: %s events in %s chunks -> %s (%s)]\n\n",
                formatWithCommas(Writer.eventsWritten()).c_str(),
                formatWithCommas(Writer.chunksWritten()).c_str(),
                Path.c_str(), formatBytes(Writer.bytesWritten()).c_str());
    return 0;
  }

private:
  std::string Path;
  TraceStreamWriter Writer;
};

/// Prints a stream read error in the one format replay, diff and collect
/// share: the file, the failing chunk, the reader's diagnostic.
void reportStreamError(const std::string &Path, size_t Chunk,
                       const std::string &Message) {
  std::fprintf(stderr, "isprof: stream %s: chunk %zu: %s\n", Path.c_str(),
               Chunk, Message.c_str());
}

/// Opens the stream at \p Path and interns its routine names into
/// \p Symbols in id order (the reader refuses repeated names, so each
/// name gets its recorded id); prints the reader's diagnostic and
/// returns false when the file is not a valid stream.
bool openStream(const std::string &Path, TraceStreamReader &Reader,
                SymbolTable &Symbols) {
  if (!Reader.open(Path)) {
    std::fprintf(stderr, "isprof: cannot read stream %s: %s\n",
                 Path.c_str(), Reader.error().c_str());
    return false;
  }
  for (const std::string &Name : Reader.routines())
    Symbols.intern(Name);
  return true;
}

std::vector<std::string> splitList(const std::string &Csv) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= Csv.size()) {
    size_t Comma = Csv.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Csv.size();
    if (Comma > Pos)
      Out.push_back(Csv.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

struct ToolSet {
  std::vector<std::unique_ptr<Tool>> Inners;
  std::vector<std::unique_ptr<ContextAdapter>> Adapters;
  /// What actually subscribes to events, in creation order.
  std::vector<Tool *> Fronts;

  /// Creates every requested tool; returns false on an unknown name.
  /// "native" names no tool, so it adds none. With \p Contexts set, each
  /// tool is wrapped in a ContextAdapter so profiles are keyed by full
  /// call paths.
  bool create(const std::string &Csv, bool Contexts) {
    for (const std::string &Name : splitList(Csv)) {
      std::unique_ptr<Tool> T = makeTool(Name);
      if (!T && knownToolName(Name))
        continue;
      if (!T) {
        std::fprintf(stderr, "isprof: unknown tool '%s'; known tools:",
                     Name.c_str());
        for (const std::string &Known : allToolNames())
          std::fprintf(stderr, " %s", Known.c_str());
        std::fputc('\n', stderr);
        return false;
      }
      Inners.push_back(std::move(T));
      if (Contexts) {
        Adapters.push_back(
            std::make_unique<ContextAdapter>(*Inners.back()));
        Fronts.push_back(Adapters.back().get());
      } else {
        Adapters.push_back(nullptr);
        Fronts.push_back(Inners.back().get());
      }
    }
    return true;
  }

  void attach(EventDispatcher &Dispatcher) {
    for (Tool *T : Fronts)
      Dispatcher.addTool(T);
  }

  void printReports(const SymbolTable *Symbols,
                    const std::map<RoutineId, unsigned> *StaticGrowth =
                        nullptr) {
    for (size_t I = 0; I != Inners.size(); ++I) {
      const SymbolTable *Table =
          Adapters[I] ? &Adapters[I]->contextSymbols() : Symbols;
      std::printf("--- %s ---\n%s\n", Fronts[I]->name().c_str(),
                  renderToolReport(*Inners[I], Table, StaticGrowth).c_str());
    }
  }

  /// Writes an HTML report from the first profiling tool, if any.
  bool writeHtml(const std::string &Path, const SymbolTable *Symbols) {
    for (size_t I = 0; I != Inners.size(); ++I) {
      if (ProfileDatabase *Db = Inners[I]->profileDatabase()) {
        HtmlReportOptions HtmlOpts;
        HtmlOpts.Title = "isprof profile (" + Fronts[I]->name() + ")";
        const SymbolTable *Table =
            Adapters[I] ? &Adapters[I]->contextSymbols() : Symbols;
        if (!writeHtmlReport(Path, *Db, Table, HtmlOpts)) {
          std::fprintf(stderr, "isprof: cannot write %s\n", Path.c_str());
          return false;
        }
        std::printf("[HTML report -> %s]\n\n", Path.c_str());
        return true;
      }
    }
    std::fprintf(stderr, "isprof: --html needs an aprof tool in --tools\n");
    return false;
  }
};

/// Runs the static checks requested on the command line (after compile
/// and optional optimization). Returns 0 to continue, nonzero to stop
/// with that exit code. --verify-bytecode failures go to stderr;
/// --lint always prints its summary (drd-style) to stdout, and a clean
/// program reports zero locations.
int runStaticChecks(const Program &Prog, const OptionParser &Options) {
  if (Options.getFlag("verify-bytecode")) {
    analysis::VerifyResult Result = analysis::verifyProgram(Prog);
    if (!Result.ok()) {
      std::fprintf(stderr, "%s", Result.render(Prog).c_str());
      return 1;
    }
    std::printf("[bytecode verified: %zu function(s)]\n",
                Prog.Functions.size());
  }
  if (Options.getFlag("lint")) {
    analysis::LintReport Report = analysis::runLocksetLint(Prog);
    std::printf("%s", Report.render().c_str());
  }
  if (Options.getFlag("lint-bounds")) {
    analysis::BoundsReport Report = analysis::runBoundsLint(Prog);
    std::printf("%s", Report.render(Prog).c_str());
  }
  return 0;
}

/// The --growth-check static degrees, or nothing when the flag is off.
std::optional<std::map<RoutineId, unsigned>>
staticGrowthForReports(const Program &Prog, const OptionParser &Options) {
  if (!Options.getFlag("growth-check"))
    return std::nullopt;
  return analysis::estimateGrowth(Prog);
}

int commandRun(OptionParser &Options) {
  if (Options.positional().size() < 2) {
    std::fprintf(stderr, "isprof run: missing program file\n");
    return 2;
  }
  std::string Source;
  if (!readFile(Options.positional()[1], Source)) {
    std::fprintf(stderr, "isprof: cannot read %s\n",
                 Options.positional()[1].c_str());
    return 1;
  }
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(Source, Diags);
  if (!Prog) {
    std::fputs(Diags.render().c_str(), stderr);
    return 1;
  }
  if (Options.getFlag("optimize")) {
    OptimizerStats Opt = optimizeProgram(*Prog);
    std::printf("[optimizer: %u constant(s) folded, %u branch(es) "
                "resolved, %u jump(s) threaded, %u instruction(s) "
                "removed]\n",
                Opt.ConstantsFolded, Opt.BranchesResolved,
                Opt.JumpsThreaded, Opt.InstructionsRemoved);
  }
  if (int Code = runStaticChecks(*Prog, Options))
    return Code;

  ToolSet Tools;
  if (!Tools.create(Options.getString("tools"), Options.getFlag("contexts")))
    return 2;

  MachineOptions MachineOpts;
  if (!parseMachineOptions(Options, &MachineOpts))
    return 2;

  EventDispatcher Dispatcher;
  Tools.attach(Dispatcher);
  StreamRecording Recording;
  if (int Code = Recording.start(Options, *Prog, Dispatcher))
    return Code;

  Machine M(*Prog, &Dispatcher, MachineOpts);
  RunResult Result = M.run();
  if (!Result.Output.empty())
    std::printf("%s", Result.Output.c_str());
  if (!Result.Ok) {
    std::fprintf(stderr, "isprof: guest failed: %s\n",
                 Result.Error.c_str());
    return 1;
  }
  std::printf("[exit %lld; %s instructions, %s basic blocks, %u "
              "threads]\n\n",
              static_cast<long long>(Result.ExitCode),
              formatWithCommas(Result.Stats.Instructions).c_str(),
              formatWithCommas(Result.Stats.BasicBlocks).c_str(),
              static_cast<unsigned>(Result.Stats.ThreadsSpawned));
  if (int Code = Recording.finish())
    return Code;

  std::string HtmlPath = Options.getString("html");
  if (!HtmlPath.empty() && !Tools.writeHtml(HtmlPath, &Prog->Symbols))
    return 1;
  std::optional<std::map<RoutineId, unsigned>> Growth =
      staticGrowthForReports(*Prog, Options);
  Tools.printReports(&Prog->Symbols, Growth ? &*Growth : nullptr);
  return 0;
}

int commandReplay(OptionParser &Options) {
  if (Options.positional().size() < 2) {
    std::fprintf(stderr, "isprof replay: missing stream file\n");
    return 2;
  }
  const std::string &Path = Options.positional()[1];
  ToolSet Tools;
  if (!Tools.create(Options.getString("tools"), Options.getFlag("contexts")))
    return 2;
  TraceStreamReader Reader;
  SymbolTable Symbols;
  if (!openStream(Path, Reader, Symbols))
    return 1;

  // Bounded-memory replay: decode one chunk at a time and publish it to
  // the tools as one batch; with pipelined delivery the tools consume
  // chunk k on a worker while chunk k+1 is decoded here.
  EventDispatcher Dispatcher;
  Tools.attach(Dispatcher);
  Dispatcher.start(&Symbols);
  std::vector<Event> Chunk;
  uint64_t Replayed = 0;
  size_t ErrorChunk = 0;
  while (true) {
    ErrorChunk = Reader.cursor();
    if (!Reader.nextChunk(Chunk))
      break;
    Replayed += Reader.chunkEvents(ErrorChunk);
    Dispatcher.publishChunk(Chunk, Reader.chunkEvents(ErrorChunk));
  }
  bool ReadOk = Reader.error().empty();
  Dispatcher.finish();
  if (!ReadOk) {
    reportStreamError(Path, ErrorChunk, Reader.error());
    return 1;
  }
  std::printf("[replayed %s events from %zu chunk(s)]\n\n",
              formatWithCommas(Replayed).c_str(), Reader.chunkCount());
  Tools.printReports(&Symbols);
  return 0;
}

int commandCheckOrDisasm(OptionParser &Options, bool Disassemble) {
  if (Options.positional().size() < 2) {
    std::fprintf(stderr, "isprof: missing program file\n");
    return 2;
  }
  std::string Source;
  if (!readFile(Options.positional()[1], Source)) {
    std::fprintf(stderr, "isprof: cannot read %s\n",
                 Options.positional()[1].c_str());
    return 1;
  }
  DiagnosticEngine Diags;
  std::optional<Program> Prog = compileProgram(Source, Diags);
  if (!Prog) {
    std::fputs(Diags.render().c_str(), stderr);
    return 1;
  }
  if (Options.getFlag("optimize"))
    optimizeProgram(*Prog);
  if (int Code = runStaticChecks(*Prog, Options))
    return Code;
  if (Disassemble) {
    DisasmAnnotations Notes;
    if (Options.getFlag("annotate-ranges")) {
      analysis::RangeResult RR = analysis::computeRanges(*Prog);
      analysis::EscapeResult Esc = analysis::computeEscape(*Prog);
      for (const auto &[Key, Site] : RR.Sites)
        Notes[Key] = "range=" + Site.Index.str();
      for (const auto &[Key, Site] : RR.Allocas)
        Notes[Key] = "range=" + Site.Size.str();
      for (const analysis::FrameArray &A : Esc.NeverEscaping) {
        std::string &Note = Notes[{A.Fn, A.AllocaPc}];
        if (!Note.empty())
          Note += " ";
        Note += formatString("noescape cells=%llu",
                             static_cast<unsigned long long>(A.Cells));
      }
    }
    std::fputs(disassembleProgram(*Prog, Notes.empty() ? nullptr : &Notes)
                   .c_str(),
               stdout);
  } else
    std::printf("%s: ok (%zu functions, %llu global cells)\n",
                Options.positional()[1].c_str(), Prog->Functions.size(),
                static_cast<unsigned long long>(Prog->GlobalCells));
  return 0;
}

int commandWorkload(OptionParser &Options) {
  if (Options.positional().size() < 2) {
    std::fprintf(stderr, "isprof workload: missing workload name\n");
    return 2;
  }
  const WorkloadInfo *W = findWorkload(Options.positional()[1]);
  if (!W) {
    std::fprintf(stderr, "isprof: unknown workload '%s' (try: isprof "
                         "list)\n",
                 Options.positional()[1].c_str());
    return 1;
  }
  WorkloadParams Params;
  if (!parseIntOption(Options, "threads", 1, MaxUnsigned,
                      "a thread count >= 1", &Params.Threads) ||
      !parseIntOption(Options, "size", 0, MaxInt64, "a size >= 0",
                      &Params.Size))
    return 2;

  std::string Error;
  std::optional<Program> Prog = compileWorkload(*W, Params, &Error);
  if (!Prog) {
    std::fputs(Error.c_str(), stderr);
    return 1;
  }
  // compileWorkload already ran the optimizer, so --optimize has
  // nothing left to do here.
  if (int Code = runStaticChecks(*Prog, Options))
    return Code;
  ToolSet Tools;
  if (!Tools.create(Options.getString("tools"), Options.getFlag("contexts")))
    return 2;
  EventDispatcher Dispatcher;
  Tools.attach(Dispatcher);
  StreamRecording Recording;
  if (int Code = Recording.start(Options, *Prog, Dispatcher))
    return Code;
  MachineOptions MachineOpts;
  if (!parseMachineOptions(Options, &MachineOpts))
    return 2;
  Machine M(*Prog, &Dispatcher, MachineOpts);
  RunResult Result = M.run();
  if (!Result.Ok) {
    std::fprintf(stderr, "isprof: workload failed: %s\n",
                 Result.Error.c_str());
    return 1;
  }
  std::printf("%s[%s: %s instructions, %u threads]\n\n",
              Result.Output.c_str(), W->Name.c_str(),
              formatWithCommas(Result.Stats.Instructions).c_str(),
              static_cast<unsigned>(Result.Stats.ThreadsSpawned));
  if (int Code = Recording.finish())
    return Code;
  std::string HtmlPath = Options.getString("html");
  if (!HtmlPath.empty() && !Tools.writeHtml(HtmlPath, &Prog->Symbols))
    return 1;
  std::optional<std::map<RoutineId, unsigned>> Growth =
      staticGrowthForReports(*Prog, Options);
  Tools.printReports(&Prog->Symbols, Growth ? &*Growth : nullptr);
  return 0;
}

/// Replays the stream at \p Path under aprof-trms; returns false after
/// printing the reader's diagnostic.
bool profileStream(const std::string &Path, ProfileDatabase &DbOut,
                   SymbolTable &SymbolsOut) {
  TraceStreamReader Reader;
  if (!openStream(Path, Reader, SymbolsOut))
    return false;
  TrmsProfiler Profiler;
  if (!replayTraceStream(Reader, Profiler, &SymbolsOut)) {
    reportStreamError(Path, Reader.cursor() - 1, Reader.error());
    return false;
  }
  DbOut = Profiler.takeDatabase();
  return true;
}

/// collect and diff profile streams with a bare aprof-trms, so they
/// refuse `--contexts` rather than ignore it. Returns false after the
/// diagnostic.
bool refuseContexts(const OptionParser &Options, const char *Command) {
  if (!Options.getFlag("contexts"))
    return true;
  std::fprintf(stderr,
               "isprof %s: --contexts applies to run, workload and replay\n",
               Command);
  return false;
}

int commandDiff(OptionParser &Options) {
  if (!refuseContexts(Options, "diff"))
    return 2;
  if (Options.positional().size() < 3) {
    std::fprintf(stderr,
                 "isprof diff: need a baseline and a candidate stream\n");
    return 2;
  }
  ProfileDatabase BaseDb, CandDb;
  SymbolTable BaseSyms, CandSyms;
  if (!profileStream(Options.positional()[1], BaseDb, BaseSyms) ||
      !profileStream(Options.positional()[2], CandDb, CandSyms))
    return 1;
  std::vector<RoutineDiff> Diffs =
      diffProfiles(BaseDb, BaseSyms, CandDb, CandSyms);
  std::printf("%s", renderProfileDiff(Diffs).c_str());
  return hasRegressions(Diffs) ? 3 : 0;
}

/// Expands one `isprof collect` input: a directory is scanned for
/// stream files (by magic), anything else is taken as a stream path.
bool expandCollectInput(const std::string &Input,
                        std::vector<std::string> *Files) {
  std::error_code Ec;
  if (std::filesystem::is_directory(Input, Ec)) {
    std::string Error;
    std::vector<std::string> Found = collect::scanSpoolDir(Input, &Error);
    if (!Error.empty()) {
      std::fprintf(stderr, "isprof: %s\n", Error.c_str());
      return false;
    }
    Files->insert(Files->end(), Found.begin(), Found.end());
    return true;
  }
  Files->push_back(Input);
  return true;
}

/// Echoes every ingestion error recorded since index \p From in the
/// replay diagnostic format (file, failing chunk, reader message).
void reportIngestErrors(const collect::Collector &C, size_t From) {
  const std::vector<collect::StreamIngestError> &Errs = C.errors();
  for (size_t I = From; I != Errs.size(); ++I)
    reportStreamError(Errs[I].File, Errs[I].Chunk, Errs[I].Message);
}

/// Decodes the collect-specific numeric options. Returns false (after a
/// diagnostic) on malformed values.
bool parseCollectOptions(const OptionParser &Options,
                         collect::CollectorOptions *Opts, unsigned *WatchMs,
                         unsigned *TopN) {
  constexpr unsigned MaxWorkers = collect::CollectorOptions::MaxWorkers;
  Opts->RoutineFilter = splitList(Options.getString("routine"));
  Opts->ProgramLabel = Options.getString("program");
  return parseIntOption(Options, "ingest-workers", 0, MaxWorkers,
                        formatString("a worker count in [0, %u]", MaxWorkers),
                        &Opts->Workers) &&
         parseIntOption(Options, "watch", 0, MaxUnsigned,
                        "a non-negative millisecond count", WatchMs) &&
         parseIntOption(Options, "top", 1, MaxUnsigned, "a row count >= 1",
                        TopN);
}

/// `isprof collect --diff A B`: ingests both stream sets (each a file
/// or a spool directory) and compares their fleet stores.
int collectDiff(OptionParser &Options, const collect::CollectorOptions &Opts) {
  if (Options.positional().size() < 3) {
    std::fprintf(stderr, "isprof collect --diff: need a baseline and a "
                         "candidate (stream file or spool dir)\n");
    return 2;
  }
  collect::FleetStore Stores[2];
  for (int Side = 0; Side != 2; ++Side) {
    std::vector<std::string> Files;
    if (!expandCollectInput(Options.positional()[1 + Side], &Files))
      return 1;
    collect::Collector C(Opts, Stores[Side]);
    C.ingestFiles(Files);
    reportIngestErrors(C, 0);
    if (C.totals().StreamsFailed > 0)
      return 1;
    if (C.totals().Streams == 0) {
      std::fprintf(stderr, "isprof: no streams ingested from %s\n",
                   Options.positional()[1 + Side].c_str());
      return 1;
    }
  }
  std::vector<collect::FleetRoutineDelta> Deltas =
      collect::diffFleetStores(Stores[0], Stores[1]);
  std::printf("%s", collect::renderFleetDiff(Deltas).c_str());
  return collect::hasFleetRegressions(Deltas) ? 3 : 0;
}

int commandCollect(OptionParser &Options) {
  if (!refuseContexts(Options, "collect"))
    return 2;
  collect::CollectorOptions Opts;
  unsigned WatchMs = 0, TopN = 10;
  if (!parseCollectOptions(Options, &Opts, &WatchMs, &TopN))
    return 2;
  if (Options.getFlag("diff"))
    return collectDiff(Options, Opts);

  std::string Spool = Options.getString("spool");
  if (Options.positional().size() < 2 && Spool.empty()) {
    std::fprintf(stderr,
                 "isprof collect: need stream files and/or --spool=DIR\n");
    return 2;
  }
  std::vector<std::string> Explicit;
  for (size_t I = 1; I != Options.positional().size(); ++I)
    if (!expandCollectInput(Options.positional()[I], &Explicit))
      return 1;

  collect::FleetStore Store;
  collect::Collector C(Opts, Store);
  std::set<std::string> Seen;
  for (;;) {
    std::vector<std::string> Batch;
    for (const std::string &File : Explicit)
      if (Seen.insert(File).second)
        Batch.push_back(File);
    if (!Spool.empty()) {
      std::string Error;
      for (const std::string &File : collect::scanSpoolDir(Spool, &Error))
        if (Seen.insert(File).second)
          Batch.push_back(File);
      if (!Error.empty()) {
        std::fprintf(stderr, "isprof: %s\n", Error.c_str());
        return 1;
      }
    }
    size_t ErrorsBefore = C.errors().size();
    if (!Batch.empty())
      C.ingestFiles(Batch);
    reportIngestErrors(C, ErrorsBefore);
    // Watch mode keeps polling the spool until a stop file appears; a
    // single pass otherwise.
    if (Spool.empty() || WatchMs == 0)
      break;
    std::error_code Ec;
    if (std::filesystem::exists(Spool + "/collector.stop", Ec))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(WatchMs));
  }

  const collect::CollectorTotals &T = C.totals();
  std::printf("[collector: %s stream(s) ingested, %s failed, %s chunks "
              "read, %s skipped, %s events, merge %s]\n\n",
              formatWithCommas(T.Streams).c_str(),
              formatWithCommas(T.StreamsFailed).c_str(),
              formatWithCommas(T.ChunksRead).c_str(),
              formatWithCommas(T.ChunksSkipped).c_str(),
              formatWithCommas(T.Events).c_str(),
              formatDuration(T.MergeNs).c_str());
  std::string GrowthSource = Options.getString("growth-source");
  if (GrowthSource.empty()) {
    std::printf("%s", Store.renderRollup(TopN).c_str());
  } else {
    std::string Source;
    if (!readFile(GrowthSource, Source)) {
      std::fprintf(stderr, "isprof: cannot read %s\n",
                   GrowthSource.c_str());
      return 1;
    }
    DiagnosticEngine Diags;
    std::optional<Program> Prog = compileProgram(Source, Diags);
    if (!Prog) {
      std::fputs(Diags.render().c_str(), stderr);
      return 1;
    }
    std::map<RoutineId, unsigned> ById = analysis::estimateGrowth(*Prog);
    // The fleet store keys routines by name, so re-key (max-merging
    // any duplicate names to stay an upper bound).
    std::map<std::string, unsigned> ByName;
    for (const Function &Fn : Prog->Functions) {
      auto It = ById.find(Fn.Id);
      if (It == ById.end())
        continue;
      unsigned &Degree = ByName[Fn.Name];
      Degree = std::max(Degree, It->second);
    }
    std::printf("%s", Store.renderRollup(TopN, ByName).c_str());
  }
  std::string Curve = Options.getString("curve");
  if (!Curve.empty())
    std::printf("\n%s", Store.renderCurve(Curve).c_str());
  return T.StreamsFailed > 0 ? 1 : 0;
}

int commandList() {
  std::printf("tools:\n");
  for (const std::string &Name : allToolNames())
    std::printf("  %s\n", Name.c_str());
  std::printf("\nworkloads:\n");
  for (const WorkloadInfo &W : allWorkloads())
    std::printf("  %-18s (%s) %s\n", W.Name.c_str(), W.Suite.c_str(),
                W.Description.c_str());
  return 0;
}

int runCommand(const std::string &Command, OptionParser &Options) {
  if (Command == "run")
    return commandRun(Options);
  if (Command == "diff")
    return commandDiff(Options);
  if (Command == "replay")
    return commandReplay(Options);
  if (Command == "collect")
    return commandCollect(Options);
  if (Command == "check")
    return commandCheckOrDisasm(Options, /*Disassemble=*/false);
  if (Command == "disasm")
    return commandCheckOrDisasm(Options, /*Disassemble=*/true);
  if (Command == "workload")
    return commandWorkload(Options);
  if (Command == "list")
    return commandList();
  std::fprintf(stderr, "isprof: unknown command '%s'\n", Command.c_str());
  return usage();
}

} // namespace

int main(int Argc, char **Argv) {
  OptionParser Options("isprof: input-sensitive profiling toolkit");
  Options.addOption("tools", "aprof-trms", "comma-separated tool list");
  Options.addOption("record", "",
                    "stream the event trace to this path as a chunked "
                    "file while the guest runs (bounded memory)");
  Options.addOption("html", "", "write an HTML profile report (needs an "
                                "aprof tool in --tools)");
  Options.addFlag("contexts", "(run, workload, replay) profile per "
                              "calling context instead of per routine");
  Options.addFlag("optimize", "run the bytecode peephole optimizer "
                              "(profiles are unaffected by design; "
                              "workloads always run optimized)");
  Options.addFlag("verify-bytecode",
                  "run the static bytecode verifier (stack discipline, "
                  "jump targets, operand bounds) and refuse to run on "
                  "failure");
  Options.addFlag("lint", "run the static lockset lint and print a "
                          "drd-style report of globals shared across "
                          "threads with no consistent lock");
  Options.addFlag("lint-bounds",
                  "run the static bounds lint and report provably "
                  "out-of-range indices and possible index overflow");
  Options.addFlag("growth-check",
                  "(run, workload) add static-vs-dynamic growth "
                  "agreement columns to profile summaries and warn on "
                  "contradictions");
  Options.addFlag("annotate-ranges",
                  "(disasm) annotate indirect-access and alloca sites "
                  "with inferred value ranges and escape facts");
  Options.addOption("growth-source", "",
                    "(collect) compile this guest source and cross-check "
                    "its static growth classes against the rollup");
  Options.addOption("slice", "150", "scheduler quantum (instructions)");
  Options.addOption("seed", "42", "guest rand()/device seed");
  Options.addOption("threads", "4", "workload thread count");
  Options.addOption("size", "64", "workload problem scale");
  Options.addOption("stats", "off",
                    "dump pipeline self-metrics: json, csv, or off");
  Options.addOption("stats-out", "",
                    "write --stats output to this path instead of stdout");
  Options.addOption("stats-interval", "",
                    "with --stats=json --stats-out=PATH: append a live "
                    "JSONL snapshot to PATH.live every N milliseconds");
  Options.addOption("stream-chunk-bytes", "65536",
                    "(--record) target chunk payload size in "
                    "bytes (power of two in [1024, 1048576])");
  Options.addOption("spool", "",
                    "(collect) also ingest every stream file in this "
                    "directory");
  Options.addOption("watch", "0",
                    "(collect, with --spool) poll the spool every N "
                    "milliseconds until <spool>/collector.stop appears");
  Options.addOption("ingest-workers", "0",
                    "(collect) concurrent ingestion threads (0 = auto)");
  Options.addOption("routine", "",
                    "(collect) comma-separated routine filter; provably "
                    "excluded chunks are skipped via activity masks");
  Options.addOption("program", "",
                    "(collect) program label for ingested streams "
                    "(default: each file's stem)");
  Options.addOption("top", "10", "(collect) rollup rows to print");
  Options.addOption("curve", "",
                    "(collect) also print this routine's full per-rms "
                    "cost curve");
  Options.addFlag("diff", "(collect) compare two stream sets: "
                          "collect --diff BASE CAND");
  Options.addOption("trace-out", "", "write a chrome://tracing / Perfetto "
                                     "timeline of the pipeline to this path");
  if (!Options.parse(Argc, Argv))
    return 2;
  if (Options.positional().empty())
    return usage();

  std::string StatsMode = Options.getString("stats");
  if (StatsMode != "off" && StatsMode != "json" && StatsMode != "csv") {
    std::fprintf(stderr,
                 "isprof: invalid --stats value '%s' (expected json, csv, "
                 "or off)\n",
                 StatsMode.c_str());
    return 2;
  }
  std::string TraceOut = Options.getString("trace-out");
  if (StatsMode != "off")
    obs::setStatsEnabled(true);
  if (!TraceOut.empty())
    obs::TraceLog::get().enable();

  std::string StatsOut = Options.getString("stats-out");
  unsigned StatsIntervalMs = 0;
  if (!Options.getString("stats-interval").empty()) {
    if (!parseIntOption(Options, "stats-interval", 1, MaxUnsigned,
                        "a positive millisecond count", &StatsIntervalMs))
      return 2;
    if (StatsMode != "json" || StatsOut.empty()) {
      std::fprintf(stderr, "isprof: --stats-interval requires --stats=json "
                           "and --stats-out=PATH\n");
      return 2;
    }
  }
  obs::StatsHeartbeat Heartbeat;
  if (StatsIntervalMs != 0 &&
      !Heartbeat.start(StatsOut + ".live", StatsIntervalMs)) {
    std::fprintf(stderr, "isprof: cannot write live stats to %s.live\n",
                 StatsOut.c_str());
    return 2;
  }

  const std::string &Command = Options.positional()[0];
  int Code;
  {
    // Driver-level phase accounting: one span for the whole command on a
    // dedicated timeline lane, and the command wall-time as a counter.
    obs::ScopedTimer Timer(
        obs::statsEnabled()
            ? &obs::Registry::get().counter("driver.command_ns")
            : nullptr);
    obs::LaneId DriverLane =
        obs::tracingEnabled() ? obs::TraceLog::get().allocLane("driver") : 0;
    obs::ScopedSpan Span(DriverLane, "command " + Command, "driver");
    Code = runCommand(Command, Options);
  }
  Heartbeat.stop();

  if (obs::statsEnabled()) {
    struct rusage Usage;
    if (getrusage(RUSAGE_SELF, &Usage) == 0)
      obs::Registry::get()
          .gauge("process.peak_rss_bytes")
          .noteMax(static_cast<uint64_t>(Usage.ru_maxrss) * 1024);
    if (!obs::writeStatsFile(StatsOut, StatsMode == "json"
                                           ? obs::StatsFormat::Json
                                           : obs::StatsFormat::Csv)) {
      std::fprintf(stderr, "isprof: cannot write stats to %s\n",
                   StatsOut.c_str());
      if (Code == 0)
        Code = 1;
    }
  }
  if (!TraceOut.empty()) {
    if (!obs::TraceLog::get().write(TraceOut)) {
      std::fprintf(stderr, "isprof: cannot write timeline to %s\n",
                   TraceOut.c_str());
      if (Code == 0)
        Code = 1;
    } else {
      std::printf("[timeline: %zu events -> %s]\n",
                  obs::TraceLog::get().eventCount(), TraceOut.c_str());
    }
  }
  return Code;
}
