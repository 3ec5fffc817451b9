//===- perfbench/SpanLog.h - Benchmark-side call spans ----------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced benchmark run's own span recorder. Spans are taken around
/// the calls the benchmark makes into each layer's public functions —
/// never inside the program — and kept in memory until the run writes
/// them out as Chrome trace_event JSON (Perfetto and chrome://tracing
/// open it). Each span has a name, start, end, parent and the id of the
/// repetition it belongs to.
///
/// Calls too frequent to log one by one (RecordSink::recordBatch runs
/// once per dispatcher flush) are summed by the caller and added as one
/// aggregate child span that carries its call count.
///
/// A disabled log records nothing and never reads the clock.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_PERFBENCH_SPANLOG_H
#define ISPROF_PERFBENCH_SPANLOG_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace isp::bench {

inline uint64_t steadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanLog {
public:
  static constexpr int NoSpan = -1;

  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span under the innermost open one; returns its id.
  int begin(const std::string &Name, unsigned Rep) {
    if (!Enabled)
      return NoSpan;
    int Parent = Open.empty() ? NoSpan : Open.back();
    Spans.push_back({Name, steadyNs(), 0, Parent, Rep, 1});
    Open.push_back(static_cast<int>(Spans.size() - 1));
    return Open.back();
  }

  /// Closes span \p Id (the innermost open span).
  void end(int Id) {
    if (Id == NoSpan)
      return;
    Spans[Id].EndNs = steadyNs();
    Open.pop_back();
  }

  /// Adds a child of \p Parent covering \p Ns nanoseconds summed over
  /// \p Calls calls, laid out from the parent's start.
  void addAggregate(int Parent, const std::string &Name, uint64_t Ns,
                    uint64_t Calls) {
    if (Parent == NoSpan)
      return;
    const Span &P = Spans[Parent];
    Spans.push_back({Name, P.StartNs, P.StartNs + Ns, Parent, P.Rep, Calls});
  }

  /// Self time by span name, summed over every span of \p Rep: each
  /// span's duration minus the part its children cover.
  std::map<std::string, double> selfSecondsByName(unsigned Rep) const {
    std::vector<uint64_t> ChildNs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent != NoSpan)
        ChildNs[S.Parent] += S.EndNs - S.StartNs;
    std::map<std::string, double> Out;
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      if (S.Rep != Rep)
        continue;
      uint64_t Dur = S.EndNs - S.StartNs;
      uint64_t Self = Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
      Out[S.Name] += static_cast<double>(Self) * 1e-9;
    }
    return Out;
  }

  /// Writes every span as a Chrome trace_event "X" record. Returns false
  /// when \p Path cannot be written.
  bool writeChromeTrace(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
    std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"rep\":%u,\"calls\":%llu}}",
                   I ? "," : "", S.Name.c_str(), S.Rep + 1,
                   static_cast<double>(S.StartNs - Origin) * 1e-3,
                   static_cast<double>(S.EndNs - S.StartNs) * 1e-3, I,
                   S.Parent, S.Rep, static_cast<unsigned long long>(S.Calls));
    }
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

private:
  struct Span {
    std::string Name;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    int Parent = NoSpan;
    unsigned Rep = 0;
    uint64_t Calls = 1;
  };

  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, const std::string &Name, unsigned Rep)
      : Log(Log), Id(Log.begin(Name, Rep)) {}
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  ~ScopedSpan() { Log.end(Id); }

  int id() const { return Id; }

private:
  SpanLog &Log;
  int Id;
};

} // namespace isp::bench

#endif // ISPROF_PERFBENCH_SPANLOG_H
