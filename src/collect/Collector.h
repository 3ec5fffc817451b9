//===- collect/Collector.h - Multi-stream fleet ingestion -------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector's ingestion engine: many recorded ISPSTM streams —
/// named explicitly or discovered in a spool directory — are replayed
/// concurrently, each through its own aprof-trms profiler. The profiler
/// hands each completed activation to the stream's StreamRollup, which
/// folds it by routine id as it completes; once the ingest has joined,
/// the rollups merge into a shared FleetStore by routine name. Each ingest
/// pipelines its stream (decode on the ingest thread, profile on a
/// dispatcher worker) while 2 x ingest workers <= hardware threads. A
/// corrupt stream is reported (file + failing chunk, the stream
/// reader's diagnostics) and contributes nothing; it never poisons the
/// rollup.
///
/// When a routine filter is set, chunks whose 64-bit routine mask
/// provably excludes every filtered routine are skipped without
/// decoding — but only while no filtered activation is in flight, so
/// everything between a filtered Call and its Return always replays. A
/// per-thread shadow stack of forwarded calls reconciles the holes
/// skipping tears in the stream: Returns that close frames opened inside
/// skipped chunks are dropped before dispatch, keeping the replayed call
/// stack consistent and the filtered routines' rms and cost exact. The
/// per-chunk written-shard masks keep trms exact too: a chunk is only
/// skipped when, additionally, none of its written shards appears in any
/// later filtered-Call chunk's activity mask (a backward suffix-union
/// over the index), so the shadow-timestamp history behind every
/// retained induced first-access is preserved — up to one residual
/// corner where an activation's mask-invisible continuation chunks read
/// shards no filtered-Call chunk touches. The masks are covered by the
/// stream's metadata checksum, so a mask altered on disk fails the
/// stream instead of silently dropping activations.
///
/// Observability: the `collector.*` metric family (streams, chunks
/// read/skipped, decode errors, merge time, store size) and one
/// Chrome-trace lane per ingested stream.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_COLLECT_COLLECTOR_H
#define ISPROF_COLLECT_COLLECTOR_H

#include "collect/FleetStore.h"

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace isp::collect {

struct CollectorOptions {
  /// Concurrent ingestion threads. 0, which `isprof collect` always
  /// uses, sizes the pool to min(streams, hardware_concurrency), capped
  /// at MaxWorkers; tests set it to force serial or concurrent ingest.
  unsigned Workers = 0;
  static constexpr unsigned MaxWorkers = 64;
  /// Restrict the rollup to these routine names (and skip provably
  /// excluded chunks). Empty ingests everything.
  std::vector<std::string> RoutineFilter;
  /// Program label for every ingested stream; empty labels each stream
  /// by its file stem ("spool/md-3.strm" -> "md-3").
  std::string ProgramLabel;
};

/// One failed stream: which file, which chunk, what the reader said.
struct StreamIngestError {
  std::string File;
  size_t Chunk = 0;
  std::string Message;
};

/// Commutative ingestion tallies (exported as collector.* metrics).
struct CollectorTotals {
  uint64_t Streams = 0;       ///< ingested and merged successfully
  uint64_t StreamsFailed = 0; ///< reported and skipped
  uint64_t ChunksRead = 0;
  uint64_t ChunksSkipped = 0; ///< excluded via the activity masks
  uint64_t Events = 0;
  uint64_t MergeNs = 0;  ///< wall time inside store merges
  uint64_t IngestNs = 0; ///< wall time of the whole ingestFiles call
};

class Collector {
public:
  Collector(const CollectorOptions &Opts, FleetStore &Store)
      : Opts(Opts), Store(Store) {}

  /// Ingests every file, fanning out across the configured worker
  /// count. Returns the number of streams merged successfully; failures
  /// land in errors(). Publishes collector.* metrics when stats are
  /// enabled. Callable repeatedly (spool watching); totals accumulate.
  size_t ingestFiles(const std::vector<std::string> &Files);

  const CollectorTotals &totals() const { return Totals; }
  const std::vector<StreamIngestError> &errors() const { return Errors; }

private:
  /// Ingests one stream through a dispatcher given \p ThreadBudget
  /// hardware threads (its share of the host).
  bool ingestOne(const std::string &Path, unsigned ThreadBudget);

  CollectorOptions Opts;
  FleetStore &Store;
  CollectorTotals Totals;
  std::vector<StreamIngestError> Errors;
  /// Guards Store, Totals, and Errors during concurrent ingestion.
  std::mutex Mutex;
};

/// Chunked stream files directly inside \p Dir (identified by the magic
/// prefix every stream version shares, any extension), sorted by name
/// for determinism. A stream of a version the reader does not accept is
/// listed, so ingesting it fails loudly. Returns an empty list and sets
/// \p Error when the directory cannot be read.
std::vector<std::string> scanSpoolDir(const std::string &Dir,
                                      std::string *Error);

} // namespace isp::collect

#endif // ISPROF_COLLECT_COLLECTOR_H
