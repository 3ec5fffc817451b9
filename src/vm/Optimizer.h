//===- vm/Optimizer.h - Bytecode peephole optimizer -------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A peephole optimizer over compiled guest bytecode: constant folding
/// of arithmetic/comparison/logic over literals, folding of ToBool and
/// conditional jumps on constants, jump threading, and compaction of
/// the resulting dead slots (with jump-target remapping) — plus a
/// *quiet-access* pass that marks provably redundant local accesses so
/// the VM can skip their instrumentation events.
///
/// The peephole passes never touch memory instructions or
/// Op::BasicBlock markers, so each *thread's* event sequence — its
/// memory accesses, calls, and basic-block counts — is identical to the
/// unoptimized program's; only the interpreter's instruction count (and
/// hence native time) drops. For multithreaded programs the per-thread
/// streams are preserved but their interleaving can shift (scheduler
/// quanta are counted in instructions), exactly as if the program ran
/// under a different slice length — synchronized guests still compute
/// identical results.
///
/// The quiet-access pass additionally suppresses *events* (never the
/// accesses themselves): within one straight-line window — broken by
/// jump targets, unconditional jumps, calls, builtins, spawns, and
/// returns — a repeated read of a local slot or named global cell
/// already read or written, or a repeated write of one already written.
/// Such an event finds every per-address tool state (access timestamps,
/// write timestamps, definedness, locksets) already current, because
/// tool counters only advance at events the window-breaking
/// instructions (or the scheduler) produce. It is still not a no-op for
/// every tool: helgrind reports every racy access, so a quiet re-read of
/// a racy cell drops that re-read's race report (DESIGN.md,
/// "Event-pipeline fast path"). Windows span BasicBlock markers and
/// conditional fall-through edges: block costs accumulate without a
/// counter bump, and code after an untaken branch still postdominates
/// the window's earlier accesses in execution order. The VM honors
/// quiet marks only while no scheduler switch has interrupted the
/// window (Machine::WindowInterrupted), covering the one interruption
/// the static pass cannot see. aprof profiles are bit-identical with or
/// without the pass (tested); stream-level statistics (event counts)
/// legitimately drop.
///
/// Indirect accesses get marks from one source only: the
/// interprocedural covered-read certificate (analysis/Range.h), which
/// marks variable-index re-reads of never-escaping frame arrays —
/// stack cells that memcheck does not check and that no other thread
/// can reach. optimizeProgram runs the points-to, escape and range
/// analyses for it alone.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_VM_OPTIMIZER_H
#define ISPROF_VM_OPTIMIZER_H

#include "vm/Bytecode.h"

namespace isp {

struct OptimizerStats {
  unsigned ConstantsFolded = 0;
  unsigned JumpsThreaded = 0;
  unsigned BranchesResolved = 0;
  unsigned InstructionsRemoved = 0;
  /// Accesses whose instrumentation events are provably redundant
  /// within their straight-line window (the access still executes).
  /// Counts direct and certificate marks; the next field is the
  /// certificate subset.
  unsigned QuietAccessesMarked = 0;
  /// Variable-index LoadIndirect sites marked quiet by the
  /// interprocedural covered-read certificate (Range.h): the only
  /// indirect marks (a subset of QuietAccessesMarked).
  unsigned RangeQuietMarked = 0;
};

/// Optimizes every function of \p Prog in place; returns summed stats.
OptimizerStats optimizeProgram(Program &Prog);

} // namespace isp

#endif // ISPROF_VM_OPTIMIZER_H
