//===- analysis/Range.h - Interprocedural value-range analysis --*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprocedural integer interval analysis over compiled guest
/// programs, plus the three clients built on it:
///
///  - per-site index/size intervals for every LoadIndirect /
///    StoreIndirect / AllocaArray (consumed by the optimizer's
///    range-based quiet pass, the bounds lint, and the verifier's
///    constant-foldable index rejection),
///  - the covered-read certificate: LoadIndirect sites provably
///    re-reading cells a dominating counting loop already wrote into a
///    never-escaping frame array (Escape.h) — safe to quiet-mark,
///  - a static growth estimator: per-routine loop-nesting degree
///    propagated over the call graph, cross-checked by report/collect
///    against the measured log-log alpha.
///
/// Lattice: intervals [Lo, Hi] over int64 with INT64_MIN/INT64_MAX as
/// -inf/+inf sentinels; arithmetic saturates, and saturation of a
/// *finite* computation sets a sticky Saturated flag (the "possible
/// index overflow" lint signal — sentinel/widening infinities do not
/// set it). The intraprocedural solve is a forward dataflow over
/// (locals, operand stack) with branch refinement on comparison-fed
/// conditional jumps; widening (after 3 joins, changed bound to
/// infinity) applies only at multi-predecessor blocks inside cycles,
/// which every reachable cycle must contain, so the infinite lattice
/// still reaches a fixpoint. Interprocedurally, parameter and return
/// intervals are joined over all call/spawn sites to a bounded-round
/// fixpoint (everything still moving at the cap widens to top).
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_ANALYSIS_RANGE_H
#define ISPROF_ANALYSIS_RANGE_H

#include "analysis/Escape.h"
#include "analysis/PointsTo.h"
#include "vm/Bytecode.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace isp {
namespace analysis {

/// An integer interval with infinity sentinels and a sticky overflow
/// flag. The default-constructed value is top ([-inf, +inf]).
struct Interval {
  static constexpr int64_t NegInf = INT64_MIN;
  static constexpr int64_t PosInf = INT64_MAX;

  int64_t Lo = NegInf;
  int64_t Hi = PosInf;
  /// A finite computation feeding this value overflowed int64 and was
  /// saturated — the result is still a sound bound, but the concrete
  /// machine value may have wrapped.
  bool Saturated = false;

  static Interval top() { return {}; }
  static Interval constant(int64_t V) { return {V, V, false}; }
  static Interval range(int64_t Lo, int64_t Hi) { return {Lo, Hi, false}; }

  bool isTop() const { return Lo == NegInf && Hi == PosInf; }
  bool isConst() const { return Lo == Hi && Lo != NegInf && Lo != PosInf; }
  bool contains(int64_t V) const { return Lo <= V && V <= Hi; }
  /// Entirely inside [0, Cells)?
  bool within(uint64_t Cells) const {
    return Lo >= 0 && Hi != PosInf &&
           static_cast<uint64_t>(Hi) < Cells;
  }
  bool operator==(const Interval &O) const {
    return Lo == O.Lo && Hi == O.Hi && Saturated == O.Saturated;
  }

  /// Renders "[lo,hi]" with "-inf"/"+inf" for the sentinels.
  std::string str() const;
};

Interval intervalJoin(const Interval &A, const Interval &B);
Interval intervalAdd(const Interval &A, const Interval &B);
Interval intervalSub(const Interval &A, const Interval &B);
Interval intervalMul(const Interval &A, const Interval &B);
Interval intervalDiv(const Interval &A, const Interval &B);
Interval intervalMod(const Interval &A, const Interval &B);
Interval intervalNeg(const Interval &A);

/// Facts at one LoadIndirect/StoreIndirect site.
struct IndirectSiteRange {
  Interval Index;
  bool IsStore = false;
  /// Syntactic base provenance within the block, when the base operand
  /// is directly a LoadLocal (slot) or LoadGlobal (cell); -1 otherwise.
  /// Points-to (PointsTo.h) supplies the object-level provenance.
  int64_t BaseLocalSlot = -1;
  int64_t BaseGlobalCell = -1;
};

/// Facts at one AllocaArray site.
struct AllocaSiteRange {
  Interval Size;
};

/// Facts at one sysread(fd, buf, n) site — the only builtin whose
/// kernel side *writes* guest memory; the covered-read certificate must
/// bound where those writes can land.
struct KernelWriteSite {
  int64_t BufGlobalCell = -1; ///< buf operand when a direct LoadGlobal
  Interval Count;
};

/// Stabilized per-function parameter/return intervals.
struct FunctionRanges {
  std::vector<Interval> Params;
  Interval Return;
  /// False when no call/spawn site for the function was seen (its
  /// params stayed unconstrained-by-evidence and were left top).
  bool Called = false;
};

struct RangeResult {
  /// Keyed by (function index, instruction index).
  std::map<std::pair<size_t, size_t>, IndirectSiteRange> Sites;
  std::map<std::pair<size_t, size_t>, AllocaSiteRange> Allocas;
  std::map<std::pair<size_t, size_t>, KernelWriteSite> KernelWrites;
  std::vector<FunctionRanges> Functions;
  /// Non-trivial intervals recorded — exported as analysis.range_facts.
  uint64_t Facts = 0;

  const IndirectSiteRange *site(size_t Fn, size_t Pc) const {
    auto It = Sites.find({Fn, Pc});
    return It == Sites.end() ? nullptr : &It->second;
  }
  const AllocaSiteRange *allocaSite(size_t Fn, size_t Pc) const {
    auto It = Allocas.find({Fn, Pc});
    return It == Allocas.end() ? nullptr : &It->second;
  }
};

/// Runs the interprocedural solve. Functions that fail the structural
/// or stack-depth checks are skipped (their sites stay unrecorded =
/// unknown). Folds analysis.range_facts and the analysis.range_ns pass
/// timer into the obs registry when stats are enabled.
RangeResult computeRanges(const Program &Prog);

/// The covered-read certificate: returns the (fn, pc) LoadIndirect
/// sites whose event is provably redundant on *every* execution — the
/// accessed cell belongs to a never-escaping frame array, a dominating
/// counting loop wrote all of [0, Cells) before the read, the read's
/// index stays within [0, Cells), and no store anywhere in the program
/// (guest or kernel) can touch the array's storage or the owning
/// frame's slots from outside. Such reads are safe to quiet-mark: the
/// suppressed event cannot change any tool's observable state (see
/// DESIGN.md, "Value ranges & escape").
std::vector<std::pair<size_t, size_t>>
coveredIndirectReads(const Program &Prog, const PointsToResult &PT,
                     const EscapeResult &Esc, const RangeResult &RR);

/// One bounds-lint warning.
struct BoundsWarning {
  size_t Fn = 0;
  size_t Pc = 0;
  std::string Message;
};

/// Same rendering shape as the lockset lint ("lint: N location(s)..."),
/// so CI can artifact both reports the same way:
///   "bounds lint: N warning(s)\n"
///   "  fn+pc: message\n" ...
struct BoundsReport {
  std::vector<BoundsWarning> Warnings;
  std::string render(const Program &Prog) const;
};

/// Flags provably-out-of-range indices (index interval disjoint from
/// [0, extent) of every object the base may point to) and possible
/// index overflow (saturated finite arithmetic feeding an index).
/// Definite-only by design: intervals that merely *may* exceed the
/// extent stay silent, so lint-clean programs stay lint-clean. Folds
/// analysis.bounds_warnings and a pass timer into the obs registry.
BoundsReport runBoundsLint(const Program &Prog, const PointsToResult &PT,
                           const RangeResult &RR);
/// Convenience overload that computes points-to and ranges itself.
BoundsReport runBoundsLint(const Program &Prog);

/// Static growth degree per routine: maximum loop-nesting depth, with
/// call sites contributing depth-at-site + callee degree over a
/// call-graph fixpoint. Spawn sites contribute nothing (the callee's
/// cost runs on another thread). Degrees cap at 3 (recursion pins the
/// cap). Keyed by Function::Id, i.e. the profiler's RoutineId.
std::map<RoutineId, unsigned> estimateGrowth(const Program &Prog);

} // namespace analysis
} // namespace isp

#endif // ISPROF_ANALYSIS_RANGE_H
