//===- analysis/PointsTo.h - Andersen-style points-to -----------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flow- and context-insensitive inclusion-based (Andersen) points-to
/// analysis over a whole compiled Program. Abstract objects are the
/// three kinds of addressable storage a guest can obtain a base pointer
/// to: global array storage (layout in Program::GlobalArrays), heap
/// allocation sites (CallBuiltin Alloc), and frame array sites
/// (AllocaArray). Pointer values propagate through locals, global
/// cells, call arguments/returns and memory via the classic four
/// constraint forms (addr-of, copy, load, store); field-insensitive —
/// one summary node per object.
///
/// Provenance semantics: a value's points-to set tracks which objects
/// its address *provenance* may derive from. The empty set means
/// "no tracked provenance" — either a plain integer or an address
/// forged via arithmetic the analysis does not model. Clients must
/// treat empty-set bases as unknown (may point anywhere), never as
/// "points nowhere". This is the standard conservative reading for a
/// language where integers and addresses share one type.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_ANALYSIS_POINTSTO_H
#define ISPROF_ANALYSIS_POINTSTO_H

#include "vm/Bytecode.h"

#include <cstdint>
#include <map>
#include <vector>

namespace isp {
namespace analysis {

/// One abstract storage object.
struct AbstractObject {
  enum class Kind { GlobalArray, HeapSite, AllocaSite };
  Kind K = Kind::HeapSite;
  /// GlobalArray: index into Program::GlobalArrays. Sites: function and
  /// instruction of the allocating op.
  size_t ArrayIndex = 0;
  size_t Fn = 0;
  size_t Pc = 0;
  /// Storage extent in cells; 0 when not statically known (dynamic
  /// alloc sizes).
  uint64_t Cells = 0;
};

/// Per indirect-access site (LoadIndirect/StoreIndirect): what the base
/// operand may point to.
struct SiteFacts {
  /// True when the base has tracked provenance (non-empty object set).
  bool BaseKnown = false;
  bool IsStore = false;
  std::vector<uint32_t> Objects; ///< ids into PointsToResult::Objects
};

struct PointsToResult {
  std::vector<AbstractObject> Objects;
  /// Keyed by (function index, instruction index).
  std::map<std::pair<size_t, size_t>, SiteFacts> Sites;
  /// Total points-to facts (sum of all solved set sizes) — exported as
  /// analysis.points_to_facts.
  uint64_t TotalFacts = 0;
  /// True when some store's target has no tracked provenance (a raw
  /// `store(addr, v)` builtin or an untracked StoreIndirect base) — any
  /// named cell may have been overwritten.
  bool HasWildStore = false;

  const SiteFacts *siteFacts(size_t Fn, size_t Pc) const {
    auto It = Sites.find({Fn, Pc});
    return It == Sites.end() ? nullptr : &It->second;
  }
};

/// Runs the analysis. The program must be structurally valid (verifier
/// phase 0 + depth discipline); compiler output and optimizer output
/// both qualify. Folds analysis.points_to_facts and a pass timer into
/// the obs registry when stats are enabled.
PointsToResult computePointsTo(const Program &Prog);

} // namespace analysis
} // namespace isp

#endif // ISPROF_ANALYSIS_POINTSTO_H
