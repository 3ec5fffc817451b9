//===- tools/ToolRegistry.h - Analysis tool factory -------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Creates analysis tools by name. Shared by the benchmark harnesses and
/// the isprof command-line driver, so every surface exposes the same
/// tool line-up: the Table 1 set (nulgrind, memcheck, callgrind,
/// helgrind, aprof-rms, aprof-trms) plus the extras (drd, cct,
/// aprof-trms-naive).
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_TOOLS_TOOLREGISTRY_H
#define ISPROF_TOOLS_TOOLREGISTRY_H

#include "instr/Tool.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace isp {

class SymbolTable;

/// Creates a fresh tool by name; null for "native" or unknown names
/// (check knownToolName first to distinguish).
std::unique_ptr<Tool> makeTool(const std::string &Name);

/// True when \p Name names a creatable tool or "native".
bool knownToolName(const std::string &Name);

/// All creatable tool names (excluding "native"), registry order.
const std::vector<std::string> &allToolNames();

/// Renders \p T's end-of-run report (error lists, profiles, race
/// reports). Falls back to a one-line footprint summary for tools
/// without a specific report. \p StaticGrowth, when non-null, adds the
/// static-vs-dynamic growth agreement columns to profile summaries
/// (--growth-check).
std::string renderToolReport(Tool &T, const SymbolTable *Symbols,
                             const std::map<RoutineId, unsigned>
                                 *StaticGrowth = nullptr);

} // namespace isp

#endif // ISPROF_TOOLS_TOOLREGISTRY_H
