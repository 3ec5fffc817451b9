//===- tools/ToolRegistry.cpp - Analysis tool factory ----------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "tools/ToolRegistry.h"

#include "core/NaiveProfiler.h"
#include "core/Report.h"
#include "core/RmsProfiler.h"
#include "core/TrmsProfiler.h"
#include "support/Format.h"
#include "tools/CallgrindTool.h"
#include "tools/CctTool.h"
#include "tools/DrdTool.h"
#include "tools/HelgrindTool.h"
#include "tools/MemcheckTool.h"
#include "tools/NulTool.h"

using namespace isp;

const std::vector<std::string> &isp::allToolNames() {
  static const std::vector<std::string> Names = {
      "nulgrind",  "memcheck",   "callgrind", "helgrind", "drd",
      "cct",       "aprof-rms",  "aprof-trms", "aprof-trms-naive"};
  return Names;
}

bool isp::knownToolName(const std::string &Name) {
  if (Name == "native")
    return true;
  for (const std::string &Known : allToolNames())
    if (Known == Name)
      return true;
  return false;
}

std::unique_ptr<Tool> isp::makeTool(const std::string &Name) {
  if (Name == "nulgrind")
    return std::make_unique<NulTool>();
  if (Name == "memcheck")
    return std::make_unique<MemcheckTool>();
  if (Name == "callgrind")
    return std::make_unique<CallgrindTool>();
  if (Name == "helgrind")
    return std::make_unique<HelgrindTool>();
  if (Name == "drd")
    return std::make_unique<DrdTool>();
  if (Name == "cct")
    return std::make_unique<CctTool>();
  if (Name == "aprof-rms")
    return std::make_unique<RmsProfiler>();
  if (Name == "aprof-trms")
    return std::make_unique<TrmsProfiler>();
  if (Name == "aprof-trms-naive")
    return std::make_unique<NaiveTrmsProfiler>();
  return nullptr;
}

std::string isp::renderToolReport(
    Tool &T, const SymbolTable *Symbols,
    const std::map<RoutineId, unsigned> *StaticGrowth) {
  std::string Name = T.name();
  if (Name == "memcheck")
    return static_cast<MemcheckTool &>(T).renderReport(Symbols);
  if (Name == "callgrind")
    return static_cast<CallgrindTool &>(T).renderReport(Symbols);
  if (Name == "helgrind")
    return static_cast<HelgrindTool &>(T).renderReport(Symbols);
  if (Name == "drd")
    return static_cast<DrdTool &>(T).renderReport(Symbols);
  if (Name == "cct")
    return static_cast<CctTool &>(T).renderReport(Symbols);
  if (ProfileDatabase *Db = T.profileDatabase()) {
    if (StaticGrowth != nullptr)
      return renderRunSummary(*Db, Symbols, *StaticGrowth);
    return renderRunSummary(*Db, Symbols);
  }
  return formatString("%s: analysis state %s\n", Name.c_str(),
                      formatBytes(T.memoryFootprintBytes()).c_str());
}
