//===- shadow/ShadowMemory.cpp - Three-level shadow memory -------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// ShadowMemory is header-only (templates); this file instantiates the
// common configurations once to keep object code out of every user and to
// surface template errors at library build time.
//
//===----------------------------------------------------------------------===//

#include "shadow/ShadowMemory.h"

namespace isp {

template class ThreeLevelShadow<uint64_t>;
template class ThreeLevelShadow<uint32_t>;
template class ThreeLevelShadow<uint8_t>;
template class DenseShadow<uint64_t>;

} // namespace isp
