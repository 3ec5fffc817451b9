//===- support/Compiler.h - Portable compiler helpers ----------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small portability macros used across the isprof libraries. The project
/// follows the LLVM convention of not using exceptions or RTTI in library
/// code: invariant violations abort via ispUnreachable/assert, recoverable
/// conditions are reported through return values.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_SUPPORT_COMPILER_H
#define ISPROF_SUPPORT_COMPILER_H

#include <cstdio>
#include <cstdlib>

namespace isp {

/// Aborts the program with a message; used to mark control flow that must
/// never be reached when program invariants hold.
[[noreturn]] inline void ispUnreachableImpl(const char *Msg, const char *File,
                                            unsigned Line) {
  std::fprintf(stderr, "UNREACHABLE executed at %s:%u: %s\n", File, Line, Msg);
  std::abort();
}

/// Reports a fatal, non-recoverable usage error (bad input file, malformed
/// guest program, ...) and exits. Library code calls this only for errors
/// that have already been surfaced to the caller in context.
[[noreturn]] inline void reportFatalError(const char *Msg) {
  std::fprintf(stderr, "isprof fatal error: %s\n", Msg);
  std::exit(1);
}

} // namespace isp

#define ISP_UNREACHABLE(msg) ::isp::ispUnreachableImpl(msg, __FILE__, __LINE__)

/// Branch-weight hints for hot paths where the compiler cannot infer the
/// skew (e.g. the interpreter's address-decode fast path).
#if defined(__GNUC__) || defined(__clang__)
#define ISP_LIKELY(x) (__builtin_expect(!!(x), 1))
#define ISP_UNLIKELY(x) (__builtin_expect(!!(x), 0))
#else
#define ISP_LIKELY(x) (x)
#define ISP_UNLIKELY(x) (x)
#endif

/// Forces inlining of small helpers that sit on a per-instruction or
/// per-access path; -O2 alone leaves them out of line once they grow an
/// error branch or two.
///
/// ISP_ALWAYS_INLINE_LAMBDA does the same for a lambda's call operator;
/// it goes after the parameter list, where `inline` may not appear.
///
/// ISP_COLD marks the rare path split off such a helper (a cache miss,
/// an allocation): kept out of line and out of the hot code's layout, so
/// the inlined fast path stays a compare and a load.
#if defined(__GNUC__) || defined(__clang__)
#define ISP_ALWAYS_INLINE inline __attribute__((always_inline))
#define ISP_ALWAYS_INLINE_LAMBDA __attribute__((always_inline))
#define ISP_COLD __attribute__((cold, noinline))
#else
#define ISP_ALWAYS_INLINE inline
#define ISP_ALWAYS_INLINE_LAMBDA
#define ISP_COLD
#endif

#endif // ISPROF_SUPPORT_COMPILER_H
