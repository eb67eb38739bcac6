//===- sim/TraceSimd.h - Blocked trace payload decode kernels --*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decode kernels for the blocked trace encoding (see
/// sim/TraceBuffer.h). A block separates its per-record control bytes
/// from a packed data lane of little-endian payloads whose byte widths
/// (1/2/4/8) live in control-byte bits [6:5]; that separation is what
/// lets a whole block's payloads decode with table-driven shuffles
/// instead of a byte-at-a-time varint loop per record.
///
/// decodeBlockPayloads() runs the process-selected kernel (see
/// support/SimdDispatch.h): SSSE3 decodes two payloads per 16-byte
/// shuffle, AVX2 four per 32-byte shuffle, and the scalar loop — the
/// single source of truth the vector paths are tested against — handles
/// the rest of the world plus CCL_SIMD=off. All kernels produce
/// identical output (locked down by tests/trace_v2_test.cpp), so kernel
/// choice can never affect simulation results, only decode speed.
///
/// The vector kernels issue full-width loads at the tail of the data
/// lane, so sealed buffers are padded with TraceSimdPadBytes readable
/// bytes past the last encoded byte (TraceBuffer::seal() guarantees
/// this; bytes() still reports the unpadded size).
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SIM_TRACESIMD_H
#define CCL_SIM_TRACESIMD_H

#include "support/SimdDispatch.h"

#include <cstddef>
#include <cstdint>

namespace ccl::sim {

/// Readable padding the vector kernels may touch past a block's data
/// lane: a 16-byte load at the last payload reaches at most 15 bytes
/// beyond it.
inline constexpr size_t TraceSimdPadBytes = 16;

/// Decodes the data lane of one block: \p N control bytes at \p Ctrl
/// give the payload widths (bits [6:5], 1 << code bytes); the packed
/// little-endian payloads start at \p Data. Writes \p N zero-extended
/// values to \p Out and returns the number of data-lane bytes consumed.
/// Uses the process-wide kernel selected by ccl::simdLevel().
size_t decodeBlockPayloads(const uint8_t *Ctrl, size_t N,
                           const uint8_t *Data, uint64_t *Out);

/// Same decode through the kernel for \p Level explicitly (testing and
/// benchmarking). Levels above simdDetect() fall back to scalar rather
/// than executing unsupported instructions.
size_t decodeBlockPayloadsAt(SimdLevel Level, const uint8_t *Ctrl,
                             size_t N, const uint8_t *Data, uint64_t *Out);

} // namespace ccl::sim

#endif // CCL_SIM_TRACESIMD_H
