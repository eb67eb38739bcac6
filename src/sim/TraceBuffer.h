//===- sim/TraceBuffer.h - Compact record-once/replay-many traces -*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace engine's storage: a compact, append-only encoding of one
/// deterministic access stream (reads, writes, software prefetches, and
/// compute ticks), filled once by a native RecordAccess run and replayed
/// many times through fresh MemoryHierarchy instances — the structure of
/// the paper's own RSIM experiments, where one recorded address stream
/// was evaluated against many layouts.
///
/// Wire format (ccl-trace v2): blocked control/data lanes. The control
/// byte carries each payload's width, so the cursor decodes a payload
/// with one unaligned 8-byte load masked to that width.
///
///   block: varint record count N (<= TraceBlockCap)
///          varint data-lane bytes
///          varint extra-lane bytes
///          N control bytes | data lane | extra lane
///   control byte: [7 reserved][6..5 width code][4..2 size code]
///                 [1..0 opcode]
///     opcode     0 = read, 1 = write, 2 = prefetch, 3 = tick
///     size code  1..7 -> {1, 2, 4, 8, 16, 32, 64} bytes (the common
///                field/node sizes); 0 -> explicit size in the extra
///                lane. Prefetch/tick leave it zero.
///   data lane:    per record, little-endian payload of 1/2/4/8 bytes
///                 (1 << width code): the zigzag address delta for
///                 read/write/prefetch, the cycle count for ticks.
///   extra lane:   varint explicit sizes (size code 0 reads/writes), in
///                 record order.
///
/// Reads, writes, and prefetches share one previous-address chain, so
/// pointer-chase locality keeps deltas short.
///
/// A sealed buffer is immutable; TraceView (a borrowed prefix) and
/// TraceCursor (a decoding position) are cheap value types, so many
/// SweepRunner workers can replay the same recording concurrently, each
/// with its own cursor and hierarchy. Prefix views cost nothing beyond a
/// record count: because a view always decodes from the start, replaying
/// "the first N searches" of fig5's seeded key stream needs no
/// per-record index. Encode/decode round-trips exactly — including
/// size-0 touches and full-range addresses — locked down by
/// tests/trace_test.cpp and tests/trace_v2_test.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SIM_TRACEBUFFER_H
#define CCL_SIM_TRACEBUFFER_H

#include "support/Varint.h"

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

static_assert(std::endian::native == std::endian::little,
              "v2 data lanes store payloads little-endian; the cursor's "
              "masked 8-byte loads assume a little-endian host");

namespace ccl::sim {

/// Records per block. Also the natural batch size for
/// TraceCursor::nextBatch(), which never crosses a block boundary.
inline constexpr size_t TraceBlockCap = 64;

/// Readable zero padding a sealed buffer keeps past its encoded bytes:
/// the cursor loads every payload as 8 bytes, so the recording's last
/// payload (as short as 1 byte) may read up to 7 bytes beyond it.
inline constexpr size_t TracePadBytes = 8;

/// One decoded trace record. \p Arg holds the byte size for reads and
/// writes and the cycle count for ticks; prefetches carry only \p Addr.
struct TraceRecord {
  enum class Kind : uint8_t { Read, Write, Prefetch, Tick };
  uint64_t Addr = 0;
  uint64_t Arg = 0;
  Kind K = Kind::Read;
};

/// A borrowed, immutable prefix of a TraceBuffer: the first NumRecords
/// records of the underlying encoding. Copyable and trivially shareable
/// across threads; the owning buffer must outlive it.
struct TraceView {
  const uint8_t *Data = nullptr;
  size_t NumRecords = 0;

  size_t records() const { return NumRecords; }
};

/// A decoding position inside a view. next() streams records in order;
/// nextBatch() decodes up to a block at a time (the replay engine's
/// consumption path); MemoryHierarchy::replay(cursor, n)
/// consumes a bounded number, so one recording can be replayed in phases
/// (e.g. fig10's warmup, then its measured window) with cycle snapshots
/// taken in between.
class TraceCursor {
public:
  TraceCursor() = default;
  explicit TraceCursor(TraceView View)
      : Pos(View.Data), RecordsLeft(View.NumRecords) {}

  bool done() const { return RecordsLeft == 0; }

  /// Decodes the next record into \p Out; returns false when exhausted.
  bool next(TraceRecord &Out) {
    if (RecordsLeft == 0)
      return false;
    --RecordsLeft;
    if (BlockIdx == BlockLen)
      openBlock();
    finalizeRecord(BlockIdx++, Out);
    return true;
  }

  /// Decodes up to \p Max records into \p Out and returns how many were
  /// produced (0 only when exhausted). A cursor returns at most the
  /// rest of its current block, so after the first call batches align
  /// with blocks; callers loop until satisfied.
  size_t nextBatch(TraceRecord *Out, size_t Max) {
    if (Max > RecordsLeft)
      Max = RecordsLeft;
    if (Max == 0)
      return 0;
    if (BlockIdx == BlockLen)
      openBlock();
    size_t Take = BlockLen - BlockIdx;
    if (Take > Max)
      Take = Max;
    for (size_t I = 0; I < Take; ++I)
      finalizeRecord(BlockIdx + uint32_t(I), Out[I]);
    BlockIdx += uint32_t(Take);
    RecordsLeft -= Take;
    return Take;
  }

private:
  /// Opens the block at Pos: parses the header and locates the lanes.
  void openBlock() {
    const uint8_t *P = Pos;
    uint64_t N = varintDecode(P);
    uint64_t DataBytes = varintDecode(P);
    uint64_t ExtraBytes = varintDecode(P);
    assert(N != 0 && N <= TraceBlockCap && "corrupt block header");
    Ctrl = P;
    DataPos = Ctrl + N;
    Extra = DataPos + DataBytes;
    DataEnd = Extra;
    Pos = Extra + ExtraBytes;
    BlockLen = uint32_t(N);
    BlockIdx = 0;
  }

  /// Decodes record \p I of the open block: reads its payload from the
  /// data lane, then advances the delta chain and the extra-lane cursor.
  /// The payload is one unaligned 8-byte load masked to the width in
  /// control bits [6:5]; bytes past the payload belong to later lanes,
  /// the next block, or the sealed buffer's zero padding.
  void finalizeRecord(uint32_t I, TraceRecord &Out) {
    uint8_t C = Ctrl[I];
    uint32_t W = (C >> 5) & 0x3;
    uint64_t Payload;
    std::memcpy(&Payload, DataPos, sizeof(Payload));
    Payload &= ~uint64_t(0) >> (64 - (8u << W));
    DataPos += 1u << W;
    assert((I + 1 != BlockLen || DataPos == DataEnd) &&
           "block data lane length mismatch");
    auto Kind = TraceRecord::Kind(C & 0x3);
    Out.K = Kind;
    if (Kind == TraceRecord::Kind::Tick) {
      Out.Addr = 0;
      Out.Arg = Payload;
      return;
    }
    PrevAddr += uint64_t(zigzagDecode(Payload));
    Out.Addr = PrevAddr;
    if (Kind == TraceRecord::Kind::Prefetch) {
      Out.Arg = 0;
      return;
    }
    uint32_t SizeCode = (C >> 2) & 0x7;
    Out.Arg = SizeCode != 0 ? uint64_t(1) << (SizeCode - 1)
                            : varintDecode(Extra);
  }

  /// The next block's header.
  const uint8_t *Pos = nullptr;
  size_t RecordsLeft = 0;
  uint64_t PrevAddr = 0;
  // State for the open block.
  const uint8_t *Ctrl = nullptr;    ///< Control lane.
  const uint8_t *DataPos = nullptr; ///< Data-lane read position.
  const uint8_t *DataEnd = nullptr; ///< End of the data lane.
  const uint8_t *Extra = nullptr;   ///< Extra-lane read position.
  uint32_t BlockLen = 0;
  uint32_t BlockIdx = 0;
};

/// Append-only recorded access stream. Fill through the record*() calls
/// (or a sim::RecordAccess policy), seal(), then hand out views.
class TraceBuffer {
public:
  TraceBuffer() = default;

  // The encoding chains address deltas; moving the storage is fine, but
  // accidental copies of multi-megabyte recordings are not. A move hands
  // over the recording mid-stream, pending block included, and leaves
  // the source empty and ready to record again.
  TraceBuffer(const TraceBuffer &) = delete;
  TraceBuffer &operator=(const TraceBuffer &) = delete;
  TraceBuffer(TraceBuffer &&Other) noexcept { *this = std::move(Other); }
  TraceBuffer &operator=(TraceBuffer &&Other) noexcept {
    if (this == &Other)
      return *this;
    Data = std::move(Other.Data);
    Capacity = std::exchange(Other.Capacity, 0);
    Used = Other.Used;
    NumRecords = Other.NumRecords;
    PrevAddr = Other.PrevAddr;
    Sealed = Other.Sealed;
    PendingCount = Other.PendingCount;
    PendingDataBytes = Other.PendingDataBytes;
    std::memcpy(PendingCtrl, Other.PendingCtrl, sizeof(PendingCtrl));
    std::memcpy(PendingPayload, Other.PendingPayload, sizeof(PendingPayload));
    PendingExtra = std::move(Other.PendingExtra);
    Other.clear();
    return *this;
  }

  void recordRead(uint64_t Addr, uint64_t Size) {
    recordAccess(0, Addr, Size);
  }

  void recordWrite(uint64_t Addr, uint64_t Size) {
    recordAccess(1, Addr, Size);
  }

  void recordPrefetch(uint64_t Addr) {
    assert(!Sealed && "recording into a sealed trace");
    pendingPush(2, zigzagEncode(int64_t(Addr - PrevAddr)));
    PrevAddr = Addr;
    ++NumRecords;
  }

  void recordTick(uint64_t Cycles) {
    assert(!Sealed && "recording into a sealed trace");
    pendingPush(3, Cycles);
    ++NumRecords;
  }

  /// Number of records written so far — also the `mark` to pass to
  /// prefix() for "everything recorded up to this point".
  size_t records() const { return NumRecords; }

  /// Encoded size, including the not-yet-flushed block; compactness
  /// is what makes whole-benchmark recordings affordable (tests assert
  /// it beats sizeof(MemAccess) per record).
  size_t bytes() const { return Used + pendingEncodedBytes(); }

  /// Freezes the buffer and trims its allocation in place. Required
  /// before views may be shared across threads. Sealed buffers keep
  /// TracePadBytes of readable zero padding past the encoded bytes so
  /// the cursor's 8-byte load of the last payload stays in bounds;
  /// bytes() still reports the unpadded size.
  void seal() {
    flushBlock();
    Sealed = true;
    reallocate(Used + TracePadBytes);
    std::memset(Data.get() + Used, 0, TracePadBytes);
  }

  bool sealed() const { return Sealed; }

  /// View over the whole recording.
  TraceView view() const {
    assert(Sealed && "seal() the buffer before taking views");
    return {Data.get(), NumRecords};
  }

  /// View over the first \p Records records.
  TraceView prefix(size_t Records) const {
    assert(Records <= NumRecords && "prefix longer than the recording");
    assert(Sealed && "seal() the buffer before taking views");
    return {Data.get(), Records};
  }

  /// Empties the recording but keeps the allocation for the next one.
  void clear() {
    Used = 0;
    NumRecords = 0;
    PrevAddr = 0;
    Sealed = false;
    PendingCount = 0;
    PendingDataBytes = 0;
    PendingExtra.clear();
  }

private:
  void recordAccess(uint8_t Opcode, uint64_t Addr, uint64_t Size) {
    assert(!Sealed && "recording into a sealed trace");
    uint32_t SizeCode = sizeCodeFor(Size);
    if (SizeCode == 0)
      varintEncode(PendingExtra, Size);
    pendingPush(uint8_t(Opcode | (SizeCode << 2)),
                zigzagEncode(int64_t(Addr - PrevAddr)));
    PrevAddr = Addr;
    ++NumRecords;
  }

  /// Smallest of {1, 2, 4, 8} bytes holding \p Value, as a width code.
  static uint32_t widthCodeFor(uint64_t Value) {
    if (Value < (uint64_t(1) << 8))
      return 0;
    if (Value < (uint64_t(1) << 16))
      return 1;
    if (Value < (uint64_t(1) << 32))
      return 2;
    return 3;
  }

  /// Appends one record to the pending block, flushing when full.
  void pendingPush(uint8_t CtrlBits, uint64_t Payload) {
    uint32_t Width = widthCodeFor(Payload);
    PendingCtrl[PendingCount] = uint8_t(CtrlBits | (Width << 5));
    PendingPayload[PendingCount] = Payload;
    PendingDataBytes += 1u << Width;
    if (++PendingCount == TraceBlockCap)
      flushBlock();
  }

  /// Writes the pending block: header varints, control lane, packed
  /// little-endian payloads, extra lane.
  void flushBlock() {
    if (PendingCount == 0)
      return;
    uint8_t *P = grab(pendingEncodedBytes());
    P = varintEncode(P, PendingCount);
    P = varintEncode(P, PendingDataBytes);
    P = varintEncode(P, PendingExtra.size());
    std::memcpy(P, PendingCtrl, PendingCount);
    P += PendingCount;
    for (uint32_t I = 0; I < PendingCount; ++I) {
      uint64_t V = PendingPayload[I];
      uint32_t W = 1u << ((PendingCtrl[I] >> 5) & 0x3);
      // Byte-by-byte keeps the lane explicitly little-endian; the
      // compiler collapses the fixed-width cases to single stores.
      for (uint32_t B = 0; B < W; ++B)
        *P++ = uint8_t(V >> (8 * B));
    }
    if (!PendingExtra.empty()) { // data() is null when the lane is empty
      std::memcpy(P, PendingExtra.data(), PendingExtra.size());
      P += PendingExtra.size();
    }
    Used = size_t(P - Data.get());
    PendingCount = 0;
    PendingDataBytes = 0;
    PendingExtra.clear();
  }

  /// Exact encoded size of the pending block (0 when none).
  size_t pendingEncodedBytes() const {
    if (PendingCount == 0)
      return 0;
    return varintLen(PendingCount) + varintLen(PendingDataBytes) +
           varintLen(PendingExtra.size()) + PendingCount +
           PendingDataBytes + PendingExtra.size();
  }

  /// Returns a write pointer with at least \p Need bytes of headroom,
  /// growing the backing storage geometrically. flushBlock() writes
  /// through the pointer unchecked and then advances Used — this is
  /// what keeps recording from paying a bounds check per byte.
  uint8_t *grab(size_t Need) {
    if (Used + Need > Capacity) [[unlikely]] {
      size_t Grown = Capacity < 2048 ? 4096 : Capacity * 2;
      reallocate(Grown > Used + Need ? Grown : Used + Need);
    }
    return Data.get() + Used;
  }

  /// Resizes the storage to exactly \p Bytes, keeping the first Used.
  /// realloc neither zero-fills new bytes nor, for the large blocks a
  /// recording quickly becomes, copies old ones: glibc moves those
  /// pages with mremap, so growing and trimming both stay in place.
  void reallocate(size_t Bytes) {
    void *Resized = std::realloc(Data.get(), Bytes);
    if (Resized == nullptr)
      throw std::bad_alloc();
    (void)Data.release(); // realloc already freed or kept the old block.
    Data.reset(static_cast<uint8_t *>(Resized));
    Capacity = Bytes;
  }

  struct FreeDeleter {
    void operator()(uint8_t *P) const { std::free(P); }
  };

  /// 1..7 for the power-of-two sizes 1..64, 0 for everything else
  /// (explicit varint).
  static uint32_t sizeCodeFor(uint64_t Size) {
    if (Size == 0 || Size > 64 || (Size & (Size - 1)) != 0)
      return 0;
    return uint32_t(std::countr_zero(Size)) + 1;
  }

  /// Backing storage, malloc-owned so it can grow and shrink through
  /// realloc; Capacity bytes with headroom while recording, trimmed to
  /// the encoded bytes plus TracePadBytes by seal().
  std::unique_ptr<uint8_t[], FreeDeleter> Data;
  size_t Capacity = 0;
  /// Encoded bytes written so far.
  size_t Used = 0;
  size_t NumRecords = 0;
  uint64_t PrevAddr = 0;
  bool Sealed = false;
  // Pending (unflushed) block.
  uint32_t PendingCount = 0;
  uint32_t PendingDataBytes = 0;
  uint8_t PendingCtrl[TraceBlockCap];
  uint64_t PendingPayload[TraceBlockCap];
  std::vector<uint8_t> PendingExtra;
};

} // namespace ccl::sim

#endif // CCL_SIM_TRACEBUFFER_H
