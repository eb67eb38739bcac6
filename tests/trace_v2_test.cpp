//===- tests/trace_v2_test.cpp - Blocked trace codec properties -----------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// The blocked trace codec's contract: decoding returns exactly the
// recorded stream, and replay results — whole, prefix, or phased — are
// bit-identical to a live run over the same records. This suite locks
// both properties down with randomized streams, every payload width at
// the end of a recording, and adversarial block-boundary lengths.
//
//===----------------------------------------------------------------------===//

#include "sim/MemoryHierarchy.h"
#include "sim/TraceBuffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

using namespace ccl;
using namespace ccl::sim;

namespace {

// Hermetic 64-bit LCG (MMIX constants), as in the sibling trace suites.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 17;
  }
  uint64_t full() {
    uint64_t Hi = next() << 47;
    return Hi ^ next();
  }
  uint64_t bounded(uint64_t N) { return next() % N; }
};

struct RawRecord {
  TraceRecord::Kind K;
  uint64_t Addr;
  uint64_t Arg; // Size for read/write, cycles for tick, 0 for prefetch.
};

void record(TraceBuffer &Buf, const RawRecord &R) {
  switch (R.K) {
  case TraceRecord::Kind::Read:
    Buf.recordRead(R.Addr, R.Arg);
    break;
  case TraceRecord::Kind::Write:
    Buf.recordWrite(R.Addr, R.Arg);
    break;
  case TraceRecord::Kind::Prefetch:
    Buf.recordPrefetch(R.Addr);
    break;
  case TraceRecord::Kind::Tick:
    Buf.recordTick(R.Arg);
    break;
  }
}

void expectDecodesTo(TraceView View, const std::vector<RawRecord> &Expected,
                     size_t Count) {
  TraceCursor Cursor(View);
  TraceRecord Out;
  for (size_t I = 0; I < Count; ++I) {
    SCOPED_TRACE("record " + std::to_string(I));
    ASSERT_TRUE(Cursor.next(Out));
    EXPECT_EQ(Out.K, Expected[I].K);
    if (Expected[I].K != TraceRecord::Kind::Tick) {
      EXPECT_EQ(Out.Addr, Expected[I].Addr);
    }
    EXPECT_EQ(Out.Arg, Expected[I].Arg);
  }
  EXPECT_TRUE(Cursor.done());
  EXPECT_FALSE(Cursor.next(Out));
}

/// A random stream hitting every encoder path: all four kinds, both
/// near-previous and full-range addresses (all four payload widths),
/// every size-code path including explicit varint sizes.
std::vector<RawRecord> randomStream(uint64_t Seed, size_t Length) {
  Lcg Rng(Seed * 0x9E3779B97F4A7C15ULL);
  std::vector<RawRecord> Stream;
  uint64_t Prev = 0;
  for (size_t I = 0; I < Length; ++I) {
    RawRecord R;
    R.K = TraceRecord::Kind(Rng.next() % 4);
    switch (Rng.next() % 4) {
    case 0: // Tiny delta: 1-byte payload.
      R.Addr = Prev + Rng.next() % 64;
      break;
    case 1: // Medium delta: 2-byte payload.
      R.Addr = Prev + 200 + Rng.next() % 30000;
      break;
    case 2: // Large delta: 4-byte payload.
      R.Addr = Prev - (1ULL << 20) - Rng.next() % (1ULL << 30);
      break;
    default: // Full-range jump: 8-byte payload.
      R.Addr = Rng.full();
      break;
    }
    switch (Rng.next() % 5) {
    case 0:
      R.Arg = uint64_t(1) << (Rng.next() % 7); // Fast codes 1..64.
      break;
    case 1:
      R.Arg = 0; // Explicit-size path.
      break;
    case 2:
      R.Arg = 3 + Rng.next() % 61; // Non-power-of-two.
      break;
    case 3:
      R.Arg = 65 + Rng.next() % 100000; // Above the biggest fast code.
      break;
    default:
      R.Arg = 8;
      break;
    }
    if (R.K == TraceRecord::Kind::Prefetch)
      R.Arg = 0;
    if (R.K == TraceRecord::Kind::Tick)
      R.Arg = Rng.next() % 100000;
    else
      Prev = R.Addr;
    Stream.push_back(R);
  }
  return Stream;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips.
//===----------------------------------------------------------------------===//

TEST(TraceV2, ArbitraryStreamsRoundTripExactly) {
  for (uint64_t Seed = 1; Seed <= 32; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::vector<RawRecord> Stream = randomStream(Seed, 500);
    TraceBuffer Buf;
    for (const RawRecord &R : Stream)
      record(Buf, R);
    EXPECT_EQ(Buf.records(), Stream.size());
    Buf.seal();
    ASSERT_TRUE(Buf.sealed());

    expectDecodesTo(Buf.view(), Stream, Stream.size());
    for (size_t Count : {size_t(0), size_t(1), Stream.size() / 2,
                         Stream.size() - 1, Stream.size()})
      expectDecodesTo(Buf.prefix(Count), Stream, Count);
  }
}

TEST(TraceV2, BlockBoundaryLengthsRoundTrip) {
  // Lengths straddling the 64-record block capacity: partial final
  // block, exactly-full block, one spilled record, two blocks, and a
  // two-block-plus-one tail.
  for (size_t Length : {size_t(1), size_t(63), size_t(64), size_t(65),
                        size_t(127), size_t(128), size_t(129)}) {
    SCOPED_TRACE("length " + std::to_string(Length));
    std::vector<RawRecord> Stream = randomStream(0xB10C + Length, Length);
    TraceBuffer Buf;
    for (const RawRecord &R : Stream)
      record(Buf, R);
    Buf.seal();
    expectDecodesTo(Buf.view(), Stream, Length);
    // Prefix cuts inside the final (possibly partial) block too.
    for (size_t Count : {Length - 1, Length / 2})
      expectDecodesTo(Buf.prefix(Count), Stream, Count);
  }
}

TEST(TraceV2, PayloadWidthEdgesRoundTrip) {
  // Deltas chosen to land exactly on the 1/2/4/8-byte payload width
  // boundaries after zigzag (payload = 2|d| or 2|d|-1): both signs at
  // each boundary, zero delta, and full-range extremes.
  const int64_t Deltas[] = {0,
                            1,
                            -1,
                            127,
                            -128, // Last 1-byte payloads.
                            128,
                            -129, // First 2-byte payloads.
                            32767,
                            -32768,
                            32768, // 2 -> 4 byte boundary.
                            (int64_t(1) << 31) - 1,
                            -(int64_t(1) << 31),
                            int64_t(1) << 31, // 4 -> 8 byte boundary.
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()};
  std::vector<RawRecord> Stream;
  uint64_t Addr = 0x7f0000000000ULL;
  for (int64_t D : Deltas) {
    Addr += uint64_t(D);
    Stream.push_back({TraceRecord::Kind::Read, Addr, 8});
  }
  // Tick payloads hit the unsigned width boundaries directly.
  for (uint64_t Cycles :
       {uint64_t(0), uint64_t(255), uint64_t(256), uint64_t(65535),
        uint64_t(65536), (uint64_t(1) << 32) - 1, uint64_t(1) << 32,
        ~uint64_t(0)})
    Stream.push_back({TraceRecord::Kind::Tick, 0, Cycles});

  TraceBuffer Buf;
  for (const RawRecord &R : Stream)
    record(Buf, R);
  Buf.seal();
  expectDecodesTo(Buf.view(), Stream, Stream.size());

  // The cursor loads every payload as 8 bytes, so a recording's last
  // payload reads past its end into the seal padding. End recordings of
  // 1, 63, 64 and 65 records (65 spills one record into a second block)
  // on each payload width; under ASan the tail load is checked against
  // the padding at every overhang.
  const uint64_t LastCycles[] = {200, 60000, uint64_t(1) << 31,
                                 uint64_t(1) << 40};
  for (size_t Fill : {size_t(1), size_t(63), size_t(64), size_t(65)}) {
    for (size_t Width = 0; Width < 4; ++Width) {
      SCOPED_TRACE("fill " + std::to_string(Fill) + ", last payload " +
                   std::to_string(1u << Width) + " bytes");
      std::vector<RawRecord> Tail = randomStream(0x7A11 + Fill, Fill - 1);
      // Fast size codes only: the last block then has no extra lane, so
      // its data lane ends the recording.
      for (RawRecord &R : Tail)
        if (R.K == TraceRecord::Kind::Read || R.K == TraceRecord::Kind::Write)
          R.Arg = 8;
      Tail.push_back({TraceRecord::Kind::Tick, 0, LastCycles[Width]});
      TraceBuffer TailBuf;
      for (const RawRecord &R : Tail)
        record(TailBuf, R);
      TailBuf.seal();
      expectDecodesTo(TailBuf.view(), Tail, Tail.size());
    }
  }
}

TEST(TraceV2, CompactnessHoldsOnPointerChase) {
  // The blocked layout must keep the compactness property recordings
  // rely on: a realistic chase stays well under raw MemAccess size.
  TraceBuffer Buf;
  Lcg Rng(0xC0FFEEULL);
  const uint64_t Base = 0x7f1200000000ULL;
  for (unsigned I = 0; I < 100000; ++I) {
    uint64_t Node = Rng.next() % (1ULL << 15);
    Buf.recordRead(Base + Node * 64, 4);
    Buf.recordTick(2);
    Buf.recordRead(Base + Node * 64 + 8, 8);
  }
  Buf.seal();
  EXPECT_LT(Buf.bytes(), Buf.records() * sizeof(MemAccess));
  EXPECT_LT(Buf.bytes(), Buf.records() * 6);
}

TEST(TraceV2, BatchDecodeMatchesSingleStepping) {
  // nextBatch must produce the same stream as next(), and a batch
  // never crosses a block boundary (so replay batches align
  // with blocks after the first call).
  std::vector<RawRecord> Stream = randomStream(0xBA7C4, 1000);
  TraceBuffer Buf;
  for (const RawRecord &R : Stream)
    record(Buf, R);
  Buf.seal();

  for (size_t Max : {size_t(1), size_t(7), size_t(63), size_t(64),
                     size_t(200)}) {
    SCOPED_TRACE("max " + std::to_string(Max));
    TraceCursor Cursor(Buf.view());
    TraceRecord Batch[256];
    size_t Seen = 0;
    size_t Got;
    while ((Got = Cursor.nextBatch(Batch, Max)) != 0) {
      ASSERT_LE(Got, std::min(Max, TraceBlockCap));
      for (size_t I = 0; I < Got; ++I, ++Seen) {
        SCOPED_TRACE("record " + std::to_string(Seen));
        EXPECT_EQ(Batch[I].K, Stream[Seen].K);
        if (Stream[Seen].K != TraceRecord::Kind::Tick) {
          EXPECT_EQ(Batch[I].Addr, Stream[Seen].Addr);
        }
        EXPECT_EQ(Batch[I].Arg, Stream[Seen].Arg);
      }
    }
    EXPECT_EQ(Seen, Stream.size());
  }
}

//===----------------------------------------------------------------------===//
// Replay parity: replays must be bit-identical to a live run.
//===----------------------------------------------------------------------===//

namespace {

/// Every externally observable number a hierarchy exposes.
using Snapshot = std::array<uint64_t, 24>;

Snapshot snap(const MemoryHierarchy &M) {
  const SimStats &S = M.stats();
  return {S.Reads,          S.Writes,
          S.L1Hits,         S.L1Misses,
          S.L2Hits,         S.L2Misses,
          S.TlbMisses,      S.Writebacks,
          S.SwPrefetches,   S.HwPrefetches,
          S.PrefetchFullHits, S.PrefetchPartialHits,
          S.BusyCycles,     S.L1StallCycles,
          S.L2StallCycles,  S.TlbStallCycles,
          S.PrefetchIssueCycles, M.now(),
          M.l1().hits(),    M.l1().evictions(),
          M.l2().hits(),    M.l2().evictions(),
          M.tlb().hits(),   M.tlb().misses()};
}

void expectSame(const Snapshot &A, const Snapshot &B,
                const std::string &Label) {
  SCOPED_TRACE(Label);
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], B[I]) << "counter " << I;
}

/// A mixed simulation stream: ticks, software prefetches, pointer-chase
/// and random reads/writes of assorted (also block-spanning) sizes.
std::vector<RawRecord> mixedTrace(uint64_t Seed, size_t Records) {
  std::vector<RawRecord> Ops;
  Lcg Rng(Seed);
  const uint64_t Base = 0x7f0000000000ULL + (Seed & 0xFFF) * 4096;
  const uint64_t Span = 8ULL << 20;
  const uint64_t Sizes[] = {0, 1, 2, 4, 8, 16, 48, 64, 100, 128};
  uint64_t Node = 0;
  for (size_t I = 0; I < Records; ++I) {
    uint64_t Roll = Rng.bounded(100);
    if (Roll < 5) {
      Ops.push_back({TraceRecord::Kind::Tick, 0, 1 + Rng.bounded(20)});
      continue;
    }
    if (Roll < 8) {
      Ops.push_back({TraceRecord::Kind::Prefetch, Base + Node * 64, 0});
      continue;
    }
    uint64_t Addr;
    if (Roll < 70) {
      Addr = Base + Node * 64;
      Node = Rng.bounded(Span / 64);
    } else {
      Addr = Base + Rng.bounded(Span);
    }
    uint64_t Size = Sizes[Rng.bounded(sizeof(Sizes) / sizeof(Sizes[0]))];
    Ops.push_back({Roll % 4 == 3 ? TraceRecord::Kind::Write
                                 : TraceRecord::Kind::Read,
                   Addr, Size});
  }
  return Ops;
}

TraceBuffer recordAll(const std::vector<RawRecord> &Ops) {
  TraceBuffer Buf;
  for (const RawRecord &R : Ops)
    record(Buf, R);
  Buf.seal();
  return Buf;
}

/// Drives records [From, From + Count) of \p Ops through the live
/// access API.
void driveLive(MemoryHierarchy &M, const std::vector<RawRecord> &Ops,
               size_t From, size_t Count) {
  for (size_t I = From; I < From + Count; ++I) {
    const RawRecord &R = Ops[I];
    switch (R.K) {
    case TraceRecord::Kind::Read:
      M.read(R.Addr, R.Arg);
      break;
    case TraceRecord::Kind::Write:
      M.write(R.Addr, R.Arg);
      break;
    case TraceRecord::Kind::Prefetch:
      M.prefetch(R.Addr);
      break;
    case TraceRecord::Kind::Tick:
      M.tick(R.Arg);
      break;
    }
  }
}

} // namespace

TEST(TraceV2Replay, SerialParityWithLiveRunBothPresets) {
  std::vector<RawRecord> Ops = mixedTrace(0x909, 80000);
  TraceBuffer Buf = recordAll(Ops);
  ASSERT_EQ(Buf.records(), Ops.size());
  for (const char *Preset : {"e5000", "rsim"}) {
    HierarchyConfig Config = std::string(Preset) == "e5000"
                                 ? HierarchyConfig::ultraSparcE5000()
                                 : HierarchyConfig::rsimTable1();
    MemoryHierarchy Live(Config), Replayed(Config);
    driveLive(Live, Ops, 0, Ops.size());
    Replayed.replay(Buf.view());
    expectSame(snap(Live), snap(Replayed), Preset);
  }
}

TEST(TraceV2Replay, PrefixAndPhasedReplaysMatchLiveRun) {
  std::vector<RawRecord> Ops = mixedTrace(0xFA5E, 50000);
  TraceBuffer Buf = recordAll(Ops);
  HierarchyConfig Config = HierarchyConfig::ultraSparcE5000();
  size_t N = Buf.records();

  for (size_t Count : {size_t(1), size_t(63), size_t(64), N / 3, N}) {
    MemoryHierarchy Live(Config), Replayed(Config);
    driveLive(Live, Ops, 0, Count);
    Replayed.replay(Buf.prefix(Count));
    expectSame(snap(Live), snap(Replayed), "prefix " + std::to_string(Count));
  }

  // Phased consumption through bounded replay(cursor, n) calls, with
  // chunk sizes that repeatedly split blocks.
  MemoryHierarchy Live(Config), Replayed(Config);
  TraceCursor Cursor(Buf.view());
  size_t Done = 0;
  for (size_t Chunk : {size_t(1), size_t(63), size_t(64), size_t(65),
                       size_t(1000)}) {
    driveLive(Live, Ops, Done, Chunk);
    Replayed.replay(Cursor, Chunk);
    Done += Chunk;
    expectSame(snap(Live), snap(Replayed), "chunk " + std::to_string(Chunk));
  }
  driveLive(Live, Ops, Done, N - Done);
  while (!Cursor.done())
    Replayed.replay(Cursor, 4096);
  expectSame(snap(Live), snap(Replayed), "phased tail");
}
