//===- tests/obs_test.cpp - Telemetry subsystem unit tests ------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the observability subsystem: the region registry and its
// allocator registration helpers, the attribution sink's per-region and
// block-utilization accounting, trace-dump sampling, the JSONL round trip
// (live sink vs. one rebuilt purely from a dump), the profile exporters,
// and MultiObserver fan-out.
//
//===----------------------------------------------------------------------===//

#include "core/CacheParams.h"
#include "core/ColoredArena.h"
#include "heap/CcHeap.h"
#include "obs/Attribution.h"
#include "obs/BenchReader.h"
#include "obs/Export.h"
#include "obs/FieldProfile.h"
#include "obs/MetricsExport.h"
#include "obs/Observer.h"
#include "obs/Region.h"
#include "sim/MemoryHierarchy.h"
#include "support/Arena.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

using namespace ccl;
using namespace ccl::obs;

namespace {

uint64_t vaddr(const void *Ptr) { return reinterpret_cast<uint64_t>(Ptr); }

/// Reads a whole trace dump, calling \p Callback for each record.
template <typename Fn> long readTraceDump(std::FILE *F, Fn &&Callback) {
  return json::readJsonl(F, [&](const std::string &Line) {
    TraceRecord Record;
    json::LineResult R = parseTraceLine(Line, Record);
    if (R)
      Callback(Record);
    return R;
  });
}

/// Reads a whole metrics dump into \p Doc.
long readMetricsDump(std::FILE *F, MetricsDoc &Doc,
                     std::string *Error = nullptr) {
  return json::readJsonl(
      F, [&](const std::string &Line) { return parseMetricsLine(Line, Doc); },
      Error);
}

std::string slurp(std::FILE *F) {
  std::string Content;
  std::rewind(F);
  int C;
  while ((C = std::fgetc(F)) != EOF)
    Content.push_back(char(C));
  return Content;
}

void expectProfileEq(const RegionProfile &A, const RegionProfile &B) {
  EXPECT_EQ(A.Reads, B.Reads);
  EXPECT_EQ(A.Writes, B.Writes);
  EXPECT_EQ(A.L1Hits, B.L1Hits);
  EXPECT_EQ(A.L1Misses, B.L1Misses);
  EXPECT_EQ(A.L2Hits, B.L2Hits);
  EXPECT_EQ(A.L2Misses, B.L2Misses);
  EXPECT_EQ(A.TlbMisses, B.TlbMisses);
  EXPECT_EQ(A.PrefetchFullHits, B.PrefetchFullHits);
  EXPECT_EQ(A.PrefetchPartialHits, B.PrefetchPartialHits);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.BytesAccessed, B.BytesAccessed);
  EXPECT_EQ(A.BlocksFetched, B.BlocksFetched);
  EXPECT_EQ(A.BytesFetched, B.BytesFetched);
  EXPECT_EQ(A.BytesUsed, B.BytesUsed);
  EXPECT_EQ(A.BlocksEvicted, B.BlocksEvicted);
  EXPECT_EQ(A.Writebacks, B.Writebacks);
}

} // namespace

TEST(RegionRegistry, DefinesDeduplicateByNameAndColor) {
  RegionRegistry Registry;
  uint32_t A = Registry.define("tree");
  EXPECT_NE(A, RegionRegistry::Unknown);
  EXPECT_EQ(Registry.define("tree"), A);
  uint32_t Hot = Registry.define(RegionInfo{"tree", "hot", {}});
  EXPECT_NE(Hot, A);
  EXPECT_EQ(Registry.define(RegionInfo{"tree", "hot", {}}), Hot);
  EXPECT_EQ(Registry.regionCount(), 3u); // (unknown) + tree + tree[hot]
  EXPECT_EQ(Registry.info(RegionRegistry::Unknown).Name, "(unknown)");
}

TEST(RegionRegistry, ResolvesRangeBoundaries) {
  RegionRegistry Registry;
  uint32_t A = Registry.define("a");
  uint32_t B = Registry.define(RegionInfo{"b", "hot", "here.cpp:1"});
  Registry.addRange(uint64_t(0x2000), 0x100, B); // out-of-order insert
  Registry.addRange(uint64_t(0x1000), 0x100, A);
  EXPECT_EQ(Registry.rangeCount(), 2u);

  EXPECT_EQ(Registry.resolve(0x0FFF), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.resolve(0x1000), A);
  EXPECT_EQ(Registry.resolve(0x10FF), A);
  EXPECT_EQ(Registry.resolve(0x1100), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.resolve(0x1FFF), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.resolve(0x2080), B);
  EXPECT_EQ(Registry.resolve(0x2100), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.info(B).ColorClass, "hot");

  // Interleaved resolves must not be confused by the locality cache.
  EXPECT_EQ(Registry.resolve(0x1080), A);
  EXPECT_EQ(Registry.resolve(0x2080), B);
  EXPECT_EQ(Registry.resolve(0x1080), A);

  // Re-adding a range with the same base (allocator re-sync) is a no-op.
  Registry.addRange(uint64_t(0x1000), 0x100, A);
  EXPECT_EQ(Registry.rangeCount(), 2u);

  Registry.clear();
  EXPECT_EQ(Registry.regionCount(), 1u);
  EXPECT_EQ(Registry.rangeCount(), 0u);
  EXPECT_EQ(Registry.resolve(0x1000), RegionRegistry::Unknown);
}

TEST(RegionRegistry, RegistersArenaSlabsIdempotently) {
  Arena Storage(/*SlabBytes=*/4096, /*SlabAlign=*/4096);
  void *P = Storage.allocate(128);
  RegionRegistry Registry;
  uint32_t Id = Registry.registerArena(Storage, "nodes");
  EXPECT_EQ(Registry.resolve(vaddr(P)), Id);

  // Grow into a second slab, then re-register: same id, new slab covered,
  // no duplicate ranges for the old one.
  size_t RangesBefore = Registry.rangeCount();
  void *Q = Storage.allocate(6000);
  EXPECT_EQ(Registry.resolve(vaddr(Q)), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.registerArena(Storage, "nodes"), Id);
  EXPECT_EQ(Registry.resolve(vaddr(Q)), Id);
  EXPECT_EQ(Registry.resolve(vaddr(P)), Id);
  EXPECT_GT(Registry.rangeCount(), RangesBefore);
}

TEST(RegionRegistry, RegistersColoredArenaHotAndCold) {
  CacheParams Params;
  Params.CacheSets = 64;
  Params.Associativity = 1;
  Params.BlockBytes = 64;
  Params.PageBytes = 4096;
  Params.HotSets = 32;
  ASSERT_TRUE(Params.isValid());
  ColoredArena Storage(Params);
  void *Hot = Storage.allocateHot(64);
  void *Cold = Storage.allocateCold(64);
  ASSERT_TRUE(Storage.isHot(Hot));
  ASSERT_FALSE(Storage.isHot(Cold));

  RegionRegistry Registry;
  uint32_t HotId = Registry.registerColoredArena(Storage, "ctree");
  EXPECT_EQ(Registry.resolve(vaddr(Hot)), HotId);
  EXPECT_EQ(Registry.info(HotId).Name, "ctree");
  EXPECT_EQ(Registry.info(HotId).ColorClass, "hot");

  uint32_t ColdId = Registry.resolve(vaddr(Cold));
  EXPECT_NE(ColdId, RegionRegistry::Unknown);
  EXPECT_NE(ColdId, HotId);
  EXPECT_EQ(Registry.info(ColdId).Name, "ctree");
  EXPECT_EQ(Registry.info(ColdId).ColorClass, "cold");
}

TEST(RegionRegistry, RegistersHeapPages) {
  heap::CcHeap Heap;
  void *P = Heap.allocate(40);
  void *Q = Heap.allocate(96);
  RegionRegistry Registry;
  uint32_t Id = Registry.registerHeap(Heap, "ccheap");
  EXPECT_EQ(Registry.resolve(vaddr(P)), Id);
  EXPECT_EQ(Registry.resolve(vaddr(Q)), Id);
}

TEST(Attribution, BlockUtilizationTracksResidencies) {
  RegionRegistry Registry;
  uint32_t Region = Registry.define("synthetic");
  AttributionConfig Config;
  Config.L1BlockBytes = 16;
  Config.L1Sets = 4;
  Config.L2BlockBytes = 64;
  Config.L2Sets = 8;
  Config.HotSets = 2;
  AttributionSink Sink(Registry, Config);

  AccessEvent Fill; // memory fill opens a residency for mapped block 5
  Fill.Mapped = 5 * 64;
  Fill.Size = 8;
  Fill.Level = AccessLevel::Memory;
  Fill.Cycles = 70;
  Sink.record(Fill, Region);

  AccessEvent Touch; // second touch marks 4 more bytes at offset 16
  Touch.Mapped = 5 * 64 + 16;
  Touch.Size = 4;
  Touch.Level = AccessLevel::L1Hit;
  Touch.Cycles = 1;
  Sink.record(Touch, Region);

  // A dirty eviction closes the residency: 12 of 64 bytes were touched.
  Sink.recordEvict(EvictEvent{2, true, 5 * 64, 100});
  {
    const RegionProfile &P = Sink.regions()[Region];
    EXPECT_EQ(P.BlocksFetched, 1u);
    EXPECT_EQ(P.BytesFetched, 64u);
    EXPECT_EQ(P.BytesUsed, 12u);
    EXPECT_EQ(P.BlocksEvicted, 1u);
    EXPECT_EQ(P.Writebacks, 1u);
    EXPECT_DOUBLE_EQ(P.blockUtilization(), 12.0 / 64.0);
  }
  EXPECT_EQ(Sink.l2SetMisses()[5], 1u);
  EXPECT_EQ(Sink.l2SetEvictions()[5], 1u);
  EXPECT_EQ(Sink.l1SetMisses()[(5 * 64 / 16) % 4], 1u);

  // Evicting a block this sink never saw filled only bumps the per-set
  // eviction histogram (trace sampling can drop the fill).
  Sink.recordEvict(EvictEvent{2, false, 99 * 64, 120});
  EXPECT_EQ(Sink.regions()[Region].BlocksFetched, 1u);
  EXPECT_EQ(Sink.l2SetEvictions()[99 % 8], 1u);

  // L1 evictions carry no residency and must be ignored.
  Sink.recordEvict(EvictEvent{1, false, 5 * 64, 130});
  EXPECT_EQ(Sink.regions()[Region].BlocksFetched, 1u);

  // finalize() closes still-open residencies without counting evictions.
  AccessEvent Fill2;
  Fill2.Mapped = 6 * 64;
  Fill2.Size = 16;
  Fill2.Level = AccessLevel::PrefetchPartial;
  Fill2.Cycles = 30;
  Sink.record(Fill2, Region);
  Sink.finalize();
  const RegionProfile &P = Sink.regions()[Region];
  EXPECT_EQ(P.BlocksFetched, 2u);
  EXPECT_EQ(P.BytesUsed, 28u);
  EXPECT_EQ(P.BlocksEvicted, 1u);
  EXPECT_EQ(P.L2Misses, 2u);
  EXPECT_EQ(P.PrefetchPartialHits, 1u);
  EXPECT_EQ(P.references(), 3u);

  Sink.reset();
  EXPECT_EQ(Sink.totals().references(), 0u);
  EXPECT_EQ(Sink.accessEvents(), 0u);
  EXPECT_EQ(Sink.l2SetMisses()[5], 0u);
}

TEST(Attribution, LiveSinkReconcilesWithSimStats) {
  Arena Storage(1 << 16, 1 << 16);
  char *Buffer = static_cast<char *>(Storage.allocate(16384, 16));
  RegionRegistry Registry;
  uint32_t Region = Registry.registerArena(Storage, "buffer");

  sim::HierarchyConfig Config = sim::HierarchyConfig::ultraSparcE5000();
  sim::MemoryHierarchy M(Config);
  AttributionSink Sink(Registry, AttributionConfig::fromHierarchy(Config));
  M.attachObserver(&Sink);

  // Strided reads and writes inside the region, plus a handful of
  // accesses to an unregistered address range.
  for (uint64_t Off = 0; Off + 8 <= 16384; Off += 16)
    M.read(vaddr(Buffer + Off), 8);
  for (uint64_t Off = 0; Off + 8 <= 16384; Off += 64)
    M.write(vaddr(Buffer + Off), 8);
  const uint64_t Outside = 0x7fee00000000ULL;
  for (unsigned I = 0; I < 32; ++I)
    M.read(Outside + I * 256, 4);
  Sink.finalize();

  const sim::SimStats &S = M.stats();
  ASSERT_TRUE(S.isConsistent());
  RegionProfile Total = Sink.totals();
  EXPECT_EQ(Sink.accessEvents(), S.memoryReferences());
  EXPECT_EQ(Total.Reads, S.Reads);
  EXPECT_EQ(Total.Writes, S.Writes);
  EXPECT_EQ(Total.L1Hits, S.L1Hits);
  EXPECT_EQ(Total.L1Misses, S.L1Misses);
  EXPECT_EQ(Total.L2Hits, S.L2Hits);
  EXPECT_EQ(Total.L2Misses, S.L2Misses);
  EXPECT_EQ(Total.TlbMisses, S.TlbMisses);
  EXPECT_EQ(Total.Cycles, M.now());

  // Region split: everything except the 32 outside reads belongs to the
  // registered buffer, and the byte counts match the access pattern.
  const RegionProfile &Mine = Sink.regions()[Region];
  const RegionProfile &Unknown = Sink.regions()[RegionRegistry::Unknown];
  EXPECT_EQ(Unknown.references(), 32u);
  EXPECT_EQ(Mine.references(), S.memoryReferences() - 32);
  EXPECT_EQ(Mine.BytesAccessed, 1024u * 8 + 256u * 8);

  // Every fetched block was closed exactly once, by an eviction event or
  // by finalize().
  EXPECT_EQ(Total.BlocksFetched, S.L2Misses + S.PrefetchFullHits);
  EXPECT_EQ(Total.BytesFetched, Total.BlocksFetched * Config.L2.BlockBytes);
  EXPECT_GT(Total.BytesUsed, 0u);
  EXPECT_LE(Total.BytesUsed, Total.BytesFetched);

  // Histogram mass equals the corresponding miss counters.
  uint64_t L1Mass = 0;
  for (uint64_t Count : Sink.l1SetMisses())
    L1Mass += Count;
  EXPECT_EQ(L1Mass, S.L1Misses);
  uint64_t L2Mass = 0;
  for (uint64_t Count : Sink.l2SetMisses())
    L2Mass += Count;
  EXPECT_EQ(L2Mass, S.L2Misses + S.PrefetchFullHits);
}

TEST(TraceSink, SamplesEveryNthEvent) {
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  AttributionConfig Config;
  TraceSinkOptions Options;
  Options.SampleInterval = 4;
  Options.IncludePrefetches = false;

  TraceSink Sink(F, Config, nullptr, Options);
  AccessEvent Event;
  Event.Size = 8;
  for (unsigned I = 0; I < 10; ++I) {
    Event.VAddr = I * 16;
    Sink.onAccess(Event);
  }
  PrefetchEvent Prefetch;
  Sink.onPrefetch(Prefetch); // suppressed by IncludePrefetches = false
  EXPECT_EQ(Sink.accessEventsSeen(), 10u);
  EXPECT_EQ(Sink.linesWritten(), 4u); // meta + access events 0, 4, 8

  std::rewind(F);
  unsigned AccessRecords = 0, MetaRecords = 0, PrefetchRecords = 0;
  uint64_t Sample = 0;
  long Parsed = readTraceDump(F, [&](const TraceRecord &Record) {
    switch (Record.RecordKind) {
    case TraceRecord::Kind::Access:
      ++AccessRecords;
      break;
    case TraceRecord::Kind::Meta:
      ++MetaRecords;
      Sample = Record.SampleInterval;
      break;
    case TraceRecord::Kind::Prefetch:
      ++PrefetchRecords;
      break;
    default:
      break;
    }
  });
  std::fclose(F);
  EXPECT_EQ(Parsed, 4);
  EXPECT_EQ(MetaRecords, 1u);
  EXPECT_EQ(AccessRecords, 3u);
  EXPECT_EQ(PrefetchRecords, 0u);
  EXPECT_EQ(Sample, 4u);
}

TEST(TraceExport, JsonlRoundTripRebuildsIdenticalProfile) {
  Arena Storage(1 << 16, 1 << 16);
  char *Buffer = static_cast<char *>(Storage.allocate(8192, 16));
  RegionRegistry Registry;
  Registry.registerArena(Storage, "tree");

  sim::HierarchyConfig Config = sim::HierarchyConfig::ultraSparcE5000();
  Config.Prefetch.NextLineDegree = 1; // exercise hw-prefetch records too
  AttributionConfig AConfig = AttributionConfig::fromHierarchy(Config, 64);
  sim::MemoryHierarchy M(Config);

  AttributionSink Live(Registry, AConfig);
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  TraceSink Trace(F, AConfig, &Registry);
  MultiObserver Fan;
  Fan.add(&Live);
  Fan.add(&Trace);
  M.attachObserver(&Fan);

  for (uint64_t Off = 0; Off + 8 <= 8192; Off += 8) {
    if (Off % 128 == 0)
      M.prefetch(vaddr(Buffer + (Off + 256) % 8192));
    if (Off % 32 == 0)
      M.write(vaddr(Buffer + Off), 8);
    else
      M.read(vaddr(Buffer + Off), 8);
  }
  for (unsigned I = 0; I < 64; ++I) // TLB misses, unknown region
    M.read(0x7fdd00000000ULL + I * 4096, 8);
  Live.finalize();

  // Rebuild a second sink purely from the JSONL dump. The same registry
  // is reused, so trace region ids need no remapping.
  std::rewind(F);
  std::unique_ptr<AttributionSink> Replayed;
  long Parsed = readTraceDump(F, [&](const TraceRecord &Record) {
    switch (Record.RecordKind) {
    case TraceRecord::Kind::Meta:
      Replayed = std::make_unique<AttributionSink>(Registry, Record.Config);
      break;
    case TraceRecord::Kind::Region:
      break;
    case TraceRecord::Kind::Access:
      ASSERT_NE(Replayed, nullptr);
      Replayed->record(Record.Access, Record.RegionId);
      break;
    case TraceRecord::Kind::Evict:
      Replayed->recordEvict(Record.Evict);
      break;
    case TraceRecord::Kind::Prefetch:
      Replayed->onPrefetch(Record.Prefetch);
      break;
    }
  });
  std::fclose(F);
  ASSERT_NE(Replayed, nullptr);
  EXPECT_EQ(uint64_t(Parsed), Trace.linesWritten());
  Replayed->finalize();

  // The meta record must carry the full geometry...
  EXPECT_EQ(Replayed->config().L1BlockBytes, AConfig.L1BlockBytes);
  EXPECT_EQ(Replayed->config().L1Sets, AConfig.L1Sets);
  EXPECT_EQ(Replayed->config().L2BlockBytes, AConfig.L2BlockBytes);
  EXPECT_EQ(Replayed->config().L2Sets, AConfig.L2Sets);
  EXPECT_EQ(Replayed->config().HotSets, 64u);

  // ...and the rebuilt profile must be bit-identical to the live one.
  EXPECT_EQ(Replayed->accessEvents(), Live.accessEvents());
  EXPECT_EQ(Replayed->swPrefetches(), Live.swPrefetches());
  ASSERT_EQ(Replayed->regions().size(), Live.regions().size());
  for (size_t I = 0; I < Live.regions().size(); ++I) {
    SCOPED_TRACE("region " + std::to_string(I));
    expectProfileEq(Live.regions()[I], Replayed->regions()[I]);
  }
  EXPECT_EQ(Live.l1SetMisses(), Replayed->l1SetMisses());
  EXPECT_EQ(Live.l2SetMisses(), Replayed->l2SetMisses());
  EXPECT_EQ(Live.l2SetEvictions(), Replayed->l2SetEvictions());
}

TEST(ProfileExport, JsonAndCsvCarrySchemaAndRegions) {
  RegionRegistry Registry;
  uint32_t Region = Registry.define(RegionInfo{"btree", "hot", {}});
  AttributionConfig Config;
  Config.L2BlockBytes = 64;
  Config.L2Sets = 8;
  AttributionSink Sink(Registry, Config);
  AccessEvent Fill;
  Fill.Mapped = 3 * 64;
  Fill.Size = 8;
  Fill.Level = AccessLevel::Memory;
  Fill.Cycles = 70;
  Sink.record(Fill, Region);
  Sink.finalize();

  std::FILE *Json = std::tmpfile();
  ASSERT_NE(Json, nullptr);
  writeProfileJson(Sink, Json);
  std::string JsonText = slurp(Json);
  std::fclose(Json);
  EXPECT_NE(JsonText.find("\"schema\":\"ccl-profile-v1\""), std::string::npos);
  EXPECT_NE(JsonText.find("\"name\":\"btree\""), std::string::npos);
  EXPECT_NE(JsonText.find("\"color\":\"hot\""), std::string::npos);
  EXPECT_NE(JsonText.find("\"block_utilization\":0.125000"),
            std::string::npos);
  EXPECT_NE(JsonText.find("\"l2_set_conflicts\":[[3,1,0]]"),
            std::string::npos);

  std::FILE *Csv = std::tmpfile();
  ASSERT_NE(Csv, nullptr);
  writeProfileCsv(Sink, Csv);
  std::string CsvText = slurp(Csv);
  std::fclose(Csv);
  EXPECT_EQ(CsvText.rfind("region,color,reads,", 0), 0u);
  EXPECT_NE(CsvText.find("btree,hot,1,0,1,1,"), std::string::npos);
}

TEST(MultiObserver, FansOutInAttachOrder) {
  struct Counter final : SimObserver {
    unsigned Accesses = 0, Evicts = 0, Prefetches = 0;
    void onAccess(const AccessEvent &) override { ++Accesses; }
    void onEvict(const EvictEvent &) override { ++Evicts; }
    void onPrefetch(const PrefetchEvent &) override { ++Prefetches; }
  };
  Counter A, B;
  MultiObserver Fan;
  Fan.add(&A);
  Fan.add(nullptr); // ignored
  Fan.add(&B);
  Fan.onAccess(AccessEvent{});
  Fan.onAccess(AccessEvent{});
  Fan.onEvict(EvictEvent{});
  Fan.onPrefetch(PrefetchEvent{});
  EXPECT_EQ(A.Accesses, 2u);
  EXPECT_EQ(B.Accesses, 2u);
  EXPECT_EQ(A.Evicts, 1u);
  EXPECT_EQ(B.Evicts, 1u);
  EXPECT_EQ(A.Prefetches, 1u);
  EXPECT_EQ(B.Prefetches, 1u);
}

TEST(TraceReader, RejectsSignedAndOverflowingNumbers) {
  TraceRecord Record;
  // An unsigned field that is negative or out of range fails the line
  // instead of wrapping to 2^64 - 1, saturating, or (for an optional
  // field) silently keeping its default.
  EXPECT_TRUE(parseTraceLine("{\"kind\":\"region\",\"id\":-1}", Record)
                  .malformed());
  EXPECT_TRUE(parseTraceLine(
                  "{\"kind\":\"region\",\"id\":18446744073709551616}", Record)
                  .malformed());
  json::LineResult Now =
      parseTraceLine("{\"kind\":\"a\",\"now\":-5,\"lvl\":\"l1\"}", Record);
  EXPECT_TRUE(Now.malformed());
  EXPECT_EQ(Now.Reason, "now: negative");
  EXPECT_TRUE(parseTraceLine("{\"kind\":\"a\",\"va\":99999999999999999999,"
                             "\"lvl\":\"l1\"}",
                             Record)
                  .malformed());
  EXPECT_TRUE(
      parseTraceLine("{\"kind\":\"meta\",\"sample\":-16}", Record).malformed());
}

TEST(FieldProfileReader, RejectsSignedAndOverflowingNumbers) {
  FieldsDoc Doc;
  EXPECT_TRUE(
      parseFieldsLine("{\"kind\":\"meta\",\"attributed\":-7}", Doc).malformed());
  EXPECT_TRUE(parseFieldsLine("{\"kind\":\"meta\","
                              "\"unattributed\":18446744073709551616}",
                              Doc)
                  .malformed());
  EXPECT_TRUE(
      parseFieldsLine("{\"kind\":\"type\",\"name\":\"T\",\"size\":-8}", Doc)
          .malformed());
  EXPECT_TRUE(Doc.Types.empty());
  ASSERT_TRUE(parseFieldsLine("{\"kind\":\"type\",\"name\":\"T\",\"size\":8,"
                              "\"accesses\":18446744073709551615}",
                              Doc));
  ASSERT_EQ(Doc.Types.size(), 1u);
  EXPECT_EQ(Doc.Types[0].Accesses, ~uint64_t(0));
}

TEST(TraceReader, ParsesRecordsAndSkipsJunk) {
  TraceRecord Record;
  EXPECT_EQ(parseTraceLine("", Record).K, json::LineResult::Kind::Skip);
  EXPECT_EQ(parseTraceLine("{\"kind\":\"future-thing\"}", Record).K,
            json::LineResult::Kind::Skip);
  EXPECT_TRUE(parseTraceLine("not json", Record).malformed());

  ASSERT_TRUE(parseTraceLine(
      "{\"kind\":\"a\",\"now\":100,\"va\":4096,\"pa\":8192,\"sz\":8,"
      "\"w\":1,\"lvl\":\"pf-part\",\"tlb\":1,\"cyc\":70,\"r\":3}",
      Record));
  EXPECT_EQ(Record.RecordKind, TraceRecord::Kind::Access);
  EXPECT_EQ(Record.RegionId, 3u);
  EXPECT_EQ(Record.Access.Now, 100u);
  EXPECT_EQ(Record.Access.VAddr, 4096u);
  EXPECT_EQ(Record.Access.Mapped, 8192u);
  EXPECT_EQ(Record.Access.Size, 8u);
  EXPECT_TRUE(Record.Access.IsWrite);
  EXPECT_TRUE(Record.Access.TlbMiss);
  EXPECT_EQ(Record.Access.Level, AccessLevel::PrefetchPartial);
  EXPECT_EQ(Record.Access.Cycles, 70u);

  ASSERT_TRUE(parseTraceLine(
      "{\"kind\":\"meta\",\"schema\":\"ccl-trace-v1\",\"l1_block\":32,"
      "\"l1_sets\":512,\"l2_block\":128,\"l2_sets\":2048,\"hot_sets\":7,"
      "\"sample\":16}",
      Record));
  EXPECT_EQ(Record.RecordKind, TraceRecord::Kind::Meta);
  EXPECT_EQ(Record.Config.L1BlockBytes, 32u);
  EXPECT_EQ(Record.Config.L1Sets, 512u);
  EXPECT_EQ(Record.Config.L2BlockBytes, 128u);
  EXPECT_EQ(Record.Config.L2Sets, 2048u);
  EXPECT_EQ(Record.Config.HotSets, 7u);
  EXPECT_EQ(Record.SampleInterval, 16u);

  ASSERT_TRUE(parseTraceLine(
      "{\"kind\":\"e\",\"now\":55,\"lvl\":2,\"pa\":320,\"wb\":1}", Record));
  EXPECT_EQ(Record.RecordKind, TraceRecord::Kind::Evict);
  EXPECT_EQ(Record.Evict.Level, 2u);
  EXPECT_EQ(Record.Evict.MappedBlockAddr, 320u);
  EXPECT_TRUE(Record.Evict.Writeback);
}

//===----------------------------------------------------------------------===//
// The shared reader policy (support/Json.h), run through all four
// readers: ccl-trace, ccl-metrics, ccl-fields and ccl-bench-v1.
//===----------------------------------------------------------------------===//

namespace {

using Outcome = json::LineResult::Kind;
constexpr Outcome Rec = Outcome::Record;
constexpr Outcome Skip = Outcome::Skip;
constexpr Outcome Bad = Outcome::Malformed;

/// One reader under test. Its line is Head, a string member StrKey, a
/// number member NumKey (a required unsigned field, except in
/// ccl-bench-v1 whose result fields are plain numbers), then Tail.
/// Read() parses one line, reporting the outcome and the string it
/// read back.
struct ReaderFormat {
  const char *Name;
  const char *Head;
  const char *KindText; ///< The token the unknown-kind case replaces.
  const char *StrKey;
  const char *NumKey;
  const char *Tail;
  Outcome (*Read)(const std::string &Line, std::string &Str);
};

Outcome readTrace(const std::string &Line, std::string &Str) {
  TraceRecord Record;
  json::LineResult R = parseTraceLine(Line, Record);
  Str = Record.Region.Name;
  return R.K;
}

Outcome readMetrics(const std::string &Line, std::string &Str) {
  MetricsDoc Doc;
  json::LineResult R = parseMetricsLine(Line, Doc);
  Str = Doc.Data.Counters.empty() ? "" : Doc.Data.Counters[0].Name;
  return R.K;
}

Outcome readFields(const std::string &Line, std::string &Str) {
  FieldsDoc Doc;
  json::LineResult R = parseFieldsLine(Line, Doc);
  Str = Doc.Types.empty() ? "" : Doc.Types[0].Name;
  return R.K;
}

Outcome readBench(const std::string &Text, std::string &Str) {
  BenchDoc Doc;
  if (!parseBenchJson(Text, Doc))
    return Bad;
  const BenchResultRecord &R = Doc.Results.at(0);
  bool Ok = true;
  if (R.has("searches"))
    R.num("searches", &Ok);
  Str = R.str("name");
  return Ok ? Rec : Bad;
}

const ReaderFormat Formats[] = {
    {"trace", R"({"kind":"region")", R"("region")", "name", "id", "}",
     readTrace},
    {"metrics", R"({"kind":"c")", R"("c")", "name", "v", "}", readMetrics},
    {"fields", R"({"kind":"type")", R"("type")", "name", "size", "}",
     readFields},
    {"bench",
     R"({"schema":"ccl-bench-v1","bench":"b","results":[{"section":"s")",
     R"("ccl-bench-v1")", "name", "searches", "}]}", readBench},
};

enum class Edit { None, Truncate, AppendText, DropNumber, UnknownKind,
                  UnknownField, Blank };

std::string buildLine(const ReaderFormat &F, const std::string &Num,
                      const std::string &Str, Edit E) {
  if (E == Edit::Blank)
    return "  ";
  std::string Line = F.Head;
  if (E == Edit::UnknownKind)
    Line.replace(Line.find(F.KindText), std::strlen(F.KindText),
                 "\"future-thing\"");
  if (E == Edit::UnknownField)
    Line += R"(,"zz_future":[1,{"a":"b"}])";
  Line += std::string(",\"") + F.StrKey + "\":" + Str;
  if (E != Edit::DropNumber)
    Line += std::string(",\"") + F.NumKey + "\":" + Num;
  Line += F.Tail;
  if (E == Edit::Truncate)
    Line.pop_back();
  if (E == Edit::AppendText)
    Line += " x";
  return Line;
}

struct PolicyCase {
  const char *Label;
  const char *Num;
  const char *Str;
  Edit E;
  Outcome Expect[4]; ///< trace, metrics, fields, bench
};

const PolicyCase PolicyCases[] = {
    {"valid", "7", R"("n")", Edit::None, {Rec, Rec, Rec, Rec}},
    {"negative", "-1", R"("n")", Edit::None, {Bad, Bad, Bad, Rec}},
    {"plus sign", "+1", R"("n")", Edit::None, {Bad, Bad, Bad, Bad}},
    {"overflow", "18446744073709551616", R"("n")", Edit::None,
     {Bad, Bad, Bad, Rec}},
    {"fraction", "1.5", R"("n")", Edit::None, {Bad, Bad, Bad, Rec}},
    {"exponent", "1e3", R"("n")", Edit::None, {Bad, Bad, Bad, Rec}},
    {"trailing text", "12abc", R"("n")", Edit::None, {Bad, Bad, Bad, Bad}},
    {"truncated", "7", R"("n")", Edit::Truncate, {Bad, Bad, Bad, Bad}},
    {"text after the object", "7", R"("n")", Edit::AppendText,
     {Bad, Bad, Bad, Bad}},
    {"unterminated string", "7", R"("n)", Edit::None, {Bad, Bad, Bad, Bad}},
    {"bad escape", "7", R"("a\qb")", Edit::None, {Bad, Bad, Bad, Bad}},
    {"raw control character", "7", "\"a\tb\"", Edit::None,
     {Bad, Bad, Bad, Bad}},
    {"key text inside a string", "7",
     R"("\"id\":7,\"v\":7,\"size\":7")", Edit::DropNumber,
     {Bad, Bad, Bad, Rec}},
    {"string where a number belongs", R"("7")", R"("n")", Edit::None,
     {Bad, Bad, Bad, Bad}},
    {"number where a string belongs", "7", "7", Edit::None,
     {Bad, Bad, Bad, Rec}},
    {"missing required field", "7", R"("n")", Edit::DropNumber,
     {Bad, Bad, Bad, Rec}},
    {"unknown kind", "7", R"("n")", Edit::UnknownKind,
     {Skip, Skip, Skip, Bad}},
    {"unknown field", "7", R"("n")", Edit::UnknownField,
     {Rec, Rec, Rec, Rec}},
    {"blank line", "7", R"("n")", Edit::Blank, {Skip, Skip, Skip, Bad}},
};

} // namespace

TEST(JsonReaders, MalformedInputTableThroughEveryReader) {
  for (const PolicyCase &C : PolicyCases) {
    for (size_t I = 0; I < std::size(Formats); ++I) {
      const ReaderFormat &F = Formats[I];
      std::string Line = buildLine(F, C.Num, C.Str, C.E);
      SCOPED_TRACE(std::string(C.Label) + " / " + F.Name + ": " + Line);
      std::string Str;
      EXPECT_EQ(int(F.Read(Line, Str)), int(C.Expect[I]));
    }
  }
}

TEST(JsonReaders, EscapedNamesRoundTripThroughEveryReader) {
  // Every byte 0x01-0x7f, quote and backslash included, written through
  // json::escape must read back byte for byte.
  std::string Name;
  for (int C = 0x01; C <= 0x7f; ++C)
    Name += char(C);
  Name += "\"\\";
  std::string Quoted = "\"";
  Quoted += json::escape(Name) + "\"";
  for (const ReaderFormat &F : Formats) {
    SCOPED_TRACE(F.Name);
    std::string Str;
    ASSERT_EQ(int(F.Read(buildLine(F, "7", Quoted, Edit::None), Str)),
              int(Rec));
    EXPECT_EQ(Str, Name);
  }
  // The field name of a ccl-fields "f" line goes through the same path.
  FieldsDoc Doc;
  ASSERT_TRUE(parseFieldsLine(R"({"kind":"type","name":"T","size":8})", Doc));
  ASSERT_TRUE(parseFieldsLine(
      R"({"kind":"f","type":"T","field":)" + Quoted + "}", Doc));
  ASSERT_EQ(Doc.Types[0].Fields.size(), 1u);
  EXPECT_EQ(Doc.Types[0].Fields[0].Name, Name);
}

TEST(JsonReaders, ReadStopsAtFirstMalformedLineWithItsNumber) {
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  std::fputs("{\"kind\":\"meta\",\"schema\":\"ccl-metrics-v1\"}\n"
             "\n"
             "{\"kind\":\"c\",\"name\":\"a\",\"v\":1}\n"
             "{\"kind\":\"c\",\"name\":\"b\",\"v\":-1}\n"
             "{\"kind\":\"c\",\"name\":\"c\",\"v\":1}",
             F);
  std::rewind(F);
  MetricsDoc Doc;
  std::string Error;
  EXPECT_EQ(readMetricsDump(F, Doc, &Error), -1);
  EXPECT_EQ(Error, "4: v: negative");
  ASSERT_EQ(Doc.Data.Counters.size(), 1u);
  EXPECT_EQ(Doc.Data.Counters[0].Name, "a");

  // A NUL byte inside a line reaches the parser instead of cutting the
  // line short.
  std::FILE *Nul = std::tmpfile();
  ASSERT_NE(Nul, nullptr);
  const char WithNul[] = "{\"kind\":\"c\",\"name\":\"a\0\",\"v\":1}\n";
  std::fwrite(WithNul, 1, sizeof(WithNul) - 1, Nul);
  std::rewind(Nul);
  MetricsDoc NulDoc;
  EXPECT_EQ(readMetricsDump(Nul, NulDoc, &Error), -1);
  EXPECT_EQ(Error, "1: control character in string");
  std::fclose(Nul);

  // A last line without a newline is still read.
  std::FILE *Good = std::tmpfile();
  ASSERT_NE(Good, nullptr);
  std::fputs("{\"kind\":\"c\",\"name\":\"a\",\"v\":1}\n"
             "{\"kind\":\"c\",\"name\":\"a\",\"v\":2}",
             Good);
  std::rewind(Good);
  MetricsDoc Summed;
  EXPECT_EQ(readMetricsDump(Good, Summed), 2);
  EXPECT_EQ(Summed.Data.Counters.at(0).Value, 3u);
  std::fclose(Good);
  std::fclose(F);
}
