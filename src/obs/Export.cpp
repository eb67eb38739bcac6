//===- obs/Export.cpp - Telemetry exporters -------------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"

#include "support/BuildInfo.h"
#include "support/TablePrinter.h"

#include <cinttypes>

using namespace ccl;
using namespace ccl::obs;
using json::Presence;

TraceSink::TraceSink(std::FILE *Out, const AttributionConfig &Config,
                     const RegionRegistry *Registry,
                     const TraceSinkOptions &Options)
    : Out(Out), Config(Config), Registry(Registry), Options(Options) {
  std::fprintf(Out,
               "{\"kind\":\"meta\",\"schema\":\"ccl-trace-v2\","
               "\"l1_block\":%" PRIu32 ",\"l1_sets\":%" PRIu64
               ",\"l2_block\":%" PRIu32 ",\"l2_sets\":%" PRIu64
               ",\"hot_sets\":%" PRIu64 ",\"sample\":%" PRIu64
               ",\"binary\":\"%s\",\"git\":\"%s\"}\n",
               Config.L1BlockBytes, Config.L1Sets, Config.L2BlockBytes,
               Config.L2Sets, Config.HotSets,
               Options.SampleInterval ? Options.SampleInterval : 1,
               json::escape(binaryName()).c_str(),
               json::escape(gitDescribe()).c_str());
  ++Lines;
}

void TraceSink::emitRegionIfNew(uint32_t Id) {
  if (!Registry)
    return;
  if (Id < RegionEmitted.size() && RegionEmitted[Id])
    return;
  if (Id >= RegionEmitted.size())
    RegionEmitted.resize(Id + 1, false);
  RegionEmitted[Id] = true;
  const RegionInfo &Info = Registry->info(Id);
  std::fprintf(Out,
               "{\"kind\":\"region\",\"id\":%" PRIu32
               ",\"name\":\"%s\",\"color\":\"%s\"}\n",
               Id, json::escape(Info.Name).c_str(),
               json::escape(Info.ColorClass).c_str());
  ++Lines;
}

void TraceSink::onAccess(const AccessEvent &Event) {
  uint64_t Interval = Options.SampleInterval ? Options.SampleInterval : 1;
  if (AccessSeen++ % Interval != 0)
    return;
  uint32_t Region =
      Registry ? Registry->resolve(Event.VAddr) : RegionRegistry::Unknown;
  emitRegionIfNew(Region);
  std::fprintf(Out,
               "{\"kind\":\"a\",\"now\":%" PRIu64 ",\"va\":%" PRIu64
               ",\"pa\":%" PRIu64 ",\"sz\":%" PRIu32
               ",\"w\":%d,\"lvl\":\"%s\",\"tlb\":%d,\"cyc\":%" PRIu32
               ",\"r\":%" PRIu32 "}\n",
               Event.Now, Event.VAddr, Event.Mapped, Event.Size,
               Event.IsWrite ? 1 : 0, accessLevelName(Event.Level),
               Event.TlbMiss ? 1 : 0, Event.Cycles, Region);
  ++Lines;
}

void TraceSink::onEvict(const EvictEvent &Event) {
  if (!Options.IncludeEvictions)
    return;
  uint64_t Interval = Options.SampleInterval ? Options.SampleInterval : 1;
  if (EvictSeen++ % Interval != 0)
    return;
  std::fprintf(Out,
               "{\"kind\":\"e\",\"now\":%" PRIu64 ",\"lvl\":%d,\"pa\":%" PRIu64
               ",\"wb\":%d}\n",
               Event.Now, int(Event.Level), Event.MappedBlockAddr,
               Event.Writeback ? 1 : 0);
  ++Lines;
}

void TraceSink::onPrefetch(const PrefetchEvent &Event) {
  if (!Options.IncludePrefetches)
    return;
  uint64_t Interval = Options.SampleInterval ? Options.SampleInterval : 1;
  if (PrefetchSeen++ % Interval != 0)
    return;
  std::fprintf(Out,
               "{\"kind\":\"p\",\"now\":%" PRIu64 ",\"va\":%" PRIu64
               ",\"pa\":%" PRIu64 ",\"sw\":%d}\n",
               Event.Now, Event.VAddr, Event.Mapped,
               Event.Software ? 1 : 0);
  ++Lines;
}

namespace {

bool parseLevel(const std::string &Name, AccessLevel &Out) {
  for (uint8_t L = 0; L <= uint8_t(AccessLevel::PrefetchPartial); ++L)
    if (Name == accessLevelName(AccessLevel(L))) {
      Out = AccessLevel(L);
      return true;
    }
  return false;
}

void writeRegionJson(std::FILE *Out, const RegionInfo &Info,
                     const RegionProfile &P) {
  std::fprintf(
      Out,
      "{\"name\":\"%s\",\"color\":\"%s\",\"reads\":%" PRIu64
      ",\"writes\":%" PRIu64 ",\"l1_hits\":%" PRIu64 ",\"l1_misses\":%" PRIu64
      ",\"l2_hits\":%" PRIu64 ",\"l2_misses\":%" PRIu64
      ",\"tlb_misses\":%" PRIu64 ",\"pf_full\":%" PRIu64
      ",\"pf_partial\":%" PRIu64 ",\"cycles\":%" PRIu64
      ",\"bytes_accessed\":%" PRIu64 ",\"blocks_fetched\":%" PRIu64
      ",\"bytes_fetched\":%" PRIu64 ",\"bytes_used\":%" PRIu64
      ",\"blocks_evicted\":%" PRIu64 ",\"writebacks\":%" PRIu64
      ",\"block_utilization\":%.6f}",
      json::escape(Info.Name).c_str(), json::escape(Info.ColorClass).c_str(),
      P.Reads, P.Writes, P.L1Hits, P.L1Misses, P.L2Hits, P.L2Misses,
      P.TlbMisses, P.PrefetchFullHits, P.PrefetchPartialHits, P.Cycles,
      P.BytesAccessed, P.BlocksFetched, P.BytesFetched, P.BytesUsed,
      P.BlocksEvicted, P.Writebacks, P.blockUtilization());
}

} // namespace

void ccl::obs::writeProfileJson(const AttributionSink &Sink, std::FILE *Out) {
  const AttributionConfig &Config = Sink.config();
  std::fprintf(Out,
               "{\"schema\":\"ccl-profile-v1\",\"l2_block\":%" PRIu32
               ",\"l2_sets\":%" PRIu64 ",\"hot_sets\":%" PRIu64
               ",\"regions\":[",
               Config.L2BlockBytes, Config.L2Sets, Config.HotSets);
  bool First = true;
  const std::vector<RegionProfile> &Regions = Sink.regions();
  for (uint32_t Id = 0; Id < Regions.size(); ++Id) {
    const RegionProfile &P = Regions[Id];
    if (P.references() == 0 && P.BlocksFetched == 0)
      continue;
    if (!First)
      std::fprintf(Out, ",");
    First = false;
    writeRegionJson(Out, Sink.registry().info(Id), P);
  }
  std::fprintf(Out, "],\"totals\":");
  RegionProfile Total = Sink.totals();
  writeRegionJson(Out, RegionInfo{"(total)", {}, {}}, Total);

  // Nonzero L2 set-conflict entries: [set, misses, evictions].
  std::fprintf(Out, ",\"l2_set_conflicts\":[");
  const std::vector<uint64_t> &Misses = Sink.l2SetMisses();
  const std::vector<uint64_t> &Evictions = Sink.l2SetEvictions();
  First = true;
  for (uint64_t Set = 0; Set < Misses.size(); ++Set) {
    if (Misses[Set] == 0 && Evictions[Set] == 0)
      continue;
    if (!First)
      std::fprintf(Out, ",");
    First = false;
    std::fprintf(Out, "[%" PRIu64 ",%" PRIu64 ",%" PRIu64 "]", Set,
                 Misses[Set], Evictions[Set]);
  }
  std::fprintf(Out, "]}\n");
}

void ccl::obs::writeProfileCsv(const AttributionSink &Sink, std::FILE *Out) {
  TablePrinter Table({"region", "color", "reads", "writes", "l1_misses",
                      "l2_misses", "tlb_misses", "cycles", "bytes_accessed",
                      "blocks_fetched", "block_utilization"});
  const std::vector<RegionProfile> &Regions = Sink.regions();
  for (uint32_t Id = 0; Id < Regions.size(); ++Id) {
    const RegionProfile &P = Regions[Id];
    if (P.references() == 0 && P.BlocksFetched == 0)
      continue;
    const RegionInfo &Info = Sink.registry().info(Id);
    Table.addRow({Info.Name, Info.ColorClass, std::to_string(P.Reads),
                  std::to_string(P.Writes), std::to_string(P.L1Misses),
                  std::to_string(P.L2Misses), std::to_string(P.TlbMisses),
                  std::to_string(P.Cycles), std::to_string(P.BytesAccessed),
                  std::to_string(P.BlocksFetched),
                  TablePrinter::fmt(P.blockUtilization(), 6)});
  }
  Table.printCsv(Out);
}

json::LineResult ccl::obs::parseTraceLine(const std::string &Line,
                                          TraceRecord &Out) {
  json::Value Obj;
  if (json::LineResult R = json::parseObjectLine(Line, Obj); !R)
    return R;
  json::FieldReader F(Obj);
  std::string Kind;
  F.str("kind", Kind, Presence::Required);
  Out = TraceRecord();

  if (Kind == "meta") {
    Out.RecordKind = TraceRecord::Kind::Meta;
    F.uint("l1_block", Out.Config.L1BlockBytes);
    F.uint("l1_sets", Out.Config.L1Sets);
    F.uint("l2_block", Out.Config.L2BlockBytes);
    F.uint("l2_sets", Out.Config.L2Sets);
    F.uint("hot_sets", Out.Config.HotSets);
    F.uint("sample", Out.SampleInterval);
    F.str("binary", Out.Producer);
    F.str("git", Out.ProducerGit);
  } else if (Kind == "region") {
    Out.RecordKind = TraceRecord::Kind::Region;
    F.uint("id", Out.RegionId, Presence::Required);
    F.str("name", Out.Region.Name);
    F.str("color", Out.Region.ColorClass);
  } else if (Kind == "a") {
    Out.RecordKind = TraceRecord::Kind::Access;
    AccessEvent &E = Out.Access;
    F.uint("now", E.Now);
    F.uint("va", E.VAddr);
    F.uint("pa", E.Mapped);
    F.uint("sz", E.Size);
    F.flag("w", E.IsWrite);
    F.flag("tlb", E.TlbMiss);
    F.uint("cyc", E.Cycles);
    std::string Level;
    if (F.str("lvl", Level, Presence::Required) &&
        !parseLevel(Level, E.Level))
      F.fail("lvl", "unknown level \"" + Level + "\"");
    F.uint("r", Out.RegionId);
  } else if (Kind == "e") {
    Out.RecordKind = TraceRecord::Kind::Evict;
    EvictEvent &E = Out.Evict;
    F.uint("now", E.Now);
    F.uint("lvl", E.Level);
    F.uint("pa", E.MappedBlockAddr);
    F.flag("wb", E.Writeback);
  } else if (Kind == "p") {
    Out.RecordKind = TraceRecord::Kind::Prefetch;
    PrefetchEvent &E = Out.Prefetch;
    F.uint("now", E.Now);
    F.uint("va", E.VAddr);
    F.uint("pa", E.Mapped);
    F.flag("sw", E.Software);
  } else if (F.result()) {
    return json::LineResult::skip(); // unknown kind
  }
  return F.result();
}
