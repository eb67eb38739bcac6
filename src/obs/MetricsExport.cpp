//===- obs/MetricsExport.cpp - ccl-metrics-v1 writer/reader ---------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsExport.h"

#include "obs/Export.h"
#include "support/BuildInfo.h"

#include <algorithm>
#include <cinttypes>

using namespace ccl;
using namespace ccl::obs;
using json::Presence;

namespace {

/// The entry named \p Name in \p List, appended if absent: repeated
/// lines for one name accumulate.
template <typename T> T &slot(std::vector<T> &List, const std::string &Name) {
  for (T &Entry : List)
    if (Entry.Name == Name)
      return Entry;
  List.emplace_back();
  List.back().Name = Name;
  return List.back();
}

/// Lower bound of histogram bucket B (bit_width == B).
uint64_t bucketLow(uint32_t B) {
  return B == 0 ? 0 : (uint64_t(1) << (B - 1));
}

/// Inclusive upper bound of bucket B.
uint64_t bucketHigh(uint32_t B) {
  if (B == 0)
    return 0;
  if (B >= 64)
    return UINT64_MAX;
  return (uint64_t(1) << B) - 1;
}

} // namespace

void ccl::obs::writeMetricsJsonl(const metrics::Snapshot &Snapshot,
                                 std::FILE *Out) {
  std::fprintf(Out,
               "{\"kind\":\"meta\",\"schema\":\"ccl-metrics-v1\","
               "\"binary\":\"%s\",\"git\":\"%s\",\"clock_ns\":%" PRIu64 "%s",
               json::escape(binaryName()).c_str(),
               json::escape(gitDescribe()).c_str(),
               metrics::clockNs(),
               Snapshot.Overflowed ? ",\"overflowed\":1" : "");
  if (Snapshot.SpansDropped != 0)
    std::fprintf(Out, ",\"spans_dropped\":%" PRIu64, Snapshot.SpansDropped);
  std::fprintf(Out, "}\n");
  for (const metrics::CounterSnapshot &C : Snapshot.Counters)
    std::fprintf(Out, "{\"kind\":\"c\",\"name\":\"%s\",\"v\":%" PRIu64 "}\n",
                 json::escape(C.Name).c_str(), C.Value);
  for (const metrics::HistogramSnapshot &H : Snapshot.Histograms) {
    std::fprintf(Out,
                 "{\"kind\":\"h\",\"name\":\"%s\",\"count\":%" PRIu64
                 ",\"sum\":%" PRIu64 ",\"b\":[",
                 json::escape(H.Name).c_str(), H.Count, H.Sum);
    bool First = true;
    for (uint32_t B = 0; B < metrics::HistogramBuckets; ++B) {
      if (H.Buckets[B] == 0)
        continue;
      std::fprintf(Out, "%s[%" PRIu32 ",%" PRIu64 "]", First ? "" : ",", B,
                   H.Buckets[B]);
      First = false;
    }
    std::fprintf(Out, "]}\n");
  }
  for (const metrics::SpanSnapshot &S : Snapshot.Spans)
    std::fprintf(Out,
                 "{\"kind\":\"s\",\"name\":\"%s\",\"t0\":%" PRIu64
                 ",\"dur\":%" PRIu64 ",\"tid\":%" PRIu32 "}\n",
                 json::escape(S.Name).c_str(), S.StartNs, S.DurNs, S.Tid);
}

bool ccl::obs::dumpProcessMetrics(const std::string &Path) {
  if (Path.empty())
    return true;
  std::FILE *Out = Path == "-" ? stdout : std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "ccl-metrics: cannot open %s for writing\n",
                 Path.c_str());
    return false;
  }
  writeMetricsJsonl(metrics::snapshot(), Out);
  if (Out != stdout)
    std::fclose(Out);
  else
    std::fflush(Out);
  return true;
}

json::LineResult ccl::obs::parseMetricsLine(const std::string &Line,
                                            MetricsDoc &Doc) {
  json::Value Obj;
  if (json::LineResult R = json::parseObjectLine(Line, Obj); !R)
    return R;
  json::FieldReader F(Obj);
  std::string Kind, Name;
  F.str("kind", Kind, Presence::Required);

  if (Kind == "meta") {
    std::string Schema;
    if (F.str("schema", Schema, Presence::Required) &&
        Schema != "ccl-metrics-v1")
      F.fail("schema", "not ccl-metrics-v1");
    bool Overflowed = false;
    uint64_t SpansDropped = 0;
    F.str("binary", Doc.Binary);
    F.str("git", Doc.Git);
    F.flag("overflowed", Overflowed);
    F.uint("spans_dropped", SpansDropped);
    Doc.Data.Overflowed |= Overflowed;
    Doc.Data.SpansDropped += SpansDropped;
    return F.result();
  }

  if (Kind == "c") {
    uint64_t V = 0;
    F.str("name", Name, Presence::Required);
    F.uint("v", V, Presence::Required);
    if (F.result())
      slot(Doc.Data.Counters, Name).Value += V;
    return F.result();
  }

  if (Kind == "h") {
    metrics::HistogramSnapshot Parsed;
    F.str("name", Name, Presence::Required);
    F.uint("count", Parsed.Count);
    F.uint("sum", Parsed.Sum);
    // Sparse bucket array: "b":[[B,N],...]
    if (const json::Value *Pairs = F.get("b", json::Value::Kind::Array)) {
      for (const json::Value &Pair : Pairs->Items) {
        uint64_t B = 0, N = 0;
        std::string Why = "expected [bucket,count] pairs";
        if (Pair.K != json::Value::Kind::Array || Pair.Items.size() != 2 ||
            !json::toU64(Pair.Items[0], B, Why) ||
            !json::toU64(Pair.Items[1], N, Why))
          return json::LineResult::malformed("b: " + Why);
        if (B >= metrics::HistogramBuckets)
          return json::LineResult::malformed("b: bucket out of range");
        Parsed.Buckets[B] += N;
      }
    }
    if (!F.result())
      return F.result();
    metrics::HistogramSnapshot &H = slot(Doc.Data.Histograms, Name);
    H.Count += Parsed.Count;
    H.Sum += Parsed.Sum;
    for (uint32_t B = 0; B < metrics::HistogramBuckets; ++B)
      H.Buckets[B] += Parsed.Buckets[B];
    return {};
  }

  if (Kind == "s") {
    metrics::SpanSnapshot S;
    F.str("name", S.Name, Presence::Required);
    F.uint("t0", S.StartNs);
    F.uint("dur", S.DurNs);
    F.uint("tid", S.Tid);
    if (F.result())
      Doc.Data.Spans.push_back(std::move(S));
    return F.result();
  }

  return F.result() ? json::LineResult::skip() : F.result();
}

void ccl::obs::printMetricsReport(const MetricsDoc &Doc, std::FILE *Out) {
  if (!Doc.Binary.empty() || !Doc.Git.empty())
    std::fprintf(Out, "producer: %s (%s)\n", Doc.Binary.c_str(),
                 Doc.Git.c_str());
  if (Doc.Data.Overflowed)
    std::fprintf(Out, "WARNING: metric registrations overflowed; the "
                      "overflow slot absorbed late registrations\n");
  if (Doc.Data.SpansDropped != 0)
    std::fprintf(Out,
                 "WARNING: %" PRIu64 " span(s) dropped (fixed span "
                 "buffer filled)\n",
                 Doc.Data.SpansDropped);

  std::fprintf(Out, "\ncounters:\n");
  size_t Width = 8;
  for (const metrics::CounterSnapshot &C : Doc.Data.Counters)
    Width = std::max(Width, C.Name.size());
  for (const metrics::CounterSnapshot &C : Doc.Data.Counters)
    std::fprintf(Out, "  %-*s %12" PRIu64 "\n", int(Width), C.Name.c_str(),
                 C.Value);
  if (Doc.Data.Counters.empty())
    std::fprintf(Out, "  (none)\n");

  std::fprintf(Out, "\nhistograms (power-of-two buckets):\n");
  for (const metrics::HistogramSnapshot &H : Doc.Data.Histograms) {
    double Mean = H.Count ? double(H.Sum) / double(H.Count) : 0.0;
    std::fprintf(Out,
                 "  %s: count %" PRIu64 ", sum %" PRIu64 ", mean %.1f\n",
                 H.Name.c_str(), H.Count, H.Sum, Mean);
    uint32_t Used = H.usedBuckets();
    uint64_t MaxBucket = 0;
    for (uint32_t B = 0; B < Used; ++B)
      MaxBucket = std::max(MaxBucket, H.Buckets[B]);
    for (uint32_t B = 0; B < Used; ++B) {
      if (H.Buckets[B] == 0)
        continue;
      int Bar =
          MaxBucket ? int(1 + 39 * H.Buckets[B] / MaxBucket) : 0;
      std::fprintf(Out, "    [%20" PRIu64 ", %20" PRIu64 "] %10" PRIu64
                        " %.*s\n",
                   bucketLow(B), bucketHigh(B), H.Buckets[B], Bar,
                   "########################################");
    }
  }
  if (Doc.Data.Histograms.empty())
    std::fprintf(Out, "  (none)\n");

  if (!Doc.Data.Spans.empty()) {
    std::fprintf(Out, "\nspans:\n");
    for (const metrics::SpanSnapshot &S : Doc.Data.Spans)
      std::fprintf(Out,
                   "  %-24s tid %" PRIu32 "  start %10.3f ms  dur %10.3f "
                   "ms\n",
                   S.Name.c_str(), S.Tid, double(S.StartNs) / 1e6,
                   double(S.DurNs) / 1e6);
  }
}

void ccl::obs::writeMetricsSummaryJson(const MetricsDoc &Doc,
                                       std::FILE *Out) {
  std::fprintf(Out,
               "{\"schema\":\"ccl-metrics-summary-v1\",\"binary\":\"%s\","
               "\"git\":\"%s\",",
               json::escape(Doc.Binary).c_str(), json::escape(Doc.Git).c_str());
  std::fprintf(Out, "\"counters\":{");
  for (size_t I = 0; I < Doc.Data.Counters.size(); ++I)
    std::fprintf(Out, "%s\"%s\":%" PRIu64, I == 0 ? "" : ",",
                 json::escape(Doc.Data.Counters[I].Name).c_str(),
                 Doc.Data.Counters[I].Value);
  std::fprintf(Out, "},\"histograms\":[");
  for (size_t I = 0; I < Doc.Data.Histograms.size(); ++I) {
    const metrics::HistogramSnapshot &H = Doc.Data.Histograms[I];
    double Mean = H.Count ? double(H.Sum) / double(H.Count) : 0.0;
    std::fprintf(Out,
                 "%s{\"name\":\"%s\",\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                 ",\"mean\":%.6g,\"buckets\":[",
                 I == 0 ? "" : ",", json::escape(H.Name).c_str(), H.Count,
                 H.Sum, Mean);
    bool First = true;
    for (uint32_t B = 0; B < metrics::HistogramBuckets; ++B) {
      if (H.Buckets[B] == 0)
        continue;
      std::fprintf(Out, "%s[%" PRIu64 ",%" PRIu64 ",%" PRIu64 "]",
                   First ? "" : ",", bucketLow(B), bucketHigh(B),
                   H.Buckets[B]);
      First = false;
    }
    std::fprintf(Out, "]}");
  }
  std::fprintf(Out, "],\"spans\":[");
  for (size_t I = 0; I < Doc.Data.Spans.size(); ++I) {
    const metrics::SpanSnapshot &S = Doc.Data.Spans[I];
    std::fprintf(Out,
                 "%s{\"name\":\"%s\",\"t0_ns\":%" PRIu64 ",\"dur_ns\":%" PRIu64
                 ",\"tid\":%" PRIu32 "}",
                 I == 0 ? "" : ",", json::escape(S.Name).c_str(), S.StartNs,
                 S.DurNs, S.Tid);
  }
  std::fprintf(Out, "]}\n");
}

void ccl::obs::writeMetricsChrome(const MetricsDoc &Doc, std::FILE *Out) {
  std::fprintf(Out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool First = true;
  for (const metrics::SpanSnapshot &S : Doc.Data.Spans) {
    std::fprintf(Out,
                 "%s{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%" PRIu32 "}",
                 First ? "" : ",", json::escape(S.Name).c_str(),
                 double(S.StartNs) / 1e3, double(S.DurNs) / 1e3, S.Tid);
    First = false;
  }
  std::fprintf(Out, "]}\n");
}
