//===- obs/BenchReader.h - ccl-bench-v1 document reader --------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline reader for the single-document ccl-bench-v1 JSON that the
/// benchmark binaries emit via BenchJson (--out / CCL_BENCH_OUT): a
/// top-level object with scalar fields plus a "results" array of flat
/// objects, parsed by the shared strict reader (support/Json.h). Used
/// by cclstat's sim-vs-hardware divergence table and by scripts via
/// --json.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_BENCHREADER_H
#define CCL_OBS_BENCHREADER_H

#include "support/Json.h"

#include <string>
#include <vector>

namespace ccl::obs {

/// One entry of the "results" array.
struct BenchResultRecord {
  json::Value Obj;

  /// String field, or \p Default when absent or not a string.
  std::string str(const std::string &Key,
                  const std::string &Default = {}) const;
  /// Numeric field; \p Ok (when non-null) reports whether it is present
  /// and a number.
  double num(const std::string &Key, bool *Ok = nullptr) const;
  bool has(const std::string &Key) const { return Obj.find(Key); }
};

struct BenchDoc {
  std::string Bench;
  std::string BuildType;
  bool Full = false;
  std::vector<BenchResultRecord> Results;
};

/// Parses a ccl-bench-v1 document: one object with "schema" equal to
/// "ccl-bench-v1" and a "results" array of objects. Returns false with
/// the reason in \p Error (when non-null) otherwise.
bool parseBenchJson(const std::string &Text, BenchDoc &Doc,
                    std::string *Error = nullptr);

/// Slurps and parses a file ("-" = stdin).
bool readBenchFile(const std::string &Path, BenchDoc &Doc,
                   std::string *Error = nullptr);

} // namespace ccl::obs

#endif // CCL_OBS_BENCHREADER_H
