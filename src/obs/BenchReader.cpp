//===- obs/BenchReader.cpp - ccl-bench-v1 document reader -----------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/BenchReader.h"

#include <cstdio>
#include <cstdlib>

using namespace ccl;
using namespace ccl::obs;
using json::Presence;

std::string BenchResultRecord::str(const std::string &Key,
                                   const std::string &Default) const {
  const json::Value *V = Obj.find(Key);
  return V && V->K == json::Value::Kind::String ? V->Text : Default;
}

double BenchResultRecord::num(const std::string &Key, bool *Ok) const {
  const json::Value *V = Obj.find(Key);
  bool IsNumber = V && V->K == json::Value::Kind::Number;
  if (Ok)
    *Ok = IsNumber;
  return IsNumber ? std::strtod(V->Text.c_str(), nullptr) : 0.0;
}

bool ccl::obs::parseBenchJson(const std::string &Text, BenchDoc &Doc,
                              std::string *Error) {
  json::Value Top;
  json::LineResult R = json::parseObjectLine(Text, Top);
  if (R) {
    json::FieldReader F(Top);
    std::string Schema;
    if (F.str("schema", Schema, Presence::Required) &&
        Schema != "ccl-bench-v1")
      F.fail("schema", "not ccl-bench-v1");
    F.str("bench", Doc.Bench);
    F.str("build_type", Doc.BuildType);
    if (const json::Value *Full = F.get("full", json::Value::Kind::Bool))
      Doc.Full = Full->Text == "true";
    if (const json::Value *Results = F.get(
            "results", json::Value::Kind::Array, Presence::Required)) {
      for (const json::Value &Result : Results->Items) {
        if (Result.K != json::Value::Kind::Object)
          F.fail("results", "expected objects");
        Doc.Results.push_back({Result});
      }
    }
    R = F.result();
  } else if (!R.malformed()) {
    R = json::LineResult::malformed("empty document");
  }
  if (!R && Error)
    *Error = R.Reason;
  return bool(R);
}

bool ccl::obs::readBenchFile(const std::string &Path, BenchDoc &Doc,
                             std::string *Error) {
  std::FILE *In = Path == "-" ? stdin : std::fopen(Path.c_str(), "r");
  if (!In) {
    if (Error)
      *Error = "cannot open";
    return false;
  }
  std::string Text;
  json::forEachLine(In, [&](const std::string &Line, size_t) {
    Text += Line + '\n';
    return true;
  });
  if (In != stdin)
    std::fclose(In);
  return parseBenchJson(Text, Doc, Error);
}
