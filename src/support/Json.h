//===- support/Json.h - JSON escaping and the one strict reader -*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// escape() for every ccl-* writer, and a small recursive-descent parser
/// for the JSON those writers emit (objects, arrays, strings, numbers,
/// booleans, null). Strings are unescaped as the inverse of escape();
/// numbers keep their text and are checked when a field is read, so an
/// unsigned field takes digits only: no sign, fraction, exponent,
/// overflow or trailing text.
///
/// All readers (ccl-trace, ccl-metrics, ccl-fields JSONL and the
/// ccl-bench-v1 document) share one policy:
///  * blank lines are skipped;
///  * unknown kinds and unknown fields are skipped, so formats stay
///    forward-compatible;
///  * a line is malformed if it is not one complete object, if it lacks
///    a required field, or if a known field holds the wrong type or a
///    bad number. A malformed line is reported with its reason, never
///    defaulted, and readJsonl() stops there.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SUPPORT_JSON_H
#define CCL_SUPPORT_JSON_H

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ccl::json {

/// Escapes \p Raw for a JSON string literal (quotes not included).
std::string escape(const std::string &Raw);

/// One parsed value. Text holds a string (unescaped), a number's token,
/// or a literal.
struct Value {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  std::string Text;
  std::vector<std::string> Keys; ///< Object member names.
  std::vector<Value> Items;      ///< Array elements / member values.

  /// Member \p Key of an object (the first if repeated), else null.
  const Value *find(std::string_view Key) const;
};

/// An unsigned integer: a Number of digits only that fits in 64 bits.
bool toU64(const Value &V, uint64_t &Out, std::string &Error);

/// What a line reader made of one line.
struct LineResult {
  enum class Kind : uint8_t { Record, Skip, Malformed };
  Kind K = Kind::Record;
  std::string Reason; ///< Malformed only.

  static LineResult skip() { return {Kind::Skip, {}}; }
  static LineResult malformed(std::string Why) {
    return {Kind::Malformed, std::move(Why)};
  }
  bool malformed() const { return K == Kind::Malformed; }
  explicit operator bool() const { return K == Kind::Record; }
};

/// Skip for a blank line, Malformed unless \p Line is exactly one
/// object (whitespace around it allowed), else Record with the object
/// in \p Obj.
LineResult parseObjectLine(std::string_view Line, Value &Obj);

enum class Presence : uint8_t { Optional, Required };

/// Typed field reads on one object. An absent optional field leaves its
/// output untouched; an absent required field, or a present one of the
/// wrong type or with a bad number, is recorded as the line's first
/// failure. Each read returns true when it stored a value.
class FieldReader {
public:
  explicit FieldReader(const Value &Obj) : Obj(Obj) {}

  bool str(const char *Key, std::string &Out,
           Presence P = Presence::Optional);
  /// An unsigned integer that must also fit in \p T.
  template <typename T>
  bool uint(const char *Key, T &Out, Presence P = Presence::Optional) {
    uint64_t V = 0;
    if (!u64(Key, V, P))
      return false;
    if (V > std::numeric_limits<T>::max())
      return fail(Key, "out of range");
    Out = T(V);
    return true;
  }
  /// A 0/1 flag.
  bool flag(const char *Key, bool &Out);
  /// The field if it holds a \p K value, else null.
  const Value *get(const char *Key, Value::Kind K,
                   Presence P = Presence::Optional);
  /// Records "<Key>: <Why>" unless a failure is already recorded.
  bool fail(const char *Key, const std::string &Why);
  /// Record, or Malformed with the first failure.
  LineResult result() const;

private:
  bool u64(const char *Key, uint64_t &Out, Presence P);

  const Value &Obj;
  std::string Error;
};

/// Calls \p Callback(Line, Number) for each line of \p In, newline
/// stripped, numbered from 1, until it returns false.
template <typename Fn> void forEachLine(std::FILE *In, Fn &&Callback) {
  std::string Line;
  size_t Number = 0;
  // Byte at a time, so a NUL inside a line reaches the parser.
  for (int C; (C = std::getc(In)) != EOF;) {
    if (C != '\n') {
      Line += char(C);
      continue;
    }
    if (!Callback(std::as_const(Line), ++Number))
      return;
    Line.clear();
  }
  if (!Line.empty())
    Callback(std::as_const(Line), ++Number);
}

/// Feeds each line of \p In to \p ParseLine (returning a LineResult) and
/// counts records. At the first malformed line, returns -1 with
/// "<line>: <reason>" in \p Error (when non-null).
template <typename ParseFn>
long readJsonl(std::FILE *In, ParseFn &&ParseLine,
               std::string *Error = nullptr) {
  long Records = 0;
  forEachLine(In, [&](const std::string &Line, size_t Number) {
    LineResult R = ParseLine(Line);
    if (R.malformed() && Error)
      *Error = std::to_string(Number) + ": " + R.Reason;
    Records = R.malformed() ? -1 : Records + bool(R);
    return !R.malformed();
  });
  return Records;
}

} // namespace ccl::json

#endif // CCL_SUPPORT_JSON_H
