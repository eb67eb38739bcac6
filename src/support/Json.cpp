//===- support/Json.cpp - JSON escaping and the one strict reader ---------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <charconv>
#include <cstdlib>
#include <cstring>

using namespace ccl;
using namespace ccl::json;

namespace {

// escape() writes these as two-character escapes; the reader inverts them.
constexpr char ShortRaw[] = "\"\\\n\t\r";
constexpr char ShortEscaped[] = "\"\\ntr";

/// Recursive descent over one text; each step returns false with Error
/// set at the first problem.
class Parser {
public:
  Parser(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool document(Value &Out) {
    if (!value(Out, 0))
      return false;
    skipSpace();
    return Pos == Text.size() || fail("text after the value");
  }

private:
  /// Bounds recursion so hostile input cannot exhaust the stack.
  static constexpr unsigned MaxDepth = 64;

  bool fail(const char *Why) {
    Error = Why;
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() && std::strchr(" \t\r\n", Text[Pos]) &&
           Text[Pos] != '\0')
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    bool Hit = Pos < Text.size() && Text[Pos] == C;
    Pos += Hit;
    return Hit;
  }

  bool value(Value &Out, unsigned Depth) {
    skipSpace();
    if (Pos == Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{' || C == '[')
      return Depth < MaxDepth ? container(Out, Depth + 1)
                              : fail("nested too deeply");
    if (C == '"') {
      Out.K = Value::Kind::String;
      return string(Out.Text);
    }
    if (C == '-' || (C >= '0' && C <= '9'))
      return number(Out);
    for (std::string_view Word : {"true", "false", "null"}) {
      if (Text.substr(Pos, Word.size()) != Word)
        continue;
      Out.K = Word == "null" ? Value::Kind::Null : Value::Kind::Bool;
      Out.Text = Word;
      Pos += Word.size();
      return true;
    }
    return fail("unexpected character");
  }

  /// An object or array; Pos is at its opening bracket.
  bool container(Value &Out, unsigned Depth) {
    bool IsObject = Text[Pos++] == '{';
    Out.K = IsObject ? Value::Kind::Object : Value::Kind::Array;
    char Close = IsObject ? '}' : ']';
    if (consume(Close))
      return true;
    do {
      if (IsObject) {
        skipSpace();
        if (Pos == Text.size() || Text[Pos] != '"')
          return fail("expected a member name");
        Out.Keys.emplace_back();
        if (!string(Out.Keys.back()))
          return false;
        if (!consume(':'))
          return fail("expected ':'");
      }
      Out.Items.emplace_back();
      if (!value(Out.Items.back(), Depth))
        return false;
    } while (consume(','));
    return consume(Close) ||
           fail(Pos == Text.size() ? "unterminated object or array"
                                   : "expected ',' or a closing bracket");
  }

  /// The one JSON string unescaper: the inverse of escape(), whose \u
  /// escapes are all ASCII. Pos is at the opening quote.
  bool string(std::string &Out) {
    for (++Pos; Pos < Text.size();) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos == Text.size())
        break;
      C = Text[Pos++];
      if (const char *Short = std::strchr(ShortEscaped, C); Short && C) {
        Out += ShortRaw[Short - ShortEscaped];
        continue;
      }
      unsigned Code = 0;
      const char *Hex = Text.data() + Pos;
      if (C != 'u' || Text.size() - Pos < 4 ||
          std::from_chars(Hex, Hex + 4, Code, 16).ptr != Hex + 4 ||
          Code >= 0x80)
        return fail("bad escape");
      Out += char(Code);
      Pos += 4;
    }
    return fail("unterminated string");
  }

  /// A number token: its characters, checked by a full strtod parse.
  /// toU64() applies the stricter unsigned-integer rule.
  bool number(Value &Out) {
    size_t Start = Pos;
    while (Pos < Text.size() && std::strchr("0123456789+-.eE", Text[Pos]) &&
           Text[Pos] != '\0')
      ++Pos;
    Out.K = Value::Kind::Number;
    Out.Text = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    std::strtod(Out.Text.c_str(), &End);
    return End == Out.Text.c_str() + Out.Text.size() || fail("bad number");
  }

  std::string_view Text;
  size_t Pos = 0;
  std::string &Error;
};

} // namespace

std::string json::escape(const std::string &Raw) {
  std::string Out;
  Out.reserve(Raw.size());
  for (char C : Raw) {
    if (const char *Short = std::strchr(ShortRaw, C); Short && C) {
      Out += {'\\', ShortEscaped[Short - ShortRaw]};
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buffer[8];
      std::snprintf(Buffer, sizeof(Buffer), "\\u%04x", C);
      Out += Buffer;
    } else {
      Out += C;
    }
  }
  return Out;
}

const Value *Value::find(std::string_view Key) const {
  for (size_t I = 0; K == Kind::Object && I < Keys.size(); ++I)
    if (Keys[I] == Key)
      return &Items[I];
  return nullptr;
}

bool json::toU64(const Value &V, uint64_t &Out, std::string &Error) {
  const char *First = V.Text.data(), *Last = First + V.Text.size();
  uint64_t Parsed = 0;
  auto [End, Ec] = std::from_chars(First, Last, Parsed);
  if (V.K != Value::Kind::Number)
    Error = "not a number";
  else if (V.Text[0] == '-')
    Error = "negative";
  else if (Ec == std::errc::result_out_of_range)
    Error = "out of range";
  else if (End != Last)
    Error = "not an integer";
  else {
    Out = Parsed;
    return true;
  }
  return false;
}

LineResult json::parseObjectLine(std::string_view Line, Value &Obj) {
  if (Line.find_first_not_of(" \t\r") == std::string_view::npos)
    return LineResult::skip();
  std::string Error;
  Obj = Value();
  if (!Parser(Line, Error).document(Obj))
    return LineResult::malformed(Error);
  if (Obj.K != Value::Kind::Object)
    return LineResult::malformed("not a JSON object");
  return {};
}

bool FieldReader::fail(const char *Key, const std::string &Why) {
  if (Error.empty())
    Error = std::string(Key) + ": " + Why;
  return false;
}

const Value *FieldReader::get(const char *Key, Value::Kind K, Presence P) {
  static const char *const Names[] = {"null",     "a boolean", "a number",
                                      "a string", "an array",  "an object"};
  const Value *V = Obj.find(Key);
  if (!V && P == Presence::Required)
    fail(Key, "missing");
  if (V && V->K != K)
    fail(Key, std::string("expected ") + Names[size_t(K)]);
  return V && V->K == K ? V : nullptr;
}

bool FieldReader::str(const char *Key, std::string &Out, Presence P) {
  const Value *V = get(Key, Value::Kind::String, P);
  if (V)
    Out = V->Text;
  return V;
}

bool FieldReader::u64(const char *Key, uint64_t &Out, Presence P) {
  const Value *V = get(Key, Value::Kind::Number, P);
  std::string Why;
  return V && (toU64(*V, Out, Why) || fail(Key, Why));
}

bool FieldReader::flag(const char *Key, bool &Out) {
  uint8_t V = 0;
  if (!uint(Key, V))
    return false;
  if (V > 1)
    return fail(Key, "expected 0 or 1");
  Out = V != 0;
  return true;
}

LineResult FieldReader::result() const {
  return Error.empty() ? LineResult() : LineResult::malformed(Error);
}
