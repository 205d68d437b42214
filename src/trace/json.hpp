// JSON for the trace/metrics exporters: the two writer helpers every
// exporter formats with (metrics, Chrome trace, stream telemetry), and a
// minimal parser used to validate and round-trip their output (tests and
// `bcdyn_trace --selftest`). The parser is strict enough to reject
// malformed exporter output: full UTF-8 passthrough, \uXXXX escapes
// validated, no trailing garbage, no trailing commas.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bcdyn::trace {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  // Map preserves exporter key order lexicographically; duplicate keys are
  // a parse error (the exporters never emit them).
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
};

struct JsonParseResult {
  bool ok = false;
  std::string error;  // "offset N: message" when !ok
  JsonValue value;
};

JsonParseResult parse_json(std::string_view text);

/// Shortest round-trippable formatting of a double (JSON has no inf/nan;
/// the exporters never store those).
std::string json_number(double v);

/// `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, every other byte (UTF-8 included) passed through.
std::string json_quote(const std::string& s);

}  // namespace bcdyn::trace
