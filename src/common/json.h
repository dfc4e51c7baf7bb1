// The one JSON layer behind every Kivati report and artifact.
//
// Writer. Reports are built by appending to a std::string in one compact
// style: `"key":value` pairs in a fixed order, each followed by ',' unless
// the caller passes comma=false. Unsigned integers print in decimal,
// doubles as fixed-point with six decimals unless a caller pins another
// precision (AppendFixed). The single string escaper follows RFC 8259 §7:
// '"' and '\\' are backslash-escaped, newline and tab use their short
// forms, and every other control character becomes \u00XX. Keys are
// written verbatim: callers pass fixed identifiers.
//
// Reader. Parse() turns one RFC 8259 document into a Value tree. It is
// strict wherever a lenient reader would silently change a value: nesting
// deeper than kMaxDepth, \u escapes with non-hex digits or unpaired
// surrogates, integers that do not fit uint64_t, raw control characters
// inside strings, and trailing content are all rejected. Errors throw
// std::runtime_error("JSON parse error at byte N: ...").
#ifndef KIVATI_COMMON_JSON_H_
#define KIVATI_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kivati {
namespace json {

// ---- Writer ---------------------------------------------------------------

// Appends `text` as a quoted, escaped JSON string.
void AppendQuoted(std::string& out, std::string_view text);
// The same, returned.
std::string Quote(std::string_view text);

// `"key":value` plus a trailing ',' when `comma`.
void Append(std::string& out, const char* key, std::uint64_t value, bool comma = true);
void Append(std::string& out, const char* key, bool value, bool comma = true);
void Append(std::string& out, const char* key, std::string_view value, bool comma = true);
void Append(std::string& out, const char* key, const char* value, bool comma = true);
// Doubles print as %.6f; AppendFixed pins another number of decimals.
void Append(std::string& out, const char* key, double value, bool comma = true);
void AppendFixed(std::string& out, const char* key, double value, int decimals,
                 bool comma = true);

// ---- Reader ---------------------------------------------------------------

// Documents nested deeper than this are rejected instead of recursing.
inline constexpr int kMaxDepth = 128;

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t uinteger = 0;  // valid when is_uint
  bool is_uint = false;        // a non-negative integer literal
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // in document order

  // The first member named `key`, or nullptr (also for non-objects).
  const Value* Find(const std::string& key) const;
};

Value Parse(const std::string& text);

}  // namespace json
}  // namespace kivati

#endif  // KIVATI_COMMON_JSON_H_
