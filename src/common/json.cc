#include "common/json.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace kivati {
namespace json {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void AppendQuoted(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string Quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  AppendQuoted(out, text);
  return out;
}

namespace {

void AppendKey(std::string& out, const char* key) {
  out += '"';
  out += key;
  out += "\":";
}

}  // namespace

void Append(std::string& out, const char* key, std::uint64_t value, bool comma) {
  AppendKey(out, key);
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  if (comma) {
    out += ',';
  }
}

void Append(std::string& out, const char* key, bool value, bool comma) {
  AppendKey(out, key);
  out += value ? "true" : "false";
  if (comma) {
    out += ',';
  }
}

void Append(std::string& out, const char* key, std::string_view value, bool comma) {
  AppendKey(out, key);
  AppendQuoted(out, value);
  if (comma) {
    out += ',';
  }
}

void Append(std::string& out, const char* key, const char* value, bool comma) {
  Append(out, key, std::string_view(value), comma);
}

void Append(std::string& out, const char* key, double value, bool comma) {
  AppendFixed(out, key, value, 6, comma);
}

void AppendFixed(std::string& out, const char* key, double value, int decimals, bool comma) {
  AppendKey(out, key);
  char buf[352];  // %.Nf of DBL_MAX is 309 digits plus the decimals
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  out += buf;
  if (comma) {
    out += ',';
  }
}

// ---------------------------------------------------------------------------
// Reader: recursive descent over RFC 8259, one byte offset per error.
// ---------------------------------------------------------------------------

const Value* Value::Find(const std::string& key) const {
  for (const auto& [k, v] : object) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value Parse() {
    Value value = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool Consume(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AtDigit() const { return pos_ < text_.size() && IsDigit(text_[pos_]); }

  Value ParseValue() {
    switch (Peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          Fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        ++depth_;
        Value v = text_[pos_] == '{' ? ParseObject() : ParseArray();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.string = ParseString();
        return v;
      }
      case 't':
      case 'f':
      case 'n':
        return ParseKeyword();
      default:
        return ParseNumber();
    }
  }

  Value ParseKeyword() {
    Value v;
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v.type = Value::Type::kBool;
      v.boolean = true;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v.type = Value::Type::kBool;
    } else if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      Fail("unknown keyword");
    }
    return v;
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Value ParseNumber() {
    const std::size_t start = pos_;
    const bool negative = text_[pos_] == '-';
    if (negative) {
      ++pos_;
    }
    if (!AtDigit()) {
      Fail("expected a value");
    }
    Value v;
    v.type = Value::Type::kNumber;
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (AtDigit()) {
        const std::uint64_t digit = static_cast<std::uint64_t>(text_[pos_] - '0');
        if (v.uinteger > (UINT64_MAX - digit) / 10) {
          Fail("integer does not fit in 64 bits");
        }
        v.uinteger = v.uinteger * 10 + digit;
        ++pos_;
      }
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (!AtDigit()) {
        Fail("expected a digit after '.'");
      }
      while (AtDigit()) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!AtDigit()) {
        Fail("expected an exponent");
      }
      while (AtDigit()) {
        ++pos_;
      }
    }
    v.number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    v.is_uint = integral && !negative;
    if (!v.is_uint) {
      v.uinteger = 0;
    }
    return v;
  }

  unsigned ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      Fail("truncated \\u escape");
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      const char h = text_[pos_];
      unsigned digit = 0;
      if (IsDigit(h)) {
        digit = static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        digit = static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        digit = static_cast<unsigned>(h - 'A' + 10);
      } else {
        Fail("non-hex digit in \\u escape");
      }
      code = code * 16 + digit;
    }
    return code;
  }

  // The code point of a \u escape (the "\u" already consumed), joining a
  // UTF-16 surrogate pair.
  unsigned ParseCodePoint() {
    const unsigned code = ParseHex4();
    if (code >= 0xDC00 && code <= 0xDFFF) {
      Fail("unpaired low surrogate in \\u escape");
    }
    if (code < 0xD800 || code > 0xDBFF) {
      return code;
    }
    if (text_.compare(pos_, 2, "\\u") != 0) {
      Fail("unpaired high surrogate in \\u escape");
    }
    pos_ += 2;
    const unsigned low = ParseHex4();
    if (low < 0xDC00 || low > 0xDFFF) {
      Fail("unpaired high surrogate in \\u escape");
    }
    return 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  }

  static void AppendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
      }
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control character in string");
      }
      ++pos_;
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("unterminated escape");
      }
      switch (text_[pos_++]) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u':
          AppendUtf8(out, ParseCodePoint());
          break;
        default:
          --pos_;
          Fail("unknown escape");
      }
    }
  }

  Value ParseObject() {
    Expect('{');
    Value v;
    v.type = Value::Type::kObject;
    if (Consume('}')) {
      return v;
    }
    while (true) {
      if (Peek() != '"') {
        Fail("expected a string key");
      }
      std::string key = ParseString();
      Expect(':');
      v.object.emplace_back(std::move(key), ParseValue());
      if (Consume('}')) {
        return v;
      }
      Expect(',');
    }
  }

  Value ParseArray() {
    Expect('[');
    Value v;
    v.type = Value::Type::kArray;
    if (Consume(']')) {
      return v;
    }
    while (true) {
      v.array.push_back(ParseValue());
      if (Consume(']')) {
        return v;
      }
      Expect(',');
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value Parse(const std::string& text) { return Parser(text).Parse(); }

}  // namespace json
}  // namespace kivati
