#include "obs/json.h"

#include <charconv>
#include <cmath>

#include "common/error.h"

namespace soc::obs {

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string checksum_hex(std::uint64_t v) {
  char buf[17] = "0000000000000000";
  char tmp[17];
  const auto r = std::to_chars(tmp, tmp + sizeof(tmp), v, 16);
  const auto len = static_cast<std::size_t>(r.ptr - tmp);
  for (std::size_t i = 0; i < len; ++i) buf[16 - len + i] = tmp[i];
  return std::string("0x") + buf;
}

void JsonWriter::separate() {
  if (have_key_) {
    // Object member value follows its key; no comma needed.
    have_key_ = false;
    return;
  }
  if (stack_.empty()) return;  // Top-level (single-value document).
  SOC_CHECK(stack_.back() == '[',
            "json: object member emitted without a key");
  if (!first_.back()) out_ += ',';
  first_.back() = false;
}

void JsonWriter::begin_object() {
  separate();
  out_ += '{';
  stack_.push_back('{');
  first_.push_back(true);
}

void JsonWriter::end_object() {
  SOC_CHECK(!stack_.empty() && stack_.back() == '{' && !have_key_,
            "json: end_object with no open object");
  out_ += '}';
  stack_.pop_back();
  first_.pop_back();
}

void JsonWriter::begin_array() {
  separate();
  out_ += '[';
  stack_.push_back('[');
  first_.push_back(true);
}

void JsonWriter::end_array() {
  SOC_CHECK(!stack_.empty() && stack_.back() == '[',
            "json: end_array with no open array");
  out_ += ']';
  stack_.pop_back();
  first_.pop_back();
}

void JsonWriter::key(std::string_view k) {
  SOC_CHECK(!stack_.empty() && stack_.back() == '{' && !have_key_,
            "json: key outside an object or after another key");
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  out_ += json_quote(k);
  out_ += ':';
  have_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  separate();
  out_ += json_quote(s);
}

void JsonWriter::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
}

void JsonWriter::value(std::int64_t v) {
  separate();
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, r.ptr);
}

void JsonWriter::value(std::uint64_t v) {
  separate();
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, r.ptr);
}

void JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no NaN/Inf; null keeps the document valid.
    return;
  }
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, r.ptr);
}

void JsonWriter::value_raw(std::string_view token) {
  separate();
  out_ += token;
}

void JsonWriter::newline() { out_ += '\n'; }

}  // namespace soc::obs
