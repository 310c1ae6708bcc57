// Minimal deterministic JSON writer.
//
// Everything the observability layer emits — Chrome traces, run reports,
// bench artifacts — must be byte-identical across replays of the same
// configuration, so this writer is deliberately dumb: keys and values are
// emitted in caller order (callers iterate ordered containers), output is
// compact except for caller-placed newlines, doubles render via
// shortest-round-trip std::to_chars (no locale, no platform printf
// variance), and strings are escaped per RFC 8259.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace soc::obs {

/// Returns `s` quoted and escaped as a JSON string literal.
std::string json_quote(std::string_view s);

/// Zero-padded 16-digit hex rendering ("0x0123456789abcdef") — JSON
/// numbers lose precision above 2^53, so the event-checksum digest
/// travels as a string.
std::string checksum_hex(std::uint64_t v);

/// Streaming writer for one JSON document.  Misuse (e.g. a value with no
/// pending key inside an object) throws soc::Error.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key of the next object member.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  /// Shortest-round-trip decimal form; non-finite values emit null.
  void value(double v);
  /// Emits a pre-rendered JSON token verbatim (caller guarantees it is a
  /// valid value — used for fixed-point decimals rendered by integer math).
  void value_raw(std::string_view token);

  /// key() + value() in one call.
  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    value(v);
  }

  /// Inserts a newline (pure whitespace; keeps large arrays diffable).
  void newline();

  /// The document so far; complete once every container is closed.
  const std::string& str() const { return out_; }

 private:
  void separate();  ///< Emits ',' between siblings; balances key state.

  std::string out_;
  std::vector<char> stack_;  ///< '{' or '[' per open container.
  std::vector<bool> first_;  ///< Next element is the container's first.
  bool have_key_ = false;
};

}  // namespace soc::obs
