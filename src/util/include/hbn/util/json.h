// Minimal flat-record JSON emission for machine-readable benchmark output
// (an array of objects with string/number/boolean fields). Kept
// deliberately tiny:
// the perf-trajectory files (BENCH_*.json) need nothing more, and the
// container ships no JSON library.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hbn::util {

/// Builder for `[{"key": value, ...}, ...]` documents.
class JsonRecords {
 public:
  /// Starts a new record; subsequent field() calls attach to it.
  void beginRecord();

  void field(std::string_view key, std::string_view value);
  /// Without this overload a string literal would prefer the bool
  /// conversion below over string_view's user-defined one.
  void field(std::string_view key, const char* value) {
    field(key, std::string_view(value));
  }
  void field(std::string_view key, std::int64_t value);
  void field(std::string_view key, int value) {
    field(key, static_cast<std::int64_t>(value));
  }
  void field(std::string_view key, std::uint64_t value) {
    field(key, static_cast<std::int64_t>(value));
  }
  void field(std::string_view key, double value);
  void field(std::string_view key, bool value);

  [[nodiscard]] std::size_t recordCount() const noexcept {
    return records_.size();
  }

  /// Renders the whole array, one record per line.
  void write(std::ostream& os) const;

  /// Writes to `path`; throws std::runtime_error when the file cannot be
  /// opened.
  void writeFile(const std::string& path) const;

 private:
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
};

/// One parsed field of a flat record. Numbers keep their source text in
/// `text` alongside the parsed `number`, so round-trip tests can assert
/// on the exact emitted form.
struct ParsedField {
  enum class Kind { string, number, boolean, null };
  std::string key;
  Kind kind = Kind::null;
  std::string text;  ///< unescaped string, or the number/bool literal
  /// Value for number, 0/1 for boolean, quiet NaN for null (emission
  /// turns non-finite doubles into null, so parse→emit→parse of such
  /// fields is a fixed point).
  double number = 0.0;
};

using ParsedRecord = std::vector<ParsedField>;

/// Parses the subset of JSON that JsonRecords emits — an array of flat
/// objects whose values are strings, numbers, booleans, or null —
/// preserving field order. Throws std::runtime_error on malformed input,
/// nested containers, or duplicate keys within a record, which makes it
/// the validator for the BENCH_*.json trajectory files.
[[nodiscard]] std::vector<ParsedRecord> parseRecords(std::string_view json);

}  // namespace hbn::util
