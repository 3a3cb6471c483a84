// Tiny argv helper shared by the lcc / lolrun / lolserve command-line tools.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace lol::driver {

/// `text` as a whole unsigned decimal number within [lo, hi]: digits only,
/// no sign, no whitespace, no trailing characters. nullopt otherwise.
std::optional<std::uint64_t> parse_number(std::string_view text,
                                          std::uint64_t lo, std::uint64_t hi);

/// Minimal flag parser: supports `--flag`, `--key value`, `-k value` and
/// positional arguments, in any order.
class Cli {
 public:
  Cli(int argc, char** argv);

  /// True when `--name` (or an alias) was present.
  bool has_flag(const std::string& name, const std::string& alias = "");

  /// Value of `--name <value>`; nullopt when absent.
  std::optional<std::string> option(const std::string& name,
                                    const std::string& alias = "");

  /// Value of `--name <N>` checked by parse_number against [lo, hi]
  /// (hi defaults to the largest T); `fallback` when the option is
  /// absent. A bad value exits 2 (see checked_number).
  template <typename T>
  T number(const std::string& name, T fallback, std::uint64_t lo,
           std::uint64_t hi = std::numeric_limits<T>::max(),
           const std::string& alias = "") {
    auto v = option(name, alias);
    return v ? static_cast<T>(checked_number(name, *v, lo, hi)) : fallback;
  }

  /// `text` (the value given for `what`) parsed by parse_number, or a
  /// message naming both on stderr and exit status 2.
  std::uint64_t checked_number(
      const std::string& what, const std::string& text, std::uint64_t lo,
      std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) const;

  /// Positional arguments remaining after flags/options are consumed.
  /// Query every flag first: a leftover argument that starts with '-'
  /// is an unknown flag (or an option missing its value), which prints
  /// a message and exits with status 2.
  [[nodiscard]] const std::vector<std::string>& positional();

  /// The program name (argv[0]).
  [[nodiscard]] const std::string& prog() const { return prog_; }

 private:
  void consume(std::size_t i, std::size_t n);

  std::string prog_;
  std::string tool_;  // basename of argv[0], for messages
  std::vector<std::string> args_;
  std::vector<bool> used_;
  std::set<std::string> options_;  // every name option() was asked for
  std::vector<std::string> positional_;
  bool positional_built_ = false;
};

/// Reads a whole file; returns nullopt when unreadable.
std::optional<std::string> read_file(const std::string& path);

/// Writes a whole file; returns false on failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace lol::driver
