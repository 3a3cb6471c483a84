#include "driver/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace lol::driver {

std::optional<std::uint64_t> parse_number(std::string_view text,
                                          std::uint64_t lo, std::uint64_t hi) {
  // from_chars on an unsigned type already refuses a sign and leading
  // whitespace; checking `end` refuses trailing junk ("4x").
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

Cli::Cli(int argc, char** argv) {
  prog_ = argc > 0 ? argv[0] : "tool";
  tool_ = prog_.substr(prog_.find_last_of('/') + 1);
  for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  used_.assign(args_.size(), false);
}

void Cli::consume(std::size_t i, std::size_t n) {
  for (std::size_t k = i; k < i + n && k < used_.size(); ++k) used_[k] = true;
}

bool Cli::has_flag(const std::string& name, const std::string& alias) {
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (used_[i]) continue;
    if (args_[i] == name || (!alias.empty() && args_[i] == alias)) {
      consume(i, 1);
      return true;
    }
  }
  return false;
}

std::optional<std::string> Cli::option(const std::string& name,
                                       const std::string& alias) {
  options_.insert(name);
  if (!alias.empty()) options_.insert(alias);
  for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
    if (used_[i]) continue;
    if (args_[i] == name || (!alias.empty() && args_[i] == alias)) {
      consume(i, 2);
      return args_[i + 1];
    }
  }
  return std::nullopt;
}

std::uint64_t Cli::checked_number(const std::string& what,
                                  const std::string& text, std::uint64_t lo,
                                  std::uint64_t hi) const {
  if (auto v = parse_number(text, lo, hi)) return *v;
  std::fprintf(stderr, "%s: bad %s '%s' (want a whole number in %llu..%llu)\n",
               tool_.c_str(), what.c_str(), text.c_str(),
               static_cast<unsigned long long>(lo),
               static_cast<unsigned long long>(hi));
  std::exit(2);
}

const std::vector<std::string>& Cli::positional() {
  if (!positional_built_) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (used_[i]) continue;
      const std::string& a = args_[i];
      if (a.size() > 1 && a[0] == '-') {
        const bool known = options_.count(a) != 0;
        std::fprintf(stderr, "%s: %s '%s'%s\n", tool_.c_str(),
                     known ? "option" : "unknown flag", a.c_str(),
                     known ? " is repeated or has no value" : " (see --help)");
        std::exit(2);
      }
      positional_.push_back(a);
    }
    positional_built_ = true;
  }
  return positional_;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return out.good();
}

}  // namespace lol::driver
