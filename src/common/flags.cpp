#include "common/flags.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace cg {

Flags::Flags(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      kv_[arg] = "true";  // bare boolean flag ("--k v" is ambiguous: use --k=v)
    }
  }
}

std::string Flags::get_string(const std::string& name, std::string def) const {
  const auto it = kv_.find(name);
  return it == kv_.end() ? def : it->second;
}

namespace {

/// Usage error: name the flag, its value and what was expected; exit 2.
[[noreturn]] void reject(const std::string& name, const std::string& value,
                         const char* expected) {
  std::fprintf(stderr, "--%s=%s: expected %s\n", name.c_str(), value.c_str(),
               expected);
  std::exit(2);
}

/// Parse a whole value as a base-10 integer; false on an empty value,
/// trailing characters or overflow.
bool parse_int(const std::string& s, long long& v) {
  char* end = nullptr;
  errno = 0;
  v = std::strtoll(s.c_str(), &end, 10);
  return end != s.c_str() && *end == '\0' && errno != ERANGE;
}

}  // namespace

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  long long v = 0;
  if (!parse_int(it->second, v)) reject(name, it->second, "an integer");
  return v;
}

double Flags::get_double(const std::string& name, double def) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  const std::string& s = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE)
    reject(name, s, "a number");
  return v;
}

int Flags::get_count(const std::string& name, int def) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  constexpr long long kMax = std::numeric_limits<int>::max();
  long long v = 0;
  if (!parse_int(it->second, v) || v < 1 || v > kMax)
    reject(name, it->second, "an integer in [1, 2147483647]");
  return static_cast<int>(v);
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace cg
