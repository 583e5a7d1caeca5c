#include "common/flags.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"

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

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  CG_CHECK_MSG(end && *end == '\0', "integer flag parse error");
  return v;
}

double Flags::get_double(const std::string& name, double def) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  CG_CHECK_MSG(end && *end == '\0', "double flag parse error");
  return v;
}

NodeId Flags::get_node_count(const std::string& name, NodeId def) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  constexpr long long kMax = std::numeric_limits<NodeId>::max();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE || v < 1 ||
      v > kMax) {
    std::fprintf(stderr, "--%s=%s: expected an integer in [1, %lld]\n",
                 name.c_str(), it->second.c_str(), kMax);
    std::exit(2);
  }
  return static_cast<NodeId>(v);
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace cg
