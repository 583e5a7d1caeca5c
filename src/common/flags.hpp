// Minimal command-line flag parsing for benches and examples.
//
// Supports "--name=value" and boolean "--name"; everything else is
// positional.  ("--name value" is intentionally unsupported: it is
// ambiguous with a boolean flag followed by a positional argument.)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cg {

/// Upper bound of every --threads and --shards flag.  Each unit may start
/// one OS thread (a trial-farm worker, or a pool participant per shard),
/// so an unbounded value would ask the process for that many threads.
inline constexpr int kMaxThreads = 256;

class Flags {
 public:
  Flags(int argc, char** argv);

  bool has(const std::string& name) const { return kv_.count(name) != 0; }

  std::string get_string(const std::string& name, std::string def) const;
  bool get_bool(const std::string& name, bool def) const;

  // The numeric readers reject a value they cannot parse whole - empty,
  // trailing characters, out of range for the type - by printing
  // "--<flag>=<value>: expected ..." and exiting with status 2, the
  // drivers' usage-error status.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;

  /// A count (--n, --max-n, --trials, ...): an integer in
  /// [1, 2147483647], the positive NodeId/int range.  Any other value
  /// exits 2 naming the flag and the range, instead of narrowing silently
  /// or tripping a CG_CHECK deep in the run.
  int get_count(const std::string& name, int def) const;

  /// An integer in [lo, hi]; any other value exits 2 naming the flag and
  /// the range (hi = INT64_MAX reads as "an integer >= lo").
  std::int64_t get_int_in(const std::string& name, std::int64_t def,
                          std::int64_t lo, std::int64_t hi) const;

  /// Unless `ok`, print "--<name>=<value>: expected <expected>" and exit
  /// 2: for checks the readers cannot make alone (an open interval, a
  /// bound set by another flag).  Call it only for a flag that was given.
  void require(bool ok, const std::string& name,
               const std::string& expected) const;

  /// Positional (non --flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace cg
