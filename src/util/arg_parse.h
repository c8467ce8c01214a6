// Minimal command-line flag parser for the benchmark and example binaries.
// Flags look like: --name=value or --name value. Unknown flags abort with
// the usage string so typos never silently fall back to defaults — and the
// same contract holds for *values*: a numeric flag given an empty,
// non-numeric, trailing-garbage or out-of-range value aborts with a
// message and the usage string instead of silently parsing as 0.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "util/parse_num.h"

namespace pdmm {

class ArgParse {
 public:
  ArgParse(int argc, char** argv) {
    prog_ = argv[0];
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected positional argument: %s\n",
                     a.c_str());
        std::exit(2);
      }
      a = a.substr(2);
      const size_t eq = a.find('=');
      if (eq != std::string::npos) {
        args_[a.substr(0, eq)] = a.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args_[a] = argv[++i];
      } else {
        args_[a] = "1";  // boolean flag
      }
    }
  }

  // Each get_* registers the flag for usage() and consumes it.
  uint64_t get_u64(const std::string& name, uint64_t def) {
    return get_uint(name, def, UINT64_MAX,
                    "out of range for a 64-bit unsigned integer");
  }

  // For a flag the program keeps in 32 bits (a vertex count, a rank, a
  // thread count): a value past 2^32 - 1 is refused, not wrapped.
  uint32_t get_u32(const std::string& name, uint32_t def) {
    return static_cast<uint32_t>(get_uint(
        name, def, UINT32_MAX, "out of range for a 32-bit unsigned integer"));
  }

  double get_double(const std::string& name, double def) {
    note(name, std::to_string(def));
    auto it = args_.find(name);
    if (it == args_.end()) return def;
    double v = 0.0;
    switch (parse_f64_strict(it->second, v)) {
      case ParseNum::kMalformed:
        bad_value(name, it->second, "expected a number");
      case ParseNum::kOutOfRange:
        bad_value(name, it->second, "out of range for a double");
      case ParseNum::kOk: break;
    }
    consumed_.insert({name, true});
    return v;
  }

  std::string get_string(const std::string& name, const std::string& def) {
    note(name, def);
    auto it = args_.find(name);
    if (it == args_.end()) return def;
    consumed_.insert({name, true});
    return it->second;
  }

  bool get_bool(const std::string& name, bool def) {
    note(name, def ? "1" : "0");
    auto it = args_.find(name);
    if (it == args_.end()) return def;
    consumed_.insert({name, true});
    return it->second != "0" && it->second != "false";
  }

  // Call after all get_* registrations: aborts on unknown flags.
  void finish() {
    bool bad = false;
    for (const auto& [k, v] : args_) {
      if (!consumed_.count(k) && !known_.count(k)) {
        std::fprintf(stderr, "unknown flag --%s\n", k.c_str());
        bad = true;
      }
    }
    if (bad) {
      usage();
      std::exit(2);
    }
  }

 private:
  uint64_t get_uint(const std::string& name, uint64_t def, uint64_t max,
                    const char* out_of_range) {
    note(name, std::to_string(def));
    auto it = args_.find(name);
    if (it == args_.end()) return def;
    uint64_t v = 0;
    const ParseNum r = parse_u64_strict(it->second, v);
    if (r == ParseNum::kMalformed) {
      bad_value(name, it->second, "expected an unsigned integer");
    }
    if (r == ParseNum::kOutOfRange || v > max) {
      bad_value(name, it->second, out_of_range);
    }
    consumed_.insert({name, true});
    return v;
  }

  void note(const std::string& name, const std::string& def) {
    known_.emplace(name, def);
    if (args_.count(name)) consumed_.insert({name, true});
  }

  [[noreturn]] void bad_value(const std::string& name, const std::string& value,
                              const char* why) {
    std::fprintf(stderr, "invalid value for --%s: '%s' (%s)\n", name.c_str(),
                 value.c_str(), why);
    usage();
    std::exit(2);
  }

  void usage() const {
    std::fprintf(stderr, "usage: %s", prog_.c_str());
    for (const auto& [k, v] : known_)
      std::fprintf(stderr, " [--%s=%s]", k.c_str(), v.c_str());
    std::fprintf(stderr, "\n");
  }

  std::string prog_;
  std::map<std::string, std::string> args_;
  std::map<std::string, std::string> known_;
  std::map<std::string, bool> consumed_;
};

}  // namespace pdmm
