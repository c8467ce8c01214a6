// Minimal command-line flag parser for the tools and the examples. Flags
// look like: --name=value or --name value. Unknown flags exit 2 with the
// usage string so typos never silently fall back to defaults — and the
// same contract holds for *values*: a numeric flag given an empty,
// non-numeric, trailing-garbage or out-of-range value exits 2 with a
// message and the usage string instead of silently parsing as 0. Both
// exits happen in finish() (a bad value also in rest()), once every flag
// is registered, so the usage lists them all.
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

  // Each get_* registers the flag for usage() and claims it. A bad value is
  // recorded (the first one wins) and the default returned in its place;
  // rest() and finish() report it.
  uint64_t get_u64(const std::string& name, uint64_t def) {
    return get_uint(name, def, 64);
  }

  // For a flag the program keeps in 32 bits (a vertex count, a rank, a
  // thread count): a value past 2^32 - 1 is refused, not wrapped.
  uint32_t get_u32(const std::string& name, uint32_t def) {
    return static_cast<uint32_t>(get_uint(name, def, 32));
  }

  // The value check behind get_u64 (bits = 64) and get_u32 (bits = 32),
  // for a flag the program reads from rest() itself: stores the value and
  // returns "", or returns the message a bad value gets, e.g.
  // "invalid value for --n: 'abc' (expected an unsigned integer)".
  static std::string parse_uint(const std::string& name,
                                const std::string& value, unsigned bits,
                                uint64_t& out) {
    const uint64_t max = bits == 32 ? UINT32_MAX : UINT64_MAX;
    uint64_t v = 0;
    const ParseNum r = parse_u64_strict(value, v);
    if (r == ParseNum::kOk && v <= max) {
      out = v;
      return "";
    }
    return invalid(name, value,
                   r == ParseNum::kMalformed
                       ? "expected an unsigned integer"
                       : "out of range for a " + std::to_string(bits) +
                             "-bit unsigned integer");
  }

  double get_double(const std::string& name, double def) {
    const std::string* value = claim(name, std::to_string(def));
    if (!value) return def;
    double v = 0.0;
    const ParseNum r = parse_f64_strict(*value, v);
    if (r == ParseNum::kOk) return v;
    bad_value(invalid(name, *value,
                      r == ParseNum::kMalformed ? "expected a number"
                                                : "out of range for a double"));
    return def;
  }

  std::string get_string(const std::string& name, const std::string& def) {
    const std::string* value = claim(name, def);
    return value ? *value : def;
  }

  bool get_bool(const std::string& name, bool def) {
    const std::string* value = claim(name, def ? "1" : "0");
    if (!value) return def;
    return *value != "0" && *value != "false";
  }

  // Call after all get_* registrations. Returns the flags no get_* claimed
  // (name -> value), for a program that gives them a meaning of its own.
  // Exits 2 with the usage if a get_* saw a bad value.
  std::map<std::string, std::string> rest() const {
    if (!error_.empty()) {
      std::fprintf(stderr, "%s\n", error_.c_str());
      usage();
      std::exit(2);
    }
    std::map<std::string, std::string> out;
    for (const auto& [k, v] : args_) {
      if (!known_.count(k)) out.emplace(k, v);
    }
    return out;
  }

  // Call after all get_* registrations: exits 2 with the usage on a bad
  // value or an unknown flag.
  void finish() const {
    const auto unknown = rest();
    if (unknown.empty()) return;
    for (const auto& [k, v] : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", k.c_str());
    }
    usage();
    std::exit(2);
  }

 private:
  uint64_t get_uint(const std::string& name, uint64_t def, unsigned bits) {
    const std::string* value = claim(name, std::to_string(def));
    if (!value) return def;
    uint64_t v = def;  // parse_uint stores only a good value
    bad_value(parse_uint(name, *value, bits, v));
    return v;
  }

  // Registers the flag and its default for usage(); returns the given
  // value, or null when the flag is absent.
  const std::string* claim(const std::string& name, const std::string& def) {
    known_.emplace(name, def);
    const auto it = args_.find(name);
    return it == args_.end() ? nullptr : &it->second;
  }

  static std::string invalid(const std::string& name,
                             const std::string& value,
                             const std::string& why) {
    return "invalid value for --" + name + ": '" + value + "' (" + why + ")";
  }

  // Records the first bad value's message ("" is no error).
  void bad_value(const std::string& error) {
    if (error_.empty()) error_ = error;
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
  std::string error_;  // the first bad value, reported by rest()
};

}  // namespace pdmm
