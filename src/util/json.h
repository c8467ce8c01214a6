// JSON writer for the benchmark reports (BENCH_pdmm.json).
//
// JsonWriter emits one JSON document to an ostream with explicit begin/end
// nesting; the writer tracks the container stack, so commas and indentation
// are automatic and the output is always syntactically valid as long as
// begin/end calls are balanced. Doubles are written with shortest
// round-trip formatting (std::to_chars); NaN and infinities become null
// (JSON has no spelling for them). Integers are written exactly, all 64
// bits of them.
//
// There is no C++ reader: the reports are read by Python's json module
// (tools/bench_compare.py, the CI checks), which keeps integers exact.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.h"

namespace pdmm {

inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, int indent = 2)
      : out_(out), indent_(indent) {}

  ~JsonWriter() { PDMM_ASSERT_MSG(stack_.empty(), "unbalanced JSON nesting"); }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  // Key of the next value; must be inside an object.
  void key(std::string_view k) {
    separate();
    out_ << '"' << json_escape(k) << "\": ";
    have_key_ = true;
  }

  void value(std::string_view v) {
    separate();
    out_ << '"' << json_escape(v) << '"';
  }
  void value(const char* v) { value(std::string_view(v)); }
  void value(bool v) {
    separate();
    out_ << (v ? "true" : "false");
  }
  void value(uint64_t v) {
    separate();
    out_ << v;
  }
  void value(int64_t v) {
    separate();
    out_ << v;
  }
  void value(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ << "null";
      return;
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out_.write(buf, res.ptr - buf);
  }

  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    value(v);
  }

 private:
  struct Frame {
    char closer;
    bool first = true;
  };

  void open(char opener) {
    separate();
    out_ << opener;
    stack_.push_back({opener == '{' ? '}' : ']'});
  }

  void close(char closer) {
    PDMM_ASSERT_MSG(!stack_.empty() && stack_.back().closer == closer,
                    "mismatched JSON close");
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty) newline();
    out_ << closer;
  }

  // Emits the comma/newline before a value or key, unless a key was just
  // written (then the value follows inline).
  void separate() {
    if (have_key_) {
      have_key_ = false;
      return;
    }
    if (stack_.empty()) return;
    if (!stack_.back().first) out_ << ',';
    stack_.back().first = false;
    newline();
  }

  void newline() {
    out_ << '\n';
    for (size_t i = 0; i < stack_.size() * static_cast<size_t>(indent_); ++i)
      out_ << ' ';
  }

  std::ostream& out_;
  int indent_;
  bool have_key_ = false;
  std::vector<Frame> stack_;
};

}  // namespace pdmm
