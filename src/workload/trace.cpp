#include "workload/trace.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/assert.h"
#include "util/parse_num.h"

namespace pdmm {

namespace {

void append_ops(std::string& out, char op,
                const std::vector<std::vector<Vertex>>& edges) {
  char buf[std::numeric_limits<Vertex>::digits10 + 2];
  for (const auto& eps : edges) {
    out += op;
    for (Vertex v : eps) {
      out += ' ';
      const auto r = std::to_chars(std::begin(buf), std::end(buf), v);
      out.append(buf, r.ptr);
    }
    out += '\n';
  }
}

}  // namespace

void append_batch(std::string& out, const Batch& b) {
  append_ops(out, 'd', b.deletions);
  append_ops(out, 'i', b.insertions);
  out += "b\n";
}

void write_trace(std::ostream& out, const std::vector<Batch>& batches) {
  std::string s = "# pdmm update trace: " + std::to_string(batches.size()) +
                  " batches\n";
  for (const Batch& b : batches) append_batch(s, b);
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

namespace {

bool trace_error(std::string* error, size_t lineno, const std::string& what) {
  if (error) *error = "trace line " + std::to_string(lineno) + ": " + what;
  return false;
}

}  // namespace

bool read_trace(std::istream& in, std::vector<Batch>& out,
                std::string* error) {
  out.clear();
  Batch cur;
  bool cur_dirty = false;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op)) continue;  // whitespace-only line: treat as blank
    if (op == "b") {
      std::string extra;
      if (ls >> extra) {
        return trace_error(error, lineno,
                           "unexpected token '" + extra +
                               "' after batch boundary");
      }
      out.push_back(std::move(cur));
      cur = {};
      cur_dirty = false;
      continue;
    }
    if (op != "i" && op != "d") {
      return trace_error(error, lineno, "unknown op '" + op + "'");
    }
    std::vector<Vertex> eps;
    std::string tok;
    while (ls >> tok) {
      // Parse each endpoint strictly: every token must be a plain decimal
      // vertex id in range (istream's `>> uint` would silently stop at the
      // first bad token, truncating the endpoint list).
      uint64_t v = 0;
      const ParseNum pr = parse_u64_strict(tok, v);
      if (pr == ParseNum::kMalformed) {
        return trace_error(error, lineno,
                           "bad endpoint '" + tok + "' (expected an "
                           "unsigned integer)");
      }
      if (pr == ParseNum::kOutOfRange || v >= kNoVertex) {
        return trace_error(error, lineno,
                           "endpoint '" + tok + "' out of vertex range");
      }
      const Vertex u = static_cast<Vertex>(v);
      if (std::find(eps.begin(), eps.end(), u) != eps.end()) {
        return trace_error(error, lineno,
                           "duplicate endpoint " + tok + " within one edge");
      }
      eps.push_back(u);
    }
    if (eps.empty()) {
      return trace_error(error, lineno,
                         "op '" + op + "' without endpoints");
    }
    if (op == "i") {
      cur.insertions.push_back(std::move(eps));
    } else {
      cur.deletions.push_back(std::move(eps));
    }
    cur_dirty = true;
  }
  if (cur_dirty) out.push_back(std::move(cur));
  return true;
}

std::vector<Batch> read_trace_or_die(std::istream& in) {
  std::vector<Batch> batches;
  std::string err;
  const bool ok = read_trace(in, batches, &err);
  // lint:allow(assert-recoverable) the _or_die suffix is the contract:
  // test/bench conveniences opt into aborting; servers use read_trace.
  PDMM_ASSERT_MSG(ok, err.c_str());
  return batches;
}

}  // namespace pdmm
