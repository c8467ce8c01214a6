// Snapshot / restore of the DynamicMatcher state.
//
// The format writes what no other field determines: the edges with their
// levels, owners, flags and responsible edges, the registry's free-list
// order, the vertex bound, the D-deletion budgets and the RNG counters.
// The leveling structures are sets, and load() derives them from the
// edges, walking the alive ids in ascending order: a matched edge gives
// each endpoint its level and matched edge (every other vertex is
// unmatched at level -1), a structured edge joins adj(u) of each endpoint
// u and is counted in O(owner) and A(u, l(e)) of the others, a
// temp-deleted edge joins D(resp), and S_l follows from the counts. Member order is not state (no decision reads
// it), so a restored matcher continues bit-identically under the same
// seed and update stream: the same save() bytes and BatchResults.
// Cumulative statistics are deliberately excluded (they reset on load).
//
// Text format, line-oriented:
//   pdmm-snapshot v2
//   cfg <max_rank> <seed> <eager> <iter_factor> <max_repeats> <max_eager>
//   sch <n_bound> <updates_used> <batch_counter> <settle_counter>
//   reg <id_bound> <num_alive>
//   e <id> <k> <v...> <level> <owner> <flags> <resp>
//   f <free ids in order...>
//   nv <vertex_bound>
//   bd <eid> <epoch_d_deleted>          (only non-zero)
//   end
// v1 also wrote every vertex's level and matched edge and the member
// order of O(v), A(v,l) and D(e); this build refuses it on its header.
//
// The loader treats its input as *untrusted* (snapshots travel through
// files, checkpoints and journals that can be truncated, bit-rotted or
// hand-edited): every id is bounds-checked against the declared reg/nv
// bounds before it indexes anything, every numeric field is parsed
// strictly (a failed extraction is an error, not an uninitialized read),
// duplicate lines and duplicate endpoint sets are rejected, truncation (a
// missing `end` trailer) is rejected, and the declared alive-edge count
// must match. The derivation refuses what it cannot place: a structured
// edge at level -1 or with an owner that is not its endpoint, a
// temp-deleted edge without a responsible edge, a vertex two matched
// edges claim. The restored state is then vetted by the same oracle the
// tests use, MatchingChecker::violation (core/checker.h): every
// structural invariant of a between-batch state, run without aborting.
// Errors are returned as a SnapshotError — line-numbered for the
// parse-time checks, never an abort — and leave the matcher reset to its
// freshly-constructed empty state.
#include <algorithm>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/matcher.h"
#include "util/parse_num.h"

namespace pdmm {

bool DynamicMatcher::save(std::ostream& out) const {
  out << "pdmm-snapshot v2\n";
  out << "cfg " << cfg_.max_rank << ' ' << cfg_.seed << ' '
      << cfg_.settle_after_insertions << ' ' << cfg_.subsettle_iter_factor
      << ' ' << cfg_.max_settle_repeats << ' ' << cfg_.max_eager_sweeps
      << '\n';
  out << "sch " << scheme_.n_bound() << ' ' << updates_used_ << ' '
      << batch_counter_ << ' ' << settle_counter_ << '\n';

  out << "reg " << reg_.id_bound() << ' ' << reg_.num_edges() << '\n';
  for (EdgeId e = 0; e < reg_.id_bound(); ++e) {
    if (!reg_.alive(e)) continue;
    const auto eps = reg_.endpoints(e);
    out << "e " << e << ' ' << eps.size();
    for (Vertex v : eps) out << ' ' << v;
    out << ' ' << elevel_[e] << ' ' << eowner_[e] << ' '
        << static_cast<int>(eflags_[e]) << ' ' << eresp_[e] << '\n';
  }
  out << "f";
  for (EdgeId e : reg_.free_list()) out << ' ' << e;
  out << '\n';

  out << "nv " << verts_.size() << '\n';
  for (EdgeId e = 0; e < epoch_d_deleted_.size(); ++e) {
    if (epoch_d_deleted_[e] != 0) {
      out << "bd " << e << ' ' << epoch_d_deleted_[e] << '\n';
    }
  }
  out << "end\n";
  // A full disk or closed pipe raises badbit/failbit on the stream; a
  // snapshot that was not written completely is worse than no snapshot.
  out.flush();
  return out.good();
}

namespace {

// Whitespace tokenizer over one snapshot line. Tokens are copied into a
// reusable buffer so the strict strto*-based parsers (which need NUL
// termination) apply unchanged.
const std::string kNoLine;

class LineTokens {
 public:
  // Default-constructed: an empty line (next() false, at_end() true) —
  // never a dangling pointer, whatever the caller does before the first
  // real assignment.
  LineTokens() : line_(&kNoLine) {}
  explicit LineTokens(const std::string& line) : line_(&line) {}

  bool next(std::string& tok) {
    const std::string& s = *line_;
    while (pos_ < s.size() && (s[pos_] == ' ' || s[pos_] == '\t')) ++pos_;
    if (pos_ >= s.size()) return false;
    const size_t start = pos_;
    while (pos_ < s.size() && s[pos_] != ' ' && s[pos_] != '\t') ++pos_;
    tok.assign(s, start, pos_ - start);
    return true;
  }

  bool at_end() {
    const std::string& s = *line_;
    while (pos_ < s.size() && (s[pos_] == ' ' || s[pos_] == '\t')) ++pos_;
    return pos_ >= s.size();
  }

 private:
  const std::string* line_;
  size_t pos_ = 0;
};

// Parse state threaded through the load: current line, line number, and
// the pending error. All parse_* helpers return false after recording a
// line-numbered error, so call sites read as straight-line code.
struct Cursor {
  std::istream& in;
  std::string line;
  std::string tok;
  size_t lineno = 0;
  SnapshotError err;

  explicit Cursor(std::istream& s) : in(s) {}

  bool fail(std::string message) {
    if (err.ok()) {
      err.line = lineno;
      err.message = std::move(message);
    }
    return false;
  }

  bool next_line(LineTokens& lt, const char* what) {
    if (!std::getline(in, line)) {
      lineno = 0;  // stream-level: the line simply is not there
      return fail(std::string("unexpected end of snapshot (expected ") +
                  what + ")");
    }
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lt = LineTokens(line);
    return true;
  }

  bool tok_u64(LineTokens& lt, const char* what, uint64_t& out,
               uint64_t max) {
    if (!lt.next(tok)) {
      return fail(std::string("missing ") + what);
    }
    switch (parse_u64_strict(tok, out)) {
      case ParseNum::kMalformed:
        return fail(std::string("bad ") + what + " '" + tok +
                    "' (expected an unsigned integer)");
      case ParseNum::kOutOfRange:
        return fail(std::string(what) + " '" + tok + "' out of range");
      case ParseNum::kOk:
        break;
    }
    if (out > max) {
      return fail(std::string(what) + " " + tok + " exceeds bound " +
                  std::to_string(max));
    }
    return true;
  }

  // An id that must index a declared bound: fails when the bound is zero
  // or the value is >= bound, before the caller ever uses it as an index.
  bool tok_id(LineTokens& lt, const char* what, uint64_t& out,
              uint64_t bound) {
    if (!tok_u64(lt, what, out, UINT64_MAX)) return false;
    if (out >= bound) {
      return fail(std::string(what) + " " + std::to_string(out) +
                  " outside the declared bound " + std::to_string(bound));
    }
    return true;
  }

  bool tok_level(LineTokens& lt, const char* what, Level& out, Level lo,
                 Level hi) {
    if (!lt.next(tok)) {
      return fail(std::string("missing ") + what);
    }
    int64_t v = 0;
    switch (parse_i64_strict(tok, v)) {
      case ParseNum::kMalformed:
        return fail(std::string("bad ") + what + " '" + tok +
                    "' (expected an integer)");
      case ParseNum::kOutOfRange:
        return fail(std::string(what) + " '" + tok + "' out of range");
      case ParseNum::kOk:
        break;
    }
    if (v < lo || v > hi) {
      return fail(std::string(what) + " " + tok + " outside [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    out = static_cast<Level>(v);
    return true;
  }

  bool line_done(LineTokens& lt) {
    if (!lt.at_end()) {
      lt.next(tok);
      return fail("unexpected trailing token '" + tok + "'");
    }
    return true;
  }
};

// Per-id occupancy while restoring the registry: every id in [0, id_bound)
// must end up exactly alive or exactly free, whatever order the e/f lines
// arrive in.
enum : uint8_t { kIdUnseen = 0, kIdAlive = 1, kIdFree = 2 };

}  // namespace

void DynamicMatcher::reset_to_empty() {
  forget_view_base();
  scheme_ = LevelScheme(cfg_.max_rank,
                        std::max<uint64_t>(cfg_.initial_capacity, 2));
  reg_.restore_begin(0);
  verts_.clear();
  vhot_.clear();
  vcnt_.clear();
  elevel_.clear();
  eowner_.clear();
  eflags_.clear();
  eresp_.clear();
  edge_d_.clear();
  epoch_d_deleted_.clear();
  eslot_.clear();
  dslot_.clear();
  s_.assign(static_cast<size_t>(scheme_.top_level()) + 1, {});
  undecided_.assign(static_cast<size_t>(scheme_.top_level()) + 1, {});
  undecided_pos_.clear();
  reinsert_queue_.clear();
  batch_journal_.clear();
  matching_size_ = 0;
  updates_used_ = 0;
  batch_counter_ = 0;
  settle_counter_ = 0;
  reset_cumulative_stats();
}

// Cumulative statistics are not part of the snapshot state: both a
// successful load and a reset start the instance with fresh counters, as
// the save/load contract documents.
void DynamicMatcher::reset_cumulative_stats() {
  stats_ = MatcherStats{};
  epochs_.resize(epochs_.created.size());
  cost_.reset();
}

SnapshotError DynamicMatcher::load(std::istream& in) {
  SnapshotError err;
  try {
    err = load_validated(in);
  } catch (const std::bad_alloc&) {
    err = {0, "allocation failed (snapshot declares implausible bounds)"};
  } catch (const std::length_error&) {
    err = {0, "allocation failed (snapshot declares implausible bounds)"};
  }
  // A failed load leaves partially-restored structures behind; reset to
  // the freshly-constructed empty state so the matcher stays usable.
  if (!err.ok()) {
    reset_to_empty();
  } else {
    reset_cumulative_stats();
  }
  return err;
}

SnapshotError DynamicMatcher::load_validated(std::istream& in) {
  Cursor cur(in);
  LineTokens lt;
  const auto failed = [&cur] { return cur.err; };

  {
    if (!cur.next_line(lt, "snapshot header")) return failed();
    std::string magic, version;
    if (!lt.next(magic) || !lt.next(version) || magic != "pdmm-snapshot" ||
        !lt.at_end()) {
      cur.fail("unrecognized snapshot header (expected 'pdmm-snapshot v2')");
      return failed();
    }
    if (version != "v2") {
      cur.fail("snapshot format " + version +
               " is not supported; this build reads v2 only");
      return failed();
    }
  }
  {
    if (!cur.next_line(lt, "cfg line")) return failed();
    std::string tag;
    if (!lt.next(tag) || tag != "cfg") {
      cur.fail("expected cfg line");
      return failed();
    }
    uint64_t rank = 0, seed = 0, eager = 0, iter_factor = 0, repeats = 0,
             sweeps = 0;
    if (!cur.tok_u64(lt, "cfg max_rank", rank, UINT32_MAX) ||
        !cur.tok_u64(lt, "cfg seed", seed, UINT64_MAX) ||
        !cur.tok_u64(lt, "cfg eager", eager, 1) ||
        !cur.tok_u64(lt, "cfg iter_factor", iter_factor, UINT32_MAX) ||
        !cur.tok_u64(lt, "cfg max_repeats", repeats, UINT32_MAX) ||
        !cur.tok_u64(lt, "cfg max_eager", sweeps, UINT32_MAX) ||
        !cur.line_done(lt)) {
      return failed();
    }
    if (rank != cfg_.max_rank) {
      cur.fail("snapshot rank " + std::to_string(rank) +
               " differs from this matcher's Config rank " +
               std::to_string(cfg_.max_rank));
      return failed();
    }
    if (seed != cfg_.seed) {
      cur.fail("snapshot seed differs from this matcher's Config seed; "
               "continuation would diverge");
      return failed();
    }
    // The remaining cfg fields steer future batches; a mismatch does not
    // corrupt the restored state but would fork the continuation.
    if (eager != (cfg_.settle_after_insertions ? 1u : 0u) ||
        iter_factor != cfg_.subsettle_iter_factor ||
        repeats != cfg_.max_settle_repeats ||
        sweeps != cfg_.max_eager_sweeps) {
      cur.fail("snapshot settle parameters differ from this matcher's "
               "Config; continuation would diverge");
      return failed();
    }
  }

  uint64_t n_bound = 0;
  {
    if (!cur.next_line(lt, "sch line")) return failed();
    std::string tag;
    if (!lt.next(tag) || tag != "sch") {
      cur.fail("expected sch line");
      return failed();
    }
    if (!cur.tok_u64(lt, "sch n_bound", n_bound, UINT64_MAX) ||
        !cur.tok_u64(lt, "sch updates_used", updates_used_, UINT64_MAX) ||
        !cur.tok_u64(lt, "sch batch_counter", batch_counter_, UINT64_MAX) ||
        !cur.tok_u64(lt, "sch settle_counter", settle_counter_,
                     UINT64_MAX) ||
        !cur.line_done(lt)) {
      return failed();
    }
    scheme_ = LevelScheme(cfg_.max_rank, n_bound);
  }
  const Level top = scheme_.top_level();

  uint64_t id_bound = 0, num_alive = 0;
  {
    if (!cur.next_line(lt, "reg line")) return failed();
    std::string tag;
    if (!lt.next(tag) || tag != "reg") {
      cur.fail("expected reg line");
      return failed();
    }
    // Ids are uint32 with kNoEdge reserved, which also keeps a hostile
    // id_bound from requesting astronomically large arrays outright (the
    // bad_alloc guard in load() catches what still slips through).
    if (!cur.tok_u64(lt, "reg id_bound", id_bound, kNoEdge) ||
        !cur.tok_u64(lt, "reg num_alive", num_alive, id_bound) ||
        !cur.line_done(lt)) {
      return failed();
    }
  }
  reg_.restore_begin(id_bound);
  reset_state();
  batch_journal_.clear();
  elevel_.assign(id_bound, 0);
  eowner_.assign(id_bound, kNoVertex);
  eflags_.assign(id_bound, 0);
  eresp_.assign(id_bound, kNoEdge);
  edge_d_.clear();
  edge_d_.resize(id_bound);
  epoch_d_deleted_.assign(id_bound, 0);
  eslot_.assign(id_bound * cfg_.max_rank, kNoSlot);
  dslot_.assign(id_bound, kNoSlot);

  s_.assign(static_cast<size_t>(top) + 1, {});
  undecided_.assign(static_cast<size_t>(top) + 1, {});
  matching_size_ = 0;

  std::vector<uint8_t> id_state(id_bound, kIdUnseen);
  std::vector<Vertex> eps;
  std::vector<EdgeId> free_ids;
  bool saw_nv = false, saw_free = false, saw_end = false;
  uint64_t nv = 0;

  while (std::getline(in, cur.line)) {
    ++cur.lineno;
    if (!cur.line.empty() && cur.line.back() == '\r') cur.line.pop_back();
    if (cur.line.empty()) continue;
    lt = LineTokens(cur.line);
    std::string tag;
    if (!lt.next(tag)) continue;  // whitespace-only line
    if (tag == "end") {
      if (!cur.line_done(lt)) return failed();
      saw_end = true;
      break;
    }
    if (tag == "e") {
      uint64_t id = 0, k = 0;
      if (!cur.tok_id(lt, "edge id", id, id_bound) ||
          !cur.tok_u64(lt, "edge rank", k, cfg_.max_rank)) {
        return failed();
      }
      if (k == 0) {
        cur.fail("edge rank must be at least 1");
        return failed();
      }
      if (id_state[id] != kIdUnseen) {
        cur.fail("duplicate edge id " + std::to_string(id));
        return failed();
      }
      eps.resize(k);
      for (size_t i = 0; i < k; ++i) {
        uint64_t v = 0;
        if (!cur.tok_u64(lt, "edge endpoint", v, kNoVertex - 1)) {
          return failed();
        }
        eps[i] = static_cast<Vertex>(v);
        // save() emits canonical (sorted, duplicate-free) endpoints; the
        // registry's restore path relies on that.
        if (i > 0 && eps[i] <= eps[i - 1]) {
          cur.fail("edge endpoints not strictly ascending");
          return failed();
        }
      }
      Level lvl = 0;
      uint64_t owner = 0, flags = 0, resp = 0;
      if (!cur.tok_level(lt, "edge level", lvl, kUnmatchedLevel, top) ||
          !cur.tok_u64(lt, "edge owner", owner, kNoVertex) ||
          !cur.tok_u64(lt, "edge flags", flags, kMatched | kTempDeleted) ||
          !cur.tok_u64(lt, "edge resp", resp, kNoEdge) ||
          !cur.line_done(lt)) {
        return failed();
      }
      if ((flags & kMatched) && (flags & kTempDeleted)) {
        cur.fail("edge flagged both matched and temp-deleted");
        return failed();
      }
      if (resp != kNoEdge && resp >= id_bound) {
        cur.fail("edge resp " + std::to_string(resp) +
                 " outside the declared id bound");
        return failed();
      }
      if (!reg_.restore_slot(static_cast<EdgeId>(id), eps)) {
        cur.fail("duplicate edge endpoint set");
        return failed();
      }
      elevel_[id] = lvl;
      eowner_[id] = static_cast<Vertex>(owner);
      eflags_[id] = static_cast<uint8_t>(flags);
      eresp_[id] = static_cast<EdgeId>(resp);
      id_state[id] = kIdAlive;
      if (flags & kMatched) ++matching_size_;
    } else if (tag == "f") {
      if (saw_free) {
        cur.fail("duplicate free-list line");
        return failed();
      }
      saw_free = true;
      free_ids.clear();
      while (!lt.at_end()) {
        uint64_t id = 0;
        if (!cur.tok_id(lt, "free id", id, id_bound)) {
          return failed();
        }
        if (id_state[id] != kIdUnseen) {
          cur.fail("free id " + std::to_string(id) +
                   (id_state[id] == kIdAlive ? " is an alive edge"
                                             : " listed twice"));
          return failed();
        }
        id_state[id] = kIdFree;
        free_ids.push_back(static_cast<EdgeId>(id));
      }
      reg_.restore_free_list(free_ids);
    } else if (tag == "nv") {
      if (saw_nv) {
        cur.fail("duplicate nv line");
        return failed();
      }
      if (!cur.tok_u64(lt, "vertex bound", nv, kNoVertex) ||
          !cur.line_done(lt)) {
        return failed();
      }
      saw_nv = true;
      grow_vertices(static_cast<Vertex>(nv));  // reset_state() emptied them
    } else if (tag == "bd") {
      uint64_t e = 0, budget = 0;
      if (!cur.tok_id(lt, "bd edge id", e, id_bound) ||
          !cur.tok_u64(lt, "bd budget", budget, UINT32_MAX) ||
          !cur.line_done(lt)) {
        return failed();
      }
      if (budget == 0 || epoch_d_deleted_[e] != 0) {
        cur.fail(budget == 0 ? "bd line with zero budget"
                             : "duplicate bd line for edge " +
                                   std::to_string(e));
        return failed();
      }
      // Between batches a non-zero D-deletion budget exists only on a
      // matched edge's live epoch (set_matched / set_unmatched zero it).
      if (id_state[e] != kIdAlive || !(eflags_[e] & kMatched)) {
        cur.fail("bd line for edge " + std::to_string(e) +
                 " that is not an alive matched edge");
        return failed();
      }
      epoch_d_deleted_[e] = static_cast<uint32_t>(budget);
    } else {
      cur.fail("unknown snapshot line tag '" + tag + "'");
      return failed();
    }
  }

  if (!saw_end) {
    cur.lineno = 0;
    cur.fail("truncated snapshot: missing end trailer");
    return failed();
  }
  if (!saw_nv) {
    cur.lineno = 0;
    cur.fail("truncated snapshot: missing nv line");
    return failed();
  }
  if (!saw_free) {
    cur.lineno = 0;
    cur.fail("truncated snapshot: missing free-list line");
    return failed();
  }
  for (uint64_t id = 0; id < id_bound; ++id) {
    if (id_state[id] == kIdUnseen) {
      cur.lineno = 0;
      cur.fail("edge id " + std::to_string(id) +
               " neither alive nor on the free list");
      return failed();
    }
  }

  if (reg_.num_edges() != num_alive) {
    cur.lineno = 0;
    cur.fail("reg line declares " + std::to_string(num_alive) +
             " alive edges but the snapshot restored " +
             std::to_string(reg_.num_edges()));
    return failed();
  }

  // Derive the leveling structures from the edges, in ascending id. Each
  // check guards an index or a level the walk is about to use; whatever
  // the walk can place, the oracle below vets.
  grow_vertices(reg_.vertex_bound());
  const auto refused = [](EdgeId e, const std::string& why) {
    return SnapshotError{0, "edge " + std::to_string(e) + ": " + why};
  };
  for (EdgeId e = 0; e < id_bound; ++e) {
    if (!reg_.alive(e)) continue;
    if (eflags_[e] & kTempDeleted) {
      const EdgeId resp = eresp_[e];  // kNoEdge or below id_bound
      if (resp == kNoEdge) {
        return refused(e, "temp-deleted without a responsible edge");
      }
      auto& d = edge_d_[resp];
      if (!d) d = std::make_unique<EdgeList>();
      dslot_[e] = static_cast<uint32_t>(d->size());
      d->push_back(e);
      continue;
    }
    const auto ends = reg_.endpoints(e);
    const Level l = elevel_[e];
    const auto owner = std::find(ends.begin(), ends.end(), eowner_[e]);
    if (l < 0) return refused(e, "structured at level -1");
    if (owner == ends.end()) {
      return refused(e, "owner " + std::to_string(eowner_[e]) +
                            " is not one of its endpoints");
    }
    for (uint32_t j = 0; j < ends.size(); ++j) {
      attach(e, j, ends[j], ends.begin() + j == owner, l);
      if (!(eflags_[e] & kMatched)) continue;
      if (const EdgeId m = vhot_.matched(ends[j]); m != kNoEdge) {
        return refused(e, "matched, but vertex " + std::to_string(ends[j]) +
                              " is already matched to edge " +
                              std::to_string(m));
      }
      vhot_.set_matched(ends[j], e);
      vhot_.set_level(ends[j], l);
    }
  }
  // The S_l sets follow from the counts. This reads only levels in
  // [-1, L], so it is safe before the state is validated.
  for (Vertex v = 0; v < verts_.size(); ++v) {
    if (!verts_[v].adj.empty()) refresh_s_membership(v);
  }
  // Everything else a between-batch state must satisfy is the oracle's.
  if (std::string why = MatchingChecker::violation(*this); !why.empty()) {
    return {0, std::move(why)};
  }
  return {};
}

}  // namespace pdmm
