// Snapshot / restore tests: a restored matcher must be structurally
// indistinguishable from the original (full invariant oracle) and continue
// *bit-identically* under the same seed and update stream — and the loader
// must treat its input as untrusted: every corpus of truncated, duplicated,
// out-of-bounds and non-numeric mutations below must come back as a
// recoverable SnapshotError (never a crash, abort or out-of-bounds access;
// the ASan job runs this file to enforce the latter), leaving the matcher
// reset and fully usable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/checker.h"
#include "core/matcher.h"
#include "param_name.h"
#include "util/parse_num.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pdmm {
namespace {

Config snap_config(uint32_t rank = 2, uint64_t seed = 77) {
  Config cfg;
  cfg.max_rank = rank;
  cfg.seed = seed;
  cfg.check_invariants = true;
  cfg.initial_capacity = 1 << 14;
  cfg.auto_rebuild = false;  // keep the stream-long N stable in these tests
  return cfg;
}

void drive(DynamicMatcher& m, ChurnStream& stream, int batches, size_t k) {
  for (int i = 0; i < batches; ++i) {
    const Batch b = stream.next(k);
    std::vector<EdgeId> dels;
    for (const auto& eps : b.deletions) dels.push_back(m.find_edge(eps));
    m.update(dels, b.insertions);
  }
}

std::string save_str(const DynamicMatcher& m) {
  std::stringstream buf;
  EXPECT_TRUE(m.save(buf));
  return buf.str();
}

SnapshotError load_str(DynamicMatcher& m, const std::string& snapshot) {
  std::istringstream in(snapshot);
  return m.load(in);
}

struct SnapParams {
  uint32_t rank;
  Vertex n;
  size_t target;
  uint64_t seed;
};

class Snapshot : public testing::TestWithParam<SnapParams> {};

TEST_P(Snapshot, RestoredStatePassesOracleAndMatches) {
  const auto p = GetParam();
  ThreadPool pool(1);
  DynamicMatcher a(snap_config(p.rank, p.seed), pool);
  ChurnStream::Options so;
  so.n = p.n;
  so.rank = p.rank;
  so.target_edges = p.target;
  so.zipf_s = 0.6;  // exercise temp-deleted sets
  so.seed = p.seed + 1;
  ChurnStream stream(so);
  drive(a, stream, 25, 32);

  DynamicMatcher b(snap_config(p.rank, p.seed), pool);
  const SnapshotError err = load_str(b, save_str(a));
  ASSERT_TRUE(err.ok()) << err.to_string();
  MatchingChecker::check(b);
  EXPECT_EQ(a.matching(), b.matching());
  EXPECT_EQ(a.matching_size(), b.matching_size());
  EXPECT_EQ(a.graph().num_edges(), b.graph().num_edges());
  for (Vertex v = 0; v < p.n; ++v) {
    EXPECT_EQ(a.vertex_level(v), b.vertex_level(v)) << "vertex " << v;
  }
}

TEST_P(Snapshot, ContinuationIsBitIdentical) {
  const auto p = GetParam();
  ThreadPool pool(1);
  DynamicMatcher a(snap_config(p.rank, p.seed), pool);
  ChurnStream::Options so;
  so.n = p.n;
  so.rank = p.rank;
  so.target_edges = p.target;
  so.zipf_s = 0.6;
  so.seed = p.seed + 1;
  ChurnStream stream_a(so);
  drive(a, stream_a, 20, 32);

  DynamicMatcher b(snap_config(p.rank, p.seed), pool);
  const SnapshotError err = load_str(b, save_str(a));
  ASSERT_TRUE(err.ok()) << err.to_string();

  // Continue both under identical batches; every intermediate state must
  // agree exactly (ids included — the free-list order is preserved).
  for (int i = 0; i < 15; ++i) {
    const Batch batch = stream_a.next(32);
    auto resolve = [](DynamicMatcher& m, const Batch& bt) {
      std::vector<EdgeId> dels;
      for (const auto& eps : bt.deletions) dels.push_back(m.find_edge(eps));
      return dels;
    };
    const auto ra = a.update(resolve(a, batch), batch.insertions);
    const auto rb = b.update(resolve(b, batch), batch.insertions);
    ASSERT_EQ(ra.inserted_ids, rb.inserted_ids);
    ASSERT_EQ(ra.newly_matched, rb.newly_matched);
    ASSERT_EQ(ra.newly_unmatched, rb.newly_unmatched);
    ASSERT_EQ(a.matching(), b.matching());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Snapshot,
    testing::Values(SnapParams{2, 64, 128, 1}, SnapParams{2, 64, 128, 2},
                    SnapParams{2, 200, 600, 3}, SnapParams{3, 80, 160, 4},
                    SnapParams{4, 100, 150, 5}, SnapParams{2, 32, 256, 6}),
    [](const auto& info) {
      const auto& p = info.param;
      return testing_util::name_cat("r", p.rank, "_n", p.n, "_s", p.seed);
    });

// ---------------------------------------------------------------------------
// Save -> load -> continue equivalence across stream shapes and thread
// counts: the continuation of a restored matcher must be byte-identical
// (full save() output) to the original's, whatever pool drives it.
// ---------------------------------------------------------------------------

enum class StreamKind { kChurn, kOscillation };

struct ContinueParams {
  StreamKind stream;
  unsigned threads;
};

class SaveLoadContinue : public testing::TestWithParam<ContinueParams> {};

TEST_P(SaveLoadContinue, ContinuationSnapshotsByteIdentical) {
  const auto p = GetParam();
  ThreadPool pool(p.threads, /*allow_oversubscribe=*/true);
  Config cfg = snap_config(2, 404);
  cfg.check_invariants = false;  // matrix is about state, oracle runs below

  auto next_batch = [&](auto& stream) { return stream.next(48); };
  auto run = [&](auto make_stream) {
    DynamicMatcher a(cfg, pool);
    auto stream = make_stream();
    for (int i = 0; i < 30; ++i) {
      const Batch b = next_batch(stream);
      a.update_by_endpoints(b.deletions, b.insertions);
    }
    const std::string snap = save_str(a);

    DynamicMatcher b(cfg, pool);
    const SnapshotError err = load_str(b, snap);
    ASSERT_TRUE(err.ok()) << err.to_string();
    ASSERT_EQ(save_str(b), snap) << "restored state must re-save "
                                    "byte-identically";
    for (int i = 0; i < 20; ++i) {
      const Batch batch = next_batch(stream);
      a.update_by_endpoints(batch.deletions, batch.insertions);
      b.update_by_endpoints(batch.deletions, batch.insertions);
    }
    MatchingChecker::check(b);
    ASSERT_EQ(save_str(a), save_str(b))
        << "continuation diverged after restore";
  };

  if (p.stream == StreamKind::kChurn) {
    run([] {
      ChurnStream::Options so;
      so.n = 300;
      so.target_edges = 700;
      so.zipf_s = 0.5;
      so.seed = 11;
      return ChurnStream(so);
    });
  } else {
    run([] {
      OscillationStream::Options so;
      so.n = 300;
      so.core_edges = 128;
      so.background_edges = 400;
      so.seed = 12;
      return OscillationStream(so);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SaveLoadContinue,
    testing::Values(ContinueParams{StreamKind::kChurn, 1},
                    ContinueParams{StreamKind::kChurn, 2},
                    ContinueParams{StreamKind::kChurn, 4},
                    ContinueParams{StreamKind::kOscillation, 1},
                    ContinueParams{StreamKind::kOscillation, 2},
                    ContinueParams{StreamKind::kOscillation, 4}),
    [](const auto& info) {
      const auto& p = info.param;
      return testing_util::name_cat(
          p.stream == StreamKind::kChurn ? "churn" : "oscillation", "_t",
          p.threads);
    });

TEST(SnapshotBasic, EmptyMatcherRoundTrips) {
  ThreadPool pool(1);
  DynamicMatcher a(snap_config(), pool);
  DynamicMatcher b(snap_config(), pool);
  const SnapshotError err = load_str(b, save_str(a));
  ASSERT_TRUE(err.ok()) << err.to_string();
  EXPECT_EQ(b.matching_size(), 0u);
  EXPECT_EQ(b.graph().num_edges(), 0u);
  // And it still works afterwards.
  b.insert_batch(std::vector<std::vector<Vertex>>{{0, 1}});
  EXPECT_EQ(b.matching_size(), 1u);
}

TEST(SnapshotBasic, PreservesTempDeletedRelationships) {
  ThreadPool pool(1);
  DynamicMatcher a(snap_config(2, 9), pool);
  std::vector<std::vector<Vertex>> spokes;
  for (Vertex i = 1; i <= 120; ++i) spokes.push_back({0, i});
  a.insert_batch(spokes);

  DynamicMatcher b(snap_config(2, 9), pool);
  const SnapshotError err = load_str(b, save_str(a));
  ASSERT_TRUE(err.ok()) << err.to_string();
  MatchingChecker::check(b);
  size_t temp_a = 0, temp_b = 0;
  for (EdgeId e : a.graph().all_edges()) temp_a += a.is_temp_deleted(e);
  for (EdgeId e : b.graph().all_edges()) temp_b += b.is_temp_deleted(e);
  EXPECT_GT(temp_a, 0u);
  EXPECT_EQ(temp_a, temp_b);
}

TEST(SnapshotBasic, SeedMismatchIsRecoverableError) {
  ThreadPool pool(1);
  DynamicMatcher a(snap_config(2, 1), pool);
  DynamicMatcher b(snap_config(2, 2), pool);
  const SnapshotError err = load_str(b, save_str(a));
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.message.find("seed"), std::string::npos) << err.to_string();
  EXPECT_EQ(err.line, 2u);
}

TEST(SnapshotBasic, RankMismatchIsRecoverableError) {
  ThreadPool pool(1);
  DynamicMatcher a(snap_config(2, 1), pool);
  DynamicMatcher b(snap_config(3, 1), pool);
  const SnapshotError err = load_str(b, save_str(a));
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.message.find("rank"), std::string::npos) << err.to_string();
}

TEST(SnapshotBasic, SaveReportsStreamFailure) {
  ThreadPool pool(1);
  DynamicMatcher a(snap_config(), pool);
  std::ostringstream out;
  out.setstate(std::ios::badbit);  // closed pipe / full disk stand-in
  EXPECT_FALSE(a.save(out));
  // A file stream on a path that cannot exist fails the same way
  // end-to-end (the fstream never opens, so every write fails).
  std::ofstream bad("/nonexistent_pdmm_dir/impossible/snap.txt");
  EXPECT_FALSE(a.save(bad));
  // And a healthy stream succeeds.
  std::ostringstream ok;
  EXPECT_TRUE(a.save(ok));
  EXPECT_FALSE(ok.str().empty());
}

// ---------------------------------------------------------------------------
// Golden fixture: a committed byte-exact snapshot of a fixed driven state
// (tests/fixtures/). Pins the on-disk format itself, not just round-trip
// consistency — an internal refactor (e.g. the SoA vertex-state split) must
// not move a single byte. Regenerate deliberately with
// PDMM_UPDATE_FIXTURES=1 when a format change is intended.
// ---------------------------------------------------------------------------

TEST(SnapshotGolden, CommittedFixtureIsReproducedByteExact) {
  ThreadPool pool(1);
  DynamicMatcher a(snap_config(2, 4242), pool);
  ChurnStream::Options so;
  so.n = 192;
  so.target_edges = 448;
  so.zipf_s = 0.7;  // dense hubs: temp-deleted edges and bd lines
  so.seed = 4243;
  ChurnStream stream(so);
  drive(a, stream, 24, 32);
  // The cost model is pinned too: the bytes alone would not notice a
  // primitive swap that changed the work or round accounting.
  EXPECT_EQ(a.cost().work, 18529u);
  EXPECT_EQ(a.cost().rounds, 1424u);
  const std::string produced = save_str(a);

  const std::string path =
      std::string(PDMM_FIXTURE_DIR) + "/golden_churn_rank2.snap";
  if (std::getenv("PDMM_UPDATE_FIXTURES")) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << produced;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "fixture regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << "missing golden fixture " << path
      << " (regenerate with PDMM_UPDATE_FIXTURES=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(produced, want.str())
      << "snapshot bytes diverged from the committed golden fixture; if "
         "the format change is intentional, regenerate with "
         "PDMM_UPDATE_FIXTURES=1 and review the diff";
  // The committed bytes must also still load into a healthy matcher.
  DynamicMatcher b(snap_config(2, 4242), pool);
  const SnapshotError err = load_str(b, want.str());
  ASSERT_TRUE(err.ok()) << err.to_string();
  MatchingChecker::check(b);
  EXPECT_EQ(a.matching_size(), b.matching_size());
}

// With max_settle_repeats = 0 every settle takes
// sequential_settle_fallback, which settles B = S_l one vertex at a time,
// each from its own draw of the settle stream: the walk order decides
// which vertex gets which draw. The fallback walks in vertex-id order, so
// S_l's member order cannot reach the state; the digest of the final
// snapshot bytes pins the whole path (test_member_order.cpp shuffles S_l
// against it).
uint64_t fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(SnapshotGolden, SettleFallbackStateIsPinned) {
  ThreadPool pool(1);
  Config cfg = snap_config(2, 1);
  cfg.initial_capacity = 1 << 22;
  cfg.max_settle_repeats = 0;
  DynamicMatcher a(cfg, pool);
  ChurnStream::Options so;
  so.n = 1 << 13;
  so.target_edges = 1 << 14;
  so.seed = 1;
  ChurnStream stream(so);
  drive(a, stream, 96, 256);
  EXPECT_GT(a.stats().settle_fallbacks, 0u);
  char got[17];
  std::snprintf(got, sizeof got, "%016llx",
                static_cast<unsigned long long>(fnv1a64(save_str(a))));
  EXPECT_STREQ(got, "6be71df5bfc9a83e");
}

// ---------------------------------------------------------------------------
// Corruption corpus: systematic mutations of a real snapshot. Every mutant
// must produce a recoverable error — never a crash, abort or OOB — and
// leave the matcher usable (verified by driving it afterwards).
// ---------------------------------------------------------------------------

class SnapshotCorpus : public testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<ThreadPool>(1);
    DynamicMatcher a(snap_config(2, 31), *pool_);
    ChurnStream::Options so;
    so.n = 160;
    so.target_edges = 400;
    so.zipf_s = 0.7;  // dense hubs: temp-deleted sets, D(e), bd lines
    so.seed = 32;
    ChurnStream stream(so);
    drive(a, stream, 30, 32);
    snapshot_ = save_str(a);
    lines_ = split_lines(snapshot_);
    // The corpus relies on every tag being present in the specimen.
    for (const char* tag : {"cfg", "sch", "reg", "e", "f", "nv", "bd", "end"}) {
      ASSERT_NE(find_line(tag), lines_.size()) << "specimen lacks a '" << tag
                                               << "' line";
    }
  }

  static std::vector<std::string> split_lines(const std::string& s) {
    std::vector<std::string> out;
    size_t start = 0;
    while (start < s.size()) {
      const size_t nl = s.find('\n', start);
      out.push_back(s.substr(start, nl - start));
      if (nl == std::string::npos) break;
      start = nl + 1;
    }
    return out;
  }

  // Index of the first line with tag `tag`; lines_.size() when there is
  // none.
  size_t find_line(const std::string& tag) const {
    for (size_t i = 0; i < lines_.size(); ++i) {
      if (lines_[i].rfind(tag + " ", 0) == 0 || lines_[i] == tag) return i;
    }
    return lines_.size();
  }

  static std::vector<std::string> tokens(const std::string& line) {
    std::vector<std::string> out;
    std::istringstream ls(line);
    std::string t;
    while (ls >> t) out.push_back(t);
    return out;
  }

  static std::string untokens(const std::vector<std::string>& toks) {
    std::string out;
    for (const auto& t : toks) {
      if (!out.empty()) out += ' ';
      out += t;
    }
    return out;
  }

  // One `e <id> <k> <v...> <level> <owner> <flags> <resp>` line.
  struct EdgeLine {
    size_t index;  // into lines_
    std::vector<std::string> toks;

    const std::string& id() const { return toks[1]; }
    std::vector<std::string> endpoints() const {
      return {toks.begin() + 3, toks.end() - 4};
    }
    const std::string& flags() const { return toks[toks.size() - 2]; }
    bool touches(const EdgeLine& other) const {
      const auto mine = endpoints(), theirs = other.endpoints();
      return std::find_first_of(mine.begin(), mine.end(), theirs.begin(),
                                theirs.end()) != mine.end();
    }
  };

  std::vector<EdgeLine> edge_lines() const {
    std::vector<EdgeLine> out;
    for (size_t i = 0; i < lines_.size(); ++i) {
      if (lines_[i].rfind("e ", 0) == 0) out.push_back({i, tokens(lines_[i])});
    }
    return out;
  }

  static std::string join(const std::vector<std::string>& lines) {
    std::string out;
    for (const auto& l : lines) {
      out += l;
      out += '\n';
    }
    return out;
  }

  // The core assertion: the mutant must fail recoverably and the matcher
  // must remain usable afterwards.
  void expect_rejected(const std::string& mutant, const std::string& what) {
    DynamicMatcher m(snap_config(2, 31), *pool_);
    const SnapshotError err = load_str(m, mutant);
    EXPECT_FALSE(err.ok()) << what << ": mutant was accepted";
    expect_reset_and_usable(m, what);
  }

  // As expect_rejected, and the error says `needle`.
  void expect_refused(const std::string& mutant, const std::string& needle) {
    DynamicMatcher m(snap_config(2, 31), *pool_);
    const SnapshotError err = load_str(m, mutant);
    ASSERT_FALSE(err.ok()) << needle << ": mutant was accepted";
    EXPECT_NE(err.message.find(needle), std::string::npos)
        << err.to_string();
    expect_reset_and_usable(m, needle);
  }

  // Failed loads reset to empty; the matcher still matches afterwards.
  static void expect_reset_and_usable(DynamicMatcher& m,
                                      const std::string& what) {
    EXPECT_EQ(m.graph().num_edges(), 0u) << what;
    m.insert_batch(std::vector<std::vector<Vertex>>{{0, 1}, {2, 3}});
    EXPECT_EQ(m.matching_size(), 2u) << what;
    MatchingChecker::check(m);
  }

  std::unique_ptr<ThreadPool> pool_;
  std::string snapshot_;
  std::vector<std::string> lines_;
};

TEST_F(SnapshotCorpus, SpecimenItselfLoads) {
  DynamicMatcher m(snap_config(2, 31), *pool_);
  const SnapshotError err = load_str(m, snapshot_);
  ASSERT_TRUE(err.ok()) << err.to_string();
  MatchingChecker::check(m);
}

TEST_F(SnapshotCorpus, EveryLinePrefixIsRejected) {
  // Dropping any suffix of lines (including just the end trailer) must be
  // detected as truncation.
  for (size_t keep = 0; keep < lines_.size(); ++keep) {
    std::vector<std::string> prefix(lines_.begin(),
                                    lines_.begin() + static_cast<long>(keep));
    expect_rejected(join(prefix),
                    "prefix of " + std::to_string(keep) + " lines");
  }
}

TEST_F(SnapshotCorpus, MidLineTruncationIsRejected) {
  // Cut the byte stream mid-line at a sample of offsets (every 97th byte
  // keeps the corpus fast while hitting every line kind in practice).
  for (size_t cut = 1; cut + 1 < snapshot_.size(); cut += 97) {
    if (snapshot_[cut - 1] == '\n') continue;  // line-boundary cuts above
    expect_rejected(snapshot_.substr(0, cut),
                    "byte-truncated at " + std::to_string(cut));
  }
}

TEST_F(SnapshotCorpus, TruncatedTagLinesAreRejected) {
  // Drop the last token of one representative line per tag.
  for (const char* tag : {"cfg", "sch", "reg", "e", "nv", "bd"}) {
    const size_t i = find_line(tag);
    auto mutant = lines_;
    const size_t sp = mutant[i].find_last_of(' ');
    ASSERT_NE(sp, std::string::npos);
    mutant[i] = mutant[i].substr(0, sp);
    expect_rejected(join(mutant), std::string("truncated '") + tag +
                                      "' line: " + mutant[i]);
  }
}

TEST_F(SnapshotCorpus, DuplicatedTagLinesAreRejected) {
  for (const char* tag : {"e", "f", "nv", "bd"}) {
    const size_t i = find_line(tag);
    auto mutant = lines_;
    // Re-insert a copy right after the original (before `end`).
    mutant.insert(mutant.begin() + static_cast<long>(i) + 1, lines_[i]);
    expect_rejected(join(mutant),
                    std::string("duplicated '") + tag + "' line");
  }
}

TEST_F(SnapshotCorpus, OutOfBoundsIdsAreRejected) {
  // Replace the id field (token 1) of each id-bearing tag with a value
  // beyond the declared bound, and separately with a giant one.
  for (const char* tag : {"e", "bd"}) {
    for (const char* big : {"999999", "4294967295", "18446744073709551615"}) {
      const size_t i = find_line(tag);
      auto mutant = lines_;
      std::istringstream ls(lines_[i]);
      std::string t, id;
      ls >> t >> id;
      std::string rest;
      std::getline(ls, rest);
      mutant[i] = t + " " + big + rest;
      expect_rejected(join(mutant), std::string("oob id in '") + tag +
                                        "' line -> " + big);
    }
  }
  {
    // An out-of-bounds edge reference too (the resp field, last token of
    // an e line).
    const size_t i = find_line("e");
    auto mutant = lines_;
    const size_t sp = mutant[i].find_last_of(' ');
    mutant[i] = mutant[i].substr(0, sp) + " 888888";
    expect_rejected(join(mutant), "oob resp in 'e' line");
  }
}

TEST_F(SnapshotCorpus, NonNumericFieldsAreRejected) {
  for (const char* tag : {"cfg", "sch", "reg", "e", "f", "nv", "bd"}) {
    const size_t i = find_line(tag);
    auto mutant = lines_;
    const size_t sp = mutant[i].find_last_of(' ');
    ASSERT_NE(sp, std::string::npos) << tag;
    mutant[i] = mutant[i].substr(0, sp + 1) + "xyz";
    expect_rejected(join(mutant), std::string("non-numeric field in '") +
                                      tag + "' line");
  }
  {
    // Negative where unsigned is required.
    const size_t i = find_line("e");
    auto mutant = lines_;
    std::istringstream ls(lines_[i]);
    std::string t, id;
    ls >> t >> id;
    std::string rest;
    std::getline(ls, rest);
    mutant[i] = t + " -1" + rest;
    expect_rejected(join(mutant), "negative edge id");
  }
}

TEST_F(SnapshotCorpus, UnknownTagAndHeaderMutationsAreRejected) {
  {
    auto mutant = lines_;
    mutant.insert(mutant.begin() + 4, "zz 1 2 3");
    expect_rejected(join(mutant), "unknown tag line");
  }
  {
    // v1's member lines are not v2 lines.
    auto mutant = lines_;
    mutant.insert(mutant.end() - 1, "o 0 " + edge_lines().front().id());
    expect_rejected(join(mutant), "v1 member line");
  }
  {
    // A v1 snapshot is refused on its header, naming both versions.
    auto mutant = lines_;
    mutant[0] = "pdmm-snapshot v1";
    DynamicMatcher m(snap_config(2, 31), *pool_);
    const SnapshotError err = load_str(m, join(mutant));
    EXPECT_EQ(err.line, 1u) << err.to_string();
    EXPECT_NE(err.message.find("v1"), std::string::npos) << err.to_string();
    EXPECT_NE(err.message.find("v2"), std::string::npos) << err.to_string();
    expect_reset_and_usable(m, "v1 header");
  }
  {
    auto mutant = lines_;
    mutant[0] = "garbage";
    expect_rejected(join(mutant), "garbage header");
  }
}

TEST_F(SnapshotCorpus, CountMismatchesAreRejected) {
  {
    // Inflate the declared num_alive.
    const size_t i = find_line("reg");
    auto mutant = lines_;
    std::istringstream ls(lines_[i]);
    std::string t, bound, alive;
    ls >> t >> bound >> alive;
    mutant[i] = t + " " + bound + " " +
                std::to_string(std::stoull(alive) + 1);
    expect_rejected(join(mutant), "inflated num_alive");
  }
  {
    // Strip the matched flag off an edge: its endpoints become unmatched
    // and the edge stays above them, which the post-load verification must
    // notice.
    size_t i = lines_.size();
    for (size_t j = 0; j < lines_.size(); ++j) {
      if (lines_[j].rfind("e ", 0) != 0) continue;
      std::istringstream ls(lines_[j]);
      std::string tok;
      std::vector<std::string> toks;
      while (ls >> tok) toks.push_back(tok);
      if (toks[toks.size() - 2] == "1") {  // flags field == kMatched
        i = j;
        break;
      }
    }
    ASSERT_NE(i, lines_.size()) << "no matched edge in specimen";
    auto mutant = lines_;
    const size_t flags_pos = mutant[i].find_last_of(' ');
    const size_t before = mutant[i].find_last_of(' ', flags_pos - 1);
    mutant[i] = mutant[i].substr(0, before + 1) + "0" +
                mutant[i].substr(flags_pos);
    expect_rejected(join(mutant), "unflagged matched edge");
  }
  {
    // Remove one id from the free list: the id becomes unaccounted for.
    const size_t i = find_line("f");
    auto mutant = lines_;
    const size_t sp = mutant[i].find_last_of(' ');
    if (sp != std::string::npos && sp > 1) {
      mutant[i] = mutant[i].substr(0, sp);
      expect_rejected(join(mutant), "free id dropped");
    }
  }
  {
    // A D-deletion budget on a dead (free-listed) edge: in-bounds id, but
    // no reachable state has epoch_d_deleted_ != 0 off a matched edge.
    std::istringstream fs(lines_[find_line("f")]);
    std::string tag, free_id;
    fs >> tag;
    if (fs >> free_id) {
      const size_t bi = find_line("bd");
      std::istringstream bs(lines_[bi]);
      std::string t, id, budget;
      bs >> t >> id >> budget;
      auto mutant = lines_;
      mutant[bi] = "bd " + free_id + " " + budget;
      expect_rejected(join(mutant), "bd budget on a free-listed edge");
    }
  }
}

TEST_F(SnapshotCorpus, ReHomedTempDeletedEdgeIsRejected) {
  // Invariant 3.2: a temp-deleted edge sits in D(e) of a matched edge e it
  // shares a vertex with. Point one at a matched edge it does not touch:
  // the derivation files it under that edge, so only the incidence test
  // can notice.
  const auto edges = edge_lines();
  for (const EdgeLine& f : edges) {
    if (f.flags() != "2") continue;
    for (const EdgeLine& r : edges) {
      if (r.flags() != "1" || r.touches(f)) continue;
      auto mutant = lines_;
      auto moved = f.toks;
      moved.back() = r.id();
      mutant[f.index] = untokens(moved);
      expect_refused(join(mutant), "must touch its responsible edge");
      return;
    }
  }
  FAIL() << "specimen lacks a temp-deleted edge and a matched edge it "
            "does not touch";
}

// The derivation places each edge from its own e line; these mutants give
// it an edge it cannot place, or a placement the oracle refuses.
TEST_F(SnapshotCorpus, OwnerThatIsNotAnEndpointIsRefused) {
  const auto edges = edge_lines();
  for (const EdgeLine& e : edges) {
    if (e.flags() == "2") continue;
    for (const EdgeLine& other : edges) {
      if (e.touches(other)) continue;
      auto mutant = lines_;
      auto toks = e.toks;
      toks[toks.size() - 3] = other.endpoints().front();
      mutant[e.index] = untokens(toks);
      expect_refused(join(mutant), "is not one of its endpoints");
      return;
    }
  }
  FAIL() << "specimen lacks two structured edges that do not touch";
}

TEST_F(SnapshotCorpus, TempDeletedEdgeWithoutAResponsibleEdgeIsRefused) {
  for (const EdgeLine& f : edge_lines()) {
    if (f.flags() != "2") continue;
    auto mutant = lines_;
    auto toks = f.toks;
    toks.back() = "4294967295";
    mutant[f.index] = untokens(toks);
    expect_refused(join(mutant), "temp-deleted without a responsible edge");
    return;
  }
  FAIL() << "specimen lacks a temp-deleted edge";
}

TEST_F(SnapshotCorpus, TempDeletedEdgeUnderAFreeIdIsRefused) {
  // Grow the id space by one free id and file a temp-deleted edge under it.
  const size_t reg = find_line("reg");
  auto reg_toks = tokens(lines_[reg]);
  const std::string free_id = reg_toks[1];
  reg_toks[1] = std::to_string(std::stoull(free_id) + 1);
  for (const EdgeLine& f : edge_lines()) {
    if (f.flags() != "2") continue;
    auto mutant = lines_;
    mutant[reg] = untokens(reg_toks);
    mutant[find_line("f")] += " " + free_id;
    auto toks = f.toks;
    toks.back() = free_id;
    mutant[f.index] = untokens(toks);
    expect_refused(join(mutant), "has no alive matched responsible edge");
    return;
  }
  FAIL() << "specimen lacks a temp-deleted edge";
}

TEST_F(SnapshotCorpus, TempDeletedEdgeUnderAnUnmatchedEdgeIsRefused) {
  const auto edges = edge_lines();
  for (const EdgeLine& f : edges) {
    if (f.flags() != "2") continue;
    for (const EdgeLine& r : edges) {
      if (r.flags() != "0" || !r.touches(f)) continue;
      auto mutant = lines_;
      auto toks = f.toks;
      toks.back() = r.id();
      mutant[f.index] = untokens(toks);
      expect_refused(join(mutant), "has no alive matched responsible edge");
      return;
    }
  }
  FAIL() << "specimen lacks a temp-deleted edge touching an unmatched edge";
}

TEST_F(SnapshotCorpus, TwoMatchedEdgesOnOneVertexAreRefused) {
  // Flag an unmatched edge matched next to the matched edge of one of its
  // endpoints: the derivation meets that vertex twice.
  const auto edges = edge_lines();
  for (const EdgeLine& e : edges) {
    if (e.flags() != "0") continue;
    for (const EdgeLine& m : edges) {
      if (m.flags() != "1" || !m.touches(e)) continue;
      auto mutant = lines_;
      auto toks = e.toks;
      toks[toks.size() - 2] = "1";
      mutant[e.index] = untokens(toks);
      expect_refused(join(mutant), "is already matched to edge");
      return;
    }
  }
  FAIL() << "specimen lacks an unmatched edge touching a matched edge";
}

TEST_F(SnapshotCorpus, SeededTokenMutantsFailRecoverablyOrPassTheOracle) {
  // Deterministic mutants of one or two token edits each (set 0 or 1, +-1,
  // copy a token from another line, delete a token) on any line but the
  // header and `end`. Each must either be rejected recoverably or load
  // into a state that check() — load()'s oracle plus Invariant 3.5(2) —
  // and the standalone maximality oracle both accept.
  static const char* const kOps[] = {"set 0", "set 1", "+1",
                                     "-1",    "copy",  "delete"};
  Xoshiro256 rng(19);
  const size_t body = lines_.size() - 2;  // lines 1 .. size - 2
  const auto pick_line = [&] { return 1 + rng() % body; };
  size_t loaded = 0;
  for (int n = 0; n < 2000; ++n) {
    auto mutant = lines_;
    std::string what = "mutant " + std::to_string(n) + ":";
    for (uint64_t k = 1 + rng() % 2; k > 0; --k) {
      const size_t i = pick_line();
      auto toks = tokens(mutant[i]);
      if (toks.empty()) continue;  // an earlier edit emptied the line
      const size_t j = rng() % toks.size();
      const uint64_t op = rng() % 6;
      std::string& t = toks[j];
      int64_t x = 0;
      const bool numeric = parse_i64_strict(t, x) == ParseNum::kOk;
      switch (op) {
        case 0: t = "0"; break;
        case 1: t = "1"; break;
        case 2: t = numeric ? std::to_string(x + 1) : "0"; break;
        case 3: t = numeric ? std::to_string(x - 1) : "0"; break;
        case 4: {
          size_t src = pick_line();
          if (src == i) src = src % body + 1;
          const auto from = tokens(lines_[src]);
          t = from[rng() % from.size()];
          break;
        }
        default: toks.erase(toks.begin() + static_cast<long>(j));
      }
      mutant[i] = untokens(toks);
      what += " line " + std::to_string(i) + " token " + std::to_string(j) +
              " " + kOps[op] + ";";
    }
    SCOPED_TRACE(what);
    DynamicMatcher m(snap_config(2, 31), *pool_);
    if (load_str(m, join(mutant)).ok()) {
      ++loaded;
      MatchingChecker::check(m);
      // The standalone oracle knows nothing of the leveling structures:
      // M must be maximal over every alive edge, temp-deleted ones too.
      MatchingChecker::check_maximal_matching(m.graph(), m.matching());
    } else {
      expect_reset_and_usable(m, what);
    }
  }
  EXPECT_GT(loaded, 0u);
}

TEST_F(SnapshotCorpus, HostileBoundsAreRejectedBeforeAllocating) {
  // Bounds beyond the id/vertex domains are rejected at the header line,
  // before any array is sized from them. (Mid-size hostile bounds that
  // pass the domain check are covered by the loader's bad_alloc guard —
  // not exercised here because provoking real allocation failure is
  // environment-dependent.)
  {
    std::string mutant = "pdmm-snapshot v2\n";
    mutant += lines_[1] + "\n" + lines_[2] + "\n";
    mutant += "reg 18446744073709551615 0\nf\nnv 0\nend\n";
    expect_rejected(mutant, "hostile reg id_bound");
  }
  {
    std::string mutant = "pdmm-snapshot v2\n";
    mutant += lines_[1] + "\n" + lines_[2] + "\n";
    mutant += "reg 0 0\nf\nnv 18446744073709551615\nend\n";
    expect_rejected(mutant, "hostile nv bound");
  }
}

}  // namespace
}  // namespace pdmm
