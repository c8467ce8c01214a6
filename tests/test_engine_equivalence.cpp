// Linearized-equivalence oracle for the update engine.
//
// The determinism contract under test: per epoch, the pipelined engine's
// matcher state, BatchResult diffs, published views, and journal bytes
// are byte-identical to the synchronous (inline) engine's — across
// workload shapes, seeds, matcher thread counts, AND group-commit sizes.
// Every run of a (scenario, seed) cell records a full RunRecord; the
// first cell is canonical and every other cell must match it exactly.
//
// Capture points:
//   state + diffs  the matcher's post-batch hook, which fires at the
//                  epoch barrier on whichever thread settles (the engine
//                  leaves the hook free precisely for this oracle);
//   views          a SyncPoints hook on engine.post_publish, acquiring
//                  from the service on the publish stage thread — at that
//                  moment the current view is exactly the fired epoch;
//   journal        the file bytes after stop().
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/matcher.h"
#include "engine/update_engine.h"
#include "persist/journal.h"
#include "serve/view_service.h"
#include "util/sync_point.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace pdmm {
namespace {

namespace fs = std::filesystem;
using engine::UpdateEngine;
using persist::Journal;

std::string file_str(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

void append_ids(std::ostringstream& out, const char* tag,
                std::vector<EdgeId> ids) {
  // Diff vectors carry set semantics; order may depend on settle
  // scheduling, so canonicalize before comparing.
  std::sort(ids.begin(), ids.end());
  out << tag;
  for (EdgeId e : ids) out << ' ' << e;
  out << '\n';
}

std::string encode_diff(const DynamicMatcher::BatchResult& r) {
  std::ostringstream out;
  // inserted_ids is positional (aligned with the insertion list), so its
  // order IS part of the contract — no sorting.
  out << "ins";
  for (EdgeId e : r.inserted_ids) out << ' ' << e;
  out << '\n';
  append_ids(out, "matched", r.newly_matched);
  append_ids(out, "unmatched", r.newly_unmatched);
  out << "rebuilt " << (r.rebuilt ? 1 : 0) << '\n';
  return std::move(out).str();
}

std::string encode_view(const MatchView& v) {
  std::ostringstream out;
  out << "view " << v.epoch << ' ' << v.max_rank << '\n';
  out << "vmatch";
  for (EdgeId e : v.vmatch) out << ' ' << e;
  out << "\nvlevel";
  for (auto l : v.vlevel) out << ' ' << l;
  out << "\nmedges";
  for (EdgeId e : v.medges) out << ' ' << e;
  out << "\nmoffset";
  for (auto o : v.moffset) out << ' ' << o;
  out << "\nmendpoints";
  for (Vertex u : v.mendpoints) out << ' ' << u;
  out << '\n';
  return std::move(out).str();
}

// Everything one engine run externalizes, keyed per epoch.
struct RunRecord {
  std::vector<std::string> state;  // save() bytes after each epoch
  std::vector<std::string> diffs;  // encoded BatchResult per epoch
  std::vector<std::string> views;  // encoded published view per epoch
  std::string journal;             // full journal file bytes
};

struct Cell {
  bool pipelined = false;
  unsigned threads = 1;
  size_t group_commit = 1;
};

std::string cell_name(const Cell& c) {
  std::ostringstream out;
  out << (c.pipelined ? "pipelined" : "inline") << "/t" << c.threads
      << "/g" << c.group_commit;
  return std::move(out).str();
}

// Runs the full batch list through one engine configuration and records
// everything it externalizes. Void with out-param: gtest ASSERTs need a
// void function.
void run_cell(const Config& cfg, const std::vector<Batch>& batches,
              const Cell& cell, const fs::path& dir, RunRecord& out) {
  fs::create_directories(dir);
  const std::string wal = (dir / "wal.log").string();

  ThreadPool pool(cell.threads, /*allow_oversubscribe=*/true);
  DynamicMatcher m(cfg, pool);
  // Single-driver test setup: this thread owns the updater role until the
  // engine starts, and takes it back after the engine stops.
  m.updater_role().assert_held();
  MatchViewService::Options so;
  so.install_hook = false;
  MatchViewService service(m, so);
  std::string err;
  auto j = Journal::open(wal, {}, &err);
  ASSERT_NE(j, nullptr) << err;

  m.set_post_batch_hook([&](const DynamicMatcher::BatchResult& r) {
    // Fires at the epoch barrier on the settle thread, which owns the
    // matcher at that point — save() reads a quiescent state.
    std::ostringstream snap;
    if (m.save(snap)) out.state.push_back(std::move(snap).str());
    out.diffs.push_back(encode_diff(r));
  });
  SyncPoints::install([&](const char* p, uint64_t epoch) {
    if (std::strcmp(p, kEnginePostPublish) == 0) {
      // Publish-stage thread; the channel's current view is exactly
      // `epoch` here (the next publish happens on this same thread).
      ViewHandle h = service.acquire();
      EXPECT_TRUE(h);
      if (h) {
        EXPECT_EQ(h->epoch, epoch);
        out.views.push_back(encode_view(*h));
      }
    }
    return SyncPoints::kProceed;
  });

  UpdateEngine::Options eo;
  eo.pipelined = cell.pipelined;
  eo.queue_capacity = 3;
  eo.group_commit = cell.group_commit;
  {
    UpdateEngine eng(m, &service, j.get(), eo);
    for (const Batch& b : batches) ASSERT_TRUE(eng.submit(b)) << eng.error();
    ASSERT_TRUE(eng.drain()) << eng.error();
    EXPECT_EQ(eng.durable_epoch(), batches.size());
    ASSERT_TRUE(eng.stop()) << eng.error();
    EXPECT_FALSE(eng.failed());
  }
  SyncPoints::clear();
  m.set_post_batch_hook(nullptr);

  j.reset();
  out.journal = file_str(wal);
  ASSERT_EQ(out.state.size(), batches.size());
  ASSERT_EQ(out.diffs.size(), batches.size());
  ASSERT_EQ(out.views.size(), batches.size());
}

void expect_equal_runs(const RunRecord& canon, const RunRecord& got,
                       const std::string& canon_name,
                       const std::string& got_name) {
  ASSERT_EQ(canon.state.size(), got.state.size()) << got_name;
  for (size_t e = 0; e < canon.state.size(); ++e) {
    EXPECT_EQ(canon.state[e], got.state[e])
        << got_name << " diverges from " << canon_name
        << ": matcher state at epoch " << e + 1;
    EXPECT_EQ(canon.diffs[e], got.diffs[e])
        << got_name << " diverges from " << canon_name
        << ": BatchResult diff at epoch " << e + 1;
    EXPECT_EQ(canon.views[e], got.views[e])
        << got_name << " diverges from " << canon_name
        << ": published view at epoch " << e + 1;
  }
  EXPECT_EQ(canon.journal, got.journal)
      << got_name << " diverges from " << canon_name << ": journal bytes";
}

class EngineEquivalence : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pdmm_test_engine_eq." + std::to_string(::getpid()) + "." +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    SyncPoints::clear();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // Every engine mode × thread count × group-commit size must externalize
  // the canonical record for this batch stream, byte for byte.
  void check_matrix(const Config& cfg, const std::vector<Batch>& batches,
                    const std::string& scenario) {
    const unsigned kThreads[] = {1, 2, 4};
    const size_t kGroups[] = {1, 3};
    RunRecord canon;
    std::string canon_name;
    size_t cell_idx = 0;
    for (const bool pipelined : {false, true}) {
      for (const unsigned t : kThreads) {
        for (const size_t g : kGroups) {
          const Cell cell{pipelined, t, g};
          const std::string name = scenario + "/" + cell_name(cell);
          SCOPED_TRACE(name);
          RunRecord rec;
          run_cell(cfg, batches, cell,
                   dir_ / (scenario + "_" + std::to_string(cell_idx++)),
                   rec);
          if (testing::Test::HasFatalFailure()) return;
          if (canon_name.empty()) {
            canon = std::move(rec);
            canon_name = name;
          } else {
            expect_equal_runs(canon, rec, canon_name, name);
          }
        }
      }
    }
  }

  fs::path dir_;
};

Config eq_config(uint64_t seed) {
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = seed;
  cfg.initial_capacity = 1 << 13;
  return cfg;
}

TEST_F(EngineEquivalence, ChurnStreams) {
  for (const uint64_t seed : {11u, 73u}) {
    ChurnStream::Options so;
    so.n = 220;
    so.target_edges = 480;
    so.zipf_s = 0.7;
    so.seed = seed;
    ChurnStream stream(so);
    const auto batches = record_stream(stream, 12, 22);
    check_matrix(eq_config(1000 + seed), batches,
                 "churn_s" + std::to_string(seed));
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(EngineEquivalence, OscillationStreams) {
  for (const uint64_t seed : {5u, 29u}) {
    OscillationStream::Options so;
    so.n = 256;
    so.core_edges = 96;
    so.background_edges = 220;
    so.seed = seed;
    OscillationStream stream(so);
    const auto batches = record_stream(stream, 12, 22);
    check_matrix(eq_config(2000 + seed), batches,
                 "osc_s" + std::to_string(seed));
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(EngineEquivalence, PowerLawStreams) {
  for (const uint64_t seed : {3u, 41u}) {
    PowerLawStream::Options so;
    so.n = 256;
    so.target_edges = 460;
    so.s = 1.2;
    so.seed = seed;
    PowerLawStream stream(so);
    const auto batches = record_stream(stream, 12, 22);
    check_matrix(eq_config(3000 + seed), batches,
                 "pl_s" + std::to_string(seed));
    if (testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace pdmm
