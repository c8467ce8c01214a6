// Delta view capture and the ViewChannel spare list.
//
// DynamicMatcher::make_view_into(out, base) patches the previous capture
// with what changed since instead of rebuilding the view from scratch. The
// oracle here is the from-scratch build: every view a capture writes —
// delta or full — must equal make_view() at the same epoch, field for
// field. The streams cover the shapes that stress the change set (uniform
// churn, delete/reinsert oscillation, hub-heavy power law, sliding-window
// churn) at 1, 2 and 4 threads, with a small initial_capacity so N-doubling
// rebuilds land mid-stream; the targeted cases cover rank-3 edges, vertex
// bound growth, an id retired and re-matched within one batch, every way a
// base stops being usable, and several updates between captures (the
// follower's path). The spare-list half checks that a view a reader still
// holds never changes and never comes back to the writer as a spare.
// The threaded cases run under ThreadSanitizer in CI.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/matcher.h"
#include "engine/update_engine.h"
#include "persist/journal.h"
#include "serve/view_channel.h"
#include "serve/view_service.h"
#include "util/sync_point.h"
#include "workload/generators.h"

namespace pdmm {
namespace {

Config capture_config(uint64_t seed, uint32_t rank = 2,
                      uint64_t capacity = 1 << 12) {
  Config cfg;
  cfg.max_rank = rank;
  cfg.seed = seed;
  cfg.initial_capacity = capacity;
  return cfg;
}

// Names the first field where two views differ ("" when equal), so a
// failing comparison says where instead of dumping both views.
std::string first_difference(const MatchView& got, const MatchView& want) {
  if (got.epoch != want.epoch) return "epoch";
  if (got.max_rank != want.max_rank) return "max_rank";
  const auto vec = [](const char* name, const auto& a, const auto& b)
      -> std::string {
    if (a.size() != b.size()) {
      return std::string(name) + " size " + std::to_string(a.size()) +
             " vs " + std::to_string(b.size());
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) {
        return std::string(name) + "[" + std::to_string(i) + "]";
      }
    }
    return "";
  };
  for (std::string d :
       {vec("vmatch", got.vmatch, want.vmatch),
        vec("vlevel", got.vlevel, want.vlevel),
        vec("medges", got.medges, want.medges),
        vec("moffset", got.moffset, want.moffset),
        vec("mendpoints", got.mendpoints, want.mendpoints)}) {
    if (!d.empty()) return d;
  }
  EXPECT_TRUE(got == want);  // the fields above are all of them
  return "";
}

// Captures like the engine does: into a recycled buffer holding a stale
// older view, with the previous capture as the base. Three buffers rotate
// so `out` is never the base and always holds content two captures old.
class Capturer {
 public:
  // Captures, checks against the full build, and reports whether the
  // capture was a delta.
  bool capture(DynamicMatcher& m) {
    const MatchView* base = count_ == 0 ? nullptr : &bufs_[(count_ - 1) % 3];
    MatchView& out = bufs_[count_ % 3];
    const uint64_t deltas = m.stats().view_delta_captures;
    m.make_view_into(out, base);
    ++count_;
    const std::string diff = first_difference(out, m.make_view());
    EXPECT_EQ(diff, "") << "capture " << count_ << " at epoch "
                        << m.batch_epoch() << " differs in " << diff;
    return m.stats().view_delta_captures > deltas;
  }
  const MatchView& last() const { return bufs_[(count_ - 1) % 3]; }

 private:
  MatchView bufs_[3];
  size_t count_ = 0;
};

// Drives `batches` batches of `k` updates, capturing after every `every`-th
// batch. A capture must be a delta exactly when no N-doubling rebuild
// happened since the previous one. Returns the number of captures that
// followed a rebuild.
template <typename Stream>
size_t run_capture_oracle(const Config& cfg, unsigned threads, Stream& stream,
                          size_t batches, size_t k, size_t every) {
  ThreadPool pool(threads, /*allow_oversubscribe=*/true);
  DynamicMatcher m(cfg, pool);
  Capturer cap;
  EXPECT_FALSE(cap.capture(m));  // nothing to patch yet
  uint64_t rebuilds = m.stats().rebuilds;
  size_t after_rebuild = 0;
  for (size_t i = 1; i <= batches; ++i) {
    const Batch b = stream.next(k);
    m.update_by_endpoints(b.deletions, b.insertions);
    if (i % every != 0) continue;
    const bool rebuilt = m.stats().rebuilds != rebuilds;
    rebuilds = m.stats().rebuilds;
    after_rebuild += rebuilt;
    EXPECT_EQ(cap.capture(m), !rebuilt) << "batch " << i;
    if (testing::Test::HasFailure()) break;
  }
  EXPECT_GT(m.stats().view_delta_captures, 0u);
  return after_rebuild;
}

// ---------------------------------------------------------------------------
// The oracle over stream shapes and thread counts
// ---------------------------------------------------------------------------

TEST(ViewCapture, DeltaEqualsFullBuildAcrossStreamsAndThreads) {
  // initial_capacity 64: the N bound doubles many times mid-stream.
  constexpr uint64_t kCapacity = 64;
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    size_t rebuilt = 0;
    {
      ChurnStream::Options so;
      so.n = 300;
      so.target_edges = 600;
      so.seed = 7;
      ChurnStream s(so);
      rebuilt += run_capture_oracle(capture_config(101, 2, kCapacity),
                                    threads, s, 60, 24, 1);
    }
    {
      OscillationStream::Options so;
      so.n = 256;
      so.core_edges = 96;
      so.background_edges = 220;
      so.seed = 9;
      OscillationStream s(so);
      rebuilt += run_capture_oracle(capture_config(102, 2, kCapacity),
                                    threads, s, 60, 24, 1);
    }
    {
      PowerLawStream::Options so;
      so.n = 256;
      so.target_edges = 460;
      so.s = 1.2;
      so.seed = 11;
      PowerLawStream s(so);
      rebuilt += run_capture_oracle(capture_config(103, 2, kCapacity),
                                    threads, s, 60, 24, 1);
    }
    {
      WindowChurnStream::Options so;
      so.n = 256;
      so.window = 300;
      so.churn = 0.3;
      so.seed = 13;
      WindowChurnStream s(so);
      rebuilt += run_capture_oracle(capture_config(104, 2, kCapacity),
                                    threads, s, 60, 24, 1);
    }
    EXPECT_GT(rebuilt, 0u) << "no rebuild landed between two captures";
    if (HasFailure()) return;
  }
}

// The follower's path: the replica publishes after each tail step, and one
// step may apply several journal records, so the change set spans several
// batches.
TEST(ViewCapture, SeveralUpdatesBetweenCaptures) {
  for (const size_t every : {2u, 3u, 7u}) {
    SCOPED_TRACE("every " + std::to_string(every));
    ChurnStream::Options so;
    so.n = 400;
    so.target_edges = 800;
    so.zipf_s = 0.6;
    so.seed = 17 + every;
    ChurnStream s(so);
    run_capture_oracle(capture_config(200 + every), 2, s, 70, 40, every);
    if (HasFailure()) return;
  }
}

TEST(ViewCapture, RankThreeEdgesAndVertexBoundGrowth) {
  ThreadPool pool(2, /*allow_oversubscribe=*/true);
  DynamicMatcher m(capture_config(31, /*rank=*/3, /*capacity=*/128), pool);
  ChurnStream::Options so;
  so.n = 200;
  so.rank = 3;
  so.target_edges = 300;
  so.seed = 33;
  ChurnStream stream(so);
  Capturer cap;
  cap.capture(m);
  size_t grown = 0;
  for (size_t i = 1; i <= 50; ++i) {
    Batch b = stream.next(20);
    if (i % 10 == 0) {
      // Vertices far beyond the stream's range: the vertex bound grows
      // between two captures.
      const Vertex hi = static_cast<Vertex>(1000 + 10 * i);
      b.insertions.push_back({hi, hi + 1, hi + 2});
      b.insertions.push_back({hi + 3, hi + 4});
    }
    const size_t bound_before = cap.last().vertex_bound();
    m.update_by_endpoints(b.deletions, b.insertions);
    cap.capture(m);
    grown += cap.last().vertex_bound() > bound_before;
    if (HasFailure()) return;
  }
  EXPECT_GE(grown, 5u);
  EXPECT_GT(m.stats().view_delta_captures, 0u);
  // Some matched edges really are rank 3.
  bool rank3 = false;
  const MatchView& v = cap.last();
  for (size_t i = 0; i < v.medges.size(); ++i) {
    rank3 |= v.moffset[i + 1] - v.moffset[i] == 3;
  }
  EXPECT_TRUE(rank3);
}

TEST(ViewCapture, IdRetiredAndRematchedWithinOneBatch) {
  ThreadPool pool(1);
  DynamicMatcher m(capture_config(41), pool);
  const std::vector<std::vector<Vertex>> ins = {{0, 1}, {4, 5}};
  const auto r = m.insert_batch(ins);
  const EdgeId id = r.inserted_ids[0];
  ASSERT_TRUE(m.is_matched(id));
  Capturer cap;
  cap.capture(m);

  // One batch deletes the matched edge {0,1} — its id is retired — and
  // inserts {2,3}, which reuses the id and gets matched: the same id,
  // matched before and after, with other endpoints.
  const std::vector<std::vector<Vertex>> del = {{0, 1}};
  const std::vector<std::vector<Vertex>> add = {{2, 3}};
  const auto r2 = m.update_by_endpoints(del, add);
  ASSERT_EQ(r2.inserted_ids[0], id) << "the registry did not reuse the id";
  ASSERT_TRUE(m.is_matched(id));
  EXPECT_TRUE(cap.capture(m));
  const auto eps = cap.last().endpoints_of_matched(id);
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0], 2u);
  EXPECT_EQ(eps[1], 3u);
  EXPECT_EQ(cap.last().matched_edge_of(0), kNoEdge);

  // And the reverse within one batch: {2,3} retired, its id reused by an
  // edge that cannot be matched ({4,6}: 4 is taken).
  const std::vector<std::vector<Vertex>> del2 = {{2, 3}};
  const std::vector<std::vector<Vertex>> add2 = {{4, 6}};
  const auto r3 = m.update_by_endpoints(del2, add2);
  ASSERT_EQ(r3.inserted_ids[0], id);
  ASSERT_FALSE(m.is_matched(id));
  EXPECT_TRUE(cap.capture(m));
  EXPECT_FALSE(cap.last().is_matched(id));
}

// ---------------------------------------------------------------------------
// No usable base: the full build, still equal to make_view()
// ---------------------------------------------------------------------------

class ViewCaptureFallback : public testing::Test {
 protected:
  ViewCaptureFallback() : pool_(1), m_(capture_config(51), pool_) {
    ChurnStream::Options so;
    so.n = 150;
    so.target_edges = 300;
    so.seed = 53;
    stream_ = std::make_unique<ChurnStream>(so);
    step(10);
  }

  void step(size_t batches = 1) {
    for (size_t i = 0; i < batches; ++i) {
      const Batch b = stream_->next(25);
      m_.update_by_endpoints(b.deletions, b.insertions);
    }
  }

  // Captures into `out` against `base`; returns true for a delta and
  // checks the result against the full build.
  bool capture(MatchView& out, const MatchView* base) {
    const uint64_t deltas = m_.stats().view_delta_captures;
    m_.make_view_into(out, base);
    EXPECT_EQ(first_difference(out, m_.make_view()), "");
    return m_.stats().view_delta_captures > deltas;
  }

  ThreadPool pool_;
  DynamicMatcher m_;
  std::unique_ptr<ChurnStream> stream_;
};

TEST_F(ViewCaptureFallback, BaseThatIsNotTheLastCapture) {
  MatchView v1, v2, v3;
  EXPECT_FALSE(capture(v1, nullptr));
  step();
  EXPECT_TRUE(capture(v2, &v1));
  step();
  EXPECT_FALSE(capture(v3, &v1)) << "v1 is older than the last capture";
  step();
  EXPECT_TRUE(capture(v1, &v3));  // the chain resumes from v3
  // A copy of the last capture has the right bytes but is another object.
  const MatchView copy = v1;
  step();
  EXPECT_FALSE(capture(v2, &copy));
  // Capturing into the base itself cannot patch in place.
  step();
  EXPECT_FALSE(capture(v2, &v2));
  step();
  EXPECT_TRUE(capture(v3, &v2));
}

TEST_F(ViewCaptureFallback, SameEpochAfterRebuildIsNotABase) {
  MatchView a, b, c;
  capture(a, nullptr);
  // rebuild() changes the matching without advancing the epoch: `a` has
  // the current epoch but stale contents.
  m_.rebuild();
  EXPECT_FALSE(capture(b, &a));
  EXPECT_EQ(b.epoch, a.epoch);
  step();
  EXPECT_FALSE(capture(c, &a)) << "a predates b, the last capture";
  step();
  EXPECT_TRUE(capture(b, &c));
}

TEST_F(ViewCaptureFallback, AfterLoadAndResetToEmpty) {
  MatchView a, b;
  capture(a, nullptr);
  step();
  std::stringstream snap;
  ASSERT_TRUE(m_.save(snap));
  ASSERT_TRUE(m_.load(snap).ok());
  EXPECT_FALSE(capture(b, &a)) << "load() replaced the state";
  step();
  EXPECT_TRUE(capture(a, &b));

  m_.reset_to_empty();
  EXPECT_FALSE(capture(b, &a)) << "reset_to_empty() dropped the state";
  EXPECT_EQ(b.matching_size(), 0u);
  const std::vector<std::vector<Vertex>> ins = {{0, 1}, {1, 2}, {3, 4}};
  m_.insert_batch(ins);
  EXPECT_TRUE(capture(a, &b));
  EXPECT_EQ(a.matching_size(), 2u);
}

TEST(ViewCapture, UnreadChangeLogStaysBounded) {
  // A capture, then a long run with nobody capturing again: the matcher
  // drops the base rather than log forever, and the next capture is full.
  ThreadPool pool(1);
  DynamicMatcher m(capture_config(61), pool);
  ChurnStream::Options so;
  so.n = 200;
  so.target_edges = 400;
  so.seed = 63;
  ChurnStream stream(so);
  Capturer cap;
  cap.capture(m);
  for (size_t i = 0; i < 400; ++i) {
    const Batch b = stream.next(40);
    m.update_by_endpoints(b.deletions, b.insertions);
  }
  EXPECT_FALSE(cap.capture(m));
  const Batch b = stream.next(40);
  m.update_by_endpoints(b.deletions, b.insertions);
  EXPECT_TRUE(cap.capture(m));
}

TEST(ViewCapture, CheckInvariantsComparesEveryDelta) {
  // With check_invariants on, make_view_into asserts each delta against
  // the full build itself; a clean run through the service hook is the
  // observation.
  ThreadPool pool(2, /*allow_oversubscribe=*/true);
  Config cfg = capture_config(71, 2, 256);
  cfg.check_invariants = true;
  DynamicMatcher m(cfg, pool);
  MatchViewService serve(m);
  PowerLawStream::Options so;
  so.n = 200;
  so.target_edges = 350;
  so.seed = 73;
  PowerLawStream stream(so);
  for (size_t i = 0; i < 40; ++i) {
    const Batch b = stream.next(30);
    m.update_by_endpoints(b.deletions, b.insertions);
  }
  EXPECT_GE(m.stats().view_delta_captures, 30u);
  ViewHandle h = serve.acquire();
  ASSERT_TRUE(h);
  EXPECT_EQ(first_difference(*h, m.make_view()), "");
}

// ---------------------------------------------------------------------------
// The pipelined engine: delta views across the S→P handoff
// ---------------------------------------------------------------------------

class EngineViewCapture : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pdmm_test_view_capture." + std::to_string(::getpid()) + "." +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    SyncPoints::clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

// Every view the pipelined engine publishes equals the full build the
// settle stage takes of the same epoch at the barrier. A queue capacity of
// 1 keeps J and S blocked on backpressure much of the time.
TEST_F(EngineViewCapture, PublishedViewsEqualTheFullBuild) {
  constexpr size_t kBatches = 40;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool pool(threads, /*allow_oversubscribe=*/true);
    DynamicMatcher m(capture_config(81), pool);
    // This thread owns the matcher until the engine starts and after it
    // stops.
    m.updater_role().assert_held();
    MatchViewService::Options sopt;
    sopt.install_hook = false;
    MatchViewService serve(m, sopt);
    std::vector<MatchView> want(kBatches + 1);
    m.set_post_batch_hook([&](const DynamicMatcher::BatchResult&) {
      // Settle stage, at the barrier: the reference for this epoch.
      want[m.batch_epoch()] = m.make_view();
    });
    std::atomic<size_t> compared{0};
    std::string mismatch;  // written on the publish stage only
    SyncPoints::install([&](const char* p, uint64_t epoch) {
      if (std::strcmp(p, kEnginePostPublish) == 0) {
        ViewHandle h = serve.acquire();
        const std::string d = h ? first_difference(*h, want[epoch]) : "none";
        if (!d.empty() && mismatch.empty()) {
          mismatch = "epoch " + std::to_string(epoch) + ": " + d;
        }
        compared.fetch_add(1);
      }
      return SyncPoints::kProceed;
    });
    std::string err;
    auto j = persist::Journal::open(
        (dir_ / ("wal" + std::to_string(threads))).string(), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    ChurnStream::Options so;
    so.n = 300;
    so.target_edges = 600;
    so.seed = 83;
    ChurnStream stream(so);
    engine::UpdateEngine::Options eo;
    eo.pipelined = true;
    eo.queue_capacity = 1;
    eo.group_commit = 2;
    {
      engine::UpdateEngine eng(m, &serve, j.get(), eo);
      for (size_t i = 0; i < kBatches; ++i) {
        ASSERT_TRUE(eng.submit(stream.next(30))) << eng.error();
      }
      ASSERT_TRUE(eng.stop()) << eng.error();
    }
    SyncPoints::clear();
    m.set_post_batch_hook(nullptr);
    EXPECT_EQ(mismatch, "");
    EXPECT_EQ(compared.load(), kBatches);
    // The engine's first capture has no base; every later one is a delta
    // (initial_capacity leaves no room for an N-doubling rebuild here).
    ASSERT_EQ(m.stats().rebuilds, 0u);
    EXPECT_EQ(m.stats().view_delta_captures, kBatches - 1);
  }
}

// A publish that fails leaves its view unpublished while the settle stage
// may be capturing the next epoch against it: the engine must keep that
// view alive (ASan would flag the read otherwise).
TEST_F(EngineViewCapture, FailedPublishKeepsTheBaseAlive) {
  for (const uint64_t fail_at : {2u, 5u}) {
    ThreadPool pool(2, /*allow_oversubscribe=*/true);
    DynamicMatcher m(capture_config(91), pool);
    m.updater_role().assert_held();
    MatchViewService::Options sopt;
    sopt.install_hook = false;
    MatchViewService serve(m, sopt);
    SyncPoints::install([&](const char* p, uint64_t epoch) {
      if (std::strcmp(p, kEnginePrePublish) == 0 && epoch == fail_at) {
        return SyncPoints::kFail;
      }
      return SyncPoints::kProceed;
    });
    ChurnStream::Options so;
    so.n = 200;
    so.target_edges = 400;
    so.seed = 93;
    ChurnStream stream(so);
    engine::UpdateEngine::Options eo;
    eo.pipelined = true;
    eo.queue_capacity = 4;
    {
      engine::UpdateEngine eng(m, &serve, nullptr, eo);
      for (size_t i = 0; i < 12; ++i) {
        if (!eng.submit(stream.next(30))) break;
      }
      EXPECT_FALSE(eng.stop());
      EXPECT_NE(eng.error().find("injected failure"), std::string::npos)
          << eng.error();
    }
    SyncPoints::clear();
    EXPECT_LT(serve.published_epoch(), fail_at);
  }
}

// ---------------------------------------------------------------------------
// Spare list: a held view never changes and never comes back as a spare
// ---------------------------------------------------------------------------

TEST(ViewSpares, HeldViewIsNeverRecycled) {
  ThreadPool pool(1);
  DynamicMatcher m(capture_config(111), pool);
  ChurnStream::Options so;
  so.n = 300;
  so.target_edges = 600;
  so.seed = 113;
  ChurnStream stream(so);
  ViewChannel ch(4);
  // The test body is the channel's single writer.
  ch.writer_role().assert_held();
  // One batch, then MatchViewService::publish_now's steps with the spare
  // exposed. Returns the spare the view was built into (null: a fresh
  // allocation); only its address is used.
  const auto publish_next = [&]() -> const MatchView* {
    const Batch b = stream.next(30);
    m.update_by_endpoints(b.deletions, b.insertions);
    std::unique_ptr<MatchView> view = ch.take_spare();
    const MatchView* spare = view.get();
    if (!view) view = std::make_unique<MatchView>();
    m.make_view_into(*view, ch.current());
    ch.publish(std::move(view));
    return spare;
  };
  // With no reader, each publish reclaims the view it retires, and the
  // next publish builds into it.
  size_t recycled = 0;
  for (int i = 0; i < 50; ++i) recycled += publish_next() != nullptr;
  EXPECT_GE(recycled, 48u) << "reclaimed views were not reused";
  EXPECT_EQ(ch.published_count() - ch.freed_count(), 1u);

  // A held lease pins its view — and, epoch-based, everything retired
  // after it — for at least 100 publishes: the writer must neither get it
  // back as a spare nor change a byte of it.
  ViewHandle held = ch.acquire();
  ASSERT_TRUE(held);
  const MatchView held_copy = *held;
  for (size_t i = 0; i < 120; ++i) {
    const MatchView* spare = publish_next();
    ASSERT_NE(spare, held.get()) << "a held view came back as a spare";
    ASSERT_TRUE(*held == held_copy) << "held view changed after publish "
                                    << i;
    EXPECT_LE(ch.spare_count(), ViewChannel::kMaxSpares);
  }
  EXPECT_GT(m.stats().view_delta_captures, 150u);

  // Released, everything it pinned is reclaimed; the spare list stays
  // bounded and the extra views are freed.
  held.release();
  publish_next();
  EXPECT_EQ(ch.retired_pending(), 0u);
  EXPECT_EQ(ch.published_count() - ch.freed_count(), 1u);
  EXPECT_EQ(ch.spare_count(), ViewChannel::kMaxSpares);
}

// The same from a reader thread through the service hook: readers hold
// each lease across at least 100 publishes and check its bytes never move
// while the updater recycles reclaimed views around it.
TEST(ViewSpares, ReadersHoldLeasesAcrossPublishes) {
  constexpr size_t kReaders = 2;
  constexpr uint64_t kHoldFor = 100;
  constexpr size_t kLeases = 3;
  ThreadPool pool(2, /*allow_oversubscribe=*/true);
  DynamicMatcher m(capture_config(121), pool);
  MatchViewService::Options sopt;
  sopt.max_readers = 8;
  MatchViewService serve(m, sopt);
  ChurnStream::Options so;
  so.n = 300;
  so.target_edges = 600;
  so.seed = 123;
  ChurnStream stream(so);

  std::atomic<size_t> readers_done{0};
  std::atomic<bool> updater_done{false};
  std::vector<std::string> errors(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (size_t lease = 0; lease < kLeases && errors[r].empty(); ++lease) {
        ViewHandle h = serve.acquire();
        if (!h) continue;
        const MatchView copy = *h;
        while (serve.published_epoch() < copy.epoch + kHoldFor &&
               !updater_done.load()) {
          if (!(*h == copy)) {
            errors[r] = "leased view of epoch " + std::to_string(copy.epoch) +
                        " changed";
            break;
          }
          std::this_thread::yield();
        }
        std::string err;
        if (errors[r].empty() && !h->validate(&err)) errors[r] = err;
      }
      readers_done.fetch_add(1);
    });
  }
  // This (main) thread is the only updater, so the hook publishes from it.
  size_t batches = 0;
  while (readers_done.load() < kReaders && batches < 5000) {
    const Batch b = stream.next(20);
    m.update_by_endpoints(b.deletions, b.insertions);
    ++batches;
  }
  updater_done.store(true);
  for (auto& t : readers) t.join();
  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(errors[r], "") << "reader " << r;
  }
  EXPECT_GE(batches, kHoldFor);
  EXPECT_LT(batches, 5000u) << "readers never finished";
  EXPECT_GT(m.stats().view_delta_captures, batches / 2);
}

}  // namespace
}  // namespace pdmm
