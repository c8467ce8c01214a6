// The concurrent read-view subsystem (src/serve): MatchView construction
// and validation, the EpochSlots reclamation primitive, ViewChannel
// publish/acquire/retire/reclaim, MatchViewService hook integration, and —
// the core of the suite — multi-threaded hammer tests that run reader
// threads against a live update stream and assert every acquired view is
// internally consistent, maximal for its epoch (against a per-epoch
// certificate of the live edge set), and that epochs observed by each
// reader are monotone. The hammer tests are the TSan surface of the serve
// subsystem (.github/workflows/ci.yml runs this binary under ThreadSanitizer).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/checker.h"
#include "core/matcher.h"
#include "engine/update_engine.h"
#include "parallel/epoch_reclaim.h"
#include "serve/view_channel.h"
#include "serve/view_service.h"
#include "workload/generators.h"

namespace pdmm {
namespace {

Config small_config(uint64_t seed) {
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = seed;
  cfg.initial_capacity = 1 << 12;
  return cfg;
}

// ---------------------------------------------------------------------------
// MatchView construction and validation
// ---------------------------------------------------------------------------

TEST(MatchView, MirrorsMatcherState) {
  ThreadPool pool(1);
  DynamicMatcher m(small_config(7), pool);
  ChurnStream::Options so;
  so.n = 200;
  so.target_edges = 400;
  so.seed = 5;
  ChurnStream stream(so);
  for (int i = 0; i < 25; ++i) {
    const Batch b = stream.next(40);
    m.update_by_endpoints(b.deletions, b.insertions);
  }

  const MatchView view = m.make_view();
  std::string err;
  EXPECT_TRUE(view.validate(&err)) << err;
  EXPECT_EQ(view.epoch, m.batch_epoch());
  EXPECT_EQ(view.matching_size(), m.matching_size());

  const std::vector<EdgeId> matching = m.matching();
  EXPECT_TRUE(std::equal(matching.begin(), matching.end(),
                         view.matching().begin(), view.matching().end()));
  for (Vertex v = 0; v < view.vertex_bound(); ++v) {
    EXPECT_EQ(view.matched_edge_of(v), m.matched_edge_of(v));
    EXPECT_EQ(view.level_of(v), m.vertex_level(v));
  }
  for (EdgeId e : matching) {
    EXPECT_TRUE(view.is_matched(e));
    const auto veps = view.endpoints_of_matched(e);
    const auto geps = m.graph().endpoints(e);
    ASSERT_EQ(veps.size(), geps.size());
    EXPECT_TRUE(std::equal(veps.begin(), veps.end(), geps.begin()));
  }
  // A view outlives the state it snapshotted: mutate the matcher and the
  // view must still validate and answer as of its epoch.
  for (int i = 0; i < 5; ++i) {
    const Batch b = stream.next(40);
    m.update_by_endpoints(b.deletions, b.insertions);
  }
  EXPECT_TRUE(view.validate(&err)) << err;
  EXPECT_EQ(view.matching_size(), matching.size());
}

TEST(MatchView, ValidateCatchesCorruption) {
  ThreadPool pool(1);
  DynamicMatcher m(small_config(9), pool);
  std::vector<std::vector<Vertex>> ins = {{0, 1}, {2, 3}, {4, 5}};
  m.insert_batch(ins);
  const MatchView good = m.make_view();
  ASSERT_TRUE(good.validate());
  ASSERT_GE(good.matching_size(), 2u);

  {
    MatchView v = good;  // endpoint no longer points back at its edge
    v.vmatch[v.mendpoints[0]] = kNoEdge;
    EXPECT_FALSE(v.validate());
  }
  {
    MatchView v = good;  // endpoint level disagreement
    v.vlevel[v.mendpoints[0]] += 1;
    EXPECT_FALSE(v.validate());
  }
  {
    MatchView v = good;  // unsorted edge list
    std::swap(v.medges[0], v.medges[1]);
    EXPECT_FALSE(v.validate());
  }
  {
    MatchView v = good;  // unmatched vertex with a live level
    v.vmatch.push_back(kNoEdge);
    v.vlevel.push_back(2);
    EXPECT_FALSE(v.validate());
  }
  {
    MatchView v = good;  // vertex matched to an edge absent from the view
    v.vmatch.push_back(1u << 20);
    v.vlevel.push_back(0);
    EXPECT_FALSE(v.validate());
  }
  {
    MatchView v = good;  // CSR shape broken
    v.moffset.back() += 1;
    EXPECT_FALSE(v.validate());
  }
}

// ---------------------------------------------------------------------------
// EpochSlots
// ---------------------------------------------------------------------------

TEST(EpochSlots, PinUnpinMinAndCapacity) {
  EpochSlots slots(3);
  EXPECT_EQ(slots.min_pinned(), EpochSlots::kIdle);
  EXPECT_EQ(slots.active(), 0u);

  const size_t a = slots.claim_and_pin(5);
  const size_t b = slots.claim_and_pin(3);
  const size_t c = slots.claim_and_pin(9);
  ASSERT_NE(a, EpochSlots::kNoSlot);
  ASSERT_NE(b, EpochSlots::kNoSlot);
  ASSERT_NE(c, EpochSlots::kNoSlot);
  EXPECT_EQ(slots.claim_and_pin(1), EpochSlots::kNoSlot);  // full
  EXPECT_EQ(slots.min_pinned(), 3u);
  EXPECT_EQ(slots.active(), 3u);

  slots.unpin(b);
  EXPECT_EQ(slots.min_pinned(), 5u);
  slots.unpin(a);
  slots.unpin(c);
  EXPECT_EQ(slots.min_pinned(), EpochSlots::kIdle);
  EXPECT_EQ(slots.claim_and_pin(2), 0u);  // slots are reusable
  slots.unpin(0);
}

// ---------------------------------------------------------------------------
// ViewChannel (single-threaded protocol behaviour)
// ---------------------------------------------------------------------------

std::unique_ptr<MatchView> tiny_view(uint64_t epoch) {
  auto v = std::make_unique<MatchView>();
  v->epoch = epoch;
  v->max_rank = 2;
  v->moffset = {0};
  return v;
}

TEST(ViewChannel, AcquireBeforePublishIsEmpty) {
  ViewChannel ch(4);
  ViewHandle h = ch.acquire();
  EXPECT_FALSE(h);
  EXPECT_EQ(ch.published_epoch(), 0u);
}

TEST(ViewChannel, RetireAndReclaimFollowHandles) {
  ViewChannel ch(4);
  // The test body is the channel's single (and only) thread.
  ch.writer_role().assert_held();
  ch.publish(tiny_view(1));
  EXPECT_EQ(ch.published_epoch(), 1u);

  ViewHandle h1 = ch.acquire();
  ASSERT_TRUE(h1);
  EXPECT_EQ(h1->epoch, 1u);

  // Epoch 1 is still leased: publishing 2 and 3 must retire but not free it.
  ch.publish(tiny_view(2));
  ch.publish(tiny_view(3));
  EXPECT_EQ(ch.published_epoch(), 3u);
  EXPECT_EQ(h1->epoch, 1u);  // the handle's view is untouched
  EXPECT_EQ(ch.freed_count(), 0u);
  EXPECT_EQ(ch.retired_pending(), 2u);

  // A fresh acquire sees the newest view; releasing the old lease makes
  // both retired views reclaimable on the next scan.
  ViewHandle h2 = ch.acquire();
  ASSERT_TRUE(h2);
  EXPECT_EQ(h2->epoch, 3u);
  h1.release();
  ch.reclaim();
  EXPECT_EQ(ch.freed_count(), 2u);
  EXPECT_EQ(ch.retired_pending(), 0u);

  // Handle moves transfer the lease; the moved-from handle is inert.
  ViewHandle h3 = std::move(h2);
  EXPECT_FALSE(h2);  // NOLINT(bugprone-use-after-move): inspecting the husk
  ASSERT_TRUE(h3);
  EXPECT_EQ(h3->epoch, 3u);
  h3 = ch.acquire();  // move-assign over a live handle releases the old lease
  ASSERT_TRUE(h3);
  h3.release();
}

TEST(ViewChannel, EqualEpochRepublishIsAllowed) {
  ViewChannel ch(2);
  // The test body is the channel's single (and only) thread.
  ch.writer_role().assert_held();
  ch.publish(tiny_view(4));
  ch.publish(tiny_view(4));  // e.g. publish_now() after rebuild()/load()
  EXPECT_EQ(ch.published_epoch(), 4u);
  EXPECT_EQ(ch.published_count(), 2u);
}

// ---------------------------------------------------------------------------
// MatchViewService
// ---------------------------------------------------------------------------

TEST(MatchViewService, PublishesOnConstructionAndEveryBatch) {
  ThreadPool pool(1);
  DynamicMatcher m(small_config(11), pool);
  MatchViewService serve(m);
  EXPECT_EQ(serve.published_epoch(), 0u);
  {
    ViewHandle h = serve.acquire();
    ASSERT_TRUE(h);
    EXPECT_EQ(h->matching_size(), 0u);
  }

  ChurnStream::Options so;
  so.n = 100;
  so.target_edges = 200;
  so.seed = 3;
  ChurnStream stream(so);
  for (int i = 1; i <= 10; ++i) {
    const Batch b = stream.next(30);
    m.update_by_endpoints(b.deletions, b.insertions);
    EXPECT_EQ(serve.published_epoch(), static_cast<uint64_t>(i));
    ViewHandle h = serve.acquire();
    ASSERT_TRUE(h);
    EXPECT_EQ(h->epoch, static_cast<uint64_t>(i));
    EXPECT_EQ(h->matching_size(), m.matching_size());
    std::string err;
    EXPECT_TRUE(h->validate(&err)) << err;
  }
  EXPECT_EQ(serve.channel().published_count(), 11u);
  // Detaching the service stops publication.
}

// ---------------------------------------------------------------------------
// Concurrent hammers (the TSan surface)
// ---------------------------------------------------------------------------

// Sorted endpoint lists of every live edge after a given batch — enough to
// check a view's matching is maximal *for its epoch* from a reader thread.
using EpochCertificate = std::vector<std::vector<Vertex>>;

EpochCertificate live_edge_certificate(const DynamicMatcher& m) {
  EpochCertificate cert;
  const auto edges = m.graph().all_edges();
  cert.reserve(edges.size());
  for (EdgeId e : edges) {
    const auto eps = m.graph().endpoints(e);
    cert.emplace_back(eps.begin(), eps.end());  // already sorted (canonical)
  }
  std::sort(cert.begin(), cert.end());
  return cert;
}

struct HammerReaderResult {
  uint64_t acquires = 0;
  uint64_t epochs_seen = 0;
  uint64_t full_checks = 0;
  bool monotone = true;
  bool consistent = true;
  bool maximal = true;
  std::string error;
};

// Full per-epoch audit of one acquired view: internal consistency, all
// matched edges live in the epoch's certificate, and maximality (every
// live edge has a matched endpoint).
void audit_view(const MatchView& view, const EpochCertificate& cert,
                HammerReaderResult& out) {
  ++out.full_checks;
  std::string err;
  if (!view.validate(&err)) {
    out.consistent = false;
    if (out.error.empty()) {
      out.error = "epoch " + std::to_string(view.epoch) + ": " + err;
    }
    return;
  }
  std::vector<Vertex> eps_buf;
  for (size_t i = 0; i < view.medges.size(); ++i) {
    eps_buf.assign(view.mendpoints.begin() + view.moffset[i],
                   view.mendpoints.begin() + view.moffset[i + 1]);
    if (!std::binary_search(cert.begin(), cert.end(), eps_buf)) {
      out.consistent = false;
      if (out.error.empty()) {
        out.error = "epoch " + std::to_string(view.epoch) +
                    ": matched edge not live in its epoch";
      }
      return;
    }
  }
  for (const auto& eps : cert) {
    bool covered = false;
    for (Vertex u : eps) covered |= view.matched_edge_of(u) != kNoEdge;
    if (!covered) {
      out.maximal = false;
      if (out.error.empty()) {
        out.error = "epoch " + std::to_string(view.epoch) +
                    ": live edge with no matched endpoint (not maximal)";
      }
      return;
    }
  }
}

// The acceptance hammer: >= 4 reader threads against a churn update stream
// for >= 200 batches. Certificates are written by the updater before the
// corresponding publish, so the publish's release ordering hands them to
// readers race-free.
TEST(ServeHammer, ReadersSeeConsistentMaximalMonotoneViews) {
  constexpr size_t kReaders = 4;
  constexpr size_t kBatches = 220;
  constexpr size_t kBatchSize = 64;

  // Oversubscribe on small machines so the updater's pool phases and the
  // readers genuinely interleave.
  ThreadPool pool(4, /*allow_oversubscribe=*/true);
  DynamicMatcher m(small_config(13), pool);
  ViewChannel channel(kReaders * 2 + 4);
  std::vector<EpochCertificate> certs(kBatches + 1);

  ChurnStream::Options so;
  so.n = 512;
  so.target_edges = 1024;
  so.seed = 29;
  ChurnStream stream(so);

  std::atomic<bool> done{false};
  std::vector<HammerReaderResult> results(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      HammerReaderResult& out = results[r];
      uint64_t last_epoch = 0;
      bool have_epoch = false;
      while (true) {
        const bool finishing = done.load(std::memory_order_acquire);
        ViewHandle h = channel.acquire();
        if (h) {
          ++out.acquires;
          const uint64_t epoch = h->epoch;
          if (have_epoch && epoch < last_epoch) out.monotone = false;
          if (!have_epoch || epoch != last_epoch) {
            have_epoch = true;
            ++out.epochs_seen;
            audit_view(*h, certs[epoch], out);
          }
          last_epoch = epoch;
        }
        if (finishing) break;
      }
    });
  }

  // This (main) thread is the only publisher — the reader threads above
  // only acquire — so it holds the channel's writer role throughout.
  channel.writer_role().assert_held();
  for (size_t i = 1; i <= kBatches; ++i) {
    const Batch b = stream.next(kBatchSize);
    m.update_by_endpoints(b.deletions, b.insertions);
    ASSERT_EQ(m.batch_epoch(), i);
    // Certificate first, publish second: the publish's seq_cst store is
    // the release fence that makes certs[i] visible to any reader that
    // acquires the epoch-i view.
    certs[i] = live_edge_certificate(m);
    channel.publish(std::make_unique<MatchView>(m.make_view()));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  uint64_t total_epochs = 0;
  for (size_t r = 0; r < kReaders; ++r) {
    const HammerReaderResult& res = results[r];
    EXPECT_TRUE(res.monotone) << "reader " << r << " saw epochs go backwards";
    EXPECT_TRUE(res.consistent) << "reader " << r << ": " << res.error;
    EXPECT_TRUE(res.maximal) << "reader " << r << ": " << res.error;
    EXPECT_GT(res.acquires, 0u) << "reader " << r << " never acquired";
    EXPECT_GT(res.epochs_seen, 1u)
        << "reader " << r << " saw no epoch progress";
    total_epochs += res.epochs_seen;
  }
  EXPECT_GT(total_epochs, kReaders + 2);

  // Reclamation must have been live while readers churned, and must drain
  // completely once they are gone (all but the current view).
  channel.reclaim();
  EXPECT_EQ(channel.published_count(), kBatches);
  EXPECT_EQ(channel.freed_count(), kBatches - 1);
  EXPECT_EQ(channel.retired_pending(), 0u);

  // The matcher itself came through the concurrent episode unharmed.
  MatchingChecker::check(m);
}

// Same shape through the MatchViewService hook path (publication from
// inside update()), plus handle-held-across-batches staleness: a reader
// that parks a handle keeps a consistent old epoch while the world moves.
TEST(ServeHammer, ServiceHookPathUnderConcurrentReaders) {
  constexpr size_t kReaders = 4;
  constexpr size_t kBatches = 60;

  ThreadPool pool(2, /*allow_oversubscribe=*/true);
  DynamicMatcher m(small_config(17), pool);
  MatchViewService::Options sopt;
  sopt.max_readers = kReaders * 2 + 4;
  MatchViewService serve(m, sopt);

  OscillationStream::Options oo;
  oo.n = 256;
  oo.core_edges = 128;
  oo.background_edges = 256;
  oo.seed = 31;
  OscillationStream stream(oo);

  std::atomic<bool> done{false};
  std::vector<HammerReaderResult> results(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      HammerReaderResult& out = results[r];
      uint64_t last_epoch = 0;
      ViewHandle parked;  // held across iterations: staleness is safe
      while (true) {
        const bool finishing = done.load(std::memory_order_acquire);
        ViewHandle h = serve.acquire();
        if (h) {
          ++out.acquires;
          if (h->epoch < last_epoch) out.monotone = false;
          if (h->epoch != last_epoch) {
            std::string err;
            if (!h->validate(&err)) {
              out.consistent = false;
              if (out.error.empty()) out.error = err;
            }
            ++out.epochs_seen;
          }
          last_epoch = h->epoch;
          if (parked && parked->epoch + 8 < h->epoch) {
            // The parked view must still validate long after retirement.
            std::string err;
            if (!parked->validate(&err)) {
              out.consistent = false;
              if (out.error.empty()) out.error = "parked: " + err;
            }
            parked.release();
          }
          if (!parked && (out.acquires % 7) == 0) parked = std::move(h);
        }
        if (finishing) break;
      }
    });
  }

  for (size_t i = 1; i <= kBatches; ++i) {
    const Batch b = stream.next(48);
    m.update_by_endpoints(b.deletions, b.insertions);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(results[r].monotone) << "reader " << r;
    EXPECT_TRUE(results[r].consistent)
        << "reader " << r << ": " << results[r].error;
    EXPECT_GT(results[r].acquires, 0u) << "reader " << r;
  }
  EXPECT_EQ(serve.published_epoch(), kBatches);
  MatchingChecker::check(m);
}

// A pinned lease across pipeline overlap: a ViewHandle acquired at epoch e
// must stay valid — internally consistent AND correct against epoch e's
// certificate — while the pipelined engine settles, publishes, and retires
// e+1 and e+2 behind it. Epoch reclamation may free any retired view
// except the leased one.
TEST(ServeHammer, PinnedLeaseSurvivesPipelineOverlap) {
  constexpr size_t kWarmup = 6;
  constexpr size_t kOverlap = 8;

  ThreadPool pool(2, /*allow_oversubscribe=*/true);
  DynamicMatcher m(small_config(23), pool);
  // The test driver owns the matcher until the engine starts and after it
  // stops; while it runs, only leased handles are touched.
  m.updater_role().assert_held();
  MatchViewService::Options sopt;
  sopt.install_hook = false;  // the engine publishes from its own stage
  MatchViewService serve(m, sopt);

  // Per-epoch certificates, captured at the settle barrier (the hook runs
  // on the settle stage thread while it owns the matcher); the publish
  // that follows is the release that hands certs[e] to acquirers of the
  // epoch-e view.
  std::vector<EpochCertificate> certs(kWarmup + kOverlap + 1);
  m.set_post_batch_hook([&](const DynamicMatcher::BatchResult&) {
    certs[m.batch_epoch()] = live_edge_certificate(m);
  });

  ChurnStream::Options so;
  so.n = 220;
  so.target_edges = 460;
  so.zipf_s = 0.5;
  so.seed = 23;
  ChurnStream stream(so);

  engine::UpdateEngine::Options eo;
  eo.pipelined = true;
  eo.queue_capacity = 4;
  {
    engine::UpdateEngine eng(m, &serve, nullptr, eo);
    for (size_t i = 0; i < kWarmup; ++i) {
      ASSERT_TRUE(eng.submit(stream.next(40))) << eng.error();
    }
    ASSERT_TRUE(eng.drain()) << eng.error();
    ASSERT_EQ(serve.published_epoch(), kWarmup);

    // Pin a lease on epoch kWarmup, then keep the pipeline moving under
    // it. The handle's epoch must not drift and the view must keep
    // auditing clean against ITS epoch's certificate after every newer
    // epoch lands.
    ViewHandle pinned = serve.acquire();
    ASSERT_TRUE(pinned);
    ASSERT_EQ(pinned->epoch, kWarmup);
    for (size_t i = 0; i < kOverlap; ++i) {
      ASSERT_TRUE(eng.submit(stream.next(40))) << eng.error();
      if ((i + 1) % 2 == 0) {
        ASSERT_TRUE(eng.drain()) << eng.error();
        EXPECT_EQ(pinned->epoch, kWarmup);
        HammerReaderResult audit;
        audit_view(*pinned, certs[kWarmup], audit);
        EXPECT_TRUE(audit.consistent) << audit.error;
        EXPECT_TRUE(audit.maximal) << audit.error;
        // Fresh acquirers meanwhile see the new frontier.
        ViewHandle now = serve.acquire();
        ASSERT_TRUE(now);
        EXPECT_EQ(now->epoch, eng.retired_epoch());
      }
    }
    ASSERT_TRUE(eng.drain()) << eng.error();
    EXPECT_EQ(serve.published_epoch(), kWarmup + kOverlap);
    // One last audit at the pinned epoch before releasing the lease.
    HammerReaderResult audit;
    audit_view(*pinned, certs[kWarmup], audit);
    EXPECT_TRUE(audit.consistent) << audit.error;
    EXPECT_TRUE(audit.maximal) << audit.error;
    pinned.release();
    ASSERT_TRUE(eng.stop()) << eng.error();
  }
  m.set_post_batch_hook(nullptr);
  MatchingChecker::check(m);
}

}  // namespace
}  // namespace pdmm
