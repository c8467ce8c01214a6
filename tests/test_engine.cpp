// Update-engine tests: stage-boundary fault injection and the pipelined
// hammer.
//
// The crash model uses the SyncPoints seam (util/sync_point.h): the
// inline (synchronous) engine visits every stage boundary in one fixed
// total order, so "crash at point P of epoch E" enumerates every
// reachable on-disk state deterministically. At the chosen firing the
// test hook copies the journal file and checkpoint directory aside — a
// crash-consistent image: bytes still sitting in stdio buffers or
// unfinished groups are genuinely absent from the copy, exactly as a
// SIGKILL would leave them — then kills the engine. Recovery runs
// against the image and must land on the reference state of whatever
// epoch the image's durable frontier reaches; resuming the stream from
// there must reproduce the uninterrupted run byte-for-byte, journal
// included. The pipelined mode is covered by an end-to-end equivalence
// smoke here (the full matrix lives in test_engine_equivalence.cpp), a
// TSan hammer (readers + pipelined updater + checkpointer), and the
// process-level SIGKILL job in CI.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/matcher.h"
#include "engine/update_engine.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "serve/view_service.h"
#include "util/sync_point.h"
#include "workload/generators.h"

namespace pdmm {
namespace {

namespace fs = std::filesystem;
using engine::UpdateEngine;
using persist::Journal;
using persist::RecoveryOptions;
using persist::RecoveryReport;

Config engine_config() {
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = 4242;
  cfg.initial_capacity = 1 << 14;
  return cfg;
}

std::string save_str(const DynamicMatcher& m) {
  std::ostringstream out;
  EXPECT_TRUE(m.save(out));
  return std::move(out).str();
}

std::string file_str(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

// Clears the global sync-point hook on scope exit, so a failing ASSERT in
// one test cannot leak an armed hook into the next.
struct HookGuard {
  ~HookGuard() { SyncPoints::clear(); }
};

class EngineTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pdmm_test_engine." + std::to_string(::getpid()) + "." +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    SyncPoints::clear();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// Deterministic batch stream + per-epoch reference snapshots
// (reference[e] = state after epoch e; reference[0] = empty matcher).
struct RefRun {
  std::vector<Batch> batches;
  std::vector<std::string> reference;
};

RefRun drive_reference(const Config& cfg, ThreadPool& pool, size_t batches) {
  RefRun run;
  ChurnStream::Options so;
  so.n = 180;
  so.target_edges = 400;
  so.zipf_s = 0.6;
  so.seed = 99;
  ChurnStream stream(so);
  DynamicMatcher m(cfg, pool);
  run.reference.push_back(save_str(m));
  for (size_t i = 0; i < batches; ++i) {
    run.batches.push_back(stream.next(24));
    const Batch& b = run.batches.back();
    m.update_by_endpoints(b.deletions, b.insertions);
    run.reference.push_back(save_str(m));
  }
  return run;
}

// The journal bytes an uninterrupted, fully committed run produces.
std::string reference_journal(const std::string& wal,
                              const std::vector<Batch>& batches) {
  std::string err;
  auto j = Journal::open(wal, {}, &err);
  EXPECT_NE(j, nullptr) << err;
  // Test setup runs single-threaded here; this thread is the appender.
  j->appender_role().assert_held();
  for (size_t i = 0; i < batches.size(); ++i) {
    EXPECT_TRUE(j->append(i + 1, batches[i], &err)) << err;
  }
  j.reset();
  return file_str(wal);
}

// Copies the on-disk persistence state (journal + every "ck*" file,
// INCLUDING .tmp strays) into `img` — the crash-consistent image the
// recovery half of a fault test runs against.
void capture_image(const fs::path& live, const fs::path& img) {
  fs::create_directories(img);
  for (const auto& ent : fs::directory_iterator(live)) {
    const std::string name = ent.path().filename().string();
    if (name.rfind("wal", 0) == 0 || name.rfind("ck", 0) == 0) {
      fs::copy_file(ent.path(), img / name,
                    fs::copy_options::overwrite_existing);
    }
  }
}

// ---------------------------------------------------------------------------
// Inline engine: behavioural equivalence with the plain update loop
// ---------------------------------------------------------------------------

TEST_F(EngineTest, InlineEngineMatchesDirectUpdates) {
  ThreadPool pool(1);
  const Config cfg = engine_config();
  const RefRun ref = drive_reference(cfg, pool, 12);

  DynamicMatcher m(cfg, pool);
  // Single-threaded test driver: this thread owns all roles.
  m.updater_role().assert_held();
  MatchViewService::Options so;
  so.install_hook = false;
  MatchViewService service(m, so);
  std::string err;
  auto j = Journal::open(path("wal.log"), {}, &err);
  ASSERT_NE(j, nullptr) << err;

  UpdateEngine::Options eo;
  eo.group_commit = 3;
  eo.checkpoint_every = 4;
  eo.checkpoint_prefix = path("ck");
  {
    UpdateEngine eng(m, &service, j.get(), eo);
    for (const Batch& b : ref.batches) ASSERT_TRUE(eng.submit(b));
    ASSERT_TRUE(eng.drain());
    EXPECT_EQ(eng.submitted_epoch(), 12u);
    EXPECT_EQ(eng.applied_epoch(), 12u);
    EXPECT_EQ(eng.durable_epoch(), 12u);
    EXPECT_EQ(eng.retired_epoch(), 12u);
    ASSERT_TRUE(eng.stop());
  }
  EXPECT_EQ(save_str(m), ref.reference[12]);
  EXPECT_EQ(service.published_epoch(), 12u);
  // Group commit changes WHEN fsyncs happen, never the bytes.
  j.reset();
  EXPECT_EQ(file_str(path("wal.log")),
            reference_journal(path("ref_wal.log"), ref.batches));
  // Checkpoints landed at epochs 4, 8, 12; keep=3 retains all three.
  EXPECT_EQ(persist::list_checkpoints(path("ck")).size(), 3u);
}

// ---------------------------------------------------------------------------
// Crash at every sync point of every epoch, recover, resume byte-identically
// ---------------------------------------------------------------------------

TEST_F(EngineTest, CrashAtEverySyncPointRecoversAndResumesByteIdentical) {
  constexpr size_t kBatches = 10;
  ThreadPool pool(1);
  const Config cfg = engine_config();
  const RefRun ref = drive_reference(cfg, pool, kBatches);
  const std::string ref_wal = reference_journal(path("refwal"), ref.batches);

  const char* const kPoints[] = {
      kEnginePreAppend,  kEnginePostAppend,     kJournalPreFsync,
      kEnginePostCommit, kEnginePreSettle,      kEnginePostSettle,
      kEnginePreCheckpoint, kEnginePrePublish,  kEnginePostPublish,
      kCheckpointPreRename,
  };

  size_t cases_run = 0;
  for (const char* point : kPoints) {
    for (uint64_t target = 1; target <= kBatches; ++target) {
      SCOPED_TRACE(std::string(point) + " @ epoch " +
                   std::to_string(target));
      const fs::path live = dir_ / (std::string("live_") + point + "_" +
                                    std::to_string(target));
      const fs::path img = dir_ / (std::string("img_") + point + "_" +
                                   std::to_string(target));
      fs::create_directories(live);

      UpdateEngine::Options eo;
      eo.group_commit = 2;  // leaves appended-but-uncommitted crash states
      eo.checkpoint_every = 3;
      eo.checkpoint_keep = 2;
      eo.checkpoint_prefix = (live / "ck").string();

      uint64_t durable_at_crash = 0;
      bool fired = false;
      bool completed = false;
      {
        DynamicMatcher m(cfg, pool);
        m.updater_role().assert_held();
        MatchViewService::Options so;
        so.install_hook = false;
        MatchViewService service(m, so);
        std::string err;
        auto j = Journal::open((live / "wal.log").string(), {}, &err);
        ASSERT_NE(j, nullptr) << err;
        UpdateEngine eng(m, &service, j.get(), eo);

        HookGuard guard;
        SyncPoints::install([&](const char* p, uint64_t arg) {
          if (!fired && std::strcmp(p, point) == 0 && arg == target) {
            fired = true;
            capture_image(live, img);
            return SyncPoints::kCrash;
          }
          return SyncPoints::kProceed;
        });

        completed = true;
        for (const Batch& b : ref.batches) {
          if (!eng.submit(b)) {
            completed = false;
            break;
          }
        }
        if (completed) completed = eng.drain();
        durable_at_crash = eng.durable_epoch();
        SyncPoints::clear();
      }

      if (!fired) {
        // This point never reaches this epoch under the configured
        // cadence (commit groups of 2, checkpoints every 3) — the run
        // must then have completed untouched.
        EXPECT_TRUE(completed);
        fs::remove_all(live);
        continue;
      }
      ++cases_run;
      EXPECT_FALSE(completed);

      // Recover from the crash image. The durable frontier may trail the
      // crash epoch (buffered groups die with the process) but can never
      // trail the engine's own durability watermark — that is the
      // watermark's promise.
      DynamicMatcher m2(cfg, pool);
      m2.updater_role().assert_held();
      RecoveryOptions ro;
      ro.checkpoint_prefix = (img / "ck").string();
      ro.journal_path = (img / "wal.log").string();
      const RecoveryReport rep = persist::recover(m2, ro);
      ASSERT_TRUE(rep.ok) << rep.error;
      const uint64_t d = rep.final_epoch;
      EXPECT_GE(d, durable_at_crash);
      EXPECT_LE(d, target);
      ASSERT_LT(d, ref.reference.size());
      EXPECT_EQ(save_str(m2), ref.reference[d])
          << "recovered state diverges from the reference at epoch " << d;

      // Resume the same stream from the image and finish it: the final
      // state AND the journal bytes must match the uninterrupted run.
      std::string err;
      auto j2 = persist::open_journal_after_recovery(
          (img / "wal.log").string(), {}, rep, &err);
      ASSERT_NE(j2, nullptr) << err;
      MatchViewService::Options so;
      so.install_hook = false;
      MatchViewService service2(m2, so);
      UpdateEngine::Options eo2 = eo;
      eo2.checkpoint_prefix = (img / "ck").string();
      {
        UpdateEngine eng2(m2, &service2, j2.get(), eo2);
        for (uint64_t e = d; e < kBatches; ++e) {
          ASSERT_TRUE(eng2.submit(ref.batches[e])) << eng2.error();
        }
        ASSERT_TRUE(eng2.drain()) << eng2.error();
        ASSERT_TRUE(eng2.stop());
      }
      EXPECT_EQ(save_str(m2), ref.reference[kBatches]);
      j2.reset();
      EXPECT_EQ(file_str((img / "wal.log").string()), ref_wal)
          << "resumed journal is not byte-identical";

      fs::remove_all(live);
      fs::remove_all(img);
    }
  }
  // The matrix must have actually exercised a healthy spread of crash
  // states (every unconditional point fires at every epoch).
  EXPECT_GE(cases_run, 60u);
}

// ---------------------------------------------------------------------------
// Injected fsync failure: surfaces on the durability watermark, never
// silent success
// ---------------------------------------------------------------------------

TEST_F(EngineTest, FsyncFailureSurfacesOnDurabilityWatermark) {
  ThreadPool pool(1);
  const Config cfg = engine_config();
  const RefRun ref = drive_reference(cfg, pool, 6);

  DynamicMatcher m(cfg, pool);
  m.updater_role().assert_held();
  std::string err;
  auto j = Journal::open(path("wal.log"), {}, &err);
  ASSERT_NE(j, nullptr) << err;

  HookGuard guard;
  SyncPoints::install([&](const char* p, uint64_t arg) {
    if (std::strcmp(p, kJournalPreFsync) == 0 && arg == 4) {
      return SyncPoints::kFail;
    }
    return SyncPoints::kProceed;
  });

  UpdateEngine::Options eo;  // group_commit = 1: commit per batch
  UpdateEngine eng(m, nullptr, j.get(), eo);
  size_t accepted = 0;
  for (const Batch& b : ref.batches) {
    if (!eng.submit(b)) break;
    ++accepted;
  }
  // Epochs 1..3 committed; the injected failure killed epoch 4's commit.
  EXPECT_EQ(accepted, 3u);
  EXPECT_TRUE(eng.failed());
  EXPECT_NE(eng.error().find("fsync"), std::string::npos) << eng.error();
  EXPECT_EQ(eng.durable_epoch(), 3u);
  EXPECT_FALSE(eng.submit(ref.batches[4]));  // failed engines accept nothing
  EXPECT_FALSE(eng.drain());
  EXPECT_FALSE(eng.stop());
}

TEST_F(EngineTest, JournalCommitFailureLeavesWatermarkBehind) {
  ThreadPool pool(1);
  const Config cfg = engine_config();
  const RefRun ref = drive_reference(cfg, pool, 3);

  std::string err;
  auto j = Journal::open(path("wal.log"), {}, &err);
  ASSERT_NE(j, nullptr) << err;
  // Single-threaded test: this thread is the appender.
  j->appender_role().assert_held();

  ASSERT_TRUE(j->append_buffered(1, ref.batches[0], &err)) << err;
  ASSERT_TRUE(j->append_buffered(2, ref.batches[1], &err)) << err;
  EXPECT_EQ(j->last_epoch(), 2u);
  EXPECT_EQ(j->committed_epoch(), 0u);  // nothing durable yet

  HookGuard guard;
  SyncPoints::install([](const char* p, uint64_t) {
    return std::strcmp(p, kJournalPreFsync) == 0 ? SyncPoints::kFail
                                                 : SyncPoints::kProceed;
  });
  err.clear();
  EXPECT_FALSE(j->commit(&err));
  EXPECT_NE(err.find("fsync"), std::string::npos) << err;
  EXPECT_EQ(j->committed_epoch(), 0u);  // the watermark did not move

  SyncPoints::clear();
  ASSERT_TRUE(j->commit(&err)) << err;
  EXPECT_EQ(j->committed_epoch(), 2u);
}

// ---------------------------------------------------------------------------
// Checkpoint placement faults
// ---------------------------------------------------------------------------

TEST_F(EngineTest, CheckpointRenameFaultsCleanUpOrLeaveRealisticStray) {
  ThreadPool pool(1);
  const Config cfg = engine_config();
  const RefRun ref = drive_reference(cfg, pool, 4);
  DynamicMatcher m(cfg, pool);
  for (const Batch& b : ref.batches) {
    m.update_by_endpoints(b.deletions, b.insertions);
  }

  // kFail: behaves like a failed rename — error out, tmp removed, no new
  // checkpoint visible.
  {
    HookGuard guard;
    SyncPoints::install([](const char* p, uint64_t) {
      return std::strcmp(p, kCheckpointPreRename) == 0 ? SyncPoints::kFail
                                                       : SyncPoints::kProceed;
    });
    std::string err;
    EXPECT_FALSE(
        persist::write_checkpoint_series(path("ck.fail"), m, 2, &err));
    EXPECT_NE(err.find("rename"), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(path("ck.fail.4")));
    EXPECT_FALSE(fs::exists(path("ck.fail.4.tmp")));
  }

  // kCrash: dies between tmp completion and rename — the stray .tmp a
  // real crash leaves. list_checkpoints must ignore it and recovery from
  // an older checkpoint must be unaffected.
  {
    std::string err;
    ASSERT_TRUE(persist::write_checkpoint_series(path("ck"), m, 2, &err))
        << err;
    HookGuard guard;
    SyncPoints::install([](const char* p, uint64_t) {
      return std::strcmp(p, kCheckpointPreRename) == 0
                 ? SyncPoints::kCrash
                 : SyncPoints::kProceed;
    });
    std::string bytes;
    ASSERT_TRUE(persist::encode_checkpoint(m, bytes, &err)) << err;
    EXPECT_FALSE(persist::write_checkpoint_series_bytes(path("ck"), 9, bytes,
                                                        2, &err));
    EXPECT_TRUE(fs::exists(path("ck.9.tmp")));
    EXPECT_FALSE(fs::exists(path("ck.9")));
    SyncPoints::clear();

    const auto cks = persist::list_checkpoints(path("ck"));
    ASSERT_EQ(cks.size(), 1u);  // the epoch-4 checkpoint; .tmp ignored
    EXPECT_EQ(cks[0].first, 4u);

    DynamicMatcher m2(cfg, pool);
    RecoveryOptions ro;
    ro.checkpoint_prefix = path("ck");
    const RecoveryReport rep = persist::recover(m2, ro);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.final_epoch, 4u);
    EXPECT_EQ(save_str(m2), ref.reference[4]);
  }
}

// ---------------------------------------------------------------------------
// Pipelined mode: equivalence smoke + watermark lag + lifecycle
// ---------------------------------------------------------------------------

TEST_F(EngineTest, PipelinedEngineMatchesInlineByteForByte) {
  ThreadPool pool(2);
  const Config cfg = engine_config();
  const RefRun ref = drive_reference(cfg, pool, 30);

  DynamicMatcher m(cfg, pool);
  m.updater_role().assert_held();
  MatchViewService::Options so;
  so.install_hook = false;
  MatchViewService service(m, so);
  std::string err;
  auto j = Journal::open(path("wal.log"), {}, &err);
  ASSERT_NE(j, nullptr) << err;

  UpdateEngine::Options eo;
  eo.pipelined = true;
  eo.queue_capacity = 4;
  eo.group_commit = 4;
  eo.checkpoint_every = 10;
  eo.checkpoint_prefix = path("ck");
  {
    UpdateEngine eng(m, &service, j.get(), eo);
    for (const Batch& b : ref.batches) ASSERT_TRUE(eng.submit(b));
    ASSERT_TRUE(eng.drain()) << eng.error();
    EXPECT_EQ(eng.durable_epoch(), 30u);
    EXPECT_EQ(eng.retired_epoch(), 30u);
    ASSERT_TRUE(eng.stop()) << eng.error();
  }
  EXPECT_EQ(save_str(m), ref.reference[30]);
  EXPECT_EQ(service.published_epoch(), 30u);
  j.reset();
  EXPECT_EQ(file_str(path("wal.log")),
            reference_journal(path("refwal"), ref.batches));
}

TEST_F(EngineTest, GroupCommitWatermarkLagsThenDrainCatchesUp) {
  ThreadPool pool(1);
  const Config cfg = engine_config();
  const RefRun ref = drive_reference(cfg, pool, 3);

  DynamicMatcher m(cfg, pool);
  m.updater_role().assert_held();
  std::string err;
  auto j = Journal::open(path("wal.log"), {}, &err);
  ASSERT_NE(j, nullptr) << err;

  UpdateEngine::Options eo;
  eo.group_commit = 8;  // larger than the stream: nothing commits on its own
  UpdateEngine eng(m, nullptr, j.get(), eo);
  for (const Batch& b : ref.batches) ASSERT_TRUE(eng.submit(b));
  EXPECT_EQ(eng.applied_epoch(), 3u);
  EXPECT_EQ(eng.durable_epoch(), 0u);  // the open group is NOT durable
  ASSERT_TRUE(eng.drain());
  EXPECT_EQ(eng.durable_epoch(), 3u);  // drain forces the group commit
  ASSERT_TRUE(eng.stop());
  EXPECT_FALSE(eng.submit(ref.batches[0]));  // stopped engines accept nothing
}

TEST_F(EngineTest, PipelinedStopIsIdempotentAndRejectsLateSubmits) {
  ThreadPool pool(1);
  const Config cfg = engine_config();
  const RefRun ref = drive_reference(cfg, pool, 2);

  DynamicMatcher m(cfg, pool);
  m.updater_role().assert_held();
  UpdateEngine::Options eo;
  eo.pipelined = true;
  UpdateEngine eng(m, nullptr, nullptr, eo);
  ASSERT_TRUE(eng.submit(ref.batches[0]));
  ASSERT_TRUE(eng.stop());
  EXPECT_TRUE(eng.stop());  // idempotent
  EXPECT_FALSE(eng.submit(ref.batches[1]));
  EXPECT_EQ(eng.applied_epoch(), 1u);
  EXPECT_EQ(save_str(m), ref.reference[1]);
}

// ---------------------------------------------------------------------------
// The TSan hammer: readers + pipelined updater + group commit + checkpointer
// ---------------------------------------------------------------------------

TEST_F(EngineTest, PipelinedHammerServesConsistentViewsUnderLoad) {
  constexpr size_t kReaders = 4;
  constexpr size_t kBatches = 260;
  constexpr size_t kBatchSize = 48;

  // Oversubscribed so matcher pool phases, the three stage threads, and
  // the readers genuinely interleave on small machines.
  ThreadPool pool(4, /*allow_oversubscribe=*/true);
  Config cfg = engine_config();
  cfg.seed = 31;
  DynamicMatcher m(cfg, pool);
  m.updater_role().assert_held();
  MatchViewService::Options so;
  so.max_readers = kReaders * 2 + 4;
  so.install_hook = false;
  MatchViewService service(m, so);
  std::string err;
  auto j = Journal::open(path("wal.log"), {}, &err);
  ASSERT_NE(j, nullptr) << err;

  ChurnStream::Options sopt;
  sopt.n = 512;
  sopt.target_edges = 1024;
  sopt.seed = 31;
  ChurnStream stream(sopt);

  std::atomic<bool> done{false};
  struct ReaderResult {
    uint64_t acquires = 0;
    uint64_t validations = 0;
    bool monotone = true;
    bool consistent = true;
    std::string error;
  };
  std::vector<ReaderResult> results(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderResult& out = results[r];
      uint64_t last_epoch = 0;
      while (true) {
        // mo: acquire — pairs with the release store after the stream
        // ends; a reader that sees done also sees the final publishes.
        const bool finishing = done.load(std::memory_order_acquire);
        ViewHandle h = service.acquire();
        if (h) {
          ++out.acquires;
          if (h->epoch < last_epoch) out.monotone = false;
          if (h->epoch != last_epoch) {
            std::string verr;
            if (!h->validate(&verr)) {
              out.consistent = false;
              if (out.error.empty()) out.error = verr;
            }
            ++out.validations;
          }
          last_epoch = h->epoch;
        }
        if (finishing) break;
      }
    });
  }

  UpdateEngine::Options eo;
  eo.pipelined = true;
  eo.queue_capacity = 4;
  eo.group_commit = 4;
  eo.checkpoint_every = 32;
  eo.checkpoint_keep = 2;
  eo.checkpoint_prefix = path("ck");
  eo.record_latency = true;
  {
    UpdateEngine eng(m, &service, j.get(), eo);
    for (size_t i = 0; i < kBatches; ++i) {
      ASSERT_TRUE(eng.submit(stream.next(kBatchSize))) << eng.error();
    }
    ASSERT_TRUE(eng.drain()) << eng.error();
    EXPECT_EQ(eng.durable_epoch(), kBatches);
    EXPECT_EQ(eng.retired_epoch(), kBatches);
    ASSERT_TRUE(eng.stop()) << eng.error();
    const auto samples = eng.latency_samples();
    ASSERT_EQ(samples.size(), kBatches);
    for (const auto& s : samples) {
      EXPECT_GT(s.durable_us, 0.0) << "epoch " << s.epoch;
      EXPECT_GT(s.published_us, 0.0) << "epoch " << s.epoch;
      EXPECT_GT(s.retired_us, 0.0) << "epoch " << s.epoch;
    }
  }
  // mo: release — hands the final published state to finishing readers.
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(service.published_epoch(), kBatches);
  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(results[r].monotone) << "reader " << r;
    EXPECT_TRUE(results[r].consistent)
        << "reader " << r << ": " << results[r].error;
  }
  EXPECT_FALSE(persist::list_checkpoints(path("ck")).empty());
}

}  // namespace
}  // namespace pdmm
