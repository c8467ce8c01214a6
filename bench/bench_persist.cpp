// E18 (persist): durability-layer throughput — what checkpointing, journal
// appends and crash recovery cost relative to the update path they protect.
// Four operations over one churned matcher state:
//   * checkpoint_encode: matcher -> checksummed checkpoint bytes (save()
//     serialization + CRC framing; the per-checkpoint stall an updater
//     pays when snapshotting synchronously)
//   * checkpoint_load:   checkpoint bytes -> fresh matcher (section CRC
//     validation + the validating snapshot loader)
//   * journal_append:    one checksummed trace-encoded record per batch
//     appended + flushed to a real file (the steady-state WAL overhead)
//   * recover:           newest checkpoint + journal-tail replay from real
//     files to the final epoch (restart latency)
// Counters: `updates` carries edge updates covered by the measured segment
// (for recover, the replayed tail); bytes move in the metrics. File-backed
// points use a per-run temp directory and clean up after themselves.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_common.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "workload/trace.h"

namespace pdmm::bench {
namespace {

namespace fs = std::filesystem;

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 13, 1 << 9);
  const uint64_t target = ctx.u64("target_edges", 2ull * n, 2ull * n);
  const uint64_t warm_batches = ctx.u64("warm_batches", 64, 8);
  const uint64_t tail = ctx.u64("tail_batches", 64, 8);
  const uint64_t batch_size = ctx.u64("batch_size", 256, 64);

  ThreadPool pool(ctx.threads(1));
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = ctx.seed(2025);
  cfg.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
  cfg.auto_rebuild = false;

  // One steady-state matcher + a recorded journal tail shared by every
  // point (recorded once so all reps and ops see identical state).
  ChurnStream::Options so;
  so.n = n;
  so.target_edges = target;
  so.zipf_s = 0.4;
  so.seed = ctx.seed(91);
  ChurnStream stream(so);
  DynamicMatcher m(cfg, pool);
  uint64_t warm_updates = 0;
  for (uint64_t i = 0; i < warm_batches; ++i) {
    const Batch b = stream.next(batch_size);
    warm_updates += b.deletions.size() + b.insertions.size();
    m.update_by_endpoints(b.deletions, b.insertions);
  }
  const std::vector<Batch> tail_batches =
      record_stream(stream, tail, batch_size);

  const fs::path dir =
      fs::temp_directory_path() /
      ("pdmm_bench_persist." + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string prefix = (dir / "ck").string();

  // checkpoint_encode: matcher -> bytes.
  std::string ck_bytes;
  ctx.point({p("op", "checkpoint_encode")}, [&] {
    Sample s;
    Timer t;
    PDMM_ASSERT(persist::encode_checkpoint(m, ck_bytes, nullptr));
    s.seconds = t.seconds();
    s.metrics = {
        {"bytes", static_cast<double>(ck_bytes.size())},
        {"mb_per_sec", static_cast<double>(ck_bytes.size()) / 1e6 /
                           std::max(s.seconds, 1e-9)}};
    return s;
  });

  // checkpoint_load: bytes -> fresh matcher (CRC + validating loader).
  ctx.point({p("op", "checkpoint_load")}, [&] {
    Sample s;
    Timer t;
    persist::CheckpointData ck;
    std::istringstream in(ck_bytes);
    PDMM_ASSERT(persist::read_checkpoint(in, ck, nullptr));
    DynamicMatcher fresh(cfg, pool);
    std::istringstream snap(ck.snapshot);
    const SnapshotError err = fresh.load(snap);
    PDMM_ASSERT_MSG(err.ok(), err.to_string().c_str());
    s.seconds = t.seconds();
    s.metrics = {
        {"bytes", static_cast<double>(ck_bytes.size())},
        {"mb_per_sec", static_cast<double>(ck_bytes.size()) / 1e6 /
                           std::max(s.seconds, 1e-9)},
        {"matching", static_cast<double>(fresh.matching_size())}};
    return s;
  });

  // journal_append: the steady-state WAL overhead per batch, real file.
  ctx.point({p("op", "journal_append")}, [&] {
    const std::string path = (dir / "wal.bench").string();
    fs::remove(path);
    std::string err;
    auto journal = persist::Journal::open(path, {}, &err);
    PDMM_ASSERT_MSG(journal != nullptr, err.c_str());
    journal->appender_role().assert_held();  // single-threaded bench driver
    Sample s;
    Timer t;
    for (uint64_t i = 0; i < tail; ++i) {
      PDMM_ASSERT(journal->append(i + 1, tail_batches[i], &err));
      s.updates += tail_batches[i].deletions.size() +
                   tail_batches[i].insertions.size();
    }
    s.seconds = t.seconds();
    const double bytes = static_cast<double>(fs::file_size(path));
    s.metrics = {
        {"records_per_sec",
         static_cast<double>(tail) / std::max(s.seconds, 1e-9)},
        {"bytes", bytes},
        {"us_per_update", us_per_update(s.seconds, s.updates)}};
    return s;
  });

  // recover: checkpoint + journal tail from real files back to a matcher.
  ctx.point({p("op", "recover"), p("tail", tail)}, [&] {
    // Lay the crash scene: checkpoint at the warm state, journal holding
    // the tail the checkpoint has not seen.
    std::string err;
    PDMM_ASSERT_MSG(
        persist::write_checkpoint_series(prefix, m, 2, &err), err.c_str());
    const std::string path = (dir / "wal.recover").string();
    fs::remove(path);
    {
      auto journal = persist::Journal::open(path, {}, &err);
      PDMM_ASSERT_MSG(journal != nullptr, err.c_str());
      journal->appender_role().assert_held();  // single-threaded bench driver
      for (uint64_t i = 0; i < tail; ++i) {
        PDMM_ASSERT(
            journal->append(m.batch_epoch() + 1 + i, tail_batches[i], &err));
      }
    }
    Sample s;
    Timer t;
    DynamicMatcher fresh(cfg, pool);
    persist::RecoveryOptions ropt;
    ropt.checkpoint_prefix = prefix;
    ropt.journal_path = path;
    const persist::RecoveryReport rep = persist::recover(fresh, ropt);
    s.seconds = t.seconds();
    PDMM_ASSERT_MSG(rep.ok, rep.error.c_str());
    PDMM_ASSERT(rep.final_epoch == m.batch_epoch() + tail);
    for (const Batch& b : tail_batches) {
      s.updates += b.deletions.size() + b.insertions.size();
    }
    s.metrics = {
        {"batches_per_sec",
         static_cast<double>(tail) / std::max(s.seconds, 1e-9)},
        {"us_per_update", us_per_update(s.seconds, s.updates)},
        {"matching", static_cast<double>(fresh.matching_size())}};
    return s;
  });

  std::error_code ec;
  fs::remove_all(dir, ec);
  ctx.note("encode/load bound restart cost at " +
           std::to_string(warm_updates) + " warm updates; journal_append "
           "is the per-batch durability tax the updater pays inline");
}

[[maybe_unused]] const Registrar registrar{
    "persist", "E18",
    "durability layer: checkpoint encode/load, journal append and "
    "crash recovery stay cheap relative to the update path they protect",
    run};

}  // namespace
}  // namespace pdmm::bench
