// Persistence subsystem tests: checkpoint container integrity, journal
// torn-tail handling, and end-to-end crash recovery. The crash model is
// byte-level: a run's durable files are cut at arbitrary offsets (what a
// SIGKILL or power loss leaves behind) and recovery must reconstruct
// exactly the state of an uninterrupted run at the last durable epoch —
// verified byte-for-byte against reference snapshots recorded per epoch.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/checker.h"
#include "core/matcher.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "util/crc32.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace pdmm {
namespace {

namespace fs = std::filesystem;
using persist::CheckpointData;
using persist::Journal;
using persist::JournalScan;
using persist::RecoveryOptions;
using persist::RecoveryReport;

Config persist_config() {
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = 909;
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

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

class PersistTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pdmm_test_persist." + std::to_string(::getpid()) + "." +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// Drives `batches` churn batches, returning the endpoint batches and the
// reference snapshot after every epoch (reference[e] = state at epoch e,
// reference[0] = empty).
struct RefRun {
  std::vector<Batch> batches;
  std::vector<std::string> reference;
};

RefRun drive_reference(const Config& cfg, ThreadPool& pool, size_t batches) {
  RefRun run;
  ChurnStream::Options so;
  so.n = 220;
  so.target_edges = 500;
  so.zipf_s = 0.6;
  so.seed = 77;
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

// Rewrites the last digit of the first vertex id in record `epoch`'s
// payload, making it another id of the same width, and leaves the
// header's nbytes and crc32 as they are. The payload still parses as one
// batch, so only the CRC can tell that the record changed.
std::string rewrite_vertex_id(const std::string& bytes, uint64_t epoch) {
  const size_t head = bytes.find("rec " + std::to_string(epoch) + " ");
  EXPECT_NE(head, std::string::npos);
  const size_t payload = bytes.find('\n', head) + 1;
  const size_t next = bytes.find("\nrec ", payload);
  const size_t end = next == std::string::npos ? bytes.size() : next + 1;
  const size_t digit = bytes.find(' ', payload + 2) - 1;  // "i <id> ..."
  for (char c = '0'; c <= '9'; ++c) {
    if (c == bytes[digit]) continue;
    std::string out = bytes;
    out[digit] = c;
    std::istringstream in(out.substr(payload, end - payload));
    std::vector<Batch> parsed;
    if (read_trace(in, parsed, nullptr) && parsed.size() == 1) return out;
  }
  ADD_FAILURE() << "no rewrite of record " << epoch << " parses";
  return bytes;
}

// ---------------------------------------------------------------------------
// Checkpoint container
// ---------------------------------------------------------------------------

TEST_F(PersistTest, CheckpointRoundTrips) {
  ThreadPool pool(1);
  const Config cfg = persist_config();
  const RefRun run = drive_reference(cfg, pool, 20);
  DynamicMatcher m(cfg, pool);
  for (const Batch& b : run.batches) {
    m.update_by_endpoints(b.deletions, b.insertions);
  }

  std::string bytes, err;
  ASSERT_TRUE(persist::encode_checkpoint(m, bytes, &err)) << err;

  CheckpointData ck;
  std::istringstream in(bytes);
  ASSERT_TRUE(persist::read_checkpoint(in, ck, &err)) << err;
  EXPECT_EQ(ck.epoch(), 20u);
  EXPECT_EQ(ck.meta.at("matching"),
            std::to_string(m.matching_size()));
  Config from_meta;
  ASSERT_TRUE(ck.config(from_meta));
  EXPECT_EQ(from_meta.max_rank, cfg.max_rank);
  EXPECT_EQ(from_meta.seed, cfg.seed);
  EXPECT_EQ(from_meta.initial_capacity, cfg.initial_capacity);

  DynamicMatcher fresh(cfg, pool);
  std::istringstream snap(ck.snapshot);
  const SnapshotError serr = fresh.load(snap);
  ASSERT_TRUE(serr.ok()) << serr.to_string();
  MatchingChecker::check(fresh);
  EXPECT_EQ(save_str(fresh), run.reference.back());
}

// The 32-bit Config fields refuse a meta value past UINT32_MAX instead of
// wrapping it: "max_repeats 4294967296" must not read as 0.
TEST_F(PersistTest, CheckpointConfigRejectsOutOfRangeMeta) {
  ThreadPool pool(1);
  DynamicMatcher m(persist_config(), pool);
  std::string bytes, err;
  ASSERT_TRUE(persist::encode_checkpoint(m, bytes, &err)) << err;
  CheckpointData ck;
  std::istringstream in(bytes);
  ASSERT_TRUE(persist::read_checkpoint(in, ck, &err)) << err;
  Config cfg;
  ASSERT_TRUE(ck.config(cfg));
  for (const char* key : {"rank", "max_eager", "iter_factor", "max_repeats"}) {
    SCOPED_TRACE(key);
    CheckpointData bad = ck;
    bad.meta[key] = "4294967296";
    EXPECT_FALSE(bad.config(cfg));
    bad.meta[key] = "4294967295";
    EXPECT_TRUE(bad.config(cfg));
  }
}

TEST_F(PersistTest, CheckpointWriteFailureIsReported) {
  ThreadPool pool(1);
  DynamicMatcher m(persist_config(), pool);
  std::string err;
  // Unwritable file path: the atomic writer reports instead of leaving a
  // half-written checkpoint behind.
  EXPECT_FALSE(persist::write_checkpoint_series(
      (dir_ / "no_such_dir" / "ck").string(), m, 2, &err));
  EXPECT_FALSE(err.empty());
}

TEST_F(PersistTest, CheckpointRejectsCorruptionAndTruncation) {
  ThreadPool pool(1);
  const Config cfg = persist_config();
  DynamicMatcher m(cfg, pool);
  const RefRun run = drive_reference(cfg, pool, 10);
  for (const Batch& b : run.batches) {
    m.update_by_endpoints(b.deletions, b.insertions);
  }
  std::string bytes, err;
  ASSERT_TRUE(persist::encode_checkpoint(m, bytes, &err)) << err;

  // Truncation at a spread of offsets.
  for (size_t cut = 0; cut + 1 < bytes.size(); cut += 53) {
    CheckpointData ck;
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_FALSE(persist::read_checkpoint(in, ck, &err))
        << "accepted a checkpoint cut at byte " << cut;
  }
  // Single-byte corruption in both sections (the CRC must catch payload
  // damage that still parses as text).
  for (size_t flip = 0; flip < bytes.size(); flip += 101) {
    std::string mutant = bytes;
    mutant[flip] ^= 0x20;
    CheckpointData ck;
    std::istringstream in(mutant);
    if (persist::read_checkpoint(in, ck, &err)) {
      // The flip landed in a spot the container does not cover (only the
      // magic line is uncovered); the snapshot payload must be intact.
      EXPECT_EQ(ck.snapshot, save_str(m));
    }
  }
}

TEST_F(PersistTest, CheckpointSeriesKeepsNewestAndPrunes) {
  ThreadPool pool(1);
  const Config cfg = persist_config();
  const RefRun run = drive_reference(cfg, pool, 12);
  DynamicMatcher m(cfg, pool);
  std::string err;
  const std::string prefix = path("ck");
  for (size_t i = 0; i < run.batches.size(); ++i) {
    const Batch& b = run.batches[i];
    m.update_by_endpoints(b.deletions, b.insertions);
    if ((i + 1) % 4 == 0) {
      ASSERT_TRUE(persist::write_checkpoint_series(prefix, m, 2, &err))
          << err;
    }
  }
  const auto all = persist::list_checkpoints(prefix);
  ASSERT_EQ(all.size(), 2u);  // pruned to keep=2
  EXPECT_EQ(all[0].first, 12u);
  EXPECT_EQ(all[1].first, 8u);
  CheckpointData ck;
  ASSERT_TRUE(persist::read_checkpoint_file(all[0].second, ck, &err)) << err;
  EXPECT_EQ(ck.epoch(), 12u);
  EXPECT_EQ(ck.snapshot, run.reference[12]);

  // Stray files claiming a newer epoch (leftovers of a superseded run
  // that restarted without --recover) must be removed, NOT treated as
  // the series head — otherwise the keep-N prune deletes the fresh
  // checkpoints and recovery would restore the stale state.
  write_file(path("ck.999"), "stale bytes from another run");
  ASSERT_TRUE(persist::write_checkpoint_series(prefix, m, 2, &err)) << err;
  const auto after = persist::list_checkpoints(prefix);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].first, 12u);
  EXPECT_EQ(after[1].first, 8u);
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

TEST_F(PersistTest, JournalRoundTripsAndEnforcesEpochOrder) {
  ThreadPool pool(1);
  const RefRun run = drive_reference(persist_config(), pool, 8);
  const std::string jpath = path("wal");
  std::string err;
  {
    auto j = Journal::open(jpath, {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (size_t i = 0; i < run.batches.size(); ++i) {
      ASSERT_TRUE(j->append(i + 1, run.batches[i], &err)) << err;
    }
    // Skipping an epoch is refused.
    EXPECT_FALSE(j->append(run.batches.size() + 5, run.batches[0], &err));
    EXPECT_FALSE(j->append(run.batches.size(), run.batches[0], &err));
  }
  const JournalScan scan = persist::scan_journal(jpath);
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_FALSE(scan.truncated_tail);
  ASSERT_EQ(scan.records.size(), run.batches.size());
  for (size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i].epoch, i + 1);
    EXPECT_EQ(scan.records[i].batch.deletions, run.batches[i].deletions);
    EXPECT_EQ(scan.records[i].batch.insertions, run.batches[i].insertions);
  }
  // Reopen appends after the existing tail.
  auto j = Journal::open(jpath, {}, &err);
  ASSERT_NE(j, nullptr) << err;
  j->appender_role().assert_held();  // single-threaded test driver
  EXPECT_EQ(j->last_epoch(), run.batches.size());
}

// Group commit batches fsyncs, never bytes: buffered appends committed in
// groups of any size must leave a journal byte-identical to per-batch
// append(), with the committed-epoch watermark trailing at exactly the
// open group and catching up on each commit.
TEST_F(PersistTest, JournalGroupCommitIsByteIdenticalToPerBatchAppend) {
  ThreadPool pool(1);
  const RefRun run = drive_reference(persist_config(), pool, 7);
  std::string err;
  {
    auto j = Journal::open(path("per_batch"), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (size_t i = 0; i < run.batches.size(); ++i) {
      ASSERT_TRUE(j->append(i + 1, run.batches[i], &err)) << err;
      EXPECT_EQ(j->committed_epoch(), i + 1);
    }
  }
  for (const size_t group : {2u, 3u, 7u}) {
    const std::string jpath = path("group_" + std::to_string(group));
    {
      auto j = Journal::open(jpath, {}, &err);
      ASSERT_NE(j, nullptr) << err;
      j->appender_role().assert_held();  // single-threaded test driver
      for (size_t i = 0; i < run.batches.size(); ++i) {
        ASSERT_TRUE(j->append_buffered(i + 1, run.batches[i], &err)) << err;
        EXPECT_EQ(j->last_epoch(), i + 1);
        if ((i + 1) % group == 0) {
          ASSERT_TRUE(j->commit(&err)) << err;
        }
        // The watermark only ever reflects committed groups.
        EXPECT_EQ(j->committed_epoch(), ((i + 1) / group) * group);
      }
      ASSERT_TRUE(j->commit(&err)) << err;  // flush the partial tail group
      EXPECT_EQ(j->committed_epoch(), run.batches.size());
      EXPECT_TRUE(j->commit(&err));  // committing an empty group is a no-op
    }
    EXPECT_EQ(file_str(jpath), file_str(path("per_batch")))
        << "group=" << group;
  }
  // The grouped journal replays like any other.
  const JournalScan scan = persist::scan_journal(path("group_3"));
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_FALSE(scan.truncated_tail);
  ASSERT_EQ(scan.records.size(), run.batches.size());
}

TEST_F(PersistTest, JournalTornTailIsDroppedAtEveryCutOffset) {
  ThreadPool pool(1);
  const RefRun run = drive_reference(persist_config(), pool, 6);
  const std::string jpath = path("wal");
  std::string err;
  {
    auto j = Journal::open(jpath, {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (size_t i = 0; i < run.batches.size(); ++i) {
      ASSERT_TRUE(j->append(i + 1, run.batches[i], &err)) << err;
    }
  }
  const std::string bytes = file_str(jpath);

  // Record boundaries, discovered by scanning successive prefixes.
  const JournalScan full = persist::scan_journal(jpath);
  ASSERT_EQ(full.records.size(), run.batches.size());
  ASSERT_EQ(full.valid_bytes, bytes.size());

  // Every offset through the header and first record boundary (offset 15
  // = the header without its newline — a torn header write), then a
  // stride through the rest.
  for (size_t cut = 0; cut <= bytes.size(); cut += (cut < 40 ? 1 : 7)) {
    const std::string cpath = path("cut");
    write_file(cpath, bytes.substr(0, cut));
    const JournalScan scan = persist::scan_journal(cpath);
    if (cut == 0) {
      EXPECT_TRUE(scan.ok);  // empty file == fresh journal
      continue;
    }
    if (!scan.ok) {
      // A cut inside the header line: unrecognized, refused.
      EXPECT_LT(cut, std::string("pdmm-journal v1\n").size());
      continue;
    }
    EXPECT_LE(scan.valid_bytes, cut);
    // Whatever survived must be a strict prefix of the real records.
    ASSERT_LE(scan.records.size(), run.batches.size());
    for (size_t i = 0; i < scan.records.size(); ++i) {
      EXPECT_EQ(scan.records[i].epoch, i + 1);
      EXPECT_EQ(scan.records[i].batch.insertions,
                run.batches[i].insertions);
    }
    // A torn tail must be flagged unless the cut landed on a boundary.
    EXPECT_EQ(scan.truncated_tail, scan.valid_bytes != cut);
    // Scanning is read-only: the torn file's bytes are untouched — a
    // live journal can be scanned mid-append without perturbing it.
    EXPECT_EQ(file_str(cpath), bytes.substr(0, cut));
    if (scan.truncated_tail) {
      // Append-open without explicit repair permission refuses the torn
      // tail (truncating a file we might not own destroys data) and the
      // bytes again stay untouched.
      EXPECT_EQ(Journal::open(cpath, {}, &err), nullptr);
      EXPECT_NE(err.find("torn tail"), std::string::npos) << err;
      EXPECT_EQ(file_str(cpath), bytes.substr(0, cut));
    }

    // Reopening with repair truncates the tear and appends cleanly. When
    // the cut is the full file, the journal is already complete — append
    // the next epoch past the recorded ones instead of re-appending a
    // batch.
    Journal::Options repair_opt;
    repair_opt.repair = true;
    auto j = Journal::open(cpath, repair_opt, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    const uint64_t resume = j->last_epoch();
    ASSERT_LE(resume, run.batches.size());
    const Batch& next =
        run.batches[static_cast<size_t>(resume) % run.batches.size()];
    ASSERT_TRUE(j->append(resume + 1, next, &err)) << err;
    j.reset();
    const JournalScan rescan = persist::scan_journal(cpath);
    ASSERT_TRUE(rescan.ok) << rescan.error;
    EXPECT_FALSE(rescan.truncated_tail);
    EXPECT_EQ(rescan.records.size(), static_cast<size_t>(resume) + 1);
  }
}

TEST_F(PersistTest, JournalRefusesForeignFilesAndGaps) {
  std::string err;
  write_file(path("not_a_journal"), "something else entirely\nrec 1 2 3\n");
  EXPECT_EQ(Journal::open(path("not_a_journal"), {}, &err), nullptr);

  // A journal whose durable records skip an epoch is refused whole (that
  // is data loss in the prefix, not a torn tail).
  ThreadPool pool(1);
  const RefRun run = drive_reference(persist_config(), pool, 3);
  {
    auto j = Journal::open(path("gap"), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    ASSERT_TRUE(j->append(1, run.batches[0], &err));
  }
  std::string bytes = file_str(path("gap"));
  // Forge a second record claiming epoch 3 by rewriting the header of a
  // valid record (content stays CRC-clean because we recompute nothing —
  // instead append a genuine record to a copy opened at epoch 1, then
  // tamper the epoch field and fix nothing: the scan must refuse on the
  // epoch gap before trusting the payload).
  {
    auto j = Journal::open(path("gap"), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    ASSERT_TRUE(j->append(2, run.batches[1], &err));
  }
  bytes = file_str(path("gap"));
  const size_t rec2 = bytes.find("rec 2 ");
  ASSERT_NE(rec2, std::string::npos);
  bytes[rec2 + 4] = '3';  // epoch 2 -> 3: a gap
  write_file(path("gap"), bytes);
  const JournalScan scan = persist::scan_journal(path("gap"));
  EXPECT_FALSE(scan.ok);
}

// A file holding only a prefix of the magic, with no newline, is the
// creator's header write torn by a crash: every reader gives it one
// verdict. The scan reports a torn tail at byte 0 and the live reader
// waits on it; append-open refuses it without repair and rewrites it
// fresh with repair. A first line that is not a prefix of the magic is
// still a foreign file.
TEST_F(PersistTest, TornMagicIsATornHeader) {
  ThreadPool pool(1);
  const RefRun run = drive_reference(persist_config(), pool, 1);
  const std::string magic = "pdmm-journal v1";
  const auto poll_once = [](const std::string& p) {
    persist::JournalTailer reader(p, {});
    return reader.poll([](persist::JournalRecord&&) { return true; });
  };
  std::string err;
  for (const size_t cut : {size_t{1}, size_t{8}, magic.size()}) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    const std::string jpath = path("torn");
    write_file(jpath, magic.substr(0, cut));
    const JournalScan scan = persist::scan_journal(jpath);
    ASSERT_TRUE(scan.ok) << scan.error;
    EXPECT_TRUE(scan.truncated_tail);
    EXPECT_EQ(scan.valid_bytes, 0u);
    EXPECT_EQ(scan.record_count, 0u);
    EXPECT_EQ(poll_once(jpath), persist::TailStatus::kPending);

    EXPECT_EQ(Journal::open(jpath, {}, &err), nullptr);
    EXPECT_NE(err.find("torn tail"), std::string::npos) << err;
    EXPECT_EQ(file_str(jpath), magic.substr(0, cut));
    Journal::Options repair;
    repair.repair = true;
    repair.stream = "torn-magic-test";
    {
      auto j = Journal::open(jpath, repair, &err);
      ASSERT_NE(j, nullptr) << err;
      j->appender_role().assert_held();  // single-threaded test driver
      ASSERT_TRUE(j->append(1, run.batches[0], &err)) << err;
    }
    const JournalScan rescan = persist::scan_journal(jpath);
    ASSERT_TRUE(rescan.ok) << rescan.error;
    EXPECT_FALSE(rescan.truncated_tail);
    EXPECT_EQ(rescan.record_count, 1u);
    EXPECT_EQ(rescan.stream, repair.stream);
  }

  write_file(path("foreign"), "pdmm-jour X");
  const JournalScan foreign = persist::scan_journal(path("foreign"));
  EXPECT_FALSE(foreign.ok);
  EXPECT_NE(foreign.error.find("unrecognized"), std::string::npos)
      << foreign.error;
  EXPECT_EQ(poll_once(path("foreign")), persist::TailStatus::kFailed);
  Journal::Options repair;
  repair.repair = true;
  EXPECT_EQ(Journal::open(path("foreign"), {}, &err), nullptr);
  EXPECT_EQ(Journal::open(path("foreign"), repair, &err), nullptr);
  EXPECT_EQ(file_str(path("foreign")), "pdmm-jour X");
}

TEST_F(PersistTest, JournalRefusesMidFileRot) {
  // A damaged record with intact records AFTER it is bit rot, not a
  // crash tail: truncating there would destroy durable batches, so the
  // scan must refuse the whole file instead of reporting a torn tail.
  ThreadPool pool(1);
  const RefRun run = drive_reference(persist_config(), pool, 6);
  std::string err;
  {
    auto j = Journal::open(path("rot"), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (size_t i = 0; i < run.batches.size(); ++i) {
      ASSERT_TRUE(j->append(i + 1, run.batches[i], &err)) << err;
    }
  }
  const std::string clean = file_str(path("rot"));
  const size_t rec3 = clean.find("rec 3 ");
  ASSERT_NE(rec3, std::string::npos);
  const size_t flip = clean.find('\n', rec3) + 2;  // inside record 3's payload
  std::string flipped = clean;
  flipped[flip] ^= 0x01;
  // Record 3 with a flipped payload byte, and with a rewritten vertex id
  // that still parses (only the CRC can refuse that one).
  for (const std::string& bytes : {flipped, rewrite_vertex_id(clean, 3)}) {
    SCOPED_TRACE(bytes == flipped ? "flipped byte" : "rewritten id");
    write_file(path("rot"), bytes);
    const JournalScan scan = persist::scan_journal(path("rot"));
    EXPECT_FALSE(scan.ok);
    EXPECT_NE(scan.error.find("mid-file"), std::string::npos) << scan.error;
    // And reopening for append must refuse too (no silent truncation).
    EXPECT_EQ(Journal::open(path("rot"), {}, &err), nullptr);
    // Recovery and a live reader refuse the same bytes.
    DynamicMatcher m(persist_config(), pool);
    RecoveryOptions opt;
    opt.journal_path = path("rot");
    EXPECT_FALSE(persist::recover(m, opt).ok);
    persist::JournalTailer tailer(path("rot"), {});
    EXPECT_EQ(tailer.poll([](persist::JournalRecord&&) { return true; }),
              persist::TailStatus::kFailed);
  }
  // Length-field rot: an enlarged nbytes makes the payload read swallow
  // the records after it (possibly to EOF) before failing — the resync
  // probe must still find them and refuse the file.
  {
    std::string lb = clean;
    const size_t r3 = lb.find("rec 3 ");
    const size_t len_start = lb.find(' ', r3 + 4) + 1;
    const size_t len_end = lb.find(' ', len_start);
    lb.replace(len_start, len_end - len_start, "999999");
    write_file(path("rot_len"), lb);
    const JournalScan lscan = persist::scan_journal(path("rot_len"));
    EXPECT_FALSE(lscan.ok) << "enlarged length field must not truncate "
                              "past the intact records it swallowed";
    EXPECT_NE(lscan.error.find("mid-file"), std::string::npos)
        << lscan.error;
  }
  // Damage in the LAST record, by contrast, is a legitimate torn tail,
  // the parsing rewrite included.
  std::string tail_flip = clean;
  const size_t rec6 = tail_flip.find("rec 6 ");
  ASSERT_NE(rec6, std::string::npos);
  tail_flip[tail_flip.find('\n', rec6) + 2] ^= 0x01;
  for (const std::string& tail_bytes :
       {tail_flip, rewrite_vertex_id(clean, 6)}) {
    SCOPED_TRACE(tail_bytes == tail_flip ? "flipped byte" : "rewritten id");
    write_file(path("rot"), tail_bytes);
    const JournalScan tail_scan = persist::scan_journal(path("rot"));
    EXPECT_TRUE(tail_scan.ok) << tail_scan.error;
    EXPECT_TRUE(tail_scan.truncated_tail);
    EXPECT_EQ(tail_scan.last_epoch, 5u);
  }
}

// ---------------------------------------------------------------------------
// Recovery end-to-end: crash at arbitrary byte offsets, recover, compare
// byte-identically against the uninterrupted reference.
// ---------------------------------------------------------------------------

TEST_F(PersistTest, RecoveryIsByteIdenticalAtEveryCut) {
  ThreadPool pool(1);
  const Config cfg = persist_config();
  const size_t kBatches = 30;
  const RefRun run = drive_reference(cfg, pool, kBatches);

  // The "server" run: journal every batch, checkpoint every 8.
  const std::string prefix = path("ck");
  const std::string jpath = path("wal");
  std::string err;
  {
    DynamicMatcher m(cfg, pool);
    auto j = Journal::open(jpath, {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (size_t i = 0; i < kBatches; ++i) {
      const Batch& b = run.batches[i];
      m.update_by_endpoints(b.deletions, b.insertions);
      ASSERT_TRUE(j->append(m.batch_epoch(), b, &err)) << err;
      if (m.batch_epoch() % 8 == 0) {
        ASSERT_TRUE(
            persist::write_checkpoint_series(prefix, m, 100, &err))
            << err;
      }
    }
  }
  const std::string journal_bytes = file_str(jpath);
  const auto checkpoints = persist::list_checkpoints(prefix);
  ASSERT_FALSE(checkpoints.empty());

  // Crash at a spread of byte offsets within the journal. Checkpoints
  // whose epoch exceeds the durable journal tail cannot exist in a real
  // crash (they are written after the journal record), so present only
  // the ones at or below the durable epoch.
  for (size_t cut = std::string("pdmm-journal v1\n").size();
       cut <= journal_bytes.size(); cut += 211) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string cdir = path("crash");
    fs::remove_all(cdir);
    fs::create_directories(cdir);
    const std::string cj = cdir + "/wal";
    write_file(cj, journal_bytes.substr(0, cut));
    const JournalScan scan = persist::scan_journal(cj);
    ASSERT_TRUE(scan.ok) << scan.error;
    const uint64_t durable = scan.last_epoch;
    for (const auto& [epoch, p] : checkpoints) {
      if (epoch <= durable) {
        fs::copy_file(p, cdir + "/" + fs::path(p).filename().string());
      }
    }

    DynamicMatcher recovered(cfg, pool);
    RecoveryOptions opt;
    opt.checkpoint_prefix = cdir + "/ck";
    opt.journal_path = cj;
    const RecoveryReport rep = persist::recover(recovered, opt);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.final_epoch, durable);
    EXPECT_EQ(rep.journal.truncated_tail, scan.truncated_tail);
    MatchingChecker::check(recovered);
    EXPECT_EQ(save_str(recovered),
              run.reference[static_cast<size_t>(durable)])
        << "recovered state differs from the uninterrupted run at epoch "
        << durable;
  }
}

TEST_F(PersistTest, RecoverySkipsDamagedCheckpoints) {
  ThreadPool pool(1);
  const Config cfg = persist_config();
  const size_t kBatches = 16;
  const RefRun run = drive_reference(cfg, pool, kBatches);
  const std::string prefix = path("ck");
  const std::string jpath = path("wal");
  std::string err;
  {
    DynamicMatcher m(cfg, pool);
    auto j = Journal::open(jpath, {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (size_t i = 0; i < kBatches; ++i) {
      const Batch& b = run.batches[i];
      m.update_by_endpoints(b.deletions, b.insertions);
      ASSERT_TRUE(j->append(m.batch_epoch(), b, &err)) << err;
      if (m.batch_epoch() % 4 == 0) {
        ASSERT_TRUE(
            persist::write_checkpoint_series(prefix, m, 100, &err))
            << err;
      }
    }
  }
  // Damage the newest checkpoint (epoch 16): flip one snapshot byte.
  {
    std::string bytes = file_str(path("ck.16"));
    bytes[bytes.size() / 2] ^= 0x01;
    write_file(path("ck.16"), bytes);
  }
  DynamicMatcher recovered(cfg, pool);
  RecoveryOptions opt;
  opt.checkpoint_prefix = prefix;
  opt.journal_path = jpath;
  const RecoveryReport rep = persist::recover(recovered, opt);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.skipped_checkpoints, 1u);
  EXPECT_EQ(rep.checkpoint_epoch, 12u);  // fell back one series entry
  EXPECT_EQ(rep.final_epoch, kBatches);
  EXPECT_EQ(save_str(recovered), run.reference[kBatches]);
}

TEST_F(PersistTest, JournalOnlyAndCheckpointOnlyRecovery) {
  ThreadPool pool(1);
  const Config cfg = persist_config();
  const size_t kBatches = 10;
  const RefRun run = drive_reference(cfg, pool, kBatches);
  std::string err;
  {
    auto j = Journal::open(path("wal"), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (size_t i = 0; i < kBatches; ++i) {
      ASSERT_TRUE(j->append(i + 1, run.batches[i], &err)) << err;
    }
  }
  {
    // Journal only: replay everything from the empty matcher.
    DynamicMatcher recovered(cfg, pool);
    RecoveryOptions opt;
    opt.journal_path = path("wal");
    const RecoveryReport rep = persist::recover(recovered, opt);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_TRUE(rep.checkpoint_path.empty());
    EXPECT_EQ(rep.final_epoch, kBatches);
    EXPECT_EQ(save_str(recovered), run.reference[kBatches]);
  }
  {
    // Checkpoint only: no journal tail to replay.
    DynamicMatcher m(cfg, pool);
    for (const Batch& b : run.batches) {
      m.update_by_endpoints(b.deletions, b.insertions);
    }
    ASSERT_TRUE(persist::write_checkpoint_series(path("ck"), m, 2, &err))
        << err;
    DynamicMatcher recovered(cfg, pool);
    RecoveryOptions opt;
    opt.checkpoint_prefix = path("ck");
    const RecoveryReport rep = persist::recover(recovered, opt);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.final_epoch, kBatches);
    EXPECT_EQ(save_str(recovered), run.reference[kBatches]);
  }
  {
    // Nothing at all is an error, not a crash.
    DynamicMatcher recovered(cfg, pool);
    const RecoveryReport rep = persist::recover(recovered, {});
    EXPECT_FALSE(rep.ok);
  }
}

TEST_F(PersistTest, RenamedCheckpointIsRejectedWithoutContamination) {
  // A checkpoint restored under the wrong epoch name (ck.100 copied to
  // ck.50) must be skipped — and must NOT leave its loaded state behind
  // for the journal-only fallback to build on. With no journal records
  // and no other checkpoint, recovery must refuse entirely rather than
  // hand back either the rejected state or a silently empty matcher.
  ThreadPool pool(1);
  const Config cfg = persist_config();
  const RefRun run = drive_reference(cfg, pool, 8);
  std::string err;
  {
    DynamicMatcher m(cfg, pool);
    for (const Batch& b : run.batches) {
      m.update_by_endpoints(b.deletions, b.insertions);
    }
    ASSERT_TRUE(persist::write_checkpoint_series(path("ck"), m, 2, &err))
        << err;
  }
  fs::rename(path("ck.8"), path("ck.50"));
  {
    auto j = Journal::open(path("wal"), {}, &err);  // header, no records
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
  }
  DynamicMatcher recovered(cfg, pool);
  RecoveryOptions opt;
  opt.checkpoint_prefix = path("ck");
  opt.journal_path = path("wal");
  const RecoveryReport rep = persist::recover(recovered, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(recovered.graph().num_edges(), 0u)
      << "rejected checkpoint state leaked into the matcher";

  // Deeper forgery: a CRC-valid checkpoint whose meta epoch lies about
  // its snapshot (meta says 9, snapshot is at 8). The loader accepts the
  // snapshot, the epoch cross-check rejects it — and must discard the
  // state it loaded instead of leaving it for the fallback path.
  std::string bytes = file_str(path("ck.50"));
  const size_t mpos = bytes.find("epoch 8\n");
  ASSERT_NE(mpos, std::string::npos);
  bytes[mpos + 6] = '9';
  const size_t mhdr = bytes.find("meta ");
  const size_t mlen_end = bytes.find('\n', mhdr);
  std::istringstream hs(bytes.substr(mhdr, mlen_end - mhdr));
  std::string tag, len_tok, crc_tok;
  hs >> tag >> len_tok >> crc_tok;
  const size_t mlen = std::stoull(len_tok);
  const uint32_t fixed_crc =
      crc32(std::string_view(bytes).substr(mlen_end + 1, mlen));
  bytes.replace(mhdr, mlen_end - mhdr,
                "meta " + len_tok + " " + std::to_string(fixed_crc));
  fs::remove(path("ck.50"));
  write_file(path("ck.9"), bytes);

  DynamicMatcher recovered2(cfg, pool);
  const RecoveryReport rep2 = persist::recover(recovered2, opt);
  EXPECT_FALSE(rep2.ok);
  EXPECT_NE(rep2.error.find("damaged"), std::string::npos) << rep2.error;
  EXPECT_EQ(recovered2.graph().num_edges(), 0u)
      << "forged checkpoint state leaked into the matcher";
}

TEST_F(PersistTest, RecoveryRefusesCheckpointAheadOfJournal) {
  // A checkpoint is written only after its covering journal record, so a
  // checkpoint ahead of a non-empty journal is never a process-kill
  // artifact — it is a stale series next to a newer run's journal (or an
  // out-of-contract OS crash). Silently preferring the checkpoint would
  // discard the journal's durable batches; recovery must refuse.
  ThreadPool pool(1);
  const Config cfg = persist_config();
  const RefRun run = drive_reference(cfg, pool, 10);
  std::string err;
  {
    DynamicMatcher m(cfg, pool);
    for (const Batch& b : run.batches) {
      m.update_by_endpoints(b.deletions, b.insertions);
    }
    ASSERT_TRUE(persist::write_checkpoint_series(path("ck"), m, 2, &err))
        << err;  // checkpoint at epoch 10
  }
  {
    auto j = Journal::open(path("wal"), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (size_t i = 0; i < 4; ++i) {  // journal only reaches epoch 4
      ASSERT_TRUE(j->append(i + 1, run.batches[i], &err)) << err;
    }
  }
  DynamicMatcher recovered(cfg, pool);
  RecoveryOptions opt;
  opt.checkpoint_prefix = path("ck");
  opt.journal_path = path("wal");
  const RecoveryReport rep = persist::recover(recovered, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("lineage"), std::string::npos) << rep.error;
}

TEST_F(PersistTest, RecoveryRefusesConfigMismatchedCheckpoint) {
  // A CRC-valid checkpoint written under different flags is operator
  // error, not damage: recovery must hard-stop instead of silently
  // skipping it and replaying the journal under the wrong Config.
  ThreadPool pool(1);
  const Config cfg = persist_config();
  const RefRun run = drive_reference(cfg, pool, 6);
  std::string err;
  {
    DynamicMatcher m(cfg, pool);
    auto j = Journal::open(path("wal"), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (const Batch& b : run.batches) {
      m.update_by_endpoints(b.deletions, b.insertions);
      ASSERT_TRUE(j->append(m.batch_epoch(), b, &err)) << err;
    }
    ASSERT_TRUE(persist::write_checkpoint_series(path("ck"), m, 2, &err))
        << err;
  }
  Config other = cfg;
  other.seed = cfg.seed + 1;
  DynamicMatcher recovered(other, pool);
  RecoveryOptions opt;
  opt.checkpoint_prefix = path("ck");
  opt.journal_path = path("wal");
  const RecoveryReport rep = persist::recover(recovered, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("different Config"), std::string::npos)
      << rep.error;
}

TEST_F(PersistTest, RecoveryRefusesMismatchedJournal) {
  // A journal recorded against a different run than the checkpoint: the
  // replay guard must reject it instead of letting update() abort.
  ThreadPool pool(1);
  const Config cfg = persist_config();
  const RefRun run = drive_reference(cfg, pool, 6);
  std::string err;
  {
    DynamicMatcher m(cfg, pool);
    for (const Batch& b : run.batches) {
      m.update_by_endpoints(b.deletions, b.insertions);
    }
    ASSERT_TRUE(persist::write_checkpoint_series(path("ck"), m, 2, &err))
        << err;
  }
  {
    auto j = Journal::open(path("wal"), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    // Record an epoch-7 batch that deletes an edge the checkpointed state
    // does not contain.
    Batch bogus;
    bogus.deletions.push_back({4000, 4001});
    for (uint64_t e = 1; e <= 7; ++e) {
      ASSERT_TRUE(j->append(e, e == 7 ? bogus : run.batches[e - 1], &err))
          << err;
    }
  }
  DynamicMatcher recovered(cfg, pool);
  RecoveryOptions opt;
  opt.checkpoint_prefix = path("ck");
  opt.journal_path = path("wal");
  const RecoveryReport rep = persist::recover(recovered, opt);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("does not match"), std::string::npos)
      << rep.error;

  // An over-rank deletion (journal from a higher-rank run) must come
  // back as the same error — the registry lookup itself asserts on an
  // over-rank endpoint list, so the pre-check must bound it first.
  {
    auto j = Journal::open(path("wal_rank"), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    Batch rank3;
    rank3.deletions.push_back({1, 2, 3});
    ASSERT_TRUE(j->append(1, rank3, &err)) << err;
  }
  DynamicMatcher recovered3(cfg, pool);
  RecoveryOptions opt3;
  opt3.journal_path = path("wal_rank");
  const RecoveryReport rep3 = persist::recover(recovered3, opt3);
  EXPECT_FALSE(rep3.ok);
  EXPECT_NE(rep3.error.find("does not match"), std::string::npos)
      << rep3.error;
}

// ---------------------------------------------------------------------------
// Stream fingerprints + streamed replay
// ---------------------------------------------------------------------------

TEST_F(PersistTest, JournalRecordsStreamFingerprint) {
  ThreadPool pool(1);
  const RefRun run = drive_reference(persist_config(), pool, 3);
  const std::string jpath = path("wal");
  std::string err;
  Journal::Options fp;
  fp.stream = "churn n=220 target=500 seed=77";
  {
    auto j = Journal::open(jpath, fp, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    ASSERT_TRUE(j->append(1, run.batches[0], &err)) << err;
  }
  const JournalScan scan = persist::scan_journal(jpath);
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_EQ(scan.stream, fp.stream);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].epoch, 1u);

  // Same fingerprint reopens and appends; no fingerprint skips the check
  // (legacy operation); a different fingerprint is refused — appending
  // another stream's batches would corrupt the lineage.
  {
    auto j = Journal::open(jpath, fp, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    EXPECT_EQ(j->last_epoch(), 1u);
    ASSERT_TRUE(j->append(2, run.batches[1], &err)) << err;
  }
  {
    auto j = Journal::open(jpath, {}, &err);
    ASSERT_NE(j, nullptr) << err;
  }
  Journal::Options other = fp;
  other.stream = "trace crc32=12345";
  EXPECT_EQ(Journal::open(jpath, other, &err), nullptr);
  EXPECT_NE(err.find("stream"), std::string::npos) << err;

  // A fingerprint with an embedded newline would forge header lines.
  Journal::Options evil;
  evil.stream = "a\nrec 9 9 9";
  EXPECT_EQ(Journal::open(path("evil"), evil, &err), nullptr);

  // A journal recorded WITHOUT a fingerprint accepts any expectation on
  // reopen: there is nothing recorded to check against.
  {
    auto j = Journal::open(path("legacy"), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    ASSERT_TRUE(j->append(1, run.batches[0], &err)) << err;
  }
  {
    auto j = Journal::open(path("legacy"), fp, &err);
    ASSERT_NE(j, nullptr) << err;
  }
}

TEST_F(PersistTest, StreamedScanDeliversEachRecordOnce) {
  ThreadPool pool(1);
  const RefRun run = drive_reference(persist_config(), pool, 5);
  const std::string jpath = path("wal");
  std::string err;
  Journal::Options fp;
  fp.stream = "streamed-test";
  {
    auto j = Journal::open(jpath, fp, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (size_t i = 0; i < run.batches.size(); ++i) {
      ASSERT_TRUE(j->append(i + 1, run.batches[i], &err)) << err;
    }
  }

  // The sink sees every durable record in order; nothing is materialized.
  std::vector<uint64_t> epochs;
  const JournalScan scan = persist::scan_journal_streamed(
      jpath,
      [&](persist::JournalRecord&& rec) {
        epochs.push_back(rec.epoch);
        EXPECT_EQ(rec.batch.insertions,
                  run.batches[rec.epoch - 1].insertions);
        return true;
      },
      fp.stream);
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_EQ(scan.stream, fp.stream);
  EXPECT_EQ(epochs, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.record_count, 5u);
  EXPECT_EQ(scan.last_epoch, 5u);

  // A sink abort fails the scan after the records already delivered.
  epochs.clear();
  const JournalScan aborted = persist::scan_journal_streamed(
      jpath, [&](persist::JournalRecord&& rec) {
        epochs.push_back(rec.epoch);
        return rec.epoch < 3;
      });
  EXPECT_FALSE(aborted.ok);
  EXPECT_EQ(epochs, (std::vector<uint64_t>{1, 2, 3}));

  // A journal of another stream is refused before the sink sees a single
  // record.
  bool sink_called = false;
  const JournalScan refused = persist::scan_journal_streamed(
      jpath,
      [&](persist::JournalRecord&&) {
        sink_called = true;
        return true;
      },
      "another stream");
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("different update stream"), std::string::npos)
      << refused.error;
  EXPECT_FALSE(sink_called);
}

TEST_F(PersistTest, RecoveryEnforcesStreamFingerprints) {
  ThreadPool pool(1);
  const Config cfg = persist_config();
  const RefRun run = drive_reference(cfg, pool, 6);
  const std::string fpA = "churn seed=77";
  const std::string fpB = "churn seed=78";
  std::string err;
  {
    DynamicMatcher m(cfg, pool);
    Journal::Options jopt;
    jopt.stream = fpA;
    auto j = Journal::open(path("wal"), jopt, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (const Batch& b : run.batches) {
      m.update_by_endpoints(b.deletions, b.insertions);
      ASSERT_TRUE(j->append(m.batch_epoch(), b, &err)) << err;
      if (m.batch_epoch() == 4) {
        ASSERT_TRUE(persist::write_checkpoint_series(path("ck"), m, 2, &err,
                                                     false, fpA))
            << err;
      }
    }
  }

  // The checkpoint meta carries the fingerprint.
  const auto cks = persist::list_checkpoints(path("ck"));
  ASSERT_EQ(cks.size(), 1u);
  CheckpointData ck;
  ASSERT_TRUE(persist::read_checkpoint_file(cks[0].second, ck, &err))
      << err;
  EXPECT_EQ(ck.stream(), fpA);

  // Matching expectation recovers; so does no expectation (the recorded
  // fingerprints still cross-check against each other).
  for (const std::string& expect : {fpA, std::string()}) {
    DynamicMatcher recovered(cfg, pool);
    RecoveryOptions opt;
    opt.checkpoint_prefix = path("ck");
    opt.journal_path = path("wal");
    opt.expected_stream = expect;
    const RecoveryReport rep = persist::recover(recovered, opt);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.final_epoch, 6u);
    EXPECT_EQ(rep.journal.stream, fpA);
    EXPECT_EQ(save_str(recovered), run.reference.back());
  }

  // A different expected stream is refused at the checkpoint...
  {
    DynamicMatcher recovered(cfg, pool);
    RecoveryOptions opt;
    opt.checkpoint_prefix = path("ck");
    opt.journal_path = path("wal");
    opt.expected_stream = fpB;
    const RecoveryReport rep = persist::recover(recovered, opt);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.error.find("different update stream"), std::string::npos)
        << rep.error;
  }
  // ...and, journal-only, at the journal header — before any replay.
  {
    DynamicMatcher recovered(cfg, pool);
    RecoveryOptions opt;
    opt.journal_path = path("wal");
    opt.expected_stream = fpB;
    const RecoveryReport rep = persist::recover(recovered, opt);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.error.find("different update stream"), std::string::npos)
        << rep.error;
    EXPECT_EQ(recovered.batch_epoch(), 0u);  // nothing was applied
  }

  // Checkpoint and journal that disagree WITH EACH OTHER are refused even
  // when the caller states no expectation: they are not one lineage.
  {
    DynamicMatcher m(cfg, pool);
    for (const Batch& b : run.batches) {
      m.update_by_endpoints(b.deletions, b.insertions);
    }
    ASSERT_TRUE(persist::write_checkpoint_series(path("ckB"), m, 2, &err,
                                                 false, fpB))
        << err;
    // The journal must reach the checkpoint epoch or the stale-checkpoint
    // refusal fires first; epoch 6 == the series above.
    DynamicMatcher recovered(cfg, pool);
    RecoveryOptions opt;
    opt.checkpoint_prefix = path("ckB");
    opt.journal_path = path("wal");
    const RecoveryReport rep = persist::recover(recovered, opt);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.error.find("different update streams"), std::string::npos)
        << rep.error;
  }

  // Legacy artifacts without fingerprints recover under any expectation.
  {
    DynamicMatcher m(cfg, pool);
    auto j = Journal::open(path("wal_legacy"), {}, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (const Batch& b : run.batches) {
      m.update_by_endpoints(b.deletions, b.insertions);
      ASSERT_TRUE(j->append(m.batch_epoch(), b, &err)) << err;
    }
    ASSERT_TRUE(persist::write_checkpoint_series(path("ck_legacy"), m, 2,
                                                 &err))
        << err;
    DynamicMatcher recovered(cfg, pool);
    RecoveryOptions opt;
    opt.checkpoint_prefix = path("ck_legacy");
    opt.journal_path = path("wal_legacy");
    opt.expected_stream = fpA;
    const RecoveryReport rep = persist::recover(recovered, opt);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(save_str(recovered), run.reference.back());
  }
}

// ---------------------------------------------------------------------------
// Committed files pin the bytes on disk: a v1 journal and a checkpoint an
// earlier build wrote (tests/fixtures/persist_v1/, its snapshot still
// v1), and the same checkpoint as this build writes it
// (tests/fixtures/snapshot_v2/ck.2, a v2 snapshot). Every other test here
// writes and reads with one build, so a codec that changed its bytes
// consistently would pass them all. Regenerate deliberately with
// PDMM_UPDATE_FIXTURES=1 when a format change is intended.
// ---------------------------------------------------------------------------

TEST_F(PersistTest, CommittedV1FilesAreReproducedByteExact) {
  ThreadPool pool(1);
  const Config cfg = persist_config();
  ChurnStream::Options so;
  so.n = 16;
  so.target_edges = 10;
  so.seed = 2101;
  ChurnStream stream(so);
  const std::string fp = "churn n=16 target=10 seed=2101";

  // The writer: rank 2, one journal record per batch, checkpoint at 2.
  DynamicMatcher m(cfg, pool);
  std::string ck_bytes, err;
  Journal::Options jopt;
  jopt.stream = fp;
  {
    auto j = Journal::open(path("wal.log"), jopt, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();  // single-threaded test driver
    for (int i = 0; i < 3; ++i) {
      const Batch b = stream.next(8);
      m.update_by_endpoints(b.deletions, b.insertions);
      ASSERT_TRUE(j->append(m.batch_epoch(), b, &err)) << err;
      if (m.batch_epoch() == 2) {
        ASSERT_TRUE(persist::encode_checkpoint(m, ck_bytes, &err, fp)) << err;
      }
    }
  }
  const std::string replayed = save_str(m);

  const std::string v1 = std::string(PDMM_FIXTURE_DIR) + "/persist_v1";
  const std::string v2 = std::string(PDMM_FIXTURE_DIR) + "/snapshot_v2";
  if (std::getenv("PDMM_UPDATE_FIXTURES")) {
    fs::create_directories(v1);
    fs::create_directories(v2);
    write_file(v1 + "/wal.log", file_str(path("wal.log")));
    write_file(v2 + "/ck.2", ck_bytes);
    GTEST_SKIP() << "fixtures regenerated under " << v1 << " and " << v2;
  }
  ASSERT_TRUE(fs::exists(v1 + "/wal.log") && fs::exists(v1 + "/ck.2") &&
              fs::exists(v2 + "/ck.2"))
      << "missing fixtures under " << v1 << " or " << v2
      << " (regenerate with PDMM_UPDATE_FIXTURES=1)";
  const std::string want_wal = file_str(v1 + "/wal.log");
  const std::string want_ck = file_str(v2 + "/ck.2");
  EXPECT_EQ(file_str(path("wal.log")), want_wal)
      << "journal bytes diverged from the committed fixture";
  EXPECT_EQ(ck_bytes, want_ck)
      << "checkpoint bytes diverged from the committed fixture";

  // The committed files recover, from the checkpoint plus one record, to
  // the bytes a fresh replay of the same batches produces.
  write_file(path("ck.2"), want_ck);
  write_file(path("old.log"), want_wal);
  {
    DynamicMatcher recovered(cfg, pool);
    RecoveryOptions opt;
    opt.checkpoint_prefix = path("ck");
    opt.journal_path = path("old.log");
    opt.expected_stream = fp;
    const RecoveryReport rep = persist::recover(recovered, opt);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.checkpoint_epoch, 2u);
    EXPECT_EQ(rep.skipped_checkpoints, 0u);
    EXPECT_EQ(rep.replayed_batches, 1u);
    EXPECT_EQ(rep.final_epoch, 3u);
    EXPECT_EQ(save_str(recovered), replayed);
  }
  // The v1 checkpoint's snapshot no longer loads: recovery skips it and
  // replays the whole journal to the same bytes.
  write_file(path("v1ck.2"), file_str(v1 + "/ck.2"));
  {
    DynamicMatcher recovered(cfg, pool);
    RecoveryOptions opt;
    opt.checkpoint_prefix = path("v1ck");
    opt.journal_path = path("old.log");
    opt.expected_stream = fp;
    const RecoveryReport rep = persist::recover(recovered, opt);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_TRUE(rep.checkpoint_path.empty()) << rep.checkpoint_path;
    EXPECT_EQ(rep.skipped_checkpoints, 1u);
    EXPECT_EQ(rep.replayed_batches, 3u);
    EXPECT_EQ(rep.final_epoch, 3u);
    EXPECT_EQ(save_str(recovered), replayed);
  }
}

}  // namespace
}  // namespace pdmm
