// Replication subsystem tests: the live-tailing JournalTailer (torn tail
// is transient, rot is terminal — at every byte offset), the ReplicaEngine
// follower (checkpoint bootstrap, live-follow equivalence under a
// concurrently appending primary, divergence halt, crash-and-restart
// convergence, promotion lineage), and the Backoff retry schedule every
// polling loop is built on.
//
// The equivalence oracle is the repo's replay-determinism contract: a
// follower that applies the primary's journal through the same matcher
// must reach BYTE-IDENTICAL state — every test here reduces to comparing
// DynamicMatcher::save() bytes against per-epoch reference snapshots.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <sstream>
#include <thread>

#include "core/matcher.h"
#include "engine/update_engine.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "replicate/replica_engine.h"
#include "serve/view_service.h"
#include "util/backoff.h"
#include "util/sync_point.h"
#include "util/timer.h"
#include "workload/generators.h"

namespace pdmm {
namespace {

namespace fs = std::filesystem;
using engine::UpdateEngine;
using persist::Journal;
using persist::JournalRecord;
using replicate::JournalTailer;
using replicate::ReplicaEngine;
using replicate::ReplicaOptions;
using replicate::TailStatus;

Config replicate_config() {
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

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void append_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

class ReplicateTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pdmm_test_replicate." + std::to_string(::getpid()) + "." +
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

RefRun drive_reference(const Config& cfg, ThreadPool& pool, size_t batches,
                       uint64_t stream_seed = 99) {
  RefRun run;
  ChurnStream::Options so;
  so.n = 180;
  so.target_edges = 400;
  so.zipf_s = 0.6;
  so.seed = stream_seed;
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

constexpr char kStreamFp[] = "churn n=180 rank=2 target=400 k=24 seed=99";

// Writes an uninterrupted journal of `batches` (epochs 1..N) and returns
// its bytes.
std::string write_journal(const std::string& wal,
                          const std::vector<Batch>& batches,
                          const std::string& stream_fp = kStreamFp) {
  std::string err;
  Journal::Options jopt;
  jopt.stream = stream_fp;
  auto j = Journal::open(wal, jopt, &err);
  EXPECT_NE(j, nullptr) << err;
  j->appender_role().assert_held();
  for (size_t i = 0; i < batches.size(); ++i) {
    EXPECT_TRUE(j->append(i + 1, batches[i], &err)) << err;
  }
  return file_str(wal);
}

// Splits journal bytes into the header (magic + optional stream line) and
// one byte-string per record, using the text framing: each record is a
// "rec <epoch> <nbytes> <crc>\n" line followed by exactly <nbytes> bytes.
struct SplitJournal {
  std::string header;
  std::vector<std::string> records;
  // Cumulative end offsets: boundaries[0] = header end,
  // boundaries[i] = end of record i.
  std::vector<size_t> boundaries;
};

SplitJournal split_journal(const std::string& bytes) {
  SplitJournal out;
  size_t pos = bytes.find('\n');
  EXPECT_NE(pos, std::string::npos);
  ++pos;
  if (bytes.compare(pos, 4, "rec ") != 0) {  // optional stream line
    pos = bytes.find('\n', pos);
    EXPECT_NE(pos, std::string::npos);
    ++pos;
  }
  out.header = bytes.substr(0, pos);
  out.boundaries.push_back(pos);
  while (pos < bytes.size()) {
    const size_t eol = bytes.find('\n', pos);
    EXPECT_NE(eol, std::string::npos);
    std::istringstream hdr(bytes.substr(pos, eol - pos));
    std::string tag;
    uint64_t epoch = 0, nbytes = 0;
    uint32_t crc = 0;
    hdr >> tag >> epoch >> nbytes >> crc;
    EXPECT_EQ(tag, "rec");
    const size_t end = eol + 1 + nbytes;
    EXPECT_LE(end, bytes.size());
    out.records.push_back(bytes.substr(pos, end - pos));
    out.boundaries.push_back(end);
    pos = end;
  }
  return out;
}

// Sink that collects every delivered record.
struct Collect {
  std::vector<JournalRecord> recs;
  persist::JournalRecordSink sink() {
    return [this](JournalRecord&& r) {
      recs.push_back(std::move(r));
      return true;
    };
  }
};

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

TEST(BackoffTest, GeometricGrowthSaturatesAtMax) {
  util::Backoff::Options o;
  o.initial_us = 100;
  o.max_us = 800;
  o.multiplier = 2.0;
  o.jitter = 0.0;
  std::vector<uint64_t> slept;
  util::Backoff b(o, [&](uint64_t us) { slept.push_back(us); });
  for (int i = 0; i < 6; ++i) b.sleep();
  EXPECT_EQ(slept, (std::vector<uint64_t>{100, 200, 400, 800, 800, 800}));
  EXPECT_EQ(b.attempts(), 6u);
  EXPECT_EQ(b.slept_us(), 100u + 200 + 400 + 800 + 800 + 800);

  b.reset();  // schedule restarts from the bottom
  EXPECT_EQ(b.sleep(), 100u);
  EXPECT_EQ(b.sleep(), 200u);
}

TEST(BackoffTest, JitterStaysWithinBoundsAndBelowMax) {
  util::Backoff::Options o;
  o.initial_us = 1000;
  o.max_us = 16000;
  o.multiplier = 2.0;
  o.jitter = 0.5;
  util::Backoff b(o, [](uint64_t) {});
  uint64_t base = o.initial_us;
  for (int i = 0; i < 24; ++i) {
    const uint64_t d = b.next_us();
    EXPECT_LE(d, base);
    EXPECT_GE(d, base - base / 2);  // within [base*(1-jitter), base]
    EXPECT_LE(d, o.max_us);
    base = std::min(base * 2, o.max_us);
  }
}

TEST(BackoffTest, DeterministicPerSeed) {
  util::Backoff::Options o;
  o.jitter = 0.4;
  o.seed = 7;
  util::Backoff a(o), b(o);
  std::vector<uint64_t> sa, sb;
  for (int i = 0; i < 12; ++i) {
    sa.push_back(a.next_us());
    sb.push_back(b.next_us());
  }
  EXPECT_EQ(sa, sb);

  o.seed = 8;  // a different jitter stream
  util::Backoff c(o);
  std::vector<uint64_t> sc;
  for (int i = 0; i < 12; ++i) sc.push_back(c.next_us());
  EXPECT_NE(sa, sc);
}

TEST(BackoffTest, SanitizesDegenerateOptions) {
  util::Backoff::Options o;
  o.initial_us = 0;
  o.max_us = 0;       // below initial: clamped up
  o.multiplier = 0.5; // sub-1 growth: clamped to 1
  o.jitter = 9.0;     // clamped into [0,1]
  util::Backoff b(o, [](uint64_t) {});
  EXPECT_EQ(b.options().initial_us, 1u);
  EXPECT_GE(b.options().max_us, b.options().initial_us);
  EXPECT_GE(b.options().multiplier, 1.0);
  EXPECT_LE(b.options().jitter, 1.0);
  EXPECT_GE(b.next_us(), 1u);  // never a zero (busy-spin) delay
}

// ---------------------------------------------------------------------------
// JournalTailer: torn tail is transient, at every byte offset
// ---------------------------------------------------------------------------

// For every cut offset of a journal: the tailer delivers exactly the
// records fully contained in the prefix, reports the torn frontier as
// pending (never failed, never repaired), and — once the remaining bytes
// arrive, as they would from a primary finishing its append — delivers
// the rest exactly once. The cut file's bytes are never modified: tailing
// is strictly read-only.
TEST_F(ReplicateTest, TornTailBecomesValidAtEveryCutOffset) {
  ThreadPool pool(1);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 5);
  const std::string bytes = write_journal(path("wal.log"), ref.batches);
  const SplitJournal split = split_journal(bytes);
  ASSERT_EQ(split.records.size(), 5u);
  // Clean parse points where a quiet tail is idle rather than pending: an
  // empty file, the end of the magic line (a just-created journal), the
  // end of the full header, and every record end.
  const size_t magic_end = bytes.find('\n') + 1;

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::string cpath = path("cut.log");
    write_file(cpath, bytes.substr(0, cut));

    // Records fully contained in the prefix (0 while the header is torn).
    size_t contained = 0;
    while (contained < split.records.size() &&
           split.boundaries[contained + 1] <= cut) {
      ++contained;
    }
    const bool on_boundary =
        cut == 0 || cut == magic_end ||
        (cut >= split.boundaries[0] && cut == split.boundaries[contained]);

    JournalTailer::Options topt;
    topt.expected_stream = kStreamFp;
    JournalTailer tailer(cpath, topt);
    Collect got;
    const TailStatus first = tailer.poll(got.sink());
    ASSERT_NE(first, TailStatus::kFailed)
        << "cut=" << cut << ": " << tailer.error();
    if (contained > 0) {
      EXPECT_EQ(first, TailStatus::kRecord) << "cut=" << cut;
    } else {
      EXPECT_NE(first, TailStatus::kRecord) << "cut=" << cut;
    }
    EXPECT_EQ(got.recs.size(), contained) << "cut=" << cut;
    EXPECT_EQ(tailer.durable_epoch(), contained) << "cut=" << cut;
    // Strictly read-only: the torn file is byte-identical after polling.
    EXPECT_EQ(file_str(cpath), bytes.substr(0, cut)) << "cut=" << cut;

    // A re-poll with no new bytes settles to idle (clean boundary) or
    // pending (torn frontier) — never failed, never a re-delivery.
    const TailStatus again = tailer.poll(got.sink());
    EXPECT_EQ(again, on_boundary ? TailStatus::kIdle : TailStatus::kPending)
        << "cut=" << cut << ": " << tailer.error();
    EXPECT_EQ(got.recs.size(), contained) << "cut=" << cut;

    // The primary finishes its write: the tear completes in place.
    append_file(cpath, bytes.substr(cut));
    const TailStatus done = tailer.poll(got.sink());
    if (contained < split.records.size()) {
      EXPECT_EQ(done, TailStatus::kRecord) << "cut=" << cut;
    } else {
      EXPECT_EQ(done, TailStatus::kIdle) << "cut=" << cut;
    }
    ASSERT_EQ(got.recs.size(), split.records.size()) << "cut=" << cut;
    for (size_t i = 0; i < got.recs.size(); ++i) {
      EXPECT_EQ(got.recs[i].epoch, i + 1);  // exactly once, in epoch order
    }
    EXPECT_EQ(tailer.durable_epoch(), 5u);
    EXPECT_EQ(tailer.bytes_behind(), 0u);
    EXPECT_EQ(tailer.stream(), kStreamFp);
  }
}

// Mid-file rot — an invalid record with an intact record BEYOND it — is
// terminal: the tailer halts with a line-numbered error and stays halted,
// promotion refuses to crown a state missing the durable records past the
// damage, and the scan gives the same verdict on the same bytes. Damage
// inside the payload and damage to the header line are the same case: a
// complete header line that no longer parses is as final as any other
// complete bytes, so the reader must not wait on it.
TEST_F(ReplicateTest, MidFileRotHaltsWithLineNumberedError) {
  ThreadPool pool(1);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 4);
  const std::string bytes = write_journal(path("wal.log"), ref.batches);
  const SplitJournal split = split_journal(bytes);
  const size_t rec2 = split.boundaries[1];
  // The error names file:line of the rotted record.
  const uint64_t line =
      1 + static_cast<uint64_t>(std::count(
              bytes.begin(),
              bytes.begin() + static_cast<std::ptrdiff_t>(rec2), '\n'));

  // Flip one byte of record 2 — a payload byte (the framing still walks to
  // records 3 and 4), or its "rec" tag — leaving records 3 and 4 intact.
  const size_t payload_byte = bytes.find('\n', rec2) + 1 + 2;
  for (const size_t flip : {payload_byte, rec2}) {
    SCOPED_TRACE(flip == rec2 ? "header rot" : "payload rot");
    std::string rotted = bytes;
    rotted[flip] ^= 0x20;
    const std::string cpath = path("rot" + std::to_string(flip) + ".log");
    write_file(cpath, rotted);

    JournalTailer tailer(cpath, {});
    Collect got;
    EXPECT_EQ(tailer.poll(got.sink()), TailStatus::kFailed);
    EXPECT_EQ(got.recs.size(), 1u);  // record 1 was delivered before the rot
    EXPECT_EQ(tailer.durable_epoch(), 1u);
    EXPECT_NE(tailer.error().find(cpath + ":" + std::to_string(line)),
              std::string::npos)
        << tailer.error();
    EXPECT_NE(tailer.error().find("rot"), std::string::npos)
        << tailer.error();

    // Sticky: later polls keep failing with the same error, deliver
    // nothing.
    const std::string err = tailer.error();
    EXPECT_EQ(tailer.poll(got.sink()), TailStatus::kFailed);
    EXPECT_EQ(tailer.error(), err);
    EXPECT_EQ(got.recs.size(), 1u);

    DynamicMatcher fm(cfg, pool);
    ReplicaOptions ropt;
    ropt.journal_path = cpath;
    ropt.checkpoint_prefix = cpath + ".ck";
    ropt.backoff.initial_us = 50;
    ropt.backoff.max_us = 500;
    ReplicaEngine rep(fm, nullptr, ropt);
    std::string perr;
    ASSERT_TRUE(rep.bootstrap(&perr)) << perr;
    std::unique_ptr<Journal> j2;
    ReplicaEngine::PromoteOptions popt;
    popt.journal_path = cpath + ".promoted";
    EXPECT_FALSE(rep.promote(popt, j2, &perr));
    EXPECT_EQ(j2, nullptr);
    EXPECT_NE(perr.find("rot"), std::string::npos) << perr;
    EXPECT_TRUE(persist::list_checkpoints(ropt.checkpoint_prefix).empty());
    EXPECT_FALSE(fs::exists(popt.journal_path));

    const persist::JournalScan scan = persist::scan_journal(cpath);
    EXPECT_FALSE(scan.ok);
    EXPECT_NE(scan.error.find("mid-file"), std::string::npos) << scan.error;
  }
}

// A torn record follow by an intact one is rot too (the tear can never
// complete: the bytes beyond it are already another record's).
TEST_F(ReplicateTest, TornRecordWithIntactBeyondIsRot) {
  ThreadPool pool(1);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 3);
  const std::string bytes = write_journal(path("wal.log"), ref.batches);
  const SplitJournal split = split_journal(bytes);

  // header + rec1 + half of rec2 + rec3 (intact).
  const std::string spliced =
      split.header + split.records[0] +
      split.records[1].substr(0, split.records[1].size() / 2) +
      split.records[2];
  const std::string cpath = path("spliced.log");
  write_file(cpath, spliced);

  JournalTailer tailer(cpath, {});
  Collect got;
  EXPECT_EQ(tailer.poll(got.sink()), TailStatus::kFailed);
  EXPECT_EQ(got.recs.size(), 1u);
  EXPECT_NE(tailer.error().find("rot"), std::string::npos) << tailer.error();
}

TEST_F(ReplicateTest, EpochGapAndWrongStreamAndBadMagicFail) {
  ThreadPool pool(1);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 3);
  const std::string bytes = write_journal(path("wal.log"), ref.batches);
  const SplitJournal split = split_journal(bytes);

  {  // epoch gap: header + rec1 + rec3
    const std::string gpath = path("gap.log");
    write_file(gpath, split.header + split.records[0] + split.records[2]);
    JournalTailer tailer(gpath, {});
    Collect got;
    EXPECT_EQ(tailer.poll(got.sink()), TailStatus::kFailed);
    EXPECT_EQ(got.recs.size(), 1u);
    EXPECT_NE(tailer.error().find("epoch"), std::string::npos)
        << tailer.error();
  }
  {  // stream fingerprint mismatch: refused before a single record
    JournalTailer::Options topt;
    topt.expected_stream = "some other stream";
    JournalTailer tailer(path("wal.log"), topt);
    Collect got;
    EXPECT_EQ(tailer.poll(got.sink()), TailStatus::kFailed);
    EXPECT_EQ(got.recs.size(), 0u);
    EXPECT_NE(tailer.error().find("stream"), std::string::npos)
        << tailer.error();
  }
  {  // wrong magic
    const std::string mpath = path("magic.log");
    write_file(mpath, "not a journal\n" + split.records[0]);
    JournalTailer tailer(mpath, {});
    Collect got;
    EXPECT_EQ(tailer.poll(got.sink()), TailStatus::kFailed);
    EXPECT_EQ(got.recs.size(), 0u);
  }
}

// A follower may start before the primary has created the journal: a
// missing file is idle, not an error. Once the file has been seen,
// vanishing or shrinking IS an error (the lineage was swapped or
// truncated underneath the cursor).
TEST_F(ReplicateTest, MissingFileIsIdleUntilSeenThenTerminal) {
  const std::string wal = path("late.log");
  JournalTailer tailer(wal, {});
  Collect got;
  EXPECT_EQ(tailer.poll(got.sink()), TailStatus::kIdle);
  EXPECT_EQ(tailer.poll(got.sink()), TailStatus::kIdle);

  ThreadPool pool(1);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 2);
  const std::string bytes = write_journal(wal, ref.batches);
  EXPECT_EQ(tailer.poll(got.sink()), TailStatus::kRecord);
  EXPECT_EQ(got.recs.size(), 2u);

  // Shrink the file below the cursor: terminal.
  write_file(wal, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(tailer.poll(got.sink()), TailStatus::kFailed);
  EXPECT_NE(tailer.error().find("shrank"), std::string::npos)
      << tailer.error();
}

// ---------------------------------------------------------------------------
// ReplicaEngine: live-follow equivalence under a concurrent primary
// ---------------------------------------------------------------------------

// The acceptance matrix: a follower tailing a LIVE journal while the
// primary appends under group_commit {1,3} and settles with {1,2,4}
// threads converges to byte-identical state. The follower runs follow()
// in its own thread with its own pool — the real deployment shape in
// miniature.
TEST_F(ReplicateTest, LiveFollowEquivalenceAcrossGroupCommitAndThreads) {
  const Config cfg = replicate_config();
  constexpr size_t kEpochs = 16;

  for (size_t group : {size_t{1}, size_t{3}}) {
    for (unsigned threads : {1u, 2u, 4u}) {
      const std::string tag =
          "g" + std::to_string(group) + "_t" + std::to_string(threads);
      const std::string wal = path("wal." + tag);
      const std::string ck = path("ck." + tag);

      ThreadPool ref_pool(threads);
      const RefRun ref = drive_reference(cfg, ref_pool, kEpochs);

      // Follower: full lifecycle on its own thread (matcher roles are
      // thread-affine), bootstrapping from the (initially empty) series
      // and tailing until it has applied every epoch.
      std::string follower_state, follower_err;
      replicate::ReplicaHealth follower_health;
      std::promise<void> follower_booted;
      std::thread follower([&] {
        ThreadPool fpool(threads);
        DynamicMatcher fm(cfg, fpool);
        ReplicaOptions ropt;
        ropt.journal_path = wal;
        ropt.checkpoint_prefix = ck;
        ropt.expected_stream = kStreamFp;
        ropt.backoff = {50, 2000, 2.0, 0.2, 1};
        ReplicaEngine rep(fm, nullptr, ropt);
        const bool booted = rep.bootstrap(&follower_err);
        follower_booted.set_value();
        if (!booted) return;
        if (rep.follow({.until_epoch = kEpochs, .idle_ms = 30'000}) ==
            TailStatus::kFailed) {
          follower_err = rep.error();
          return;
        }
        if (rep.applied_epoch() < kEpochs) {
          follower_err = "timed out behind the primary";
          return;
        }
        follower_health = rep.health();
        follower_state = save_str(fm);
      });

      // Primary: pipelined engine appending the journal live. It starts
      // once the follower has bootstrapped, so the follower always sees
      // the empty series and applies every epoch itself (a later
      // bootstrap would legitimately restore a checkpoint and apply fewer).
      follower_booted.get_future().wait();
      {
        ThreadPool ppool(threads);
        DynamicMatcher pm(cfg, ppool);
        std::string err;
        Journal::Options jopt;
        jopt.stream = kStreamFp;
        auto j = Journal::open(wal, jopt, &err);
        ASSERT_NE(j, nullptr) << err;
        UpdateEngine::Options eo;
        eo.pipelined = true;
        eo.group_commit = group;
        eo.checkpoint_every = 5;
        eo.checkpoint_prefix = ck;
        eo.stream_fp = kStreamFp;
        UpdateEngine eng(pm, nullptr, j.get(), eo);
        for (const Batch& b : ref.batches) ASSERT_TRUE(eng.submit(b));
        ASSERT_TRUE(eng.stop()) << eng.error();
        EXPECT_EQ(save_str(pm), ref.reference[kEpochs]) << tag;
      }

      follower.join();
      ASSERT_EQ(follower_err, "") << tag;
      EXPECT_EQ(follower_state, ref.reference[kEpochs]) << tag;
      EXPECT_EQ(follower_health.applied_epoch, kEpochs) << tag;
      EXPECT_EQ(follower_health.durable_epoch, kEpochs) << tag;
      EXPECT_EQ(follower_health.records_applied, kEpochs) << tag;
    }
  }
}

// follow()'s stop rules, each on a frontier the test controls. A quiet
// poll delivers no record and sees no size change, so a torn record that
// grows between polls is progress; idle_ms waits out wall time without
// progress; with no rule set, only a failed step ends the loop.
TEST_F(ReplicateTest, FollowStopsOnQuietPollsIdleTimeEpochAndFailure) {
  ThreadPool pool(1);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 4);
  const SplitJournal split =
      split_journal(write_journal(path("full.log"), ref.batches));
  const std::string wal = path("wal.log");
  write_file(wal, split.header + split.records[0] + split.records[1] +
                      split.records[2]);

  DynamicMatcher fm(cfg, pool);
  ReplicaOptions ropt;
  ropt.journal_path = wal;
  ropt.backoff.initial_us = 50;
  ropt.backoff.max_us = 500;
  ReplicaEngine rep(fm, nullptr, ropt);
  std::string err;
  ASSERT_TRUE(rep.bootstrap(&err)) << err;
  std::vector<TailStatus> seen;
  const auto record = [&](TailStatus s) { seen.push_back(s); };
  using S = TailStatus;

  // One poll applies epochs 1..3, then three quiet polls.
  EXPECT_EQ(rep.follow({.quiet_polls = 3}, record), S::kIdle);
  EXPECT_EQ(seen, (std::vector<S>{S::kRecord, S::kIdle, S::kIdle, S::kIdle}));
  EXPECT_EQ(rep.applied_epoch(), 3u);

  // Polls 2-4 each see one more byte of record 4; polls 5 and 6 see none.
  const std::string& rec4 = split.records[3];
  size_t torn = 0;
  seen.clear();
  EXPECT_EQ(rep.follow({.quiet_polls = 2},
                       [&](TailStatus s) {
                         seen.push_back(s);
                         if (torn < 3) append_file(wal, rec4.substr(torn++, 1));
                       }),
            S::kPending);
  EXPECT_EQ(seen, (std::vector<S>{S::kIdle, S::kPending, S::kPending,
                                  S::kPending, S::kPending, S::kPending}));

  seen.clear();
  const Timer idle;
  EXPECT_EQ(rep.follow({.idle_ms = 20}, record), S::kPending);
  EXPECT_GE(idle.millis(), 20.0);
  EXPECT_GT(seen.size(), 1u);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), S::kPending),
            static_cast<std::ptrdiff_t>(seen.size()));

  append_file(wal, rec4.substr(torn));
  EXPECT_EQ(rep.follow({.until_epoch = 4}), S::kRecord);
  EXPECT_EQ(save_str(fm), ref.reference[4]);

  // Two quiet polls, then the journal is cut below the cursor.
  seen.clear();
  EXPECT_EQ(rep.follow({},
                       [&](TailStatus s) {
                         seen.push_back(s);
                         if (seen.size() == 2) write_file(wal, split.header);
                       }),
            S::kFailed);
  EXPECT_EQ(seen, (std::vector<S>{S::kIdle, S::kIdle, S::kFailed}));
  EXPECT_TRUE(rep.failed());
  EXPECT_NE(rep.error().find("shrank"), std::string::npos) << rep.error();
}

// Bootstrap restores the newest valid checkpoint and tails only the
// journal suffix past it — a follower seeded late does not replay history
// the series already covers.
TEST_F(ReplicateTest, BootstrapFromCheckpointSkipsCoveredHistory) {
  ThreadPool pool(2);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 12);
  write_journal(path("wal.log"), ref.batches);

  // Primary's series: checkpoints at epochs 4 and 8.
  {
    DynamicMatcher m(cfg, pool);
    std::string err;
    for (size_t i = 0; i < 8; ++i) {
      m.update_by_endpoints(ref.batches[i].deletions,
                            ref.batches[i].insertions);
      if ((i + 1) % 4 == 0) {
        ASSERT_TRUE(persist::write_checkpoint_series(path("ck"), m, 4, &err,
                                                     false, kStreamFp))
            << err;
      }
    }
  }

  DynamicMatcher fm(cfg, pool);
  MatchViewService::Options so;
  so.install_hook = false;
  MatchViewService service(fm, so);
  ReplicaOptions ropt;
  ropt.journal_path = path("wal.log");
  ropt.checkpoint_prefix = path("ck");
  ropt.expected_stream = kStreamFp;
  ReplicaEngine rep(fm, &service, ropt);
  std::string err;
  ASSERT_TRUE(rep.bootstrap(&err)) << err;
  EXPECT_EQ(rep.applied_epoch(), 8u);
  EXPECT_EQ(save_str(fm), ref.reference[8]);
  {  // the bootstrap state is already visible to readers
    auto h = service.acquire();
    EXPECT_EQ(h->epoch, 8u);
  }

  ASSERT_EQ(rep.step(), TailStatus::kRecord) << rep.error();
  EXPECT_EQ(rep.applied_epoch(), 12u);
  EXPECT_EQ(save_str(fm), ref.reference[12]);
  EXPECT_EQ(rep.health().records_applied, 4u);  // only the suffix
  {
    auto h = service.acquire();
    EXPECT_EQ(h->epoch, 12u);
  }
  EXPECT_EQ(rep.step(), TailStatus::kIdle);
}

// Divergence cross-checks: every primary checkpoint whose epoch the
// follower passes is byte-compared. Matching checkpoints count as
// verifications; a mismatching one halts the follower loudly.
TEST_F(ReplicateTest, CheckpointCrossCheckVerifiesAndDetectsDivergence) {
  ThreadPool pool(1);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 8);
  write_journal(path("wal.log"), ref.batches);

  // Correct checkpoints at 3 and 6 (written by replaying the reference).
  {
    DynamicMatcher m(cfg, pool);
    std::string err;
    for (size_t i = 0; i < 6; ++i) {
      m.update_by_endpoints(ref.batches[i].deletions,
                            ref.batches[i].insertions);
      if ((i + 1) % 3 == 0) {
        ASSERT_TRUE(persist::write_checkpoint_series(path("good"), m, 8,
                                                     &err, false, kStreamFp))
            << err;
      }
    }
  }
  {
    DynamicMatcher fm(cfg, pool);
    ReplicaOptions ropt;
    ropt.journal_path = path("wal.log");
    ropt.checkpoint_prefix = path("good.none");  // series name with no files
    ReplicaEngine rep(fm, nullptr, ropt);
    std::string err;
    ASSERT_TRUE(rep.bootstrap(&err)) << err;
    EXPECT_EQ(rep.applied_epoch(), 0u);  // nothing to bootstrap from
  }
  {
    // Bootstrap from empty (fresh prefix dir), then rename the good series
    // in before stepping so the cross-checks fire at epochs 3 and 6.
    DynamicMatcher fm(cfg, pool);
    ReplicaOptions ropt;
    ropt.journal_path = path("wal.log");
    ropt.checkpoint_prefix = path("late");
    ReplicaEngine rep(fm, nullptr, ropt);
    std::string err;
    ASSERT_TRUE(rep.bootstrap(&err)) << err;
    fs::rename(path("good.3"), path("late.3"));
    fs::rename(path("good.6"), path("late.6"));
    ASSERT_EQ(rep.step(), TailStatus::kRecord) << rep.error();
    EXPECT_EQ(rep.applied_epoch(), 8u);
    EXPECT_EQ(rep.health().checkpoints_verified, 2u);
    EXPECT_EQ(save_str(fm), ref.reference[8]);
  }
  {
    // A checkpoint recorded from a DIFFERENT history at epoch 5: valid as
    // a file, divergent as a lineage. The follower must halt, not serve.
    const RefRun other = drive_reference(cfg, pool, 5, /*stream_seed=*/1234);
    DynamicMatcher dm(cfg, pool);
    for (const Batch& b : other.batches) {
      dm.update_by_endpoints(b.deletions, b.insertions);
    }
    std::string err;
    ASSERT_TRUE(persist::write_checkpoint_series(path("div"), dm, 8, &err,
                                                 false, kStreamFp))
        << err;
    // The divergent file must appear AFTER bootstrap (else bootstrap would
    // restore it): write it under the prefix the follower watches, at an
    // epoch the follower has not reached yet.
    DynamicMatcher fm(cfg, pool);
    ReplicaOptions ropt;
    ropt.journal_path = path("wal.log");
    ropt.checkpoint_prefix = path("late2");
    ReplicaEngine rep(fm, nullptr, ropt);
    ASSERT_TRUE(rep.bootstrap(&err)) << err;
    fs::rename(path("div.5"), path("late2.5"));
    EXPECT_EQ(rep.step(), TailStatus::kFailed);
    EXPECT_NE(rep.error().find("DIVERGENCE"), std::string::npos)
        << rep.error();
    EXPECT_TRUE(rep.failed());
    EXPECT_LT(rep.applied_epoch(), 8u);  // halted, never finished the log
    // Sticky: the follower refuses to continue past proven divergence.
    EXPECT_EQ(rep.step(), TailStatus::kFailed);
  }
}

// The committed v1 files (tests/fixtures/persist_v1/): a journal of 3
// records and a checkpoint at epoch 2 whose snapshot is v1. The follower
// bootstraps past that checkpoint (it does not load), replays the whole
// journal, and does not read the older format as divergence.
TEST_F(ReplicateTest, V1CheckpointIsNoEvidenceOfDivergence) {
  ThreadPool pool(1);
  Config cfg;  // the config the fixture was written with
  cfg.max_rank = 2;
  cfg.seed = 909;
  cfg.initial_capacity = 1 << 14;
  const std::string fp = "churn n=16 target=10 seed=2101";
  const std::string v1 = std::string(PDMM_FIXTURE_DIR) + "/persist_v1";
  write_file(path("wal.log"), file_str(v1 + "/wal.log"));
  write_file(path("ck.2"), file_str(v1 + "/ck.2"));

  DynamicMatcher fm(cfg, pool);
  ReplicaOptions ropt;
  ropt.journal_path = path("wal.log");
  ropt.checkpoint_prefix = path("ck");
  ropt.expected_stream = fp;
  ReplicaEngine rep(fm, nullptr, ropt);
  std::string err;
  ASSERT_TRUE(rep.bootstrap(&err)) << err;
  EXPECT_EQ(rep.applied_epoch(), 0u);
  ASSERT_EQ(rep.step(), TailStatus::kRecord) << rep.error();
  EXPECT_EQ(rep.applied_epoch(), 3u);
  EXPECT_EQ(rep.health().checkpoints_verified, 0u);

  DynamicMatcher replayed(cfg, pool);
  persist::RecoveryOptions ro;
  ro.journal_path = path("wal.log");
  ro.expected_stream = fp;
  ASSERT_TRUE(persist::recover(replayed, ro).ok);
  EXPECT_EQ(save_str(fm), save_str(replayed));
}

// Crash-at-sync-point: a follower killed between applying and publishing
// (or before an apply) restarts from the same artifacts and converges —
// replica application is idempotent because the journal is the only truth.
TEST_F(ReplicateTest, CrashedFollowerRestartsAndConverges) {
  ThreadPool pool(1);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 10);
  write_journal(path("wal.log"), ref.batches);

  // pre_apply fires per record (die mid-replay at epoch 6); pre_publish
  // fires once per poll at the applied frontier (die with all 10 applied
  // but none published).
  struct Crash {
    const char* point;
    uint64_t at;
  };
  for (const Crash c : {Crash{kReplicaPreApply, 6},
                        Crash{kReplicaPrePublish, 10}}) {
    const char* point = c.point;
    SyncPoints::install([&](const char* p, uint64_t arg) {
      if (std::string(p) == c.point && arg == c.at) return SyncPoints::kCrash;
      return SyncPoints::kProceed;
    });
    {
      DynamicMatcher fm(cfg, pool);
      ReplicaOptions ropt;
      ropt.journal_path = path("wal.log");
      ReplicaEngine rep(fm, nullptr, ropt);
      std::string err;
      ASSERT_TRUE(rep.bootstrap(&err)) << err;
      EXPECT_EQ(rep.step(), TailStatus::kFailed) << point;
      EXPECT_TRUE(rep.failed()) << point;
    }
    SyncPoints::clear();

    // Restart: fresh engine over the same journal converges fully.
    DynamicMatcher fm(cfg, pool);
    ReplicaOptions ropt;
    ropt.journal_path = path("wal.log");
    ReplicaEngine rep(fm, nullptr, ropt);
    std::string err;
    ASSERT_TRUE(rep.bootstrap(&err)) << err;
    ASSERT_EQ(rep.step(), TailStatus::kRecord) << rep.error();
    EXPECT_EQ(rep.applied_epoch(), 10u) << point;
    EXPECT_EQ(save_str(fm), ref.reference[10]) << point;
  }
}

// Every lineage refusal goes through one checkpoint walk, one journal
// stream expectation, one behind-the-checkpoint check and one apply step,
// so recovery and a bootstrapping follower must agree case by case: same
// verdict, same error, same restored checkpoint, same final bytes.
TEST_F(ReplicateTest, LineageRefusalsAgreeBetweenRecoveryAndFollower) {
  ThreadPool pool(1);
  const Config cfg = replicate_config();
  Config other_cfg = cfg;
  other_cfg.seed = cfg.seed + 1;
  const RefRun ref = drive_reference(cfg, pool, 8);
  std::vector<Batch> bogus_tail = ref.batches;
  bogus_tail[7] = Batch{};
  bogus_tail[7].deletions.push_back({4000, 4001});  // an absent edge

  // The reference run's state at `epoch`, checkpointed under `prefix`.
  const auto checkpoint = [&](const std::string& prefix, uint64_t epoch,
                              const Config& ccfg, const std::string& fp) {
    DynamicMatcher m(ccfg, pool);
    for (uint64_t e = 0; e < epoch; ++e) {
      m.update_by_endpoints(ref.batches[e].deletions,
                            ref.batches[e].insertions);
    }
    std::string err;
    ASSERT_TRUE(
        persist::write_checkpoint_series(prefix, m, 8, &err, false, fp))
        << err;
  };
  const std::vector<Batch> first3(ref.batches.begin(),
                                  ref.batches.begin() + 3);
  struct Case {
    const char* name;
    std::function<void(const std::string& wal, const std::string& ck)>
        setup;
    const char* expected_stream;  // the caller's stream ("": none given)
    const char* refusal;  // nullptr: the lineage is accepted
    // Accepted: the checkpoint restored. Refused: the epoch the follower's
    // state stops at (nothing past the refused record is applied).
    uint64_t epoch;
  };
  const std::vector<Case> cases = {
      // Hard stops: a valid older checkpoint is there, and must NOT be
      // fallen back to.
      {"other_config",
       [&](const std::string& wal, const std::string& ck) {
         write_journal(wal, ref.batches);
         checkpoint(ck, 4, cfg, kStreamFp);
         checkpoint(ck, 8, other_cfg, kStreamFp);
       },
       kStreamFp, "different Config", 0},
      {"other_stream",
       [&](const std::string& wal, const std::string& ck) {
         write_journal(wal, ref.batches);
         checkpoint(ck, 4, cfg, kStreamFp);
         checkpoint(ck, 8, cfg, "another stream");
       },
       kStreamFp, "different update stream", 0},
      {"damaged_newest",
       [&](const std::string& wal, const std::string& ck) {
         write_journal(wal, ref.batches);
         checkpoint(ck, 4, cfg, kStreamFp);
         checkpoint(ck, 8, cfg, kStreamFp);
         std::string bytes = file_str(ck + ".8");
         bytes[bytes.size() / 2] ^= 0x01;
         write_file(ck + ".8", bytes);
       },
       kStreamFp, nullptr, 4},
      {"renamed",
       [&](const std::string& wal, const std::string& ck) {
         write_journal(wal, ref.batches);
         checkpoint(ck, 8, cfg, kStreamFp);
         fs::rename(ck + ".8", ck + ".6");
       },
       kStreamFp, nullptr, 0},
      {"absent_edge",
       [&](const std::string& wal, const std::string& ck) {
         write_journal(wal, bogus_tail);
         checkpoint(ck, 4, cfg, kStreamFp);
       },
       kStreamFp, "does not match", 7},
      // No caller stream: the restored checkpoint's stream is the one the
      // journal must continue. Its batches would even apply cleanly.
      {"foreign_journal_stream",
       [&](const std::string& wal, const std::string& ck) {
         write_journal(wal, first3, "B");
         checkpoint(ck, 1, cfg, "A");
       },
       "", "the journal and its lineage record different update streams", 1},
      {"journal_behind_checkpoint",
       [&](const std::string& wal, const std::string& ck) {
         write_journal(wal, first3);
         checkpoint(ck, 5, cfg, kStreamFp);
       },
       kStreamFp,
       "journal ends at epoch 3 but the checkpoint claims epoch 5", 5},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    fs::create_directories(path(c.name));
    const std::string wal = path(std::string(c.name) + "/wal.log");
    const std::string ck = path(std::string(c.name) + "/ck");
    c.setup(wal, ck);

    DynamicMatcher rm(cfg, pool);
    persist::RecoveryOptions ro;
    ro.checkpoint_prefix = ck;
    ro.journal_path = wal;
    ro.expected_stream = c.expected_stream;
    const persist::RecoveryReport rr = persist::recover(rm, ro);

    DynamicMatcher fm(cfg, pool);
    ReplicaOptions fo;
    fo.journal_path = wal;
    fo.checkpoint_prefix = ck;
    fo.expected_stream = c.expected_stream;
    ReplicaEngine rep(fm, nullptr, fo);
    std::string ferr;
    bool fok = rep.bootstrap(&ferr);
    const uint64_t boot_epoch = fm.batch_epoch();
    const size_t boot_edges = fm.graph().num_edges();
    if (fok) {
      fok = rep.step() != TailStatus::kFailed;
      ferr = rep.error();
    }

    if (c.refusal != nullptr) {
      EXPECT_FALSE(rr.ok);
      EXPECT_FALSE(fok);
      EXPECT_NE(rr.error.find(c.refusal), std::string::npos) << rr.error;
      EXPECT_NE(ferr.find(c.refusal), std::string::npos) << ferr;
      EXPECT_EQ(fm.batch_epoch(), c.epoch);
      continue;
    }
    ASSERT_TRUE(rr.ok) << rr.error;
    ASSERT_TRUE(fok) << ferr;
    EXPECT_EQ(rr.checkpoint_epoch, c.epoch);
    EXPECT_EQ(rr.skipped_checkpoints, 1u);
    EXPECT_EQ(boot_epoch, c.epoch);
    if (c.epoch == 0) {
      EXPECT_EQ(boot_edges, 0u) << "a skipped checkpoint leaked state";
    }
    EXPECT_EQ(rr.final_epoch, 8u);
    EXPECT_EQ(rep.applied_epoch(), 8u);
    EXPECT_EQ(save_str(rm), ref.reference[8]);
    EXPECT_EQ(save_str(fm), ref.reference[8]);
  }
}

// Negative control for the behind-the-checkpoint refusal: a fresh journal
// segment that starts right after the bootstrap checkpoint (a follower
// started next to a new primary, or a promoted lineage) holds no record
// at or before the checkpoint's epoch. Header-only, it is a quiet
// primary, not a stale lineage; its first records continue the state.
TEST_F(ReplicateTest, JournalStartingAfterTheCheckpointIsFollowed) {
  ThreadPool pool(1);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 8);
  constexpr uint64_t kE = 4;
  // With no fingerprint anywhere, and with one on the checkpoint and the
  // journal but none given by the caller.
  for (const std::string& fp : {std::string(), std::string(kStreamFp)}) {
    SCOPED_TRACE(fp.empty() ? "no stream" : "stream");
    const std::string dir = path(fp.empty() ? "plain" : "stream");
    fs::create_directories(dir);
    {
      DynamicMatcher m(cfg, pool);
      for (uint64_t e = 0; e < kE; ++e) {
        m.update_by_endpoints(ref.batches[e].deletions,
                              ref.batches[e].insertions);
      }
      std::string err;
      ASSERT_TRUE(persist::write_checkpoint_series(dir + "/ck", m, 4, &err,
                                                   false, fp))
          << err;
    }
    std::string err;
    Journal::Options jopt;
    jopt.stream = fp;
    auto j = Journal::open(dir + "/wal.log", jopt, &err);
    ASSERT_NE(j, nullptr) << err;
    j->appender_role().assert_held();

    DynamicMatcher fm(cfg, pool);
    ReplicaOptions ropt;
    ropt.journal_path = dir + "/wal.log";
    ropt.checkpoint_prefix = dir + "/ck";
    ReplicaEngine rep(fm, nullptr, ropt);
    ASSERT_TRUE(rep.bootstrap(&err)) << err;
    EXPECT_EQ(rep.applied_epoch(), kE);
    EXPECT_EQ(rep.step(), TailStatus::kIdle) << rep.error();
    EXPECT_FALSE(rep.failed());
    EXPECT_TRUE(rep.error().empty()) << rep.error();

    for (uint64_t e = kE + 1; e <= 8; ++e) {
      ASSERT_TRUE(j->append(e, ref.batches[e - 1], &err)) << err;
    }
    ASSERT_EQ(rep.step(), TailStatus::kRecord) << rep.error();
    EXPECT_EQ(rep.applied_epoch(), 8u);
    EXPECT_EQ(rep.tailer().durable_epoch(), 8u);
    EXPECT_EQ(save_str(fm), ref.reference[8]);
  }
}

// ---------------------------------------------------------------------------
// Promotion
// ---------------------------------------------------------------------------

// Failover end-to-end: the primary dies mid-append (torn in-flight
// record), the follower drains the durable prefix, promotes, and the
// promoted lineage — old series + promotion checkpoint + fresh journal
// segment — recovers byte-identically to an uninterrupted run.
TEST_F(ReplicateTest, PromotionChainsLineageByteIdentically) {
  ThreadPool pool(1);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 16);

  // Primary life: epochs 1..10 durable, then SIGKILL mid-append of 11.
  const std::string wal1 = path("wal1.log");
  write_journal(wal1, {ref.batches.begin(), ref.batches.begin() + 10});
  append_file(wal1, "rec 11 4096 12345\ntorn in-flight bytes");

  DynamicMatcher fm(cfg, pool);
  ReplicaOptions ropt;
  ropt.journal_path = wal1;
  ropt.checkpoint_prefix = path("ck");
  ropt.expected_stream = kStreamFp;
  ropt.backoff.initial_us = 50;
  ropt.backoff.max_us = 500;
  ReplicaEngine rep(fm, nullptr, ropt);
  std::string err;
  ASSERT_TRUE(rep.bootstrap(&err)) << err;
  ASSERT_EQ(rep.step(), TailStatus::kRecord) << rep.error();
  EXPECT_EQ(rep.applied_epoch(), 10u);
  EXPECT_GT(rep.tailer().bytes_behind(), 0u);  // the torn in-flight record

  // Refusals first: promoting onto the primary's own journal, or onto an
  // existing non-empty file, must fail without touching anything.
  std::unique_ptr<Journal> j2;
  ReplicaEngine::PromoteOptions popt;
  popt.journal_path = wal1;
  EXPECT_FALSE(rep.promote(popt, j2, &err));
  EXPECT_EQ(j2, nullptr);
  write_file(path("occupied.log"), "something else\n");
  popt.journal_path = path("occupied.log");
  EXPECT_FALSE(rep.promote(popt, j2, &err));
  EXPECT_NE(err.find("occupied.log"), std::string::npos) << err;

  // The real promotion: drains past the stable torn tail, writes the
  // promotion checkpoint at epoch 10, opens the fresh segment.
  popt.journal_path = path("wal2.log");
  ASSERT_TRUE(rep.promote(popt, j2, &err)) << err;
  ASSERT_NE(j2, nullptr);
  const auto series = persist::list_checkpoints(path("ck"));
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.front().first, 10u);
  persist::CheckpointData ck;
  ASSERT_TRUE(persist::read_checkpoint_file(series.front().second, ck, &err))
      << err;
  EXPECT_EQ(ck.snapshot, ref.reference[10]);  // byte-identical state
  EXPECT_EQ(ck.stream(), kStreamFp);

  // Life as the new primary: epochs 11..16 onto the fresh segment.
  for (size_t i = 10; i < 16; ++i) {
    fm.update_by_endpoints(ref.batches[i].deletions,
                           ref.batches[i].insertions);
    ASSERT_TRUE(j2->append(i + 1, ref.batches[i], &err)) << err;
  }
  j2.reset();
  EXPECT_EQ(save_str(fm), ref.reference[16]);

  // The promoted lineage recovers to the uninterrupted reference: the
  // dead primary's series is chained onto by wal2 through the promotion
  // checkpoint — nothing was rewritten.
  DynamicMatcher rm(cfg, pool);
  persist::RecoveryOptions recopt;
  recopt.checkpoint_prefix = path("ck");
  recopt.journal_path = path("wal2.log");
  recopt.expected_stream = kStreamFp;
  const persist::RecoveryReport rr = persist::recover(rm, recopt);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_EQ(rr.final_epoch, 16u);
  EXPECT_EQ(save_str(rm), ref.reference[16]);

  // The dead primary's journal still holds its torn record, untouched:
  // promotion never repairs the old segment.
  const std::string wal1_bytes = file_str(wal1);
  EXPECT_NE(wal1_bytes.find("torn in-flight bytes"), std::string::npos);
}

// Health reporting: the one-line format carries every field an operator
// triages lag with.
TEST_F(ReplicateTest, HealthFormatIsComplete) {
  ThreadPool pool(1);
  const Config cfg = replicate_config();
  const RefRun ref = drive_reference(cfg, pool, 3);
  write_journal(path("wal.log"), ref.batches);

  DynamicMatcher fm(cfg, pool);
  ReplicaOptions ropt;
  ropt.journal_path = path("wal.log");
  ReplicaEngine rep(fm, nullptr, ropt);
  std::string err;
  ASSERT_TRUE(rep.bootstrap(&err)) << err;
  ASSERT_EQ(rep.step(), TailStatus::kRecord) << rep.error();

  const replicate::ReplicaHealth h = rep.health();
  EXPECT_EQ(h.applied_epoch, 3u);
  EXPECT_EQ(h.durable_epoch, 3u);
  EXPECT_EQ(h.bytes_behind, 0u);
  EXPECT_GT(h.journal_bytes, 0u);
  const std::string line = h.format();
  for (const char* field : {"applied=", "durable=", "behind=", "records=",
                            "polls=", "status="}) {
    EXPECT_NE(line.find(field), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace pdmm
