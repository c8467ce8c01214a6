// Cross-thread-count determinism of the batch-parallel update path.
//
// The matcher's contract (matcher.h) promises bit-identical state and
// counters for a fixed seed regardless of the pool size. The structural
// phases, the S_l bitmask refresh and the chunk-claim thread pool all lean
// on that promise — every mutation batch is totally ordered by
// construction — so this suite drives a seeds x threads(1,2,4,8) matrix
// over the three scenario streams (churn, power-law hubs, oscillation) and
// asserts that the full serialized state, the matching, and the work /
// rounds counters match the single-thread reference exactly, batch by
// batch.
//
// The pools here opt into oversubscription (the production default clamps
// to the hardware concurrency), so the matrix exercises genuinely
// concurrent, preemption-diverse schedules even on a small CI box.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/checker.h"
#include "core/matcher.h"
#include "parallel/parallel_for.h"
#include "param_name.h"
#include "workload/generators.h"

namespace pdmm {
namespace {

struct RunResult {
  std::string snapshot;   // full serialized matcher state
  uint64_t work = 0;
  uint64_t rounds = 0;
  size_t matching = 0;
  std::vector<uint64_t> per_batch_work;  // localizes a divergence
  std::vector<size_t> per_batch_inserted;  // accepted insertions per batch
};

enum class StreamKind : uint64_t { kChurn, kPowerLaw, kOscillation };

const char* stream_name(StreamKind k) {
  switch (k) {
    case StreamKind::kChurn: return "churn";
    case StreamKind::kPowerLaw: return "powerlaw";
    default: return "oscillation";
  }
}

template <typename Stream>
void drive(DynamicMatcher& m, Stream& stream, size_t batches,
           size_t batch_size, RunResult& out) {
  for (size_t i = 0; i < batches; ++i) {
    const Batch b = stream.next(batch_size);
    std::vector<EdgeId> dels;
    dels.reserve(b.deletions.size());
    for (const auto& eps : b.deletions) {
      const EdgeId e = m.find_edge(eps);
      ASSERT_NE(e, kNoEdge);
      dels.push_back(e);
    }
    const auto res = m.update(dels, b.insertions);
    out.work += res.work;
    out.rounds += res.rounds;
    out.per_batch_work.push_back(res.work);
    size_t inserted = 0;
    for (const EdgeId e : res.inserted_ids) inserted += e != kNoEdge;
    out.per_batch_inserted.push_back(inserted);
  }
}

RunResult run_stream(StreamKind kind, uint64_t seed, unsigned threads) {
  ThreadPool pool(threads, /*allow_oversubscribe=*/true);
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = seed;
  cfg.initial_capacity = 1 << 14;
  cfg.auto_rebuild = false;
  DynamicMatcher m(cfg, pool);

  RunResult out;
  constexpr size_t kBatches = 20;
  constexpr size_t kBatchSize = 96;
  switch (kind) {
    case StreamKind::kChurn: {
      ChurnStream::Options so;
      so.n = 512;
      so.target_edges = 1024;
      so.seed = seed + 101;
      ChurnStream stream(so);
      drive(m, stream, kBatches, kBatchSize, out);
      break;
    }
    case StreamKind::kPowerLaw: {
      PowerLawStream::Options so;
      so.n = 512;
      so.target_edges = 1024;
      so.s = 1.1;
      so.seed = seed + 202;
      PowerLawStream stream(so);
      drive(m, stream, kBatches, kBatchSize, out);
      break;
    }
    case StreamKind::kOscillation: {
      OscillationStream::Options so;
      so.n = 512;
      so.core_edges = 256;
      so.background_edges = 512;
      so.seed = seed + 303;
      OscillationStream stream(so);
      drive(m, stream, kBatches, kBatchSize, out);
      break;
    }
  }

  out.matching = m.matching_size();
  // Full invariant sweep at every matrix point: besides the paper's
  // invariants this cross-validates the SoA hot lanes against the cold
  // per-vertex structures at each thread count before bytes are compared.
  MatchingChecker::check(m);
  std::ostringstream snap;
  EXPECT_TRUE(m.save(snap));
  out.snapshot = snap.str();
  return out;
}

// gtest prints this struct's raw bytes in each test name; StreamKind is
// eight bytes wide so no padding byte (leftover stack data) varies them.
struct MatrixParams {
  StreamKind stream;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<MatrixParams>,
              "padding bytes would make the test names nondeterministic");

std::string matrix_name(const testing::TestParamInfo<MatrixParams>& info) {
  return testing_util::name_cat(stream_name(info.param.stream), "_s",
                                info.param.seed);
}

class ThreadDeterminism : public testing::TestWithParam<MatrixParams> {};

TEST_P(ThreadDeterminism, StateAndCountersMatchAcrossThreadCounts) {
  const auto p = GetParam();
  const RunResult ref = run_stream(p.stream, p.seed, 1);
  EXPECT_GT(ref.matching, 0u);
  EXPECT_GT(ref.work, 0u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const RunResult got = run_stream(p.stream, p.seed, threads);
    ASSERT_EQ(got.per_batch_work.size(), ref.per_batch_work.size());
    for (size_t i = 0; i < ref.per_batch_work.size(); ++i) {
      ASSERT_EQ(got.per_batch_work[i], ref.per_batch_work[i])
          << stream_name(p.stream) << ": work diverged at batch " << i
          << " with " << threads << " threads";
    }
    EXPECT_EQ(got.work, ref.work) << threads << " threads";
    EXPECT_EQ(got.rounds, ref.rounds) << threads << " threads";
    EXPECT_EQ(got.matching, ref.matching) << threads << " threads";
    // The serialized state captures every structure including container
    // iteration orders — byte equality means the two instances are
    // indistinguishable forever after.
    EXPECT_EQ(got.snapshot, ref.snapshot)
        << stream_name(p.stream) << ": state diverged with " << threads
        << " threads";
  }
}

// The wide matrix point: batches wide enough that the matcher's pooled
// loops split into chunks and run concurrently. A parallel region runs
// serially up to kDefaultGrain = 2048 items, and the points above never
// get there: a 96-update batch on n = 512 stays far below it. Here
// ChurnStream on n = 2^13 with a 2^14-edge target inserts only until
// 2^14 - 2^14 / 10 = 14746 edges are live, so each of the first three
// 4096-update batches is 4096 insertions: phase_insert's pack and
// insert_edges_into_structures' record-building loop run over 4096 ids in
// two chunks. The last two batches mix deletions in at the target. The
// point runs under max_rank 2 and 3: the rank-2 churn under max_rank = 3
// leaves one record slot in three empty (12,288 slots per 4096-insertion
// batch), and the structural applies must skip them alike at every size.
constexpr size_t kWideBatch = 4096;

RunResult run_wide(uint64_t seed, uint32_t max_rank, unsigned threads) {
  ThreadPool pool(threads, /*allow_oversubscribe=*/true);
  Config cfg;
  cfg.max_rank = max_rank;
  cfg.seed = seed;
  cfg.initial_capacity = 1 << 16;
  cfg.auto_rebuild = false;
  DynamicMatcher m(cfg, pool);

  ChurnStream::Options so;
  so.n = 1 << 13;
  so.target_edges = 1 << 14;
  so.seed = seed + 404;
  ChurnStream stream(so);
  RunResult out;
  drive(m, stream, /*batches=*/5, kWideBatch, out);

  out.matching = m.matching_size();
  MatchingChecker::check(m);
  std::ostringstream snap;
  EXPECT_TRUE(m.save(snap));
  out.snapshot = snap.str();
  return out;
}

TEST(ThreadDeterminismWide, WideBatchesMatchAcrossThreadCounts) {
  for (const uint32_t max_rank : {2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "max_rank " << max_rank);
    const RunResult ref = run_wide(9, max_rank, 1);
    // The first batch's accepted insertions are the id count of its insert
    // phase's regions; above kDefaultGrain those regions split into chunks.
    ASSERT_FALSE(ref.per_batch_inserted.empty());
    ASSERT_GT(ref.per_batch_inserted.front(), kDefaultGrain)
        << "the wide point no longer runs the insert phase's loops in chunks";
    EXPECT_GT(ref.matching, 0u);
    for (const unsigned threads : {2u, 4u, 8u}) {
      const RunResult got = run_wide(9, max_rank, threads);
      EXPECT_EQ(got.per_batch_work, ref.per_batch_work)
          << threads << " threads";
      EXPECT_EQ(got.work, ref.work) << threads << " threads";
      EXPECT_EQ(got.rounds, ref.rounds) << threads << " threads";
      EXPECT_EQ(got.matching, ref.matching) << threads << " threads";
      EXPECT_EQ(got.snapshot, ref.snapshot)
          << "wide churn: state diverged with " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByStreams, ThreadDeterminism,
    testing::Values(MatrixParams{StreamKind::kChurn, 7},
                    MatrixParams{StreamKind::kChurn, 8},
                    MatrixParams{StreamKind::kPowerLaw, 7},
                    MatrixParams{StreamKind::kPowerLaw, 8},
                    MatrixParams{StreamKind::kOscillation, 7},
                    MatrixParams{StreamKind::kOscillation, 8}),
    matrix_name);

}  // namespace
}  // namespace pdmm
