// Slot-addressed containers: O(v), A(v,l), D(e) and the undecided sets erase
// a member by the position their lanes record, never by a search.
//
// MatchingChecker verifies every lane entry (the container holds the edge
// at the recorded position, for every structured edge, every endpoint slot
// and every D member), so the stream tests below run the oracle after every
// batch across ranks 1-4, through a rebuild and through save -> load ->
// continue. The loader derives the containers, and with them the lanes,
// from the edges.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/checker.h"
#include "core/matcher.h"
#include "param_name.h"
#include "workload/generators.h"

namespace pdmm {
namespace {

enum class Kind : uint32_t { kChurn, kOscillation, kPowerLaw };

// gtest prints the raw bytes of a parameter in the ctest name, so it must
// have no padding bytes.
struct LaneParams {
  Kind kind;
  uint32_t max_rank;
  uint32_t edge_rank;  // below max_rank: records with empty slots
};
static_assert(std::has_unique_object_representations_v<LaneParams>);

std::string save_str(const DynamicMatcher& m) {
  std::stringstream buf;
  EXPECT_TRUE(m.save(buf));
  return buf.str();
}

SnapshotError load_str(DynamicMatcher& m, const std::string& snapshot) {
  std::istringstream in(snapshot);
  return m.load(in);
}

// One stream of the given kind, as a batch source.
class Source {
 public:
  Source(Kind kind, uint32_t rank) : kind_(kind) {
    const Vertex n = rank == 1 ? 400 : 300;
    const size_t target = rank == 1 ? 150 : 360;
    if (kind == Kind::kChurn) {
      ChurnStream::Options o;
      o.n = n;
      o.rank = rank;
      o.target_edges = target;
      o.zipf_s = 0.6;  // hubs: D sets, multi-level A(v, l)
      o.seed = 40 + rank;
      churn_ = std::make_unique<ChurnStream>(o);
    } else if (kind == Kind::kOscillation) {
      OscillationStream::Options o;
      o.n = n;
      o.rank = rank;
      o.core_edges = target / 3;
      o.background_edges = target;
      o.seed = 50 + rank;
      osc_ = std::make_unique<OscillationStream>(o);
    } else {
      PowerLawStream::Options o;
      o.n = n;
      o.rank = rank;
      o.target_edges = target;
      o.seed = 60 + rank;
      power_ = std::make_unique<PowerLawStream>(o);
    }
  }

  Batch next(size_t k) {
    switch (kind_) {
      case Kind::kChurn:
        return churn_->next(k);
      case Kind::kOscillation:
        return osc_->next(k);
      case Kind::kPowerLaw:
        break;
    }
    return power_->next(k);
  }

 private:
  Kind kind_;
  std::unique_ptr<ChurnStream> churn_;
  std::unique_ptr<OscillationStream> osc_;
  std::unique_ptr<PowerLawStream> power_;
};

class SlotLanes : public testing::TestWithParam<LaneParams> {};

TEST_P(SlotLanes, LanesStayExactThroughRebuildsAndRestore) {
  const LaneParams p = GetParam();
  ThreadPool pool(1);
  Config cfg;
  cfg.max_rank = p.max_rank;
  cfg.seed = 0x51a7 + p.max_rank;
  cfg.check_invariants = true;  // the lane oracle after every batch
  // Small enough that the N-doubling rebuild lands on both sides of the
  // restore: it empties every container and lane and refills them.
  cfg.initial_capacity = 64;
  Source source(p.kind, p.edge_rank);
  constexpr size_t kBatch = 32;

  DynamicMatcher a(cfg, pool);
  int rebuilds_before = 0;
  for (int i = 0; i < 40; ++i) {
    const Batch b = source.next(kBatch);
    rebuilds_before += a.update_by_endpoints(b.deletions, b.insertions).rebuilt;
  }
  EXPECT_GT(rebuilds_before, 0);

  const std::string snap = save_str(a);
  DynamicMatcher b(cfg, pool);
  const SnapshotError err = load_str(b, snap);
  ASSERT_TRUE(err.ok()) << err.to_string();
  ASSERT_EQ(save_str(b), snap) << "restored lanes must re-save identically";

  // Continue until a rebuild has landed on the restored matcher and 20
  // batches have followed it (the N bound doubles per rebuild, so the wait
  // depends on the stream's update rate).
  int rebuilds_after = 0, after_rebuild = 0;
  for (int i = 0; i < 1000 && after_rebuild < 20; ++i) {
    after_rebuild += rebuilds_after > 0;
    const Batch batch = source.next(kBatch);
    const auto ra = a.update_by_endpoints(batch.deletions, batch.insertions);
    const auto rb = b.update_by_endpoints(batch.deletions, batch.insertions);
    ASSERT_EQ(ra.inserted_ids, rb.inserted_ids) << "batch " << i;
    ASSERT_EQ(ra.newly_matched, rb.newly_matched) << "batch " << i;
    ASSERT_EQ(ra.newly_unmatched, rb.newly_unmatched) << "batch " << i;
    ASSERT_EQ(ra.work, rb.work) << "batch " << i;
    ASSERT_EQ(ra.rounds, rb.rounds) << "batch " << i;
    ASSERT_EQ(ra.rebuilt, rb.rebuilt) << "batch " << i;
    rebuilds_after += rb.rebuilt;
  }
  EXPECT_GT(rebuilds_after, 0);
  EXPECT_EQ(save_str(a), save_str(b)) << "continuation diverged";
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SlotLanes,
    testing::Values(LaneParams{Kind::kChurn, 1, 1},
                    LaneParams{Kind::kChurn, 2, 2},
                    LaneParams{Kind::kChurn, 3, 3},
                    LaneParams{Kind::kChurn, 4, 4},
                    LaneParams{Kind::kChurn, 4, 2},
                    LaneParams{Kind::kOscillation, 1, 1},
                    LaneParams{Kind::kOscillation, 2, 2},
                    LaneParams{Kind::kOscillation, 3, 3},
                    LaneParams{Kind::kOscillation, 4, 4},
                    LaneParams{Kind::kPowerLaw, 1, 1},
                    LaneParams{Kind::kPowerLaw, 2, 2},
                    LaneParams{Kind::kPowerLaw, 3, 3},
                    LaneParams{Kind::kPowerLaw, 4, 4},
                    LaneParams{Kind::kPowerLaw, 4, 3}),
    [](const auto& info) {
      const LaneParams& p = info.param;
      const char* kind = p.kind == Kind::kChurn         ? "churn"
                         : p.kind == Kind::kOscillation ? "oscillation"
                                                        : "powerlaw";
      return testing_util::name_cat(kind, "_r", p.max_rank, "_e",
                                    p.edge_rank);
    });

// test_snapshot.cpp's SnapshotCorpus holds the loader's other refusals.
TEST(LaneRefusalsAtScale, DuplicateInAHubOwnedSetOfTwoToTheFifteen) {
  // A star: hub 0 at the top level matched to edge 0 = {0, 1}, and every
  // edge {0, i} owned by the hub — a valid between-batch state whose O(0)
  // holds 2^15 + 2 members, derived from the e lines alone. A last e line
  // that repeats an earlier edge's endpoint set must be refused on its
  // line by the registry's one probe, whatever the set's size.
  ThreadPool pool(1);
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = 5;
  cfg.auto_rebuild = false;
  DynamicMatcher m(cfg, pool);
  std::string head = save_str(m);  // header, cfg and sch of this Config
  size_t cut = 0;
  for (int i = 0; i < 3; ++i) cut = head.find('\n', cut) + 1;
  head.resize(cut);
  const std::string top = std::to_string(m.scheme().top_level());
  constexpr uint32_t kSpokes = (1u << 15) + 1;  // edges 1 .. kSpokes
  const auto spoke = [&](uint32_t e, uint32_t v) {
    return "e " + std::to_string(e) + " 2 0 " + std::to_string(v) + ' ' +
           top + " 0 0 4294967295\n";
  };

  head += "reg " + std::to_string(kSpokes + 1) + ' ' +
          std::to_string(kSpokes + 1) + '\n';
  head += "e 0 2 0 1 " + top + " 0 1 4294967295\n";
  for (uint32_t e = 1; e < kSpokes; ++e) head += spoke(e, e + 1);
  const std::string tail = "f\nnv " + std::to_string(kSpokes + 2) + "\nend\n";

  const SnapshotError loaded =
      load_str(m, head + spoke(kSpokes, kSpokes + 1) + tail);
  ASSERT_TRUE(loaded.ok()) << loaded.to_string();
  EXPECT_EQ(m.graph().num_edges(), kSpokes + 1);
  MatchingChecker::check(m);

  // The last e line repeats edge 1's endpoints {0, 2}.
  const SnapshotError err = load_str(m, head + spoke(kSpokes, 2) + tail);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.line, 5u + kSpokes) << err.to_string();
  EXPECT_NE(err.message.find("duplicate edge endpoint set"),
            std::string::npos)
      << err.to_string();
  EXPECT_EQ(m.graph().num_edges(), 0u);
  m.insert_batch(std::vector<std::vector<Vertex>>{{0, 1}, {2, 3}});
  EXPECT_EQ(m.matching_size(), 2u);
  MatchingChecker::check(m);
}

}  // namespace
}  // namespace pdmm
