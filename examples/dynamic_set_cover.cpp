// dynamic_set_cover: maintaining an f-approximate set cover under element
// churn via hypergraph maximal matching — the application that motivates
// the hypergraph generality in Assadi–Solomon [AS21], which this paper
// parallelizes.
//
// Encoding: one *vertex* per set, one *hyperedge* per element (its
// endpoints are the <= f sets containing it). A maximal matching M over
// the element-hyperedges yields a vertex cover (all endpoints of M, i.e.
// DynamicMatcher::vertex_cover()) that touches every hyperedge — i.e. a
// set cover of all elements — of size <= f * OPT.
// Elements arriving/leaving are exactly hyperedge insertions/deletions.
//
//   build/examples/example_dynamic_set_cover [--sets=S] [--freq=F]
//       [--elements=E] [--rounds=R]
#include <cstdio>

#include "core/matcher.h"
#include "util/arg_parse.h"
#include "util/rng.h"

using namespace pdmm;

int main(int argc, char** argv) {
  ArgParse args(argc, argv);
  const uint64_t sets = args.get_u64("sets", 500);
  const uint32_t freq = args.get_u32("freq", 3);  // f: sets per element
  const uint64_t elements = args.get_u64("elements", 4000);
  const uint64_t rounds = args.get_u64("rounds", 30);
  args.finish();

  Config cfg;
  cfg.max_rank = freq;
  cfg.seed = 9;
  cfg.initial_capacity = 1 << 18;
  ThreadPool pool;
  DynamicMatcher m(cfg, pool);
  Xoshiro256 rng(31);

  auto random_element = [&]() {
    std::vector<Vertex> owner_sets(freq);
    while (true) {
      for (auto& s : owner_sets) s = static_cast<Vertex>(rng.below(sets));
      std::sort(owner_sets.begin(), owner_sets.end());
      if (std::adjacent_find(owner_sets.begin(), owner_sets.end()) ==
          owner_sets.end())
        return owner_sets;
    }
  };

  std::printf("dynamic_set_cover: %llu sets, f=%llu, %llu initial elements\n",
              static_cast<unsigned long long>(sets),
              static_cast<unsigned long long>(freq),
              static_cast<unsigned long long>(elements));

  std::vector<std::vector<Vertex>> init;
  for (uint64_t i = 0; i < elements; ++i) init.push_back(random_element());
  m.insert_batch(init);

  std::printf("%6s %10s %12s %12s %14s\n", "round", "elements", "cover size",
              "matching", "rounds/batch");
  for (uint64_t round = 0; round < rounds; ++round) {
    // 20% of elements churn out, replaced by fresh ones.
    std::vector<EdgeId> gone;
    for (EdgeId e : m.graph().all_edges())
      if (rng.uniform() < 0.2) gone.push_back(e);
    std::vector<std::vector<Vertex>> arrive;
    for (size_t i = 0; i < gone.size(); ++i) arrive.push_back(random_element());
    const auto res = m.update(gone, arrive);

    const auto cover = m.vertex_cover();
    if (round % 5 == 0 || round + 1 == rounds) {
      std::printf("%6llu %10zu %12zu %12zu %14llu\n",
                  static_cast<unsigned long long>(round),
                  m.graph().num_edges(), cover.size(), m.matching_size(),
                  static_cast<unsigned long long>(res.rounds));
    }
    // The cover really covers: every element has an owning set in it.
    std::vector<uint8_t> chosen(sets, 0);
    for (Vertex s : cover) chosen[s] = 1;
    for (EdgeId e : m.graph().all_edges()) {
      bool covered = false;
      for (Vertex s : m.graph().endpoints(e)) covered |= chosen[s];
      if (!covered) {
        std::printf("BUG: uncovered element %u\n", e);
        return 1;
      }
    }
  }
  std::printf("final cover: %zu of %llu sets (guarantee: <= %llu * OPT)\n",
              m.vertex_cover().size(), static_cast<unsigned long long>(sets),
              static_cast<unsigned long long>(freq));
  std::printf(
      "(docs/ARCHITECTURE.md explains the update pipeline behind this)\n");
  return 0;
}
