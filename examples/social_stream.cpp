// social_stream: maintaining a maximal matching over a sliding window of a
// social interaction stream (the scenario of §1's "intrinsic dynamic
// nature"). Interactions arrive in bursts; only the most recent W survive.
// The matching approximates a maximum set of simultaneously-engageable
// user pairs (e.g. for pairing active users into sessions).
//
//   build/examples/example_social_stream [--users=N] [--window=W]
//       [--bursts=B] [--burst_size=K] [--zipf=S]
#include <cstdio>

#include "core/matcher.h"
#include "util/arg_parse.h"
#include "util/timer.h"
#include "workload/generators.h"

using namespace pdmm;

int main(int argc, char** argv) {
  ArgParse args(argc, argv);
  const Vertex users = args.get_u32("users", 1 << 14);
  const uint64_t window = args.get_u64("window", 1 << 14);
  const uint64_t bursts = args.get_u64("bursts", 64);
  const uint64_t burst_size = args.get_u64("burst_size", 1 << 11);
  const double zipf = args.get_double("zipf", 0.0);
  args.finish();
  (void)zipf;  // the sliding-window stream is uniform; see ChurnStream for skew

  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = 1;
  cfg.initial_capacity = 4 * window + 1024;
  ThreadPool pool;
  DynamicMatcher m(cfg, pool);

  SlidingWindowStream::Options so;
  so.n = users;
  so.window = window;
  so.seed = 99;
  SlidingWindowStream stream(so);

  std::printf("social_stream: %llu users, window %llu, %llu bursts x %llu "
              "interactions\n",
              static_cast<unsigned long long>(users),
              static_cast<unsigned long long>(window),
              static_cast<unsigned long long>(bursts),
              static_cast<unsigned long long>(burst_size));
  std::printf("%6s %10s %10s %10s %12s %10s\n", "burst", "live", "|M|",
              "rounds", "work", "ms");

  Timer total;
  for (uint64_t burst = 0; burst < bursts; ++burst) {
    Timer t;
    const Batch b = stream.next(burst_size);
    std::vector<EdgeId> dels;
    for (const auto& eps : b.deletions) dels.push_back(m.find_edge(eps));
    const auto res = m.update(dels, b.insertions);
    if (burst % 8 == 0 || burst + 1 == bursts) {
      std::printf("%6llu %10zu %10zu %10llu %12llu %10.2f\n",
                  static_cast<unsigned long long>(burst),
                  m.graph().num_edges(), m.matching_size(),
                  static_cast<unsigned long long>(res.rounds),
                  static_cast<unsigned long long>(res.work), t.millis());
    }
  }
  const double secs = total.seconds();
  const double updates =
      static_cast<double>(bursts) * 2.0 * static_cast<double>(burst_size);
  std::printf("throughput: %.0f updates/s (%.2f s total)\n", updates / secs,
              secs);
  std::printf("paired users at end: %zu of %llu active\n",
              2 * m.matching_size(),
              static_cast<unsigned long long>(users));
  std::printf(
      "(docs/ARCHITECTURE.md explains the update pipeline behind this)\n");
  return 0;
}
