// pdmm_trace: command-line driver that generates, records and replays
// update traces against any of the four matcher implementations. Traces
// travel over stdout / stdin so runs compose with shell pipelines.
//
//   pdmm_trace --mode=generate --n=4096 --batches=100 --batch_size=256
//       > trace.txt                  # add --zipf_s=0.8 or --window
//   pdmm_trace --mode=replay --impl=pdmm --rank=2 < trace.txt
//
// Replay prints one line per batch (matching size, rounds, work) and a
// final summary — handy for comparing implementations on a fixed workload
// or for reproducing a failure from a recorded trace.
#include <fstream>
#include <iostream>
#include <memory>

#include "baselines/greedy_dynamic.h"
#include "baselines/pdmm_adapter.h"
#include "baselines/sequential_dynamic.h"
#include "baselines/static_recompute.h"
#include "util/arg_parse.h"
#include "util/timer.h"
#include "workload/trace.h"

using namespace pdmm;

namespace {

int generate(ArgParse& args) {
  const Vertex n = args.get_u32("n", 1 << 12);
  const uint32_t rank = args.get_u32("rank", 2);
  const uint64_t target = args.get_u64("target_edges", 2 * uint64_t{n});
  const uint64_t batches = args.get_u64("batches", 100);
  const uint64_t batch_size = args.get_u64("batch_size", 256);
  const uint64_t seed = args.get_u64("seed", 1);
  const double zipf_s = args.get_double("zipf_s", 0.0);
  const bool window = args.get_bool("window", false);
  args.finish();
  const char* kind = window ? "window" : (zipf_s > 0 ? "zipf" : "churn");
  uint64_t total = 0;
  if (__builtin_mul_overflow(batches, batch_size, &total)) total = UINT64_MAX;
  // Refuses a shape the generator cannot serve before writing a byte.
  const auto require = [&](const ShapeError& e) {
    if (e) args.refuse(e.field, e.why);
  };

  std::vector<Batch> trace;
  if (window) {
    SlidingWindowStream::Options so;
    so.n = n;
    so.rank = rank;
    so.window = target;
    so.seed = seed;
    require(SlidingWindowStream::check(so, batch_size, total));
    SlidingWindowStream s(so);
    trace = record_stream(s, batches, batch_size);
  } else {
    ChurnStream::Options so;
    so.n = n;
    so.rank = rank;
    so.target_edges = target;
    so.zipf_s = zipf_s;
    so.seed = seed;
    require(ChurnStream::check(so, batch_size, total));
    ChurnStream s(so);
    trace = record_stream(s, batches, batch_size);
  }
  write_trace(std::cout, trace);
  std::cerr << "generated " << trace.size() << " batches (" << kind << ")\n";
  return 0;
}

int replay(ArgParse& args) {
  const std::string impl = args.get_string("impl", "pdmm");
  const uint32_t rank = args.get_u32("rank", 2);
  const uint64_t seed = args.get_u64("seed", 42);
  const bool quiet = args.get_bool("quiet", false);
  args.finish();

  std::vector<Batch> trace;
  std::string trace_err;
  if (!read_trace(std::cin, trace, &trace_err)) {
    std::cerr << "invalid trace: " << trace_err << "\n";
    return 1;
  }
  ThreadPool pool;
  std::unique_ptr<MatcherBase> m;
  if (impl == "pdmm") {
    Config cfg;
    cfg.max_rank = rank;
    cfg.seed = seed;
    cfg.initial_capacity = 1 << 20;
    m = std::make_unique<PdmmAdapter>(cfg, pool);
  } else if (impl == "sequential") {
    SequentialDynamicMatcher::Options opt;
    opt.max_rank = rank;
    opt.seed = seed;
    opt.initial_capacity = 1 << 20;
    m = std::make_unique<SequentialDynamicMatcher>(opt);
  } else if (impl == "greedy") {
    m = std::make_unique<GreedyDynamicMatcher>(rank);
  } else if (impl == "static") {
    m = std::make_unique<StaticRecomputeMatcher>(rank, seed, pool);
  } else {
    std::cerr << "unknown --impl (pdmm|sequential|greedy|static)\n";
    return 2;
  }

  Timer t;
  uint64_t updates = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    updates += trace[i].deletions.size() + trace[i].insertions.size();
    apply_batch(*m, trace[i]);
    if (!quiet) {
      const auto c = m->total_cost();
      std::cout << "batch " << i << ": edges=" << m->graph().num_edges()
                << " |M|=" << m->matching_size() << " rounds=" << c.rounds
                << " work=" << c.work << "\n";
    }
  }
  const double secs = t.seconds();
  const auto c = m->total_cost();
  std::cout << impl << ": " << trace.size() << " batches, " << updates
            << " updates, |M|=" << m->matching_size()
            << ", total work=" << c.work << ", total rounds=" << c.rounds
            << ", " << secs << " s ("
            << static_cast<uint64_t>(static_cast<double>(updates) /
                                     std::max(secs, 1e-9))
            << " upd/s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParse args(argc, argv);
  const std::string mode = args.get_string("mode", "replay");
  if (mode == "generate") return generate(args);
  if (mode == "replay") return replay(args);
  std::cerr << "unknown --mode=" << mode << " (generate|replay)\n";
  return 2;
}
