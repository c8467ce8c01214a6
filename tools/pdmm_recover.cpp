// pdmm_recover: restores matcher state from a checkpoint series and/or a
// journal, verifies it, and optionally writes a plain snapshot of the
// result — the operator-facing entry to src/persist.
//
//   pdmm_recover --checkpoint=ck --journal=wal.log --check --out=state.snap
//       # newest valid checkpoint + journal tail; run the invariant
//       # checker; save the recovered state as a plain snapshot
//
//   pdmm_recover --replay_trace=trace.txt --epoch=E --rank=2
//       --matcher_seed=8 --initial_capacity=1048576 --out=ref.snap
//       # reference mode: apply the first E batches of a trace to a fresh
//       # matcher (flags must mirror the original server's Config). The
//       # kill-and-recover CI job byte-compares this against the
//       # recovered snapshot — replay determinism makes them identical.
//
//   pdmm_recover --checkpoint=ck --journal=wal --verify_checkpoint=ck.400
//       # integrity audit: recover as usual, then byte-compare the
//       # recovered snapshot at that checkpoint's epoch against the
//       # checkpoint file's own snapshot section. A mismatch means the
//       # journal and the checkpoint series disagree about the same epoch
//       # — the divergence a halted follower asks the operator to audit.
//
// In recovery mode the matcher Config comes from the newest readable
// checkpoint's meta section; with --journal only (no checkpoint), pass
// the Config flags explicitly, defaults mirror pdmm_serve's (its --seed=S
// becomes matcher seed S+1; the default S is 1).
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/checker.h"
#include "core/matcher.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "util/arg_parse.h"
#include "workload/trace.h"

using namespace pdmm;

namespace {

Config config_from_flags(ArgParse& args) {
  Config cfg;
  cfg.max_rank = args.get_u32("rank", 2);
  cfg.seed = args.get_u64("matcher_seed", 2);
  cfg.initial_capacity = args.get_u64("initial_capacity", 1 << 20);
  return cfg;
}

int finish(DynamicMatcher& m, bool check, const std::string& verify_ck,
           const std::string& out_path) {
  if (!verify_ck.empty()) {
    persist::CheckpointData ck;
    std::string err;
    if (!persist::read_checkpoint_file(verify_ck, ck, &err)) {
      std::cerr << "cannot read checkpoint to verify: " << err << "\n";
      return 1;
    }
    if (ck.epoch() != m.batch_epoch()) {
      std::cerr << "cannot verify: this state is at epoch "
                << m.batch_epoch() << " but " << verify_ck
                << " records epoch " << ck.epoch()
                << "; produce the matching state (--replay_trace with "
                   "--epoch=" << ck.epoch() << ", or a journal that ends "
                   "there)\n";
      return 1;
    }
    std::ostringstream os;
    if (!m.save(os)) {
      std::cerr << "cannot serialize state for verification\n";
      return 1;
    }
    if (os.str() != ck.snapshot) {
      std::cerr << "DIVERGENCE: state at epoch " << m.batch_epoch()
                << " is NOT byte-identical to " << verify_ck
                << " — the journal lineage and this checkpoint disagree\n";
      return 1;
    }
    std::cout << "verify: " << verify_ck
              << " is byte-identical at epoch " << ck.epoch() << "\n";
  }
  if (check) {
    MatchingChecker::check(m);  // aborts with a message on any violation
    std::cout << "checker: clean\n";
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out || !m.save(out)) {
      std::cerr << "cannot write snapshot to " << out_path << "\n";
      return 1;
    }
    std::cout << "snapshot written to " << out_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParse args(argc, argv);
  const std::string checkpoint_prefix = args.get_string("checkpoint", "");
  const std::string journal_path = args.get_string("journal", "");
  const std::string replay_trace = args.get_string("replay_trace", "");
  // Expected stream fingerprint (pdmm_serve prints the one it records).
  // Recovery then refuses state recorded under a different update stream;
  // the checkpoint-vs-journal fingerprint cross-check runs either way.
  const std::string expected_stream = args.get_string("stream", "");
  const uint64_t replay_epoch = args.get_u64("epoch", 0);
  const bool check = args.get_bool("check", false);
  const std::string verify_ck = args.get_string("verify_checkpoint", "");
  const std::string out_path = args.get_string("out", "");
  const uint32_t threads = args.get_u32("threads", 0);
  Config flag_cfg = config_from_flags(args);
  args.finish();

  ThreadPool pool(threads);

  if (!replay_trace.empty()) {
    // Reference mode: deterministic uninterrupted replay to --epoch.
    std::ifstream in(replay_trace);
    if (!in) {
      std::cerr << "cannot open trace " << replay_trace << "\n";
      return 1;
    }
    std::vector<Batch> trace;
    std::string err;
    if (!read_trace(in, trace, &err)) {
      std::cerr << "invalid trace: " << err << "\n";
      return 1;
    }
    if (replay_epoch > trace.size()) {
      std::cerr << "--epoch " << replay_epoch << " exceeds the "
                << trace.size() << "-batch trace\n";
      return 1;
    }
    DynamicMatcher m(flag_cfg, pool);
    for (uint64_t i = 0; i < replay_epoch; ++i) {
      m.update_by_endpoints(trace[i].deletions, trace[i].insertions);
    }
    std::cout << "replayed " << replay_epoch << " batches, final epoch "
              << m.batch_epoch() << ", |M|=" << m.matching_size() << "\n";
    return finish(m, check, verify_ck, out_path);
  }

  if (checkpoint_prefix.empty() && journal_path.empty()) {
    std::cerr << "need --checkpoint and/or --journal (or --replay_trace)\n";
    return 2;
  }

  // Recovery mode: Config from the newest readable checkpoint, flags as
  // the journal-only fallback. This walk is not select_checkpoint's: it
  // runs before a matcher exists, which that walk restores into.
  Config cfg = flag_cfg;
  bool cfg_from_checkpoint = false;
  if (!checkpoint_prefix.empty()) {
    for (const auto& [epoch, path] :
         persist::list_checkpoints(checkpoint_prefix)) {
      persist::CheckpointData ck;
      std::string err;
      if (!persist::read_checkpoint_file(path, ck, &err)) continue;
      if (ck.config(cfg)) {
        cfg_from_checkpoint = true;
        break;
      }
    }
    if (!cfg_from_checkpoint) {
      std::cerr << "warning: no checkpoint yielded a Config; using flag "
                   "defaults (rank "
                << cfg.max_rank << ", seed " << cfg.seed << ")\n";
    }
  }

  DynamicMatcher m(cfg, pool);
  persist::RecoveryOptions ropt;
  ropt.checkpoint_prefix = checkpoint_prefix;
  ropt.journal_path = journal_path;
  ropt.expected_stream = expected_stream;
  const persist::RecoveryReport rep = persist::recover(m, ropt);
  if (!rep.ok) {
    std::cerr << "recovery failed: " << rep.error << "\n";
    return 1;
  }
  std::cout << "checkpoint: "
            << (rep.checkpoint_path.empty() ? std::string("none")
                                            : rep.checkpoint_path)
            << " (epoch " << rep.checkpoint_epoch << ")";
  if (rep.skipped_checkpoints) {
    std::cout << ", " << rep.skipped_checkpoints << " damaged skipped";
  }
  std::cout << "\njournal: " << rep.replayed_batches << " batches replayed"
            << (rep.journal.truncated_tail ? ", torn tail dropped" : "")
            << "\n";
  std::cout << "final epoch " << rep.final_epoch
            << ", |M|=" << m.matching_size() << ", edges "
            << m.graph().num_edges() << "\n";
  return finish(m, check, verify_ck, out_path);
}
