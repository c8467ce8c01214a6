#include "persist/recovery.h"

#include <sstream>

#include "core/matcher.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"

namespace pdmm::persist {

namespace {

// The Config fields replay determinism depends on: a checkpoint recorded
// under any other value continues a different lineage.
bool same_lineage(const Config& a, const Config& b) {
  return a.max_rank == b.max_rank && a.seed == b.seed &&
         a.settle_after_insertions == b.settle_after_insertions &&
         a.subsettle_iter_factor == b.subsettle_iter_factor &&
         a.max_settle_repeats == b.max_settle_repeats &&
         a.max_eager_sweeps == b.max_eager_sweeps &&
         a.auto_rebuild == b.auto_rebuild;
}

}  // namespace

CheckpointSelection select_checkpoint(DynamicMatcher& m,
                                      const std::string& prefix,
                                      const std::string& expected_stream) {
  CheckpointSelection sel;
  const auto skip = [&](std::string why) {
    ++sel.skipped;
    sel.last_skip = std::move(why);
  };
  for (const auto& [epoch, path] : list_checkpoints(prefix)) {
    CheckpointData ck;
    std::string err;
    if (!read_checkpoint_file(path, ck, &err)) {
      skip(err);
      continue;
    }
    if (!expected_stream.empty() && !ck.stream().empty() &&
        ck.stream() != expected_stream) {
      sel.error = path + ": checkpoint was recorded from a different "
                  "update stream (checkpoint: \"" + ck.stream() +
                  "\", expected: \"" + expected_stream + "\")";
      return sel;
    }
    Config ck_cfg;
    if (ck.config(ck_cfg) && !same_lineage(ck_cfg, m.config())) {
      sel.error = path + ": checkpoint was written under a different "
                  "Config (rank/seed/settle parameters); run with the "
                  "original flags or the replay diverges";
      return sel;
    }
    if (ck.epoch() != epoch) {  // renamed/copied under the wrong epoch
      skip(path + ": checkpoint epoch disagrees with its filename");
      continue;
    }
    std::istringstream snap(ck.snapshot);
    if (SnapshotError serr = m.load(snap); !serr.ok()) {
      skip(path + ": " + serr.to_string());
      continue;
    }
    if (m.batch_epoch() != ck.epoch()) {
      // Meta and snapshot disagree: reject the checkpoint — and discard
      // the state it already loaded into m, or a fallback replay would
      // build on top of it.
      m.reset_to_empty();
      skip(path + ": checkpoint epoch disagrees with its snapshot");
      continue;
    }
    sel.path = path;
    sel.epoch = epoch;
    sel.stream = ck.stream();
    break;
  }
  sel.ok = true;
  return sel;
}

std::string expected_journal_stream(const CheckpointSelection& ck,
                                    const std::string& expected_stream) {
  return expected_stream.empty() ? ck.stream : expected_stream;
}

bool journal_reaches_checkpoint(uint64_t journal_records,
                                uint64_t journal_last_epoch,
                                uint64_t checkpoint_epoch,
                                std::string* error) {
  if (journal_records == 0 || journal_last_epoch >= checkpoint_epoch) {
    return true;
  }
  if (error) {
    *error = "journal ends at epoch " + std::to_string(journal_last_epoch) +
             " but the checkpoint claims epoch " +
             std::to_string(checkpoint_epoch) +
             "; not the same run's lineage (a process kill cannot "
             "produce this). Delete the stale checkpoints to keep the "
             "journal's state, or delete the journal to accept the "
             "checkpoint's";
  }
  return false;
}

bool apply_journal_record(DynamicMatcher& m, const JournalRecord& rec,
                          std::string* error) {
  const auto refuse = [&](const std::string& why) {
    if (error) *error = "journal record " + std::to_string(rec.epoch) + why;
    return false;
  };
  if (rec.epoch != m.batch_epoch() + 1) {
    return refuse(" does not follow the state's epoch " +
                  std::to_string(m.batch_epoch()) +
                  " (the records between are lost, or in an earlier "
                  "journal segment)");
  }
  const size_t rank = m.config().max_rank;
  // The ids validated here are the ones the update applies, so each
  // deletion costs one registry lookup.
  std::vector<EdgeId> dels;
  dels.reserve(rec.batch.deletions.size());
  for (const auto& eps : rec.batch.deletions) {
    // Bound the rank before find_edge — the registry lookup itself
    // asserts on an over-rank endpoint list.
    const EdgeId e = (eps.empty() || eps.size() > rank) ? kNoEdge
                                                        : m.find_edge(eps);
    if (e == kNoEdge) {
      return refuse(" deletes an edge this state does not contain (the "
                    "journal does not match the checkpoint it replays "
                    "onto)");
    }
    dels.push_back(e);
  }
  for (const auto& eps : rec.batch.insertions) {
    if (eps.empty() || eps.size() > rank) {
      return refuse(" inserts an edge outside this matcher's rank");
    }
  }
  m.update(dels, rec.batch.insertions);
  if (m.batch_epoch() != rec.epoch) {
    return refuse(" diverged the replay: the matcher reached epoch " +
                  std::to_string(m.batch_epoch()));
  }
  return true;
}

RecoveryReport recover(DynamicMatcher& m, const RecoveryOptions& opt) {
  RecoveryReport rep;
  if (opt.checkpoint_prefix.empty() && opt.journal_path.empty()) {
    rep.error = "nothing to recover from (no checkpoint prefix, no journal)";
    return rep;
  }

  // 1. Newest checkpoint that validates end-to-end.
  CheckpointSelection ck;
  if (!opt.checkpoint_prefix.empty()) {
    ck = select_checkpoint(m, opt.checkpoint_prefix, opt.expected_stream);
    if (!ck.ok) {
      rep.error = ck.error;
      return rep;
    }
    rep.checkpoint_path = ck.path;
    rep.checkpoint_epoch = ck.epoch;
    rep.skipped_checkpoints = ck.skipped;
    if (ck.path.empty() && opt.journal_path.empty()) {
      rep.error = ck.skipped ? "no valid checkpoint (" + ck.last_skip + ")"
                             : "no checkpoint files found under prefix " +
                                   opt.checkpoint_prefix;
      return rep;
    }
  }

  // 2. Journal tail replay, streamed: every durable record is validated
  // and applied DURING the read, so recovery memory is O(1 record)
  // regardless of log length — including journal-only recovery, which
  // replays the whole history. The price is that a journal invalid beyond
  // the tail (mid-file rot, epoch gap) fails recovery with the matcher
  // already mid-replay; the contract already leaves the matcher
  // unspecified on failure, and a caller that retries must construct a
  // fresh one.
  if (!opt.journal_path.empty()) {
    std::string sink_error;
    const JournalRecordSink sink = [&](JournalRecord&& rec) {
      if (rec.epoch <= m.batch_epoch()) return true;  // in the checkpoint
      if (!apply_journal_record(m, rec, &sink_error)) return false;
      ++rep.replayed_batches;
      return true;
    };
    // The reader refuses a journal of another stream before a single
    // record is replayed.
    const JournalScan scan = scan_journal_streamed(
        opt.journal_path, sink,
        expected_journal_stream(ck, opt.expected_stream));
    if (!scan.ok) {
      rep.error = sink_error.empty() ? scan.error : sink_error;
      return rep;
    }
    rep.journal = scan;
    if (rep.checkpoint_path.empty() && rep.skipped_checkpoints > 0 &&
        scan.record_count == 0) {
      // Every checkpoint is damaged and the journal holds nothing: an
      // empty matcher is NOT the durable state, it is data loss.
      rep.error = "all checkpoints damaged (" + ck.last_skip +
                  ") and the journal holds no records to rebuild from";
      return rep;
    }
    // (When this refuses, no record had an epoch past the checkpoint's,
    // so the sink applied nothing and the checkpoint state is intact.)
    if (!journal_reaches_checkpoint(scan.record_count, scan.last_epoch,
                                    rep.checkpoint_epoch, &rep.error)) {
      return rep;
    }
    // Journal-only recovery of an empty/fresh journal is fine: an empty
    // matcher at epoch 0 is the correct durable state.
  }

  rep.final_epoch = m.batch_epoch();
  rep.ok = true;
  return rep;
}

std::unique_ptr<Journal> open_journal_after_recovery(
    const std::string& path, Journal::Options opt,
    const RecoveryReport& report, std::string* error) {
  // The caller just recovered from this journal, so it IS the owner and
  // any torn tail is its own crashed append (recover() already refused
  // mid-file rot); grant the truncate permission on its behalf.
  opt.repair = true;
  if (report.journal.ok) {
    // Recovery already validated the whole log; reuse its durable
    // frontier instead of paying a second full scan. recover() has
    // already refused every journal/checkpoint shape whose append would
    // not continue contiguously from the recovered epoch.
    return Journal::open_scanned(path, opt, report.journal, error);
  }
  return Journal::open(path, opt, error);
}

}  // namespace pdmm::persist
