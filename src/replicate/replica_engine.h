// ReplicaEngine: a read-only follower of a live primary, built from the
// lineage path recovery already uses — one checkpoint walk, one journal
// reader, one record-apply step (all in persist/) — run against files the
// primary is still writing:
//
//   bootstrap   The primary's checkpoint series is atomically placed
//               (tmp+rename) and written only AFTER its covering journal
//               group committed, so any checkpoint a follower can see
//               names an epoch the journal already holds. Restoring the
//               newest valid one (persist::select_checkpoint) gives a
//               correct state at epoch E with the journal guaranteed to
//               continue from <= E+1.
//
//   tail-replay The JournalTailer delivers every record the primary made
//   + follow    durable, exactly once, in epoch order, distinguishing an
//               in-flight append (retry) from rot (halt). Applying each
//               record (persist::apply_journal_record) through the same
//               deterministic matcher the primary runs reproduces the
//               primary's state BYTE-IDENTICALLY —
//               that is the repo's replay-determinism contract, and the
//               follower leans on it completely: no state is shipped,
//               only the log.
//
//   divergence  Determinism is also checkable, not just assumed: whenever
//               the follower's applied epoch matches a primary checkpoint
//               file, the follower serializes its own state and compares
//               byte-for-byte against the checkpoint's snapshot section.
//               Any mismatch (cosmic rot the CRCs missed, a config drift,
//               a nondeterminism bug) halts the follower LOUDLY — serving
//               stale-but-honest views is recoverable, serving diverged
//               views is not.
//
//   promotion   On primary death, the follower drains the tail (a stable
//               torn record is the primary's non-durable in-flight write
//               and is correctly dropped), verifies its applied epoch is
//               the durable watermark, writes a promotion checkpoint at
//               that epoch into the series, and opens a FRESH journal
//               segment. The checkpoint is the lineage link: recovery
//               accepts checkpoint@E + a journal starting at E+1, so the
//               promoted node's artifacts chain onto the dead primary's
//               without rewriting anything.
//
// Threading: the entire engine runs on the thread that owns the matcher
// (the follower's updater thread). Readers see state only through the
// MatchViewService's wait-free channel; views are published only for
// fully-validated (durable) records.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/matcher.h"
#include "persist/journal.h"
#include "serve/view_service.h"
#include "util/backoff.h"

namespace pdmm::replicate {

// The journal reader lives in persist/, shared with recovery; the
// follower knows it by these names.
using JournalTailer = persist::JournalTailer;
using TailStatus = persist::TailStatus;

struct ReplicaOptions {
  // The primary's live journal (required).
  std::string journal_path;
  // The primary's checkpoint series prefix. Optional; when empty the
  // follower bootstraps from an empty matcher (full-log replay), skips
  // divergence cross-checks, and cannot promote.
  std::string checkpoint_prefix;
  // Expected update-stream fingerprint; enforced against both the journal
  // header and checkpoint meta when non-empty.
  std::string expected_stream;
  // Cross-check state against primary checkpoints at matching epochs.
  bool verify_checkpoints = true;
  // Retry schedule for promote()'s drain loop (the steady-state follow
  // loop's pacing belongs to the caller, which owns the poll cadence).
  util::Backoff::Options backoff;
  // Consecutive no-progress polls promote() requires before it treats the
  // tail as drained. A pending (torn) tail that stays byte-stable this
  // long is the dead primary's in-flight record: never durable, safe to
  // leave behind.
  uint64_t promote_stable_polls = 3;
};

struct ReplicaHealth {
  uint64_t applied_epoch = 0;    // matcher state == primary at this epoch
  uint64_t durable_epoch = 0;    // tailer watermark (== applied, steady)
  uint64_t primary_checkpoint_epoch = 0;  // newest series file seen
  uint64_t bytes_behind = 0;     // unvalidated bytes at the frontier
  uint64_t journal_bytes = 0;    // file size at the last poll
  uint64_t records_applied = 0;
  uint64_t polls = 0;
  uint64_t checkpoints_verified = 0;  // divergence cross-checks passed
  TailStatus last_status = TailStatus::kIdle;

  // One line for an operator: "applied=12 durable=12 behind=0B ...".
  std::string format() const;
};

class ReplicaEngine {
 public:
  // `service` may be null (no view publication — bench/tools that only
  // want the state). Must be constructed with install_hook=false when
  // given: the engine owns publication.
  ReplicaEngine(DynamicMatcher& m, MatchViewService* service,
                ReplicaOptions opt);

  ReplicaEngine(const ReplicaEngine&) = delete;
  ReplicaEngine& operator=(const ReplicaEngine&) = delete;

  // Restores the matcher from the newest valid primary checkpoint (empty
  // or absent series: starts from the empty matcher) and publishes the
  // bootstrap view. Must be called once, before the first step().
  bool bootstrap(std::string* error);

  // One tail poll: applies every newly-durable record in order, then
  // publishes one view of the result. kFailed is terminal and sticky;
  // error() says why. kPending/kIdle mean "nothing new — poll again
  // after a backoff of the caller's choosing".
  TailStatus step();

  // Failover. Drains the tail to a stable frontier, verifies the applied
  // epoch IS the durable watermark, cross-checks divergence one last
  // time, writes a promotion checkpoint at the applied epoch into the
  // series, and opens `journal_path` as a fresh segment (refused if it
  // exists non-empty) recording the same stream fingerprint. On success
  // the matcher is the new primary's state and `out_journal` its WAL;
  // wiring both into an UpdateEngine makes the promotion complete.
  struct PromoteOptions {
    std::string journal_path;   // fresh segment target (required)
    size_t checkpoint_keep = 4;
    bool fsync = false;         // durability tier for checkpoint + journal
  };
  bool promote(const PromoteOptions& opt,
               std::unique_ptr<persist::Journal>& out_journal,
               std::string* error);

  ReplicaHealth health() const;
  uint64_t applied_epoch() const { return matcher_.batch_epoch(); }
  const JournalTailer& tailer() const { return tailer_; }
  const std::string& error() const { return error_; }
  bool failed() const { return failed_; }
  // Stream fingerprint governing the lineage: the journal header's when
  // recorded, else the bootstrap checkpoint's, else expected_stream.
  const std::string& stream() const { return stream_; }

 private:
  bool apply_record(persist::JournalRecord&& rec);
  // Divergence cross-check against <prefix>.<epoch> if that file exists.
  // False only on a PROVEN mismatch (sets the terminal error); a missing,
  // pruned, or damaged checkpoint file is not evidence and is skipped.
  bool verify_against_checkpoint(uint64_t epoch);
  TailStatus fail(std::string why);

  DynamicMatcher& matcher_;
  MatchViewService* service_;
  const ReplicaOptions opt_;
  JournalTailer tailer_;
  std::string stream_;
  std::string apply_error_;  // set inside the sink, surfaced by step()
  std::string error_;
  bool bootstrapped_ = false;
  bool failed_ = false;
  uint64_t records_applied_ = 0;  // excludes bootstrap-covered epochs
  uint64_t ck_verified_ = 0;
  uint64_t primary_ck_epoch_ = 0;
  TailStatus last_status_ = TailStatus::kIdle;
};

}  // namespace pdmm::replicate
