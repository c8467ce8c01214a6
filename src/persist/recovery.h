// Recovery: reconstructs a matcher after a crash or restart from the
// newest valid checkpoint plus the journal tail.
//
// The procedure (see docs/ARCHITECTURE.md "Durability & recovery"):
//   1. select_checkpoint(): walk "<prefix>.<epoch>" checkpoints
//      newest-first and load the first one whose sections checksum AND
//      whose snapshot passes the validating loader. Damaged checkpoints
//      are skipped, not fatal — an older checkpoint plus a longer journal
//      replay reaches the same state because replay is deterministic.
//   2. Read the journal with one poll of the journal reader (the torn tail
//      is dropped) and replay every record past the checkpoint epoch
//      through apply_journal_record(), streamed, so recovery memory stays
//      O(1 record) even for a journal-only restart over a multi-GB log.
//
// The follower (replicate/replica_engine) runs the same walk and the same
// apply step over the same reader, so a follower and a recovering process
// given the same files reach the same state or refuse them alike.
//
// The caller constructs the matcher with the Config the crashed process
// used (pdmm_recover reads it from the checkpoint meta; pdmm_serve
// rebuilds it from its own flags) — the walk compares it against every
// checkpoint's recorded Config, so a mismatched matcher is an error, never
// silent divergence.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "persist/journal.h"

namespace pdmm {

class DynamicMatcher;

namespace persist {

struct RecoveryOptions {
  std::string checkpoint_prefix;  // empty: journal-only (replay from empty)
  std::string journal_path;       // empty: checkpoint-only
  // Fingerprint of the update stream the restarting server will consume
  // (trace hash / generator parameters). Non-empty: a checkpoint or
  // journal recorded under a DIFFERENT fingerprint is a hard error —
  // resuming another stream's state and then applying this stream's
  // batches would diverge silently from the recovered epoch on. Empty: no
  // check against the caller, but checkpoint and journal fingerprints are
  // still required to agree with each other when both are recorded.
  std::string expected_stream;
};

struct RecoveryReport {
  bool ok = false;
  std::string error;
  std::string checkpoint_path;    // empty: started from an empty matcher
  uint64_t checkpoint_epoch = 0;
  uint64_t final_epoch = 0;
  size_t replayed_batches = 0;
  size_t skipped_checkpoints = 0;  // damaged/mismatched ones passed over
  bool journal_tail_truncated = false;
  // Durable-frontier facts from the journal scan, so a caller that wants
  // to keep appending can Journal::open_scanned() without re-reading the
  // whole log (meaningful only when journal_scanned).
  bool journal_scanned = false;
  uint64_t journal_valid_bytes = 0;
  uint64_t journal_last_epoch = 0;
  std::string journal_stream;  // fingerprint from the journal header
};

// What select_checkpoint() restored, or why it stopped.
struct CheckpointSelection {
  bool ok = false;     // false: a hard stop, error says why
  std::string error;
  std::string path;    // empty: no checkpoint restored (the matcher is empty)
  uint64_t epoch = 0;
  std::string stream;  // the restored checkpoint's recorded fingerprint
  size_t skipped = 0;  // damaged or misnamed files passed over
  std::string last_skip;  // why the last of them was skipped
};

// The checkpoint walk: restores `m` (freshly constructed) from the newest
// "<prefix>.<epoch>" that validates end to end. Damaged files, files
// renamed to another epoch and files whose meta epoch disagrees with
// their snapshot are skipped with the matcher left empty. A CRC-valid
// checkpoint recorded from another stream (when `expected_stream` is
// non-empty) or under another Config is operator error, not damage —
// skipping to an older file of the same wrong lineage cannot help, and a
// fallback replay under the wrong Config would "succeed" into a diverged
// lineage — so it is a hard stop. No checkpoint at all is ok (path empty).
CheckpointSelection select_checkpoint(DynamicMatcher& m,
                                      const std::string& prefix,
                                      const std::string& expected_stream);

// The record-apply step: applies journal record `rec` to `m`, whose batch
// epoch must be rec.epoch - 1 (callers skip records a checkpoint already
// covers). A record that cannot apply to this state — an endpoint list
// past the matcher's rank, or a deletion of an edge the matcher does not
// have — proves the journal and the state are not one lineage, and
// update() would abort on it, so it is refused first. An insertion
// duplicating a present edge is NOT refused: update() skips it
// deterministically, and a legitimate run's journal may contain one.
// False (with *error) on refusal, or when the batch counter did not reach
// rec.epoch.
bool apply_journal_record(DynamicMatcher& m, const JournalRecord& rec,
                          std::string* error);

// Restores `m` (which must be freshly constructed with the original
// Config) to the last durable epoch. On failure the report's error says
// why and the matcher state is unspecified (possibly mid-replay) — a
// caller that wants to retry must construct a fresh matcher.
RecoveryReport recover(DynamicMatcher& m, const RecoveryOptions& opt);

// Opens the journal for append at the frontier a successful recovery
// established, reusing the report's scan facts (no second full read of
// the log). recover() refuses shapes the append could not continue from
// (a checkpoint ahead of a non-empty journal, epoch gaps), so the handle
// this returns always appends contiguously at report.final_epoch + 1.
// Opens with Journal::Options::repair regardless of `opt`: the caller
// recovered from this journal, so it owns the file and a torn tail is
// its own crashed append — the one situation truncation is safe.
std::unique_ptr<Journal> open_journal_after_recovery(
    const std::string& path, Journal::Options opt,
    const RecoveryReport& report, std::string* error);

}  // namespace persist
}  // namespace pdmm
