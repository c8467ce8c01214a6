// Journal: an append-only, checksummed write-ahead log of update batches.
//
// One record per `update()` batch, appended after the batch committed in
// memory and flushed before the next batch begins, so after a crash the
// log holds every durable batch and at most one torn tail:
//
//   pdmm-journal v1
//   stream <fingerprint>            (optional, written at creation)
//   rec <epoch> <nbytes> <crc32>
//   <payload: the batch in trace op encoding (append_batch), nbytes bytes>
//   rec ...
//
// The optional `stream` line names the update stream this log was recorded
// from (a trace-file hash or the generator's parameters). Re-opening for
// append with a different fingerprint is refused, and recovery refuses to
// replay a journal whose fingerprint disagrees with the caller's stream or
// with the checkpoint's recorded one — restarting a server with different
// stream flags must fail loudly instead of diverging from epoch N on.
//
// The payload reuses the trace format of src/workload/trace.* verbatim
// (d/i op lines + the `b` boundary), so a journal replays through the
// same strict parser that validates traces, and `tail -c` + read_trace
// can inspect one by hand. Epochs are the matcher's batch counter and
// must increase by exactly 1 from record to record — a gap means records
// were lost and recovery must refuse to bridge it.
//
// Torn-write handling: scan() walks records front to back, validating
// framing, length, CRC and payload parse, and stops at the first record
// that fails — everything before it is durable, everything after is the
// torn tail a crash left behind (at most one in-flight record, because
// appends are sequential and flushed per record). Scanning is always
// side-effect-free (the file is opened read-only; a live, concurrently
// appended journal can be scanned or tailed without perturbing a single
// byte). Journal::open() runs that scan and — ONLY with Options::repair
// set — truncates the file back to the last durable byte before
// appending, so a recovered server continues the same log seamlessly.
// Without repair, a torn tail refuses the append-open outright: physical
// truncation is destructive exactly when the file is not ours to repair
// (a follower pointed at the primary's LIVE journal would otherwise
// destroy the primary's in-flight group commit), so the owner must say
// so explicitly.
// Mid-file rot is NOT a torn tail: when an intact record exists beyond
// the damaged one, truncation would destroy durable data, so the scan
// refuses the whole file (ok = false) exactly like an epoch gap.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "workload/generators.h"

namespace pdmm::persist {

struct JournalRecord {
  uint64_t epoch = 0;
  Batch batch;
};

// Result of scanning a journal file.
struct JournalScan {
  bool ok = false;          // header readable and valid
  std::string error;        // why ok is false
  std::vector<JournalRecord> records;  // the durable prefix (when retained)
  std::string stream;        // header fingerprint (empty: none recorded)
  size_t record_count = 0;   // durable records validated
  uint64_t last_epoch = 0;   // epoch of the last durable record (0: none)
  uint64_t valid_bytes = 0;  // file offset just past the last durable record
  bool truncated_tail = false;  // bytes past valid_bytes failed validation
  std::string tail_error;       // what the first invalid record looked like
};

// Scans `path` (missing file: ok with zero records, so first-boot and
// recovery share one call). Every record is always fully validated
// (framing, CRC, payload parse, epoch order); retention is separate:
// keep_records=false stores nothing (O(1) memory — Journal::open on a
// long log only needs the durable frontier), and keep_after drops records
// with epoch <= keep_after (recovery retains only the tail past its
// checkpoint instead of the whole history). record_count / last_epoch
// always describe the full durable prefix, retained or not.
JournalScan scan_journal(const std::string& path, bool keep_records = true,
                         uint64_t keep_after = 0);

// Streaming variant: every durable record is handed to `sink` as it
// validates, and nothing is retained — the scan runs in O(1 record)
// memory however long the log is (recovery replays a journal-only restart
// this way instead of materializing the whole history). The sink may
// return false to abort, which fails the scan (ok = false) after the
// records already delivered; record_count/last_epoch/valid_bytes then
// describe the delivered prefix, not the durable one.
//
// `on_header`, when set, fires once after the header parses and before
// any record is delivered, with the header's stream fingerprint (empty
// when none is recorded); returning false aborts the scan before the
// sink sees a single record — the hook recovery uses to refuse a
// wrong-stream journal before mutating any state. It does not fire for
// an empty/torn-header file (there is no header, and no records follow).
using JournalRecordSink = std::function<bool(JournalRecord&&)>;
using JournalHeaderHook = std::function<bool(const std::string& stream)>;
JournalScan scan_journal_streamed(const std::string& path,
                                  const JournalRecordSink& sink,
                                  const JournalHeaderHook& on_header = {});

// Append handle. Opening scans existing content, truncates a torn tail,
// and positions at the end; a fresh/empty file gets the header.
class Journal {
 public:
  struct Options {
    // fsync after every record (FULL durability against OS crashes) vs
    // flush-only (durable against process death, the common case).
    bool fsync_each = false;
    // Permission to physically truncate a torn tail before appending.
    // False (default): a torn tail fails open() with an error naming the
    // tail — safe for any file the caller does not exclusively own (a
    // crashed-but-restarting primary opts in; a follower or tool never
    // does, so a mistaken append-open of a live journal cannot destroy
    // the primary's in-flight record). Recovery paths pass true.
    bool repair = false;
    // Fingerprint of the update stream feeding this journal. Non-empty:
    // written into a fresh journal's header, and an existing journal
    // recorded under a DIFFERENT fingerprint refuses to open (appending
    // another stream's batches would corrupt the lineage). Empty: no
    // check (and a fresh journal records none). Must not contain '\n'.
    std::string stream;
  };

  // nullptr + *error when the file exists but is not a valid journal (we
  // refuse to truncate-and-clobber a file we do not recognize).
  static std::unique_ptr<Journal> open(const std::string& path, Options opt,
                                       std::string* error);
  // Open against an already-performed scan of the same unmodified file
  // (recovery just read the whole journal; re-scanning a multi-GB log
  // back-to-back would double restart latency). The caller vouches that
  // `scan` describes `path` as it is on disk right now.
  static std::unique_ptr<Journal> open_scanned(const std::string& path,
                                               Options opt,
                                               const JournalScan& scan,
                                               std::string* error);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Appends one record and commits it (flush + optional fsync) — the
  // synchronous per-batch path, equivalent to append_buffered() + commit().
  // `epoch` must be last_epoch() + 1 (or anything > 0 for the first record
  // of a fresh log). False (with *error) on ordering violations and I/O
  // failures; after an I/O failure the journal must be considered broken
  // and no further appends made.
  //
  // Single-appender contract, machine-checked: append() and the frontier
  // accessors require the appender role — the thread that owns the WAL
  // (pdmm_serve's updater) asserts it once where the contract is
  // established; any new code path touching the write frontier without
  // the role is a compile error under the `tidy` preset.
  bool append(uint64_t epoch, const Batch& b, std::string* error)
      PDMM_REQUIRES(appender_role_);

  // Group-commit pair. append_buffered() encodes + writes the record into
  // the stdio stream WITHOUT flushing or syncing: the bytes are staged and
  // the epoch is NOT durable until the next successful commit(). commit()
  // flushes everything buffered since the last commit and — when
  // Options::fsync_each is set — fsyncs ONCE for the whole group, which is
  // the entire point: N batches share one sync instead of paying one each.
  //
  // Durability watermark: committed_epoch() is the last epoch known to
  // have reached the file (and the disk, under fsync_each). A failed
  // commit() leaves the watermark where it was and reports the error —
  // fsync failures surface on the watermark, never as silent success —
  // and, like append(), marks the journal broken for further use.
  bool append_buffered(uint64_t epoch, const Batch& b, std::string* error)
      PDMM_REQUIRES(appender_role_);
  bool commit(std::string* error) PDMM_REQUIRES(appender_role_);

  uint64_t last_epoch() const PDMM_REQUIRES(appender_role_) {
    return last_epoch_;
  }
  // Durable frontier: epoch of the last record a successful commit() (or
  // append()) made durable. Trails last_epoch() by the batches buffered
  // since the last commit.
  uint64_t committed_epoch() const PDMM_REQUIRES(appender_role_) {
    return committed_epoch_;
  }
  uint64_t records_appended() const PDMM_REQUIRES(appender_role_) {
    return appended_;
  }
  bool tail_was_truncated() const { return tail_truncated_; }

  // The single-appender capability guarding the write frontier.
  const ThreadRole& appender_role() const
      PDMM_RETURN_CAPABILITY(appender_role_) {
    return appender_role_;
  }

 private:
  Journal(std::FILE* f, uint64_t last_epoch, bool tail_truncated,
          Options opt)
      : f_(f),
        last_epoch_(last_epoch),
        committed_epoch_(last_epoch),
        tail_truncated_(tail_truncated),
        opt_(opt) {}

  std::FILE* f_;
  ThreadRole appender_role_;
  uint64_t last_epoch_ PDMM_GUARDED_BY(appender_role_);
  uint64_t committed_epoch_ PDMM_GUARDED_BY(appender_role_);
  uint64_t appended_ PDMM_GUARDED_BY(appender_role_) = 0;
  // Reused encode buffer: append_buffered() serializes every record into
  // the same string so the steady-state append path stops allocating.
  std::string enc_buf_ PDMM_GUARDED_BY(appender_role_);
  bool tail_truncated_;  // immutable after open
  Options opt_;
};

}  // namespace pdmm::persist
