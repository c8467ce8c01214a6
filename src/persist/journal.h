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
// One reader. JournalTailer (below) is the only code that reads this
// format: a follower polls it against a file the primary is still
// appending, and scan_journal() is one poll of a fresh tailer over a file
// nobody appends to — same bytes, same parser, same verdict. A poll walks
// records front to back, validating framing, length, CRC, payload parse
// and epoch order, and stops at the first record that fails:
//
//   * bytes past the cursor that do not yet form a record are PENDING. On
//     a live file that is the primary's in-flight append; on a dead file
//     it is the torn tail a crash left behind (at most one record, because
//     appends are sequential), which scan_journal() reports as
//     truncated_tail — including a header or stream line that never got
//     its newline (valid_bytes 0: the whole file rewrites fresh).
//   * an invalid record with an intact record BEYOND it is mid-file rot,
//     not a tear: a tear is a prefix of one in-flight record and can never
//     be followed by valid bytes. The poll fails (a scan reports ok =
//     false), exactly like an epoch gap, a foreign header or a stream
//     mismatch — truncating there would destroy durable data.
//
// Reading is always side-effect-free: the file is opened read-only, so a
// live journal can be scanned or tailed without perturbing a byte.
// Journal::open() scans and — ONLY with Options::repair set — truncates
// the file back to the last durable byte before appending, so a recovered
// server continues the same log seamlessly. Without repair, a torn tail
// refuses the append-open outright: physical truncation is destructive
// exactly when the file is not ours to repair (a follower pointed at the
// primary's LIVE journal would otherwise destroy the primary's in-flight
// group commit), so the owner must say so explicitly.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iosfwd>
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

// Receives each validated record, in epoch order; returning false aborts
// the read (the reader fails after the records already delivered).
using JournalRecordSink = std::function<bool(JournalRecord&&)>;

enum class TailStatus : uint8_t {
  kRecord = 0,   // delivered >= 1 validated records to the sink
  kIdle = 1,     // caught up: the file ends exactly at the cursor
  kPending = 2,  // incomplete bytes at the cursor: in flight, or torn
  kFailed = 3,   // terminal: rot, epoch gap, stream mismatch, bad header
};

const char* to_string(TailStatus s);

// JournalTailer: the journal reader, a read-only cursor that may run
// against a LIVE, concurrently-appended file.
//
// Nothing is ever written: the tailer never opens the file for write,
// never truncates, never repairs. An invalid record at the frontier is
// TRANSIENT until proven otherwise — live, it is almost always a record
// the primary is midway through writing (stdio flushes are not atomic: a
// group commit's bytes can land in any prefix), so the poll reports
// kPending and the caller retries with backoff.
//
// Rot proof: a resync probe from just past the suspect header line finds
// an intact record BEYOND the suspect bytes. Live, that alone can
// false-positive — between our failed read and the probe, the primary may
// have completed the suspect record AND appended the next — so a probe
// hit re-reads the suspect record from a fresh stream: if it validates
// now it simply completed (deliver it); still-invalid-with-intact-beyond
// is rot, which is sound because the appender writes sequentially and
// never rewrites — record N's bytes are all on file before record N+1's
// first byte. A complete header line that does not parse is suspect like
// any other record (its bytes are final once the newline is on file); a
// line still missing its newline can only be waited on.
//
// Contracts enforced on every poll, not just at open: the header must be
// this format's magic (a prefix of it, while its write is in flight), the
// stream fingerprint (when expected) must match, and epochs must advance
// by exactly 1 — a violation mid-tail (journal swapped underneath,
// lineage fork) halts with kFailed rather than feeding the follower a
// diverging stream.
//
// Durability watermark: durable_epoch() is the last record the tailer
// fully validated. Under the journal's process-kill durability tier a
// complete record IS durable (primary SIGKILL loses only buffered,
// incomplete bytes), so a follower may publish views up to this watermark
// and nothing it published can be lost by a primary crash.
//
// Single-threaded: one tailer, one polling thread; no internal locking.
class JournalTailer {
 public:
  struct Options {
    // Non-empty: a journal recorded under a different fingerprint fails
    // the poll (kFailed) before a single record is delivered. A journal
    // with no recorded fingerprint is accepted (legacy tolerance).
    std::string expected_stream;
  };

  JournalTailer(std::string path, Options opt);

  JournalTailer(const JournalTailer&) = delete;
  JournalTailer& operator=(const JournalTailer&) = delete;

  // One poll: reads forward from the cursor, delivering every record that
  // validates (in epoch order, exactly once across the tailer's lifetime)
  // until the file runs out. The sink returning false aborts the poll
  // with kFailed; records already delivered stay delivered and the cursor
  // stays past them.
  //
  // kIdle/kPending are both "nothing new yet, ask again later"; they are
  // split so callers can distinguish a quiet primary (idle) from one
  // mid-write (pending) — promotion treats a *stable* pending tail as
  // end-of-stream (the torn record was never durable) but a stable idle
  // tail needs no such grace.
  TailStatus poll(const JournalRecordSink& sink);

  // Last epoch validated and delivered (0: none yet). This is the
  // follower's durable watermark — see the class comment.
  uint64_t durable_epoch() const { return last_epoch_; }
  // Byte offset just past the last validated record or header line (the
  // cursor; a scan reports it as valid_bytes).
  uint64_t offset() const { return offset_; }
  // File size observed by the most recent poll (0 before the first).
  uint64_t file_size() const { return file_size_; }
  // file_size() - offset(): unvalidated bytes at the frontier. A torn
  // in-flight record counts, so nonzero does not mean "records waiting".
  uint64_t bytes_behind() const {
    return file_size_ > offset_ ? file_size_ - offset_ : 0;
  }
  uint64_t records_delivered() const { return records_; }
  uint64_t polls() const { return poll_count_; }
  // Stream fingerprint from the journal header (empty until the header
  // has been read, or when none was recorded).
  const std::string& stream() const { return stream_; }
  // Terminal error after a kFailed poll (sticky: every later poll returns
  // kFailed with the same error).
  const std::string& error() const { return error_; }

 private:
  TailStatus fail(std::string why);
  // Reads the magic and the optional stream line from byte 0, advancing
  // the cursor past them once both are resolvable. Returns kRecord when
  // the cursor is ready for records.
  TailStatus poll_header(std::istream& in);
  // 1-indexed line number of the journal line starting at `byte_offset`
  // (counts '\n' up to it) — only computed on the failure path, where a
  // human will read the message.
  uint64_t line_number_at(uint64_t byte_offset) const;

  const std::string path_;
  const Options opt_;
  bool header_done_ = false;
  uint64_t offset_ = 0;
  uint64_t file_size_ = 0;
  uint64_t last_epoch_ = 0;
  uint64_t records_ = 0;
  uint64_t poll_count_ = 0;
  std::string stream_;
  std::string error_;  // non-empty: failed, sticky
};

// Result of scanning a journal file: one poll of a fresh JournalTailer.
struct JournalScan {
  bool ok = false;          // false: the poll failed (rot, gap, header...)
  std::string error;        // why ok is false
  std::vector<JournalRecord> records;  // the durable prefix (when retained)
  std::string stream;        // header fingerprint (empty: none recorded)
  size_t record_count = 0;   // durable records validated
  uint64_t last_epoch = 0;   // epoch of the last durable record (0: none)
  uint64_t valid_bytes = 0;  // file offset just past the last durable record
  bool truncated_tail = false;  // bytes past valid_bytes are a torn tail
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
// describe the delivered prefix, not the durable one. A non-empty
// `expected_stream` refuses a journal recorded under another fingerprint
// before the sink sees a single record (JournalTailer::Options).
JournalScan scan_journal_streamed(const std::string& path,
                                  const JournalRecordSink& sink,
                                  const std::string& expected_stream = "");

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
