#include "persist/journal.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "persist/frame.h"
#include "util/sync_point.h"
#include "workload/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define PDMM_HAVE_FSYNC 1
#endif

namespace pdmm::persist {

namespace {

using detail::FrameHeader;
using detail::PayloadRead;
using detail::read_line;

constexpr const char* kMagic = "pdmm-journal v1";
constexpr std::string_view kStreamPrefix = "stream ";
constexpr uint64_t kMaxRecordBytes = uint64_t{1} << 32;

enum class ReadOutcome : uint8_t {
  kValid,        // `out` holds the record; the stream is just past it
  kEnd,          // nothing at all at the position
  kPartialLine,  // the header line has no newline yet
  kInvalid,      // complete header line, but the record fails validation
};

// Reads one record at `in`'s position: a frame tagged "rec" whose u64 is
// the epoch, then "the payload parses as exactly one batch" (the frame's
// CRC first: it catches rot and tears before the parser sees a byte). On
// kInvalid, `why` names the first check that failed and the stream is left
// just past the header line — where a resync probe must start, since a
// rotted length field can make the payload read consume every byte to EOF
// (or overshoot into later records) before failing. For the FINAL record,
// a rotted byte and a torn write are indistinguishable (both fail with
// nothing after them), so the durability granularity at the tail is one
// record either way — the bound the flush-per-record model documents.
ReadOutcome read_record(std::istream& in, JournalRecord& out,
                        std::string& why) {
  std::string line;
  bool complete = false;
  if (!read_line(in, line, complete)) return ReadOutcome::kEnd;
  if (!complete) return ReadOutcome::kPartialLine;
  FrameHeader h;
  if (!detail::parse_frame_header(line, /*has_id=*/true, kMaxRecordBytes,
                                  h) ||
      h.tag != "rec") {
    why = "malformed record header '" + line + "'";
    return ReadOutcome::kInvalid;
  }
  const std::streampos after_header = in.tellg();
  const auto invalid = [&](const std::string& what) {
    why = what + " (epoch " + std::to_string(h.id) + ")";
    in.clear();  // a short payload read set eof/failbit
    in.seekg(after_header);
    return ReadOutcome::kInvalid;
  };
  std::string payload;
  switch (detail::read_frame_payload(in, h, payload)) {
    case PayloadRead::kOk:
      break;
    case PayloadRead::kTruncated:
      return invalid("record payload truncated");
    case PayloadRead::kChecksumMismatch:
      return invalid("record checksum mismatch");
  }
  std::istringstream ps(payload);
  std::vector<Batch> batches;
  std::string perr;
  if (!read_trace(ps, batches, &perr) || batches.size() != 1) {
    return invalid("record payload does not parse as one batch: " + perr);
  }
  out.epoch = h.id;
  out.batch = std::move(batches.front());
  return ReadOutcome::kValid;
}

// The resync probe: does a record that reads valid start anywhere at or
// after `in`'s position? Record payloads are trace op lines, so a torn
// payload cannot itself spell a valid "rec" record.
bool intact_record_follows(std::istream& in) {
  JournalRecord rec;
  std::string why;
  for (;;) {
    switch (read_record(in, rec, why)) {
      case ReadOutcome::kValid:
        return true;
      case ReadOutcome::kEnd:
      case ReadOutcome::kPartialLine:
        return false;
      case ReadOutcome::kInvalid:
        break;  // resume just past that header line
    }
  }
}

}  // namespace

const char* to_string(TailStatus s) {
  switch (s) {
    case TailStatus::kRecord:
      return "record";
    case TailStatus::kIdle:
      return "idle";
    case TailStatus::kPending:
      return "pending";
    case TailStatus::kFailed:
      return "failed";
  }
  return "?";
}

JournalTailer::JournalTailer(std::string path, Options opt)
    : path_(std::move(path)), opt_(std::move(opt)) {}

TailStatus JournalTailer::fail(std::string why) {
  error_ = std::move(why);
  return TailStatus::kFailed;
}

uint64_t JournalTailer::line_number_at(uint64_t byte_offset) const {
  std::ifstream in(path_, std::ios::binary);
  uint64_t line = 1;
  char c;
  for (uint64_t i = 0; i < byte_offset && in.get(c); ++i) {
    if (c == '\n') ++line;
  }
  return line;
}

TailStatus JournalTailer::poll_header(std::istream& in) {
  std::string line;
  bool complete = false;
  in.seekg(0);
  if (!read_line(in, line, complete)) return TailStatus::kIdle;  // empty
  if (!complete) {
    // A prefix of the magic is the creator's header write in flight (on a
    // dead file: a torn header); anything else will never become a valid
    // journal however long we wait.
    if (std::string_view(kMagic).starts_with(line)) {
      return TailStatus::kPending;
    }
    return fail(path_ + ": unrecognized journal header");
  }
  if (line != kMagic) return fail(path_ + ": unrecognized journal header");
  const auto magic_end = static_cast<uint64_t>(in.tellg());
  // The optional `stream` line is unresolvable until the NEXT complete
  // line exists: "nothing after the magic yet" may still grow either a
  // stream line or a first record, so the cursor waits here.
  if (!read_line(in, line, complete)) {
    offset_ = magic_end;
    return TailStatus::kIdle;
  }
  // A second line still missing its newline leaves the header unresolved
  // and the cursor where it was (0 for a fresh reader: a scan reports the
  // whole file as torn, so reopening rewrites the header, stream included).
  if (!complete) return TailStatus::kPending;
  offset_ = magic_end;
  if (line.starts_with(kStreamPrefix)) {
    stream_ = line.substr(kStreamPrefix.size());
    offset_ = static_cast<uint64_t>(in.tellg());
  }
  if (!opt_.expected_stream.empty() && !stream_.empty() &&
      stream_ != opt_.expected_stream) {
    return fail(path_ + ": the journal and its lineage record different "
                "update streams (journal: \"" + stream_ + "\", expected: \"" +
                opt_.expected_stream + "\"); refusing to replay it");
  }
  header_done_ = true;
  return TailStatus::kRecord;
}

TailStatus JournalTailer::poll(const JournalRecordSink& sink) {
  ++poll_count_;
  if (!error_.empty()) return TailStatus::kFailed;

  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    std::error_code ec;
    if (std::filesystem::exists(path_, ec)) {
      in.open(path_, std::ios::binary);  // it may have just been created
      if (!in) return fail(path_ + ": cannot open journal for reading");
    } else if (file_size_ == 0) {
      return TailStatus::kIdle;  // the primary has not created it yet
    } else {
      return fail(path_ + ": journal vanished mid-tail (" +
                  std::to_string(offset_) + " bytes were validated)");
    }
  }
  in.seekg(0, std::ios::end);
  file_size_ = static_cast<uint64_t>(in.tellg());
  if (file_size_ < offset_) {
    return fail(path_ + ": journal shrank underneath the tail (cursor at "
                "byte " + std::to_string(offset_) + ", file now " +
                std::to_string(file_size_) + " bytes) — the file was "
                "truncated or replaced; this reader's state no longer "
                "matches it");
  }
  if (!header_done_) {
    const TailStatus hs = poll_header(in);
    if (hs != TailStatus::kRecord) return hs;
  }

  bool delivered = false;
  const auto settle = [&](TailStatus quiet) {
    return delivered ? TailStatus::kRecord : quiet;
  };
  bool reread = false;  // the suspect record was re-read fresh already
  in.clear();
  in.seekg(static_cast<std::streamoff>(offset_));
  for (;;) {
    JournalRecord rec;
    std::string why;
    const ReadOutcome r = read_record(in, rec, why);
    if (r == ReadOutcome::kEnd) return settle(TailStatus::kIdle);
    if (r != ReadOutcome::kValid) {
      // Transient until proven rot (see the class comment).
      if (r == ReadOutcome::kPartialLine || !intact_record_follows(in)) {
        return settle(TailStatus::kPending);
      }
      if (reread) {
        return fail(path_ + ":" + std::to_string(line_number_at(offset_)) +
                    ": corrupt record at byte " + std::to_string(offset_) +
                    " after epoch " + std::to_string(last_epoch_) + " (" +
                    why + ") with an intact record beyond it — mid-file "
                    "rot, not a torn tail or an in-flight append; "
                    "truncating here would destroy durable records. "
                    "Restore the journal from a good copy, or re-seed a "
                    "follower from a fresh checkpoint");
      }
      // It may simply have completed between our read and the probe.
      reread = true;
      in = std::ifstream(path_, std::ios::binary);
      in.seekg(static_cast<std::streamoff>(offset_));
      continue;
    }
    if (rec.epoch == 0 || (records_ != 0 && rec.epoch != last_epoch_ + 1)) {
      return fail(path_ + ": record epochs not contiguous (saw " +
                  std::to_string(rec.epoch) + " after " +
                  std::to_string(last_epoch_) + ") — records are missing "
                  "from the stream; refusing to bridge the gap");
    }
    const uint64_t epoch = rec.epoch;
    if (!sink(std::move(rec))) {
      return fail(path_ + ": record sink aborted the read at epoch " +
                  std::to_string(epoch));
    }
    offset_ = static_cast<uint64_t>(in.tellg());
    last_epoch_ = epoch;
    ++records_;
    delivered = true;
    reread = false;
  }
}

JournalScan scan_journal_streamed(const std::string& path,
                                  const JournalRecordSink& sink,
                                  const std::string& expected_stream) {
  // Nobody appends to a scanned file, so a pending frontier is final: the
  // torn tail.
  JournalTailer reader(path, {expected_stream});
  const bool failed = reader.poll(sink) == TailStatus::kFailed;
  JournalScan out;
  out.ok = !failed;
  out.error = reader.error();
  out.stream = reader.stream();
  out.record_count = reader.records_delivered();
  out.last_epoch = reader.durable_epoch();
  out.valid_bytes = reader.offset();
  out.truncated_tail = !failed && reader.bytes_behind() != 0;
  return out;
}

JournalScan scan_journal(const std::string& path, bool keep_records,
                         uint64_t keep_after) {
  std::vector<JournalRecord> kept;
  JournalScan out = scan_journal_streamed(path, [&](JournalRecord&& rec) {
    if (keep_records && rec.epoch > keep_after) kept.push_back(std::move(rec));
    return true;
  });
  out.records = std::move(kept);
  return out;
}

std::unique_ptr<Journal> Journal::open(const std::string& path, Options opt,
                                       std::string* error) {
  return open_scanned(path, opt, scan_journal(path, /*keep_records=*/false),
                      error);
}

std::unique_ptr<Journal> Journal::open_scanned(const std::string& path,
                                               Options opt,
                                               const JournalScan& scan,
                                               std::string* error) {
  if (!scan.ok) {
    if (error) *error = scan.error;
    return nullptr;
  }
  if (opt.stream.find('\n') != std::string::npos) {
    if (error) *error = "journal stream fingerprint must be a single line";
    return nullptr;
  }
  if (!opt.stream.empty() && !scan.stream.empty() &&
      opt.stream != scan.stream) {
    if (error) {
      *error = path + ": journal was recorded from a different update "
               "stream (journal: \"" + scan.stream + "\", this run: \"" +
               opt.stream + "\"); appending would corrupt the lineage";
    }
    return nullptr;
  }
  const bool fresh = scan.valid_bytes == 0;
  if (scan.truncated_tail && !opt.repair) {
    if (error) {
      *error = path + ": torn tail past byte " +
               std::to_string(scan.valid_bytes) +
               "; appending requires truncating it — re-open with "
               "Options::repair if this process owns the journal (a LIVE "
               "journal's torn tail is the primary's in-flight record; "
               "repairing it would destroy data)";
    }
    return nullptr;
  }
  if (scan.truncated_tail) {
    std::error_code ec;
    std::filesystem::resize_file(path, scan.valid_bytes, ec);
    if (ec) {
      if (error) {
        *error = "cannot truncate torn tail of " + path + ": " +
                 ec.message();
      }
      return nullptr;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), fresh ? "wb" : "ab");
  if (!f) {
    if (error) *error = "cannot open " + path + ": " + std::strerror(errno);
    return nullptr;
  }
  if (fresh) {
    std::string header = std::string(kMagic) + "\n";
    if (!opt.stream.empty()) header += "stream " + opt.stream + "\n";
    if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
        std::fflush(f) != 0) {
      if (error) *error = "cannot write journal header to " + path;
      std::fclose(f);
      return nullptr;
    }
  }
  return std::unique_ptr<Journal>(
      // lint:allow(raw-alloc) private ctor — make_unique can't reach it;
      // ownership transfers to the unique_ptr on the same line.
      new Journal(f, scan.last_epoch, opt));
}

Journal::~Journal() {
  if (f_) std::fclose(f_);
}

bool Journal::append(uint64_t epoch, const Batch& b, std::string* error) {
  return append_buffered(epoch, b, error) && commit(error);
}

bool Journal::append_buffered(uint64_t epoch, const Batch& b,
                              std::string* error) {
  if (epoch == 0 || (last_epoch_ != 0 && epoch != last_epoch_ + 1)) {
    if (error) {
      *error = "journal epoch " + std::to_string(epoch) +
               " does not follow " + std::to_string(last_epoch_);
    }
    return false;
  }
  payload_buf_.clear();
  append_batch(payload_buf_, b);
  enc_buf_.clear();
  detail::append_frame(enc_buf_, "rec " + std::to_string(epoch), payload_buf_);
  if (std::fwrite(enc_buf_.data(), 1, enc_buf_.size(), f_) !=
      enc_buf_.size()) {
    if (error) {
      *error = std::string("journal append failed: ") + std::strerror(errno);
    }
    return false;
  }
  last_epoch_ = epoch;
  ++appended_;
  return true;
}

bool Journal::commit(std::string* error) {
  if (committed_epoch_ == last_epoch_) return true;  // nothing buffered
  switch (SyncPoints::fire(kJournalPreFsync, last_epoch_)) {
    case SyncPoints::kProceed:
      break;
    case SyncPoints::kFail:
      // Injected sync failure: the group stays non-durable — the
      // watermark does not move, and the caller sees the same error shape
      // a real fsync() failure produces.
      if (error) *error = "journal fsync failed: injected fault";
      return false;
    case SyncPoints::kCrash:
      // Injected crash: die here without another byte of I/O. The stdio
      // buffer's uncommitted records never reach the file, exactly like a
      // SIGKILL between append and sync.
      if (error) *error = "journal commit aborted: injected crash";
      return false;
  }
  if (std::fflush(f_) != 0) {
    if (error) {
      *error = std::string("journal flush failed: ") + std::strerror(errno);
    }
    return false;
  }
#ifdef PDMM_HAVE_FSYNC
  if (opt_.fsync_each && ::fsync(fileno(f_)) != 0) {
    if (error) {
      *error = std::string("journal fsync failed: ") + std::strerror(errno);
    }
    return false;
  }
#endif
  committed_epoch_ = last_epoch_;
  return true;
}

}  // namespace pdmm::persist
