#include "persist/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "persist/io_util.h"
#include "persist/journal_format.h"
#include "util/crc32.h"
#include "util/sync_point.h"
#include "workload/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define PDMM_HAVE_FSYNC 1
#endif

namespace pdmm::persist {

namespace {

using detail::read_exact;

constexpr const char* kMagic = kJournalMagic;

// One journal record's bytes: header line + trace-encoded batch payload
// (grammar and validation rules live in journal_format.h, shared with the
// read-only live tailer). Note an inherent tail ambiguity no header
// checksum could remove: for the FINAL record, a rotted byte and a
// torn write are indistinguishable (both fail validation with nothing
// after them), so the durability granularity at the tail is one record
// either way — exactly the bound the flush-per-record model documents.
void encode_record_into(uint64_t epoch, const Batch& b, std::string& out) {
  // The payload goes in first (its size and CRC head the record), then
  // the header is slid in front of it.
  out.clear();
  append_batch(out, b);
  const std::string header = "rec " + std::to_string(epoch) + ' ' +
                             std::to_string(out.size()) + ' ' +
                             std::to_string(crc32(out)) + '\n';
  out.insert(0, header);
}

// Shared scan core. Exactly one consumer shape per call: either records
// are retained into out.records (keep_records/keep_after) or every record
// streams through `sink` with nothing retained.
JournalScan scan_journal_impl(const std::string& path, bool keep_records,
                              uint64_t keep_after,
                              const JournalRecordSink* sink,
                              const JournalHeaderHook* on_header) {
  JournalScan out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
      out.ok = true;  // nothing journaled yet
      return out;
    }
    out.error = "cannot open " + path;
    return out;
  }
  std::string line;
  if (!std::getline(in, line)) {
    // Zero-length file: treat like a missing one (open() writes the
    // header on its first append position).
    out.ok = true;
    return out;
  }
  const bool header_unterminated = in.eof();  // getline stopped at EOF
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != kMagic) {
    out.error = path + ": unrecognized journal header";
    return out;
  }
  if (header_unterminated) {
    // The header bytes are right but the newline never hit the disk: a
    // torn header write. tellg() on an eof stream would return -1, so do
    // not trust it — treat the whole file as torn tail (valid_bytes 0),
    // which reopen-for-append truncates and rewrites from scratch.
    out.ok = true;
    out.truncated_tail = true;
    out.tail_error = path + ": journal header missing its newline";
    return out;
  }
  out.ok = true;
  out.valid_bytes = static_cast<uint64_t>(in.tellg());

  // Optional `stream <fingerprint>` line, written at creation right after
  // the magic. A torn stream line is handled like a torn header: nothing
  // durable can follow it (it precedes every record), so the whole file
  // rewrites from scratch.
  {
    const std::streampos after_header = in.tellg();
    if (std::getline(in, line)) {
      const bool stream_unterminated = in.eof();
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.rfind("stream ", 0) == 0) {
        if (stream_unterminated) {
          out.truncated_tail = true;
          out.valid_bytes = 0;
          out.tail_error = path + ": journal stream line missing its newline";
          return out;
        }
        out.stream = line.substr(7);
        out.valid_bytes = static_cast<uint64_t>(in.tellg());
      } else {
        in.clear();
        in.seekg(after_header);
      }
    } else {
      in.clear();
      in.seekg(after_header);
    }
  }
  if (on_header && *on_header && !(*on_header)(out.stream)) {
    out.ok = false;
    out.error = path + ": journal header rejected by the caller";
    return out;
  }

  // Distinguishes a crash tail from mid-file rot: after the first invalid
  // record, an intact record further on means durable data lies BEYOND
  // the damage — truncating there would destroy it, so the file must be
  // refused instead. A genuine crash tear is a prefix of one in-flight
  // record (appends are sequential, flushed per record) and can never be
  // followed by valid bytes; record payloads are trace op lines, so a
  // torn payload cannot itself spell a CRC-valid "rec" line.
  const auto intact_record_follows = [&]() {
    std::string rline, rpayload;
    while (std::getline(in, rline)) {
      if (!rline.empty() && rline.back() == '\r') rline.pop_back();
      RecordHeader rh;
      if (!parse_record_header(rline, rh)) continue;
      const auto pos = in.tellg();
      if (read_exact(in, rh.nbytes, rpayload) && crc32(rpayload) == rh.crc) {
        return true;
      }
      in.clear();
      in.seekg(pos);
    }
    return false;
  };
  // `probe_from` is the offset just past the suspect record's header
  // line: the resync probe must start there, not wherever the failed
  // read left the stream — a rotted length field can consume every byte
  // to EOF (or overshoot into later records) before failing, which would
  // otherwise blind the probe to the intact records after the damage.
  const auto tail_fail = [&](std::string why, std::streampos probe_from) {
    bool midfile = false;
    if (probe_from != std::streampos(-1)) {
      in.clear();  // the failed read may have set eof/failbit
      in.seekg(probe_from);
      midfile = in.good() && intact_record_follows();
    }
    if (midfile) {
      out.ok = false;
      out.error = path + ": corrupt record mid-file with intact records "
                  "after it (" + why + "); refusing to truncate past "
                  "durable data";
      return;
    }
    out.truncated_tail = true;
    out.tail_error = std::move(why);
  };
  std::string payload;
  while (std::getline(in, line)) {
    // Offset just past this header line (-1 when the line ended at EOF
    // without a newline — nothing can follow it).
    const std::streampos probe_from =
        in.good() ? in.tellg() : std::streampos(-1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    RecordHeader rh;
    if (!parse_record_header(line, rh)) {
      tail_fail("malformed record header '" + line + "'", probe_from);
      return out;
    }
    const std::string epoch_tok = std::to_string(rh.epoch);
    if (!read_exact(in, rh.nbytes, payload)) {
      tail_fail("record payload truncated (epoch " + epoch_tok + ")",
                probe_from);
      return out;
    }
    Batch batch;
    std::string why;
    if (!validate_record_payload(payload, rh, batch, &why)) {
      tail_fail(why + " (epoch " + epoch_tok + ")", probe_from);
      return out;
    }
    if (rh.epoch == 0 ||
        (out.record_count != 0 && rh.epoch != out.last_epoch + 1)) {
      // A gap or regression is not a torn tail — it means records are
      // missing from the durable prefix itself. Refuse the whole file.
      out.ok = false;
      out.error = path + ": record epochs not contiguous (saw " +
                  epoch_tok + " after " + std::to_string(out.last_epoch) +
                  ")";
      return out;
    }
    if (sink) {
      if (!(*sink)(JournalRecord{rh.epoch, std::move(batch)})) {
        out.ok = false;
        out.error = path + ": record sink aborted the scan at epoch " +
                    epoch_tok;
        return out;
      }
    } else if (keep_records && rh.epoch > keep_after) {
      out.records.push_back({rh.epoch, std::move(batch)});
    }
    ++out.record_count;
    out.last_epoch = rh.epoch;
    out.valid_bytes = static_cast<uint64_t>(in.tellg());
  }
  return out;
}

}  // namespace

JournalScan scan_journal(const std::string& path, bool keep_records,
                         uint64_t keep_after) {
  return scan_journal_impl(path, keep_records, keep_after, nullptr, nullptr);
}

JournalScan scan_journal_streamed(const std::string& path,
                                  const JournalRecordSink& sink,
                                  const JournalHeaderHook& on_header) {
  return scan_journal_impl(path, /*keep_records=*/false, /*keep_after=*/0,
                           &sink, &on_header);
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
               std::to_string(scan.valid_bytes) + " (" + scan.tail_error +
               "); appending requires truncating it — re-open with "
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
      new Journal(f, scan.last_epoch, scan.truncated_tail, opt));
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
  encode_record_into(epoch, b, enc_buf_);
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
