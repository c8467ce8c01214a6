#include "persist/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <sstream>

#include "core/matcher.h"
#include "persist/frame.h"
#include "util/parse_num.h"
#include "util/sync_point.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define PDMM_HAVE_FSYNC 1
#endif

namespace pdmm::persist {

namespace {

using detail::FrameHeader;
using detail::PayloadRead;
using detail::read_line;

constexpr const char* kMagic = "pdmm-checkpoint v1";
// Sections larger than this are rejected outright; combined with the
// frame's chunked payload read, a hostile length field cannot force one
// giant allocation before the stream proves it actually has the bytes.
constexpr uint64_t kMaxSectionBytes = uint64_t{1} << 40;

bool set_error(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

std::string meta_payload(const DynamicMatcher& m,
                         const std::string& stream_fp) {
  const Config& cfg = m.config();
  std::ostringstream os;
  os << "epoch " << m.batch_epoch() << '\n';
  if (!stream_fp.empty()) os << "stream " << stream_fp << '\n';
  os << "rank " << cfg.max_rank << '\n';
  os << "seed " << cfg.seed << '\n';
  os << "initial_capacity " << cfg.initial_capacity << '\n';
  os << "auto_rebuild " << (cfg.auto_rebuild ? 1 : 0) << '\n';
  os << "eager " << (cfg.settle_after_insertions ? 1 : 0) << '\n';
  os << "max_eager " << cfg.max_eager_sweeps << '\n';
  os << "iter_factor " << cfg.subsettle_iter_factor << '\n';
  os << "max_repeats " << cfg.max_settle_repeats << '\n';
  os << "epoch_stats " << (cfg.collect_epoch_stats ? 1 : 0) << '\n';
  os << "matching " << m.matching_size() << '\n';
  os << "edges " << m.graph().num_edges() << '\n';
  return std::move(os).str();
}

bool meta_u64(const std::map<std::string, std::string>& meta,
              const char* key, uint64_t& out) {
  const auto it = meta.find(key);
  if (it == meta.end()) return false;
  return parse_u64_strict(it->second, out) == ParseNum::kOk;
}

// fsync a file or directory by path. Without POSIX fsync this reports
// success — the flush-only durability tier is all the platform offers.
bool fsync_path(const std::string& p) {
#ifdef PDMM_HAVE_FSYNC
  const int fd = ::open(p.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)p;
  return true;
#endif
}

}  // namespace

uint64_t CheckpointData::epoch() const {
  uint64_t e = 0;
  meta_u64(meta, "epoch", e);
  return e;
}

std::string CheckpointData::stream() const {
  const auto it = meta.find("stream");
  return it == meta.end() ? std::string() : it->second;
}

bool CheckpointData::config(Config& out) const {
  uint64_t rank = 0, seed = 0, cap = 0, rebuild = 0, eager = 0, sweeps = 0,
           iter = 0, repeats = 0, stats = 0;
  if (!meta_u64(meta, "rank", rank) || !meta_u64(meta, "seed", seed) ||
      !meta_u64(meta, "initial_capacity", cap) ||
      !meta_u64(meta, "auto_rebuild", rebuild) ||
      !meta_u64(meta, "eager", eager) ||
      !meta_u64(meta, "max_eager", sweeps) ||
      !meta_u64(meta, "iter_factor", iter) ||
      !meta_u64(meta, "max_repeats", repeats) ||
      !meta_u64(meta, "epoch_stats", stats) || rank == 0 ||
      // The 32-bit fields refuse what the casts below would wrap.
      std::max({rank, sweeps, iter, repeats}) > UINT32_MAX) {
    return false;
  }
  out = Config{};
  out.max_rank = static_cast<uint32_t>(rank);
  out.seed = seed;
  out.initial_capacity = cap;
  out.auto_rebuild = rebuild != 0;
  out.settle_after_insertions = eager != 0;
  out.max_eager_sweeps = static_cast<uint32_t>(sweeps);
  out.subsettle_iter_factor = static_cast<uint32_t>(iter);
  out.max_settle_repeats = static_cast<uint32_t>(repeats);
  out.collect_epoch_stats = stats != 0;
  return true;
}

bool encode_checkpoint(const DynamicMatcher& m, std::string& out,
                       std::string* error, const std::string& stream_fp) {
  if (stream_fp.find('\n') != std::string::npos) {
    return set_error(error, "stream fingerprint must be a single line");
  }
  std::ostringstream snap;
  if (!m.save(snap)) {
    return set_error(error, "serializing the snapshot failed");
  }
  out.clear();
  out += kMagic;
  out += '\n';
  detail::append_frame(out, "meta", meta_payload(m, stream_fp));
  detail::append_frame(out, "snap", std::move(snap).str());
  out += "end\n";
  return true;
}

bool read_checkpoint(std::istream& in, CheckpointData& out,
                     std::string* error) {
  out = CheckpointData{};
  std::string line;
  // Unlike the journal, a line missing its newline needs no verdict of its
  // own here: a cut header still fails its parse or its payload read.
  bool complete = false;
  if (!read_line(in, line, complete)) {
    return set_error(error, "empty checkpoint");
  }
  if (line != kMagic) {
    return set_error(error, "unrecognized checkpoint header '" + line + "'");
  }
  bool saw_meta = false, saw_snap = false, saw_end = false;
  while (read_line(in, line, complete)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    FrameHeader h;
    if (!detail::parse_frame_header(line, /*has_id=*/false, kMaxSectionBytes,
                                    h)) {
      return set_error(error, "malformed section header '" + line + "'");
    }
    const std::string& name = h.tag;
    std::string payload;
    std::string* buf = &payload;  // meta: parsed below from `payload`
    if (name == "meta") {
      if (saw_meta) return set_error(error, "duplicate meta section");
      saw_meta = true;
    } else if (name == "snap") {
      if (saw_snap) return set_error(error, "duplicate snap section");
      saw_snap = true;
      buf = &out.snapshot;
    } else {
      return set_error(error, "unknown section '" + name + "'");
    }
    switch (detail::read_frame_payload(in, h, *buf)) {
      case PayloadRead::kOk:
        break;
      case PayloadRead::kTruncated:
        return set_error(error, "truncated " + name + " section (declared " +
                                    std::to_string(h.nbytes) + " bytes)");
      case PayloadRead::kChecksumMismatch:
        return set_error(error, name + " section checksum mismatch");
    }
    if (name == "meta") {
      std::istringstream ms(payload);
      std::string mline;
      while (std::getline(ms, mline)) {
        const size_t sp = mline.find(' ');
        if (sp == std::string::npos || sp == 0) {
          return set_error(error, "malformed meta line '" + mline + "'");
        }
        out.meta[mline.substr(0, sp)] = mline.substr(sp + 1);
      }
    }
  }
  if (!saw_end) return set_error(error, "truncated checkpoint: missing end");
  if (!saw_meta || !saw_snap) {
    return set_error(error, "checkpoint missing a required section");
  }
  return true;
}

bool read_checkpoint_file(const std::string& path, CheckpointData& out,
                          std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return set_error(error, "cannot open " + path);
  if (!read_checkpoint(in, out, error)) {
    if (error) *error = path + ": " + *error;
    return false;
  }
  return true;
}

std::vector<std::pair<uint64_t, std::string>> list_checkpoints(
    const std::string& prefix) {
  namespace fs = std::filesystem;
  std::vector<std::pair<uint64_t, std::string>> out;
  const fs::path p(prefix);
  const fs::path dir = p.has_parent_path() ? p.parent_path() : fs::path(".");
  const std::string stem = p.filename().string() + ".";
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind(stem, 0) != 0) continue;
    uint64_t epoch = 0;
    if (parse_u64_strict(name.substr(stem.size()), epoch) != ParseNum::kOk) {
      continue;  // .tmp strays and anything else non-numeric
    }
    out.emplace_back(epoch, it->path().string());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

namespace {

// The atomic placement of one series file (checkpoint.h,
// write_checkpoint_series_bytes).
bool place_checkpoint(const std::string& path, const std::string& bytes,
                      uint64_t epoch, std::string* error, bool durable) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return set_error(error, "cannot open " + tmp + " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return set_error(error, "cannot write " + tmp +
                                  " (disk full or closed?)");
    }
  }
  // Flush-only by default (durable against process death). With durable,
  // fsync the tmp data before the rename and the directory after it, so
  // the rename can never become visible pointing at unwritten blocks
  // after a power loss.
  if (durable && !fsync_path(tmp)) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return set_error(error, "cannot fsync " + tmp);
  }
  switch (SyncPoints::fire(kCheckpointPreRename, epoch)) {
    case SyncPoints::kProceed:
      break;
    case SyncPoints::kFail: {
      // Injected placement failure: behave like a failed rename — no new
      // checkpoint becomes visible and the tmp file is cleaned up.
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return set_error(error, "checkpoint rename failed: injected fault");
    }
    case SyncPoints::kCrash:
      // Injected crash between tmp completion and rename: leave the .tmp
      // stray a real crash would (recovery ignores non-numeric suffixes).
      return set_error(error, "checkpoint placement aborted: injected crash");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return set_error(error, "cannot rename " + tmp + " over " + path);
  }
  if (durable) {
    const std::filesystem::path dir =
        std::filesystem::path(path).parent_path();
    if (!fsync_path(dir.empty() ? "." : dir.string())) {
      return set_error(error, "cannot fsync directory of " + path);
    }
  }
  return true;
}

// The just-written epoch is the series head: files claiming a *newer*
// epoch cannot belong to this server's lineage (its epochs only grow
// through the series writers) — they are strays from a superseded run
// that restarted without --recover, and leaving them would both shadow
// the live checkpoints at recovery time and, worse, make the keep-N prune
// delete the fresh files instead of the stale ones. Remove strays first,
// then keep the newest `keep` of the lineage.
void prune_series(const std::string& prefix, uint64_t head_epoch,
                  size_t keep) {
  size_t kept = 0;
  for (const auto& [e, p] : list_checkpoints(prefix)) {
    const bool stale_future = e > head_epoch;
    if (!stale_future && kept < std::max<size_t>(keep, 1)) {
      ++kept;
      continue;
    }
    std::error_code ec;
    std::filesystem::remove(p, ec);
  }
}

}  // namespace

bool write_checkpoint_series(const std::string& prefix,
                             const DynamicMatcher& m, size_t keep,
                             std::string* error, bool durable,
                             const std::string& stream_fp) {
  std::string bytes;
  return encode_checkpoint(m, bytes, error, stream_fp) &&
         write_checkpoint_series_bytes(prefix, m.batch_epoch(), bytes, keep,
                                       error, durable);
}

bool write_checkpoint_series_bytes(const std::string& prefix, uint64_t epoch,
                                   const std::string& bytes, size_t keep,
                                   std::string* error, bool durable) {
  const std::string path = prefix + "." + std::to_string(epoch);
  if (!place_checkpoint(path, bytes, epoch, error, durable)) return false;
  prune_series(prefix, epoch, keep);
  return true;
}

}  // namespace pdmm::persist
