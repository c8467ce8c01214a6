// Checkpoint: a versioned, per-section-checksummed container around the
// matcher snapshot, plus atomic file placement.
//
// DynamicMatcher::save() produces a self-describing text snapshot, but a
// bare snapshot file gives a recovering process nothing to validate the
// bytes against (a torn write that happens to end after a complete line
// still parses) and nothing to construct the matcher *from* (load()
// requires a Config that matches the snapshot before it will read it).
// The checkpoint container fixes both:
//
//   pdmm-checkpoint v1
//   meta <nbytes> <crc32>
//   <meta payload: one "key value" line per entry>
//   snap <nbytes> <crc32>
//   <snapshot payload: DynamicMatcher::save() bytes>
//   end
//
// Each section is one frame (persist/frame.h, the codec the journal's
// records share): length-prefixed and CRC-32-checksummed, so truncation
// and bit rot are detected before any payload byte reaches the snapshot
// loader. This file keeps only what is checkpoint-specific: the section
// dispatch, the meta parse and the atomic placement. The meta section
// carries the full Config plus the batch epoch, so recovery tooling can
// construct a compatible matcher from the file alone.
//
// One write path: encode_checkpoint() builds the container bytes, and
// write_checkpoint_series_bytes() places them as "<prefix>.<epoch>" —
// write "<path>.tmp", flush, rename over the final name — then keeps the
// most recent `keep`. A crash mid-checkpoint leaves either the previous
// complete file or a stray .tmp, never a half-written current one, and
// recovery can fall back to an older checkpoint when the newest one is
// damaged.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"

namespace pdmm {

class DynamicMatcher;

namespace persist {

struct CheckpointData {
  std::map<std::string, std::string> meta;  // "epoch", "rank", "seed", ...
  std::string snapshot;                     // DynamicMatcher::save() bytes

  // meta["epoch"] parsed; 0 when absent/malformed.
  uint64_t epoch() const;
  // meta["stream"]: fingerprint of the update stream the checkpointed run
  // consumed (empty when none was recorded). Recovery refuses a state
  // whose fingerprint disagrees with the restarting server's stream.
  std::string stream() const;
  // Reconstructs the Config the checkpointed matcher ran with. False when
  // a required field is missing or malformed (check_invariants is not
  // persisted; it stays at its default).
  bool config(Config& out) const;
};

// Encodes the full container (header + meta + snap + end) into `out`.
// This reads live matcher state, so it must run at the epoch barrier on
// the thread that owns the matcher; write_checkpoint_series_bytes() below
// does only file I/O, so a pipeline can ship the bytes to another thread
// and overlap the write/fsync/rename with the next batch's compute.
// `stream_fp`, when non-empty, is recorded as the "stream" meta entry (one
// line; must not contain '\n'). False (with *error) when it does, or when
// the snapshot cannot be serialized; `out` is then unchanged.
bool encode_checkpoint(const DynamicMatcher& m, std::string& out,
                       std::string* error, const std::string& stream_fp = "");

// Parses and validates one checkpoint (section framing, lengths, CRCs).
// On failure `out` is unspecified and *error names the problem.
bool read_checkpoint(std::istream& in, CheckpointData& out,
                     std::string* error);

bool read_checkpoint_file(const std::string& path, CheckpointData& out,
                          std::string* error);

// Places pre-encoded container bytes (encode_checkpoint) as
// "<prefix>.<epoch>" atomically, then prunes older series files so at most
// `keep` remain. False on write failure (pruning best-effort). The
// "checkpoint.pre_rename" sync point fires (with `epoch`) between the
// completed tmp write and the rename — an injected crash there leaves
// exactly the .tmp stray a real one would. The default durability tier
// matches the journal's: flushed, so complete once the process is the only
// thing that died. With durable=true the tmp file is fsync'd before the
// rename and the directory after it, extending atomicity to OS crashes and
// power loss (pdmm_serve's --fsync selects this for both journal records
// and checkpoints).
bool write_checkpoint_series_bytes(const std::string& prefix, uint64_t epoch,
                                   const std::string& bytes, size_t keep,
                                   std::string* error, bool durable = false);
// encode_checkpoint(m) at m's batch epoch, then
// write_checkpoint_series_bytes().
bool write_checkpoint_series(const std::string& prefix,
                             const DynamicMatcher& m, size_t keep,
                             std::string* error, bool durable = false,
                             const std::string& stream_fp = "");

// All existing "<prefix>.<epoch>" files, newest epoch first. Files whose
// suffix is not a plain decimal epoch are ignored (including .tmp strays).
std::vector<std::pair<uint64_t, std::string>> list_checkpoints(
    const std::string& prefix);

}  // namespace persist
}  // namespace pdmm
