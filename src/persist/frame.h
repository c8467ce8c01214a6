// Frame: the length-prefixed, checksummed unit both persist formats are
// built from. A journal record and a checkpoint section are each one frame:
//
//   <tag>[ <u64>] <nbytes> <crc32>\n
//   <payload: exactly nbytes bytes>
//
// A journal record's tag is "rec" and its u64 is the record's epoch; a
// checkpoint section's tag is its name and it has no u64. The header
// fields are strict decimal (util/parse_num.h), the CRC-32 covers the
// payload only, and the reader bounds nbytes before it reads a payload
// byte (2^32 per journal record, 2^40 per checkpoint section). This header
// is the only code that writes or validates a frame; what surrounds the
// frames (magic lines, epoch order, section dispatch) stays with the
// format that owns it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <sstream>
#include <string>
#include <string_view>

#include "util/crc32.h"
#include "util/parse_num.h"

namespace pdmm::persist::detail {

struct FrameHeader {
  std::string tag;
  uint64_t id = 0;  // the optional u64 (a journal record's epoch)
  uint64_t nbytes = 0;
  uint32_t crc = 0;
};

// Appends one frame to `out`: `head` (the tag, plus " <u64>" when the
// format has one), the payload's size and CRC, then the payload.
inline void append_frame(std::string& out, std::string_view head,
                         std::string_view payload) {
  out += head;
  out += ' ';
  out += std::to_string(payload.size());
  out += ' ';
  out += std::to_string(crc32(payload));
  out += '\n';
  out += payload;
}

// getline that also says whether the line got its newline, with any
// trailing '\r' stripped. False when nothing at all was left to read.
inline bool read_line(std::istream& in, std::string& line, bool& complete) {
  if (!std::getline(in, line)) return false;
  complete = !in.eof();
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

// Parses one header line (without its newline): "<tag> <u64> <nbytes>
// <crc32>" when `has_id`, else "<tag> <nbytes> <crc32>". False on any
// grammar violation: wrong field count, a field that is not strict
// decimal, a crc past 2^32 - 1, or nbytes past `max_bytes`. Which tags are
// valid is the caller's to check.
inline bool parse_frame_header(const std::string& line, bool has_id,
                               uint64_t max_bytes, FrameHeader& out) {
  std::istringstream hs(line);
  std::string id_tok, len_tok, crc_tok;
  if (!(hs >> out.tag) || (has_id && !(hs >> id_tok)) ||
      !(hs >> len_tok >> crc_tok) || (hs >> std::ws, !hs.eof())) {
    return false;
  }
  uint64_t crc = 0;
  if ((has_id && parse_u64_strict(id_tok, out.id) != ParseNum::kOk) ||
      parse_u64_strict(len_tok, out.nbytes) != ParseNum::kOk ||
      parse_u64_strict(crc_tok, crc) != ParseNum::kOk || crc > UINT32_MAX ||
      out.nbytes > max_bytes) {
    return false;
  }
  out.crc = static_cast<uint32_t>(crc);
  return true;
}

enum class PayloadRead : uint8_t { kOk, kTruncated, kChecksumMismatch };

// Reads the payload `h` declares into `out`, then checks it against the
// CRC. The buffer grows chunkwise, so a corrupted length field fails on
// the actual end of file instead of forcing one giant up-front allocation.
inline PayloadRead read_frame_payload(std::istream& in, const FrameHeader& h,
                                      std::string& out) {
  out.clear();
  constexpr size_t kChunk = 1 << 20;
  while (out.size() < h.nbytes) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(kChunk, h.nbytes - out.size()));
    const size_t old = out.size();
    out.resize(old + want);
    in.read(out.data() + old, static_cast<std::streamsize>(want));
    if (static_cast<size_t>(in.gcount()) != want) {
      return PayloadRead::kTruncated;
    }
  }
  return crc32(out) == h.crc ? PayloadRead::kOk
                             : PayloadRead::kChecksumMismatch;
}

}  // namespace pdmm::persist::detail
