// Update-trace file I/O: a line-oriented text format so streams can be
// recorded, shared, and replayed against any matcher implementation.
//
// Format (one op per line, '#' comments, blank lines ignored):
//   i v1 v2 ... vk     insert hyperedge {v1..vk}
//   d v1 v2 ... vk     delete hyperedge {v1..vk}
//   b                  batch boundary (ops between boundaries form a batch)
//
// A trace is a sequence of batches; within a batch, deletions apply before
// insertions (the library's batch semantics), so recorders must not emit a
// deletion of an edge inserted in the same batch.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/generators.h"

namespace pdmm {

// Serializes batches into `out`. Inverse of read_trace.
void write_trace(std::ostream& out, const std::vector<Batch>& batches);

// Appends one batch's encoding to `out`: its d/i op lines followed by the
// `b` boundary. The one writer of that grammar: write_trace is a header
// comment plus one append_batch per batch, and the persistence journal
// (src/persist/journal.h) embeds exactly one batch encoding as each
// record's payload, so trace files and journal payloads cannot drift
// apart and journals replay with the same parser (read_trace) that
// validates traces.
void append_batch(std::string& out, const Batch& b);

// Parses a trace into `out` (replacing its contents). Malformed input —
// unknown op, op without endpoints, non-numeric or out-of-range endpoint,
// duplicate endpoint within an op, trailing tokens after a batch
// boundary — is a *recoverable* error: read_trace returns false and sets
// *error (when given) to a line-numbered message, so drivers can reject a
// bad trace gracefully instead of aborting the process. On failure `out`
// holds the batches parsed before the offending line.
bool read_trace(std::istream& in, std::vector<Batch>& out,
                std::string* error = nullptr);

// Convenience for tests and trusted inputs: asserts the trace parses.
std::vector<Batch> read_trace_or_die(std::istream& in);

// Convenience: record `num_batches` from any stream generator.
template <typename Stream>
std::vector<Batch> record_stream(Stream& stream, size_t num_batches,
                                 size_t batch_size) {
  std::vector<Batch> out;
  out.reserve(num_batches);
  for (size_t i = 0; i < num_batches; ++i) out.push_back(stream.next(batch_size));
  return out;
}

}  // namespace pdmm
