// lint-test-path: src/core/corpus.cpp
// Corpus: hot-field-access — direct indexing of the SoA hot-scalar lanes
// outside core/vertex_soa.h must go through the VertexHotSoA accessors.
#include <cstdint>
#include <vector>

struct FakeHot {
  std::vector<int32_t> vlevel_;
  std::vector<uint32_t> vmatched_;
  std::vector<uint64_t> vsmask_;
  std::vector<uint8_t> vchanged_;
};

int32_t bad_reads(const FakeHot& h, uint32_t v) {
  int32_t l = h.vlevel_[v];  // expect-lint: hot-field-access
  l += static_cast<int32_t>(h.vmatched_[v]);  // expect-lint: hot-field-access
  return l;
}

void bad_writes(FakeHot& h, uint32_t v) {
  h.vsmask_[v] = 0;  // expect-lint: hot-field-access
  h.vlevel_.resize(8);  // expect-lint: hot-field-access
  h.vchanged_[v] = 1;  // expect-lint: hot-field-access
}

void waived_ok(FakeHot& h) {
  // lint:allow(hot-field-access) corpus exercise of the waiver path
  h.vsmask_[0] = 1;
}

void commented_ok() {
  // h.vlevel_[v] stays a comment, and a lookalike name is not a lane:
  std::vector<int32_t> level_;
  level_.resize(1);
  (void)level_[0];
}
