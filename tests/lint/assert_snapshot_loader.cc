// lint-test-path: src/core/snapshot.cpp
// Corpus: assert-recoverable covers the snapshot loader — load() reports
// every bad input as a SnapshotError, so an aborting assert there must be
// flagged, while a debug-build invariant on internal state stays silent.
#define PDMM_ASSERT(x) ((void)(x))
#define PDMM_DASSERT(x) ((void)(x))

bool parse_level(int level, int top, const int* slot) {
  PDMM_ASSERT(level <= top);  // expect-lint: assert-recoverable
  PDMM_DASSERT(slot != nullptr);
  return level >= -1;
}
