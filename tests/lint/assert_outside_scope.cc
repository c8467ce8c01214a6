// lint-test-path: src/core/corpus.cpp
// Corpus: assert-recoverable only applies to persist/, workload/trace* and
// the snapshot loader (core/snapshot.cpp); other core code, the invariant
// oracle's check() included, may abort. No findings expected.
#define PDMM_ASSERT(x) ((void)(x))

void check(int x) { PDMM_ASSERT(x >= 0); }
