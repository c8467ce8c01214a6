// Unit tests for src/util: bit helpers, RNGs, flat map, IndexedSet, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "util/arg_parse.h"
#include "util/bits.h"
#include "util/crc32.h"
#include "util/flat_map.h"
#include "util/indexed_set.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/small_vector.h"
#include "util/stats.h"

namespace pdmm {
namespace {

TEST(Crc32, KnownVectors) {
  // The standard CRC-32 check value plus edge cases; matches zlib/binascii.
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("")), 0u);
  EXPECT_EQ(crc32(std::string_view("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(std::string_view("The quick brown fox jumps over the "
                                   "lazy dog")),
            0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string s = "pdmm-journal payload with\nseveral\nlines\n";
  for (size_t split = 0; split <= s.size(); ++split) {
    uint32_t crc = crc32_update(0, s.data(), split);
    crc = crc32_update(crc, s.data() + split, s.size() - split);
    EXPECT_EQ(crc, crc32(s)) << "split at " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::string s = "e 17 2 3 9 0 9 1 4294967295";
  const uint32_t clean = crc32(s);
  for (size_t i = 0; i < s.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      s[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(crc32(s), clean);
      s[i] ^= static_cast<char>(1 << bit);
    }
  }
}

TEST(ParseNum, I64Strict) {
  int64_t v = 0;
  EXPECT_EQ(parse_i64_strict("0", v), ParseNum::kOk);
  EXPECT_EQ(v, 0);
  EXPECT_EQ(parse_i64_strict("-1", v), ParseNum::kOk);
  EXPECT_EQ(v, -1);
  EXPECT_EQ(parse_i64_strict("9223372036854775807", v), ParseNum::kOk);
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_EQ(parse_i64_strict("-9223372036854775808", v), ParseNum::kOk);
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_EQ(parse_i64_strict("9223372036854775808", v),
            ParseNum::kOutOfRange);
  EXPECT_EQ(parse_i64_strict("", v), ParseNum::kMalformed);
  EXPECT_EQ(parse_i64_strict("+1", v), ParseNum::kMalformed);
  EXPECT_EQ(parse_i64_strict("-", v), ParseNum::kMalformed);
  EXPECT_EQ(parse_i64_strict(" 1", v), ParseNum::kMalformed);
  EXPECT_EQ(parse_i64_strict("1 ", v), ParseNum::kMalformed);
  EXPECT_EQ(parse_i64_strict("1x", v), ParseNum::kMalformed);
  EXPECT_EQ(parse_i64_strict("0x10", v), ParseNum::kMalformed);
}

TEST(Bits, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(17), 32u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Bits, Log2) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(1024), 10u);
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(1025), 11u);
}

TEST(Bits, LogCeilBase) {
  EXPECT_EQ(log_ceil(8, 1), 0u);
  EXPECT_EQ(log_ceil(8, 8), 1u);
  EXPECT_EQ(log_ceil(8, 9), 2u);
  EXPECT_EQ(log_ceil(8, 64), 2u);
  EXPECT_EQ(log_ceil(8, 65), 3u);
  EXPECT_EQ(log_ceil(4, 1 << 20), 10u);
}

TEST(Bits, IpowSat) {
  EXPECT_EQ(ipow_sat(8, 0), 1u);
  EXPECT_EQ(ipow_sat(8, 3), 512u);
  EXPECT_EQ(ipow_sat(2, 63), uint64_t{1} << 63);
  EXPECT_EQ(ipow_sat(10, 30), ~uint64_t{0});  // saturation
}

TEST(Rng, SplitmixDistinct) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) seen.insert(splitmix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Rng, XoshiroBelowIsUnbiasedEnough) {
  Xoshiro256 rng(42);
  std::vector<int> buckets(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) buckets[rng.below(10)]++;
  for (int b : buckets) {
    EXPECT_NEAR(b, kDraws / 10, kDraws / 100);
  }
}

TEST(Rng, XoshiroUniformRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, IndexedRngDeterministic) {
  IndexedRng a(5), b(5), c(6);
  EXPECT_EQ(a.raw(1, 2), b.raw(1, 2));
  EXPECT_NE(a.raw(1, 2), c.raw(1, 2));
  EXPECT_NE(a.raw(1, 2), a.raw(1, 3));
  EXPECT_NE(a.raw(1, 2), a.raw(2, 2));
}

TEST(Rng, StreamDrawsEqualTheIndexedDraws) {
  // The matcher's settle marks, h draws and Luby priorities draw through
  // stream keys; the pinned state bytes depend on each draw equalling
  // IndexedRng's. Random triples reach every bit of seed, stream and index.
  Xoshiro256 gen(31);
  for (int t = 0; t < 20000; ++t) {
    const IndexedRng rng(gen());
    const uint64_t stream = gen();
    const uint64_t index = t % 2 == 0 ? gen() : gen() >> 40;
    const uint64_t bound = 1 + gen() % (t % 3 == 0 ? 5 : uint64_t{1} << 40);
    const IndexedRng::Stream draws = rng.stream(stream);
    ASSERT_EQ(draws.raw(index), rng.raw(stream, index));
    ASSERT_EQ(draws.raw(index), hash_mix(rng.seed(), stream, index));
    ASSERT_EQ(draws.below(index, bound), rng.below(stream, index, bound));
    ASSERT_EQ(draws.uniform(index), rng.uniform(stream, index));
  }
}

TEST(Rng, IndexedBernoulliRate) {
  IndexedRng rng(11);
  int hits = 0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(3, i, 0.3);
  EXPECT_NEAR(hits, kDraws * 0.3, kDraws * 0.01);
}

TEST(Rng, ZipfSkewsTowardsSmallRanks) {
  Xoshiro256 rng(3);
  ZipfSampler zipf(1000, 1.0);
  uint64_t small = 0, total = 100000;
  for (uint64_t i = 0; i < total; ++i) small += zipf(rng) < 10;
  // With s=1 the first 10 ranks carry far more than 1% of the mass.
  EXPECT_GT(small, total / 10);
}

TEST(Rng, ZipfZeroIsUniform) {
  Xoshiro256 rng(3);
  ZipfSampler zipf(100, 0.0);
  std::vector<int> buckets(100, 0);
  for (int i = 0; i < 100000; ++i) buckets[zipf(rng)]++;
  for (int b : buckets) EXPECT_NEAR(b, 1000, 300);
}

TEST(FlatPosMap, InsertFindErase) {
  FlatPosMap<uint32_t> m;
  EXPECT_TRUE(m.empty());
  m.insert(5, 50);
  m.insert(7, 70);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 50u);
  EXPECT_EQ(*m.find(7), 70u);
  EXPECT_EQ(m.find(6), nullptr);
  m.erase(5);
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_EQ(*m.find(7), 70u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatPosMap, MatchesUnorderedMapUnderChurn) {
  FlatPosMap<uint32_t> m;
  std::unordered_map<uint32_t, uint32_t> ref;
  Xoshiro256 rng(9);
  for (int op = 0; op < 20000; ++op) {
    const uint32_t k = static_cast<uint32_t>(rng.below(500));
    if (rng.uniform() < 0.5) {
      if (!ref.count(k)) {
        m.insert(k, k * 3);
        ref[k] = k * 3;
      }
    } else if (ref.count(k)) {
      m.erase(k);
      ref.erase(k);
    }
    if (op % 512 == 0) {
      EXPECT_EQ(m.size(), ref.size());
      for (const auto& [key, val] : ref) {
        ASSERT_NE(m.find(key), nullptr);
        EXPECT_EQ(*m.find(key), val);
      }
    }
  }
}

TEST(IndexedSet, BasicOps) {
  IndexedSet s;
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.insert(9));
  EXPECT_FALSE(s.insert(3));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(9));
  EXPECT_TRUE(s.erase(3));
  EXPECT_FALSE(s.erase(3));
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.at(0), 9u);
}

TEST(IndexedSet, MatchesUnorderedSetUnderChurn) {
  IndexedSet s;
  std::unordered_set<uint32_t> ref;
  Xoshiro256 rng(13);
  for (int op = 0; op < 30000; ++op) {
    const uint32_t k = static_cast<uint32_t>(rng.below(300));
    if (rng.uniform() < 0.55) {
      EXPECT_EQ(s.insert(k), ref.insert(k).second);
    } else {
      EXPECT_EQ(s.erase(k), ref.erase(k) > 0);
    }
  }
  EXPECT_EQ(s.size(), ref.size());
  for (uint32_t k : ref) EXPECT_TRUE(s.contains(k));
}

TEST(IndexedSet, SamplingHitsAllMembers) {
  IndexedSet s;
  for (uint32_t i = 0; i < 10; ++i) s.insert(i * 11);
  std::set<uint32_t> seen;
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) seen.insert(s.sample(rng()));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Stats, Percentiles) {
  PercentileStats p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.percentile(99), 99.01, 0.5);
  EXPECT_DOUBLE_EQ(p.max(), 100.0);
}

TEST(Stats, MinMedMax) {
  EXPECT_DOUBLE_EQ(min_med_max({}).median, 0.0);
  const MinMedMax one = min_med_max({3.0});
  EXPECT_DOUBLE_EQ(one.min, 3.0);
  EXPECT_DOUBLE_EQ(one.median, 3.0);
  EXPECT_DOUBLE_EQ(one.max, 3.0);
  const MinMedMax odd = min_med_max({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(odd.min, 1.0);
  EXPECT_DOUBLE_EQ(odd.median, 3.0);
  EXPECT_DOUBLE_EQ(odd.max, 5.0);
  const MinMedMax even = min_med_max({4.0, 1.0, 2.0, 8.0});
  EXPECT_DOUBLE_EQ(even.median, 3.0);
}

TEST(Json, EscapesAndNests) {
  std::ostringstream out;
  {
    JsonWriter j(out);
    j.begin_object();
    j.field("name", "quote\"backslash\\newline\n");
    j.field("count", static_cast<uint64_t>(42));
    j.field("pi", 3.5);
    j.field("nan_is_null", std::nan(""));
    j.field("flag", true);
    j.key("list");
    j.begin_array();
    j.value(static_cast<uint64_t>(1));
    j.value("two");
    j.end_array();
    j.key("empty");
    j.begin_object();
    j.end_object();
    j.end_object();
  }
  const std::string s = out.str();
  EXPECT_NE(s.find("\"quote\\\"backslash\\\\newline\\n\""), std::string::npos);
  EXPECT_NE(s.find("\"count\": 42"), std::string::npos);
  EXPECT_NE(s.find("\"pi\": 3.5"), std::string::npos);
  EXPECT_NE(s.find("\"nan_is_null\": null"), std::string::npos);
  EXPECT_NE(s.find("\"flag\": true"), std::string::npos);
  EXPECT_NE(s.find("\"empty\": {}"), std::string::npos);
  // Balanced braces/brackets: equal number of openers and closers outside
  // strings is a good enough structural smoke check here.
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['),
            std::count(s.begin(), s.end(), ']'));
}

// ---- ArgParse: strict numeric value parsing ----

namespace argparse_test {

// Builds an ArgParse over a writable copy of the given flags.
template <typename Fn>
auto with_args(std::vector<std::string> flags, Fn fn) {
  std::vector<std::string> argv_store;
  argv_store.push_back("prog");
  for (auto& f : flags) argv_store.push_back(std::move(f));
  std::vector<char*> argv;
  for (auto& s : argv_store) argv.push_back(s.data());
  ArgParse args(static_cast<int>(argv.size()), argv.data());
  return fn(args);
}

}  // namespace argparse_test

TEST(ArgParse, ParsesWellFormedValues) {
  using argparse_test::with_args;
  EXPECT_EQ(with_args({"--n=123"},
                      [](ArgParse& a) { return a.get_u64("n", 7); }),
            123u);
  EXPECT_EQ(with_args({}, [](ArgParse& a) { return a.get_u64("n", 7); }), 7u);
  EXPECT_EQ(with_args({"--n", "456"},
                      [](ArgParse& a) { return a.get_u64("n", 7); }),
            456u);
  EXPECT_EQ(with_args({"--n=18446744073709551615"},
                      [](ArgParse& a) { return a.get_u64("n", 7); }),
            ~uint64_t{0});
  EXPECT_EQ(with_args({"--n=4294967295"},
                      [](ArgParse& a) { return a.get_u32("n", 7); }),
            ~uint32_t{0});
  EXPECT_DOUBLE_EQ(with_args({"--x=-2.5e2"},
                             [](ArgParse& a) { return a.get_double("x", 1); }),
                   -250.0);
  // Underflow is not an error: a tiny spelling denotes the subnormal/zero
  // strtod produces (only overflow is out of range).
  EXPECT_LT(with_args({"--x=1e-310"},
                      [](ArgParse& a) { return a.get_double("x", 1); }),
            1e-300);
  EXPECT_TRUE(with_args({"--flag"},
                        [](ArgParse& a) { return a.get_bool("flag", false); }));
}

TEST(ArgParse, RestReturnsUnclaimedFlags) {
  using argparse_test::with_args;
  const auto rest = with_args({"--n=3", "--k=8", "--name", "x", "--flag"},
                              [](ArgParse& a) {
                                EXPECT_EQ(a.get_u64("n", 7), 3u);
                                return a.rest();
                              });
  const std::map<std::string, std::string> want = {
      {"flag", "1"}, {"k", "8"}, {"name", "x"}};
  EXPECT_EQ(rest, want);
}

using ArgParseDeath = ::testing::Test;

TEST(ArgParseDeath, FinishRefusesUnclaimedFlags) {
  using argparse_test::with_args;
  EXPECT_EXIT(with_args({"--n=3", "--k=8"},
                        [](ArgParse& a) {
                          a.get_u64("n", 7);
                          a.rest();  // hands --k back without refusing it
                          a.finish();
                          return 0;
                        }),
              testing::ExitedWithCode(2),
              "unknown flag --k\n.*usage: .*--n=7");
}

TEST(ArgParseDeath, RejectsMalformedU64) {
  using argparse_test::with_args;
  // A bad value is reported by finish(), once every flag is registered.
  const auto get_n = [](ArgParse& a) {
    const uint64_t n = a.get_u64("n", 7);
    a.finish();
    return n;
  };
  // The historical bug: --n=abc silently parsed as 0. Now every malformed
  // value exits 2 with the usage message, same as an unknown flag.
  EXPECT_EXIT(with_args({"--n=abc"}, get_n), testing::ExitedWithCode(2),
              "invalid value for --n: 'abc'");
  EXPECT_EXIT(with_args({"--n=12abc"}, get_n), testing::ExitedWithCode(2),
              "invalid value for --n");
  EXPECT_EXIT(with_args({"--n="}, get_n), testing::ExitedWithCode(2),
              "invalid value for --n");
  EXPECT_EXIT(with_args({"--n=-5"}, get_n), testing::ExitedWithCode(2),
              "invalid value for --n: '-5'");
  EXPECT_EXIT(with_args({"--n=99999999999999999999"}, get_n),
              testing::ExitedWithCode(2), "out of range");
  EXPECT_EXIT(with_args({"--n=1.5"}, get_n), testing::ExitedWithCode(2),
              "invalid value for --n");
  // A 32-bit flag refuses what a cast would wrap: 2^32 + 2 is not rank 2.
  EXPECT_EXIT(with_args({"--n=4294967298"},
                        [](ArgParse& a) {
                          const uint32_t n = a.get_u32("n", 7);
                          a.finish();
                          return n;
                        }),
              testing::ExitedWithCode(2),
              "invalid value for --n: '4294967298' \\(out of range for a "
              "32-bit");
}

TEST(ArgParseDeath, RejectsMalformedDouble) {
  using argparse_test::with_args;
  const auto get_x = [](ArgParse& a) {
    const double x = a.get_double("x", 1.0);
    a.finish();
    return x;
  };
  EXPECT_EXIT(with_args({"--x=abc"}, get_x), testing::ExitedWithCode(2),
              "invalid value for --x: 'abc'");
  EXPECT_EXIT(with_args({"--x=1.5garbage"}, get_x),
              testing::ExitedWithCode(2), "invalid value for --x");
  EXPECT_EXIT(with_args({"--x="}, get_x), testing::ExitedWithCode(2),
              "invalid value for --x");
  EXPECT_EXIT(with_args({"--x=1e999"}, get_x), testing::ExitedWithCode(2),
              "out of range");
}

TEST(ArgParseDeath, UsageListsKnownFlagsOnBadValue) {
  using argparse_test::with_args;
  // The usage lists the flags registered before and after the bad one, and
  // the first bad value is the one reported.
  EXPECT_EXIT(with_args({"--n=abc", "--z=x"},
                        [](ArgParse& a) {
                          a.get_u64("other", 1);  // registered before n
                          const uint64_t n = a.get_u64("n", 7);
                          a.get_u64("z", 9);  // registered after n, also bad
                          a.finish();
                          return n;
                        }),
              testing::ExitedWithCode(2),
              "invalid value for --n: 'abc'.*\n"
              "usage: .*--n=7.*--other=1.*--z=9");
}

TEST(ArgParseDeath, RestReportsBadValue) {
  using argparse_test::with_args;
  EXPECT_EXIT(with_args({"--n=abc", "--k=8"},
                        [](ArgParse& a) {
                          a.get_u64("n", 7);
                          return a.rest();
                        }),
              testing::ExitedWithCode(2),
              "invalid value for --n: 'abc'.*\n"
              "usage: .*--n=7");
}

TEST(SmallVector, InlineThenSpill) {
  SmallVector<uint32_t, 2> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(v.size(), 2u);
  v.push_back(3);  // spills to the heap
  v.push_back(4);
  EXPECT_EQ(v.size(), 4u);
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], i + 1);
  EXPECT_EQ(v.back(), 4u);
  v.pop_back();
  EXPECT_EQ(v.size(), 3u);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVector, ValueSemanticsWithNonTrivialElements) {
  SmallVector<std::string, 2> a;
  a.push_back("one");
  a.push_back("two");
  a.push_back("three");  // heap
  SmallVector<std::string, 2> b = a;  // copy
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[2], "three");
  SmallVector<std::string, 2> c = std::move(a);  // move steals the heap
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], "one");
  // Inline move: elements move one by one.
  SmallVector<std::string, 2> d;
  d.push_back("only");
  SmallVector<std::string, 2> e = std::move(d);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0], "only");
  b = e;  // copy-assign over spilled storage
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], "only");
}

TEST(IndexedSet, OrderIdenticalAcrossIndexEngagement) {
  // The hash index engages above the linear cutoff; member order (the
  // observable part) must be exactly what the same operation sequence
  // produces on a tiny set that never engages it.
  IndexedSet big;
  for (uint32_t i = 0; i < 200; ++i) big.insert(i * 3);  // index engaged
  for (uint32_t i = 0; i < 200; i += 2) big.erase(i * 3);
  IndexedSet small_ref;
  // Same logical sequence restricted to a smaller universe.
  IndexedSet small;
  for (uint32_t i = 0; i < 6; ++i) {
    small.insert(i * 3);
    small_ref.insert(i * 3);
  }
  for (uint32_t i = 0; i < 6; i += 2) {
    small.erase(i * 3);
    small_ref.erase(i * 3);
  }
  ASSERT_EQ(small.size(), small_ref.size());
  for (size_t i = 0; i < small.size(); ++i)
    EXPECT_EQ(small.at(i), small_ref.at(i));
  // Spilled set stays consistent under churn near the boundary.
  IndexedSet s;
  std::unordered_set<uint32_t> ref;
  Xoshiro256 rng(99);
  for (int op = 0; op < 20000; ++op) {
    const uint32_t k = static_cast<uint32_t>(rng.below(12));
    if (rng.uniform() < 0.5) {
      EXPECT_EQ(s.insert(k), ref.insert(k).second);
    } else {
      EXPECT_EQ(s.erase(k), ref.erase(k) > 0);
    }
    ASSERT_EQ(s.size(), ref.size());
  }
  for (uint32_t k : ref) EXPECT_TRUE(s.contains(k));
}

TEST(IndexedSet, CopyAndMovePreserveMembersAndOrder) {
  IndexedSet a;
  for (uint32_t i = 0; i < 20; ++i) a.insert(i * 7);
  a.erase(21);
  const IndexedSet b = a;  // copy
  ASSERT_EQ(b.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(b.at(i), a.at(i));
  IndexedSet c = std::move(a);
  ASSERT_EQ(c.size(), b.size());
  for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ(c.at(i), b.at(i));
  EXPECT_TRUE(c.contains(28));
  EXPECT_FALSE(c.contains(21));
}

}  // namespace
}  // namespace pdmm
