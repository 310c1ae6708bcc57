// Tests for common/: units, deterministic RNG, error macros, tables and
// containers.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/chunked_vector.h"
#include "common/error.h"
#include "common/flat_map.h"
#include "common/match_table.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"

namespace soc {
namespace {

TEST(Units, SecondsRoundTrip) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.0), 0);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(500 * kMillisecond), 0.5);
}

TEST(Units, FromSecondsRejectsNegative) {
  EXPECT_THROW(from_seconds(-1.0), Error);
}

TEST(Units, TransferTimeBasics) {
  // 1 GB at 1 GB/s = 1 s.
  EXPECT_EQ(transfer_time(1'000'000'000, 1e9), kSecond);
  EXPECT_EQ(transfer_time(0, 1e9), 0);
  // Any non-empty transfer takes at least 1 ns.
  EXPECT_GE(transfer_time(1, 1e18), 1);
}

TEST(Units, TransferTimeRejectsBadInput) {
  EXPECT_THROW(transfer_time(-1, 1e9), Error);
  EXPECT_THROW(transfer_time(100, 0.0), Error);
}

TEST(Units, GbitConversion) {
  EXPECT_DOUBLE_EQ(gbit_per_s(8.0), 1e9);
  EXPECT_DOUBLE_EQ(gbit_per_s(1.0), 125e6);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, NextBelowCoversValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(123);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
  // Splitting again with the same key reproduces the stream.
  Rng a2 = parent.split(1);
  Rng a3 = parent.split(1);
  EXPECT_EQ(a2.next_u64(), a3.next_u64());
}

TEST(Rng, GaussianMoments) {
  Rng rng(31);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(55);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    SOC_CHECK(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

TEST(Table, FormatsAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsRaggedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(TextTable::num(1.234, 2), "1.23");
  EXPECT_EQ(TextTable::num(1.0, 0), "1");
}

TEST(FlatMap, InsertFindAndAbsent) {
  flat_map<int, int> m;
  EXPECT_TRUE(m.empty());
  m[3] = 30;
  m[1] = 10;
  m[3] = 33;  // overwrite through the same slot
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(3), nullptr);
  EXPECT_EQ(*m.find(3), 33);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 10);
  EXPECT_EQ(m.find(7), nullptr);
}

TEST(FlatMap, IterationFollowsInsertionOrderAcrossRehash) {
  flat_map<int, int> m;
  constexpr int kCount = 1000;  // forces several rehashes from kMinSlots
  for (int i = 0; i < kCount; ++i) m[i * 37] = i;
  int expected = 0;
  for (const auto& [key, value] : m) {
    EXPECT_EQ(key, expected * 37);
    EXPECT_EQ(value, expected);
    ++expected;
  }
  EXPECT_EQ(expected, kCount);
}

TEST(FlatMap, ClearKeepsNothingButStaysUsable) {
  flat_map<int, int> m;
  for (int i = 0; i < 100; ++i) m[i] = i;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(5), nullptr);
  m[5] = 50;
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 50);
}

// Every key hashes to the last slot, so every probe run starts at the end
// of the slot table and wraps to its front: backward-shift deletion sees
// the longest clusters and the wrap-around case on every erase.
struct WrappingHash {
  std::uint64_t operator()(int) const { return ~std::uint64_t{0}; }
};

TEST(FlatMap, RandomInsertFindEraseMatchesStdMap) {
  flat_map<int, int, WrappingHash> m;
  std::map<int, int> ref;
  Rng rng(2024);
  for (int step = 0; step < 20000; ++step) {
    const int key = static_cast<int>(rng.next_below(48));
    switch (rng.next_below(3)) {
      case 0:
        m[key] = step;
        ref[key] = step;
        break;
      case 1: {
        const int* found = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "step " << step;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
      default:
        ASSERT_EQ(m.erase(key), ref.erase(key) == 1) << "step " << step;
        break;
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  std::map<int, int> walked(m.begin(), m.end());
  EXPECT_EQ(walked, ref);
  for (const auto& [key, value] : ref) {
    ASSERT_NE(m.find(key), nullptr) << key;
    EXPECT_EQ(*m.find(key), value);
  }
}

TEST(FlatMap, EraseAbsentKeyAndReinsert) {
  flat_map<int, int> m;
  EXPECT_FALSE(m.erase(1));  // no slot table yet
  m[1] = 10;
  m[2] = 20;
  EXPECT_FALSE(m.erase(3));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  m[1] = 11;
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 11);
  ASSERT_NE(m.find(2), nullptr);
  EXPECT_EQ(*m.find(2), 20);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, EraseMovesLastEntryIntoTheFreedIndex) {
  flat_map<int, int> m;
  for (int k = 1; k <= 4; ++k) m[k] = k * 10;
  EXPECT_TRUE(m.erase(2));
  std::vector<int> order;
  for (const auto& [key, value] : m) order.push_back(key);
  EXPECT_EQ(order, (std::vector<int>{1, 4, 3}));
}

TEST(MatchTable, FifoPerExactKey) {
  MatchTable<int> t;
  const MsgKey a{0, 1, 5};
  const MsgKey wide{0, 1, 5 + (1 << 21)};  // same low 21 tag bits as `a`
  t.push(a, 1);
  t.push(wide, 2);
  t.push(a, 3);
  EXPECT_EQ(t.size(), 2u);
  int v = 0;
  ASSERT_TRUE(t.take(a, &v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(t.take(a, &v));
  EXPECT_EQ(v, 3);
  EXPECT_FALSE(t.take(a, &v));
  EXPECT_EQ(t.size(), 1u);  // `a` drained and left the table
  EXPECT_FALSE(t.take(MsgKey{0, 1, -1}, &v));
  ASSERT_TRUE(t.take(wide, &v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(t.empty());
}

TEST(MatchTable, SizeCountsKeysWithQueuedValues) {
  MatchTable<int> t;
  std::map<std::tuple<int, int, int>, std::deque<int>> ref;
  const auto live_keys = [&] {
    std::size_t n = 0;
    for (const auto& [key, q] : ref) n += q.empty() ? 0 : 1;
    return n;
  };
  Rng rng(77);
  for (int step = 0; step < 20000; ++step) {
    // Tags t and t + 2^21, and -1 next to 2^21 - 1, must stay apart.
    const int tags[] = {0, 1, 1 << 21, (1 << 21) + 1, -1, (1 << 21) - 1};
    const MsgKey key{static_cast<int>(rng.next_below(4)),
                     static_cast<int>(rng.next_below(4)),
                     tags[rng.next_below(6)]};
    auto& q = ref[{key.src, key.dst, key.tag}];
    if (rng.next_bool(0.5)) {
      t.push(key, step);
      q.push_back(step);
    } else {
      int v = -1;
      ASSERT_EQ(t.take(key, &v), !q.empty()) << "step " << step;
      if (!q.empty()) {
        EXPECT_EQ(v, q.front());
        q.pop_front();
      }
    }
    ASSERT_EQ(t.size(), live_keys()) << "step " << step;
  }
}

// Every element in index order, by range-for.
template <typename T>
std::vector<T> iterated(const ChunkedVector<T>& v) {
  std::vector<T> out;
  for (const T& x : v) out.push_back(x);
  return out;
}

TEST(ChunkedVector, EmptyStore) {
  const ChunkedVector<int> v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_FALSE(v.begin() != v.end());
}

TEST(ChunkedVector, IndexAndIterateAcrossChunkBoundaries) {
  constexpr std::size_t k = ChunkedVector<int>::kChunkSize;
  const std::vector<std::size_t> checkpoints = {1,     k - 1,     k,    k + 1,
                                                2 * k, 2 * k + 1, 3 * k};
  ChunkedVector<int> v;
  for (const std::size_t n : checkpoints) {
    while (v.size() < n) v.push_back(7 * static_cast<int>(v.size()));
    ASSERT_EQ(v.size(), n);
    const std::vector<int> seen = iterated(v);
    ASSERT_EQ(seen.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(v[i], 7 * static_cast<int>(i)) << "size " << n << " index " << i;
      ASSERT_EQ(seen[i], v[i]) << "size " << n << " index " << i;
    }
  }
}

TEST(ChunkedVector, GrowthKeepsAddressesAndElementsStayMutable) {
  constexpr std::size_t k = ChunkedVector<int>::kChunkSize;
  ChunkedVector<int> v;
  v.push_back(1);
  const int* first = &v[0];
  const int* last_of_chunk = nullptr;
  for (std::size_t i = 1; i < 3 * k; ++i) {
    v.push_back(static_cast<int>(i));
    if (i == k - 1) last_of_chunk = &v[k - 1];
  }
  EXPECT_EQ(first, &v[0]);
  EXPECT_EQ(last_of_chunk, &v[k - 1]);
  v[k] += 100;  // mutable access through operator[]
  EXPECT_EQ(v[k], static_cast<int>(k) + 100);

  const ChunkedVector<int> moved(std::move(v));
  EXPECT_EQ(moved.size(), 3 * k);
  EXPECT_EQ(&moved[0], first);
}

TEST(RingQueue, FifoThroughInlineAndSpill) {
  RingQueue<int> q;
  // Stay within the inline buffer, then force a spill, then wrap.
  for (int round = 0; round < 3; ++round) {
    const int depth = 1 << (round + 1);  // 2, 4, 8
    for (int i = 0; i < depth; ++i) q.push_back(round * 100 + i);
    for (int i = 0; i < depth; ++i) {
      EXPECT_EQ(q.front(), round * 100 + i);
      q.pop_front();
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(RingQueue, GrowthPreservesOrderMidStream) {
  RingQueue<int> q;
  int next_push = 0;
  int next_pop = 0;
  // Interleave so growth happens while head is offset into the ring.
  for (int i = 0; i < 200; ++i) {
    q.push_back(next_push++);
    q.push_back(next_push++);
    EXPECT_EQ(q.front(), next_pop);
    q.pop_front();
    ++next_pop;
  }
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_pop++);
    q.pop_front();
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(RingQueue, EmptyAccessThrows) {
  RingQueue<int> q;
  EXPECT_THROW(q.front(), Error);
  EXPECT_THROW(q.pop_front(), Error);
  q.push_back(1);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.front(), Error);
}

}  // namespace
}  // namespace soc
