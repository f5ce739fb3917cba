#include "storage/btree.h"

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace preserial::storage {
namespace {

Value K(int64_t i) { return Value::Int(i); }

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Height(), 0u);
  EXPECT_FALSE(tree.Lookup(K(1)).ok());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, InsertAndLookup) {
  BTree tree;
  ASSERT_TRUE(tree.Insert(K(5), 50).ok());
  ASSERT_TRUE(tree.Insert(K(3), 30).ok());
  ASSERT_TRUE(tree.Insert(K(8), 80).ok());
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.Lookup(K(5)).value(), 50u);
  EXPECT_EQ(tree.Lookup(K(3)).value(), 30u);
  EXPECT_EQ(tree.Lookup(K(8)).value(), 80u);
  EXPECT_FALSE(tree.Lookup(K(4)).ok());
}

TEST(BTreeTest, DuplicateInsertRejected) {
  BTree tree;
  ASSERT_TRUE(tree.Insert(K(1), 10).ok());
  EXPECT_EQ(tree.Insert(K(1), 11).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(tree.Lookup(K(1)).value(), 10u);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTreeTest, UpdateRepointsExistingKey) {
  BTree tree;
  ASSERT_TRUE(tree.Insert(K(1), 10).ok());
  ASSERT_TRUE(tree.Update(K(1), 99).ok());
  EXPECT_EQ(tree.Lookup(K(1)).value(), 99u);
  EXPECT_EQ(tree.Update(K(2), 1).code(), StatusCode::kNotFound);
}

TEST(BTreeTest, RemoveBasics) {
  BTree tree;
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(tree.Insert(K(i), i).ok());
  ASSERT_TRUE(tree.Remove(K(4)).ok());
  EXPECT_FALSE(tree.Contains(K(4)));
  EXPECT_EQ(tree.size(), 9u);
  EXPECT_EQ(tree.Remove(K(4)).code(), StatusCode::kNotFound);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, SplitsGrowTheTree) {
  BTree tree(/*max_keys=*/3);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), static_cast<RowId>(i)).ok());
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "after insert " << i;
  }
  EXPECT_GE(tree.Height(), 2u);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(tree.Lookup(K(i)).value(), static_cast<RowId>(i));
  }
}

TEST(BTreeTest, ReverseInsertionOrder) {
  BTree tree(/*max_keys=*/4);
  for (int64_t i = 99; i >= 0; --i) {
    ASSERT_TRUE(tree.Insert(K(i), static_cast<RowId>(i)).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<int64_t> keys;
  tree.ScanAll([&](const Value& k, RowId) {
    keys.push_back(k.as_int());
    return true;
  });
  ASSERT_EQ(keys.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(keys[i], i);
}

TEST(BTreeTest, DrainViaRemoveCollapsesHeight) {
  BTree tree(/*max_keys=*/3);
  for (int64_t i = 0; i < 60; ++i) ASSERT_TRUE(tree.Insert(K(i), i).ok());
  for (int64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(tree.Remove(K(i)).ok()) << i;
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "after remove " << i;
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 0u);
}

TEST(BTreeTest, ScanRangeInclusive) {
  BTree tree;
  for (int64_t i = 0; i < 20; i += 2) ASSERT_TRUE(tree.Insert(K(i), i).ok());
  std::vector<int64_t> seen;
  tree.Scan(K(4), K(10), [&](const Value& k, RowId) {
    seen.push_back(k.as_int());
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{4, 6, 8, 10}));
}

TEST(BTreeTest, ScanBoundsBetweenKeys) {
  BTree tree;
  for (int64_t i = 0; i < 20; i += 2) ASSERT_TRUE(tree.Insert(K(i), i).ok());
  std::vector<int64_t> seen;
  tree.Scan(K(3), K(9), [&](const Value& k, RowId) {
    seen.push_back(k.as_int());
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{4, 6, 8}));
}

TEST(BTreeTest, ScanUnboundedBelowOrAbove) {
  BTree tree;
  for (int64_t i = 1; i <= 5; ++i) ASSERT_TRUE(tree.Insert(K(i), i).ok());
  std::vector<int64_t> low;
  tree.Scan(std::nullopt, K(3), [&](const Value& k, RowId) {
    low.push_back(k.as_int());
    return true;
  });
  EXPECT_EQ(low, (std::vector<int64_t>{1, 2, 3}));
  std::vector<int64_t> high;
  tree.Scan(K(3), std::nullopt, [&](const Value& k, RowId) {
    high.push_back(k.as_int());
    return true;
  });
  EXPECT_EQ(high, (std::vector<int64_t>{3, 4, 5}));
}

TEST(BTreeTest, ScanEarlyStop) {
  BTree tree;
  for (int64_t i = 0; i < 50; ++i) ASSERT_TRUE(tree.Insert(K(i), i).ok());
  int visited = 0;
  tree.ScanAll([&](const Value&, RowId) { return ++visited < 5; });
  EXPECT_EQ(visited, 5);
}

TEST(BTreeTest, NanDoubleKeysKeepInvariants) {
  BTree tree(/*max_keys=*/3);
  ASSERT_TRUE(tree.Insert(Value::Double(std::nan("")), 1).ok());
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        tree.Insert(Value::Double(static_cast<double>(i)), i + 10).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  // NaN is a distinct, findable key sorted after every number.
  EXPECT_EQ(tree.Lookup(Value::Double(std::nan(""))).value(), 1u);
  std::vector<RowId> order;
  tree.ScanAll([&](const Value&, RowId rid) {
    order.push_back(rid);
    return true;
  });
  ASSERT_EQ(order.size(), 31u);
  EXPECT_EQ(order.back(), 1u);  // NaN last.
  ASSERT_TRUE(tree.Remove(Value::Double(std::nan(""))).ok());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BTreeTest, HeterogeneousKeysOrderByTotalOrder) {
  BTree tree;
  ASSERT_TRUE(tree.Insert(Value::String("z"), 1).ok());
  ASSERT_TRUE(tree.Insert(Value::Int(10), 2).ok());
  ASSERT_TRUE(tree.Insert(Value::Bool(true), 3).ok());
  ASSERT_TRUE(tree.Insert(Value::Double(2.5), 4).ok());
  std::vector<RowId> rids;
  tree.ScanAll([&](const Value&, RowId rid) {
    rids.push_back(rid);
    return true;
  });
  // Bool < 2.5 < 10 < "z".
  EXPECT_EQ(rids, (std::vector<RowId>{3, 4, 2, 1}));
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

// Property test: a long random op sequence must track std::map exactly and
// keep structural invariants at small fanouts (deep trees).
class BTreeRandomizedTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BTreeRandomizedTest, MatchesReferenceMap) {
  const size_t max_keys = GetParam();
  BTree tree(max_keys);
  std::map<int64_t, RowId> reference;
  Rng rng(1000 + max_keys);
  constexpr int kOps = 4000;
  constexpr int64_t kKeySpace = 300;

  for (int op = 0; op < kOps; ++op) {
    const int64_t key = rng.NextInt(0, kKeySpace - 1);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {  // Insert.
        const RowId rid = rng.Next() % 100000;
        const bool expect_ok = reference.count(key) == 0;
        const Status s = tree.Insert(K(key), rid);
        EXPECT_EQ(s.ok(), expect_ok);
        if (expect_ok) reference[key] = rid;
        break;
      }
      case 2: {  // Remove.
        const bool expect_ok = reference.erase(key) > 0;
        EXPECT_EQ(tree.Remove(K(key)).ok(), expect_ok);
        break;
      }
      case 3: {  // Lookup.
        auto it = reference.find(key);
        Result<RowId> r = tree.Lookup(K(key));
        if (it == reference.end()) {
          EXPECT_FALSE(r.ok());
        } else {
          ASSERT_TRUE(r.ok());
          EXPECT_EQ(r.value(), it->second);
        }
        break;
      }
    }
    if (op % 97 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "op " << op;
      ASSERT_EQ(tree.size(), reference.size());
    }
  }
  // Full final comparison via ordered scan.
  std::vector<std::pair<int64_t, RowId>> scanned;
  tree.ScanAll([&](const Value& k, RowId rid) {
    scanned.emplace_back(k.as_int(), rid);
    return true;
  });
  ASSERT_EQ(scanned.size(), reference.size());
  size_t i = 0;
  for (const auto& [k, rid] : reference) {
    EXPECT_EQ(scanned[i].first, k);
    EXPECT_EQ(scanned[i].second, rid);
    ++i;
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BTreeRandomizedTest,
                         ::testing::Values(3, 4, 5, 8, 16, 64));

// The same property sweep with string keys (different comparison path,
// variable-length payloads).
class BTreeStringKeyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BTreeStringKeyTest, MatchesReferenceMap) {
  BTree tree(GetParam());
  std::map<std::string, RowId> reference;
  Rng rng(4000 + GetParam());
  for (int op = 0; op < 2500; ++op) {
    // Short random keys with heavy collisions.
    std::string key;
    const size_t len = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < len; ++i) {
      key.push_back(static_cast<char>('a' + rng.NextBounded(6)));
    }
    switch (rng.NextBounded(3)) {
      case 0: {
        const RowId rid = rng.Next() % 100000;
        const bool expect_ok = reference.count(key) == 0;
        EXPECT_EQ(tree.Insert(Value::String(key), rid).ok(), expect_ok);
        if (expect_ok) reference[key] = rid;
        break;
      }
      case 1:
        EXPECT_EQ(tree.Remove(Value::String(key)).ok(),
                  reference.erase(key) > 0);
        break;
      case 2: {
        auto it = reference.find(key);
        Result<RowId> r = tree.Lookup(Value::String(key));
        EXPECT_EQ(r.ok(), it != reference.end());
        if (r.ok() && it != reference.end()) {
          EXPECT_EQ(r.value(), it->second);
        }
        break;
      }
    }
    if (op % 199 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "op " << op;
    }
  }
  EXPECT_EQ(tree.size(), reference.size());
  // Scan order must match lexicographic map order.
  std::vector<std::string> scanned;
  tree.ScanAll([&](const Value& k, RowId) {
    scanned.push_back(k.as_string());
    return true;
  });
  size_t i = 0;
  for (const auto& [k, _] : reference) {
    ASSERT_LT(i, scanned.size());
    EXPECT_EQ(scanned[i], k);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BTreeStringKeyTest,
                         ::testing::Values(3, 8, 64));

}  // namespace
}  // namespace preserial::storage
