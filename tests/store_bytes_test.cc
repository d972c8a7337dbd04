// The store's byte accounting against the heap. This binary replaces the
// global operator new/delete with counting versions, so it can compare a
// relation's ApproxBytes() with the heap bytes the relation really holds,
// and it pins the footprint of a browse-shaped relation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/hierarchical_relation.h"
#include "testing/fixtures.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_allocations{0};

// Each block carries its requested size in a header, so delete can
// subtract exactly what new added.
constexpr size_t kHeader = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = size;
  g_live_bytes.fetch_add(static_cast<int64_t>(size),
                         std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(base) + kHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*static_cast<std::size_t*>(base)),
      std::memory_order_relaxed);
  std::free(base);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace hirel {
namespace {

int64_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

int64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Builds a 10^4-tuple relation over `items`, erases every other tuple and
/// re-adds the erased items, then checks ApproxBytes() against the heap
/// bytes the relation holds (everything allocated since just before it
/// was constructed and not yet freed) and that finding and reading every
/// tuple allocates nothing.
void ExpectApproxBytesHonest(const Schema& schema,
                             const std::vector<Item>& items) {
  const int64_t before = LiveBytes();
  auto relation = std::make_unique<HierarchicalRelation>("r", schema);
  for (const Item& item : items) {
    ASSERT_TRUE(relation->Insert(item, Truth::kPositive).ok());
  }
  for (size_t i = 0; i < items.size(); i += 2) {
    ASSERT_TRUE(relation->Erase(static_cast<TupleId>(i)).ok());
  }
  for (size_t i = 0; i < items.size(); i += 2) {
    ASSERT_TRUE(relation->Insert(items[i], Truth::kNegative).ok());
  }
  const double held = static_cast<double>(LiveBytes() - before);
  const double approx = static_cast<double>(relation->ApproxBytes());
  std::printf("arity %zu: %zu tuples, heap %.0f B (%.1f B/tuple), "
              "ApproxBytes %.0f B (%.1f B/tuple)\n",
              schema.size(), relation->size(), held,
              held / relation->size(), approx, approx / relation->size());
  EXPECT_EQ(relation->size(), items.size());
  EXPECT_NEAR(approx / held, 1.0, 0.15)
      << "ApproxBytes " << approx << " vs heap " << held;

  // Lookups and tuple reads work in place: no allocation at all.
  const int64_t allocations = Allocations();
  size_t found = 0;
  for (const Item& item : items) {
    std::optional<TupleId> id = relation->FindItem(item);
    found += id.has_value() && relation->tuple(*id).item == item;
  }
  EXPECT_EQ(found, items.size());
  EXPECT_EQ(Allocations(), allocations);
}

TEST(StoreBytesTest, ApproxBytesMatchesTheHeapAtArityOne) {
  Database db;
  Hierarchy* h = testing::BuildTreeHierarchy(db, "d", /*depth=*/1,
                                             /*fanout=*/10,
                                             /*instances_per_leaf=*/1000);
  std::vector<Item> items;
  for (NodeId atom : h->Instances()) items.push_back({atom});
  ASSERT_EQ(items.size(), 10000u);
  ExpectApproxBytesHonest(Schema({{"v", h}}), items);
}

TEST(StoreBytesTest, ApproxBytesMatchesTheHeapAtArityTwo) {
  Database db;
  Hierarchy* a = testing::BuildTreeHierarchy(db, "a", 1, 4, 25);
  Hierarchy* b = testing::BuildTreeHierarchy(db, "b", 1, 4, 25);
  std::vector<Item> items;
  for (NodeId x : a->Instances()) {
    for (NodeId y : b->Instances()) items.push_back({x, y});
  }
  ASSERT_EQ(items.size(), 10000u);
  ExpectApproxBytesHonest(Schema({{"a", a}, {"b", b}}), items);
}

/// The footprint the browse workload's store_bytes_per_tuple measures,
/// pinned on a deterministic relation of the same shape.
TEST(StoreBytesTest, BrowseShapedRelationFitsEightyBytesPerTuple) {
  Database db;
  HierarchicalRelation* stock = testing::BuildBrowseShapedStock(db, 10000);
  ASSERT_GT(stock->size(), 9000u);
  double per_tuple =
      static_cast<double>(stock->ApproxBytes()) / stock->size();
  std::printf("browse-shaped: %zu tuples, %.1f B/tuple\n", stock->size(),
              per_tuple);
  EXPECT_LE(per_tuple, 80.0);
}

}  // namespace
}  // namespace hirel
