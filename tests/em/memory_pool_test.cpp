#include "em/memory_pool.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "net/graph.hpp"

namespace qntn::em {
namespace {

net::Graph triangle() {
  net::Graph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto c = g.add_node("c");
  g.add_edge(a, b, 0.9);
  g.add_edge(b, c, 0.8);
  g.add_edge(a, c, 0.7);
  return g;
}

TEST(MemoryPool, FairShareSplitsSlotsEvenly) {
  MemoryPoolOptions options;
  options.slots_per_node = 8;  // degree 2 everywhere -> quota 4 per edge
  MemoryPool pool(options);
  const net::Graph g = triangle();
  pool.rebuild(g);
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(pool.available(e), 4u) << "edge " << e;
  }
  EXPECT_EQ(pool.buffered(), 12u);
  // Every slot of every node holds a pair half: 2 * 12 / (3 * 8).
  EXPECT_DOUBLE_EQ(pool.occupancy(), 1.0);
}

TEST(MemoryPool, RemainderSlotsGoToEarlierEdges) {
  // Star: the hub's 8 slots split 3-3-2 across its three edges in edge
  // order; leaves could buffer 8 but the hub quota binds.
  net::Graph g;
  const auto hub = g.add_node("hub");
  const auto l1 = g.add_node("l1");
  const auto l2 = g.add_node("l2");
  const auto l3 = g.add_node("l3");
  g.add_edge(hub, l1, 0.9);
  g.add_edge(hub, l2, 0.9);
  g.add_edge(hub, l3, 0.9);
  MemoryPoolOptions options;
  options.slots_per_node = 8;
  MemoryPool pool(options);
  pool.rebuild(g);
  EXPECT_EQ(pool.available(0), 3u);
  EXPECT_EQ(pool.available(1), 3u);
  EXPECT_EQ(pool.available(2), 2u);
}

TEST(MemoryPool, StorageLifetimeCapsTheBufferLadder) {
  MemoryPoolOptions options;
  options.slots_per_node = 100;
  options.generation_period = 0.05;
  options.max_storage = 0.1;  // ages {0, 0.05, 0.1} survive -> 3 pairs
  MemoryPool pool(options);
  net::Graph g;
  const auto a = g.add_node();
  const auto b = g.add_node();
  g.add_edge(a, b, 0.9);
  pool.rebuild(g);
  EXPECT_EQ(pool.available(0), 3u);
}

TEST(MemoryPool, ConsumesYoungestFirstWithArithmeticAges) {
  MemoryPoolOptions options;
  options.slots_per_node = 8;
  options.generation_period = 0.05;
  MemoryPool pool(options);
  const net::Graph g = triangle();
  pool.rebuild(g);
  EXPECT_DOUBLE_EQ(pool.next_age(0), 0.0);
  EXPECT_TRUE(pool.try_consume(0, 1));
  EXPECT_DOUBLE_EQ(pool.next_age(0), 0.05);
  EXPECT_TRUE(pool.try_consume(0, 2));
  EXPECT_DOUBLE_EQ(pool.next_age(0), 0.15);
  EXPECT_EQ(pool.available(0), 1u);
  EXPECT_FALSE(pool.try_consume(0, 2));  // only one left: all-or-nothing
  EXPECT_EQ(pool.available(0), 1u);
  EXPECT_EQ(pool.consumed(), 3u);
}

TEST(MemoryPool, RebuildResetsConsumption) {
  MemoryPoolOptions options;
  MemoryPool pool(options);
  const net::Graph g = triangle();
  pool.rebuild(g);
  EXPECT_TRUE(pool.try_consume(0, 2));
  pool.rebuild(g);
  EXPECT_EQ(pool.consumed(), 0u);
  EXPECT_EQ(pool.available(0), 4u);
  EXPECT_DOUBLE_EQ(pool.next_age(0), 0.0);
}

TEST(MemoryPool, ResetConsumptionRefillsTheSameBuffers) {
  // The next snapshot of an epoch starts from the rebuilt buffers, full.
  MemoryPoolOptions options;
  MemoryPool pool(options);
  const net::Graph g = triangle();
  pool.rebuild(g);
  const std::size_t buffered = pool.buffered();
  const double occupancy = pool.occupancy();
  EXPECT_TRUE(pool.try_consume(0, 2));
  EXPECT_TRUE(pool.try_consume(2, 1));
  pool.reset_consumption();
  EXPECT_EQ(pool.consumed(), 0u);
  EXPECT_EQ(pool.buffered(), buffered);
  EXPECT_EQ(pool.occupancy(), occupancy);
  for (std::size_t edge = 0; edge < 3; ++edge) {
    EXPECT_EQ(pool.available(edge), 4u);
    EXPECT_DOUBLE_EQ(pool.next_age(edge), 0.0);
  }
}

TEST(MemoryPool, OccupancyIgnoresIsolatedNodes) {
  net::Graph g;
  const auto a = g.add_node();
  const auto b = g.add_node();
  g.add_node();  // isolated: no memory in use, not in the denominator
  g.add_edge(a, b, 0.9);
  MemoryPoolOptions options;
  options.slots_per_node = 4;
  MemoryPool pool(options);
  pool.rebuild(g);
  // One edge buffering min(4, 4) = 4 pairs = 8 halves over 2 linked nodes.
  EXPECT_DOUBLE_EQ(pool.occupancy(), 1.0);
}

TEST(MemoryPool, EmptyGraphHasZeroOccupancy) {
  MemoryPool pool(MemoryPoolOptions{});
  net::Graph g;
  g.add_node();
  pool.rebuild(g);
  EXPECT_EQ(pool.buffered(), 0u);
  EXPECT_DOUBLE_EQ(pool.occupancy(), 0.0);
}

TEST(MemoryPoolOptions, ValidateRejectsDegenerateParameters) {
  MemoryPoolOptions options;
  options.slots_per_node = 0;
  EXPECT_THROW(options.validate(), Error);
  options = MemoryPoolOptions{};
  options.generation_period = 0.0;
  EXPECT_THROW(options.validate(), Error);
  options = MemoryPoolOptions{};
  options.max_storage = -1.0;
  EXPECT_THROW(options.validate(), Error);
  options = MemoryPoolOptions{};
  options.memory.t2 = 3.0 * options.memory.t1;  // unphysical
  EXPECT_THROW(options.validate(), Error);
}

}  // namespace
}  // namespace qntn::em
