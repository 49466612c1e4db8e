// Tests for the SearchSpace representation layer (§4.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "tunespace/searchspace/searchspace.hpp"

using namespace tunespace;
using csp::Value;
using searchspace::SearchSpace;

namespace {

tuner::TuningProblem block_spec() {
  tuner::TuningProblem spec("blocks");
  spec.add_param("block_size_x", {1, 2, 4, 8, 16, 32})
      .add_param("block_size_y", {1, 2, 4, 8})
      .add_param("unroll", {1, 2});
  spec.add_constraint("4 <= block_size_x * block_size_y <= 32");
  return spec;
}

std::vector<std::int64_t> iota_values(std::int64_t count) {
  std::vector<std::int64_t> values(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) values[static_cast<std::size_t>(i)] = i;
  return values;
}

/// Checks find, rows_with and present_values against the columns.
void expect_indexes_match_columns(const SearchSpace& space) {
  const std::size_t n = space.size();
  const std::size_t d = space.num_params();
  std::set<std::vector<std::uint32_t>> rows;
  for (std::size_t r = 0; r < n; ++r) {
    const auto found = space.find(space.indices(r));
    ASSERT_TRUE(found.has_value()) << "row " << r;
    ASSERT_EQ(*found, r);
    rows.insert(space.indices(r));
  }

  // Absent rows: every in-domain neighbour of a sampled row that is not a
  // row itself, plus out-of-domain and wrong-arity probes.
  const std::size_t stride = std::max<std::size_t>(1, n / 64);
  for (std::size_t r = 0; r < n; r += stride) {
    for (std::size_t p = 0; p < d; ++p) {
      auto probe = space.indices(r);
      for (std::uint32_t vi = 0; vi < space.problem().domain(p).size(); ++vi) {
        probe[p] = vi;
        if (rows.count(probe)) continue;
        EXPECT_FALSE(space.find(probe).has_value());
      }
      probe[p] = static_cast<std::uint32_t>(space.problem().domain(p).size());
      EXPECT_FALSE(space.find(probe).has_value());
    }
  }
  EXPECT_FALSE(space.find(std::vector<std::uint32_t>(d + 1, 0)).has_value());

  for (std::size_t p = 0; p < d; ++p) {
    const std::size_t m = space.problem().domain(p).size();
    std::vector<std::vector<std::uint32_t>> scan(m);
    for (std::size_t r = 0; r < n; ++r) {
      scan[space.value_index(r, p)].push_back(static_cast<std::uint32_t>(r));
    }
    std::vector<std::uint32_t> present;
    for (std::uint32_t vi = 0; vi < m; ++vi) {
      const auto list = space.rows_with(p, vi);
      EXPECT_EQ(std::vector<std::uint32_t>(list.begin(), list.end()), scan[vi])
          << "param " << p << " value " << vi;
      if (!scan[vi].empty()) present.push_back(vi);
    }
    EXPECT_EQ(space.present_values(p), present) << "param " << p;
    EXPECT_TRUE(space.rows_with(p, static_cast<std::uint32_t>(m)).empty());
  }
}

}  // namespace

TEST(SearchSpaceTest, ConstructionResolvesAllSolutions) {
  SearchSpace space(block_spec());
  // Count by hand: pairs (x, y) with 4 <= x*y <= 32, times 2 unroll values.
  std::size_t pairs = 0;
  for (int x : {1, 2, 4, 8, 16, 32}) {
    for (int y : {1, 2, 4, 8}) {
      if (x * y >= 4 && x * y <= 32) ++pairs;
    }
  }
  EXPECT_EQ(space.size(), pairs * 2);
  EXPECT_EQ(space.num_params(), 3u);
  EXPECT_EQ(space.cartesian_size(), 48u);
  EXPECT_GT(space.sparsity(), 0.0);
  EXPECT_GT(space.construction_seconds(), 0.0);
}

TEST(SearchSpaceTest, ConfigAndValueAccess) {
  SearchSpace space(block_spec());
  for (std::size_t r = 0; r < space.size(); ++r) {
    const csp::Config config = space.config(r);
    ASSERT_EQ(config.size(), 3u);
    const std::int64_t prod = config[0].as_int() * config[1].as_int();
    EXPECT_GE(prod, 4);
    EXPECT_LE(prod, 32);
    EXPECT_EQ(space.value(r, 0), config[0]);
  }
}

TEST(SearchSpaceTest, FindRoundTripsEveryRow) {
  SearchSpace space(block_spec());
  for (std::size_t r = 0; r < space.size(); ++r) {
    auto found = space.find(space.indices(r));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, r);
  }
}

TEST(SearchSpaceTest, FindRejectsInvalidConfigs) {
  SearchSpace space(block_spec());
  // (1, 1, *) violates the lower product bound.
  EXPECT_FALSE(space.find_config({Value(1), Value(1), Value(1)}).has_value());
  // Value outside the declared domain.
  EXPECT_FALSE(space.find_config({Value(3), Value(2), Value(1)}).has_value());
  // Valid one resolves.
  EXPECT_TRUE(space.find_config({Value(4), Value(2), Value(1)}).has_value());
}

TEST(SearchSpaceTest, TrueBounds) {
  SearchSpace space(block_spec());
  // block_size_x = 1 requires y >= 4: still present (1*4, 1*8).
  // Every declared x value can participate; but for y, y=1 requires x >= 4.
  const auto& present_y = space.present_values(1);
  // y=1 occurs (e.g. x=4); all four y values should appear.
  EXPECT_EQ(present_y.size(), 4u);
  // Check a restricted case: tighten to x*y >= 16.
  tuner::TuningProblem tight("tight");
  tight.add_param("x", {1, 2, 4})
      .add_param("y", {1, 2, 4});
  tight.add_constraint("x * y >= 8");
  SearchSpace tight_space(tight);
  // x=1 never appears (max product 4); true bounds exclude it.
  EXPECT_EQ(tight_space.present_values(0),
            (std::vector<std::uint32_t>{1, 2}));
}

TEST(SearchSpaceTest, PostingListsPartitionRows) {
  SearchSpace space(block_spec());
  for (std::size_t p = 0; p < space.num_params(); ++p) {
    std::size_t total = 0;
    for (std::uint32_t vi = 0; vi < space.problem().domain(p).size(); ++vi) {
      total += space.rows_with(p, vi).size();
    }
    EXPECT_EQ(total, space.size());
  }
}

TEST(SearchSpaceTest, EmptySpace) {
  tuner::TuningProblem spec("empty");
  spec.add_param("x", {1, 2}).add_param("y", {1, 2});
  spec.add_constraint("x * y >= 100");
  SearchSpace space(spec);
  EXPECT_TRUE(space.empty());
  EXPECT_FALSE(space.find({0, 0}).has_value());
  EXPECT_TRUE(space.present_values(0).empty());
  expect_indexes_match_columns(space);
}

TEST(SearchSpaceTest, MethodSelectionProducesSameSpace) {
  for (auto& method : tuner::construction_methods(false)) {
    SearchSpace space(block_spec(), method);
    SearchSpace reference(block_spec());
    EXPECT_EQ(space.size(), reference.size()) << method.name;
  }
}

TEST(SearchSpaceTest, SolveStatsExposed) {
  SearchSpace space(block_spec());
  EXPECT_GT(space.solve_stats().nodes, 0u);
}

// ---------------------------------------------------------------------------
// Index build edge cases: every lookup structure must agree with a direct
// scan of the solution columns, whatever the row count, width and arity.
// ---------------------------------------------------------------------------

TEST(SearchSpaceIndexTest, SingleValueDomainsHaveZeroWidthColumns) {
  tuner::TuningProblem spec("fixed");
  spec.add_param("a", {7})
      .add_param("x", iota_values(40))
      .add_param("b", {3})
      .add_param("y", iota_values(9))
      .add_param("c", {1});
  spec.add_constraint("x + y < 40");
  const SearchSpace space(spec);
  ASSERT_EQ(space.solutions().column(0).bits(), 0u);
  ASSERT_EQ(space.solutions().column(4).bits(), 0u);
  ASSERT_GT(space.size(), 256u);
  expect_indexes_match_columns(space);

  tuner::TuningProblem all_fixed("all-fixed");
  all_fixed.add_param("a", {1}).add_param("b", {2}).add_param("c", {3});
  const SearchSpace single(all_fixed);
  ASSERT_EQ(single.size(), 1u);
  expect_indexes_match_columns(single);
}

TEST(SearchSpaceIndexTest, RowCountsAroundBlockAndPrefetchBoundaries) {
  // One parameter (d = 1) filtered to exactly `n` rows, and the same count
  // spread over three parameters, for counts below, at and just past the
  // prefetch distance and the block size, and not a multiple of either.
  for (const std::int64_t n : {1, 5, 15, 16, 17, 255, 256, 257, 511, 1000}) {
    tuner::TuningProblem one("one");
    one.add_param("x", iota_values(1024));
    one.add_constraint("x < " + std::to_string(n));
    const SearchSpace line(one);
    ASSERT_EQ(line.size(), static_cast<std::size_t>(n));
    expect_indexes_match_columns(line);

    tuner::TuningProblem three("three");
    three.add_param("x", iota_values(16))
        .add_param("y", iota_values(8))
        .add_param("z", iota_values(8));
    three.add_constraint("x * 64 + y * 8 + z < " + std::to_string(n));
    const SearchSpace cube(three);
    ASSERT_EQ(cube.size(), static_cast<std::size_t>(n));
    expect_indexes_match_columns(cube);
  }
}

TEST(SearchSpaceIndexTest, LargeSyntheticSpace) {
  tuner::TuningProblem spec("large");
  spec.add_param("a", iota_values(100))
      .add_param("b", iota_values(60))
      .add_param("c", iota_values(30))
      .add_param("d", {1, 2});
  spec.add_constraint("a + b + c < 150");
  spec.add_constraint("d == 1 or a % 3 == 0");
  const SearchSpace space(spec);
  ASSERT_GE(space.size(), 100000u);
  expect_indexes_match_columns(space);
}
