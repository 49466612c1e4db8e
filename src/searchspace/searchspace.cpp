#include "tunespace/searchspace/searchspace.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "tunespace/util/rng.hpp"
#include "tunespace/util/timer.hpp"

namespace tunespace::searchspace {

SearchSpace::SearchSpace(const tuner::TuningProblem& spec)
    : SearchSpace(spec, tuner::optimized_method()) {}

SearchSpace::SearchSpace(const tuner::TuningProblem& spec,
                         const solver::SolverOptions& parallel)
    : SearchSpace(spec, tuner::parallel_method(parallel)) {}

SearchSpace::SearchSpace(const tuner::TuningProblem& spec,
                         const tuner::Method& method) {
  util::WallTimer timer;
  fingerprint_ = tuner::spec_fingerprint(spec, method);
  problem_ = tuner::build_problem(spec, method.pipeline);
  solver::SolveResult result = method.solver->solve(problem_);
  solutions_ = std::move(result.solutions);
  stats_ = result.stats;
  util::WallTimer index_timer;
  build_indexes();
  index_seconds_ = index_timer.seconds();
  construction_seconds_ = timer.seconds();
}

double SearchSpace::sparsity() const {
  const double cart = static_cast<double>(cartesian_size());
  if (cart <= 0) return 0.0;
  return 1.0 - static_cast<double>(size()) / cart;
}

namespace {

// Rows per block of the index build.  A block's hashes (2 KiB) and one
// column's decoded values (1 KiB) stay in L1 while every column is folded in.
constexpr std::size_t kBlockRows = 256;
// Row-table inserts run this many rows behind the prefetch of their home slot.
constexpr std::size_t kPrefetchDistance = 16;

constexpr std::uint64_t kRowHashSeed = 0x51A2B3C4D5E6F708ULL;

inline void prefetch_for_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1);
#else
  (void)p;
#endif
}

/// End of the run of values equal to values[first] in values[first, count).
/// Rows come out of a depth-first search, so most columns hold long runs.
std::size_t run_end(const std::uint32_t* values, std::size_t first, std::size_t count) {
  std::size_t end = first + 1;
  while (end < count && values[end] == values[first]) ++end;
  return end;
}

}  // namespace

std::uint64_t SearchSpace::row_hash(const std::uint32_t* row) const {
  std::uint64_t h = kRowHashSeed;
  for (std::size_t p = 0; p < num_params(); ++p) h = util::mix64(h, row[p]);
  return h;
}

bool SearchSpace::row_equals(std::uint32_t row,
                             const std::uint32_t* index_row) const {
  for (std::size_t p = 0; p < num_params(); ++p) {
    if (solutions_.value_index(row, p) != index_row[p]) return false;
  }
  return true;
}

void SearchSpace::build_indexes() {
  const std::size_t n = size();
  const std::size_t d = num_params();
  assert(n < kEmptySlot);

  posting_base_.resize(d);
  std::size_t total_offsets = 0;
  for (std::size_t p = 0; p < d; ++p) {
    posting_base_[p] = total_offsets;
    total_offsets += problem_.domain(p).size() + 1;
  }
  posting_offsets_store_.assign(total_offsets, 0);
  posting_rows_store_.resize(n * d);

  const std::size_t table_size = std::bit_ceil(std::max<std::size_t>(16, n * 2));
  hash_table_store_.assign(table_size, kEmptySlot);
  const std::size_t tmask = table_size - 1;
  std::uint32_t* const table = hash_table_store_.data();

  // Pass 1, block by block: fold each column into the block's row hashes
  // (independent chains, so the mix64 latencies overlap) while counting the
  // column's values, then insert the block in row order with the home slot
  // prefetched ahead.
  std::uint64_t hash[kBlockRows] = {};
  std::uint32_t values[kBlockRows] = {};
  for (std::size_t begin = 0; begin < n; begin += kBlockRows) {
    const std::size_t len = std::min(kBlockRows, n - begin);
    std::fill_n(hash, len, kRowHashSeed);
    for (std::size_t p = 0; p < d; ++p) {
      solutions_.column(p).unpack(begin, len, values);
      for (std::size_t i = 0; i < len; ++i) {
        hash[i] = util::mix64(hash[i], values[i]);
      }
      std::uint64_t* count = posting_offsets_store_.data() + posting_base_[p] + 1;
      for (std::size_t i = 0, end = 0; i < len; i = end) {
        end = run_end(values, i, len);
        count[values[i]] += end - i;
      }
    }
    for (std::size_t i = 0; i < std::min(kPrefetchDistance, len); ++i) {
      prefetch_for_write(table + (hash[i] & tmask));
    }
    for (std::size_t i = 0; i < len; ++i) {
      if (i + kPrefetchDistance < len) {
        prefetch_for_write(table + (hash[i + kPrefetchDistance] & tmask));
      }
      std::size_t slot = static_cast<std::size_t>(hash[i]) & tmask;
      while (table[slot] != kEmptySlot) slot = (slot + 1) & tmask;
      table[slot] = static_cast<std::uint32_t>(begin + i);
    }
  }
  hash_table_ = hash_table_store_;

  // Pass 2, column by column: prefix-sum the counts into global row
  // positions (parameter p's region starts at p * n), then scatter each run
  // of equal values in one step.  Rows are visited ascending, so every
  // posting list comes out sorted.
  std::vector<std::uint64_t> cursor;
  for (std::size_t p = 0; p < d; ++p) {
    std::uint64_t* offsets = posting_offsets_store_.data() + posting_base_[p];
    const std::size_t m = problem_.domain(p).size();
    offsets[0] = static_cast<std::uint64_t>(p) * n;
    for (std::size_t vi = 0; vi < m; ++vi) offsets[vi + 1] += offsets[vi];
    cursor.assign(offsets, offsets + m);
    const solver::PackedColumn& col = solutions_.column(p);
    for (std::size_t begin = 0; begin < n; begin += kBlockRows) {
      const std::size_t len = std::min(kBlockRows, n - begin);
      col.unpack(begin, len, values);
      for (std::size_t i = 0, end = 0; i < len; i = end) {
        end = run_end(values, i, len);
        std::uint32_t* out = posting_rows_store_.data() + cursor[values[i]];
        for (std::size_t r = i; r < end; ++r) {
          *out++ = static_cast<std::uint32_t>(begin + r);
        }
        cursor[values[i]] += end - i;
      }
    }
  }
  posting_offsets_ = posting_offsets_store_;
  posting_rows_ = posting_rows_store_;
  derive_present_values();
}

void SearchSpace::derive_present_values() {
  const std::size_t d = num_params();
  present_values_.assign(d, {});
  for (std::size_t p = 0; p < d; ++p) {
    const std::size_t base = posting_base_[p];
    const std::size_t m = problem_.domain(p).size();
    for (std::uint32_t vi = 0; vi < m; ++vi) {
      if (posting_offsets_[base + vi + 1] > posting_offsets_[base + vi]) {
        present_values_[p].push_back(vi);
      }
    }
  }
}

std::optional<std::size_t> SearchSpace::find(
    const std::vector<std::uint32_t>& index_row) const {
  if (index_row.size() != num_params() || hash_table_.empty()) {
    return std::nullopt;
  }
  const std::size_t tmask = hash_table_.size() - 1;
  std::size_t i = static_cast<std::size_t>(row_hash(index_row.data())) & tmask;
  // At most one lap: a table loaded without full verification may have no
  // empty slot left to stop the probe.
  for (std::size_t step = 0;
       step < hash_table_.size() && hash_table_[i] != kEmptySlot;
       ++step, i = (i + 1) & tmask) {
    if (row_equals(hash_table_[i], index_row.data())) return hash_table_[i];
  }
  return std::nullopt;
}

std::optional<std::size_t> SearchSpace::find_config(const csp::Config& config) const {
  if (config.size() != num_params()) return std::nullopt;
  std::vector<std::uint32_t> row(num_params());
  for (std::size_t p = 0; p < num_params(); ++p) {
    const std::size_t vi = problem_.domain(p).index_of(config[p]);
    if (vi == csp::Domain::npos) return std::nullopt;
    row[p] = static_cast<std::uint32_t>(vi);
  }
  return find(row);
}

std::span<const std::uint32_t> SearchSpace::rows_with(std::size_t p,
                                                      std::uint32_t vi) const {
  if (p >= posting_base_.size() || vi >= problem_.domain(p).size()) return {};
  const std::size_t base = posting_base_[p];
  const std::uint64_t begin = posting_offsets_[base + vi];
  const std::uint64_t end = posting_offsets_[base + vi + 1];
  return posting_rows_.subspan(static_cast<std::size_t>(begin),
                               static_cast<std::size_t>(end - begin));
}

}  // namespace tunespace::searchspace
