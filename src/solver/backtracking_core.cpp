#include "backtracking_core.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace tunespace::solver::detail {

using csp::Constraint;
using csp::Domain;
using csp::Value;

namespace {

/// Run constraint preprocessing over copied domains until fixpoint (bounded
/// by a small iteration cap; rounds only shrink domains, so the cap bounds
/// wasted work, not correctness).  Returns false on proven unsatisfiability.
bool preprocess_domains(csp::Problem& problem, std::vector<Domain>& domains,
                        SolveStats& stats) {
  constexpr int kMaxRounds = 8;
  for (int round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (const auto& c : problem.constraints()) {
      std::vector<Domain*> scope_domains;
      scope_domains.reserve(c->indices().size());
      std::size_t before = 0;
      for (std::uint32_t idx : c->indices()) {
        scope_domains.push_back(&domains[idx]);
        before += domains[idx].size();
      }
      if (!c->preprocess(scope_domains)) return false;
      std::size_t after = 0;
      for (Domain* d : scope_domains) after += d->size();
      if (after < before) {
        changed = true;
        stats.prunes += before - after;
      }
      for (Domain* d : scope_domains) {
        if (d->empty()) return false;
      }
    }
    if (!changed) break;
  }
  return true;
}

}  // namespace

SearchPlan build_plan(csp::Problem& problem, const OptimizedOptions& options,
                      SolveStats& stats) {
  SearchPlan plan;
  const std::size_t n = problem.num_variables();

  plan.domains = problem.domains();
  if (options.preprocess) {
    if (!preprocess_domains(problem, plan.domains, stats)) {
      plan.unsatisfiable = true;
      return plan;
    }
  }
  for (const Domain& d : plan.domains) {
    if (d.empty()) {
      plan.unsatisfiable = true;
      return plan;
    }
  }

  // Map preprocessed value positions back to original domain indices so the
  // emitted rows are canonical regardless of pruning.
  plan.orig_index.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    plan.orig_index[v].reserve(plan.domains[v].size());
    for (const Value& val : plan.domains[v].values()) {
      plan.orig_index[v].push_back(
          static_cast<std::uint32_t>(problem.domain(v).index_of(val)));
    }
  }

  // Variable ordering: most-constrained first, sorted once (§4.3.1).
  plan.order.resize(n);
  std::iota(plan.order.begin(), plan.order.end(), 0);
  if (options.sort_variables) {
    const std::vector<std::size_t> counts = problem.constraint_counts();
    std::stable_sort(plan.order.begin(), plan.order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (counts[a] != counts[b]) return counts[a] > counts[b];
                       return plan.domains[a].size() < plan.domains[b].size();
                     });
  }
  plan.pos_of.resize(n);
  for (std::size_t p = 0; p < n; ++p) plan.pos_of[plan.order[p]] = p;

  // Dense int64 mirror of every int-only domain, so fast-path constraints
  // never touch a boxed Value during search.  Skipped entirely when the fast
  // path is disabled, so ablation baselines pay no bookkeeping for it.
  plan.var_is_int.assign(n, 0);
  plan.int_values.resize(n);
  if (options.int_fast_path) {
    for (std::size_t v = 0; v < n; ++v) {
      if (plan.domains[v].int_mirror(plan.int_values[v])) plan.var_is_int[v] = 1;
    }
  }

  // Constraint dispatch tables: full check where the scope completes,
  // partial checks at every earlier scope position (§4.3.1/§4.3.2).
  // Each table is partitioned into an int64 fast tier and a boxed tier.
  plan.full_at.resize(n);
  plan.partial_at.resize(n);
  plan.full_fast_at.resize(n);
  plan.partial_fast_at.resize(n);
  plan.var_needs_boxed.assign(n, 0);
  for (const auto& c : problem.constraints()) {
    std::vector<const Domain*> scope_domains;
    scope_domains.reserve(c->indices().size());
    for (std::uint32_t idx : c->indices()) {
      scope_domains.push_back(&plan.domains[idx]);
    }
    c->prepare(scope_domains);

    if (c->indices().empty()) {
      Value dummy;
      if (!c->satisfied(&dummy)) plan.unsatisfiable = true;
      continue;
    }
    const bool fast = options.int_fast_path && c->try_specialize(scope_domains);
    if (!fast) {
      for (std::uint32_t idx : c->indices()) plan.var_needs_boxed[idx] = 1;
    }
    std::size_t last = 0;
    for (std::uint32_t idx : c->indices()) {
      last = std::max(last, plan.pos_of[idx]);
    }
    (fast ? plan.full_fast_at : plan.full_at)[last].push_back(c.get());
    if (options.partial_checks && c->prunes_partial()) {
      for (std::uint32_t idx : c->indices()) {
        if (plan.pos_of[idx] != last) {
          (fast ? plan.partial_fast_at
                : plan.partial_at)[plan.pos_of[idx]].push_back(c.get());
        }
      }
    }
  }

  // Unconstrained tail: the trailing positions whose four dispatch tables
  // are empty, grown from the end while the product stays within the cap.
  plan.tail_start = n;
  std::uint64_t tail_rows = 1;
  while (plan.tail_start > 0) {
    const std::size_t p = plan.tail_start - 1;
    if (!plan.full_at[p].empty() || !plan.partial_at[p].empty() ||
        !plan.full_fast_at[p].empty() || !plan.partial_fast_at[p].empty()) {
      break;
    }
    const std::uint64_t size = plan.domains[plan.order[p]].size();
    if (tail_rows > kMaxTailRows / size) break;
    tail_rows *= size;
    --plan.tail_start;
  }
  return plan;
}

BacktrackingEngine::BacktrackingEngine(const SearchPlan& plan, std::size_t emit_depth)
    : plan_(&plan) {
  const std::size_t n = plan.order.size();
  emit_depth_ = std::min(emit_depth, n);
  values_.resize(n);
  int_values_.assign(n, 0);
  assigned_.assign(n, 0);
  value_idx_.assign(n, 0);
  row_.resize(n);
  exhausted_ = n == 0 || plan.unsatisfiable || emit_depth_ == 0;
}

BacktrackingEngine::BacktrackingEngine(const SearchPlan& plan, PrefixSeed seed)
    : BacktrackingEngine(plan) {
  if (exhausted_) return;
  if (seed.length >= plan.order.size()) {
    exhausted_ = true;
    return;
  }
  for (std::size_t q = 0; q < seed.length; ++q) {
    const std::size_t var = plan.order[q];
    const std::uint32_t vi = seed.values[q];
    if (plan.var_is_int[var]) int_values_[var] = plan.int_values[var][vi];
    if (plan.var_needs_boxed[var]) values_[var] = plan.domains[var][vi];
    assigned_[var] = 1;
    row_[var] = plan.orig_index[var][vi];
    value_idx_[q] = vi + 1;  // keep the chosen_index invariant for seeds too
  }
  base_ = p_ = seed.length;
}

bool BacktrackingEngine::accept(std::size_t p, std::size_t vi) {
  const SearchPlan& plan = *plan_;
  const std::size_t var = plan.order[p];
  assigned_[var] = 1;
  ++effort_.nodes;
  if (plan.var_is_int[var]) int_values_[var] = plan.int_values[var][vi];
  // Boxed Values are only materialized for variables the boxed tier
  // actually reads; all-integer problems skip this copy entirely.
  if (plan.var_needs_boxed[var]) values_[var] = plan.domains[var][vi];
  const bool ok = [&] {
    for (const Constraint* c : plan.full_fast_at[p]) {
      ++effort_.constraint_checks;
      ++effort_.fast_checks;
      if (!c->satisfied_fast(int_values_.data())) return false;
    }
    for (const Constraint* c : plan.full_at[p]) {
      ++effort_.constraint_checks;
      if (!c->satisfied(values_.data())) return false;
    }
    for (const Constraint* c : plan.partial_fast_at[p]) {
      ++effort_.constraint_checks;
      ++effort_.fast_checks;
      if (!c->consistent_fast(int_values_.data(), assigned_.data())) {
        ++effort_.prunes;
        return false;
      }
    }
    for (const Constraint* c : plan.partial_at[p]) {
      ++effort_.constraint_checks;
      if (!c->consistent(values_.data(), assigned_.data())) {
        ++effort_.prunes;
        return false;
      }
    }
    return true;
  }();
  if (!ok) {
    assigned_[var] = 0;
    return false;
  }
  row_[var] = plan.orig_index[var][vi];
  return true;
}

bool BacktrackingEngine::next() {
  if (exhausted_) return false;
  const SearchPlan& plan = *plan_;

  while (true) {
    const std::size_t var = plan.order[p_];
    const std::size_t limit = plan.domains[var].size();
    bool descended = false;
    while (value_idx_[p_] < limit) {
      const std::size_t vi = value_idx_[p_]++;
      if (!accept(p_, vi)) continue;
      if (p_ + 1 == emit_depth_) {
        assigned_[var] = 0;
        return true;  // resume at this position on the next call
      }
      descend();
      descended = true;
      break;
    }
    if (descended) continue;
    assigned_[var] = 0;
    if (p_ == base_) {
      exhausted_ = true;
      return false;
    }
    --p_;
    assigned_[plan.order[p_]] = 0;
  }
}

std::uint64_t tail_rows(const SearchPlan& plan, std::size_t tail) {
  std::uint64_t rows = 1;
  for (std::size_t j = tail; j < plan.order.size(); ++j) {
    rows *= plan.domains[plan.order[j]].size();
  }
  return rows;
}

void append_tail_column(const SearchPlan& plan, std::size_t tail, std::size_t pos,
                        std::uint64_t prefixes, PackedColumn& col) {
  if (prefixes == 0) return;
  // The column cycles through its domain in runs of the product of the
  // domains after `pos`; that block of runs repeats for every combination
  // of the tail positions before `pos`, under every prefix.
  std::uint64_t outer = prefixes;
  std::uint64_t inner = tail_rows(plan, tail);
  for (std::size_t j = tail; j < pos; ++j) {
    const std::uint64_t size = plan.domains[plan.order[j]].size();
    outer *= size;
    inner /= size;
  }
  const std::vector<std::uint32_t>& orig = plan.orig_index[plan.order[pos]];
  inner /= orig.size();
  for (const std::uint32_t v : orig) col.append_run(v, inner);
  col.append_repeat(orig.size() * inner, outer - 1);
}

void BacktrackingEngine::drain(SolutionSet& out) {
  const std::uint64_t prefixes = drain_prefixes(out);
  const std::size_t tail = plan_->tail_below(base_);
  for (std::size_t pos = tail; pos < plan_->order.size(); ++pos) {
    append_tail_column(*plan_, tail, pos, prefixes,
                       out.mutable_column(plan_->order[pos]));
  }
}

std::uint64_t BacktrackingEngine::drain_prefixes(SolutionSet& out) {
  const SearchPlan& plan = *plan_;
  const std::size_t n = plan.order.size();
  assert(emit_depth_ == n && "drain() needs a full-depth engine");
  if (exhausted_) return 0;
  exhausted_ = true;

  // The tail below this engine's floor: its rows and search nodes per prefix.
  const std::size_t tail = plan.tail_below(base_);
  const std::uint64_t rows_per_prefix = tail_rows(plan, tail);
  std::uint64_t tail_nodes = 0;
  std::uint64_t product = 1;
  for (std::size_t j = tail; j < n; ++j) {
    product *= plan.domains[plan.order[j]].size();
    tail_nodes += product;
  }

  // Search [base_, tail) for valid prefixes.  run_start[p] is the prefix
  // count when position p took its current value, so the value's run spans
  // (prefixes - run_start[p]) * rows_per_prefix rows once the search moves on.
  std::uint64_t prefixes = 0;
  if (tail == base_) {
    prefixes = 1;  // the seed (or the empty prefix) is the only prefix
  } else {
    std::vector<std::uint64_t> run_start(n, 0);
    while (true) {
      const std::size_t var = plan.order[p_];
      const std::size_t limit = plan.domains[var].size();
      bool descended = false;
      while (value_idx_[p_] < limit) {
        const std::size_t vi = value_idx_[p_]++;
        if (!accept(p_, vi)) continue;
        if (p_ + 1 == tail) {
          ++prefixes;
          out.mutable_column(var).append_run(row_[var], rows_per_prefix);
          continue;
        }
        run_start[p_] = prefixes;
        descend();
        descended = true;
        break;
      }
      if (descended) continue;
      assigned_[var] = 0;
      if (p_ == base_) break;
      --p_;
      const std::size_t up = plan.order[p_];
      assigned_[up] = 0;
      out.mutable_column(up).append_run(
          row_[up], (prefixes - run_start[p_]) * rows_per_prefix);
    }
  }
  effort_.nodes += prefixes * tail_nodes;

  // Seeded positions hold one value across the whole subtree.
  for (std::size_t q = 0; q < base_; ++q) {
    const std::size_t var = plan.order[q];
    out.mutable_column(var).append_run(row_[var], prefixes * rows_per_prefix);
  }
  return prefixes;
}

}  // namespace tunespace::solver::detail
