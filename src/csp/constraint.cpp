#include "tunespace/csp/constraint.hpp"

#include <cassert>

namespace tunespace::csp {

void Constraint::bind(std::vector<std::uint32_t> indices) {
  assert(indices.size() == scope_.size());
  indices_ = std::move(indices);
  on_bound();
}

void Constraint::prepare(const std::vector<const Domain*>& domains) {
  (void)domains;
}

bool Constraint::consistent(const Value* values, const unsigned char* assigned) const {
  // Generic constraints can only be evaluated once fully assigned.
  if (!all_assigned(assigned)) return true;
  return satisfied(values);
}

bool Constraint::preprocess(const std::vector<Domain*>& domains) {
  (void)domains;
  return true;
}

bool Constraint::try_specialize(const std::vector<const Domain*>& domains) {
  (void)domains;
  return false;
}

bool Constraint::satisfied_fast(const std::int64_t* values) const {
  // Only reachable when a solver ignores the try_specialize() contract.
  (void)values;
  assert(false && "satisfied_fast called on a non-specialized constraint");
  return false;
}

bool Constraint::consistent_fast(const std::int64_t* values,
                                 const unsigned char* assigned) const {
  if (!all_assigned(assigned)) return true;
  return satisfied_fast(values);
}

bool domains_all_int(const std::vector<const Domain*>& domains) {
  for (const Domain* d : domains) {
    for (const Value& v : d->values()) {
      if (v.is_real() || v.is_str()) return false;
    }
  }
  return true;
}

}  // namespace tunespace::csp
