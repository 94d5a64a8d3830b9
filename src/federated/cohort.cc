#include "federated/cohort.h"

#include <algorithm>

#include "util/check.h"

namespace bitpush {

namespace {

// How many shuffle steps ahead a swap target is drawn: far enough to
// cover a cache miss on a cohort of a million clients.
constexpr size_t kShuffleAhead = 16;

}  // namespace

std::vector<int64_t> SelectCohort(
    const std::vector<Client>& clients,
    const std::function<bool(const Client&)>& eligible,
    const CohortPolicy& policy, Rng& rng, bool* below_minimum,
    std::vector<int64_t>* unselected) {
  BITPUSH_CHECK(below_minimum != nullptr);
  BITPUSH_CHECK_GE(policy.min_cohort_size, 1);

  if (unselected != nullptr) unselected->clear();
  std::vector<int64_t> cohort;
  cohort.reserve(clients.size());
  for (size_t i = 0; i < clients.size(); ++i) {
    if (eligible == nullptr || eligible(clients[i])) {
      cohort.push_back(static_cast<int64_t>(i));
    }
  }
  if (static_cast<int64_t>(cohort.size()) < policy.min_cohort_size) {
    *below_minimum = true;
    return {};
  }
  *below_minimum = false;
  // Shuffle so truncation is an unbiased subsample: step s swaps slot
  // n - 1 - s with a draw below n - s. A step's bound does not depend on
  // the array, so each target is drawn kShuffleAhead steps early and its
  // slot loaded ahead; the draws keep their order, and none is drawn past
  // the last step.
  const size_t n = cohort.size();
  const size_t steps = n > 1 ? n - 1 : 0;
  size_t targets[kShuffleAhead] = {};
  const auto draw = [&](size_t step) {
    const size_t target = static_cast<size_t>(rng.NextBelow(n - step));
    __builtin_prefetch(&cohort[target], /*rw=*/1);
    targets[step % kShuffleAhead] = target;
  };
  for (size_t step = 0; step < std::min(kShuffleAhead, steps); ++step) {
    draw(step);
  }
  for (size_t step = 0; step < steps; ++step) {
    const size_t target = targets[step % kShuffleAhead];
    if (step + kShuffleAhead < steps) draw(step + kShuffleAhead);
    std::swap(cohort[n - 1 - step], cohort[target]);
  }
  if (policy.max_cohort_size > 0 &&
      static_cast<int64_t>(cohort.size()) > policy.max_cohort_size) {
    if (unselected != nullptr) {
      unselected->assign(
          cohort.begin() + static_cast<int64_t>(policy.max_cohort_size),
          cohort.end());
    }
    cohort.resize(static_cast<size_t>(policy.max_cohort_size));
  }
  return cohort;
}

}  // namespace bitpush
