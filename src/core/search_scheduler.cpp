#include "src/core/search_scheduler.h"

#include <numeric>
#include <string>
#include <utility>

#include "src/util/error.h"

namespace coda {

namespace {

/// SplitMix64 step — the same generator family Rng seeds with; inlined
/// here so the tournament permutation is a pure function of the seed with
/// no dependence on library distribution internals.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::size_t halving_survivors(std::size_t entrants, std::size_t eta) {
  require(eta >= 2, "halving_survivors: eta must be >= 2");
  if (entrants == 0) return 0;
  const std::size_t kept = (entrants + eta - 1) / eta;
  return kept == 0 ? 1 : kept;
}

std::vector<std::size_t> tournament_ranks(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (seed != 0) {
    std::uint64_t state = seed;
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(splitmix64(state) % static_cast<std::uint64_t>(i));
      std::swap(order[i - 1], order[j]);
    }
  }
  std::vector<std::size_t> rank(n);
  for (std::size_t pos = 0; pos < n; ++pos) rank[order[pos]] = pos;
  return rank;
}

HalvingPlan HalvingPlan::build(std::size_t n_candidates, std::size_t n_folds,
                               std::size_t eta) {
  require(n_candidates > 0, "HalvingPlan: no candidates");
  require(n_folds > 0, "HalvingPlan: need at least one fold");
  require(eta >= 2, "HalvingPlan: eta must be >= 2");
  HalvingPlan plan;
  plan.n_candidates = n_candidates;
  plan.n_folds = n_folds;
  plan.eta = eta;
  std::size_t fold = 0;
  std::size_t entrants = n_candidates;
  while (true) {
    if (entrants == 1 || n_folds - fold == 1) {
      // Final rung: the remaining entrants run every remaining fold, so
      // survivors end with full-CV scores (single-candidate early exit
      // lands here immediately — no racing against nobody).
      plan.rungs.push_back(RungSpec{fold, n_folds, entrants});
      break;
    }
    plan.rungs.push_back(RungSpec{fold, fold + 1, entrants});
    ++fold;
    entrants = halving_survivors(entrants, eta);
  }
  return plan;
}

HalvingPlan HalvingPlan::exhaustive(std::size_t n_candidates,
                                    std::size_t n_folds) {
  require(n_candidates > 0, "HalvingPlan: no candidates");
  require(n_folds > 0, "HalvingPlan: need at least one fold");
  HalvingPlan plan;
  plan.n_candidates = n_candidates;
  plan.n_folds = n_folds;
  plan.rungs.push_back(RungSpec{0, n_folds, n_candidates});
  return plan;
}

std::size_t HalvingPlan::total_fold_evals() const {
  std::size_t total = 0;
  for (const RungSpec& r : rungs) total += r.entrants * r.folds();
  return total;
}

std::string rung_key(const std::string& base_key, const SearchOptions& search,
                     std::size_t rung) {
  if (base_key.empty()) return {};
  return base_key + "|shr|e" + std::to_string(search.eta) + "|s" +
         std::to_string(search.seed) + "|r" + std::to_string(rung);
}

}  // namespace coda
