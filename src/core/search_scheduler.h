// Search-plan arithmetic (DESIGN.md §16): the rung schedule the eval
// engine's one racing loop runs. Exhaustive search is the one-rung plan
// (every candidate scores every fold, nothing is pruned); successive halving
// races all candidates on fold 0, ranks them by partial CV score, prunes the
// losing fraction (1 - 1/eta), and promotes the survivors to the next fold,
// with a final rung that runs every remaining fold so survivors finish with
// full-CV scores. SystemDS (PAPERS.md) motivates exactly this
// resource-aware pruning over brute enumeration — as a policy on one
// executor, not a second executor.
//
// Determinism (the prune-seal rule): a rung's ranking is a pure function
// of the candidates' fold scores, their stable enumeration order, and the
// seeded tournament tie-break permutation. Fold scores are themselves
// bit-deterministic, so every cooperating client computes the *same*
// prune decisions regardless of thread interleaving, chaos schedule, or
// which peer served which rung segment — which is what lets a fleet split
// one search candidate-by-candidate and rung-by-rung with zero redundant
// fold evaluations.
//
// Cooperation: a rung spanning every fold (the one-rung plan, or a halving
// plan that degenerates to one rung) claims and publishes each candidate
// under its plain base key. A racing rung's unit claims a rung-qualified
// DARR key ("<base>|shr|e<eta>|s<seed>|r<rung>") and publishes its
// segment's fold scores, so a pruned candidate's partial results still
// reach the fleet; a candidate surviving the final rung additionally
// publishes the assembled full-CV result under its plain base key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/evaluator.h"

namespace coda {

/// One rung of a halving schedule: `entrants` candidates each score folds
/// [fold_begin, fold_end).
struct RungSpec {
  std::size_t fold_begin = 0;
  std::size_t fold_end = 0;
  std::size_t entrants = 0;

  std::size_t folds() const { return fold_end - fold_begin; }
};

/// Survivors of a rung with `entrants` candidates under pruning factor
/// `eta`: ceil(entrants / eta), never below 1.
std::size_t halving_survivors(std::size_t entrants, std::size_t eta);

/// Seeded tournament tie-break: returns rank[i] = position of candidate i
/// in a Fisher-Yates shuffle of the enumeration order. Seed 0 is the
/// identity permutation (plain enumeration order, matching the exhaustive
/// evaluator's order-stable tie rule).
std::vector<std::size_t> tournament_ranks(std::size_t n, std::uint64_t seed);

/// The complete rung schedule for (n_candidates, n_folds, eta). Built
/// identically on every client before any evaluation starts — the plan
/// depends only on the candidate count, never on scores.
struct HalvingPlan {
  std::size_t n_candidates = 0;
  std::size_t n_folds = 0;
  std::size_t eta = 2;
  std::vector<RungSpec> rungs;

  /// Rung 0 races all candidates on fold 0; each later rung adds one fold
  /// for the surviving ceil(prev / eta); once a single candidate remains
  /// (or a single fold), the final rung covers every remaining fold so
  /// survivors end with full-CV scores. One candidate or one fold total
  /// degenerates to a single full rung (no racing).
  static HalvingPlan build(std::size_t n_candidates, std::size_t n_folds,
                           std::size_t eta);

  /// Exhaustive search: one rung in which every candidate scores every
  /// fold and nothing is pruned.
  static HalvingPlan exhaustive(std::size_t n_candidates, std::size_t n_folds);

  /// Fold evaluations the schedule admits: sum of entrants × folds over
  /// the rungs. The fleet-wide computed total equals this exactly when
  /// cooperation splits the units without redundancy.
  std::size_t total_fold_evals() const;

  /// What the exhaustive sweep would run: n_candidates × n_folds.
  std::size_t exhaustive_fold_evals() const { return n_candidates * n_folds; }
};

/// Rung-qualified cooperative key for one (candidate, rung) unit; empty
/// when `base_key` is empty (non-cooperative candidate).
std::string rung_key(const std::string& base_key, const SearchOptions& search,
                     std::size_t rung);

}  // namespace coda
