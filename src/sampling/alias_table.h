#ifndef KGAQ_SAMPLING_ALIAS_TABLE_H_
#define KGAQ_SAMPLING_ALIAS_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"

namespace kgaq {

/// Builds one alias row (Vose's method) into caller-provided storage.
///
/// The builder owns only scratch worklists, reused across calls, so filling
/// a large pool of per-node rows (e.g. TransitionModel's flat per-node alias
/// structure, one row per CSR range) allocates nothing in steady state.
/// `prob[s]` is the probability that slot `s` resolves to itself rather
/// than to `alias[s]`; alias entries are row-local indices.
///
/// A row draw is then: slot = NextBounded(n); slot if NextDouble() <
/// prob[slot] else alias[slot] — O(1) regardless of the row width.
class AliasRowBuilder {
 public:
  /// Fills `prob`/`alias` (both sized `weights.size()`) from `weights`.
  /// Negative, NaN, and zero entries are treated as zero mass; if no entry
  /// carries positive mass the row falls back to uniform.
  void BuildRow(std::span<const double> weights, std::span<double> prob,
                std::span<uint32_t> alias);

 private:
  std::vector<double> scaled_;
  std::vector<uint32_t> small_, large_;
};

/// Walker alias table over a non-negative weight vector.
///
/// Construction is O(n) (Vose's stable two-worklist method); each draw is
/// O(1): one uniform slot pick plus one biased coin, independent of n.
/// This replaces the per-draw O(log n) binary search over a cumulative CDF
/// on every weighted-sampling hot path (branch draws, session draws,
/// answer extraction) — the draw cost of Algorithm 2 no longer grows with
/// the candidate-set size.
///
/// The table is immutable after construction and safe to share across
/// threads; each drawing thread brings its own Rng.
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table from `weights`. Negative, NaN, and zero entries are
  /// treated as zero mass; if no entry carries positive mass the table
  /// falls back to uniform over all slots (mirroring Rng::NextWeighted).
  explicit AliasTable(std::span<const double> weights);

  /// Number of outcomes n (0 for an empty table).
  size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }

  /// Draws one outcome index in [0, n). Undefined on an empty table.
  size_t Draw(Rng& rng) const {
    const size_t slot = static_cast<size_t>(rng.NextBounded(prob_.size()));
    return rng.NextDouble() < prob_[slot] ? slot : alias_[slot];
  }

  /// Draws `k` outcomes into `out` (resized to exactly `k`; capacity is
  /// reused across calls so steady-state batches allocate nothing).
  /// On an empty table `out` is cleared.
  void Draw(size_t k, Rng& rng, std::vector<size_t>& out) const;

  /// Normalized probability of outcome `i` (for diagnostics/tests).
  double ProbabilityOf(size_t i) const;

  /// Heap bytes held by the table (cache byte accounting).
  size_t MemoryBytes() const {
    return prob_.capacity() * sizeof(double) +
           alias_.capacity() * sizeof(uint32_t) +
           normalized_.capacity() * sizeof(double);
  }

 private:
  // prob_[s]: probability that slot s resolves to itself rather than to
  // alias_[s]. Every column of the table has total mass 1/n.
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  std::vector<double> normalized_;  // input weights / total, for ProbabilityOf
};

}  // namespace kgaq

#endif  // KGAQ_SAMPLING_ALIAS_TABLE_H_
