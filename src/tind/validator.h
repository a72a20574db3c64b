#ifndef TIND_TIND_VALIDATOR_H_
#define TIND_TIND_VALIDATOR_H_

/// \file validator.h
/// Exact tIND validation (Section 4.3, Algorithm 2). The naive check walks
/// every timestamp; Algorithm 2 instead partitions time into maximal
/// intervals within which (a) Q has a single version and (b) the δ-window
/// over A's versions is constant — δ-containment can only flip at interval
/// boundaries, so one subset test per interval suffices. Boundaries are the
/// change points of Q plus every A-change point shifted by ±δ; both
/// histories are traversed with sliding windows so no version is visited
/// twice.
///
/// The Q-side state of the sweep (Q's value universe and each Q version's
/// values as slots into it) does not depend on A. A PreparedQuery holds it,
/// so a query validated against many candidates prepares it once per query
/// rather than once per candidate.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "temporal/attribute_history.h"
#include "temporal/time_domain.h"
#include "tind/params.h"

namespace tind {

/// Absolute slack used when comparing accumulated violation weights against
/// ε, so that binary floating point noise never flips a verdict for the
/// integer-valued weights of the paper's default setting.
inline constexpr double kViolationTolerance = 1e-9;

/// Calls `fn(slot)` with the position in `universe` of each value of
/// `subset`, in ascending order. Both are sorted and `subset` ⊆ `universe`,
/// so one forward pass over the universe finds every value; a subset under
/// 1/8 of the universe binary-searches forward instead. PreparedQuery and
/// ComputeRequiredValues resolve a history's versions against its
/// AllValues() this way.
template <typename Fn>
void ForEachUniverseSlot(const ValueSet& universe, const ValueSet& subset,
                         Fn&& fn) {
  const std::vector<ValueId>& u = universe.values();
  const bool sparse = subset.size() * 8 < u.size();
  auto it = u.begin();
  for (const ValueId v : subset.values()) {
    it = sparse ? std::lower_bound(it, u.end(), v) : std::find(it, u.end(), v);
    fn(static_cast<uint32_t>(it - u.begin()));
  }
}

/// \brief Immutable Q-side state of Algorithm 2 for one query history:
/// every value of every version of Q resolved to its slot in Q's value
/// universe (AllValues(), the union of its versions). Safe to share
/// read-only across threads; the history must outlive it.
class PreparedQuery {
 public:
  explicit PreparedQuery(const AttributeHistory& q);

  const AttributeHistory& history() const { return q_; }
  const ValueSet& universe() const { return q_.AllValues(); }

  /// Universe slots of the values of Q's version `v` (by index), ascending.
  const std::vector<uint32_t>& slots(size_t v) const { return slots_[v]; }

 private:
  const AttributeHistory& q_;
  std::vector<std::vector<uint32_t>> slots_;
};

/// δ-containment (Definition 3.4): Q[t] ⊆ A[[t-δ, t+δ]].
bool IsDeltaContained(const AttributeHistory& q, const AttributeHistory& a,
                      Timestamp t, int64_t delta, const TimeDomain& domain);

/// Exact check of Q ⊆_{w,ε,δ} A using Algorithm 2, with early exit as soon
/// as the accumulated violation weight exceeds ε.
bool ValidateTind(const PreparedQuery& q, const AttributeHistory& a,
                  const TindParams& params, const TimeDomain& domain);

/// ValidateTind for a query validated once: prepares `q`, then validates.
bool ValidateTind(const AttributeHistory& q, const AttributeHistory& a,
                  const TindParams& params, const TimeDomain& domain);

/// Total violation weight Σ w(t) over all δ-violated timestamps, with no
/// early exit. One call serves every ε during parameter sweeps (the Fig. 15
/// grid search evaluates many ε thresholds against a fixed (w, δ)).
double ComputeViolationWeight(const AttributeHistory& q,
                              const AttributeHistory& a, int64_t delta,
                              const WeightFunction& weight,
                              const TimeDomain& domain);

/// Reference implementation: checks δ-containment at every timestamp.
/// O(n) containment tests; used as the oracle in property tests and as the
/// ablation baseline for Algorithm 2.
bool ValidateTindNaive(const AttributeHistory& q, const AttributeHistory& a,
                       const TindParams& params, const TimeDomain& domain);

/// Naive total violation weight (see ComputeViolationWeight).
double ComputeViolationWeightNaive(const AttributeHistory& q,
                                   const AttributeHistory& a, int64_t delta,
                                   const WeightFunction& weight,
                                   const TimeDomain& domain);

}  // namespace tind

#endif  // TIND_TIND_VALIDATOR_H_
