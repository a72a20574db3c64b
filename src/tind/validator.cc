#include "tind/validator.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"

namespace tind {

namespace {

/// \brief Sliding multiset of the values of A's versions intersecting
/// [ts-δ, ts+δ]. AdvanceTo must be called with non-decreasing ts; each
/// version of A enters and leaves at most once over a whole sweep.
///
/// Only values that appear somewhere in Q can ever be asked for by
/// ContainsAll, so the window tracks counts for Q's value universe alone —
/// a candidate with huge versions (the corpus catch-alls, the worst and
/// most common validation case) costs one sorted intersection per version
/// instead of hashing every value it holds into a map. The universe and
/// Q's slot lists come from the PreparedQuery; the window owns only the
/// per-candidate counts.
class DeltaWindow {
 public:
  DeltaWindow(const PreparedQuery& q, const AttributeHistory& a,
              int64_t delta)
      : q_(q), a_(a), delta_(delta), counts_(q.universe().size(), 0) {}

  void AdvanceTo(Timestamp ts) {
    const auto& change_ts = a_.change_timestamps();
    const int64_t num_versions = static_cast<int64_t>(a_.num_versions());
    // Versions enter once their first valid timestamp is <= ts + δ.
    while (next_enter_ < num_versions &&
           change_ts[static_cast<size_t>(next_enter_)] <= ts + delta_) {
      UpdateVersion(next_enter_, +1);
      ++next_enter_;
    }
    // Versions leave once their last valid timestamp is < ts - δ.
    while (first_in_window_ < next_enter_ &&
           a_.ValidityInterval(first_in_window_).end < ts - delta_) {
      UpdateVersion(first_in_window_, -1);
      ++first_in_window_;
    }
  }

  /// True iff every value of Q's version `q_version` (by index) is present
  /// in the window.
  bool ContainsAll(size_t q_version) const {
    for (const uint32_t slot : q_.slots(q_version)) {
      if (counts_[slot] == 0) return false;
    }
    return true;
  }

 private:
  /// Applies `delta` to the count of every universe value present in A's
  /// version `idx`. Enter and leave enumerate the identical intersection,
  /// so the counts stay balanced.
  void UpdateVersion(int64_t idx, int delta) {
    const auto& u = q_.universe().values();
    const auto& av = a_.versions()[static_cast<size_t>(idx)].values();
    if (u.empty() || av.empty()) return;
    // Adaptive intersection: binary-search the big side when the sizes are
    // lopsided (catch-all versions dwarf a query's universe), otherwise a
    // linear merge.
    if (u.size() * 8 < av.size()) {
      auto lo = av.begin();
      for (size_t i = 0; i < u.size(); ++i) {
        lo = std::lower_bound(lo, av.end(), u[i]);
        if (lo == av.end()) break;
        if (*lo == u[i]) counts_[i] += delta;
      }
    } else if (av.size() * 8 < u.size()) {
      auto lo = u.begin();
      for (const ValueId v : av) {
        lo = std::lower_bound(lo, u.end(), v);
        if (lo == u.end()) break;
        if (*lo == v) counts_[static_cast<size_t>(lo - u.begin())] += delta;
      }
    } else {
      auto a_it = av.begin();
      for (size_t i = 0; i < u.size() && a_it != av.end();) {
        if (u[i] == *a_it) {
          counts_[i] += delta;
          ++i;
          ++a_it;
        } else if (u[i] < *a_it) {
          ++i;
        } else {
          ++a_it;
        }
      }
    }
  }

  const PreparedQuery& q_;
  const AttributeHistory& a_;
  const int64_t delta_;
  int64_t next_enter_ = 0;       ///< First version not yet entered.
  int64_t first_in_window_ = 0;  ///< First version still in the window.
  std::vector<int> counts_;      ///< Window multiplicity per universe slot.
};

/// Assembles the sorted interval boundaries of Algorithm 2 (line 2):
/// Q's change points plus A's change points shifted by ±δ, restricted to
/// [Q's birth, n-1] (before Q's birth Q[t] = ∅ and no violation is
/// possible), with the terminating sentinel n.
std::vector<Timestamp> CollectBoundaries(const AttributeHistory& q,
                                         const AttributeHistory& a,
                                         int64_t delta, int64_t n) {
  std::vector<Timestamp> boundaries;
  boundaries.reserve(q.num_versions() + 2 * a.num_versions() + 2);
  const Timestamp start = q.birth();
  for (const Timestamp t : q.change_timestamps()) {
    if (t >= start && t < n) boundaries.push_back(t);
  }
  for (const Timestamp c : a.change_timestamps()) {
    const Timestamp enter = c - delta;
    if (enter >= start && enter < n) boundaries.push_back(enter);
    const Timestamp leave = c + delta;
    if (leave >= start && leave < n) boundaries.push_back(leave);
  }
  boundaries.push_back(start);
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());
  boundaries.push_back(n);  // Sentinel closing the last interval.
  return boundaries;
}

/// Core sweep shared by validation and violation-weight computation.
/// Invokes `on_violation(interval)` for every maximal violated interval;
/// stops early if the callback returns false.
template <typename Fn>
void SweepViolations(const PreparedQuery& prepared, const AttributeHistory& a,
                     int64_t delta, const TimeDomain& domain, Fn&& on_violation) {
  const AttributeHistory& q = prepared.history();
  const int64_t n = domain.num_timestamps();
  if (q.num_versions() == 0 || n == 0) return;
  const std::vector<Timestamp> boundaries = CollectBoundaries(q, a, delta, n);
  DeltaWindow window(prepared, a, delta);
  // Index of Q's version valid at the current boundary.
  int64_t q_version = -1;
  const auto& q_change_ts = q.change_timestamps();
  const int64_t q_num_versions = static_cast<int64_t>(q.num_versions());
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    const Timestamp begin = boundaries[i];
    const Timestamp end = boundaries[i + 1] - 1;
    while (q_version + 1 < q_num_versions &&
           q_change_ts[static_cast<size_t>(q_version + 1)] <= begin) {
      ++q_version;
    }
    // begin >= q.birth(), so q_version is valid here.
    window.AdvanceTo(begin);
    if (!window.ContainsAll(static_cast<size_t>(q_version))) {
      if (!on_violation(Interval{begin, end})) return;
    }
  }
}

}  // namespace

PreparedQuery::PreparedQuery(const AttributeHistory& q) : q_(q) {
  TIND_OBS_COUNTER_ADD("validate/prepared_queries", 1);
  slots_.resize(q.num_versions());
  for (size_t vi = 0; vi < q.num_versions(); ++vi) {
    const ValueSet& version = q.versions()[vi];
    slots_[vi].reserve(version.size());
    ForEachUniverseSlot(universe(), version, [&](uint32_t slot) {
      slots_[vi].push_back(slot);
    });
  }
}

bool IsDeltaContained(const AttributeHistory& q, const AttributeHistory& a,
                      Timestamp t, int64_t delta, const TimeDomain& domain) {
  const ValueSet& q_values = q.VersionAt(t);
  if (q_values.empty()) return true;
  const ValueSet a_window = a.UnionInInterval(
      domain.Clamp(Interval{t - delta, t + delta}));
  return q_values.IsSubsetOf(a_window);
}

bool ValidateTind(const PreparedQuery& q, const AttributeHistory& a,
                  const TindParams& params, const TimeDomain& domain) {
  TIND_OBS_COUNTER_ADD("validate/calls", 1);
  double violation = 0.0;
  bool valid = true;
  size_t violated_intervals = 0;
  SweepViolations(q, a, params.delta, domain, [&](const Interval& i) {
    ++violated_intervals;
    violation += params.weight->Sum(i);
    if (violation > params.epsilon + kViolationTolerance) {
      valid = false;
      return false;  // Early exit (Algorithm 2, line 10).
    }
    return true;
  });
  TIND_OBS_COUNTER_ADD("validate/violated_intervals", violated_intervals);
  // Two call sites, not a ternary name: the macro caches the metric pointer
  // per call site and requires a fixed literal.
  if (valid) {
    TIND_OBS_COUNTER_ADD("validate/accepted", 1);
  } else {
    TIND_OBS_COUNTER_ADD("validate/rejected", 1);
  }
  return valid;
}

bool ValidateTind(const AttributeHistory& q, const AttributeHistory& a,
                  const TindParams& params, const TimeDomain& domain) {
  return ValidateTind(PreparedQuery(q), a, params, domain);
}

double ComputeViolationWeight(const AttributeHistory& q,
                              const AttributeHistory& a, int64_t delta,
                              const WeightFunction& weight,
                              const TimeDomain& domain) {
  double violation = 0.0;
  SweepViolations(PreparedQuery(q), a, delta, domain, [&](const Interval& i) {
    violation += weight.Sum(i);
    return true;
  });
  return violation;
}

bool ValidateTindNaive(const AttributeHistory& q, const AttributeHistory& a,
                       const TindParams& params, const TimeDomain& domain) {
  double violation = 0.0;
  for (Timestamp t = 0; t < domain.num_timestamps(); ++t) {
    if (!IsDeltaContained(q, a, t, params.delta, domain)) {
      violation += params.weight->At(t);
      if (violation > params.epsilon + kViolationTolerance) return false;
    }
  }
  return true;
}

double ComputeViolationWeightNaive(const AttributeHistory& q,
                                   const AttributeHistory& a, int64_t delta,
                                   const WeightFunction& weight,
                                   const TimeDomain& domain) {
  double violation = 0.0;
  for (Timestamp t = 0; t < domain.num_timestamps(); ++t) {
    if (!IsDeltaContained(q, a, t, delta, domain)) {
      violation += weight.At(t);
    }
  }
  return violation;
}

}  // namespace tind
