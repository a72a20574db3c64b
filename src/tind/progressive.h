#ifndef TIND_TIND_PROGRESSIVE_H_
#define TIND_TIND_PROGRESSIVE_H_

/// \file progressive.h
/// Anytime execution of the search funnel: a SearchCursor runs a search as
/// a group of one on the index's batch pipeline — the same stage code as
/// TindIndex::Search / ReverseSearch / BatchSearch — but one stage per
/// Step() call, so a caller can read the sound candidate superset between
/// stages (Superset()), abandon on cancellation, and still finish with
/// results and QueryStats bit-identical to the monolithic call (the
/// progressive differential test pins this).
///
/// Soundness across interruptions: stages 1–3 only ever *remove* candidates
/// that provably cannot be answers, so the candidate set is a superset of
/// the exact result at every cursor position — including after a fired
/// token or an Abandon(). Only stage 4 (validation) produces the exact
/// answer, and an interrupted validation returns nothing rather than a
/// partial (neither-sound-nor-exact) list.

#include <vector>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "temporal/dataset.h"
#include "tind/index.h"
#include "tind/params.h"
#include "tind/plan.h"

namespace tind {

class CostModelPlanner;  // tind/planner.h

const char* SearchStageName(SearchStage stage);

/// Staged execution of one forward or reverse search.
///
/// Not thread-safe; one cursor per query per thread. The index, query,
/// params.weight, planner, cancel token, and pool must outlive the cursor.
class SearchCursor {
 public:
  struct Options {
    bool reverse = false;
    /// Explicit stage plan; overwritten after the probe stage when
    /// `planner` is set.
    QueryPlan plan;
    /// Optional cost model consulted once the stage-1 candidate count is
    /// known. Not owned.
    const CostModelPlanner* planner = nullptr;
    /// External cancellation, polled at stage boundaries and inside the
    /// slice / validation loops. A fired token abandons the query
    /// (cancelled stats, empty results) but leaves Superset() valid.
    const CancellationToken* cancel = nullptr;
    /// Parallel validation pool for stage 4 (same as Search's `pool`).
    ThreadPool* pool = nullptr;
  };

  SearchCursor(const TindIndex& index, const AttributeHistory& query,
               const TindParams& params, const Options& options);
  SearchCursor(const TindIndex& index, const AttributeHistory& query,
               const TindParams& params)
      : SearchCursor(index, query, params, Options()) {}

  /// Runs the next stage and returns the stage that should run next
  /// (kDone when finished).
  SearchStage Step();

  /// Steps until kDone; returns results().
  const std::vector<AttributeId>& RunToCompletion();

  /// The current candidate set as ascending attribute ids — a sound
  /// superset of the exact result at every cursor position, even after
  /// Abandon() or a fired token.
  std::vector<AttributeId> Superset() const;

  /// Abandons the query: cancelled stats, empty results, cursor done.
  /// Candidates are kept so Superset() still answers (this is the serving
  /// layer's degrade-to-best-stage path).
  void Abandon();

  SearchStage next_stage() const { return group_.next; }
  bool done() const { return group_.next == SearchStage::kDone; }
  bool cancelled() const { return stats().cancelled; }
  const QueryStats& stats() const { return group_.stats[0]; }
  const std::vector<AttributeId>& results() const { return group_.results[0]; }
  const QueryPlan& plan() const { return group_.plan; }
  size_t candidate_count() const { return group_.candidates[0].Count(); }

 private:
  const TindIndex* index_;
  const CostModelPlanner* planner_;
  TindIndex::Group group_;
};

}  // namespace tind

#endif  // TIND_TIND_PROGRESSIVE_H_
