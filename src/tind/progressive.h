#ifndef TIND_TIND_PROGRESSIVE_H_
#define TIND_TIND_PROGRESSIVE_H_

/// \file progressive.h
/// Anytime execution of the search funnel: a SearchCursor runs any number
/// of searches of one direction and one (ε, δ) as groups of up to
/// kBloomBatchGroupSize on the index's batch pipeline — the same stage code
/// as TindIndex::Search / ReverseSearch / BatchSearch — but one stage per
/// Step() call, so a caller can read each member's sound candidate superset
/// between stages (Superset(b)), abandon members, and still finish with
/// results and QueryStats bit-identical to the monolithic call (the
/// progressive differential test pins this). The serving layer steps every
/// request of a dispatch window through one cursor.
///
/// Soundness across interruptions: candidates start as every attribute but
/// the query itself, and stages 1–3 only ever *remove* candidates that
/// provably cannot be answers, so the candidate set is a superset of the
/// exact result at every cursor position — including before the probe and
/// after a fired token or an Abandon(). Only stage 4 (validation) produces
/// the exact answer, and an interrupted validation returns nothing rather
/// than a partial (neither-sound-nor-exact) list.

#include <vector>

#include "bloom/bloom_batch.h"
#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "temporal/dataset.h"
#include "tind/index.h"
#include "tind/params.h"
#include "tind/plan.h"

namespace tind {

const char* SearchStageName(SearchStage stage);

/// Staged execution of a group of forward or reverse searches.
///
/// Not thread-safe; one cursor per thread. The index, queries,
/// params.weight, cancel tokens, and pool must outlive the cursor.
/// Member accessors take the member's position `b` (default 0, the only
/// member of a single-query cursor).
class SearchCursor {
 public:
  struct Options {
    bool reverse = false;
    /// The stage order of every member.
    QueryPlan plan = QueryPlan::kRecheckFirst;
    /// Single-query constructor: external cancellation, polled at stage
    /// boundaries and inside the slice / validation loops. A fired token
    /// abandons the query (cancelled stats, empty results) but leaves
    /// Superset() valid.
    const CancellationToken* cancel = nullptr;
    /// Parallel validation pool for stage 4 (same as Search's `pool`).
    ThreadPool* pool = nullptr;
  };

  /// One search of a group cursor.
  struct Member {
    const AttributeHistory* query = nullptr;
    /// Same contract as Options::cancel; null is not cancellable.
    const CancellationToken* cancel = nullptr;
  };

  /// A cursor over `members`; Options::cancel is unused (each member
  /// carries its own).
  SearchCursor(const TindIndex& index, const std::vector<Member>& members,
               const TindParams& params, const Options& options);
  SearchCursor(const TindIndex& index, const AttributeHistory& query,
               const TindParams& params, const Options& options);
  SearchCursor(const TindIndex& index, const AttributeHistory& query,
               const TindParams& params)
      : SearchCursor(index, query, params, Options()) {}

  /// Runs the next stage of every unfinished member and returns the stage
  /// that should run next (kDone when finished).
  SearchStage Step();

  /// Steps until kDone; returns results().
  const std::vector<AttributeId>& RunToCompletion();

  size_t size() const { return size_; }

  /// Member `b`'s current candidate set as ascending attribute ids — a
  /// sound superset of its exact result at every cursor position.
  std::vector<AttributeId> Superset(size_t b = 0) const;

  /// Abandons member `b`: cancelled stats, empty results, no further
  /// stages. Candidates are kept so Superset(b) still answers (this is the
  /// serving layer's degrade-to-best-stage path).
  void Abandon(size_t b = 0);

  /// The stage the unfinished members run next (kDone when none is left).
  SearchStage next_stage() const;
  bool done() const { return next_stage() == SearchStage::kDone; }
  bool cancelled(size_t b = 0) const { return stats(b).cancelled; }
  const QueryStats& stats(size_t b = 0) const {
    return group(b).stats[b % kBloomBatchGroupSize];
  }
  const std::vector<AttributeId>& results(size_t b = 0) const {
    return group(b).results[b % kBloomBatchGroupSize];
  }
  size_t candidate_count(size_t b = 0) const {
    return group(b).candidates[b % kBloomBatchGroupSize].Count();
  }

 private:
  const TindIndex::Group& group(size_t b) const {
    return groups_[b / kBloomBatchGroupSize];
  }

  const TindIndex* index_;
  size_t size_ = 0;
  std::vector<TindIndex::Group> groups_;
};

}  // namespace tind

#endif  // TIND_TIND_PROGRESSIVE_H_
