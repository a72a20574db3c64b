#ifndef TIND_BLOOM_BLOOM_MATRIX_H_
#define TIND_BLOOM_BLOOM_MATRIX_H_

/// \file bloom_matrix.h
/// The MANY-style bit matrix (Section 4.1, Figure 3): row i is the i-th
/// Bloom bit across all indexed attributes; column c is attribute c's Bloom
/// filter. Superset candidates for a query are the AND of the rows where the
/// query filter has a 1; subset candidates are the AND of the *negated* rows
/// where the query filter has a 0.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bloom/bloom_batch.h"
#include "bloom/bloom_filter.h"
#include "common/bitvector.h"

namespace tind {

/// \brief Precomputed word index + bit mask of one matrix column.
///
/// ColumnContains tests the same column bit in every probed row; hoisting the
/// index arithmetic out of the row loop (and letting batch planners prepare
/// it once per column) leaves a single load-AND per row.
struct ColumnProbe {
  size_t word;
  uint64_t mask;
};

inline ColumnProbe MakeColumnProbe(size_t column) {
  return ColumnProbe{column >> 6, 1ULL << (column & 63)};
}

/// \brief num_bits × num_columns bit matrix of attribute Bloom filters.
class BloomMatrix {
 public:
  BloomMatrix() = default;
  /// Creates an all-zero matrix for `num_columns` attributes.
  BloomMatrix(size_t num_bits, uint32_t num_hashes, size_t num_columns);

  /// Wraps a fully built matrix whose bit planes live in external read-only
  /// storage (the snapshot loader's mmap'd sections). `planes` must hold
  /// `num_bits` consecutive rows of `PadWordCount(ceil(num_columns / 64))`
  /// words each, 64-byte aligned, with the padding-is-zero invariant intact —
  /// exactly the in-memory row layout, so the SIMD/batch kernels read the
  /// mapped words directly with zero copies. The storage must outlive the
  /// matrix; SetColumn is not allowed on a borrowed matrix.
  static BloomMatrix FromBorrowedRows(size_t num_bits, uint32_t num_hashes,
                                      size_t num_columns,
                                      const uint64_t* planes);

  size_t num_bits() const { return num_bits_; }
  uint32_t num_hashes() const { return num_hashes_; }
  size_t num_columns() const { return num_columns_; }
  bool empty() const { return num_bits_ == 0; }

  /// True iff the bit planes are borrowed from external storage.
  bool borrowed() const { return !rows_.empty() && rows_[0].borrowed(); }

  /// Read access to one bit plane (row `i` holds Bloom bit i of every
  /// column) — the snapshot writer serializes planes through this.
  const BitVector& row(size_t i) const { return rows_[i]; }

  /// Inserts `values` as the Bloom filter of column `column`.
  void SetColumn(size_t column, const ValueSet& values);

  /// Zeroes column `column` in every bit plane, so SetColumn can rebuild it
  /// from scratch. The incremental-update path re-sets only dirty columns;
  /// clearing first matters because a changed history may have *lost*
  /// values. Not allowed on a borrowed matrix.
  void ClearColumn(size_t column);

  /// Deep-copies the matrix into owned storage widened to `new_num_columns`
  /// (>= num_columns()); added columns are all-zero. This is how the updater
  /// turns a borrowed (mmap'd snapshot) matrix into a patchable one and how
  /// added attributes get their columns. Preserves the padding-is-zero
  /// invariant.
  BloomMatrix CloneWithColumns(size_t new_num_columns) const;

  /// Builds the Bloom filter of a query value set with this matrix's
  /// geometry (so it is probe-compatible).
  BloomFilter MakeQueryFilter(const ValueSet& values) const {
    return BloomFilter::FromValueSet(values, num_bits_, num_hashes_);
  }

  /// Narrows `candidates` (a bit per column) to columns whose filter
  /// contains every set bit of `query` — potential supersets of the query
  /// set. ANDs row-by-row over the query's set bits.
  void QuerySupersets(const BloomFilter& query, BitVector* candidates) const;

  /// Narrows `candidates` to columns whose filter has no bit outside
  /// `query`'s set bits — potential subsets of the query set. ANDs the
  /// negation of every row where the query has a 0 (this touches m minus
  /// |set bits| rows, which is why sparse/large filters make reverse search
  /// more expensive — Section 4.5).
  void QuerySubsets(const BloomFilter& query, BitVector* candidates) const;

  /// Batched QuerySupersets: narrows every probe's candidate vector exactly
  /// as `n` individual QuerySupersets calls would, but streams the matrix
  /// once per group of up to kBloomBatchGroupSize probes using the blocked
  /// kernel described in bloom_batch.h. Probe candidate vectors must be
  /// distinct. Any `n` is accepted (chunked into groups internally).
  void QuerySupersetsBatch(const BloomProbe* probes, size_t n) const;
  void QuerySupersetsBatch(const std::vector<BloomProbe>& probes) const {
    QuerySupersetsBatch(probes.data(), probes.size());
  }

  /// Batched QuerySubsets — the reverse-search direction, where batching
  /// pays the most: every probe touches nearly all m rows, so the group
  /// shares one scan of the matrix instead of one per probe.
  void QuerySubsetsBatch(const BloomProbe* probes, size_t n) const;
  void QuerySubsetsBatch(const std::vector<BloomProbe>& probes) const {
    QuerySubsetsBatch(probes.data(), probes.size());
  }

  /// Exact Bloom-level subset recheck for one column: true iff column
  /// `column`'s filter contains all set bits of `query`. Stops probing at
  /// the first missing row ("bloom/column_contains_rows_probed" counts the
  /// rows actually touched).
  bool ColumnContains(const BloomFilter& query, size_t column) const {
    return ColumnContains(query, MakeColumnProbe(column));
  }

  /// Same recheck with the column word/mask prepared by the caller — batch
  /// planners that recheck one column against many queries hoist
  /// MakeColumnProbe out of their loop.
  bool ColumnContains(const BloomFilter& query, ColumnProbe probe) const;

  /// Bytes used by the bit rows: num_bits * num_columns / 8.
  size_t MemoryUsageBytes() const;

  /// Fraction of set bits over the whole matrix in [0, 1] — the Bloom bit
  /// density. Densities near 1 mean the filters are saturated and prune
  /// nothing; the observability layer exports this per index stage.
  double FillRatio() const;

 private:
  /// Blocked group kernel shared by both batch directions (≤ 64 probes);
  /// `subsets` selects AND-NOT over the rows where the filter bit is zero.
  void BatchGroupKernel(const BloomProbe* probes, size_t n, bool subsets) const;

  size_t num_bits_ = 0;
  uint32_t num_hashes_ = 0;
  size_t num_columns_ = 0;
  std::vector<BitVector> rows_;
};

}  // namespace tind

#endif  // TIND_BLOOM_BLOOM_MATRIX_H_
