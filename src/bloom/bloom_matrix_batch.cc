#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "bloom/bloom_matrix.h"
#include "common/aligned_vector.h"
#include "common/simd.h"
#include "obs/metrics.h"

namespace tind {

void BloomMatrix::QuerySupersetsBatch(const BloomProbe* probes,
                                      size_t n) const {
  for (size_t off = 0; off < n; off += kBloomBatchGroupSize) {
    BatchGroupKernel(probes + off, std::min(kBloomBatchGroupSize, n - off),
                     /*subsets=*/false);
  }
}

void BloomMatrix::QuerySubsetsBatch(const BloomProbe* probes, size_t n) const {
  for (size_t off = 0; off < n; off += kBloomBatchGroupSize) {
    BatchGroupKernel(probes + off, std::min(kBloomBatchGroupSize, n - off),
                     /*subsets=*/true);
  }
}

namespace {

/// Per-thread kernel scratch, reused across calls so a group probe does not
/// pay an 8 * num_bits zero-fill up front: `touched[r]` holds one bit per
/// probe whose filter selects row r, and `touched_rows` is the bitmap of
/// rows with any touch — the cleanup walk clears exactly the entries the
/// call dirtied, which keeps the invariant that untouched slots read zero.
struct KernelScratch {
  std::vector<uint64_t> touched;
  std::vector<uint64_t> touched_rows;
};

KernelScratch& GetScratch(size_t num_bits, size_t row_words) {
  static thread_local KernelScratch scratch;
  if (scratch.touched.size() < num_bits) scratch.touched.resize(num_bits, 0);
  if (scratch.touched_rows.size() < row_words) {
    scratch.touched_rows.resize(row_words, 0);
  }
  return scratch;
}

}  // namespace

void BloomMatrix::BatchGroupKernel(const BloomProbe* probes, size_t n,
                                   bool subsets) const {
  assert(n <= kBloomBatchGroupSize);
  if (n == 0) return;
  const uint64_t group_mask = n == 64 ? ~0ULL : ((1ULL << n) - 1);

  const size_t row_words = (num_bits_ + 63) / 64;
  KernelScratch& scratch = GetScratch(num_bits_, row_words);
  uint64_t* touched = scratch.touched.data();
  uint64_t* touched_rows = scratch.touched_rows.data();
  size_t filter_bits = 0;
  for (size_t b = 0; b < n; ++b) {
    assert(probes[b].filter->num_bits() == num_bits_);
    assert(probes[b].candidates->size() == num_columns_);
    const uint64_t bit = 1ULL << b;
    probes[b].filter->bits().ForEachSet([&](size_t r) {
      touched[r] |= bit;
      touched_rows[r >> 6] |= 1ULL << (r & 63);
      ++filter_bits;
    });
  }

  // Iterate the *padded* word range of the candidate/row vectors: padding is
  // zero by BitVector invariant, the padded count is a multiple of
  // kSimdAlignWords, and w0 advances by 16 — so every block width `bw` is a
  // whole number of SIMD lanes and kernels never need a scalar tail. Block
  // starts are 128-byte offsets into 64-byte-aligned storage, so all loads
  // are aligned. Zero/nonzero "any" results (all that steers alive masks and
  // early exits) are identical across backends, which keeps candidates and
  // QueryStats bit-identical whatever ISA runs the inner loops.
  const simd::WordOps& ops = simd::Ops();
  const size_t words = PadWordCount((num_columns_ + 63) / 64);
  size_t rows_visited = 0;
  size_t word_ops = 0;
  size_t blocks_skipped = 0;
  size_t early_deaths = 0;
  for (size_t w0 = 0; w0 < words; w0 += kBloomBatchBlockWords) {
    const size_t bw = std::min(kBloomBatchBlockWords, words - w0);
    // A probe is alive in this block while any of its candidate words here
    // is nonzero; dead probes cannot lose further bits, so their ANDs are
    // skipped and an empty mask skips the block's remaining rows outright.
    uint64_t alive = 0;
    for (size_t b = 0; b < n; ++b) {
      const uint64_t* cw = probes[b].candidates->words().data() + w0;
      if (ops.or_reduce(cw, bw) != 0) alive |= 1ULL << b;
    }
    if (alive == 0) {
      ++blocks_skipped;
      continue;
    }
    const auto visit_row = [&](size_t r, uint64_t m) {
      ++rows_visited;
      const uint64_t* rw = rows_[r].words().data() + w0;
      while (m != 0) {
        const size_t b = static_cast<size_t>(__builtin_ctzll(m));
        m &= m - 1;
        uint64_t* cw = probes[b].candidates->mutable_words().data() + w0;
        const uint64_t any = subsets ? ops.andnot_words_any(cw, rw, bw)
                                     : ops.and_words_any(cw, rw, bw);
        word_ops += bw;
        if (any == 0) {
          alive &= ~(1ULL << b);
          ++early_deaths;
        }
      }
    };
    // Row-visit order: supersets only fold in the rows some filter selects,
    // so walk the touched-row bitmap (ascending, so matrix rows stream in
    // address order) instead of scanning all num_bits row slots; subsets
    // fold in the complement per probe, which covers nearly every row, so
    // walk them all and mask out the touched bits.
    if (subsets) {
      for (size_t r = 0; r < num_bits_ && alive != 0; ++r) {
        const uint64_t m = (group_mask & ~touched[r]) & alive;
        if (m != 0) visit_row(r, m);
      }
    } else {
      for (size_t w = 0; w < row_words && alive != 0; ++w) {
        uint64_t tw = touched_rows[w];
        while (tw != 0 && alive != 0) {
          const size_t r = (w << 6) + static_cast<size_t>(__builtin_ctzll(tw));
          tw &= tw - 1;
          const uint64_t m = touched[r] & alive;
          if (m != 0) visit_row(r, m);
        }
      }
    }
  }

  // Return the scratch to all-zero by walking only the dirtied rows.
  for (size_t w = 0; w < row_words; ++w) {
    uint64_t tw = touched_rows[w];
    while (tw != 0) {
      touched[(w << 6) + static_cast<size_t>(__builtin_ctzll(tw))] = 0;
      tw &= tw - 1;
    }
    touched_rows[w] = 0;
  }

  // Two call sites on purpose: the macro caches a static counter pointer
  // per expansion, so a ternary name would pin whichever direction ran
  // first. Probe and row counts match what `n` scalar QuerySupersets /
  // QuerySubsets calls would report, so rows-per-probe reads the same
  // whichever kernel ran.
  if (subsets) {
    TIND_OBS_COUNTER_ADD("bloom/batch_subset_groups", 1);
    TIND_OBS_COUNTER_ADD("bloom/subset_queries", n);
    TIND_OBS_COUNTER_ADD("bloom/subset_rows_probed",
                         n * num_bits_ - filter_bits);
  } else {
    TIND_OBS_COUNTER_ADD("bloom/batch_superset_groups", 1);
    TIND_OBS_COUNTER_ADD("bloom/superset_queries", n);
    TIND_OBS_COUNTER_ADD("bloom/superset_rows_probed", filter_bits);
  }
  TIND_OBS_COUNTER_ADD("bloom/batch_rows_visited", rows_visited);
  TIND_OBS_COUNTER_ADD("bloom/batch_word_ops", word_ops);
  TIND_OBS_COUNTER_ADD("bloom/batch_blocks_skipped", blocks_skipped);
  TIND_OBS_COUNTER_ADD("bloom/batch_probe_early_deaths", early_deaths);
}

}  // namespace tind
