// d-dimensional prefix-sum (summed-area) table. Every range-count query in
// the paper is a contiguous box over the frequency matrix (ordinal
// predicates are intervals; nominal subtree predicates are contiguous in
// the imposed leaf order, Sec. V-A), so after O(m) preprocessing any query
// is answered with 2^d table lookups.
//
// Storage comes in three modes sharing one query path:
//   owned   — the build and parts constructors materialize the entries in
//     a private vector (the classic mode);
//   scratch — BuildScratch materializes them in an unlinked mmap scratch
//     file instead, releasing residency as the build streams so the
//     out-of-core publish path can build a table many times larger than
//     the memory budget (same arithmetic, hence bit-identical entries);
//   view    — the span constructor serves lookups straight out of caller-
//     managed memory (the raw accumulator section of a memory-mapped PVLS
//     v2 snapshot), so adopting a multi-GB table costs no copy at all.
// The caller of the view constructor guarantees the backing storage
// outlives the table and every copy of it (storage::MappedSnapshot is
// kept alive by the owning PublishingSession).
#ifndef PRIVELET_MATRIX_PREFIX_SUM_H_
#define PRIVELET_MATRIX_PREFIX_SUM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "privelet/common/check.h"
#include "privelet/common/file_mapping.h"
#include "privelet/common/residency.h"
#include "privelet/common/result.h"
#include "privelet/common/thread_pool.h"
#include "privelet/matrix/engine.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/tile_buffer.h"
#include "privelet/simd/kernels.h"

namespace privelet::matrix {

/// Prefix-sum table with accumulator type T. Use Accum = long double for
/// noisy (real-valued) matrices to control cancellation error, and
/// Accum = std::int64_t for exact integer count matrices.
template <typename Accum>
class PrefixSumTable {
 public:
  /// Builds the table in O(m) per axis. A non-null `pool` fans each axis
  /// pass's independent running-sum lines across its workers; each line
  /// is a serial accumulation over disjoint elements, so the table is
  /// bit-identical for every pool size, engine, and tile size. The pool
  /// is only used during construction.
  ///
  /// `options` selects the line engine: the tiled engine (default) walks
  /// non-last axes a panel of adjacent lines at a time so the inner
  /// accumulation loop runs unit-stride over the panel (in place — the
  /// running sum needs no transpose); the naive engine is the per-line
  /// reference path.
  explicit PrefixSumTable(const FrequencyMatrix& source,
                          common::ThreadPool* pool = nullptr,
                          const EngineOptions& options = {})
      : PrefixSumTable(source.dims(), source.values(), pool, options) {}

  /// Same build over raw row-major values with the given dims (the
  /// product of `dims` must equal source.size()). Lets a serving process
  /// rebuild the table straight from a mapped snapshot's matrix section
  /// without materializing a FrequencyMatrix copy first.
  PrefixSumTable(std::vector<std::size_t> dims, std::span<const double> source,
                 common::ThreadPool* pool = nullptr,
                 const EngineOptions& options = {})
      : dims_(std::move(dims)) {
    InitStrides();
    PRIVELET_CHECK(!dims_.empty() && NumCells() == source.size(),
                   "source values do not match the dims");
    sums_.resize(source.size());
    data_ = sums_;
    BuildFrom(sums_.data(), source, pool, options, /*residency_source=*/nullptr);
  }

  /// Out-of-core build: the entries live in an unlinked mmap scratch file
  /// under options.scratch_dir and each build pass releases residency
  /// (of the table and, when non-null, of `residency_source` — typically
  /// the scratch-backed noisy matrix being summed) as it streams, pacing
  /// peak RSS by options.max_memory_bytes. The additions are the exact
  /// additions of the in-core build, so the resulting entries are
  /// bit-identical. Fails with IOError when the scratch file cannot be
  /// created or mapped.
  static Result<PrefixSumTable> BuildScratch(
      std::vector<std::size_t> dims, std::span<const double> source,
      common::ThreadPool* pool, const EngineOptions& options,
      const FrequencyMatrix* residency_source = nullptr) {
    PrefixSumTable table;
    table.dims_ = std::move(dims);
    table.InitStrides();
    PRIVELET_CHECK(!table.dims_.empty() && table.NumCells() == source.size(),
                   "source values do not match the dims");
    const std::size_t max_bytes = std::numeric_limits<std::size_t>::max();
    PRIVELET_CHECK(source.size() <= max_bytes / sizeof(Accum),
                   "dimension product overflow");
    PRIVELET_ASSIGN_OR_RETURN(
        table.scratch_,
        common::MappedFile::CreateScratch(source.size() * sizeof(Accum),
                                          options.scratch_dir));
    Accum* slots =
        reinterpret_cast<Accum*>(table.scratch_.mutable_bytes().data());
    table.data_ = std::span<const Accum>(slots, source.size());
    table.BuildFrom(slots, source, pool, options, residency_source);
    return table;
  }

  /// Reassembles a table from its serialized parts: `sums` must hold the
  /// flat (row-major) entries of a previously built table over a matrix
  /// with the given dims, in the layout raw_sums() exposes. The product of
  /// `dims` must equal sums.size() (the caller has already validated the
  /// product against overflow). Used by storage/snapshot.cc so a serving
  /// process can skip the O(m) rebuild; the entries themselves are trusted
  /// — integrity is the snapshot CRC's job.
  PrefixSumTable(std::vector<std::size_t> dims, std::vector<Accum> sums)
      : dims_(std::move(dims)), sums_(std::move(sums)) {
    InitStrides();
    PRIVELET_CHECK(!dims_.empty() && NumCells() == sums_.size(),
                   "prefix-sum parts do not form a table");
    data_ = sums_;
  }

  /// Non-owning view over externally stored entries (the raw accumulator
  /// section of a mapped PVLS v2 snapshot): lookups read `view` directly,
  /// so adoption is O(1) with no copy. Entries are trusted like the parts
  /// constructor's; the backing storage must outlive this table and every
  /// table copied from it.
  PrefixSumTable(std::vector<std::size_t> dims, std::span<const Accum> view)
      : dims_(std::move(dims)), data_(view) {
    InitStrides();
    PRIVELET_CHECK(!dims_.empty() && NumCells() == data_.size(),
                   "prefix-sum view does not form a table");
  }

  // `data_` must track the backing across copies and moves: a copied
  // owned/scratch table views its own copy of the entries, while a copied
  // view table keeps aliasing the external storage. Copies always land in
  // an owned vector (scratch-ness is not copied).
  PrefixSumTable(const PrefixSumTable& other)
      : dims_(other.dims_), strides_(other.strides_) {
    AdoptCopiedEntries(other);
  }
  PrefixSumTable(PrefixSumTable&& other) noexcept
      : dims_(std::move(other.dims_)),
        strides_(std::move(other.strides_)),
        sums_(std::move(other.sums_)),
        scratch_(std::move(other.scratch_)) {
    data_ = OwnBackedSpan(other.data_);
    other.data_ = {};
  }
  PrefixSumTable& operator=(const PrefixSumTable& other) {
    if (this != &other) {
      dims_ = other.dims_;
      strides_ = other.strides_;
      scratch_ = common::MappedFile();
      AdoptCopiedEntries(other);
    }
    return *this;
  }
  PrefixSumTable& operator=(PrefixSumTable&& other) noexcept {
    if (this != &other) {
      dims_ = std::move(other.dims_);
      strides_ = std::move(other.strides_);
      sums_ = std::move(other.sums_);
      scratch_ = std::move(other.scratch_);
      data_ = OwnBackedSpan(other.data_);
      other.data_ = {};
    }
    return *this;
  }

  /// Sum of all entries with lo[i] <= coord[i] <= hi[i] (inclusive bounds).
  Accum RangeSum(std::span<const std::size_t> lo,
                 std::span<const std::size_t> hi) const {
    const std::size_t d = dims_.size();
    PRIVELET_DCHECK(lo.size() == d && hi.size() == d, "bound arity mismatch");
    for (std::size_t axis = 0; axis < d; ++axis) {
      PRIVELET_DCHECK(lo[axis] <= hi[axis] && hi[axis] < dims_[axis],
                      "bad range bounds");
    }
    // Inclusion-exclusion over the 2^d box corners. Corner bit = 1 picks
    // hi[axis]; bit = 0 picks lo[axis]-1 (empty => the term vanishes).
    Accum total = 0;
    const std::size_t corners = std::size_t{1} << d;
    for (std::size_t corner = 0; corner < corners; ++corner) {
      std::size_t flat = 0;
      bool empty = false;
      int low_sides = 0;
      for (std::size_t axis = 0; axis < d; ++axis) {
        if (corner & (std::size_t{1} << axis)) {
          flat += hi[axis] * strides_[axis];
        } else {
          ++low_sides;
          if (lo[axis] == 0) {
            empty = true;
            break;
          }
          flat += (lo[axis] - 1) * strides_[axis];
        }
      }
      if (empty) continue;
      total += (low_sides % 2 == 0) ? data_[flat] : -data_[flat];
    }
    return total;
  }

  const std::vector<std::size_t>& dims() const { return dims_; }

  /// True when the entries live in caller-managed storage (the span
  /// constructor) rather than in this table.
  bool is_view() const {
    return sums_.empty() && scratch_.size() == 0 && !data_.empty();
  }

  /// True when the entries live in an mmap scratch file (BuildScratch).
  bool is_scratch() const { return scratch_.size() > 0; }

  /// Drops resident pages of a scratch-backed table (data preserved);
  /// no-op otherwise. See common::MappedFile::ReleaseResidency.
  void ReleaseResidency() const { scratch_.ReleaseResidency(); }

  /// The flat (row-major) table entries — entry at a coordinate is the
  /// inclusive prefix sum up to it. The serialization surface consumed by
  /// storage/snapshot.cc and accepted back by the parts constructor.
  std::span<const Accum> raw_sums() const { return data_; }

 private:
  PrefixSumTable() = default;

  void InitStrides() {
    strides_.resize(dims_.size());
    std::size_t stride = 1;
    for (std::size_t axis = dims_.size(); axis-- > 0;) {
      strides_[axis] = stride;
      stride = CheckedCellMul(stride, dims_[axis]);
    }
  }

  std::size_t NumCells() const {
    std::size_t cells = 1;
    for (std::size_t d : dims_) cells = CheckedCellMul(cells, d);
    return cells;
  }

  static std::size_t CheckedCellMul(std::size_t a, std::size_t b) {
    PRIVELET_CHECK(b == 0 || a <= std::numeric_limits<std::size_t>::max() / b,
                   "dimension product overflow");
    return a * b;
  }

  // data_ spans that point into the moved-from object's own backing
  // (owned vector or scratch mapping) must be re-derived after the
  // backing transfers; external view spans carry over unchanged.
  std::span<const Accum> OwnBackedSpan(std::span<const Accum> view) {
    if (!sums_.empty()) return sums_;
    if (scratch_.size() > 0) {
      return {reinterpret_cast<const Accum*>(scratch_.bytes().data()),
              scratch_.size() / sizeof(Accum)};
    }
    return view;
  }

  void AdoptCopiedEntries(const PrefixSumTable& other) {
    if (other.is_view()) {
      sums_.clear();
      data_ = other.data_;
    } else {
      sums_.assign(other.data_.begin(), other.data_.end());
      data_ = sums_;
    }
  }

  /// The shared build: copy `source` into `slots`, then one running-sum
  /// pass per axis. Identical arithmetic for every storage mode.
  void BuildFrom(Accum* slots, std::span<const double> source,
                 common::ThreadPool* pool, const EngineOptions& options,
                 const FrequencyMatrix* residency_source) {
    common::ResidencyGovernor governor(
        is_scratch() ? options.max_memory_bytes : 0, [&] {
          ReleaseResidency();
          if (residency_source != nullptr) residency_source->ReleaseResidency();
        });
    common::ParallelFor(
        pool, source.size(), /*grain=*/0,
        [&](std::size_t begin, std::size_t end) {
          // Charge in fixed sub-chunks: ParallelFor's auto chunks scale
          // with the domain, and a single end-of-chunk charge would let
          // the copy dirty a whole chunk's worth of table pages before
          // release-behind could fire.
          constexpr std::size_t kPaceCells = std::size_t{1} << 16;
          for (std::size_t i = begin; i < end; i += kPaceCells) {
            const std::size_t stop = std::min(end, i + kPaceCells);
            for (std::size_t j = i; j < stop; ++j) {
              slots[j] = static_cast<Accum>(source[j]);
            }
            governor.OnBytesProcessed((stop - i) *
                                      (sizeof(Accum) + sizeof(double)));
          }
        });
    // One running-sum pass per axis turns the copy into an inclusive
    // d-dimensional prefix table. Integer accumulators dispatch their
    // contiguous inner loops through the selected kernel table (int64
    // addition is associative, so any lane split is bit-identical); long
    // double accumulators have no vector form (x87) and stay scalar at
    // every level.
    const simd::KernelTable& kernels =
        simd::Kernels(simd::ResolveIsa(options.isa));
    for (std::size_t axis = 0; axis < dims_.size(); ++axis) {
      const std::size_t stride_a = strides_[axis];
      const std::size_t axis_dim = dims_[axis];
      const std::size_t lines = source.size() / axis_dim;
      if (options.engine == LineEngine::kTiled && stride_a > 1) {
        BuildAxisTiled(slots, axis_dim, stride_a, lines,
                       std::max<std::size_t>(1, options.tile_lines), pool,
                       kernels, governor);
        continue;
      }
      // Per-line path; for the last axis (stride 1) each line is already
      // a contiguous sweep, so this is the layout-optimal walk there. A
      // strided line faults the whole page under every entry — axis_dim
      // pages before the line ends — so the strided walk charges the
      // governor per step, not per line (see common::PageTouchedBytes).
      const std::size_t step_touched =
          stride_a > 1
              ? common::PageTouchedBytes(1, stride_a, 1, sizeof(Accum))
              : 0;
      common::ParallelFor(
          pool, lines, /*grain=*/0, [&](std::size_t begin, std::size_t end) {
            for (std::size_t line = begin; line < end; ++line) {
              std::size_t base = (line / stride_a) * (stride_a * axis_dim) +
                                 (line % stride_a);
              if (stride_a > 1) {
                for (std::size_t k = 1; k < axis_dim; ++k) {
                  slots[base + k * stride_a] +=
                      slots[base + (k - 1) * stride_a];
                  governor.OnBytesProcessed(step_touched);
                }
              } else {
                if constexpr (std::is_same_v<Accum, std::int64_t>) {
                  kernels.prefix_scan_i64(slots + base, axis_dim);
                } else {
                  for (std::size_t k = 1; k < axis_dim; ++k) {
                    slots[base + k] += slots[base + k - 1];
                  }
                }
                governor.OnBytesProcessed(axis_dim * sizeof(Accum));
              }
            }
          });
    }
  }

  /// Tiled running-sum pass along one axis: panels of up to `tile`
  /// adjacent lines advance through the axis together, so each step
  /// accumulates a contiguous run of elements into the contiguous run one
  /// axis-stride later. Per line the additions match the per-line path
  /// exactly (same operands, same order), hence bit-identical tables.
  void BuildAxisTiled(Accum* slots, std::size_t axis_dim, std::size_t stride,
                      std::size_t lines, std::size_t tile,
                      common::ThreadPool* pool,
                      const simd::KernelTable& kernels,
                      common::ResidencyGovernor& governor) {
    // Ceiling division that cannot wrap for any `tile`: a table rebuilt
    // at open takes it as is from the snapshot's u64 tile_lines field.
    const std::size_t panels = lines / tile + (lines % tile != 0);
    common::ParallelFor(
        pool, panels, /*grain=*/0, [&](std::size_t pb, std::size_t pe) {
          for (std::size_t p = pb; p < pe; ++p) {
            const std::size_t first = p * tile;
            const std::size_t count = std::min(tile, lines - first);
            ForEachLineRun(
                stride, axis_dim, first, count,
                [&](std::size_t base, std::size_t col, std::size_t run) {
                  (void)col;
                  // Charge per axis step: a panel touches a page of the
                  // table per step, which can dwarf the byte budget long
                  // before an end-of-panel charge would fire.
                  const std::size_t step_touched = common::PageTouchedBytes(
                      1, stride, run, sizeof(Accum));
                  for (std::size_t k = 1; k < axis_dim; ++k) {
                    Accum* curr = slots + base + k * stride;
                    const Accum* prev = curr - stride;
                    if constexpr (std::is_same_v<Accum, std::int64_t>) {
                      kernels.prefix_rows_add_i64(curr, prev, run);
                    } else {
                      for (std::size_t b = 0; b < run; ++b) curr[b] += prev[b];
                    }
                    governor.OnBytesProcessed(step_touched);
                  }
                });
          }
        });
  }

  std::vector<std::size_t> dims_;
  std::vector<std::size_t> strides_;
  std::vector<Accum> sums_;  ///< owned entries; empty in scratch/view mode
  common::MappedFile scratch_;  ///< scratch entries; empty otherwise
  std::span<const Accum> data_;  ///< what RangeSum reads: backing or the view
};

extern template class PrefixSumTable<long double>;
extern template class PrefixSumTable<std::int64_t>;

}  // namespace privelet::matrix

#endif  // PRIVELET_MATRIX_PREFIX_SUM_H_
