// Pure helpers of the publish -> serve benchmark: seeding, the Zipf and
// Poisson draws behind the request streams, open-loop due-time
// accounting, exact quantiles, the RELOAD stall gap, and the answer
// error. Kept free of sockets and processes so bench_helpers_test can pin
// each one on hand-computed cases.
#ifndef PERFBENCH_BENCH_HELPERS_H_
#define PERFBENCH_BENCH_HELPERS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// SplitMix64: the one generator every benchmark input is drawn from.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform();
  /// Uniform in [0, n); n > 0.
  std::uint64_t Below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Independent sub-seed `stream` of the run seed, so that each input (the
/// table, the query pool, the Zipf draws, the arrivals, the RELOAD times)
/// is a function of the seed alone and never of the order inputs are
/// built in.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

/// In-place Fisher-Yates shuffle of [0, n) indices.
std::vector<std::size_t> Permutation(std::size_t n, std::uint64_t seed);

/// Draws ranks in [0, n) with P(rank k) proportional to (k + 1)^-s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t Draw(SplitMix64& rng) const;
  /// Exact probability of `rank` under the sampler's distribution.
  double Probability(std::size_t rank) const;

 private:
  std::vector<double> cdf_;  ///< cdf_[k] = P(rank <= k); back() == 1
};

/// Poisson arrivals at `rate_per_s`: due times in ns from the phase start,
/// strictly inside [0, duration_ns).
std::vector<std::uint64_t> PoissonSchedule(double rate_per_s,
                                           std::uint64_t duration_ns,
                                           std::uint64_t seed);

/// Open-loop bookkeeping for one request: when it was due, when its bytes
/// were handed to the socket, and when its response completed.
struct DueRecord {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
};

/// Latency measured from the due time (so a stall charges every request
/// that queued behind it) and generator lateness (sent - due), in us.
struct DueAccounting {
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
};
DueAccounting AccountDueTimes(std::span<const DueRecord> records);

/// Exact q-quantile (0 <= q <= 1) of all samples by linear interpolation
/// between order statistics (numpy's default). 0 for an empty input.
double ExactQuantile(std::vector<double> samples, double q);

/// Median of the samples (ExactQuantile at 0.5).
double Median(std::vector<double> samples);

/// The longest gap between consecutive reader answers that touches the
/// RELOAD interval [start_ns, end_ns]: gaps are taken over the answer
/// times inside the interval plus the last answer before it and the first
/// after it. `answers_ns` must be sorted. With no answer on a side, that
/// side's interval end stands in for it.
std::uint64_t ReloadStallGap(std::span<const std::uint64_t> answers_ns,
                             std::uint64_t start_ns, std::uint64_t end_ns);

/// Mean squared error of `served` against `exact` (equal lengths, > 0).
double AnswerMse(std::span<const double> served,
                 std::span<const std::int64_t> exact);

/// Completed-query counts per window of `window_ns`, as rates in 1/s.
/// Windows are cut from `start_ns`; only full windows that end by
/// `end_ns` count. `done_ns`/`queries` are parallel arrays of completion
/// times (sorted) and the queries each completion answered.
std::vector<double> WindowRates(std::span<const std::uint64_t> done_ns,
                                std::span<const std::uint32_t> queries,
                                std::uint64_t start_ns, std::uint64_t end_ns,
                                std::uint64_t window_ns);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HELPERS_H_
