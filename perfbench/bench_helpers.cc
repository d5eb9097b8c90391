#include "bench_helpers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

std::uint64_t SplitMix64::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix64::Below(std::uint64_t n) {
  // Rejection keeps the draw exactly uniform for any n.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x = Next();
  while (x >= limit) x = Next();
  return x % n;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0xD1B54A32D192ED03ull));
  mix.Next();
  return mix.Next();
}

std::vector<std::size_t> Permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  SplitMix64 rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  return order;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  if (n == 0) throw std::invalid_argument("ZipfSampler needs n > 0");
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::size_t ZipfSampler::Draw(SplitMix64& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

double ZipfSampler::Probability(std::size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

std::vector<std::uint64_t> PoissonSchedule(double rate_per_s,
                                           std::uint64_t duration_ns,
                                           std::uint64_t seed) {
  std::vector<std::uint64_t> due;
  SplitMix64 rng(seed);
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  while (true) {
    // 1 - U is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Uniform()) * mean_gap_ns;
    if (t >= static_cast<double>(duration_ns)) break;
    due.push_back(static_cast<std::uint64_t>(t));
  }
  return due;
}

DueAccounting AccountDueTimes(std::span<const DueRecord> records) {
  DueAccounting out;
  out.latency_us.reserve(records.size());
  out.lateness_us.reserve(records.size());
  for (const DueRecord& r : records) {
    out.latency_us.push_back(static_cast<double>(r.done_ns - r.due_ns) * 1e-3);
    out.lateness_us.push_back(static_cast<double>(r.sent_ns - r.due_ns) *
                              1e-3);
  }
  return out;
}

double ExactQuantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return ExactQuantile(std::move(samples), 0.5);
}

std::uint64_t ReloadStallGap(std::span<const std::uint64_t> answers_ns,
                             std::uint64_t start_ns, std::uint64_t end_ns) {
  // First answer inside the interval, and the one before it (if any).
  auto first = std::lower_bound(answers_ns.begin(), answers_ns.end(),
                                start_ns);
  std::uint64_t prev = first == answers_ns.begin() ? start_ns : *(first - 1);
  std::uint64_t longest = 0;
  for (auto it = first; it != answers_ns.end(); ++it) {
    longest = std::max(longest, *it - prev);
    prev = *it;
    if (*it > end_ns) return longest;  // the first answer after the RELOAD
  }
  return std::max(longest, end_ns - std::min(prev, end_ns));
}

double AnswerMse(std::span<const double> served,
                 std::span<const std::int64_t> exact) {
  if (served.size() != exact.size() || served.empty()) {
    throw std::invalid_argument("AnswerMse needs equal, non-empty inputs");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const double e = served[i] - static_cast<double>(exact[i]);
    sum += e * e;
  }
  return sum / static_cast<double>(served.size());
}

std::vector<double> WindowRates(std::span<const std::uint64_t> done_ns,
                                std::span<const std::uint32_t> queries,
                                std::uint64_t start_ns, std::uint64_t end_ns,
                                std::uint64_t window_ns) {
  std::vector<double> rates;
  if (end_ns <= start_ns || window_ns == 0) return rates;
  const std::size_t windows = (end_ns - start_ns) / window_ns;
  std::vector<std::uint64_t> counts(windows, 0);
  for (std::size_t i = 0; i < done_ns.size(); ++i) {
    if (done_ns[i] < start_ns) continue;
    const std::uint64_t w = (done_ns[i] - start_ns) / window_ns;
    if (w < windows) counts[w] += queries[i];
  }
  rates.reserve(windows);
  for (const std::uint64_t c : counts) {
    rates.push_back(static_cast<double>(c) * 1e9 /
                    static_cast<double>(window_ns));
  }
  return rates;
}

}  // namespace perfbench
