// Checks of the benchmark's own helpers on hand-computed cases. Run by
// `python3 perfbench/run.py --self-test` (and registered with ctest in the
// benchmark's build tree).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_helpers.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

void TestExactQuantiles() {
  using perfbench::ExactQuantile;
  using perfbench::Median;
  EXPECT(ExactQuantile({}, 0.5) == 0.0);
  EXPECT(ExactQuantile({7.0}, 0.9) == 7.0);
  // Unsorted input; order statistics 1..5.
  const std::vector<double> five = {5, 1, 4, 2, 3};
  EXPECT(ExactQuantile(five, 0.0) == 1.0);
  EXPECT(ExactQuantile(five, 0.5) == 3.0);
  EXPECT(ExactQuantile(five, 1.0) == 5.0);
  EXPECT(Near(ExactQuantile(five, 0.9), 4.6));  // pos 3.6 -> 4 + 0.6
  // Even count: the median interpolates the middle pair.
  EXPECT(Median({10, 20, 30, 40}) == 25.0);
  // p90 of 1..10: pos 8.1 -> 9.1.
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  EXPECT(Near(ExactQuantile(ten, 0.9), 9.1));
}

void TestZipfDeterminism() {
  const perfbench::ZipfSampler zipf(4096, 1.2);
  perfbench::SplitMix64 a(42), b(42), c(43);
  std::vector<std::size_t> da, db, dc;
  for (int i = 0; i < 1000; ++i) {
    da.push_back(zipf.Draw(a));
    db.push_back(zipf.Draw(b));
    dc.push_back(zipf.Draw(c));
  }
  EXPECT(da == db);
  EXPECT(da != dc);
  // Rank probabilities follow (k+1)^-1.2 exactly.
  EXPECT(Near(zipf.Probability(1) / zipf.Probability(0), std::pow(2.0, -1.2),
              1e-12));
  double total = 0.0;
  for (std::size_t k = 0; k < 4096; ++k) total += zipf.Probability(k);
  EXPECT(Near(total, 1.0, 1e-9));
  // Empirical head frequency within 5 sigma of P(rank 0).
  perfbench::SplitMix64 rng(7);
  const int n = 200000;
  int zeros = 0;
  for (int i = 0; i < n; ++i) zeros += zipf.Draw(rng) == 0 ? 1 : 0;
  const double p = zipf.Probability(0);
  const double sigma = std::sqrt(p * (1 - p) / n);
  EXPECT(std::fabs(static_cast<double>(zeros) / n - p) < 5 * sigma);
  // Seeded permutations and sub-seeds repeat exactly.
  EXPECT(perfbench::Permutation(100, 9) == perfbench::Permutation(100, 9));
  EXPECT(perfbench::Permutation(100, 9) != perfbench::Permutation(100, 10));
  EXPECT(perfbench::DeriveSeed(1, 2) == perfbench::DeriveSeed(1, 2));
  EXPECT(perfbench::DeriveSeed(1, 2) != perfbench::DeriveSeed(1, 3));
}

void TestDueTimeAccounting() {
  // Three requests due every 10 us; the second was sent 5 us late and
  // its response queued behind the first.
  const std::vector<perfbench::DueRecord> records = {
      {0, 0, 5000}, {10000, 15000, 25000}, {20000, 20000, 30000}};
  const perfbench::DueAccounting acc = perfbench::AccountDueTimes(records);
  EXPECT(acc.latency_us == (std::vector<double>{5, 15, 10}));
  EXPECT(acc.lateness_us == (std::vector<double>{0, 5, 0}));
  // The schedule is seeded, ordered, inside the window, and near its rate.
  const auto s1 = perfbench::PoissonSchedule(10000, 1'000'000'000, 3);
  const auto s2 = perfbench::PoissonSchedule(10000, 1'000'000'000, 3);
  EXPECT(s1 == s2);
  EXPECT(std::is_sorted(s1.begin(), s1.end()));
  EXPECT(!s1.empty() && s1.back() < 1'000'000'000);
  EXPECT(std::fabs(static_cast<double>(s1.size()) - 10000) < 500);
}

void TestReloadStallGap() {
  using perfbench::ReloadStallGap;
  // Answers every 10 ns, then a stall from 40 to 100 while a RELOAD runs
  // over [45, 95]: the longest gap is 60 (40 -> 100).
  const std::vector<std::uint64_t> answers = {10, 20, 30, 40, 100, 110, 120};
  EXPECT(ReloadStallGap(answers, 45, 95) == 60);
  // Steady answers through the interval: the gap is the cadence.
  EXPECT(ReloadStallGap(answers, 5, 35) == 10);
  // No answer after the RELOAD: the interval end closes the last gap.
  const std::vector<std::uint64_t> early = {10, 20};
  EXPECT(ReloadStallGap(early, 15, 50) == 30);
  // No answer at all: the whole interval is the stall.
  EXPECT(ReloadStallGap({}, 100, 180) == 80);
}

void TestAnswerMse() {
  // Errors 1, -2, 0.5, 0 -> (1 + 4 + 0.25 + 0) / 4.
  const std::vector<double> served = {11.0, 18.0, 3.5, 0.0};
  const std::vector<std::int64_t> exact = {10, 20, 3, 0};
  EXPECT(perfbench::AnswerMse(served, exact) == 1.3125);
}

void TestWindowRates() {
  // Two 1 ms windows from t = 1000 ns; completions outside are ignored.
  const std::vector<std::uint64_t> done = {500, 1000, 1500, 2100, 3500};
  const std::vector<std::uint32_t> queries = {9, 2, 3, 4, 9};
  const auto rates =
      perfbench::WindowRates(done, queries, 1000, 3200, 1000);
  EXPECT(rates.size() == 2);
  EXPECT(rates.size() == 2 && rates[0] == 5e6 && rates[1] == 4e6);
}

}  // namespace

int main() {
  TestExactQuantiles();
  TestZipfDeterminism();
  TestDueTimeAccounting();
  TestReloadStallGap();
  TestAnswerMse();
  TestWindowRates();
  if (g_failures == 0) std::printf("bench_helpers_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
