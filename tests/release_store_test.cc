// query::ReleaseStore: the multi-release serving catalog must load
// lazily, share one load among concurrent acquirers, evict LRU-first
// without yanking releases from in-flight borrowers, and answer every
// release bit-identically to a directly loaded session — including under
// concurrent load/evict/answer pressure (this suite carries the
// concurrency label and runs under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/release_store.h"
#include "privelet/query/workload.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/storage/session_io.h"

namespace privelet {
namespace {

data::Schema TestSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 64));
  attrs.push_back(data::Attribute::Ordinal("B", 32));
  return data::Schema(std::move(attrs));
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Publishes one release per seed and saves it; returns the paths.
std::vector<std::string> SaveReleases(const data::Schema& schema,
                                      std::span<const std::uint64_t> seeds,
                                      const std::string& stem) {
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(3);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 25));
  }
  mechanism::PriveletMechanism mech;
  std::vector<std::string> paths;
  for (const std::uint64_t seed : seeds) {
    auto session = query::PublishingSession::Publish(schema, mech, m,
                                                     /*epsilon=*/0.9, seed);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    const std::string path =
        TempPath(stem + "_" + std::to_string(seed) + ".pvls");
    EXPECT_TRUE(storage::SaveSession(path, *session).ok());
    paths.push_back(path);
  }
  return paths;
}

std::vector<query::RangeQuery> TestWorkload(const data::Schema& schema,
                                            std::size_t num_queries) {
  query::WorkloadOptions options;
  options.num_queries = num_queries;
  options.seed = 17;
  auto workload = query::GenerateWorkload(schema, options);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return *std::move(workload);
}

TEST(ReleaseStoreTest, AcquireUnknownIdIsNotFound) {
  query::ReleaseStore store;
  auto session = store.Acquire("nope");
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(StatusCode::kNotFound, session.status().code());
}

TEST(ReleaseStoreTest, RegisterRejectsDuplicatesAndEmptyIds) {
  query::ReleaseStore store;
  EXPECT_FALSE(store.Register("", "whatever.pvls").ok());
  EXPECT_TRUE(store.Register("r", "a.pvls").ok());
  EXPECT_FALSE(store.Register("r", "b.pvls").ok());
  EXPECT_EQ(std::vector<std::string>{"r"}, store.ids());
}

TEST(ReleaseStoreTest, AcquireLoadsLazilyAndCachesTheSession) {
  const data::Schema schema = TestSchema();
  const std::uint64_t seeds[] = {11};
  const auto paths = SaveReleases(schema, seeds, "lazy");
  query::ReleaseStore store;
  ASSERT_TRUE(store.Register("r", paths[0]).ok());
  EXPECT_EQ(0u, store.stats().loads);  // registration touches no file
  EXPECT_EQ(0u, store.resident_count());

  auto first = store.Acquire("r");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = store.Acquire("r");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // one shared session
  const query::ReleaseStore::Stats stats = store.stats();
  EXPECT_EQ(1u, stats.loads);
  EXPECT_EQ(1u, stats.hits);
  EXPECT_EQ(1u, store.resident_count());
}

TEST(ReleaseStoreTest, AnswersMatchDirectlyLoadedSessions) {
  const data::Schema schema = TestSchema();
  const std::uint64_t seeds[] = {21, 22, 23};
  const auto paths = SaveReleases(schema, seeds, "answers");
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 200);

  common::ThreadPool pool(2);
  query::ReleaseStore::Options options;
  options.pool = &pool;
  query::ReleaseStore store(options);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ASSERT_TRUE(store.Register("r" + std::to_string(i), paths[i]).ok());
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    auto direct = storage::LoadSession(paths[i]);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto answers = store.AnswerAll("r" + std::to_string(i), workload);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_EQ(direct->AnswerAll(workload), *answers) << "release " << i;
  }
  // Distinct seeds produced distinct releases; the store must not have
  // crossed any wires.
  auto a0 = store.AnswerAll("r0", workload);
  auto a1 = store.AnswerAll("r1", workload);
  ASSERT_TRUE(a0.ok() && a1.ok());
  EXPECT_NE(*a0, *a1);
}

TEST(ReleaseStoreTest, LruBoundEvictsLeastRecentlyUsed) {
  const data::Schema schema = TestSchema();
  const std::uint64_t seeds[] = {31, 32, 33};
  const auto paths = SaveReleases(schema, seeds, "lru");
  query::ReleaseStore::Options options;
  options.max_resident = 2;
  query::ReleaseStore store(options);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ASSERT_TRUE(store.Register("r" + std::to_string(i), paths[i]).ok());
  }
  ASSERT_TRUE(store.Acquire("r0").ok());
  ASSERT_TRUE(store.Acquire("r1").ok());
  EXPECT_EQ(2u, store.resident_count());
  ASSERT_TRUE(store.Acquire("r2").ok());  // evicts r0 (least recent)
  EXPECT_EQ(2u, store.resident_count());
  EXPECT_EQ(1u, store.stats().evictions);

  // r1 and r2 are hits; r0 needs a reload.
  ASSERT_TRUE(store.Acquire("r1").ok());
  ASSERT_TRUE(store.Acquire("r2").ok());
  EXPECT_EQ(3u, store.stats().loads);
  ASSERT_TRUE(store.Acquire("r0").ok());
  EXPECT_EQ(4u, store.stats().loads);
}

TEST(ReleaseStoreTest, EvictionKeepsBorrowedSessionsAlive) {
  const data::Schema schema = TestSchema();
  const std::uint64_t seeds[] = {41};
  const auto paths = SaveReleases(schema, seeds, "borrow");
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 100);
  query::ReleaseStore store;
  ASSERT_TRUE(store.Register("r", paths[0]).ok());

  auto borrowed = store.Acquire("r");
  ASSERT_TRUE(borrowed.ok());
  const std::vector<double> before = (*borrowed)->AnswerAll(workload);
  EXPECT_TRUE(store.Evict("r"));
  EXPECT_EQ(0u, store.resident_count());
  // The mapped snapshot behind the session must still be alive: same
  // answers from the borrowed pointer after the store dropped it.
  EXPECT_EQ(before, (*borrowed)->AnswerAll(workload));
  EXPECT_FALSE(store.Evict("r"));  // nothing resident anymore
}

TEST(ReleaseStoreTest, LoadFailuresAreReportedAndNotCached) {
  const data::Schema schema = TestSchema();
  query::ReleaseStore store;
  const std::string path = TempPath("late_file.pvls");
  std::remove(path.c_str());  // TempDir persists across runs
  ASSERT_TRUE(store.Register("r", path).ok());
  EXPECT_FALSE(store.Acquire("r").ok());  // file does not exist yet
  EXPECT_EQ(0u, store.stats().loads);

  const std::uint64_t seeds[] = {51};
  const auto paths = SaveReleases(schema, seeds, "late");
  auto direct = storage::LoadSession(paths[0]);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(storage::SaveSession(path, *direct).ok());
  EXPECT_TRUE(store.Acquire("r").ok()) << "retry after the file appeared";
}

TEST(ReleaseStoreTest, ConcurrentAcquiresShareOneLoad) {
  const data::Schema schema = TestSchema();
  const std::uint64_t seeds[] = {61};
  const auto paths = SaveReleases(schema, seeds, "shared");
  query::ReleaseStore store;
  ASSERT_TRUE(store.Register("r", paths[0]).ok());

  constexpr std::size_t kThreads = 8;
  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // start roughly together
      auto session = store.Acquire("r");
      if (!session.ok() || *session == nullptr) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(0u, failures.load());
  EXPECT_EQ(1u, store.stats().loads);
}

TEST(ReleaseStoreTest, RebindSwapsTheServedRelease) {
  const data::Schema schema = TestSchema();
  const std::uint64_t seeds[] = {81, 82};
  const auto paths = SaveReleases(schema, seeds, "rebind");
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 80);
  query::ReleaseStore store;
  ASSERT_TRUE(store.Register("r", paths[0]).ok());

  auto borrowed = store.Acquire("r");
  ASSERT_TRUE(borrowed.ok());
  const std::vector<double> old_answers = (*borrowed)->AnswerAll(workload);

  ASSERT_TRUE(store.Rebind("r", paths[1]).ok());
  // The borrowed session keeps serving the old release...
  EXPECT_EQ(old_answers, (*borrowed)->AnswerAll(workload));
  // ...while new acquirers get the new file.
  auto swapped = store.Acquire("r");
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  auto direct = storage::LoadSession(paths[1]);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->AnswerAll(workload), (*swapped)->AnswerAll(workload));
  EXPECT_NE(old_answers, (*swapped)->AnswerAll(workload));
  EXPECT_EQ(1u, store.stats().evictions);  // the resident session dropped
}

TEST(ReleaseStoreTest, RebindRegistersUnknownIds) {
  const data::Schema schema = TestSchema();
  const std::uint64_t seeds[] = {91};
  const auto paths = SaveReleases(schema, seeds, "rebind_new");
  query::ReleaseStore store;
  EXPECT_FALSE(store.Rebind("", paths[0]).ok());
  ASSERT_TRUE(store.Rebind("fresh", paths[0]).ok());
  EXPECT_EQ(std::vector<std::string>{"fresh"}, store.ids());
  EXPECT_TRUE(store.Acquire("fresh").ok());
}

TEST(ReleaseStoreTest, RebindToABadFileKeepsTheOldRelease) {
  // A failed Rebind leaves the binding as it was: same resident session,
  // same answers, same generation — for a missing file and a corrupt one.
  const data::Schema schema = TestSchema();
  const std::uint64_t seeds[] = {85};
  const auto paths = SaveReleases(schema, seeds, "rebind_bad");
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 40);
  query::ReleaseStore store;
  ASSERT_TRUE(store.Register("r", paths[0]).ok());
  auto before = store.Acquire("r");
  ASSERT_TRUE(before.ok());
  const std::vector<double> answers = (*before)->AnswerAll(workload);
  const std::uint64_t generation = store.generation("r");

  const std::string missing = TempPath("rebind_bad_missing.pvls");
  std::remove(missing.c_str());
  const std::string corrupt = TempPath("rebind_bad_corrupt.pvls");
  {
    std::FILE* f = std::fopen(corrupt.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "PVLS this is not a snapshot";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  for (const std::string& bad : {missing, corrupt}) {
    EXPECT_FALSE(store.Rebind("r", bad).ok()) << bad;
    EXPECT_EQ(generation, store.generation("r")) << bad;
    auto after = store.Acquire("r");
    ASSERT_TRUE(after.ok()) << bad << ": " << after.status().ToString();
    EXPECT_EQ(before->get(), after->get()) << bad;
    EXPECT_EQ(answers, (*after)->AnswerAll(workload)) << bad;
  }
  EXPECT_EQ(0u, store.stats().evictions);
  EXPECT_EQ(1u, store.stats().loads);

  // An unknown id with a bad file is not registered either.
  EXPECT_FALSE(store.Rebind("ghost", missing).ok());
  EXPECT_EQ(std::vector<std::string>{"r"}, store.ids());
  std::remove(corrupt.c_str());
}

// Rebind racing concurrent Acquires (the daemon's RELOAD-mid-traffic
// path): every Acquire must return a valid session whose answers match
// either the old or the new release — never an error, never a torn mix.
TEST(ReleaseStoreTest, RebindUnderConcurrentAcquires) {
  const data::Schema schema = TestSchema();
  const std::uint64_t seeds[] = {95, 96};
  const auto paths = SaveReleases(schema, seeds, "rebind_race");
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 40);
  std::vector<std::vector<double>> expected;
  for (const std::string& path : paths) {
    auto direct = storage::LoadSession(path);
    ASSERT_TRUE(direct.ok());
    expected.push_back(direct->AnswerAll(workload));
  }

  query::ReleaseStore store;
  ASSERT_TRUE(store.Register("r", paths[0]).ok());
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kIterations = 20;
  std::atomic<std::size_t> errors{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        if (t == 0) {  // one thread flips the binding back and forth
          if (!store.Rebind("r", paths[i % 2]).ok()) errors.fetch_add(1);
          continue;
        }
        auto session = store.Acquire("r");
        if (!session.ok()) {
          errors.fetch_add(1);
          continue;
        }
        const std::vector<double> answers = (*session)->AnswerAll(workload);
        if (answers != expected[0] && answers != expected[1]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(0u, errors.load());
  EXPECT_EQ(0u, mismatches.load());
}

// The TSan target: concurrent Acquire / AnswerAll / Evict over several
// releases with a tight LRU bound, all answers checked against the
// per-release expectation computed up front.
TEST(ReleaseStoreTest, ConcurrentLoadEvictAnswerHammer) {
  const data::Schema schema = TestSchema();
  const std::uint64_t seeds[] = {71, 72, 73};
  const auto paths = SaveReleases(schema, seeds, "hammer");
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 60);

  std::vector<std::vector<double>> expected;
  for (const std::string& path : paths) {
    auto direct = storage::LoadSession(path);
    ASSERT_TRUE(direct.ok());
    expected.push_back(direct->AnswerAll(workload));
  }

  common::ThreadPool pool(2);
  query::ReleaseStore::Options options;
  options.max_resident = 2;  // force evictions while answers are in flight
  options.pool = &pool;
  query::ReleaseStore store(options);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ASSERT_TRUE(store.Register("r" + std::to_string(i), paths[i]).ok());
  }

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 25;
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> errors{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rng::Xoshiro256pp gen(1000 + t);
      for (std::size_t i = 0; i < kIterations; ++i) {
        const std::size_t release = gen.NextUint64InRange(0, 2);
        const std::string id = "r" + std::to_string(release);
        switch (gen.NextUint64InRange(0, 3)) {
          case 0:
            store.Evict(id);
            break;
          case 1: {
            auto session = store.Acquire(id);
            if (!session.ok()) {
              errors.fetch_add(1);
              break;
            }
            // Answer via the borrowed pointer while other threads evict.
            if ((*session)->AnswerAll(workload) != expected[release]) {
              mismatches.fetch_add(1);
            }
            break;
          }
          default: {
            auto answers = store.AnswerAll(id, workload);
            if (!answers.ok()) {
              errors.fetch_add(1);
            } else if (*answers != expected[release]) {
              mismatches.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(0u, errors.load());
  EXPECT_EQ(0u, mismatches.load());
  const query::ReleaseStore::Stats stats = store.stats();
  EXPECT_GE(stats.loads, 3u);  // every release was resident at least once
  EXPECT_LE(store.resident_count(), 2u);
}

}  // namespace
}  // namespace privelet
