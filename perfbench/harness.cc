// The publish -> serve benchmark harness. One run of one workload:
//
//   1. publish children (`privelet_cli publish --threads 2`, one seed)
//      whose snapshots must be byte-identical and open with MapSession;
//   2. daemon cold starts (`privelet_cli daemon --loops 1 --threads 0`):
//      spawn to first correct answer;
//   3. warm-up on the last daemon;
//   4. read phases in rounds: an open loop at the workload's fixed offered
//      rate (latency from each request's due time), then a closed loop at
//      a fixed pipeline depth (throughput as a high quantile of
//      per-window rates);
//   5. a reload phase: RELOADs alternating between two byte-identical
//      snapshots while a closed-loop reader keeps querying;
//   6. STATS, checked against the generator's own counts.
//
// With --trace 1 the same run also times each layer in-process
// (layers.h) and prints the per-layer metrics instead of the end-to-end
// ones. See perfbench/README.md for why each workload exists.
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_helpers.h"
#include "layers.h"
#include "loadgen.h"
#include "privelet/data/census_generator.h"
#include "privelet/data/csv.h"
#include "privelet/data/synthetic_generator.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/query/evaluator.h"
#include "privelet/query/workload.h"
#include "privelet/serving/answer_cache.h"
#include "privelet/serving/protocol.h"
#include "privelet/simd/dispatch.h"
#include "privelet/storage/session_io.h"
#include "privelet_cli/schema_spec.h"
#include "proc.h"

namespace perfbench {
namespace {

namespace pv = privelet;

// Sub-seed streams of the run seed (DeriveSeed).
enum Stream : std::uint64_t {
  kTableStream = 1,
  kPoolStream,
  kOrderStream,
  kZipfStream,
  kReloadStream,
  kArrivalStream = 100,  // + round
};

// The mechanism's parameters, fixed like the CLI's defaults: the noise
// seed is not workload, and a fixed noise draw keeps answer_mse a guard
// on the release and the answers rather than on the draw.
constexpr double kEpsilon = 1.0;
constexpr std::uint64_t kNoiseSeed = 7;
constexpr std::size_t kPublishThreads = 2;
constexpr std::uint64_t kWindowNs = 200'000'000;  // closed-loop rate window
// queries_per_s is this quantile of the window rates, not their median:
// the host switches the daemon's CPU between a fast and a ~1.7x slower
// state every 0.2-2 s, so window rates are bimodal and their median jumps
// between the two modes from run to run (README, "Steadiness").
constexpr double kRateQuantile = 0.95;
constexpr std::size_t kCensusBatch = 64;

struct WorkloadSpec {
  std::string name;
  std::string release_id;
  bool binary = false;
  /// Open-loop offered load in queries/s: a quarter or less of what one
  /// daemon loop sustains on this workload (README, "Steadiness").
  double offered_qps = 0;
  std::size_t closed_depth = 0;  ///< requests in flight in the closed loop
  std::size_t publishes = 0;
  std::size_t cold_starts = 0;
  std::size_t reloads = 0;
  std::uint64_t reload_gap_min_ns = 0;
  std::uint64_t reload_gap_max_ns = 0;
  std::uint64_t warmup_ns = 0;
  std::size_t trace_requests = 0;  ///< requests in the in-process pass
};

const WorkloadSpec kWorkloads[] = {
    {"census_cold_binary", "census", true, 100'000, 32, 3, 3, 4, 100'000'000,
     200'000'000, 1'000'000'000, 2048},
    {"grid_hot_text", "grid", false, 60'000, 2048, 11, 7, 15, 50'000'000,
     100'000'000, 500'000'000, 65536},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::string cli;
  std::string work;
  std::string git_sha = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--cli") {
      args.cli = value;
    } else if (flag == "--work") {
      args.work = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.cli.empty() || args.work.empty() || args.seconds == 0) {
    Die("usage: perfbench_harness --workload W --seed N --seconds S "
        "--trace 0|1 --cli PATH --work DIR [--git-sha SHA]");
  }
  return args;
}

// The workload's table, from the seed.
pv::data::Table MakeTable(const WorkloadSpec& spec, std::uint64_t seed) {
  const std::uint64_t table_seed = DeriveSeed(seed, kTableStream);
  if (spec.binary) {
    pv::data::CensusConfig config =
        pv::data::DefaultCensusConfig(pv::data::CensusCountry::kBrazil);
    config.num_tuples = 1'000'000;
    config.seed = table_seed;
    return OrDie(pv::data::GenerateCensus(config), "census table");
  }
  const pv::data::Schema schema({pv::data::Attribute::Ordinal("x", 1024),
                                 pv::data::Attribute::Ordinal("y", 512)});
  return OrDie(pv::data::GenerateUniformTable(schema, 200'000, table_seed),
               "grid table");
}

// `count` distinct paper-style random queries (query::GenerateWorkload).
std::vector<pv::query::RangeQuery> DistinctPool(const pv::data::Schema& schema,
                                                std::size_t count,
                                                std::uint64_t seed) {
  std::vector<pv::query::RangeQuery> pool;
  std::unordered_set<std::uint64_t> seen;
  std::string key;
  for (std::uint64_t round = 0; pool.size() < count; ++round) {
    pv::query::WorkloadOptions options;
    options.num_queries = count + count / 8;
    options.seed = DeriveSeed(seed, round);
    for (auto& q : OrDie(pv::query::GenerateWorkload(schema, options),
                         "workload")) {
      key.clear();
      pv::serving::AppendQueryKey(q, &key);
      if (!seen.insert(std::hash<std::string>{}(key)).second) continue;
      pool.push_back(std::move(q));
      if (pool.size() == count) break;
    }
  }
  return pool;
}

pv::serving::QuerySpec ToSpec(const pv::query::RangeQuery& q) {
  pv::serving::QuerySpec spec;
  for (std::size_t a = 0; a < q.num_attributes(); ++a) {
    if (!q.range(a).has_value()) continue;
    spec.predicates.push_back({0, static_cast<std::uint16_t>(a),
                               q.range(a)->lo, q.range(a)->hi});
  }
  return spec;
}

std::string ToText(const pv::data::Schema& schema,
                   const pv::query::RangeQuery& q) {
  std::string line;
  for (std::size_t a = 0; a < q.num_attributes(); ++a) {
    if (!q.range(a).has_value()) continue;
    if (!line.empty()) line += ' ';
    line += schema.attribute(a).name();
    line += '=';
    line += std::to_string(q.range(a)->lo);
    line += ':';
    line += std::to_string(q.range(a)->hi);
  }
  return line.empty() ? "*" : line;
}

// Census: 64-query PVB1 batches over the pool, in a seeded batch order.
RequestTable BinaryTable(const WorkloadSpec& spec,
                         const std::vector<pv::query::RangeQuery>& pool,
                         const std::vector<double>& answers,
                         std::uint64_t seed) {
  RequestTable table;
  table.binary = true;
  const std::size_t batches = pool.size() / kCensusBatch;
  for (const std::size_t b :
       Permutation(batches, DeriveSeed(seed, kOrderStream))) {
    std::vector<pv::serving::QuerySpec> specs;
    for (std::size_t i = 0; i < kCensusBatch; ++i) {
      specs.push_back(ToSpec(pool[b * kCensusBatch + i]));
    }
    RequestTable::Entry e;
    e.offset = table.bytes.size();
    pv::serving::EncodeQueryRequest(&table.bytes, spec.release_id, specs);
    e.length = static_cast<std::uint32_t>(table.bytes.size() - e.offset);
    e.queries = kCensusBatch;
    e.frame_offset = table.expected_frames.size();
    pv::serving::EncodeOkAnswers(
        &table.expected_frames,
        std::span<const double>(answers).subspan(b * kCensusBatch,
                                                 kCensusBatch));
    e.frame_length =
        static_cast<std::uint32_t>(table.expected_frames.size() -
                                   e.frame_offset);
    table.entries.push_back(e);
  }
  return table;
}

// Grid: text QUERY lines and BATCHes of 4, each query drawn Zipf(1.2)
// over the hot pool (pool order is random, so rank -> query is too).
RequestTable TextTable(const WorkloadSpec& spec,
                       const pv::data::Schema& schema,
                       const std::vector<pv::query::RangeQuery>& pool,
                       const std::vector<double>& answers,
                       std::uint64_t seed) {
  constexpr std::size_t kRequests = std::size_t{1} << 18;
  constexpr std::uint32_t kBatch = 4;
  std::vector<std::string> lines;
  for (const auto& q : pool) lines.push_back(ToText(schema, q));
  const ZipfSampler zipf(pool.size(), 1.2);
  SplitMix64 rng(DeriveSeed(seed, kZipfStream));
  RequestTable table;
  for (std::size_t r = 0; r < kRequests; ++r) {
    RequestTable::Entry e;
    e.offset = table.bytes.size();
    e.expected = table.expected_answers.size();
    e.text_batch = rng.Uniform() < 0.5;
    e.queries = e.text_batch ? kBatch : 1;
    if (e.text_batch) {
      table.bytes += "BATCH " + spec.release_id + " 4\n";
    } else {
      table.bytes += "QUERY " + spec.release_id + " ";
    }
    for (std::uint32_t i = 0; i < e.queries; ++i) {
      const std::size_t rank = zipf.Draw(rng);
      table.bytes += lines[rank];
      table.bytes += '\n';
      table.expected_answers.push_back(answers[rank]);
    }
    e.length = static_cast<std::uint32_t>(table.bytes.size() - e.offset);
    table.entries.push_back(e);
  }
  return table;
}

bool SameFileBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::vector<char> ba(1 << 22), bb(1 << 22);
  while (true) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    if (fa.gcount() != fb.gcount()) return false;
    if (std::memcmp(ba.data(), bb.data(),
                    static_cast<std::size_t>(fa.gcount())) != 0) {
      return false;
    }
    if (fa.gcount() == 0 || !fa) return true;
  }
}

// Blocks (up to 60 s) for the daemon's `listening on H:P` line.
std::uint16_t ReadListeningPort(int fd) {
  std::string line;
  const std::uint64_t deadline = NowNs() + 60'000'000'000ull;
  while (line.find('\n') == std::string::npos) {
    struct pollfd p = {fd, POLLIN, 0};
    if (::poll(&p, 1, 100) > 0) {
      char buf[256];
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) Die("daemon exited before listening");
      line.append(buf, static_cast<std::size_t>(n));
    }
    if (NowNs() > deadline) Die("daemon did not start listening");
  }
  const std::size_t colon = line.find(':');
  if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
    Die("unexpected daemon output: " + line);
  }
  return static_cast<std::uint16_t>(std::strtoul(line.c_str() + colon + 1,
                                                 nullptr, 10));
}

// JSON number with every digit.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

int Run(const Args& args) {
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == args.workload) found = &w;
  }
  if (found == nullptr) Die("unknown workload '" + args.workload + "'");
  const WorkloadSpec& spec = *found;
  const HostCounters host_before = ReadHostCounters();
  const std::uint64_t run_start = NowNs();
  std::filesystem::create_directories(args.work);
  const std::string work = std::filesystem::absolute(args.work).string();
  const std::string csv = work + "/table.csv";
  const std::string schema_path = work + "/table.schema";

  std::uint64_t attempted = 0, failed = 0;
  const auto count = [&](bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  };

  // --- Inputs, all from the seed. -----------------------------------
  const pv::data::Table table = MakeTable(spec, args.seed);
  const pv::data::Schema& schema = table.schema();
  OrDie(pv::data::WriteCsv(csv, table), "write csv");
  OrDie(pv::cli::WriteSchemaSpecFile(schema_path, schema), "write schema");

  // --- 1. Publish children. -----------------------------------------
  std::vector<std::string> snapshots;
  std::vector<double> publish_s, publish_rss_mb;
  const std::vector<std::string> publish_flags = {
      "--threads", std::to_string(kPublishThreads), "--epsilon", "1",
      "--seed", std::to_string(kNoiseSeed)};
  const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  for (std::size_t i = 0; i < spec.publishes; ++i) {
    const std::string out = work + "/release" + std::to_string(i) + ".pvls";
    std::vector<std::string> argv = {args.cli, "publish", "--csv", csv,
                                     "--schema", schema_path, "--output", out};
    argv.insert(argv.end(), publish_flags.begin(), publish_flags.end());
    struct rusage usage {};
    const std::uint64_t t0 = NowNs();
    Child child = Child::Spawn(argv, devnull, -1);
    const int code = child.Wait(&usage);
    publish_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    publish_rss_mb.push_back(static_cast<double>(usage.ru_maxrss) * 1024 /
                             1e6);
    count(code == 0, "publish child exited with " + std::to_string(code));
    if (i > 0) {
      count(SameFileBytes(snapshots[0], out),
            "publish " + std::to_string(i) + " is not byte-identical");
    }
    // Two byte-identical copies stay for the reload phase.
    if (i < 2) {
      snapshots.push_back(out);
    } else {
      std::filesystem::remove(out);
    }
  }
  ::close(devnull);
  if (snapshots.size() < 2) Die("a workload needs at least two publishes");
  const std::uint64_t file_bytes = std::filesystem::file_size(snapshots[0]);

  std::vector<Metric> layer_metrics;
  double publish_span_ms = 0;
  if (args.trace) {
    publish_span_ms =
        TracePublishLayers(csv, schema_path, kEpsilon, kNoiseSeed,
                           kPublishThreads, work + "/traced.pvls",
                           &layer_metrics);
  }

  // --- Expected answers: the mapped snapshot in-process; exact counts.
  const std::size_t pool_size =
      spec.binary ? (std::size_t{1} << 20) : std::size_t{4096};
  const std::vector<pv::query::RangeQuery> pool =
      DistinctPool(schema, pool_size, DeriveSeed(args.seed, kPoolStream));
  std::vector<double> answers;
  std::size_t cells = 1;
  for (const std::size_t d : schema.DomainSizes()) cells *= d;
  {
    const auto mapped = pv::storage::MapSession(snapshots[0]);
    count(mapped.ok(), "the published snapshot does not open with MapSession");
    if (!mapped.ok()) Die(mapped.status().ToString());
    answers = mapped->AnswerAll(pool);
  }
  std::vector<std::int64_t> exact(pool.size());
  {
    const pv::matrix::FrequencyMatrix m =
        pv::matrix::FrequencyMatrix::FromTable(table);
    const pv::query::ExactEvaluator evaluator(schema, m);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      exact[i] = evaluator.Answer(pool[i]);
    }
  }
  const double answer_mse = AnswerMse(answers, exact);
  const RequestTable requests =
      spec.binary ? BinaryTable(spec, pool, answers, args.seed)
                  : TextTable(spec, schema, pool, answers, args.seed);

  if (args.trace) {
    TraceServeLayers(snapshots[0], spec.release_id, requests,
                     spec.trace_requests, &layer_metrics, &attempted,
                     &failed);
  }

  // Open-loop schedules and RELOAD gaps, built before any timed loop.
  const std::uint64_t rounds = std::max<std::uint64_t>(1, args.seconds / 2);
  const std::uint64_t segment_ns = args.seconds * 1'000'000'000ull /
                                   (2 * rounds);
  double queries_per_request = 0;
  for (const auto& e : requests.entries) queries_per_request += e.queries;
  queries_per_request /= static_cast<double>(requests.entries.size());
  std::vector<std::vector<std::uint64_t>> schedules;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    schedules.push_back(PoissonSchedule(
        spec.offered_qps / queries_per_request, segment_ns,
        DeriveSeed(args.seed, kArrivalStream + r)));
  }
  std::vector<std::uint64_t> reload_gaps;
  {
    SplitMix64 rng(DeriveSeed(args.seed, kReloadStream));
    for (std::size_t i = 0; i <= spec.reloads; ++i) {
      reload_gaps.push_back(
          spec.reload_gap_min_ns +
          rng.Below(spec.reload_gap_max_ns - spec.reload_gap_min_ns + 1));
    }
  }

  // --- CPU placement: generator and daemon on disjoint CPUs. ----------
  const std::vector<int> cpus = AllowedCpus();
  const int generator_cpu = cpus.size() >= 2 ? cpus[cpus.size() - 2] : -1;
  const int daemon_cpu = cpus.size() >= 2 ? cpus[cpus.size() - 1] : -1;
  if (generator_cpu >= 0) PinSelf(generator_cpu);

  // --- 2. Daemon cold starts; the last daemon serves the rest. -------
  const std::vector<std::string> daemon_flags = {"--loops", "1", "--threads",
                                                 "0"};
  std::vector<double> setup_s;
  Child daemon;
  int daemon_stdout = -1;
  std::uint16_t port = 0;
  std::optional<Connection> reader;
  std::optional<Generator> gen;
  for (std::size_t i = 0; i < spec.cold_starts; ++i) {
    if (gen.has_value()) {
      attempted += gen->attempted();
      failed += gen->failed();
    }
    reader.reset();
    gen.reset();
    daemon.Terminate();
    if (daemon_stdout >= 0) ::close(daemon_stdout);
    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) != 0) Die("pipe2 failed");
    std::vector<std::string> argv = {
        args.cli, "daemon", spec.release_id + "=" + snapshots[0], "--port",
        "0"};
    argv.insert(argv.end(), daemon_flags.begin(), daemon_flags.end());
    const std::uint64_t t0 = NowNs();
    daemon = Child::Spawn(argv, pipefd[1], daemon_cpu);
    ::close(pipefd[1]);
    daemon_stdout = pipefd[0];
    port = ReadListeningPort(daemon_stdout);
    reader.emplace(port, requests.binary);
    gen.emplace(&requests, i);
    // A wrong first answer counts as a failed operation (in gen).
    gen->RoundTrip(*reader);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  // --- 3. Warm-up: pages faulted in, caches warm. --------------------
  std::vector<double> discard;
  gen->ClosedLoop(*reader, spec.closed_depth, spec.warmup_ns, kWindowNs,
                  &discard);

  // --- 4. Read phases, interleaved in rounds. -------------------------
  std::vector<DueRecord> due_records;
  std::vector<double> rates;
  std::uint64_t open_queries = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::uint64_t before = gen->queries_answered();
    gen->OpenLoop(*reader, schedules[r], &due_records);
    open_queries += gen->queries_answered() - before;
    gen->ClosedLoop(*reader, spec.closed_depth, segment_ns, kWindowNs,
                    &rates);
  }

  // --- 5. Reload phase. ------------------------------------------------
  std::vector<ReloadSample> reloads;
  {
    Connection reloader(port, /*binary=*/false);
    reloads = gen->ReloadPhase(*reader, reloader, spec.closed_depth,
                               spec.release_id, snapshots, reload_gaps);
  }

  // --- 6. STATS against the generator's counts. -----------------------
  const std::string stats = gen->Stats(*reader);
  const double serve_rss_mb =
      static_cast<double>(VmHwmKib(daemon.pid())) * 1024 / 1e6;
  count(StatsValue(stats, "queries") ==
            static_cast<double>(gen->queries_answered()),
        "STATS queries differ from the generator's");
  count(StatsValue(stats, "failures") ==
            static_cast<double>(gen->error_responses()),
        "STATS failures differ from the generator's");
  count(StatsValue(stats, "connections_dropped") == 0,
        "STATS reports dropped connections");
  count(StatsValue(stats, "requests") ==
            static_cast<double>(gen->stats_requests()),
        "STATS requests differ from the generator's");
  attempted += gen->attempted();
  failed += gen->failed();
  reader.reset();
  const int daemon_exit = daemon.Terminate();
  count(daemon_exit == 0,
        "daemon exited with " + std::to_string(daemon_exit));
  ::close(daemon_stdout);
  for (const std::string& s : snapshots) std::filesystem::remove(s);

  // --- Metrics. --------------------------------------------------------
  const DueAccounting due = AccountDueTimes(due_records);
  const double req_p50 = ExactQuantile(due.latency_us, 0.50);
  std::vector<double> reload_ms, stall_ms;
  for (const ReloadSample& s : reloads) {
    reload_ms.push_back(static_cast<double>(s.round_trip_ns) * 1e-6);
    stall_ms.push_back(static_cast<double>(s.stall_ns) * 1e-6);
  }
  const double open_seconds =
      static_cast<double>(segment_ns * rounds) * 1e-9;
  const HostCounters host_after = ReadHostCounters();
  const double tick_delta = static_cast<double>(host_after.total_ticks -
                                                host_before.total_ticks);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"publish_s", Median(publish_s), "s"},
        {"publish_peak_rss_mb", Median(publish_rss_mb), "MB"},
        {"snapshot_bytes_per_cell",
         static_cast<double>(file_bytes) / static_cast<double>(cells),
         "B/cell"},
        {"answer_mse", answer_mse, "tuples2"},
        {"req_p50_us", req_p50, "us"},
        {"req_p90_us", ExactQuantile(due.latency_us, 0.90), "us"},
        {"queries_per_s", ExactQuantile(rates, kRateQuantile), "1/s"},
        {"reload_ms", Median(reload_ms), "ms"},
        {"reload_stall_ms", Median(stall_ms), "ms"},
        {"serve_peak_rss_mb", serve_rss_mb, "MB"},
    };
  } else {
    metrics = std::move(layer_metrics);
    const double queries = StatsValue(stats, "queries");
    const double daemon_p50 = StatsAllP50Us(stats);
    metrics.push_back({"trace.publish_unexplained_ms",
                       Median(publish_s) * 1e3 - publish_span_ms, "ms"});
    metrics.push_back({"serving.answer_cache_hit_ratio",
                       StatsValue(stats, "answer_cache_hits") / queries,
                       "ratio"});
    metrics.push_back({"serving.queries", queries, "count"});
    metrics.push_back({"serving.daemon_answer_p50_us", daemon_p50, "us"});
    metrics.push_back({"serving.outside_answer_us", req_p50 - daemon_p50,
                       "us"});
    metrics.push_back(
        {"serving.failures", StatsValue(stats, "failures"), "count"});
    metrics.push_back(
        {"serving.reloads", StatsValue(stats, "reloads"), "count"});
    metrics.push_back(
        {"query.store_loads", StatsValue(stats, "store_loads"), "count"});
    metrics.push_back({"loadgen.lateness_p99_us",
                       ExactQuantile(due.lateness_us, 0.99), "us"});
    metrics.push_back({"loadgen.req_p99_us",
                       ExactQuantile(due.latency_us, 0.99), "us"});
    metrics.push_back({"loadgen.open_samples",
                       static_cast<double>(due.latency_us.size()), "count"});
  }

  // Run facts: one line before the result, so a noisy run can be told
  // apart from a regression.
  std::string cpu_list;
  for (const int c : cpus) {
    if (!cpu_list.empty()) cpu_list += ',';
    cpu_list += std::to_string(c);
  }
  const auto join = [](const std::vector<std::string>& flags) {
    std::string s;
    for (const auto& f : flags) {
      if (!s.empty()) s += ' ';
      s += f;
    }
    return s;
  };
  std::printf(
      "facts {\"workload\": %s, \"seed\": %llu, \"seconds\": %llu, "
      "\"nproc\": %ld, \"cpus_allowed\": %s, \"generator_cpu\": %d, "
      "\"daemon_cpu\": %d, \"l2_bytes\": %llu, \"l3_bytes\": %llu, "
      "\"isa\": %s, \"git_sha\": %s, \"daemon_flags\": %s, "
      "\"publish_flags\": %s, \"release_cells\": %zu, "
      "\"snapshot_bytes\": %llu, \"table_bytes\": %zu, "
      "\"offered_qps\": %s, \"achieved_offered_qps\": %s, "
      "\"open_samples\": %zu, \"closed_windows\": %zu, "
      "\"cold_starts\": %zu, \"publishes\": %zu, \"reloads\": %zu, "
      "\"pool_queries\": %zu, \"steal_pct\": %s, \"loadavg_before\": %s, "
      "\"loadavg_after\": %s, \"run_s\": %s}\n",
      Quote(spec.name).c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(args.seconds),
      sysconf(_SC_NPROCESSORS_ONLN),
      Quote(cpu_list).c_str(), generator_cpu, daemon_cpu,
      static_cast<unsigned long long>(CacheBytes(2)),
      static_cast<unsigned long long>(CacheBytes(3)),
      Quote(std::string(pv::simd::IsaLevelName(pv::simd::ResolveIsa())))
          .c_str(),
      Quote(args.git_sha).c_str(), Quote(join(daemon_flags)).c_str(),
      Quote(join(publish_flags)).c_str(), cells,
      static_cast<unsigned long long>(file_bytes),
      cells * sizeof(long double), Num(spec.offered_qps).c_str(),
      Num(static_cast<double>(open_queries) / open_seconds).c_str(),
      due.latency_us.size(), rates.size(), setup_s.size(), publish_s.size(),
      reloads.size(), pool.size(),
      Num(tick_delta > 0 ? static_cast<double>(host_after.steal_ticks -
                                               host_before.steal_ticks) /
                               tick_delta * 100
                         : 0)
          .c_str(),
      Num(host_before.loadavg_1m).c_str(), Num(host_after.loadavg_1m).c_str(),
      Num(static_cast<double>(NowNs() - run_start) * 1e-9).c_str());

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += Quote(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
            "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::StartWatchdog(170);
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
