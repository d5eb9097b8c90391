#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>

#include "privelet/common/file_mapping.h"
#include "privelet/common/thread_pool.h"
#include "privelet/data/csv.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/noise.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/release_store.h"
#include "privelet/serving/answer_cache.h"
#include "privelet/serving/protocol.h"
#include "privelet/serving/server.h"
#include "privelet/storage/crc32.h"
#include "privelet/storage/session_io.h"
#include "privelet/wavelet/hn_transform.h"
#include "privelet_cli/schema_spec.h"
#include "proc.h"

namespace perfbench {
namespace {

namespace pv = privelet;

double Ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Lap timer: each Lap charges the time since the previous one to a span.
// The untraced instantiation reads no clock at all.
template <bool kTraced>
class LapClock {
 public:
  void Start() {
    if constexpr (kTraced) last_ = NowNs();
  }
  void Lap(std::uint64_t* span) {
    if constexpr (kTraced) {
      const std::uint64_t now = NowNs();
      *span += now - last_;
      last_ = now;
    }
  }

 private:
  std::uint64_t last_ = 0;
};

struct ServeSpans {
  std::uint64_t decode = 0, acquire = 0, build = 0, lookup = 0, compile = 0,
                evaluate = 0, insert = 0, encode = 0;
};

// One request as the server sees it: a binary payload, or the predicate
// lines of a text QUERY/BATCH (line framing is the server's private code,
// so it is done here before timing).
struct ServeRequest {
  std::string_view payload;
  std::vector<std::string> lines;
};

template <bool kTraced>
std::uint64_t ServePass(pv::query::ReleaseStore& store, const std::string& id,
                        bool binary, const std::vector<ServeRequest>& requests,
                        ServeSpans* spans, std::vector<double>* answers_out) {
  const pv::serving::ServerOptions defaults;
  pv::serving::AnswerCache cache(defaults.answer_cache_entries);
  LapClock<kTraced> clock;
  std::string encoded;
  answers_out->clear();
  const std::uint64_t start = NowNs();
  for (const ServeRequest& request : requests) {
    clock.Start();
    std::optional<pv::serving::BinaryRequest> decoded;
    if (binary) {
      decoded = OrDie(pv::serving::DecodeRequest(request.payload), "decode");
      clock.Lap(&spans->decode);
    }
    const std::uint64_t generation = store.generation(id);
    const auto session = OrDie(store.Acquire(id), "acquire");
    clock.Lap(&spans->acquire);
    // Steps a framing or batch size skips still take their lap, so their
    // span holds the timer's own cost rather than a constant zero.
    std::vector<pv::query::RangeQuery> queries;
    if (binary) {
      queries.reserve(decoded->queries.size());
      for (const pv::serving::QuerySpec& spec : decoded->queries) {
        queries.push_back(
            OrDie(pv::serving::BuildQuery(session->schema(), spec), "build"));
      }
    } else {
      queries.reserve(request.lines.size());
      for (const std::string& line : request.lines) {
        queries.push_back(OrDie(
            pv::serving::ParseQueryLine(session->schema(), line), "parse"));
      }
      clock.Lap(&spans->decode);
    }
    clock.Lap(&spans->build);
    cache.SetGeneration(generation);
    std::vector<double> answers(queries.size());
    std::vector<std::string> keys(queries.size());
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      pv::serving::AppendQueryKey(queries[i], &keys[i]);
      if (!cache.Lookup(keys[i], &answers[i])) misses.push_back(i);
    }
    clock.Lap(&spans->lookup);
    if (!misses.empty()) {
      std::vector<pv::query::RangeQuery> miss_queries;
      const bool all = misses.size() == queries.size();
      if (!all) {
        for (const std::size_t i : misses) miss_queries.push_back(queries[i]);
      }
      const std::span<const pv::query::RangeQuery> batch =
          all ? std::span<const pv::query::RangeQuery>(queries)
              : std::span<const pv::query::RangeQuery>(miss_queries);
      std::vector<double> computed;
      if (defaults.compile_batch_threshold > 0 &&
          batch.size() >= defaults.compile_batch_threshold) {
        const pv::query::CompiledWorkload compiled = session->Compile(batch);
        clock.Lap(&spans->compile);
        computed = session->AnswerCompiled(compiled);
      } else {
        clock.Lap(&spans->compile);
        computed = session->AnswerAll(batch);
      }
      clock.Lap(&spans->evaluate);
      for (std::size_t j = 0; j < misses.size(); ++j) {
        answers[misses[j]] = computed[j];
        cache.Insert(keys[misses[j]], computed[j]);
      }
      clock.Lap(&spans->insert);
    }
    if (binary) {
      encoded.clear();
      pv::serving::EncodeOkAnswers(&encoded, answers);
    }
    clock.Lap(&spans->encode);
    answers_out->insert(answers_out->end(), answers.begin(), answers.end());
  }
  return NowNs() - start;
}

std::vector<ServeRequest> SplitRequests(const RequestTable& table,
                                        std::size_t count) {
  std::vector<ServeRequest> requests(count);
  for (std::size_t r = 0; r < count; ++r) {
    const RequestTable::Entry& e = table.entries[r];
    const std::string_view bytes =
        std::string_view(table.bytes).substr(e.offset, e.length);
    if (table.binary) {
      requests[r].payload = bytes.substr(4);
      continue;
    }
    // `QUERY <id> <preds>\n` or `BATCH <id> <n>\n` plus n predicate lines.
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::size_t nl = bytes.find('\n', pos);
      requests[r].lines.emplace_back(bytes.substr(pos, nl - pos));
      pos = nl + 1;
    }
    std::string& first = requests[r].lines.front();
    if (first.rfind("QUERY ", 0) == 0) {
      first = first.substr(first.find(' ', 6) + 1);
    } else {
      requests[r].lines.erase(requests[r].lines.begin());
    }
  }
  return requests;
}

}  // namespace

double TracePublishLayers(const std::string& csv_path,
                          const std::string& schema_path, double epsilon,
                          std::uint64_t noise_seed, std::size_t threads,
                          const std::string& scratch_snapshot,
                          std::vector<Metric>* out) {
  const pv::data::Schema schema =
      OrDie(pv::cli::ReadSchemaSpecFile(schema_path), "schema spec");
  pv::common::ThreadPool pool(threads);
  const pv::matrix::EngineOptions options;  // publish's defaults

  std::uint64_t t = NowNs();
  const auto lap = [&t] {
    const std::uint64_t now = NowNs();
    const std::uint64_t elapsed = now - t;
    t = now;
    return elapsed;
  };
  // The publish child's calls, in its order: these spans account for
  // publish_s.
  const pv::data::Table table =
      OrDie(pv::data::ReadCsv(csv_path, schema), "read csv");
  const std::uint64_t read_csv = lap();
  const pv::matrix::FrequencyMatrix m =
      pv::matrix::FrequencyMatrix::FromTable(table);
  const std::uint64_t from_table = lap();
  pv::mechanism::PriveletMechanism mech;
  mech.set_thread_pool(&pool);
  mech.set_engine_options(options);
  pv::matrix::FrequencyMatrix published =
      OrDie(mech.Publish(schema, m, epsilon, noise_seed), "publish");
  const std::uint64_t publish = lap();
  std::optional<pv::query::PublishingSession> session =
      OrDie(pv::query::PublishingSession::FromMatrix(
                schema, std::move(published), &pool, options),
            "prefix build");
  const std::uint64_t prefix = lap();
  OrDie(pv::storage::SaveSession(scratch_snapshot, *session), "save");
  const std::uint64_t save = lap();
  session.reset();

  // Inner layers of the spans above, timed on their own.
  lap();
  std::uint64_t forward = 0;
  {
    const auto hn = OrDie(pv::wavelet::HnTransform::Create(schema), "hn");
    lap();
    const auto coeffs = OrDie(hn.Forward(m, &pool, options), "forward");
    forward = lap();
  }
  lap();
  std::uint64_t laplace = 0;
  {
    std::vector<double> values(m.size(), 0.0);
    lap();
    pv::mechanism::AddLaplaceNoise(values, 1.0, noise_seed, &pool);
    laplace = lap();
  }
  std::uint64_t crc = 0;
  std::size_t file_bytes = 0;
  {
    const auto file =
        OrDie(pv::common::MappedFile::Open(scratch_snapshot), "map file");
    file_bytes = file.size();
    // Fault the pages in first: the span times the checksum alone.
    volatile std::uint32_t sink = pv::storage::Crc32(file.bytes().data(),
                                                      file.size());
    lap();
    sink = pv::storage::Crc32(file.bytes().data(), file.size());
    crc = lap();
    (void)sink;
  }
  lap();
  std::uint64_t map_open = 0;
  {
    const auto mapped =
        OrDie(pv::storage::MapSession(scratch_snapshot), "map session");
    map_open = lap();  // before the session is torn down
  }
  std::remove(scratch_snapshot.c_str());

  out->push_back({"data.read_csv_ms", Ms(read_csv), "ms"});
  out->push_back({"matrix.from_table_ms", Ms(from_table), "ms"});
  out->push_back({"wavelet.forward_ms", Ms(forward), "ms"});
  out->push_back({"mechanism.publish_ms", Ms(publish), "ms"});
  out->push_back({"rng.laplace_ns_per_draw",
                  static_cast<double>(laplace) /
                      static_cast<double>(m.size()),
                  "ns"});
  out->push_back({"matrix.prefix_build_ms", Ms(prefix), "ms"});
  out->push_back({"storage.save_ms", Ms(save), "ms"});
  out->push_back({"storage.crc_mb_per_s",
                  static_cast<double>(file_bytes) /
                      (static_cast<double>(crc) * 1e-9) / 1e6,
                  "MB/s"});
  out->push_back({"storage.map_open_ms", Ms(map_open), "ms"});
  return Ms(read_csv + from_table + publish + prefix + save);
}

void TraceServeLayers(const std::string& snapshot, const std::string& id,
                      const RequestTable& table, std::size_t max_requests,
                      std::vector<Metric>* out, std::uint64_t* attempted,
                      std::uint64_t* failed) {
  const std::size_t count = std::min(max_requests, table.entries.size());
  const std::vector<ServeRequest> requests = SplitRequests(table, count);
  pv::query::ReleaseStore store;
  OrDie(store.Register(id, snapshot), "register");
  OrDie(store.Acquire(id).status(), "first acquire");

  // A warm pass, then untraced and traced passes alternating over the
  // same requests, each with a fresh answer cache. The spans sum over
  // the traced passes; the overhead compares the passes' medians.
  constexpr int kPasses = 3;
  ServeSpans ignored, spans;
  std::vector<double> answers;
  ServePass<false>(store, id, table.binary, requests, &ignored, &answers);
  std::vector<double> untraced_ns, traced_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    untraced_ns.push_back(static_cast<double>(ServePass<false>(
        store, id, table.binary, requests, &ignored, &answers)));
    traced_ns.push_back(static_cast<double>(
        ServePass<true>(store, id, table.binary, requests, &spans, &answers)));
  }

  // Every in-process answer must be the one the daemon is held to.
  std::size_t next = 0;
  std::uint64_t queries = 0;
  for (std::size_t r = 0; r < count; ++r) {
    const RequestTable::Entry& e = table.entries[r];
    ++*attempted;
    std::vector<double> want(e.queries);
    if (table.binary) {
      const auto frame = pv::serving::DecodeResponse(
          std::string_view(table.expected_frames)
              .substr(e.frame_offset + 4, e.frame_length - 4));
      if (frame.ok()) want = frame->answers;
    } else {
      for (std::uint32_t i = 0; i < e.queries; ++i) {
        want[i] = table.expected_answers[e.expected + i];
      }
    }
    if (want.size() != e.queries ||
        std::memcmp(want.data(), answers.data() + next,
                    e.queries * sizeof(double)) != 0) {
      ++*failed;
    }
    next += e.queries;
    queries += e.queries;
  }

  // Corners per query: the compiled form of every traced query, untimed.
  const auto session = OrDie(store.Acquire(id), "acquire");
  std::uint64_t corners = 0;
  for (const ServeRequest& request : requests) {
    std::vector<pv::query::RangeQuery> batch;
    if (table.binary) {
      const auto decoded =
          OrDie(pv::serving::DecodeRequest(request.payload), "decode");
      for (const auto& spec : decoded.queries) {
        batch.push_back(
            OrDie(pv::serving::BuildQuery(session->schema(), spec), "build"));
      }
    } else {
      for (const std::string& line : request.lines) {
        batch.push_back(OrDie(
            pv::serving::ParseQueryLine(session->schema(), line), "parse"));
      }
    }
    corners += session->Compile(batch).num_corners();
  }

  const double q = static_cast<double>(queries) * kPasses;
  const auto per_query = [q](std::uint64_t ns) {
    return static_cast<double>(ns) / q;
  };
  out->push_back({"serving.decode_ns", per_query(spans.decode), "ns"});
  out->push_back({"serving.build_ns", per_query(spans.build), "ns"});
  out->push_back({"query.acquire_ns", per_query(spans.acquire), "ns"});
  out->push_back({"serving.cache_lookup_ns", per_query(spans.lookup), "ns"});
  out->push_back({"serving.cache_insert_ns", per_query(spans.insert), "ns"});
  out->push_back({"query.compile_ns", per_query(spans.compile), "ns"});
  out->push_back({"query.evaluate_ns", per_query(spans.evaluate), "ns"});
  out->push_back({"serving.encode_ns", per_query(spans.encode), "ns"});
  out->push_back({"query.corners_per_query",
                  static_cast<double>(corners) / static_cast<double>(queries),
                  "count"});
  const double untraced = Median(untraced_ns);
  out->push_back({"trace.overhead_pct",
                  (Median(traced_ns) - untraced) / untraced * 100.0, "%"});
}

}  // namespace perfbench
