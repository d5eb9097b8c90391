// Release snapshots (storage/snapshot.h): the PVLS round trip must be
// lossless — a session restored from a snapshot answers a 1k-query
// workload bit-identically to the session that produced it, with or
// without the stored prefix table — and corrupt, truncated, or absurd
// files must come back as Status errors, never crashes or pathological
// allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/release_store.h"
#include "privelet/query/workload.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/storage/crc32.h"
#include "privelet/storage/session_io.h"
#include "privelet/storage/snapshot.h"

// Allocation probe for the CRC-valid mutation sweep below: while armed,
// records the largest single operator-new request. Not compiled under
// AddressSanitizer, whose own operator new must pair with its delete; the
// sweep still runs there, checking for crashes and undefined behavior.
#if defined(__SANITIZE_ADDRESS__)
#define PRIVELET_ALLOCATION_PROBE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PRIVELET_ALLOCATION_PROBE 0
#endif
#endif
#ifndef PRIVELET_ALLOCATION_PROBE
#define PRIVELET_ALLOCATION_PROBE 1
#endif

namespace {
std::atomic<bool> g_probe_armed{false};
std::atomic<std::size_t> g_probe_largest{0};
}  // namespace

#if PRIVELET_ALLOCATION_PROBE
void* operator new(std::size_t n) {
  if (g_probe_armed.load(std::memory_order_relaxed)) {
    std::size_t seen = g_probe_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_probe_largest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees free() paired with an inlined
// operator new at a call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace privelet {
namespace {

data::Schema TestSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Age", 64));
  attrs.push_back(data::Attribute::Nominal(
      "Occ", data::Hierarchy::FromGroupSizes({2, 3, 4}).value()));
  attrs.push_back(data::Attribute::Ordinal("Income", 32));
  return data::Schema(std::move(attrs));
}

matrix::FrequencyMatrix RandomMatrix(const data::Schema& schema,
                                     std::uint64_t seed) {
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 25));
  }
  return m;
}

query::PublishingSession PublishTestSession(const data::Schema& schema,
                                            common::ThreadPool* pool) {
  mechanism::PriveletPlusMechanism mech({"Occ"});
  auto session = query::PublishingSession::Publish(
      schema, mech, RandomMatrix(schema, 3), /*epsilon=*/0.9, /*seed=*/41,
      pool);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return *std::move(session);
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

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

// ---------------------------------------------------------------------------
// Round trips.

TEST(SnapshotTest, InMemoryRoundTripAnswers1kWorkloadBitIdentically) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 1000);
  const std::vector<double> expected = original.AnswerAll(workload);

  auto restored =
      query::PublishingSession::FromSnapshot(original.ToSnapshot());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(expected, restored->AnswerAll(workload));
  EXPECT_EQ(original.metadata().mechanism, restored->metadata().mechanism);
  EXPECT_EQ(original.metadata().epsilon, restored->metadata().epsilon);
  EXPECT_EQ(original.metadata().seed, restored->metadata().seed);
}

TEST(SnapshotTest, FileRoundTripAnswers1kWorkloadBitIdentically) {
  const data::Schema schema = TestSchema();
  common::ThreadPool pool(4);
  const query::PublishingSession original = PublishTestSession(schema, &pool);
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 1000);
  const std::vector<double> expected = original.AnswerAll(workload);

  const std::string path = TempPath("roundtrip.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());
  auto loaded = storage::LoadSession(path, &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(expected, loaded->AnswerAll(workload));
  EXPECT_TRUE(matrix::ValuesEqual(original.published().values(),
                                  loaded->published().values()));
  EXPECT_EQ("Privelet+{Occ}", loaded->metadata().mechanism);
  EXPECT_EQ(0.9, loaded->metadata().epsilon);
  EXPECT_EQ(std::uint64_t{41}, loaded->metadata().seed);
}

TEST(SnapshotTest, StoredPrefixTableIsAdoptedVerbatim) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::string path = TempPath("table.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());

  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(snapshot->prefix.has_value());
  const auto original_sums = original.prefix_table().raw_sums();
  const auto loaded_sums = snapshot->prefix->raw_sums();
  ASSERT_EQ(original_sums.size(), loaded_sums.size());
  for (std::size_t i = 0; i < original_sums.size(); ++i) {
    ASSERT_EQ(original_sums[i], loaded_sums[i]) << "entry " << i;
  }
}

TEST(SnapshotTest, SnapshotWithoutTableRebuildsBitIdentically) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 1000);
  const std::vector<double> expected = original.AnswerAll(workload);

  storage::ReleaseSnapshot snapshot = original.ToSnapshot();
  snapshot.prefix.reset();
  const std::string path = TempPath("notable.pvls");
  ASSERT_TRUE(storage::WriteSnapshot(path, snapshot).ok());

  auto info = storage::InspectSnapshot(path);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->has_prefix_table);

  common::ThreadPool pool(2);
  auto loaded = storage::LoadSession(path, &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(expected, loaded->AnswerAll(workload));
}

TEST(SnapshotTest, ReadSnapshotPreservesSchemaAndEngineOptions) {
  const data::Schema schema = TestSchema();
  mechanism::PriveletPlusMechanism mech({"Occ"});
  const matrix::EngineOptions options =
      matrix::MakeEngineOptions(matrix::LineEngine::kNaive, 17);
  auto session = query::PublishingSession::Publish(
      schema, mech, RandomMatrix(schema, 3), 0.9, 41, nullptr, options);
  ASSERT_TRUE(session.ok());
  const std::string path = TempPath("schema.pvls");
  ASSERT_TRUE(storage::SaveSession(path, *session).ok());

  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(matrix::LineEngine::kNaive, snapshot->engine_options.engine);
  EXPECT_EQ(std::size_t{17}, snapshot->engine_options.tile_lines);
  ASSERT_EQ(schema.num_attributes(), snapshot->schema.num_attributes());
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const data::Attribute& want = schema.attribute(a);
    const data::Attribute& got = snapshot->schema.attribute(a);
    EXPECT_EQ(want.name(), got.name());
    EXPECT_EQ(want.kind(), got.kind());
    EXPECT_EQ(want.domain_size(), got.domain_size());
  }
  // The grouped hierarchy must survive structurally: same node count,
  // same per-node fanout and leaf ranges, and it must re-validate.
  const data::Hierarchy& want = schema.attribute(1).hierarchy();
  const data::Hierarchy& got = snapshot->schema.attribute(1).hierarchy();
  ASSERT_EQ(want.num_nodes(), got.num_nodes());
  EXPECT_EQ(want.height(), got.height());
  for (std::size_t id = 0; id < want.num_nodes(); ++id) {
    EXPECT_EQ(want.fanout(id), got.fanout(id)) << "node " << id;
    EXPECT_EQ(want.node(id).leaf_begin, got.node(id).leaf_begin);
    EXPECT_EQ(want.node(id).leaf_end, got.node(id).leaf_end);
  }
  EXPECT_TRUE(got.Validate().ok());
}

// ---------------------------------------------------------------------------
// Corruption and truncation.

TEST(SnapshotTest, EveryTruncationPrefixIsRejectedWithoutCrashing) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("full.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 100u);

  const std::string cut = TempPath("cut.pvls");
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{40},
        bytes.size() / 2, bytes.size() - 5, bytes.size() - 1}) {
    WriteFileBytes(cut, bytes.substr(0, keep));
    auto snapshot = storage::ReadSnapshot(cut);
    EXPECT_FALSE(snapshot.ok()) << "prefix of " << keep << " bytes parsed";
    auto info = storage::InspectSnapshot(cut);
    EXPECT_FALSE(info.ok()) << "prefix of " << keep << " bytes inspected";
  }
}

TEST(SnapshotTest, FlippedBytesAreRejected) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("flip_src.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());
  const std::string bytes = ReadFileBytes(path);

  const std::string flip = TempPath("flip.pvls");
  // Offsets spread over magic, header, matrix payload, table payload, and
  // the trailing CRC itself.
  for (const std::size_t offset :
       {std::size_t{0}, std::size_t{9}, std::size_t{60}, bytes.size() / 3,
        2 * bytes.size() / 3, bytes.size() - 2}) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    WriteFileBytes(flip, corrupted);
    auto snapshot = storage::ReadSnapshot(flip);
    EXPECT_FALSE(snapshot.ok()) << "flip at " << offset << " parsed";
  }
}

TEST(SnapshotTest, TrailingBytesAreRejected) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("trail_src.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());
  const std::string padded = TempPath("trail.pvls");
  WriteFileBytes(padded, ReadFileBytes(path) + std::string(6, '\0'));
  EXPECT_FALSE(storage::ReadSnapshot(padded).ok());
}

TEST(SnapshotTest, MissingFileIsAnIOError) {
  auto snapshot = storage::ReadSnapshot(TempPath("does_not_exist.pvls"));
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(StatusCode::kIOError, snapshot.status().code());
}

// ---------------------------------------------------------------------------
// One parser: every read entry point goes through MappedSnapshot::Open.

// A small release made by the writer (160 cells, about 4 KiB with its
// table), for the sweeps that write and parse one file per case.
std::string SmallSnapshotBytes() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Age", 8));
  attrs.push_back(data::Attribute::Nominal(
      "Occ", data::Hierarchy::FromGroupSizes({2, 3}).value()));
  attrs.push_back(data::Attribute::Ordinal("Income", 4));
  const data::Schema schema(std::move(attrs));
  const std::string path = TempPath("small_src.pvls");
  EXPECT_TRUE(
      storage::SaveSession(path, PublishTestSession(schema, nullptr)).ok());
  return ReadFileBytes(path);
}

TEST(SnapshotTest, EveryReaderRejectsADamagedFileWithTheSameStatus) {
  const std::string bytes = SmallSnapshotBytes();
  std::vector<std::pair<std::string, std::string>> damaged;
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{40},
        bytes.size() / 2, bytes.size() - 5, bytes.size() - 1}) {
    damaged.emplace_back("prefix of " + std::to_string(keep) + " bytes",
                         bytes.substr(0, keep));
  }
  for (const std::size_t offset :
       {std::size_t{0}, std::size_t{9}, std::size_t{60}, bytes.size() / 3,
        2 * bytes.size() / 3, bytes.size() - 2}) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    damaged.emplace_back("flip at " + std::to_string(offset),
                         std::move(corrupted));
  }
  damaged.emplace_back("6 trailing bytes", bytes + std::string(6, '\0'));

  const std::string path = TempPath("damaged.pvls");
  for (const auto& [label, contents] : damaged) {
    WriteFileBytes(path, contents);
    const Status read = storage::ReadSnapshot(path).status();
    const Status inspect = storage::InspectSnapshot(path).status();
    const Status mapped = storage::MapSession(path).status();
    EXPECT_FALSE(read.ok()) << label;
    // ToString() carries both the StatusCode and the message.
    EXPECT_EQ(read.ToString(), inspect.ToString()) << label;
    EXPECT_EQ(read.ToString(), mapped.ToString()) << label;
  }
}

struct FieldSpan {
  std::size_t offset = 0;
  std::size_t size = 0;
};

// The fields of a plan-less (v2) snapshot that the parser validates:
// version, the length and count fields, the schema (attribute kinds,
// ordinal domains, hierarchy node counts and fanouts), the dims, and the
// table-section header. Walks the layout documented in snapshot.h.
std::vector<FieldSpan> ValidatedFields(const std::string& bytes) {
  std::vector<FieldSpan> fields;
  std::size_t at = 0;
  const auto value_at = [&bytes, &at](std::size_t size) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, size);
    return v;
  };
  const auto skip = [&at](std::size_t size) { at += size; };
  const auto field = [&](std::size_t size) {
    fields.push_back({at, size});
    const std::uint64_t v = value_at(size);
    at += size;
    return v;
  };
  skip(4);                                 // magic
  field(4);                                // version
  skip(field(2));                          // mechanism id
  skip(8 + 8 + 1 + 8);                     // epsilon, seed, engine options
  const std::uint64_t num_attributes = field(4);
  for (std::uint64_t a = 0; a < num_attributes; ++a) {
    skip(field(2));                        // attribute name
    if (field(1) == 1) {                   // kind: nominal
      const std::uint64_t num_nodes = field(8);
      for (std::uint64_t n = 0; n < num_nodes; ++n) field(4);  // fanouts
    } else {
      field(8);                            // ordinal domain
    }
  }
  const std::uint64_t num_dims = field(4);
  std::uint64_t cells = 1;
  for (std::uint64_t d = 0; d < num_dims; ++d) cells *= field(8);
  skip((64 - at % 64) % 64 + cells * sizeof(double));  // padding, values
  field(1);                                // table flag
  field(2);                                // accumulator mant_dig
  field(2);                                // accumulator width
  return fields;
}

// A seeded sweep of CRC-valid mutations: each case rewrites one or two
// validated fields, then recomputes the trailing CRC, so the parser's
// field checks — not the checksum — decide. Every case must come back as
// a Status or as a snapshot whose dims match its schema, the entry points
// must agree, and no single allocation may exceed the file size.
TEST(SnapshotTest, CrcValidFieldMutationsAreRejectedOrConsistent) {
  const std::string bytes = SmallSnapshotBytes();
  const std::vector<FieldSpan> fields = ValidatedFields(bytes);
  ASSERT_GT(fields.size(), 20u);
  rng::Xoshiro256pp gen(2026);
  const std::string path = TempPath("mutated.pvls");
  std::size_t accepted = 0;
  for (int c = 0; c < 2000; ++c) {
    std::string mutated = bytes;
    const std::uint64_t num_edits = gen.NextUint64InRange(1, 2);
    for (std::uint64_t e = 0; e < num_edits; ++e) {
      const FieldSpan f = fields[gen.NextUint64InRange(0, fields.size() - 1)];
      std::uint64_t value = gen.Next();
      switch (gen.NextUint64InRange(0, 2)) {
        case 0:  // small: the values most likely to pass a bounds check
          value %= 16;
          break;
        case 1: {  // near the original
          std::uint64_t old = 0;
          std::memcpy(&old, mutated.data() + f.offset, f.size);
          value = old + value % 5 - 2;
          break;
        }
        default:  // uniformly random bytes
          break;
      }
      std::memcpy(mutated.data() + f.offset, &value, f.size);
    }
    const std::uint32_t crc =
        storage::Crc32(mutated.data(), mutated.size() - sizeof(crc));
    std::memcpy(mutated.data() + mutated.size() - sizeof(crc), &crc,
                sizeof(crc));
    WriteFileBytes(path, mutated);

    g_probe_largest.store(0);
    g_probe_armed.store(true);
    auto read = storage::ReadSnapshot(path);
    const bool inspected = storage::InspectSnapshot(path).ok();
    const bool mapped = storage::MapSession(path).ok();
    g_probe_armed.store(false);
    EXPECT_EQ(read.ok(), inspected) << "case " << c;
    EXPECT_EQ(read.ok(), mapped) << "case " << c;
    if (read.ok()) {
      ++accepted;
      EXPECT_EQ(read->schema.DomainSizes(), read->published.dims())
          << "case " << c;
      if (read->prefix.has_value()) {
        EXPECT_EQ(read->published.dims(), read->prefix->dims())
            << "case " << c;
      }
    }
#if PRIVELET_ALLOCATION_PROBE
    EXPECT_LE(g_probe_largest.load(), mutated.size()) << "case " << c;
#endif
  }
  // Some edits leave a field as it was (or only make the table section
  // unadoptable), so both outcomes are exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 2000u);
}

// Regression: a CRC-valid snapshot with no table and a tile_lines field of
// 2^64 - 1 wrapped the tiled rebuild's panel count to zero, so the served
// table skipped its prefix passes and every answer was wrong.
TEST(SnapshotTest, HugeTileLinesFieldStillRebuildsTheTable) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 200);
  storage::ReleaseSnapshot snapshot = original.ToSnapshot();
  snapshot.prefix.reset();
  snapshot.engine_options = matrix::MakeEngineOptions(
      matrix::LineEngine::kTiled, std::numeric_limits<std::size_t>::max());
  const std::string path = TempPath("huge_tile.pvls");
  ASSERT_TRUE(storage::WriteSnapshot(path, snapshot).ok());

  auto mapped = storage::MapSession(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(original.AnswerAll(workload), mapped->AnswerAll(workload));
}

// ---------------------------------------------------------------------------
// Handcrafted files: lock the byte format and exercise the defensive
// checks that a writer can never produce (overflowing dims, payloads
// larger than the file).

class ByteBuilder {
 public:
  template <typename T>
  ByteBuilder& Pod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* p = reinterpret_cast<const char*>(&value);
    bytes_.append(p, sizeof(value));
    return *this;
  }
  ByteBuilder& Str(const std::string& s) {
    Pod(static_cast<std::uint16_t>(s.size()));
    bytes_ += s;
    return *this;
  }
  ByteBuilder& Raw(const void* p, std::size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
    return *this;
  }
  /// Zero-fills to the next 64-byte offset (a v2 section boundary).
  ByteBuilder& PadTo64() {
    bytes_.append((64 - bytes_.size() % 64) % 64, '\0');
    return *this;
  }
  /// Appends the CRC-32 of everything so far (a well-formed footer).
  ByteBuilder& Crc() {
    return Pod(storage::Crc32(bytes_.data(), bytes_.size()));
  }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

// Common prefix: header + a 1-attribute ordinal schema with the given
// domain, up to (excluding) the dims section. `version` is the current
// v2 by default; the v1 rejection test below stamps 1 (v1 shared this
// prefix and differed only in the payload alignment and table encoding).
ByteBuilder MinimalPrefix(std::uint64_t domain, std::uint32_t version = 2) {
  ByteBuilder b;
  b.Pod('P').Pod('V').Pod('L').Pod('S');
  b.Pod(version);
  b.Str("Test");                               // mechanism
  b.Pod(double{0.5});                          // epsilon
  b.Pod(std::uint64_t{7});                     // seed
  b.Pod(std::uint8_t{0}).Pod(std::uint64_t{64});  // engine options
  b.Pod(std::uint32_t{1});                     // num_attributes
  b.Str("A").Pod(std::uint8_t{0}).Pod(domain);  // ordinal attribute
  return b;
}

TEST(SnapshotTest, HandcraftedMinimalSnapshotParses) {
  ByteBuilder b = MinimalPrefix(4);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{4});  // dims
  b.PadTo64();
  for (const double v : {1.0, 2.0, 3.0, 4.0}) b.Pod(v);
  b.Pod(std::uint8_t{0});  // no table
  b.Crc();
  const std::string path = TempPath("minimal.pvls");
  WriteFileBytes(path, b.bytes());

  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ("Test", snapshot->mechanism);
  EXPECT_EQ(0.5, snapshot->epsilon);
  EXPECT_EQ(std::uint64_t{7}, snapshot->seed);
  EXPECT_EQ(std::vector<std::size_t>{4}, snapshot->published.dims());
  EXPECT_TRUE(matrix::ValuesEqual(std::vector<double>{1.0, 2.0, 3.0, 4.0},
                                  snapshot->published.values()));
  EXPECT_FALSE(snapshot->prefix.has_value());
}

TEST(SnapshotTest, DimensionProductOverflowIsRejected) {
  // 2^32 * 2^32 wraps a 64-bit product; must fail overflow-checked, not
  // allocate a wrapped-to-tiny matrix.
  ByteBuilder b = MinimalPrefix(4);
  b.Pod(std::uint32_t{2})
      .Pod(std::uint64_t{1} << 32)
      .Pod(std::uint64_t{1} << 32);
  b.Crc();
  const std::string path = TempPath("overflow.pvls");
  WriteFileBytes(path, b.bytes());
  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_NE(std::string::npos,
            snapshot.status().message().find("overflow"))
      << snapshot.status().ToString();
}

TEST(SnapshotTest, MatrixPayloadBeyondFileSizeIsRejected) {
  // A 2^40-cell claim in a few-hundred-byte file must be rejected before
  // any allocation happens.
  ByteBuilder b = MinimalPrefix(std::uint64_t{1} << 40);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{1} << 40);
  b.Crc();
  const std::string path = TempPath("huge.pvls");
  WriteFileBytes(path, b.bytes());
  EXPECT_FALSE(storage::ReadSnapshot(path).ok());
}

// The current write format: the same minimal release, version 2 —
// payload sections aligned to 64-byte offsets, raw-accumulator table
// encoding. Locks the v2 byte layout independently of the writer.
TEST(SnapshotTest, HandcraftedV2SnapshotParsesAndMaps) {
  ByteBuilder b = MinimalPrefix(4, /*version=*/2);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{4});  // dims
  b.PadTo64();
  for (const double v : {1.0, 2.0, 3.0, 4.0}) b.Pod(v);
  b.Pod(std::uint8_t{1});  // table follows
  b.Pod(static_cast<std::uint16_t>(LDBL_MANT_DIG));
  b.Pod(static_cast<std::uint16_t>(sizeof(long double)));
  b.PadTo64();
  for (const long double v : {1.0L, 3.0L, 6.0L, 10.0L}) {
    char slot[sizeof(long double)] = {};
    // Value bytes first, trailing slot bytes zero — what the writer
    // produces for x87's padded 80-bit extended type (IEEE-quad and
    // double-sized long doubles have no padding to zero).
    std::memcpy(slot, &v, LDBL_MANT_DIG == 64 ? 10 : sizeof(v));
    b.Raw(slot, sizeof(slot));
  }
  b.Crc();
  const std::string path = TempPath("minimal_v2.pvls");
  WriteFileBytes(path, b.bytes());

  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ("Test", snapshot->mechanism);
  EXPECT_TRUE(matrix::ValuesEqual(std::vector<double>{1.0, 2.0, 3.0, 4.0},
                                  snapshot->published.values()));
  ASSERT_TRUE(snapshot->prefix.has_value());
  EXPECT_EQ((std::vector<long double>{1.0L, 3.0L, 6.0L, 10.0L}),
            std::vector<long double>(snapshot->prefix->raw_sums().begin(),
                                     snapshot->prefix->raw_sums().end()));

  auto mapped = storage::MappedSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((std::vector<std::size_t>{4}), mapped->dims());
  ASSERT_TRUE(mapped->has_prefix_table());
  EXPECT_EQ(10.0L, mapped->prefix_table()[3]);
  EXPECT_EQ(3.0, mapped->matrix_values()[2]);
}

TEST(SnapshotTest, V2NonzeroSectionPaddingIsRejected) {
  ByteBuilder b = MinimalPrefix(4, /*version=*/2);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{4});
  std::string bytes = b.bytes();
  bytes.append((64 - bytes.size() % 64) % 64, '\0');
  bytes[bytes.size() - 1] = '\x01';  // corrupt the padding, then re-CRC
  ByteBuilder rest;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) rest.Pod(v);
  rest.Pod(std::uint8_t{0});
  bytes += rest.bytes();
  ByteBuilder footer;
  footer.Pod(storage::Crc32(bytes.data(), bytes.size()));
  bytes += footer.bytes();
  const std::string path = TempPath("bad_padding.pvls");
  WriteFileBytes(path, bytes);

  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_NE(std::string::npos, snapshot.status().message().find("padding"))
      << snapshot.status().ToString();
  EXPECT_FALSE(storage::MappedSnapshot::Open(path).ok());
}

TEST(SnapshotTest, HierarchyWithFanoutOneIsRejected) {
  ByteBuilder b;
  b.Pod('P').Pod('V').Pod('L').Pod('S');
  b.Pod(std::uint32_t{2});
  b.Str("");
  b.Pod(double{0.5}).Pod(std::uint64_t{7});
  b.Pod(std::uint8_t{0}).Pod(std::uint64_t{64});
  b.Pod(std::uint32_t{1});
  // Nominal attribute whose "hierarchy" is a unary chain — must be
  // rejected during parsing (it would otherwise recurse once per node).
  b.Str("N").Pod(std::uint8_t{1});
  b.Pod(std::uint64_t{3});
  b.Pod(std::uint32_t{1}).Pod(std::uint32_t{1}).Pod(std::uint32_t{0});
  b.Crc();
  const std::string path = TempPath("chain.pvls");
  WriteFileBytes(path, b.bytes());
  EXPECT_FALSE(storage::ReadSnapshot(path).ok());
}

// A complete v1 file (dims + matrix + double-double table, no alignment
// padding), byte for byte what a v1 writer produced. v1 is no longer
// read: every entry point must reject it as an unsupported version, by
// number, rather than misparse its unaligned sections or retry it
// through another loader.
TEST(SnapshotTest, LegacyV1SnapshotIsRejectedByVersion) {
  ByteBuilder b = MinimalPrefix(4, /*version=*/1);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{4});  // dims, no padding in v1
  for (const double v : {1.0, 2.0, 3.0, 4.0}) b.Pod(v);
  b.Pod(std::uint8_t{1});  // table follows
  b.Pod(static_cast<std::uint16_t>(LDBL_MANT_DIG));
  b.Pod(std::uint8_t{1});  // exact
  for (const double hi : {1.0, 3.0, 6.0, 10.0}) {
    b.Pod(hi).Pod(0.0);  // (hi, lo) double-double pairs
  }
  b.Crc();
  const std::string path = TempPath("legacy_v1.pvls");
  WriteFileBytes(path, b.bytes());

  const auto expect_version_error = [](const Status& status,
                                       const char* entry) {
    EXPECT_EQ(StatusCode::kInvalidArgument, status.code())
        << entry << ": " << status.ToString();
    EXPECT_NE(std::string::npos,
              status.message().find("unsupported snapshot version 1"))
        << entry << ": " << status.ToString();
  };
  expect_version_error(storage::InspectSnapshot(path).status(),
                       "InspectSnapshot");
  expect_version_error(storage::ReadSnapshot(path).status(), "ReadSnapshot");
  expect_version_error(storage::MapSession(path).status(), "MapSession");
  query::ReleaseStore store;
  ASSERT_TRUE(store.Register("v1", path).ok());
  expect_version_error(store.Acquire("v1").status(), "ReleaseStore::Acquire");
}

// ---------------------------------------------------------------------------
// The zero-copy serving chain: MappedSnapshot -> view table -> session.

TEST(SnapshotTest, MappedSessionAnswers1kWorkloadIdenticallyToCopyLoad) {
  const data::Schema schema = TestSchema();
  common::ThreadPool pool(4);
  const query::PublishingSession original = PublishTestSession(schema, &pool);
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 1000);
  const std::vector<double> expected = original.AnswerAll(workload);

  const std::string path = TempPath("mapped.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());

  auto copied = storage::LoadSession(path, &pool);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  auto mapped = storage::MapSession(path, &pool);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  EXPECT_EQ(expected, copied->AnswerAll(workload));
  EXPECT_EQ(expected, mapped->AnswerAll(workload));
  EXPECT_EQ(original.metadata().mechanism, mapped->metadata().mechanism);
  EXPECT_EQ(original.metadata().epsilon, mapped->metadata().epsilon);
  EXPECT_EQ(original.metadata().seed, mapped->metadata().seed);
}

TEST(SnapshotTest, MappedSessionServesFromAViewWithoutMaterializing) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::string path = TempPath("view.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());

  auto mapped = storage::MapSession(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // Zero-copy contract: the table is a span view into the mapping, no
  // matrix object exists, and re-saving (which would need one) is
  // rejected rather than crashing.
  EXPECT_TRUE(mapped->prefix_table().is_view());
  EXPECT_FALSE(mapped->has_published());
  EXPECT_FALSE(storage::SaveSession(TempPath("resave.pvls"), *mapped).ok());

  // The view must equal the original entries bit-for-bit.
  const auto want = original.prefix_table().raw_sums();
  const auto got = mapped->prefix_table().raw_sums();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "entry " << i;
  }
}

TEST(SnapshotTest, MappedSnapshotSectionsAreAligned) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::string path = TempPath("aligned.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());

  auto mapped = storage::MappedSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->has_prefix_table());
  // Sections sit on 64-byte file offsets and the mapping is page-aligned,
  // so the in-memory spans are 64-byte aligned — the precondition for
  // reading `long double` (16-byte alignment) in place.
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(
                    mapped->matrix_values().data()) % 64);
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(
                    mapped->prefix_table().data()) % 64);
  EXPECT_EQ(mapped->num_cells(), mapped->prefix_table().size());
}

TEST(SnapshotTest, RewritingASnapshotDoesNotDisturbLiveMappings) {
  const data::Schema schema = TestSchema();
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 200);
  mechanism::PriveletPlusMechanism mech({"Occ"});
  const std::string path = TempPath("republish.pvls");

  auto first = query::PublishingSession::Publish(
      schema, mech, RandomMatrix(schema, 3), /*epsilon=*/0.9, /*seed=*/41);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(storage::SaveSession(path, *first).ok());
  auto mapped = storage::MapSession(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const std::vector<double> old_answers = mapped->AnswerAll(workload);

  // Republish to the same path while the mapping is live. The writer
  // renames a temp file into place, so the mapped session keeps serving
  // the old inode's pages (no SIGBUS, no torn reads) while new opens see
  // the new release.
  auto second = query::PublishingSession::Publish(
      schema, mech, RandomMatrix(schema, 3), /*epsilon=*/0.9, /*seed=*/42);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(storage::SaveSession(path, *second).ok());

  EXPECT_EQ(old_answers, mapped->AnswerAll(workload));
  auto remapped = storage::MapSession(path);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  EXPECT_EQ(second->AnswerAll(workload), remapped->AnswerAll(workload));
  EXPECT_NE(old_answers, remapped->AnswerAll(workload));
}

TEST(SnapshotTest, MappedOpenRejectsFlippedBytesViaTheSingleCrcCheck) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("mflip_src.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());
  const std::string bytes = ReadFileBytes(path);

  const std::string flip = TempPath("mflip.pvls");
  for (const std::size_t offset :
       {std::size_t{9}, std::size_t{60}, bytes.size() / 3,
        2 * bytes.size() / 3, bytes.size() - 2}) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    WriteFileBytes(flip, corrupted);
    EXPECT_FALSE(storage::MappedSnapshot::Open(flip).ok())
        << "flip at " << offset << " mapped";
  }
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, std::size_t{40}, bytes.size() / 2,
        bytes.size() - 1}) {
    WriteFileBytes(flip, bytes.substr(0, keep));
    EXPECT_FALSE(storage::MappedSnapshot::Open(flip).ok())
        << "prefix of " << keep << " bytes mapped";
  }
}

// ---------------------------------------------------------------------------
// API-level validation.

TEST(SnapshotTest, FromSnapshotRejectsMismatchedDims) {
  storage::ReleaseSnapshot snapshot;
  snapshot.schema = TestSchema();
  snapshot.published =
      matrix::FrequencyMatrix(std::vector<std::size_t>{2, 2});
  auto session = query::PublishingSession::FromSnapshot(std::move(snapshot));
  EXPECT_FALSE(session.ok());
}

TEST(SnapshotTest, WriteSnapshotRejectsMismatchedDims) {
  storage::ReleaseSnapshot snapshot;
  snapshot.schema = TestSchema();
  snapshot.published =
      matrix::FrequencyMatrix(std::vector<std::size_t>{2, 2});
  EXPECT_FALSE(
      storage::WriteSnapshot(TempPath("bad_dims.pvls"), snapshot).ok());
}

}  // namespace
}  // namespace privelet
