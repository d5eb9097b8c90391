// The traced run's layer breakdown: the benchmark's own spans around
// calls into each layer's public functions, in-process and without
// sockets. Nothing here runs in an end-to-end run.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Publish-side spans, replaying what `privelet_cli publish --threads
/// <threads>` does on the workload's CSV, in its order: ReadCsv,
/// FromTable, the mechanism publish, the prefix build and SaveSession
/// (with its fsync). Then, on their own: the forward transform, a Laplace
/// sweep of the release size, Crc32 over the saved file and MapSession on
/// it. `scratch_snapshot` is written and removed. Returns the sum of the
/// first five spans, which account for a publish child's work.
double TracePublishLayers(const std::string& csv_path,
                          const std::string& schema_path, double epsilon,
                          std::uint64_t noise_seed, std::size_t threads,
                          const std::string& scratch_snapshot,
                          std::vector<Metric>* out);

/// Serve-side spans: the first `max_requests` requests of `table` go
/// through the calls serving::Server makes, in its order (decode,
/// acquire, build, answer-cache lookup, compile, evaluate, cache insert,
/// encode), on a ReleaseStore over `snapshot`. Times are ns per query.
/// Answers are checked against the table; mismatches are added to
/// `*failed`. Also reports trace.overhead_pct: the median traced pass
/// over the median of identical untraced passes.
void TraceServeLayers(const std::string& snapshot, const std::string& id,
                      const RequestTable& table, std::size_t max_requests,
                      std::vector<Metric>* out, std::uint64_t* attempted,
                      std::uint64_t* failed);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
