// The load generator: one busy-polling thread driving at most two
// connections to a `privelet_cli daemon`. Requests and their expected
// responses are encoded during set-up (RequestTable), so the timed loops
// only copy bytes, poll sockets, find response boundaries and take
// timestamps; every response is checked after its segment ends.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_helpers.h"

namespace perfbench {

/// A cyclic stream of pre-encoded requests with their expected answers.
struct RequestTable {
  struct Entry {
    std::uint64_t offset = 0;     ///< into `bytes`
    std::uint32_t length = 0;
    std::uint32_t queries = 0;    ///< range queries the request carries
    std::uint64_t expected = 0;   ///< into `expected_answers`
    /// Binary only: the expected response frame, in `expected_frames`.
    std::uint64_t frame_offset = 0;
    std::uint32_t frame_length = 0;
    bool text_batch = false;      ///< a text BATCH (two STATS requests)
  };
  bool binary = false;
  std::string bytes;
  std::vector<Entry> entries;
  std::vector<double> expected_answers;
  std::string expected_frames;
};

/// A non-blocking client connection (TCP_NODELAY) with an append-only
/// input buffer that is cleared only between segments.
class Connection {
 public:
  Connection(std::uint16_t port, bool binary);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool binary() const { return binary_; }
  void Queue(std::string_view bytes);
  bool HasPending() const { return out_head_ < out_.size(); }
  /// Sends what the socket takes now.
  void Flush();
  /// Bytes handed to the socket since the connection opened.
  std::uint64_t sent_total() const { return sent_total_; }
  /// Bytes ever queued.
  std::uint64_t queued_total() const { return queued_total_; }
  /// Reads what is available; true when bytes arrived.
  bool Receive();
  /// Length of the complete response at the parse cursor (0: incomplete).
  std::size_t PeekResponse() const;
  /// Consumes the response PeekResponse measured; returns its offset.
  std::size_t TakeResponse(std::size_t length);
  std::string_view Slice(std::size_t offset, std::size_t length) const {
    return std::string_view(in_.data() + offset, length);
  }
  /// Drops every consumed response (call after checking them).
  void ClearInput();

 private:
  int fd_ = -1;
  bool binary_ = false;
  std::string out_;
  std::size_t out_head_ = 0;
  std::uint64_t sent_total_ = 0;
  std::uint64_t queued_total_ = 0;
  std::vector<char> in_;
  std::size_t in_used_ = 0;
  std::size_t cursor_ = 0;
};

/// What one RELOAD cost, in ns.
struct ReloadSample {
  std::uint64_t round_trip_ns = 0;
  std::uint64_t stall_ns = 0;
};

class Generator {
 public:
  Generator(const RequestTable* table, std::size_t first_entry);

  /// Sends the next request and blocks (up to 30 s) for its response,
  /// which is checked like any other.
  void RoundTrip(Connection& conn);
  /// Open loop: request i is due at start + due_ns[i]. Appends one
  /// DueRecord per request.
  void OpenLoop(Connection& conn, std::span<const std::uint64_t> due_ns,
                std::vector<DueRecord>* records);
  /// Closed loop at a fixed pipeline depth for `duration_ns`; appends the
  /// per-window query rates.
  void ClosedLoop(Connection& conn, std::size_t depth,
                  std::uint64_t duration_ns, std::uint64_t window_ns,
                  std::vector<double>* rates);
  /// A closed-loop reader on `reader` while `reloader` sends one text
  /// RELOAD per gap, alternating over `paths`.
  std::vector<ReloadSample> ReloadPhase(
      Connection& reader, Connection& reloader, std::size_t depth,
      const std::string& release_id, const std::vector<std::string>& paths,
      std::span<const std::uint64_t> gaps_ns);
  /// The daemon's STATS text (one blocking round trip).
  std::string Stats(Connection& conn);

  // Operation counts against this generator's daemon.
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t queries_answered() const { return queries_; }
  /// What STATS `requests` should read: text BATCHes count twice there.
  std::uint64_t stats_requests() const { return stats_requests_; }
  std::uint64_t error_responses() const { return error_responses_; }

 private:
  struct Completion {
    std::size_t entry = 0;
    std::size_t offset = 0;
    std::size_t length = 0;
  };
  std::size_t QueueNext(Connection& conn);
  /// Pops every complete response on `conn`, pairing each with the
  /// oldest outstanding entry in `inflight` (from `*head`).
  std::size_t Drain(Connection& conn, const std::vector<std::size_t>& inflight,
                    std::size_t* head);
  /// Checks every response taken since the last call and clears the
  /// connection's input.
  void CheckCompletions(Connection& conn);
  bool CheckResponse(const RequestTable::Entry& entry,
                     std::string_view response);

  const RequestTable* table_;
  std::size_t next_;
  std::vector<Completion> completions_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t queries_ = 0;
  std::uint64_t stats_requests_ = 0;
  std::uint64_t error_responses_ = 0;
};

/// The value of `key` in STATS text (`key value` lines); dies when absent.
double StatsValue(const std::string& stats, const std::string& key);
/// The p50_us of the `latency _all` STATS line.
double StatsAllP50Us(const std::string& stats);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
