#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "privelet/serving/protocol.h"
#include "proc.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kResponseTimeoutNs = 30'000'000'000ull;

std::uint32_t ReadLe32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

}  // namespace

Connection::Connection(std::uint16_t port, bool binary)
    : binary_(binary), in_(std::size_t{1} << 20) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) Die("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Die("cannot connect to the daemon on port " + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  if (binary_) {
    Queue(std::string_view(privelet::serving::kBinaryMagic,
                           sizeof(privelet::serving::kBinaryMagic)));
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::Queue(std::string_view bytes) {
  out_.append(bytes);
  queued_total_ += bytes.size();
}

void Connection::Flush() {
  while (out_head_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_head_,
                             out_.size() - out_head_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      Die(std::string("send failed: ") + std::strerror(errno));
    }
    out_head_ += static_cast<std::size_t>(n);
    sent_total_ += static_cast<std::uint64_t>(n);
  }
  if (out_head_ == out_.size()) {
    out_.clear();
    out_head_ = 0;
  }
}

bool Connection::Receive() {
  bool got = false;
  while (true) {
    if (in_.size() - in_used_ < (std::size_t{64} << 10)) {
      in_.resize(in_.size() * 2);
    }
    const std::size_t space = in_.size() - in_used_;
    const ssize_t n = ::recv(fd_, in_.data() + in_used_, space, 0);
    if (n > 0) {
      in_used_ += static_cast<std::size_t>(n);
      got = true;
      if (static_cast<std::size_t>(n) < space) return got;
      continue;
    }
    if (n == 0) Die("the daemon closed a connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return got;
    Die(std::string("recv failed: ") + std::strerror(errno));
  }
}

std::size_t Connection::PeekResponse() const {
  const char* p = in_.data() + cursor_;
  const std::size_t avail = in_used_ - cursor_;
  if (binary_) {
    if (avail < 4) return 0;
    const std::size_t total = 4 + std::size_t{ReadLe32(p)};
    return avail >= total ? total : 0;
  }
  // Text: `ok <n>` plus n payload lines, or one `error: ...` line.
  const char* nl = static_cast<const char*>(std::memchr(p, '\n', avail));
  if (nl == nullptr) return 0;
  std::size_t lines = 0;
  if (avail >= 3 && std::memcmp(p, "ok ", 3) == 0) {
    lines = std::strtoull(p + 3, nullptr, 10);
  }
  const char* end = nl + 1;
  for (std::size_t i = 0; i < lines; ++i) {
    const std::size_t left = static_cast<std::size_t>(p + avail - end);
    nl = static_cast<const char*>(std::memchr(end, '\n', left));
    if (nl == nullptr) return 0;
    end = nl + 1;
  }
  return static_cast<std::size_t>(end - p);
}

std::size_t Connection::TakeResponse(std::size_t length) {
  const std::size_t offset = cursor_;
  cursor_ += length;
  return offset;
}

void Connection::ClearInput() {
  const std::size_t tail = in_used_ - cursor_;
  std::memmove(in_.data(), in_.data() + cursor_, tail);
  in_used_ = tail;
  cursor_ = 0;
}

Generator::Generator(const RequestTable* table, std::size_t first_entry)
    : table_(table), next_(first_entry % table->entries.size()) {}

std::size_t Generator::QueueNext(Connection& conn) {
  const std::size_t index = next_;
  next_ = (next_ + 1) % table_->entries.size();
  const RequestTable::Entry& e = table_->entries[index];
  conn.Queue(std::string_view(table_->bytes).substr(e.offset, e.length));
  ++attempted_;
  stats_requests_ += e.text_batch ? 2 : 1;
  return index;
}

std::size_t Generator::Drain(Connection& conn,
                             const std::vector<std::size_t>& inflight,
                             std::size_t* head) {
  std::size_t count = 0;
  for (std::size_t len = conn.PeekResponse(); len > 0;
       len = conn.PeekResponse()) {
    if (*head >= inflight.size()) Die("a response arrived unrequested");
    completions_.push_back({inflight[*head], conn.TakeResponse(len), len});
    ++*head;
    ++count;
  }
  return count;
}

void Generator::CheckCompletions(Connection& conn) {
  for (const Completion& c : completions_) {
    const RequestTable::Entry& entry = table_->entries[c.entry];
    if (!CheckResponse(entry, conn.Slice(c.offset, c.length))) ++failed_;
  }
  completions_.clear();
  conn.ClearInput();
}

bool Generator::CheckResponse(const RequestTable::Entry& entry,
                              std::string_view response) {
  if (table_->binary) {
    // Status byte after the length prefix: 0 ok, 1 error.
    if (response.size() < 5 || response[4] != 0) {
      ++error_responses_;
      return false;
    }
    queries_ += entry.queries;
    return response == std::string_view(table_->expected_frames)
                           .substr(entry.frame_offset, entry.frame_length);
  }
  if (response.rfind("ok ", 0) != 0) {
    ++error_responses_;
    return false;
  }
  queries_ += entry.queries;
  const char* p = response.data() + 3;
  char* end = nullptr;
  if (std::strtoull(p, &end, 10) != entry.queries || *end != '\n') {
    return false;
  }
  p = end + 1;
  for (std::uint32_t i = 0; i < entry.queries; ++i) {
    const double got = std::strtod(p, &end);
    if (end == p || *end != '\n') return false;
    const double want = table_->expected_answers[entry.expected + i];
    if (std::memcmp(&got, &want, sizeof(double)) != 0) return false;
    p = end + 1;
  }
  return p == response.data() + response.size();
}

void Generator::RoundTrip(Connection& conn) {
  const std::vector<std::size_t> inflight = {QueueNext(conn)};
  std::size_t head = 0;
  const std::uint64_t deadline = NowNs() + kResponseTimeoutNs;
  while (head < 1) {
    if (conn.HasPending()) conn.Flush();
    if (conn.Receive()) Drain(conn, inflight, &head);
    if (NowNs() > deadline) Die("no response to a probe request");
  }
  CheckCompletions(conn);
}

void Generator::OpenLoop(Connection& conn,
                         std::span<const std::uint64_t> due_ns,
                         std::vector<DueRecord>* records) {
  const std::size_t n = due_ns.size();
  if (n == 0) return;
  const std::size_t base = records->size();
  records->resize(base + n);
  DueRecord* rec = records->data() + base;
  std::vector<std::size_t> inflight(n);
  std::vector<std::uint64_t> end_offset(n);
  // A short lead so the first request is not late by set-up work.
  const std::uint64_t t0 = NowNs() + 1'000'000;
  const std::uint64_t deadline = t0 + due_ns[n - 1] + kResponseTimeoutNs;
  std::size_t queued = 0, sent = 0, done = 0;
  while (done < n) {
    const std::uint64_t now = NowNs();
    while (queued < n && t0 + due_ns[queued] <= now) {
      inflight[queued] = QueueNext(conn);
      end_offset[queued] = conn.queued_total();
      rec[queued].due_ns = t0 + due_ns[queued];
      ++queued;
    }
    if (conn.HasPending()) {
      conn.Flush();
      const std::uint64_t t = NowNs();
      while (sent < queued && end_offset[sent] <= conn.sent_total()) {
        rec[sent++].sent_ns = t;
      }
    }
    if (done < sent && conn.Receive()) {
      const std::uint64_t t = NowNs();
      const std::size_t got = Drain(conn, inflight, &done);
      for (std::size_t i = done - got; i < done; ++i) rec[i].done_ns = t;
    }
    if (now > deadline) Die("open loop: responses missing");
  }
  CheckCompletions(conn);
}

void Generator::ClosedLoop(Connection& conn, std::size_t depth,
                           std::uint64_t duration_ns,
                           std::uint64_t window_ns,
                           std::vector<double>* rates) {
  std::vector<std::size_t> inflight;
  std::vector<std::uint64_t> done_ns;
  std::vector<std::uint32_t> queries;
  const std::uint64_t start = NowNs();
  const std::uint64_t end = start + duration_ns;
  for (std::size_t i = 0; i < depth; ++i) inflight.push_back(QueueNext(conn));
  std::size_t head = 0;
  while (head < inflight.size()) {
    if (conn.HasPending()) conn.Flush();
    if (conn.Receive()) {
      const std::uint64_t t = NowNs();
      const std::size_t got = Drain(conn, inflight, &head);
      for (std::size_t i = head - got; i < head; ++i) {
        done_ns.push_back(t);
        queries.push_back(table_->entries[inflight[i]].queries);
        if (t < end) inflight.push_back(QueueNext(conn));
      }
    }
    if (NowNs() > end + kResponseTimeoutNs) {
      Die("closed loop: responses missing");
    }
  }
  CheckCompletions(conn);
  const std::vector<double> w =
      WindowRates(done_ns, queries, start, end, window_ns);
  rates->insert(rates->end(), w.begin(), w.end());
}

std::vector<ReloadSample> Generator::ReloadPhase(
    Connection& reader, Connection& reloader, std::size_t depth,
    const std::string& release_id, const std::vector<std::string>& paths,
    std::span<const std::uint64_t> gaps_ns) {
  const std::size_t reloads = gaps_ns.size() - 1;  // the last gap is a tail
  std::vector<std::size_t> inflight;
  std::vector<std::uint64_t> answers;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (std::size_t i = 0; i < depth; ++i) {
    inflight.push_back(QueueNext(reader));
  }
  const std::string expected = "ok 1\nreloaded " + release_id + "\n";
  std::size_t head = 0, done_reloads = 0;
  bool reload_inflight = false, stop = false;
  std::uint64_t next_at = NowNs() + gaps_ns[0];
  std::uint64_t sent_at = 0;
  const std::uint64_t deadline = next_at + kResponseTimeoutNs * 4;
  while (!stop || head < inflight.size()) {
    if (reader.HasPending()) reader.Flush();
    if (reader.Receive()) {
      const std::uint64_t t = NowNs();
      const std::size_t got = Drain(reader, inflight, &head);
      for (std::size_t i = 0; i < got; ++i) {
        answers.push_back(t);
        if (!stop) inflight.push_back(QueueNext(reader));
      }
    }
    const std::uint64_t now = NowNs();
    if (!reload_inflight && done_reloads < reloads && now >= next_at) {
      reloader.Queue("RELOAD " + release_id + " " +
                     paths[(done_reloads + 1) % paths.size()] + "\n");
      ++attempted_;
      ++stats_requests_;
      sent_at = NowNs();
      reload_inflight = true;
    }
    if (reload_inflight) {
      if (reloader.HasPending()) reloader.Flush();
      if (reloader.Receive()) {
        const std::size_t len = reloader.PeekResponse();
        if (len > 0) {
          const std::uint64_t t = NowNs();
          const std::size_t offset = reloader.TakeResponse(len);
          if (reloader.Slice(offset, len) != expected) ++failed_;
          reloader.ClearInput();
          intervals.emplace_back(sent_at, t);
          reload_inflight = false;
          ++done_reloads;
          next_at = t + gaps_ns[done_reloads];
        }
      }
    }
    if (!reload_inflight && done_reloads == reloads && now >= next_at) {
      stop = true;
    }
    if (now > deadline) Die("reload phase did not finish");
  }
  CheckCompletions(reader);
  std::vector<ReloadSample> samples;
  for (const auto& [start, end] : intervals) {
    samples.push_back({end - start, ReloadStallGap(answers, start, end)});
  }
  return samples;
}

std::string Generator::Stats(Connection& conn) {
  ++attempted_;
  ++stats_requests_;
  std::string request;
  if (conn.binary()) {
    privelet::serving::EncodeVerbRequest(&request,
                                         privelet::serving::Verb::kStats);
  } else {
    request = "STATS\n";
  }
  conn.Queue(request);
  const std::uint64_t deadline = NowNs() + kResponseTimeoutNs;
  std::size_t len = 0;
  while (len == 0) {
    if (conn.HasPending()) conn.Flush();
    conn.Receive();
    len = conn.PeekResponse();
    if (NowNs() > deadline) Die("no STATS response");
  }
  const std::string raw(conn.Slice(conn.TakeResponse(len), len));
  conn.ClearInput();
  if (conn.binary()) {
    auto decoded = privelet::serving::DecodeResponse(
        std::string_view(raw).substr(4));
    if (!decoded.ok() || !decoded->ok) Die("STATS failed");
    return decoded->text;
  }
  if (raw.rfind("ok ", 0) != 0) Die("STATS failed");
  return raw.substr(raw.find('\n') + 1);
}

double StatsValue(const std::string& stats, const std::string& key) {
  std::size_t pos = 0;
  while (pos < stats.size()) {
    if (stats.compare(pos, key.size(), key) == 0 &&
        stats[pos + key.size()] == ' ') {
      return std::strtod(stats.c_str() + pos + key.size() + 1, nullptr);
    }
    const std::size_t nl = stats.find('\n', pos);
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  Die("STATS has no '" + key + "' line");
}

double StatsAllP50Us(const std::string& stats) {
  const std::size_t line = stats.find("latency _all ");
  if (line == std::string::npos) Die("STATS has no 'latency _all' line");
  const std::size_t p50 = stats.find("p50_us=", line);
  if (p50 == std::string::npos) Die("STATS 'latency _all' has no p50_us");
  return std::strtod(stats.c_str() + p50 + 7, nullptr);
}

}  // namespace perfbench
