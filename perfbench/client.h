// Load-generator core for the live-tier benchmark: the op stream drawn from
// a seed, the value oracle and outcome classifier that check every reply,
// the key-matched pending table, the pipelined client connection, and the
// null server that measures the generator's own ceiling and the machine's
// speed.
//
// Replies are matched by key, not by order: a front end answers cache hits
// at once and misses when the backend replies, so one connection's replies
// arrive out of request order. Requests for the same key are matched oldest
// first.
#pragma once

#include <sys/socket.h>

#include <time.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/sampling.h"
#include "net/socket.h"
#include "net/wire.h"

namespace perfbench {

enum class OpKind : std::uint8_t { kGet = 0, kPut = 1 };
inline constexpr int kOpKinds = 2;

/// What became of one request. Everything but kOk is a failure.
enum class Outcome : std::uint8_t {
  kOk = 0,
  kError,       ///< kError reply, or a reply type the op never expects
  kTimeout,     ///< no reply within the client timeout
  kDropped,     ///< the connection closed with the request pending
  kWrongValue,  ///< VALUE bytes that no write and no preload produced
  kStale,       ///< VALUE older than a write acknowledged before the send
};
inline constexpr int kOutcomes = 6;

const char* op_name(OpKind op) noexcept;
const char* outcome_name(Outcome outcome) noexcept;

struct Op {
  OpKind kind = OpKind::kGet;
  std::uint64_t key = 0;
};

/// The workload's key and op mix. Keys are popularity ranks: key 0 is the
/// hottest, matching the perfect cache's oracle prefix [0, c).
struct WorkloadSpec {
  bool zipf = true;          ///< false: uniform over [0, items)
  double theta = 0.99;
  std::uint64_t items = 65536;
  double write_frac = 0.0;   ///< share of ops that are PUTs
  std::uint32_t value_bytes = 64;
};

/// Deterministic op sequence: the same spec and seed give the same ops.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, std::uint64_t seed);
  Op next();
  /// Exponential inter-arrival gap (ns) for a Poisson process at `rate`/s.
  std::int64_t gap_ns(double rate);

 private:
  WorkloadSpec spec_;
  scp::Rng rng_;
  std::unique_ptr<scp::ZipfSampler> zipf_;
};

/// Bytes a benchmark PUT writes: distinct per (key, seq) and never equal to
/// a preloaded make_value() string, so a read can name the write it saw.
std::string write_value(std::uint64_t key, std::uint32_t seq,
                        std::uint32_t value_bytes);

/// Knows every value a GET may legally return. Reads of unwritten keys must
/// equal net::make_value byte for byte. Once a PUT is acknowledged with
/// version V, a GET sent afterwards must return a write whose version is at
/// least V (or one still unacknowledged, which may be newer). Thread-safe.
class ValueOracle {
 public:
  explicit ValueOracle(std::uint32_t value_bytes) : value_bytes_(value_bytes) {}

  /// Registers a PUT about to be sent; returns its sequence number (>= 1).
  std::uint32_t begin_write(std::uint64_t key);
  void ack_write(std::uint64_t key, std::uint32_t seq, std::uint64_t version);
  /// The version floor a GET sent now must respect.
  std::uint64_t read_floor(std::uint64_t key) const;
  Outcome check_value(std::uint64_t key, std::string_view payload,
                      std::uint64_t floor) const;
  std::uint32_t value_bytes() const noexcept { return value_bytes_; }

 private:
  struct KeyWrites {
    std::vector<std::uint64_t> versions;  ///< per seq-1; 0 = not acked yet
    std::uint64_t floor = 0;              ///< highest acked version
  };
  static constexpr std::size_t kStripes = 64;
  std::uint32_t value_bytes_;
  std::atomic<bool> any_writes_{false};
  mutable std::array<std::mutex, kStripes> locks_;
  std::array<std::unordered_map<std::uint64_t, KeyWrites>, kStripes> writes_;
};

/// One request awaiting its reply.
struct Pending {
  std::uint64_t key = 0;
  OpKind op = OpKind::kGet;
  std::uint32_t seq = 0;      ///< PUT: write sequence number
  std::uint64_t floor = 0;    ///< GET: oracle floor at send time
  std::int64_t due_ns = 0;    ///< scheduled send time (open loop)
  std::int64_t sent_ns = 0;
};

/// Classifies a reply to `request`. Acknowledged PUTs are recorded in the
/// oracle here, so a later GET's floor sees them.
Outcome classify(const Pending& request, const scp::net::Message& reply,
                 ValueOracle& oracle);

/// Requests in flight on one connection, matched by key, oldest first.
class PendingTable {
 public:
  void add(const Pending& request);
  /// Oldest pending request for `key`, removed; nullopt when none.
  std::optional<Pending> take(std::uint64_t key);
  /// Removes every request sent before `cutoff_ns` and passes it to `fn`.
  template <typename Fn>
  void expire(std::int64_t cutoff_ns, Fn&& fn);
  /// Removes every request and passes it to `fn`.
  template <typename Fn>
  void clear(Fn&& fn) {
    expire(INT64_MAX, fn);
  }
  std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  struct Slot {
    Pending request;
    std::uint32_t next = kNone;
  };
  struct Chain {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };
  void release(std::uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::unordered_map<std::uint64_t, Chain> chains_;
  std::size_t size_ = 0;
};

template <typename Fn>
void PendingTable::expire(std::int64_t cutoff_ns, Fn&& fn) {
  for (auto it = chains_.begin(); it != chains_.end();) {
    Chain& chain = it->second;
    // Sends on one connection are in time order, so a key's expired
    // requests are a prefix of its chain.
    while (chain.head != kNone &&
           slots_[chain.head].request.sent_ns < cutoff_ns) {
      const std::uint32_t slot = chain.head;
      chain.head = slots_[slot].next;
      fn(slots_[slot].request);
      release(slot);
    }
    if (chain.head == kNone) {
      it = chains_.erase(it);
    } else {
      ++it;
    }
  }
}

/// Per-op-kind outcome counts.
struct Tally {
  std::array<std::uint64_t, kOpKinds> attempted{};
  std::array<std::array<std::uint64_t, kOutcomes>, kOpKinds> outcomes{};
  std::uint64_t mismatched_replies = 0;  ///< replies no pending request wanted
  std::uint64_t connect_failures = 0;

  void record(OpKind op, Outcome outcome) {
    ++outcomes[static_cast<int>(op)][static_cast<int>(outcome)];
  }
  std::uint64_t completed_ok() const;
  std::uint64_t failed() const;
  std::uint64_t total_attempted() const {
    return attempted[0] + attempted[1];
  }
  void merge(const Tally& other);
};

/// One pipelined, non-blocking client connection. Requests are encoded into
/// an output buffer and written in one send per flush(); replies are read in
/// bulk and matched by key.
class PipelinedClient {
 public:
  PipelinedClient(std::string host, std::uint16_t port, ValueOracle& oracle)
      : host_(std::move(host)), port_(port), oracle_(oracle) {}

  bool connect();
  bool connected() const noexcept { return sock_.valid(); }

  /// Encodes `op` for sending (due = scheduled time for latency).
  void enqueue(const Op& op, std::int64_t due_ns, std::int64_t now_ns,
               Tally& tally);
  /// Writes the output buffer; false when the connection failed (its
  /// pending requests are then settled as kDropped through `on_done`).
  template <typename Fn>
  bool flush(Tally& tally, Fn&& on_done);

  /// Waits up to `timeout_ns` for replies and settles each through
  /// `on_done(pending, outcome, now_ns)`. Returns the number settled.
  template <typename Fn>
  std::size_t poll(std::int64_t timeout_ns, Tally& tally, Fn&& on_done);

  /// Fails every request older than `timeout_ns` as kTimeout.
  template <typename Fn>
  void expire(std::int64_t now_ns, std::int64_t timeout_ns, Tally& tally,
              Fn&& on_done);

  std::size_t in_flight() const noexcept { return pending_.size(); }

 private:
  template <typename Fn>
  void drop(Tally& tally, Fn&& on_done, std::int64_t now_ns);
  bool wait_readable(std::int64_t timeout_ns);
  void wait_writable();

  std::string host_;
  std::uint16_t port_;
  ValueOracle& oracle_;
  scp::net::Socket sock_;
  scp::net::FrameReader reader_;
  PendingTable pending_;
  scp::net::Message request_;
  std::vector<std::uint8_t> frame_;
  std::vector<std::uint8_t> out_;
  std::size_t out_sent_ = 0;
  std::vector<std::uint8_t> in_;
};

std::int64_t now_ns();

template <typename Fn>
void PipelinedClient::drop(Tally& tally, Fn&& on_done, std::int64_t now) {
  sock_.reset();
  reader_ = scp::net::FrameReader();
  out_.clear();
  out_sent_ = 0;
  pending_.clear([&](const Pending& p) {
    tally.record(p.op, Outcome::kDropped);
    on_done(p, Outcome::kDropped, now);
  });
}

template <typename Fn>
bool PipelinedClient::flush(Tally& tally, Fn&& on_done) {
  while (sock_.valid() && out_sent_ < out_.size()) {
    const ssize_t sent = ::send(sock_.fd(), out_.data() + out_sent_,
                                out_.size() - out_sent_, MSG_NOSIGNAL);
    if (sent > 0) {
      out_sent_ += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_writable();
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    drop(tally, on_done, now_ns());
    return false;
  }
  out_.clear();
  out_sent_ = 0;
  return sock_.valid();
}

template <typename Fn>
std::size_t PipelinedClient::poll(std::int64_t timeout_ns, Tally& tally,
                                  Fn&& on_done) {
  if (!sock_.valid()) return 0;
  if (!wait_readable(timeout_ns)) return 0;
  std::size_t settled = 0;
  for (;;) {
    in_.resize(1 << 16);
    const ssize_t got = ::recv(sock_.fd(), in_.data(), in_.size(), 0);
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
      drop(tally, on_done, now_ns());
      return settled;
    }
    if (got < 0) break;
    reader_.append(std::span<const std::uint8_t>(
        in_.data(), static_cast<std::size_t>(got)));
    const std::int64_t now = now_ns();
    while (auto frame = reader_.next_frame()) {
      auto reply = scp::net::decode_payload(*frame);
      if (!reply) {
        drop(tally, on_done, now);
        return settled;
      }
      auto request = pending_.take(reply->key);
      if (!request) {
        ++tally.mismatched_replies;
        continue;
      }
      const Outcome outcome = classify(*request, *reply, oracle_);
      tally.record(request->op, outcome);
      on_done(*request, outcome, now);
      ++settled;
    }
    if (reader_.corrupted()) {
      drop(tally, on_done, now);
      return settled;
    }
    if (static_cast<std::size_t>(got) < in_.size()) break;
  }
  return settled;
}

template <typename Fn>
void PipelinedClient::expire(std::int64_t now, std::int64_t timeout_ns,
                             Tally& tally, Fn&& on_done) {
  pending_.expire(now - timeout_ns, [&](const Pending& p) {
    tally.record(p.op, Outcome::kTimeout);
    on_done(p, Outcome::kTimeout, now);
  });
}

/// Answers every GET frame at once with the VALUE net::make_value gives,
/// from one epoll thread. Its framing is written here, not taken from
/// net/wire, so no change to the serving tier changes its cost: the
/// client's throughput against it is the load generator's ceiling, and its
/// CPU time per request is a reference for the machine's current speed.
class NullServer {
 public:
  explicit NullServer(std::uint32_t value_bytes) : value_bytes_(value_bytes) {}
  ~NullServer();
  NullServer(const NullServer&) = delete;
  NullServer& operator=(const NullServer&) = delete;

  /// Binds 127.0.0.1 on a kernel-assigned port and serves on `cpu`
  /// (-1: wherever the scheduler puts the thread).
  bool start(int cpu = -1);
  std::uint16_t port() const noexcept { return port_; }
  void stop();

  /// GETs answered so far.
  std::uint64_t served() const noexcept { return served_.load(); }
  /// On-CPU time of the serving thread so far, in ns.
  double cpu_ns() const;

 private:
  void serve_loop();
  /// Answers every whole frame buffered for `fd`; false on a bad frame.
  bool answer(int fd, std::vector<std::uint8_t>& in,
              std::vector<std::uint8_t>& out);

  std::uint32_t value_bytes_;
  int cpu_ = -1;
  scp::net::Socket listener_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd that ends the serving loop
  std::uint16_t port_ = 0;
  std::atomic<std::uint64_t> served_{0};
  clockid_t clock_ = CLOCK_THREAD_CPUTIME_ID;
  std::thread thread_;
};

}  // namespace perfbench
