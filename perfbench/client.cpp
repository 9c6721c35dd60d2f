#include "client.h"

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>

namespace perfbench {

using scp::net::Message;
using scp::net::MsgType;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* op_name(OpKind op) noexcept {
  return op == OpKind::kGet ? "get" : "put";
}

const char* outcome_name(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kError: return "error";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kDropped: return "dropped";
    case Outcome::kWrongValue: return "wrong_value";
    case Outcome::kStale: return "stale";
  }
  return "unknown";
}

OpStream::OpStream(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  if (spec_.zipf) {
    zipf_ = std::make_unique<scp::ZipfSampler>(spec_.items, spec_.theta);
  }
}

Op OpStream::next() {
  Op op;
  if (spec_.write_frac > 0.0 && rng_.bernoulli(spec_.write_frac)) {
    op.kind = OpKind::kPut;
  }
  // ZipfSampler draws ranks in [1, n]; key = rank - 1.
  op.key = zipf_ ? zipf_->sample(rng_) - 1 : rng_.uniform_u64(spec_.items);
  return op;
}

std::int64_t OpStream::gap_ns(double rate) {
  return static_cast<std::int64_t>(rng_.exponential(rate) * 1e9);
}

std::string write_value(std::uint64_t key, std::uint32_t seq,
                        std::uint32_t value_bytes) {
  std::string value = "w";
  value += std::to_string(key);
  value += '.';
  value += std::to_string(seq);
  value += ':';
  if (value.size() < value_bytes) value.append(value_bytes - value.size(), 'y');
  return value;
}

std::uint32_t ValueOracle::begin_write(std::uint64_t key) {
  any_writes_.store(true, std::memory_order_relaxed);
  const std::size_t stripe = key % kStripes;
  std::lock_guard lock(locks_[stripe]);
  KeyWrites& writes = writes_[stripe][key];
  writes.versions.push_back(0);
  return static_cast<std::uint32_t>(writes.versions.size());
}

void ValueOracle::ack_write(std::uint64_t key, std::uint32_t seq,
                            std::uint64_t version) {
  const std::size_t stripe = key % kStripes;
  std::lock_guard lock(locks_[stripe]);
  auto it = writes_[stripe].find(key);
  if (it == writes_[stripe].end() || seq == 0 ||
      seq > it->second.versions.size()) {
    return;
  }
  it->second.versions[seq - 1] = version;
  it->second.floor = std::max(it->second.floor, version);
}

std::uint64_t ValueOracle::read_floor(std::uint64_t key) const {
  if (!any_writes_.load(std::memory_order_relaxed)) return 0;
  const std::size_t stripe = key % kStripes;
  std::lock_guard lock(locks_[stripe]);
  auto it = writes_[stripe].find(key);
  return it == writes_[stripe].end() ? 0 : it->second.floor;
}

Outcome ValueOracle::check_value(std::uint64_t key, std::string_view payload,
                                 std::uint64_t floor) const {
  if (payload == scp::net::make_value(key, value_bytes_)) {
    return floor == 0 ? Outcome::kOk : Outcome::kStale;
  }
  // "w<key>.<seq>:" names the write; the bytes must then match it exactly.
  if (payload.size() < 4 || payload[0] != 'w') return Outcome::kWrongValue;
  const char* begin = payload.data() + 1;
  const char* end = payload.data() + payload.size();
  std::uint64_t named_key = 0;
  auto [after_key, key_err] = std::from_chars(begin, end, named_key);
  if (key_err != std::errc() || named_key != key || after_key == end ||
      *after_key != '.') {
    return Outcome::kWrongValue;
  }
  std::uint32_t seq = 0;
  auto [after_seq, seq_err] = std::from_chars(after_key + 1, end, seq);
  if (seq_err != std::errc() || seq == 0) return Outcome::kWrongValue;
  (void)after_seq;
  if (payload != write_value(key, seq, value_bytes_)) {
    return Outcome::kWrongValue;
  }
  const std::size_t stripe = key % kStripes;
  std::lock_guard lock(locks_[stripe]);
  auto it = writes_[stripe].find(key);
  if (it == writes_[stripe].end() || seq > it->second.versions.size()) {
    return Outcome::kWrongValue;  // a write this client never issued
  }
  const std::uint64_t version = it->second.versions[seq - 1];
  // Unacknowledged writes may be newer than the floor; acknowledged ones
  // must not be older.
  return version != 0 && version < floor ? Outcome::kStale : Outcome::kOk;
}

Outcome classify(const Pending& request, const Message& reply,
                 ValueOracle& oracle) {
  if (request.op == OpKind::kGet) {
    if (reply.type != MsgType::kValue) return Outcome::kError;
    return oracle.check_value(request.key, reply.payload, request.floor);
  }
  if (reply.type != MsgType::kWriteReply) return Outcome::kError;
  oracle.ack_write(request.key, request.seq, reply.version);
  return Outcome::kOk;
}

void PendingTable::add(const Pending& request) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].request = request;
  slots_[slot].next = kNone;
  Chain& chain = chains_[request.key];
  if (chain.head == kNone) {
    chain.head = slot;
  } else {
    slots_[chain.tail].next = slot;
  }
  chain.tail = slot;
  ++size_;
}

std::optional<Pending> PendingTable::take(std::uint64_t key) {
  auto it = chains_.find(key);
  if (it == chains_.end()) return std::nullopt;
  const std::uint32_t slot = it->second.head;
  Pending request = slots_[slot].request;
  it->second.head = slots_[slot].next;
  if (it->second.head == kNone) chains_.erase(it);
  release(slot);
  return request;
}

void PendingTable::release(std::uint32_t slot) {
  free_.push_back(slot);
  --size_;
}

std::uint64_t Tally::completed_ok() const {
  return outcomes[0][0] + outcomes[1][0];
}

std::uint64_t Tally::failed() const {
  std::uint64_t failed = 0;
  for (const auto& per_op : outcomes) {
    for (int o = 1; o < kOutcomes; ++o) failed += per_op[o];
  }
  return failed;
}

void Tally::merge(const Tally& other) {
  for (int op = 0; op < kOpKinds; ++op) {
    attempted[op] += other.attempted[op];
    for (int o = 0; o < kOutcomes; ++o) {
      outcomes[op][o] += other.outcomes[op][o];
    }
  }
  mismatched_replies += other.mismatched_replies;
  connect_failures += other.connect_failures;
}

bool PipelinedClient::connect() {
  sock_ = scp::net::connect_tcp(host_, port_, 2.0);
  if (!sock_.valid()) return false;
  scp::net::set_nodelay(sock_.fd());
  return scp::net::set_nonblocking(sock_.fd());
}

void PipelinedClient::enqueue(const Op& op, std::int64_t due_ns,
                              std::int64_t now, Tally& tally) {
  Pending pending;
  pending.key = op.key;
  pending.op = op.kind;
  pending.due_ns = due_ns;
  pending.sent_ns = now;
  request_.key = op.key;
  if (op.kind == OpKind::kGet) {
    request_.type = MsgType::kGet;
    request_.payload.clear();
    pending.floor = oracle_.read_floor(op.key);
  } else {
    request_.type = MsgType::kPut;
    pending.seq = oracle_.begin_write(op.key);
    request_.payload = write_value(op.key, pending.seq, oracle_.value_bytes());
  }
  ++tally.attempted[static_cast<int>(op.kind)];
  scp::net::encode_into(request_, frame_);
  out_.insert(out_.end(), frame_.begin(), frame_.end());
  pending_.add(pending);
}

void PipelinedClient::wait_writable() {
  // The servers' reactors buffer their output, so waiting for room here
  // cannot deadlock against our unread replies.
  pollfd pfd{sock_.fd(), POLLOUT, 0};
  ::poll(&pfd, 1, 1);
}

bool PipelinedClient::wait_readable(std::int64_t timeout_ns) {
  pollfd pfd{sock_.fd(), POLLIN, 0};
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  return ::ppoll(&pfd, 1, timeout_ns < 0 ? nullptr : &ts, nullptr) > 0;
}

NullServer::~NullServer() { stop(); }

bool NullServer::start(int cpu) {
  cpu_ = cpu;
  listener_ = scp::net::listen_tcp("127.0.0.1", 0, 64, &port_);
  if (!listener_.valid()) return false;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) return false;
  for (const int fd : {listener_.fd(), wake_fd_}) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  }
  thread_ = std::thread([this] { serve_loop(); });
  return ::pthread_getcpuclockid(thread_.native_handle(), &clock_) == 0;
}

void NullServer::stop() {
  if (thread_.joinable()) {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
    thread_.join();
  }
  for (int* fd : {&epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  listener_.reset();
}

double NullServer::cpu_ns() const {
  timespec ts{};
  ::clock_gettime(clock_, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

void NullServer::serve_loop() {
  if (cpu_ >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu_, &set);
    ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
  }
  std::unordered_map<int, std::vector<std::uint8_t>> conns;
  std::vector<std::uint8_t> out;
  std::array<epoll_event, 16> events;
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == wake_fd_) {
        for (const auto& conn : conns) ::close(conn.first);
        return;
      }
      if (fd == listener_.fd()) {
        for (int conn; (conn = ::accept4(fd, nullptr, nullptr,
                                         SOCK_NONBLOCK | SOCK_CLOEXEC)) >= 0;) {
          scp::net::set_nodelay(conn);
          epoll_event event{};
          event.events = EPOLLIN;
          event.data.fd = conn;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn, &event);
          conns[conn];
        }
        continue;
      }
      if (!answer(fd, conns[fd], out)) {
        ::close(fd);  // also leaves the epoll set
        conns.erase(fd);
      }
    }
  }
}

bool NullServer::answer(int fd, std::vector<std::uint8_t>& in,
                        std::vector<std::uint8_t>& out) {
  std::array<std::uint8_t, 1 << 16> buf;
  for (;;) {
    const ssize_t got = ::recv(fd, buf.data(), buf.size(), 0);
    if (got == 0) return false;
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    in.insert(in.end(), buf.begin(), buf.begin() + got);
    if (static_cast<std::size_t>(got) < buf.size()) break;
  }
  // A GET frame: u32 payload length, type 1, u64 key, all big-endian. The
  // reply: u32 length, type 2, u64 key, u32 value length, value.
  auto be = [](const std::uint8_t* p, int bytes) {
    std::uint64_t v = 0;
    for (int b = 0; b < bytes; ++b) v = (v << 8) | p[b];
    return v;
  };
  auto put_be = [&out](std::uint64_t v, int bytes) {
    for (int b = bytes - 1; b >= 0; --b) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  };
  out.clear();
  std::size_t at = 0;
  while (in.size() - at >= 4) {
    const std::uint64_t length = be(&in[at], 4);
    if (length != 9) return false;
    if (in.size() - at < 4 + length) break;
    if (in[at + 4] != 1) return false;
    const std::uint64_t key = be(&in[at + 5], 8);
    char digits[24];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), key);
    const std::size_t text = 2 + static_cast<std::size_t>(end - digits);
    const std::size_t value = std::max<std::size_t>(text, value_bytes_);
    put_be(1 + 8 + 4 + value, 4);
    out.push_back(2);
    put_be(key, 8);
    put_be(value, 4);
    out.push_back('v');
    out.insert(out.end(), digits, end);
    out.push_back(':');
    out.insert(out.end(), value - text, 'x');
    at += 4 + length;
    served_.fetch_add(1, std::memory_order_relaxed);
  }
  in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(at));
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
