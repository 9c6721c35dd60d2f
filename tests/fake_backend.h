// FakeBackend: a scripted, id-echoing stand-in for scp_backend shared by
// the serving-tier tests that need replies held back, reordered or
// released on cue.
#pragma once

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

namespace scp::net {

/// A scripted stand-in for scp_backend: accepts any number of connections,
/// decodes every frame, records requests in wire-arrival order (kBatchGet
/// flattened, key i under id base+i), and sends replies only when the test
/// says so. The window in which a forward stays in flight — where waiters
/// park, batches build and replies can be made to overtake each other — is
/// therefore as wide as the test needs, with no race against a real
/// backend's reply. reply() echoes the request id like a real backend.
class FakeBackend {
 public:
  struct Request {
    MsgType type = MsgType::kGet;  ///< kGet (batch items too), kPut, ...
    std::uint64_t key = 0;
    std::uint64_t id = 0;
    int fd = -1;
    bool answered = false;
  };

  FakeBackend() = default;
  ~FakeBackend() { stop(); }
  FakeBackend(const FakeBackend&) = delete;
  FakeBackend& operator=(const FakeBackend&) = delete;

  bool start() {
    listener_ = listen_tcp("127.0.0.1", 0, 16, &port_);
    if (!listener_.valid()) return false;
    thread_ = std::thread([this] { run(); });
    return true;
  }

  void stop() {
    stopping_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    listener_.reset();
  }

  std::uint16_t port() const noexcept { return port_; }

  /// GET keys received so far, in wire order.
  std::vector<std::uint64_t> keys() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t> keys;
    for (const Request& request : requests_) {
      if (request.type == MsgType::kGet) keys.push_back(request.key);
    }
    return keys;
  }

  /// Every request received so far, in wire order.
  std::vector<Request> requests() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return requests_;
  }

  /// GET-carrying frames received so far (a kBatchGet counts once).
  std::uint64_t get_frames() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return get_frames_;
  }

  /// kBatchGet frames received so far.
  std::uint64_t batch_frames() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return batch_frames_;
  }

  /// Connections accepted so far (a reset and redial shows up as 2).
  std::size_t accepted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return accepted_;
  }

  /// Sends `message` verbatim (id included) on the newest connection.
  bool push(const Message& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    return send_frame(newest_fd_, message);
  }

  /// Closes every open connection (the peer sees its conn reset).
  void drop_all() { drop_.store(true, std::memory_order_relaxed); }

  /// Answers the oldest unanswered request for `message.key` (for a
  /// kBatchReply: the batch whose first key is batch[0].key) on the
  /// connection it came in on, echoing its id. kWriteReply answers a
  /// kPut/kDelete, every other reply a GET.
  bool reply(Message message) {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool batch = message.type == MsgType::kBatchReply;
    const std::uint64_t key =
        batch ? (message.batch.empty() ? 0 : message.batch[0].key)
              : message.key;
    const bool write = message.type == MsgType::kWriteReply;
    Request* target = nullptr;
    for (Request& request : requests_) {
      const bool is_write = request.type == MsgType::kPut ||
                            request.type == MsgType::kDelete;
      if (!request.answered && request.key == key && is_write == write) {
        target = &request;
        break;
      }
    }
    if (target == nullptr) return false;
    message.id = target->id;
    const std::size_t count = batch ? message.batch.size() : 1;
    for (Request& request : requests_) {
      if (request.fd == target->fd && request.id >= target->id &&
          request.id < target->id + count) {
        request.answered = true;
      }
    }
    return send_frame(target->fd, message);
  }

 private:
  static bool send_frame(int fd, const Message& message) {
    if (fd < 0) return false;
    const std::vector<std::uint8_t> frame = encode(message);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  struct Conn {
    Socket sock;
    FrameReader reader;
  };

  void run() {
    std::vector<std::unique_ptr<Conn>> conns;
    std::uint8_t buffer[16384];
    while (!stopping_.load(std::memory_order_relaxed)) {
      if (drop_.exchange(false, std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(mutex_);
        conns.clear();
        newest_fd_ = -1;
      }
      std::vector<pollfd> pfds{{listener_.fd(), POLLIN, 0}};
      for (const auto& conn : conns) pfds.push_back({conn->sock.fd(), POLLIN, 0});
      if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
      if ((pfds[0].revents & POLLIN) != 0) {
        auto conn = std::make_unique<Conn>();
        conn->sock = Socket(::accept(listener_.fd(), nullptr, nullptr));
        if (conn->sock.valid()) {
          std::lock_guard<std::mutex> lock(mutex_);
          newest_fd_ = conn->sock.fd();
          conns.push_back(std::move(conn));
          ++accepted_;
        }
      }
      for (std::size_t i = 1; i < pfds.size(); ++i) {
        if (pfds[i].revents == 0) continue;
        Conn& conn = *conns[i - 1];
        const ssize_t n = ::recv(conn.sock.fd(), buffer, sizeof(buffer), 0);
        bool alive = n > 0;
        if (alive) {
          conn.reader.append({buffer, static_cast<std::size_t>(n)});
          alive = record(conn);
        }
        if (!alive) {
          std::lock_guard<std::mutex> lock(mutex_);
          if (newest_fd_ == conn.sock.fd()) newest_fd_ = -1;
          conn.sock.reset();  // its requests stay recorded, unanswerable
        }
      }
      std::erase_if(conns, [](const auto& conn) { return !conn->sock.valid(); });
    }
  }

  /// Records every complete frame buffered on `conn`; false on garbage.
  bool record(Conn& conn) {
    while (auto payload = conn.reader.next_payload()) {
      auto message = decode_payload(*payload);
      if (!message.has_value()) return false;
      std::lock_guard<std::mutex> lock(mutex_);
      const int fd = conn.sock.fd();
      if (message->type == MsgType::kBatchGet) {
        for (std::size_t i = 0; i < message->batch_keys.size(); ++i) {
          requests_.push_back(
              {MsgType::kGet, message->batch_keys[i], message->id + i, fd});
        }
        ++get_frames_;
        ++batch_frames_;
      } else if (message->type == MsgType::kGet ||
                 message->type == MsgType::kPut ||
                 message->type == MsgType::kDelete) {
        requests_.push_back({message->type, message->key, message->id, fd});
        if (message->type == MsgType::kGet) ++get_frames_;
      }
    }
    return !conn.reader.corrupted();
  }

  Socket listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  mutable std::mutex mutex_;
  std::vector<Request> requests_;
  std::uint64_t get_frames_ = 0;
  std::uint64_t batch_frames_ = 0;
  std::size_t accepted_ = 0;
  int newest_fd_ = -1;
  std::atomic<bool> drop_{false};
};

}  // namespace scp::net
