// Upstream: the client half of a server's hop to its upstream peers — the
// front end's backends, the router's fleet members and a backend's replica
// mesh. One instance per reactor shard owns one peer set:
//
//   - the connection table and conn → peer map, connect, and reconnect with
//     capped exponential backoff (reconnect_delay_s);
//   - an in-flight table per peer keyed by request id. Every tracked send
//     gets a fresh id and the peer echoes it (wire.h), so a reply is matched
//     by id however replies overtake each other — a backend answers a GET at
//     once but a quorum PUT only after its replicas ack. A reply whose id is
//     not in flight is a protocol error: the connection is reset and logged
//     as a "reply mismatch";
//   - a head-of-line deadline sweep: when the oldest request on a connection
//     passes its deadline the connection is reset, which reports every
//     request on it lost;
//   - a per-peer GET batch queue (batch_max > 1), flushed at the reactor's
//     before-flush hook as one kBatchGet whose base id b is answered for key
//     i as b+i. A batch of one goes out as a plain kGet;
//   - a bounded per-peer queue of frames deferred while the peer connects.
//
// Each server keeps its own pending payload per request and gets it back
// exactly once: through on_reply with the matched reply, or through on_lost
// when no reply will come. Frames without an id (scrape replies, hot-key
// pushes) go to on_unsolicited.
//
// Threading: everything runs on the owning reactor's loop thread, except
// up_count(), batch_totals() and stop(), which are safe from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/reactor.h"
#include "net/wire.h"

namespace scp::net {

/// Reconnect backoff: kReconnectBaseS · 2^attempt, capped at kReconnectCapS.
inline constexpr double kReconnectBaseS = 0.050;
inline constexpr double kReconnectCapS = 1.0;
/// Head-of-line deadline sweep cadence. Coarse on purpose: a deadline is
/// enforced within one period, plenty for the sub-second request budgets.
inline constexpr double kUpstreamSweepS = 0.020;

/// Delay before reconnect attempt number `attempt` (0-based).
double reconnect_delay_s(std::uint32_t attempt) noexcept;

/// Why a request reaches on_lost.
enum class UpstreamLoss : std::uint8_t {
  kUnsent,  ///< never reached the wire (peer down at flush, send failed,
            ///< deferred frame dropped); retrying it costs no attempt
  kClosed,  ///< its connection closed or was reset while it was in flight
};

/// The Pending-independent half: peers, connections, reconnect and the
/// deadline sweep.
class UpstreamPeers {
 public:
  /// Fired on every connect/disconnect of a peer (e.g. to subscribe, or to
  /// mark it down for routing before its requests are reported lost).
  using StateFn = std::function<void(std::uint32_t peer, bool up)>;
  /// Receives frames that carry no id: scrape replies, pushes.
  using UnsolicitedFn = std::function<void(std::uint32_t peer, Message&&)>;

  struct Options {
    const char* name = "upstream";  ///< log prefix, e.g. "scp_frontend"
    double timeout_s = 0.0;         ///< per-request deadline; 0 = none
    /// Max keys per kBatchGet; <= 1 sends every GET as its own kGet.
    std::uint32_t batch_max = 1;
    /// Frames a peer may hold deferred while it connects (send(defer)).
    std::size_t max_deferred = 0;
  };

  UpstreamPeers(Reactor& loop, Options options, StateFn on_state,
                UnsolicitedFn on_unsolicited);
  virtual ~UpstreamPeers() = default;
  UpstreamPeers(const UpstreamPeers&) = delete;
  UpstreamPeers& operator=(const UpstreamPeers&) = delete;

  /// Adds `peer` (or re-points it) at address:port and dials it unless a
  /// connection is already open or opening. Clears a previous remove_peer().
  void set_peer(std::uint32_t peer, const std::string& address,
                std::uint16_t port);
  /// Removes `peer` for good: closes its connection (its requests are
  /// reported lost), drops deferred frames and never redials it.
  void remove_peer(std::uint32_t peer);
  /// Arms the deadline sweep (call once, before or after the loop starts).
  void start();
  /// Thread-safe: no further reconnects or sweeps.
  void stop() { stopping_.store(true); }

  /// Reactor callbacks, forwarded by the owning server. Each returns false
  /// when `conn` is not one of this upstream's connections.
  bool on_message(ConnId conn, Message&& message);
  bool on_close(ConnId conn);
  bool on_connect(ConnId conn, bool ok);

  std::size_t peer_count() const noexcept { return peers_.size(); }
  bool up(std::uint32_t peer) const noexcept {
    return peer < peers_.size() && peers_[peer].up;
  }
  /// Established peer connections (thread-safe).
  std::uint32_t up_count() const noexcept {
    return up_count_.load(std::memory_order_acquire);
  }
  /// Live conn → peer entries (connected or connecting).
  std::size_t conn_entries() const noexcept { return by_conn_.size(); }
  /// {kBatchGet frames sent, keys they carried} (thread-safe).
  std::pair<std::uint64_t, std::uint64_t> batch_totals() const noexcept {
    return {batch_frames_.load(std::memory_order_relaxed),
            batch_keys_.load(std::memory_order_relaxed)};
  }

  /// Sends a frame that expects no reply (id 0). False when the peer is
  /// down or the send fails.
  bool send_untracked(std::uint32_t peer, const Message& message);

 protected:
  using Clock = std::chrono::steady_clock;

  struct Peer {
    std::string address;
    std::uint16_t port = 0;
    ConnId conn = kInvalidConn;
    bool up = false;
    bool removed = false;
    std::uint32_t connect_attempts = 0;
  };

  /// Matches a tagged reply to its in-flight entry; false = no such id.
  virtual bool settle(std::uint32_t peer, Message&& reply) = 0;
  /// The peer's connection is gone: report its requests lost.
  virtual void peer_lost(std::uint32_t peer) = 0;
  /// The peer just connected: send its deferred frames.
  virtual void peer_up(std::uint32_t peer) = 0;
  /// True when the peer's oldest in-flight request is past `now`.
  virtual bool overdue(std::uint32_t peer, Clock::time_point now) const = 0;
  /// peers_ grew to `count` entries.
  virtual void grow(std::size_t count) = 0;

  static std::uint64_t to_ns(Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
  }

  Clock::time_point deadline(Clock::time_point sent_at) const {
    if (options_.timeout_s <= 0.0) return Clock::time_point::max();
    return sent_at + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options_.timeout_s));
  }

  Reactor& loop_;
  Options options_;
  std::vector<Peer> peers_;
  std::uint64_t next_id_ = 1;
  std::atomic<std::uint64_t> batch_frames_{0};
  std::atomic<std::uint64_t> batch_keys_{0};

 private:
  void dial(std::uint32_t peer);
  void schedule_reconnect(std::uint32_t peer);
  void sweep();

  StateFn on_state_;
  UnsolicitedFn on_unsolicited_;
  std::unordered_map<ConnId, std::uint32_t> by_conn_;
  std::atomic<std::uint32_t> up_count_{0};
  std::atomic<bool> stopping_{false};
};

/// An UpstreamPeers whose requests each carry a server-defined `Pending`.
template <typename Pending>
class Upstream final : public UpstreamPeers {
 public:
  struct Callbacks {
    /// The reply matched to a request (a kBatchReply arrives split into one
    /// per-key Message carrying base+i as its id).
    std::function<void(std::uint32_t peer, Pending&&, Message&&)> on_reply{};
    /// The request will get no reply.
    std::function<void(std::uint32_t peer, Pending&&, UpstreamLoss)>
        on_lost{};
    /// Optional: the request went on the wire at `sent_ns` (steady clock,
    /// as obs::now_ns(); one clock read per frame, shared by a batch's keys).
    std::function<void(std::uint32_t peer, Pending&, std::uint64_t sent_ns)>
        on_sent{};
    StateFn on_state{};              ///< optional
    UnsolicitedFn on_unsolicited{};  ///< optional
  };

  Upstream(Reactor& loop, Options options, Callbacks callbacks)
      : UpstreamPeers(loop, options, std::move(callbacks.on_state),
                      std::move(callbacks.on_unsolicited)),
        callbacks_(std::move(callbacks)) {
    if (options_.batch_max > 1) {
      // Batch frames ride the same gathered write as the wakeup's replies.
      loop_.set_before_flush([this] { flush(); });
    }
  }

  /// Sends `request` under a fresh id (overwriting request.id) and tracks
  /// `pending` until its reply. A peer that is not up fails the send —
  /// unless `defer` is set and the peer is still wanted, in which case the
  /// frame waits (bounded by max_deferred) until the peer connects. On
  /// false `pending` is left untouched.
  bool send(std::uint32_t peer, Message& request, Pending&& pending,
            bool defer = false) {
    if (peer >= peers_.size()) return false;
    const Peer& target = peers_[peer];
    if (!target.up) {
      Slot& slot = slots_[peer];
      if (!defer || target.removed || target.address.empty() ||
          slot.deferred.size() >= options_.max_deferred) {
        return false;
      }
      slot.deferred.emplace_back(request, std::move(pending));
      return true;
    }
    request.id = next_id_++;
    if (!loop_.send(target.conn, request)) return false;
    const Clock::time_point now = Clock::now();
    if (callbacks_.on_sent) callbacks_.on_sent(peer, pending, to_ns(now));
    slots_[peer].inflight.push_back(
        Entry{request.id, deadline(now), false, std::move(pending)});
    return true;
  }

  /// A GET for `key`: queued for the wakeup's batch flush when batching is
  /// on (flushed early once batch_max keys wait), else sent at once. False
  /// (pending untouched) when the peer is down.
  bool queue_get(std::uint32_t peer, std::uint64_t key, Pending&& pending) {
    if (options_.batch_max <= 1) {
      Message request;
      request.type = MsgType::kGet;
      request.key = key;
      return send(peer, request, std::move(pending));
    }
    if (!up(peer)) return false;
    Slot& slot = slots_[peer];
    slot.queued.push_back(Queued{key, std::move(pending)});
    if (slot.queued.size() >= options_.batch_max) flush_peer(peer);
    return true;
  }

 private:
  struct Entry {
    std::uint64_t id = 0;
    Clock::time_point deadline;
    bool settled = false;
    Pending pending;
  };
  struct Queued {
    std::uint64_t key = 0;
    Pending pending;
  };
  struct Slot {
    std::deque<Entry> inflight;  ///< ascending id = wire order
    std::vector<Queued> queued;  ///< GETs awaiting the batch flush
    std::vector<std::pair<Message, Pending>> deferred;
  };

  /// Flushes every peer's batch queue (the before-flush hook).
  void flush() {
    for (std::uint32_t peer = 0; peer < slots_.size(); ++peer) {
      if (!slots_[peer].queued.empty()) flush_peer(peer);
    }
  }

  void flush_peer(std::uint32_t peer) {
    // Ping-pong with spare_ so neither buffer gives up its capacity: the
    // queue refills every wakeup.
    std::vector<Queued> queued = std::move(spare_);
    queued.swap(slots_[peer].queued);
    bool sent = false;
    const std::uint64_t base = next_id_;
    if (peers_[peer].up) {
      Message request;
      request.id = base;
      if (queued.size() == 1) {
        request.type = MsgType::kGet;
        request.key = queued.front().key;
      } else {
        request.type = MsgType::kBatchGet;
        request.batch_keys.reserve(queued.size());
        for (const Queued& q : queued) request.batch_keys.push_back(q.key);
      }
      sent = loop_.send(peers_[peer].conn, request);
    }
    if (sent) {
      next_id_ += queued.size();
      if (queued.size() > 1) {
        batch_frames_.fetch_add(1, std::memory_order_relaxed);
        batch_keys_.fetch_add(queued.size(), std::memory_order_relaxed);
      }
      const Clock::time_point now = Clock::now();
      const Clock::time_point due = deadline(now);
      std::deque<Entry>& inflight = slots_[peer].inflight;
      for (std::size_t i = 0; i < queued.size(); ++i) {
        if (callbacks_.on_sent) {
          callbacks_.on_sent(peer, queued[i].pending, to_ns(now));
        }
        inflight.push_back(
            Entry{base + i, due, false, std::move(queued[i].pending)});
      }
    } else {
      for (Queued& q : queued) {
        callbacks_.on_lost(peer, std::move(q.pending), UpstreamLoss::kUnsent);
      }
    }
    queued.clear();
    spare_ = std::move(queued);
  }

  /// Index of the unsettled entry with `id`, or inflight.size().
  static std::size_t find(const std::deque<Entry>& inflight,
                          std::uint64_t id) {
    std::size_t lo = 0;
    std::size_t hi = inflight.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (inflight[mid].id < id) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < inflight.size() && inflight[lo].id == id &&
                   !inflight[lo].settled
               ? lo
               : inflight.size();
  }

  /// Drops settled entries off the front so front() is always the oldest
  /// request still owed a reply.
  static void compact(std::deque<Entry>& inflight) {
    while (!inflight.empty() && inflight.front().settled) inflight.pop_front();
  }

  bool settle(std::uint32_t peer, Message&& reply) override {
    std::deque<Entry>& inflight = slots_[peer].inflight;
    if (reply.type != MsgType::kBatchReply) {
      const std::size_t at = find(inflight, reply.id);
      if (at == inflight.size()) return false;
      Pending pending = std::move(inflight[at].pending);
      inflight[at].settled = true;
      compact(inflight);
      callbacks_.on_reply(peer, std::move(pending), std::move(reply));
      return true;
    }
    // Item i answers request base+i; all of them must be in flight before
    // any is settled, or a half-applied batch would answer the wrong keys.
    const std::size_t count = reply.batch.size();
    const std::size_t at = find(inflight, reply.id);
    if (count == 0 || at + count > inflight.size()) return false;
    for (std::size_t i = 0; i < count; ++i) {
      const Entry& entry = inflight[at + i];
      if (entry.id != reply.id + i || entry.settled) return false;
    }
    std::vector<Pending> pendings = std::move(settled_);
    for (std::size_t i = 0; i < count; ++i) {
      pendings.push_back(std::move(inflight[at + i].pending));
      inflight[at + i].settled = true;
    }
    compact(inflight);
    Message item;
    for (std::size_t i = 0; i < count; ++i) {
      BatchItem& verdict = reply.batch[i];
      item.type = verdict.type;
      item.id = reply.id + i;
      item.key = verdict.key;
      item.node = verdict.node;
      item.payload = std::move(verdict.payload);
      callbacks_.on_reply(peer, std::move(pendings[i]), std::move(item));
    }
    pendings.clear();
    settled_ = std::move(pendings);  // keeps its capacity for the next batch
    return true;
  }

  void peer_lost(std::uint32_t peer) override {
    Slot& slot = slots_[peer];
    std::deque<Entry> inflight;
    inflight.swap(slot.inflight);
    std::vector<Queued> queued;
    queued.swap(slot.queued);
    std::vector<std::pair<Message, Pending>> deferred;
    if (peers_[peer].removed) deferred.swap(slot.deferred);
    for (Entry& entry : inflight) {
      if (entry.settled) continue;
      callbacks_.on_lost(peer, std::move(entry.pending), UpstreamLoss::kClosed);
    }
    for (Queued& q : queued) {
      callbacks_.on_lost(peer, std::move(q.pending), UpstreamLoss::kUnsent);
    }
    for (auto& [message, pending] : deferred) {
      callbacks_.on_lost(peer, std::move(pending), UpstreamLoss::kUnsent);
    }
  }

  void peer_up(std::uint32_t peer) override {
    std::vector<std::pair<Message, Pending>> deferred;
    deferred.swap(slots_[peer].deferred);
    for (auto& [message, pending] : deferred) {
      if (!send(peer, message, std::move(pending))) {
        callbacks_.on_lost(peer, std::move(pending), UpstreamLoss::kUnsent);
      }
    }
  }

  bool overdue(std::uint32_t peer, Clock::time_point now) const override {
    const std::deque<Entry>& inflight = slots_[peer].inflight;
    return !inflight.empty() && inflight.front().deadline <= now;
  }

  void grow(std::size_t count) override { slots_.resize(count); }

  Callbacks callbacks_;
  std::vector<Slot> slots_;  ///< index = peer, sized with peers_
  std::vector<Queued> spare_;     ///< flush_peer's second queue buffer
  std::vector<Pending> settled_;  ///< settle's batch scratch
};

}  // namespace scp::net
