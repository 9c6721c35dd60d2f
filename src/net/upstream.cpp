#include "net/upstream.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace scp::net {

double reconnect_delay_s(std::uint32_t attempt) noexcept {
  return std::min(
      kReconnectBaseS * static_cast<double>(1u << std::min(attempt, 10u)),
      kReconnectCapS);
}

UpstreamPeers::UpstreamPeers(Reactor& loop, Options options,
                             StateFn on_state, UnsolicitedFn on_unsolicited)
    : loop_(loop),
      options_(options),
      on_state_(std::move(on_state)),
      on_unsolicited_(std::move(on_unsolicited)) {}

void UpstreamPeers::set_peer(std::uint32_t peer, const std::string& address,
                             std::uint16_t port) {
  if (peers_.size() <= peer) {
    peers_.resize(peer + 1);
    grow(peers_.size());
  }
  Peer& target = peers_[peer];
  target.address = address;
  target.port = port;
  target.removed = false;
  if (target.conn == kInvalidConn) dial(peer);
}

void UpstreamPeers::remove_peer(std::uint32_t peer) {
  if (peer >= peers_.size()) return;
  Peer& target = peers_[peer];
  target.removed = true;
  if (target.up) {
    loop_.close_connection(target.conn);  // on_close reports the losses
  } else if (target.conn != kInvalidConn) {
    // Still connecting: the connect outcome for this conn is ignored.
    by_conn_.erase(target.conn);
    loop_.close_connection(target.conn);
    target.conn = kInvalidConn;
  }
  peer_lost(peer);  // deferred frames; a no-op after on_close
}

void UpstreamPeers::start() {
  if (options_.timeout_s > 0.0) {
    loop_.run_after(kUpstreamSweepS, [this] { sweep(); });
  }
}

bool UpstreamPeers::on_message(ConnId conn, Message&& message) {
  const auto it = by_conn_.find(conn);
  if (it == by_conn_.end()) return false;
  const std::uint32_t peer = it->second;
  if (message.id == 0) {
    if (on_unsolicited_) on_unsolicited_(peer, std::move(message));
    return true;
  }
  if (!settle(peer, std::move(message))) {
    // Not a request in flight here: the stream can no longer be trusted.
    // Resetting reports everything on it lost, to be retried elsewhere.
    SCP_LOG_WARN << options_.name << ": reply mismatch from peer " << peer
                 << "; resetting connection";
    loop_.close_connection(conn);
  }
  return true;
}

bool UpstreamPeers::on_close(ConnId conn) {
  const auto it = by_conn_.find(conn);
  if (it == by_conn_.end()) return false;
  const std::uint32_t peer = it->second;
  by_conn_.erase(it);
  Peer& target = peers_[peer];
  target.conn = kInvalidConn;
  if (target.up) {
    target.up = false;
    up_count_.fetch_sub(1, std::memory_order_release);
    if (on_state_) on_state_(peer, false);
  }
  peer_lost(peer);
  if (!target.removed) schedule_reconnect(peer);
  return true;
}

bool UpstreamPeers::on_connect(ConnId conn, bool ok) {
  const auto it = by_conn_.find(conn);
  if (it == by_conn_.end()) return false;
  const std::uint32_t peer = it->second;
  Peer& target = peers_[peer];
  if (!ok) {
    by_conn_.erase(it);
    target.conn = kInvalidConn;
    if (!target.removed) schedule_reconnect(peer);
    return true;
  }
  target.up = true;
  target.connect_attempts = 0;
  // Release: a thread that sees the new count (acquire in up_count())
  // also sees the connection table as of this connect.
  up_count_.fetch_add(1, std::memory_order_release);
  if (on_state_) on_state_(peer, true);
  peer_up(peer);
  return true;
}

bool UpstreamPeers::send_untracked(std::uint32_t peer,
                                   const Message& message) {
  return up(peer) && loop_.send(peers_[peer].conn, message);
}

void UpstreamPeers::dial(std::uint32_t peer) {
  Peer& target = peers_[peer];
  target.conn = loop_.connect(target.address, target.port);
  by_conn_[target.conn] = peer;
}

void UpstreamPeers::schedule_reconnect(std::uint32_t peer) {
  if (stopping_.load()) return;
  const double delay = reconnect_delay_s(peers_[peer].connect_attempts++);
  loop_.run_after(delay, [this, peer] {
    if (stopping_.load()) return;
    const Peer& target = peers_[peer];
    if (target.removed || target.conn != kInvalidConn) return;
    dial(peer);
  });
}

void UpstreamPeers::sweep() {
  if (stopping_.load()) return;
  const Clock::time_point now = Clock::now();
  for (std::uint32_t peer = 0; peer < peers_.size(); ++peer) {
    // Head-of-line timeout: everything behind the oldest request is late
    // too. The reset reports them all lost.
    if (peers_[peer].up && overdue(peer, now)) {
      loop_.close_connection(peers_[peer].conn);
    }
  }
  loop_.run_after(kUpstreamSweepS, [this] { sweep(); });
}

}  // namespace scp::net
