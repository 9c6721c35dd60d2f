#include "net/router_server.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/log.h"

namespace scp::net {

RouterServer::RouterServer(RouterConfig config)
    : config_(std::move(config)),
      loop_(make_reactor(
          ReactorOptions{.kind = config_.reactor, .busy_poll = config_.busy_poll})),
      router_(static_cast<std::uint32_t>(config_.frontends.size()),
              config_.fleet_seed),
      rng_(config_.seed),
      // batch_max <= 1 never queues: one kGet frame per dispatch. A
      // kBatchGet cannot carry more keys than the decoder accepts.
      members_(*loop_,
               UpstreamPeers::Options{
                   .name = "scp_router",
                   .timeout_s = config_.timeout_s,
                   .batch_max = std::min(config_.batch_max, kMaxBatchEntries)},
               Upstream<PendingRequest>::Callbacks{
                   .on_reply =
                       [this](std::uint32_t member, PendingRequest&& request,
                              Message&& reply) {
                         handle_member(member, std::move(request),
                                       std::move(reply));
                       },
                   .on_lost =
                       [this](std::uint32_t member, PendingRequest&& request,
                              UpstreamLoss loss) {
                         on_dispatch_lost(member, std::move(request), loss);
                       },
                   .on_sent =
                       [this](std::uint32_t member, PendingRequest& request,
                              std::uint64_t /*sent_ns*/) {
                         on_dispatch_sent(member, request);
                       },
                   .on_state =
                       [this](std::uint32_t member, bool up) {
                         router_.set_up(member, up);
                       },
                   .on_unsolicited =
                       [this](std::uint32_t member, Message&& message) {
                         handle_scrape(member, message);
                       }}) {}

RouterServer::~RouterServer() { stop(0.0); }

bool RouterServer::start() {
  if (config_.frontends.empty()) {
    SCP_LOG_ERROR << "scp_router: no fleet members configured";
    return false;
  }
  if (config_.max_hops == 0) config_.max_hops = 1;

  // Members start pessimistically down; they flip up as they connect.
  for (std::size_t i = 0; i < config_.frontends.size(); ++i) {
    router_.set_up(static_cast<std::uint32_t>(i), false);
  }
  Reactor::Callbacks callbacks;
  callbacks.on_message = [this](ConnId conn, Message&& message) {
    if (!members_.on_message(conn, std::move(message))) {
      handle_client(conn, std::move(message));
    }
  };
  // A client hanging up needs nothing: its pending replies fail at send.
  callbacks.on_close = [this](ConnId conn) { members_.on_close(conn); };
  callbacks.on_connect = [this](ConnId conn, bool ok) {
    members_.on_connect(conn, ok);
  };
  loop_->set_callbacks(std::move(callbacks));

  if (config_.metrics) {
    request_us_ = &registry_.timer("router.request_us");
    member_rtt_us_ = &registry_.timer("router.fe_rtt_us");
    member_dispatches_.resize(config_.frontends.size());
    for (std::size_t i = 0; i < config_.frontends.size(); ++i) {
      member_dispatches_[i] =
          &registry_.counter("router.dispatches.fe" + std::to_string(i));
    }
    loop_->set_metrics(&registry_);
  }

  if (!loop_->listen(config_.address, config_.port)) return false;
  if (config_.metrics_port >= 0) {
    metrics_http_ = std::make_unique<obs::MetricsHttpServer>(
        [this] { return metrics_snapshot(); });
    if (!metrics_http_->start(
            static_cast<std::uint16_t>(config_.metrics_port))) {
      SCP_LOG_ERROR << "scp_router: failed to bind metrics port "
                    << config_.metrics_port;
      return false;
    }
  }

  for (std::uint32_t member = 0; member < config_.frontends.size(); ++member) {
    members_.set_peer(member, config_.frontends[member].first,
                      config_.frontends[member].second);
  }
  members_.start();
  loop_->run_after(config_.scrape_interval_s, [this] { scrape_members(); });

  if (!loop_->start()) return false;
  SCP_LOG_INFO << "scp_router serving on " << config_.address << ":"
               << loop_->port() << " (fleet=" << config_.frontends.size()
               << " scrape=" << config_.scrape_interval_s << "s)";
  return true;
}

void RouterServer::stop(double drain_s) {
  stopping_.store(true);
  members_.stop();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(drain_s));
  while (pending_total_.load() > 0 &&
         std::chrono::steady_clock::now() < deadline && loop_->running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  loop_->stop();
  if (metrics_http_ != nullptr) {
    metrics_http_->stop();
  }
}

std::uint16_t RouterServer::port() const noexcept { return loop_->port(); }

bool RouterServer::running() const noexcept { return loop_->running(); }

ReactorKind RouterServer::reactor_kind() const noexcept {
  return loop_->kind();
}

bool RouterServer::wait_frontends_up(double timeout_s) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  while (members_.up_count() < config_.frontends.size()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

ServerStats RouterServer::stats() const {
  ServerStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.forwarded = forwarded_.load(std::memory_order_relaxed);
  stats.redirects = redirects_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.failures = failures_.load(std::memory_order_relaxed);
  stats.attempts = attempts_.load(std::memory_order_relaxed);
  return stats;
}

obs::MetricsSnapshot RouterServer::metrics_snapshot() const {
  obs::MetricsSnapshot snap = registry_.snapshot();
  snap.counters["router.requests"] =
      requests_.load(std::memory_order_relaxed);
  snap.counters["router.forwarded"] =
      forwarded_.load(std::memory_order_relaxed);
  snap.counters["router.redirects_followed"] =
      redirects_.load(std::memory_order_relaxed);
  snap.counters["router.retries"] = retries_.load(std::memory_order_relaxed);
  snap.counters["router.failures"] =
      failures_.load(std::memory_order_relaxed);
  snap.counters["router.attempts_total"] =
      attempts_.load(std::memory_order_relaxed);
  const auto [batch_frames, batch_keys] = members_.batch_totals();
  snap.counters["router.batch_frames"] = batch_frames;
  snap.counters["router.batch_keys"] = batch_keys;
  snap.counters["router.scrapes"] = scrapes_.load(std::memory_order_relaxed);
  snap.gauges["router.scrape_ms"] =
      static_cast<std::int64_t>(config_.scrape_interval_s * 1000.0);
  snap.gauges["router.frontends_up"] =
      static_cast<std::int64_t>(members_.up_count());
  snap.gauges["router.fleet_size"] =
      static_cast<std::int64_t>(config_.frontends.size());
  snap.gauges["router.pending_requests"] = static_cast<std::int64_t>(
      pending_total_.load(std::memory_order_relaxed));
  const ReactorCounters& loop = loop_->counters();
  snap.counters["loop.syscalls"] =
      loop.syscalls.load(std::memory_order_relaxed);
  snap.counters["loop.wakeups"] = loop.wakeups.load(std::memory_order_relaxed);
  snap.counters["loop.frames_in"] =
      loop.frames_in.load(std::memory_order_relaxed);
  snap.counters["loop.frames_out"] =
      loop.frames_out.load(std::memory_order_relaxed);
  snap.counters["loop.buf_starved"] =
      loop.buf_starved.load(std::memory_order_relaxed);
  return snap;
}

std::uint16_t RouterServer::metrics_http_port() const noexcept {
  return metrics_http_ != nullptr ? metrics_http_->port() : 0;
}

void RouterServer::handle_client(ConnId conn, Message&& message) {
  const Caller client{conn, message.id};
  switch (message.type) {
    case MsgType::kGet:
    case MsgType::kPut:
    case MsgType::kDelete:
    case MsgType::kQuorumGet: {
      // Writes and quorum reads route like GETs; the fleet member either
      // serves them (invalidating its cache slice on the way) or answers
      // kRedirect toward the owner, which handle_member replays with the
      // same op and payload.
      requests_.fetch_add(1, std::memory_order_relaxed);
      pending_total_.fetch_add(1, std::memory_order_relaxed);
      dispatch({.client = client,
                .key = message.key,
                .op = message.type,
                .payload = std::move(message.payload),
                .start_ns = request_us_ != nullptr ? obs::now_ns() : 0});
      return;
    }
    case MsgType::kStats: {
      Message reply;
      reply.type = MsgType::kStatsReply;
      reply.stats = stats();
      loop_->reply(client, reply);
      return;
    }
    case MsgType::kMetricsRequest: {
      Message reply;
      reply.type = MsgType::kMetricsReply;
      reply.metrics = metrics_snapshot();
      loop_->reply(client, reply);
      return;
    }
    case MsgType::kPing: {
      Message reply;
      reply.type = MsgType::kPong;
      loop_->reply(client, reply);
      return;
    }
    default: {
      Message reply;
      reply.type = MsgType::kError;
      reply.key = message.key;
      reply.payload = "unexpected message type";
      loop_->reply(client, reply);
      return;
    }
  }
}

void RouterServer::handle_member(std::uint32_t member,
                                 PendingRequest&& request, Message&& reply) {
  router_.on_complete(member);
  ++request.hops;
  if (reply.type == MsgType::kRedirect) {
    // A cached key landed on the non-owner: follow the hop to the owner
    // (reply.node is a *fleet index*). Transparent to the client.
    redirects_.fetch_add(1, std::memory_order_relaxed);
    if (request.hops >= config_.max_hops) {
      fail_request(request);
      return;
    }
    const std::uint32_t owner = reply.node;
    if (owner < config_.frontends.size() &&
        dispatch_to(owner, std::move(request))) {
      return;
    }
    // Owner down: let the surviving candidate serve the forward path
    // instead of failing outright.
    dispatch(std::move(request));
    return;
  }

  // kValue / kMiss / kError relay verbatim under the client's own request
  // id; the client sees exactly what the fleet member answered. An error
  // still counts as a failure (not a forward) so requests == forwarded +
  // failures holds at the router too.
  if (reply.type == MsgType::kError) {
    failures_.fetch_add(1, std::memory_order_relaxed);
  } else {
    forwarded_.fetch_add(1, std::memory_order_relaxed);
  }
  pending_total_.fetch_sub(1, std::memory_order_relaxed);
  if (request_us_ != nullptr && request.start_ns != 0) {
    request_us_->record((obs::now_ns() - request.start_ns) / 1'000);
  }
  loop_->reply(request.client, reply);
}

void RouterServer::handle_scrape(std::uint32_t member,
                                 const Message& message) {
  if (message.type != MsgType::kMetricsReply) return;
  // Refresh this member's load base: its own request counter plus whatever
  // it still has in flight toward the backends.
  std::uint64_t load = 0;
  auto counter = message.metrics.counters.find("frontend.requests");
  if (counter != message.metrics.counters.end()) load = counter->second;
  auto gauge = message.metrics.gauges.find("frontend.pending_requests");
  if (gauge != message.metrics.gauges.end() && gauge->second > 0) {
    load += static_cast<std::uint64_t>(gauge->second);
  }
  router_.set_scraped_load(member, load);
}

void RouterServer::on_dispatch_sent(std::uint32_t member,
                                    const PendingRequest& request) {
  // One key on the wire (a batch counts per key).
  attempts_.fetch_add(1, std::memory_order_relaxed);
  if (request.hops > 0) retries_.fetch_add(1, std::memory_order_relaxed);
  if (member < member_dispatches_.size()) member_dispatches_[member]->inc();
}

void RouterServer::on_dispatch_lost(std::uint32_t member,
                                    PendingRequest&& request,
                                    UpstreamLoss loss) {
  router_.on_complete(member);
  // A dispatch that never hit the wire is routed again without burning a
  // hop; one lost in flight counts its hop. The dead member is marked down
  // by now, so pick() routes around it.
  if (loss == UpstreamLoss::kClosed) ++request.hops;
  dispatch(std::move(request));
}

bool RouterServer::dispatch_to(std::uint32_t member,
                               PendingRequest&& request) {
  bool sent = false;
  if (request.op == MsgType::kGet) {
    sent = members_.queue_get(member, request.key, std::move(request));
  } else {
    Message message;
    message.type = request.op;
    message.key = request.key;
    if (request.op == MsgType::kPut) message.payload = request.payload;
    sent = members_.send(member, message, std::move(request));
  }
  if (sent) router_.on_dispatch(member);
  return sent;
}

void RouterServer::dispatch(PendingRequest&& request) {
  if (request.hops >= config_.max_hops) {
    fail_request(request);
    return;
  }
  const std::uint32_t member = router_.pick(request.key, rng_);
  if (member != kNoFleetMember && dispatch_to(member, std::move(request))) {
    return;
  }
  // pick() chose a member whose send failed, or nothing is live: try the
  // remaining candidate once before giving up.
  const FleetCandidates candidates = router_.candidates_of(request.key);
  const std::uint32_t other =
      member == candidates.owner ? candidates.alternate : candidates.owner;
  if (other != member && router_.up(other) &&
      dispatch_to(other, std::move(request))) {
    return;
  }
  fail_request(request);
}

void RouterServer::fail_request(const PendingRequest& request) {
  failures_.fetch_add(1, std::memory_order_relaxed);
  pending_total_.fetch_sub(1, std::memory_order_relaxed);
  Message reply;
  reply.type = MsgType::kError;
  reply.key = request.key;
  reply.payload = "no live front end";
  loop_->reply(request.client, reply);
}

void RouterServer::scrape_members() {
  if (stopping_.load()) return;
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  // Untagged: the reply comes back through on_unsolicited, outside the
  // request table.
  Message probe;
  probe.type = MsgType::kMetricsRequest;
  for (std::uint32_t member = 0; member < config_.frontends.size(); ++member) {
    members_.send_untracked(member, probe);
  }
  loop_->run_after(config_.scrape_interval_s, [this] { scrape_members(); });
}

}  // namespace scp::net
