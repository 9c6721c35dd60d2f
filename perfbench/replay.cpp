#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "cache/perfect_cache.h"
#include "cluster/partitioner.h"
#include "cluster/routing.h"
#include "kvstore/storage_engine.h"
#include "net/fleet.h"
#include "net/frontend_server.h"
#include "replication/quorum.h"

namespace perfbench {

namespace {

using scp::net::Message;
using scp::net::MsgType;

struct Span {
  std::uint32_t request = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  Layer layer = Layer::kRequest;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  ///< time covered by direct children
};

/// Spans kept in memory; off costs one branch per layer call.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  void reserve(std::size_t spans) {
    if (on_) spans_.reserve(spans);
  }
  void set_request(std::uint32_t request) noexcept { request_ = request; }

  void open(Layer layer) {
    if (!on_) return;
    Span span;
    span.request = request_;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    span.layer = layer;
    span.start_ns = now_ns();
    stack_.push_back(spans_.size());
    spans_.push_back(span);
  }
  void close() {
    if (!on_) return;
    Span& span = spans_[stack_.back()];
    span.end_ns = now_ns();
    stack_.pop_back();
    if (!stack_.empty()) {
      spans_[stack_.back()].child_ns += span.end_ns - span.start_ns;
    }
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool on_;
  std::uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, Layer layer) : tracer_(tracer) { tracer_.open(layer); }
  ~Scope() { tracer_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

/// The tier's state as the replay sees it: one partitioner, the perfect
/// cache, one storage engine per backend, routing loads and RNG.
class Tier {
 public:
  explicit Tier(const ReplayConfig& config)
      : config_(config),
        partitioner_(scp::make_partitioner(defaults_.partitioner, config.nodes,
                                           config.replication,
                                           defaults_.partition_seed)),
        stores_(config.nodes),
        loads_(config.nodes, 0.0),
        group_(config.replication),
        rng_(config.seed ^ 0x5eedULL) {
    std::vector<scp::KeyId> keys(config.spec.items);
    std::vector<double> weights(config.spec.items);
    for (std::uint64_t key = 0; key < config.spec.items; ++key) {
      keys[key] = key;
      weights[key] = 1.0 / static_cast<double>(key + 1);  // rank order
    }
    cache_ = std::make_unique<scp::PerfectCache>(config.cache_capacity, keys,
                                                 weights);
    // Backends preload every key they own (setup, not traced).
    for (std::uint64_t key = 0; key < config.spec.items; ++key) {
      partitioner_->replica_group(key, group_);
      const std::string value =
          scp::net::make_value(key, config.spec.value_bytes);
      for (const scp::NodeId node : group_) {
        stores_[node].apply_put(key, value, 1);
      }
    }
  }

  /// Replays one op; returns false when a GET's value was wrong.
  bool serve(const Op& op, std::uint32_t seq, Tracer& t) {
    Scope root(t, Layer::kRequest);
    request_.type = op.kind == OpKind::kGet ? MsgType::kGet : MsgType::kPut;
    request_.key = op.key;
    request_.payload.clear();
    if (op.kind == OpKind::kPut) {
      request_.payload = write_value(op.key, seq, config_.spec.value_bytes);
    }
    Message at_fe = hop(request_, t);  // client -> FE
    if (config_.fleet > 1) {
      // client -> router, member pick, router -> FE
      {
        Scope s(t, Layer::kRouteSelect);
        const auto candidates = scp::net::fleet_candidates(
            op.key, defaults_.fleet_seed, config_.fleet);
        member_ = op.key < config_.cache_capacity || rng_.bernoulli(0.5)
                      ? candidates.owner
                      : candidates.alternate;
      }
      at_fe = hop(at_fe, t);
    }
    Message reply = op.kind == OpKind::kGet ? frontend_get(at_fe, t)
                                            : frontend_put(at_fe, t);
    if (config_.fleet > 1) reply = hop(reply, t);  // FE -> router
    const Message at_client = hop(reply, t);       // -> client
    if (op.kind == OpKind::kPut) {
      written_[op.key] = request_.payload;
      return at_client.type == MsgType::kWriteReply;
    }
    auto it = written_.find(op.key);
    const std::string expected =
        it != written_.end()
            ? it->second
            : scp::net::make_value(op.key, config_.spec.value_bytes);
    return at_client.type == MsgType::kValue && at_client.payload == expected;
  }

 private:
  /// One wire hop: encode at the sender, decode at the receiver.
  Message hop(const Message& message, Tracer& t) {
    {
      Scope s(t, Layer::kWireEncode);
      scp::net::encode_into(message, frame_);
    }
    Scope s(t, Layer::kWireDecode);
    auto decoded = scp::net::decode_payload(std::span<const std::uint8_t>(
        frame_.data() + scp::net::kLengthPrefixBytes,
        frame_.size() - scp::net::kLengthPrefixBytes));
    return decoded ? std::move(*decoded) : Message{};
  }

  scp::NodeId route(std::uint64_t key, Tracer& t) {
    Scope s(t, Layer::kRouteSelect);
    partitioner_->replica_group(key, group_);
    auto pin = pins_.find(key);
    if (pin != pins_.end()) return pin->second;
    const scp::NodeId node =
        group_[scp::least_loaded_pick(group_, loads_, rng_)];
    pins_.emplace(key, node);
    return node;
  }

  Message frontend_get(const Message& request, Tracer& t) {
    Message reply;
    reply.type = MsgType::kValue;
    reply.key = request.key;
    bool hit = false;
    {
      Scope s(t, Layer::kCacheLookup);
      hit = written_.count(request.key) == 0 && cache_->contains(request.key);
      if (hit) {
        reply.payload =
            scp::net::make_value(request.key, config_.spec.value_bytes);
      }
    }
    if (hit) return reply;
    const scp::NodeId node = route(request.key, t);
    const Message at_backend = hop(request, t);
    {
      Scope s(t, Layer::kKvGet);
      auto value = stores_[node].get(at_backend.key);
      if (value) {
        reply.payload = std::move(*value);
      } else {
        reply.type = MsgType::kMiss;
      }
    }
    return hop(reply, t);  // backend -> FE
  }

  Message frontend_put(const Message& request, Tracer& t) {
    const scp::NodeId coordinator = route(request.key, t);
    const Message at_coordinator = hop(request, t);
    Message reply;
    reply.type = MsgType::kWriteReply;
    reply.key = request.key;
    {
      Scope s(t, Layer::kQuorumWrite);
      const std::uint64_t version = ++clock_;
      // Majority of d, counting the coordinator's own apply.
      scp::replication::WriteQuorum quorum(config_.replication / 2 + 1,
                                           config_.replication);
      {
        Scope put(t, Layer::kKvPut);
        stores_[coordinator].apply_put(at_coordinator.key,
                                       at_coordinator.payload, version);
      }
      quorum.on_ack();
      Message replicate;
      replicate.type = MsgType::kReplicate;
      replicate.key = at_coordinator.key;
      replicate.version = version;
      replicate.payload = at_coordinator.payload;
      for (const scp::NodeId node : group_) {
        if (node == coordinator) continue;
        const Message at_replica = hop(replicate, t);
        Message ack;
        ack.type = MsgType::kRepAck;
        ack.key = at_replica.key;
        ack.version = at_replica.version;
        {
          Scope put(t, Layer::kKvPut);
          if (stores_[node].apply_put(at_replica.key, at_replica.payload,
                                      at_replica.version)) {
            ack.flags = scp::net::kFlagApplied;
          }
        }
        hop(ack, t);
        quorum.on_ack();
      }
      reply.version = version;
      if (quorum.state() != scp::replication::QuorumState::kDone) {
        reply.type = MsgType::kError;
      }
    }
    return hop(reply, t);  // coordinator -> FE
  }

  const scp::net::FrontendConfig defaults_{};
  const ReplayConfig& config_;
  std::unique_ptr<scp::ReplicaPartitioner> partitioner_;
  std::unique_ptr<scp::PerfectCache> cache_;
  std::vector<scp::StorageEngine> stores_;
  std::vector<double> loads_;
  std::vector<scp::NodeId> group_;
  std::unordered_map<std::uint64_t, scp::NodeId> pins_;
  std::unordered_map<std::uint64_t, std::string> written_;
  scp::Rng rng_;
  std::uint64_t clock_ = 1;
  std::uint64_t member_ = 0;
  Message request_;
  std::vector<std::uint8_t> frame_;
};

struct Pass {
  double ns_per_req = 0;
  std::uint64_t wrong = 0;
};

Pass run_pass(const ReplayConfig& config, const std::vector<Op>& ops,
              Tracer& tracer) {
  Tier tier(config);
  tracer.reserve(ops.size() * 24);
  Pass pass;
  std::uint32_t seq = 0;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    tracer.set_request(static_cast<std::uint32_t>(i + 1));
    if (!tier.serve(ops[i], ++seq, tracer)) ++pass.wrong;
  }
  pass.ns_per_req = static_cast<double>(now_ns() - start) /
                    static_cast<double>(ops.size());
  return pass;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kWireEncode: return "wire.encode";
    case Layer::kWireDecode: return "wire.decode";
    case Layer::kCacheLookup: return "cache.lookup";
    case Layer::kRouteSelect: return "route.select";
    case Layer::kKvGet: return "kvstore.get";
    case Layer::kKvPut: return "kvstore.put";
    case Layer::kQuorumWrite: return "quorum.write";
  }
  return "unknown";
}

ReplayResult run_replay(const ReplayConfig& config,
                        const std::string& spans_path) {
  std::vector<Op> ops;
  ops.reserve(config.requests);
  OpStream stream(config.spec, config.seed);
  for (std::uint32_t i = 0; i < config.requests; ++i) {
    ops.push_back(stream.next());
  }

  ReplayResult result;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<Span> last_spans;
  for (int p = 0; p < config.passes; ++p) {
    // Alternate which mode goes first so drift hits both alike.
    for (int half = 0; half < 2; ++half) {
      const bool trace_on = (half == 0) == (p % 2 == 1);
      Tracer tracer(trace_on);
      const Pass pass = run_pass(config, ops, tracer);
      result.wrong_values = std::max(result.wrong_values, pass.wrong);
      (trace_on ? traced : untraced).push_back(pass.ns_per_req);
      if (trace_on) last_spans = tracer.spans();
    }
  }
  result.untraced_ns_per_req = median(untraced);
  result.traced_ns_per_req = median(traced);
  result.spans = last_spans.size();
  for (const Span& span : last_spans) {
    result.self_ns_per_req[static_cast<int>(span.layer)] +=
        static_cast<double>(span.end_ns - span.start_ns - span.child_ns);
  }
  for (double& self : result.self_ns_per_req) {
    self /= static_cast<double>(config.requests);
  }

  if (!spans_path.empty()) {
    if (std::FILE* out = std::fopen(spans_path.c_str(), "w")) {
      std::fprintf(out, "request\tspan\tparent\tlayer\tstart_ns\tend_ns\n");
      for (const Span& span : last_spans) {
        std::fprintf(out, "%u\t%u\t%u\t%s\t%lld\t%lld\n", span.request,
                     span.id, span.parent, layer_name(span.layer),
                     static_cast<long long>(span.start_ns),
                     static_cast<long long>(span.end_ns));
      }
      std::fclose(out);
    }
  }
  return result;
}

}  // namespace perfbench
