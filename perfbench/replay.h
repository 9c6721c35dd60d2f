// Traced replay: a single-threaded walk of a sample of one workload's
// requests through the serving tier's layer functions, in request order,
// with a span around every layer call. It runs in the benchmark process, not
// in the servers, so its self times price each layer's own work without the
// reactors, sockets and scheduling that the live run adds; the live run's
// CPU per request is the denominator that shows how much that leaves out.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "client.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kRequest = 0,   ///< root span of one request
  kWireEncode,    ///< net::encode_into
  kWireDecode,    ///< net::decode_payload
  kCacheLookup,   ///< PerfectCache lookup + value synthesis on a hit
  kRouteSelect,   ///< replica group + least-loaded pick; fleet member pick
  kKvGet,         ///< StorageEngine::get
  kKvPut,         ///< StorageEngine::apply_put
  kQuorumWrite,   ///< WriteQuorum state machine of one PUT
};
inline constexpr int kLayers = 8;
const char* layer_name(Layer layer) noexcept;

struct ReplayConfig {
  WorkloadSpec spec;
  std::uint32_t nodes = 4;
  std::uint32_t replication = 2;
  std::uint64_t cache_capacity = 64;
  std::uint32_t fleet = 1;   ///< > 1: requests pass an edge router first
  std::uint64_t seed = 1;
  std::uint32_t requests = 20000;
  int passes = 5;            ///< untraced and traced passes, alternating
};

struct ReplayResult {
  double untraced_ns_per_req = 0;  ///< median over passes
  double traced_ns_per_req = 0;    ///< median over passes
  /// Self time per replayed request, from the last traced pass. The
  /// layers' self times sum to its mean root-span duration.
  std::array<double, kLayers> self_ns_per_req{};
  std::uint64_t spans = 0;
  std::uint64_t wrong_values = 0;  ///< replayed GETs whose value was wrong
};

/// Replays `config.requests` ops and writes the last traced pass's spans to
/// `spans_path` as tab-separated rows (request, span, parent, layer,
/// start_ns, end_ns); empty path = keep them in memory only.
ReplayResult run_replay(const ReplayConfig& config,
                        const std::string& spans_path);

}  // namespace perfbench
