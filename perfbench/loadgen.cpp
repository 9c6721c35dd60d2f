// perfbench_loadgen — load generator and traced replay for the live-tier
// benchmark (run.py starts the servers and calls this).
//
//   perfbench_loadgen run --target 127.0.0.1:PORT --servers fe:PORT:PID,...
//       [workload and phase flags]         live phases; one JSON object out
//   perfbench_loadgen replay [workload flags] --spans FILE
//                                          traced replay; one JSON object out
//
// A live run is a warm-up (not measured) and then 1 s rounds of three
// phases: a fixed-rate open-loop phase with Poisson arrivals timed from the
// scheduled send, a closed-loop saturation phase with a fixed number of
// requests in flight, and a ceiling phase in which the same client drives an
// in-process null server. Server counters are scraped with kMetricsRequest
// and CPU is read from /proc at each phase boundary, after the phase has
// drained.
//
// The null server's CPU time per request in each round's ceiling phase is
// the reference for the machine's speed in that round: the end-to-end time
// figures are scaled to a machine on which it costs kRefUs (README.md,
// "Machine-speed reference").
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "common/flags.h"
#include "net/sync_client.h"
#include "replay.h"

namespace perfbench {
namespace {

constexpr std::int64_t kSecond = 1'000'000'000;
constexpr std::int64_t kClientTimeoutNs = 3 * kSecond;
/// Unmeasured warm-up before the first round (connections, page faults).
constexpr double kWarmupS = 0.3;
/// Goodput sub-windows per saturation phase.
constexpr int kSlices = 4;
/// Unmeasured lead-in of every phase (arrivals and in-flight window settle).
constexpr double kLeadS = 0.05;
/// Rounds with at most this share of machine CPU stolen count as quiet.
constexpr double kQuietSteal = 0.02;
/// Shares of a round taken by the fixed-rate, saturation and ceiling phases.
constexpr double kFixedShare = 0.4;
constexpr double kSatShare = 0.4;
constexpr double kCeilingShare = 0.2;
/// The null server's CPU time per request that the end-to-end figures are
/// scaled to: a typical value on a 4-vCPU Xeon (Sapphire Rapids) VM.
constexpr double kRefUs = 0.37;
/// Client connections, one thread each, and the closed loop's requests in
/// flight per connection.
constexpr std::uint32_t kConns = 2;
constexpr std::uint32_t kWindow = 64;

struct Server {
  std::string role;  ///< fe | be | router
  std::uint16_t port = 0;
  int pid = 0;
};

using Counters = std::map<std::string, std::uint64_t>;

/// Counters and CPU of every server, at one instant or summed over phases.
struct Snapshot {
  std::vector<Counters> counters;  ///< per server
  std::vector<double> cpu_us;      ///< per server
  bool ok = true;
};

/// On-CPU time of every thread of `pid`, from the first field of each
/// thread's schedstat, in ns (utime and stime count whole 10 ms ticks).
double read_cpu_us(int pid) {
  std::error_code error;
  double sum_ns = 0;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", error)) {
    std::ifstream in(task.path() / "schedstat");
    double on_cpu_ns = 0;
    if (in >> on_cpu_ns) sum_ns += on_cpu_ns;
  }
  return error ? -1 : sum_ns / 1e3;
}

/// Machine-wide CPU ticks from /proc/stat: user nice system idle iowait
/// irq softirq steal ...
std::vector<std::uint64_t> machine_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::vector<std::uint64_t> ticks;
  std::uint64_t value = 0;
  for (int i = 0; i < 8 && in >> value; ++i) ticks.push_back(value);
  return ticks;
}

/// Share of machine CPU time the hypervisor gave to other guests.
double steal_frac(const std::vector<std::uint64_t>& before,
                  const std::vector<std::uint64_t>& after) {
  if (before.size() < 8 || after.size() < 8) return 0;
  double total = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    total += static_cast<double>(after[i] - before[i]);
  }
  return total > 0 ? static_cast<double>(after[7] - before[7]) / total : 0;
}

double read_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

Snapshot take_snapshot(const std::vector<Server>& servers) {
  Snapshot snap;
  for (const Server& server : servers) {
    snap.cpu_us.push_back(read_cpu_us(server.pid));
    scp::net::SyncClient client;
    scp::net::Message request;
    request.type = scp::net::MsgType::kMetricsRequest;
    std::optional<scp::net::Message> reply;
    if (client.connect("127.0.0.1", server.port, 2.0)) {
      reply = client.call(request, 2.0);
    }
    if (!reply || reply->type != scp::net::MsgType::kMetricsReply) {
      std::fprintf(stderr, "perfbench: metrics scrape of %s:%u failed\n",
                   server.role.c_str(), server.port);
      snap.ok = false;
      snap.counters.emplace_back();
      continue;
    }
    snap.counters.push_back(reply->metrics.counters);
  }
  return snap;
}

/// Adds b - a to `sum`, server by server.
void accumulate(const Snapshot& a, const Snapshot& b, Snapshot& sum) {
  sum.counters.resize(b.counters.size());
  sum.cpu_us.resize(b.cpu_us.size());
  for (std::size_t i = 0; i < b.counters.size(); ++i) {
    for (const auto& [name, after] : b.counters[i]) {
      auto before = a.counters[i].find(name);
      sum.counters[i][name] +=
          after - (before == a.counters[i].end() ? 0 : before->second);
    }
    sum.cpu_us[i] += b.cpu_us[i] - a.cpu_us[i];
  }
  sum.ok = sum.ok && a.ok && b.ok;
}

/// The one CPU `pid` may run on, or -1 when it may run on several.
int pinned_cpu(int pid) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(pid, sizeof(set), &set) != 0 || CPU_COUNT(&set) != 1) {
    return -1;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) return cpu;
  }
  return -1;
}

std::uint64_t counter(const Counters& counters, const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Sum of counter `name` over the servers of `role` ("" = all).
double total(const std::vector<Server>& servers, const Snapshot& d,
             const std::string& role, const std::string& name) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    if (role.empty() || servers[i].role == role) {
      sum += counter(d.counters[i], name);
    }
  }
  return static_cast<double>(sum);
}

double cpu_total_us(const std::vector<Server>& servers, const Snapshot& d,
                    const std::string& role) {
  double sum = 0;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    if (role.empty() || servers[i].role == role) sum += d.cpu_us[i];
  }
  return sum;
}

/// The FE ledger: every request is a hit, a forward, a coalesced wait, a
/// failure or a fleet redirect. Checked per FE process over one phase.
bool ledger_holds(const std::vector<Server>& servers, const Snapshot& d,
                  const char* phase) {
  bool holds = true;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    if (servers[i].role != "fe") continue;
    auto get = [&](const char* name) {
      return counter(d.counters[i], std::string("frontend.") + name);
    };
    const std::uint64_t requests = get("requests");
    const std::uint64_t settled = get("hits") + get("forwarded") +
                                  get("coalesced") + get("failures") +
                                  get("fleet_redirects");
    if (requests != settled) {
      std::fprintf(stderr,
                   "perfbench: FE :%u ledger broken in %s phase: requests=%"
                   PRIu64 " hits+forwarded+coalesced+failures+redirects=%"
                   PRIu64 "\n",
                   servers[i].port, phase, requests, settled);
      holds = false;
    }
  }
  return holds;
}

struct PhaseSpec {
  bool open_loop = false;
  double rate_per_conn = 0;      ///< open loop: Poisson arrivals per second
  std::uint32_t window = 64;     ///< closed loop: requests in flight
  std::int64_t start_ns = 0;     ///< sending starts
  std::int64_t measure_ns = 0;   ///< measured window starts
  std::int64_t end_ns = 0;       ///< sending stops; measured window ends
  int slices = 1;                ///< closed loop: goodput sub-windows
};

/// One phase's results, or several phases' pooled.
struct PhaseResult {
  Tally tally;
  std::vector<std::uint32_t> latency_ns;
  std::vector<std::uint32_t> lag_ns;
  std::vector<double> slice_qps;  ///< correct completions/s per sub-window

  void merge(const PhaseResult& other) {
    tally.merge(other.tally);
    latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                      other.latency_ns.end());
    lag_ns.insert(lag_ns.end(), other.lag_ns.begin(), other.lag_ns.end());
    slice_qps.insert(slice_qps.end(), other.slice_qps.begin(),
                     other.slice_qps.end());
  }
};

/// One connection's share of a phase, before sub-windows become rates.
struct WorkerResult {
  PhaseResult phase;
  std::vector<std::uint64_t> slice_ok;
};

void run_worker(const std::string& host, std::uint16_t port,
                ValueOracle& oracle, const WorkloadSpec& spec,
                std::uint64_t seed, const PhaseSpec& phase,
                WorkerResult& out) {
  PipelinedClient client(host, port, oracle);
  OpStream stream(spec, seed);
  out.slice_ok.assign(static_cast<std::size_t>(phase.slices), 0);
  const std::int64_t window_ns = phase.end_ns - phase.measure_ns;
  auto on_done = [&](const Pending& p, Outcome outcome, std::int64_t now) {
    const bool in_window = now >= phase.measure_ns && now < phase.end_ns;
    if (outcome == Outcome::kOk && in_window) {
      const std::int64_t slice =
          (now - phase.measure_ns) * phase.slices / window_ns;
      ++out.slice_ok[static_cast<std::size_t>(slice)];
    }
    if (phase.open_loop && p.due_ns >= phase.measure_ns) {
      // A failed request misses every latency limit.
      const std::int64_t latency =
          outcome == Outcome::kOk ? now - p.due_ns : INT32_MAX;
      out.phase.latency_ns.push_back(static_cast<std::uint32_t>(
          std::clamp<std::int64_t>(latency, 0, UINT32_MAX)));
    }
  };

  std::int64_t next_due = phase.start_ns;
  if (phase.open_loop) next_due += stream.gap_ns(phase.rate_per_conn);
  std::int64_t next_sweep = phase.start_ns + kSecond / 10;
  while (now_ns() < phase.start_ns) {
  }
  for (std::int64_t now = now_ns(); now < phase.end_ns; now = now_ns()) {
    if (!client.connected()) {
      if (!client.connect()) {
        std::fprintf(stderr, "perfbench: connect to :%u failed\n", port);
        ++out.phase.tally.connect_failures;
        return;
      }
    }
    if (phase.open_loop) {
      while (next_due <= now) {
        client.enqueue(stream.next(), next_due, now, out.phase.tally);
        if (next_due >= phase.measure_ns) {
          out.phase.lag_ns.push_back(static_cast<std::uint32_t>(
              std::min<std::int64_t>(now - next_due, UINT32_MAX)));
        }
        next_due += stream.gap_ns(phase.rate_per_conn);
      }
    } else {
      while (client.in_flight() < phase.window) {
        client.enqueue(stream.next(), now, now, out.phase.tally);
      }
    }
    client.flush(out.phase.tally, on_done);
    const std::int64_t wake =
        phase.open_loop ? std::min(next_due, phase.end_ns) : now + kSecond / 200;
    client.poll(std::max<std::int64_t>(wake - now_ns(), 0), out.phase.tally,
                on_done);
    if (now >= next_sweep) {
      client.expire(now, kClientTimeoutNs, out.phase.tally, on_done);
      next_sweep = now + kSecond / 10;
    }
  }
  // Drain: no new sends; every request gets its reply or times out.
  const std::int64_t deadline = phase.end_ns + kClientTimeoutNs;
  while (client.in_flight() > 0 && client.connected() && now_ns() < deadline) {
    client.poll(kSecond / 100, out.phase.tally, on_done);
  }
  client.expire(INT64_MAX / 2, 0, out.phase.tally, on_done);
}

PhaseResult run_phase(const std::string& host, std::uint16_t port,
                      ValueOracle& oracle, const WorkloadSpec& spec,
                      std::uint64_t seed, std::uint32_t conns,
                      PhaseSpec phase, double lead_s, double measure_s) {
  phase.start_ns = now_ns() + kSecond / 100;  // threads start together
  phase.measure_ns = phase.start_ns + static_cast<std::int64_t>(lead_s * 1e9);
  phase.end_ns = phase.measure_ns + static_cast<std::int64_t>(measure_s * 1e9);
  std::vector<WorkerResult> results(conns);
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      run_worker(host, port, oracle, spec, seed * 1000003ULL + c + 1, phase,
                 results[c]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  PhaseResult merged;
  std::vector<std::uint64_t> slice_ok(static_cast<std::size_t>(phase.slices));
  for (const WorkerResult& r : results) {
    merged.merge(r.phase);
    for (std::size_t s = 0; s < r.slice_ok.size(); ++s) {
      slice_ok[s] += r.slice_ok[s];
    }
  }
  for (const std::uint64_t ok : slice_ok) {
    merged.slice_qps.push_back(static_cast<double>(ok) * phase.slices /
                               measure_s);
  }
  return merged;
}

/// Linear-interpolated quantile q of `values`.
template <typename T>
double quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double low = static_cast<double>(values[lo]);
  return low + (static_cast<double>(values[hi]) - low) *
                   (pos - static_cast<double>(lo));
}

/// Flat JSON object writer for the result line.
class JsonOut {
 public:
  void num(const std::string& key, double value) {
    item(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(value) ? value : 0);
    text_ += buf;
  }
  void str(const std::string& key, const std::string& value) {
    item(key);
    text_ += "\"" + value + "\"";
  }
  void flag(const std::string& key, bool value) {
    item(key);
    text_ += value ? "true" : "false";
  }
  std::string done() const { return "{" + text_ + "}"; }

 private:
  void item(const std::string& key) {
    if (!text_.empty()) text_ += ", ";
    text_ += "\"" + key + "\": ";
  }
  std::string text_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void report_failures(JsonOut& json, const std::string& prefix,
                     const Tally& tally) {
  for (int op = 0; op < kOpKinds; ++op) {
    for (int o = 1; o < kOutcomes; ++o) {
      json.num(prefix + op_name(static_cast<OpKind>(op)) + "_" +
                   outcome_name(static_cast<Outcome>(o)),
               static_cast<double>(tally.outcomes[op][o]));
    }
  }
  json.num(prefix + "mismatched_replies",
           static_cast<double>(tally.mismatched_replies));
}

bool parse_servers(const std::string& list, std::vector<Server>& servers) {
  std::istringstream in(list);
  std::string entry;
  while (std::getline(in, entry, ',')) {
    const std::size_t a = entry.find(':');
    const std::size_t b = entry.find(':', a + 1);
    if (a == std::string::npos || b == std::string::npos) return false;
    Server server;
    server.role = entry.substr(0, a);
    server.port = static_cast<std::uint16_t>(
        std::stoul(entry.substr(a + 1, b - a - 1)));
    server.pid = std::stoi(entry.substr(b + 1));
    servers.push_back(server);
  }
  return !servers.empty();
}

void add_workload_flags(scp::FlagSet& flags, WorkloadSpec& spec,
                        std::string& dist, std::uint64_t& items,
                        std::uint64_t& value_bytes) {
  flags.add_string("dist", &dist, "key distribution: zipf|uniform");
  flags.add_uint64("items", &items, "key space size m");
  flags.add_double("write-frac", &spec.write_frac, "share of ops that PUT");
  flags.add_uint64("value-bytes", &value_bytes, "value size");
}

bool finish_workload(WorkloadSpec& spec, const std::string& dist,
                     std::uint64_t items, std::uint64_t value_bytes) {
  if (dist != "zipf" && dist != "uniform") return false;
  spec.zipf = dist == "zipf";
  spec.items = items;
  spec.value_bytes = static_cast<std::uint32_t>(value_bytes);
  return items > 0;
}

int cmd_run(int argc, char** argv) {
  WorkloadSpec spec;
  std::string dist = "zipf";
  std::uint64_t items = spec.items;
  std::uint64_t value_bytes = spec.value_bytes;
  std::string target;
  std::string servers_list;
  std::uint64_t nodes = 4;
  std::uint64_t seed = 1;
  double rate = 10000;
  double seconds = 10;
  scp::FlagSet flags("perfbench_loadgen run: live phases against a tier");
  add_workload_flags(flags, spec, dist, items, value_bytes);
  flags.add_string("target", &target, "host:port the client sends to");
  flags.add_string("servers", &servers_list,
                   "role:port:pid per server (role fe|be|router)");
  flags.add_uint64("nodes", &nodes, "backends n (gain denominator)");
  flags.add_uint64("seed", &seed, "workload seed");
  flags.add_double("rate", &rate, "fixed-rate phase: offered ops/s");
  flags.add_double("seconds", &seconds, "measured time, in rounds of ~1 s");
  if (!flags.parse(argc, argv)) return 2;
  std::vector<Server> servers;
  const std::size_t colon = target.rfind(':');
  if (!finish_workload(spec, dist, items, value_bytes) ||
      colon == std::string::npos || !parse_servers(servers_list, servers) ||
      seconds <= 0 || rate <= 0) {
    std::fprintf(stderr, "perfbench_loadgen run: bad arguments\n");
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const auto port = static_cast<std::uint16_t>(std::stoul(target.substr(colon + 1)));
  const std::uint32_t n_conns = kConns;

  ValueOracle oracle(spec.value_bytes);
  PhaseSpec closed;
  closed.window = kWindow;
  closed.slices = kSlices;
  PhaseSpec open;
  open.open_loop = true;
  open.rate_per_conn = rate / static_cast<double>(n_conns);
  // The ceiling: the same client, GETs over the same keys, against a
  // server that does no work. It runs on the entry server's CPU, so its cost
  // per request measures the speed of the CPU the bottleneck runs on.
  int entry_cpu = -1;
  for (const Server& server : servers) {
    if (server.port == port) entry_cpu = pinned_cpu(server.pid);
  }
  NullServer null_server(spec.value_bytes);
  if (!null_server.start(entry_cpu)) {
    std::fprintf(stderr, "perfbench: null server failed to start\n");
    return 1;
  }
  WorkloadSpec reads = spec;
  reads.write_frac = 0;
  ValueOracle null_oracle(spec.value_bytes);

  run_phase(host, port, oracle, spec, seed ^ 0xa11ULL, n_conns, closed, 0,
            kWarmupS);
  // Rounds of (fixed rate, saturation, ceiling) spread every metric's
  // samples over the whole run. CPU steal by other guests of a shared
  // machine comes in spells of seconds and only ever slows a round, so the
  // end-to-end figures come from the quieter half of the rounds, ranked by
  // the steal measured during each (all rounds when the machine is quiet).
  // Failures count in every round.
  struct Round {
    double steal = 0;
    double ref_us = 0;  ///< null server CPU time per request
    double cpu_per_req = 0;
    double p50_us = 0;
    std::vector<double> slice_qps;
  };
  std::vector<Round> round_stats;
  Snapshot fixed_d;
  Snapshot sat_d;
  PhaseResult fixed;
  PhaseResult sat;
  PhaseResult ceiling;
  bool ok = true;
  const auto rounds =
      static_cast<std::uint64_t>(std::max(1.0, std::round(seconds)));
  const double round_s = seconds / static_cast<double>(rounds);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::uint64_t round_seed = seed * 1000 + r * 3;
    const std::vector<std::uint64_t> ticks0 = machine_ticks();
    const Snapshot a = take_snapshot(servers);
    const PhaseResult f =
        run_phase(host, port, oracle, spec, round_seed, n_conns, open, kLeadS,
                  kFixedShare * round_s);
    const Snapshot b = take_snapshot(servers);
    const PhaseResult s =
        run_phase(host, port, oracle, spec, round_seed + 1, n_conns, closed,
                  kLeadS, kSatShare * round_s);
    const Snapshot c = take_snapshot(servers);
    const double null_cpu_ns = null_server.cpu_ns();
    const std::uint64_t null_served = null_server.served();
    ceiling.merge(run_phase("127.0.0.1", null_server.port(), null_oracle,
                            reads, round_seed + 2, n_conns, closed, kLeadS,
                            kCeilingShare * round_s));
    Round round;
    round.ref_us =
        ratio((null_server.cpu_ns() - null_cpu_ns) / 1e3,
              static_cast<double>(null_server.served() - null_served));
    Snapshot fd;
    accumulate(a, b, fd);
    Snapshot sd;
    accumulate(b, c, sd);
    ok = ledger_holds(servers, fd, "fixed-rate") && ok;
    ok = ledger_holds(servers, sd, "saturation") && ok;
    accumulate(a, b, fixed_d);
    accumulate(b, c, sat_d);
    round.steal = steal_frac(ticks0, machine_ticks());
    round.cpu_per_req = ratio(cpu_total_us(servers, fd, ""),
                              static_cast<double>(f.tally.total_attempted()));
    round.p50_us = quantile(f.latency_ns, 0.50) / 1e3;
    round.slice_qps = s.slice_qps;
    round_stats.push_back(std::move(round));
    fixed.merge(f);
    sat.merge(s);
  }
  null_server.stop();
  ok = ok && fixed_d.ok && sat_d.ok && fixed.tally.connect_failures == 0 &&
       sat.tally.connect_failures == 0 && ceiling.tally.connect_failures == 0;

  std::stable_sort(round_stats.begin(), round_stats.end(),
                   [](const Round& x, const Round& y) { return x.steal < y.steal; });
  std::size_t keep = (round_stats.size() + 1) / 2;
  while (keep < round_stats.size() &&
         round_stats[keep].steal <= kQuietSteal) {
    ++keep;
  }
  round_stats.resize(keep);
  // Each round's figures raw ([0]) and scaled by that round's machine
  // speed ([1]).
  std::vector<double> slices[2];
  std::vector<double> p50[2];
  std::vector<double> cpu[2];
  std::vector<double> quiet_steal;
  std::vector<double> quiet_ref;
  for (const Round& round : round_stats) {
    const double slower = round.ref_us > 0 ? round.ref_us / kRefUs : 1;
    for (const double qps : round.slice_qps) {
      slices[0].push_back(qps);
      slices[1].push_back(qps * slower);
    }
    p50[0].push_back(round.p50_us);
    p50[1].push_back(round.p50_us / slower);
    cpu[0].push_back(round.cpu_per_req);
    cpu[1].push_back(round.cpu_per_req / slower);
    quiet_steal.push_back(round.steal);
    quiet_ref.push_back(round.ref_us);
  }

  Tally all = fixed.tally;
  all.merge(sat.tally);
  const double fixed_ops = static_cast<double>(fixed.tally.total_attempted());
  const double sat_ops = static_cast<double>(sat.tally.total_attempted());
  const double sat_gets = static_cast<double>(sat.tally.outcomes[0][0]);
  double be_max = 0;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    if (servers[i].role == "be") {
      be_max = std::max(
          be_max, static_cast<double>(counter(sat_d.counters[i],
                                              "backend.requests")));
    }
  }
  const double be_sum = total(servers, sat_d, "be", "backend.requests");
  const double be_count = static_cast<double>(std::count_if(
      servers.begin(), servers.end(),
      [](const Server& s) { return s.role == "be"; }));
  double peak_rss_mb = 0;
  for (const Server& server : servers) peak_rss_mb += read_peak_rss_mb(server.pid);
  auto fe = [&](const char* name) {
    return total(servers, sat_d, "fe", std::string("frontend.") + name);
  };
  auto router = [&](const char* name) {
    return total(servers, sat_d, "router", std::string("router.") + name);
  };
  const double fe_requests = fe("requests");
  // attempts_total counts keys sent; a batch frame carries batch_keys keys.
  const double fe_frames =
      fe("attempts_total") - fe("batch_keys") + fe("batch_frames");

  JsonOut json;
  json.flag("ok", ok);
  json.num("attempted", static_cast<double>(all.total_attempted()));
  json.num("failed", static_cast<double>(all.failed()));
  json.num("goodput_qps", quantile(slices[1], 0.5));
  json.num("p50_us", quantile(p50[1], 0.5));
  json.num("cpu_us_per_req", quantile(cpu[1], 0.5));
  json.num("raw.goodput_qps", quantile(slices[0], 0.5));
  json.num("raw.p50_us", quantile(p50[0], 0.5));
  json.num("raw.cpu_us_per_req", quantile(cpu[0], 0.5));
  json.num("env.ref_us_per_req", quantile(quiet_ref, 0.5));
  json.num("client.p99_us", quantile(fixed.latency_ns, 0.99) / 1e3);
  json.num("client.samples", static_cast<double>(fixed.latency_ns.size()));
  json.num("cpu.fe_us_per_req",
           ratio(cpu_total_us(servers, fixed_d, "fe"), fixed_ops));
  json.num("cpu.be_us_per_req",
           ratio(cpu_total_us(servers, fixed_d, "be"), fixed_ops));
  json.num("cpu.router_us_per_req",
           ratio(cpu_total_us(servers, fixed_d, "router"), fixed_ops));
  json.num("reactor.syscalls_per_req",
           ratio(total(servers, fixed_d, "", "loop.syscalls"), fixed_ops));
  json.num("reactor.wakeups_per_req",
           ratio(total(servers, fixed_d, "", "loop.wakeups"), fixed_ops));
  json.num("gain", ratio(be_max, sat_gets / static_cast<double>(nodes)));
  json.num("rss_mb", peak_rss_mb);
  json.num("fe.hit_ratio", ratio(fe("hits"), fe_requests));
  json.num("fe.frames_per_req", ratio(fe_frames, fe_requests));
  json.num("fe.batch_fill", ratio(fe("batch_keys"), fe("batch_frames")));
  json.num("fe.coalesced_frac", ratio(fe("coalesced"), fe_requests));
  json.num("fe.retries_per_req", ratio(fe("retries"), fe_requests));
  json.num("fe.failures", fe("failures"));
  json.num("be.requests_per_req", ratio(be_sum, sat_ops));
  json.num("be.max_over_mean", ratio(be_max, ratio(be_sum, be_count)));
  json.num("be.replications_per_put",
           ratio(total(servers, sat_d, "be", "backend.replications"),
                 static_cast<double>(sat.tally.attempted[1])));
  json.num("router.redirects_per_req",
           ratio(router("redirects_followed"), router("requests")));
  json.num("router.batch_fill",
           ratio(router("batch_keys"), router("batch_frames")));
  json.num("loadgen.send_lag_p99_us", quantile(fixed.lag_ns, 0.99) / 1e3);
  json.num("loadgen.ceiling_qps", quantile(ceiling.slice_qps, 0.5));
  json.num("env.steal_frac", quantile(quiet_steal, 0.5));
  json.num("loadgen.ceiling_failed",
           static_cast<double>(ceiling.tally.failed()));
  json.num("fail_frac", ratio(static_cast<double>(all.failed()),
                              static_cast<double>(all.total_attempted())));
  json.num("fail_frac.fixed_rate",
           ratio(static_cast<double>(fixed.tally.failed()), fixed_ops));
  report_failures(json, "fail.", all);
  std::printf("%s\n", json.done().c_str());
  return 0;
}

int cmd_replay(int argc, char** argv) {
  ReplayConfig config;
  std::string dist = "zipf";
  std::uint64_t items = config.spec.items;
  std::uint64_t value_bytes = config.spec.value_bytes;
  std::uint64_t nodes = config.nodes;
  std::uint64_t replication = config.replication;
  std::uint64_t fleet = config.fleet;
  std::string spans_path;
  scp::FlagSet flags("perfbench_loadgen replay: traced single-thread replay");
  add_workload_flags(flags, config.spec, dist, items, value_bytes);
  flags.add_uint64("nodes", &nodes, "backends n");
  flags.add_uint64("replication", &replication, "replica-group size d");
  flags.add_uint64("cache-capacity", &config.cache_capacity, "perfect cache c");
  flags.add_uint64("fleet", &fleet, "front-end fleet size (>1 adds the router hop)");
  flags.add_uint64("seed", &config.seed, "workload seed");
  flags.add_string("spans", &spans_path, "span output file (TSV)");
  if (!flags.parse(argc, argv)) return 2;
  if (!finish_workload(config.spec, dist, items, value_bytes) || nodes == 0 ||
      replication == 0 || replication > nodes) {
    std::fprintf(stderr, "perfbench_loadgen replay: bad arguments\n");
    return 2;
  }
  config.nodes = static_cast<std::uint32_t>(nodes);
  config.replication = static_cast<std::uint32_t>(replication);
  config.fleet = static_cast<std::uint32_t>(fleet);
  const ReplayResult result = run_replay(config, spans_path);

  JsonOut json;
  json.flag("ok", result.wrong_values == 0 && result.spans > 0);
  json.num("untraced_ns_per_req", result.untraced_ns_per_req);
  json.num("traced_ns_per_req", result.traced_ns_per_req);
  json.num("spans", static_cast<double>(result.spans));
  json.num("wrong_values", static_cast<double>(result.wrong_values));
  for (int layer = 0; layer < kLayers; ++layer) {
    json.num(std::string(layer_name(static_cast<Layer>(layer))) + "_ns",
             result.self_ns_per_req[layer]);
  }
  std::printf("%s\n", json.done().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "run") return perfbench::cmd_run(argc - 1, argv + 1);
  if (command == "replay") return perfbench::cmd_replay(argc - 1, argv + 1);
  std::fprintf(stderr, "usage: perfbench_loadgen run|replay [flags]\n");
  return 2;
}
