#!/usr/bin/env python3
"""Live-tier benchmark: builds the serving tier, starts real scp_backend /
scp_frontend / scp_router processes on loopback, drives them with
perfbench_loadgen, and prints one JSON result line.

    python3 perfbench/run.py --workload hit_zipf --seed 1 --seconds 10 --trace 0

Run from the repository root. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones (including a traced replay). See README.md for
what each workload stresses and how each metric is defined.
"""

import argparse
import json
import os
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
TARGETS = ["scp_backend", "scp_frontend", "scp_router", "perfbench_loadgen",
           "perfbench_selftest"]

# Tier shape shared by every workload (n backends, d replicas, m keys,
# c perfect-cache entries).
NODES, REPLICATION, ITEMS, CACHE, VALUE_BYTES = 4, 2, 65536, 64, 64
SETUPS = 9                     # set-ups per run; setup_s is their median
CEILING_MARGIN = 1.5           # loadgen ceiling must exceed goodput by this

# Every process gets one CPU: the load generator CPU 0, backend i CPU
# 1 + i // 2, and the front end (or a fleet's router and front ends) CPU 3.
# CPU 3 is then the one bottleneck of every workload, and the load
# generator's null server runs there too, so its cost per request measures
# the speed of that CPU (loadgen.cpp). Unpinned, the scheduler's placement
# made saturation goodput vary 2x between runs; with a fleet's front ends on
# a CPU of their own, neither they nor the router saturated and goodput
# swung 400k-620k within a run. Servers start unpinned and are pinned once
# ready, so set-up uses every core.
CPUS = os.cpu_count() or 1
PIN = {"loadgen": [0], "be": [1, 1, 2, 2], "fe": [3], "router": [3]} \
    if CPUS >= 4 else {}

# The hypervisor parks an idle vCPU; while other guests are busy, waking it
# again took milliseconds, which cut goodput 3x and raised p50 4-8x on
# unchanged code. A busy loop per CPU at SCHED_IDLE, the lowest priority,
# keeps every vCPU running without taking time from any other thread.
SPIN = "while True: pass"

# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "hit_zipf": dict(dist="zipf", write_frac=0.0, fleet=1, rate=40000,
                     fail_free=True),
    "attack_uniform": dict(dist="uniform", write_frac=0.0, fleet=1,
                           rate=30000, fail_free=True),
    "fleet_read": dict(dist="zipf", write_frac=0.0, fleet=2, rate=20000,
                       fail_free=True),
    "fleet_write": dict(dist="zipf", write_frac=0.05, fleet=2, rate=2000,
                        fail_free=False),
}


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the tier and the load generator."""
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target"] + TARGETS, check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=True,
                   stdout=sys.stderr)


def binary(name):
    for sub in ("scp/net", "."):
        path = os.path.join(BUILD, sub, name)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(name)


def free_ports(count):
    socks = [socket.socket() for _ in range(count)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def frame(payload):
    return struct.pack(">I", len(payload)) + payload


def call(sock, payload):
    """One request/reply round trip; returns the reply payload."""
    sock.sendall(frame(payload))
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            raise ConnectionError("closed")
        header += chunk
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            raise ConnectionError("closed")
        body += chunk
    return body


def make_value(key):
    """net::make_value: 'v<key>:' padded with 'x' to VALUE_BYTES."""
    value = b"v%d:" % key
    return value + b"x" * max(0, VALUE_BYTES - len(value))


class Tier:
    """The server processes of one workload's topology."""

    def __init__(self, workload):
        self.spec = WORKLOADS[workload]
        self.procs = []   # (role, Popen, port)
        self.entry = None
        os.makedirs(OUT, exist_ok=True)
        self.log_path = os.path.join(OUT, "servers.log")
        self.log_file = open(self.log_path, "w")

    def _spawn(self, role, argv):
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=self.log_file, text=True)
        self.procs.append([role, proc, 0])
        return proc

    def _await_port(self, entry):
        proc = entry[1]
        for line in proc.stdout:
            if line.startswith("PORT "):
                entry[2] = int(line.split()[1])
                return
        raise RuntimeError(f"{entry[0]} exited before listening")

    def start(self):
        """Launches every server and returns once each has answered."""
        fleet = self.spec["fleet"]
        common = ["--nodes", str(NODES), "--replication", str(REPLICATION),
                  "--items", str(ITEMS), "--value-bytes", str(VALUE_BYTES),
                  "--reactor", "epoll", "--drain", "0.2"]
        be_ports = free_ports(NODES) if fleet > 1 else [0] * NODES
        peers = ",".join(f"127.0.0.1:{p}" for p in be_ports)
        for node in range(NODES):
            argv = [binary("scp_backend"), "--port", str(be_ports[node]),
                    "--node", str(node)] + common
            if fleet > 1:
                argv += ["--peers", peers]
            self._spawn("be", argv)
        for entry in self.procs:
            self._await_port(entry)
        backends = ",".join(f"127.0.0.1:{e[2]}" for e in self.procs)
        fes = []
        for index in range(fleet):
            argv = [binary("scp_frontend"), "--port", "0",
                    "--backends", backends, "--cache", "perfect",
                    "--cache-capacity", str(CACHE)] + common
            if fleet > 1:
                argv += ["--fleet", str(fleet), "--fleet-index", str(index)]
            self._spawn("fe", argv)
            self._await_port(self.procs[-1])
            fes.append(self.procs[-1][2])
        if fleet > 1:
            argv = [binary("scp_router"), "--port", "0", "--reactor", "epoll",
                    "--drain", "0.2", "--frontends",
                    ",".join(f"127.0.0.1:{p}" for p in fes)]
            self._spawn("router", argv)
            self._await_port(self.procs[-1])
            self.entry = self.procs[-1][2]
        else:
            self.entry = fes[0]
        self._await_ready()

    def _await_ready(self):
        """Every server answers a PING; a GET that misses the cache comes
        back with the right bytes through the entry point; with writes, a
        quorum PUT is acknowledged (the replica mesh dials asynchronously,
        so a refused write is retried)."""
        for role, _, port in self.procs:
            with socket.create_connection(("127.0.0.1", port), 5) as s:
                s.settimeout(5)
                if call(s, bytes([7]))[:1] != bytes([8]):
                    raise RuntimeError(f"{role}:{port} did not PONG")
        key = ITEMS - 1
        deadline = time.monotonic() + 10
        with socket.create_connection(("127.0.0.1", self.entry), 5) as s:
            s.settimeout(5)
            while True:
                reply = call(s, struct.pack(">BQ", 1, key))
                if reply[:1] == bytes([2]) and reply[13:] == make_value(key):
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(f"probe GET failed: {reply[:1]!r}")
                time.sleep(0.001)
            if self.spec["write_frac"] > 0:
                # Key m lies outside the workload's key space.
                put = struct.pack(">BQI", 12, ITEMS, 5) + b"probe"
                while call(s, put)[:1] != bytes([14]):
                    if time.monotonic() > deadline:
                        raise RuntimeError("probe PUT never acknowledged")
                    time.sleep(0.001)

    def pin(self):
        if not PIN:
            return
        index = {}
        for role, proc, _ in self.procs:
            cpu = PIN[role][index.get(role, 0) % len(PIN[role])]
            index[role] = index.get(role, 0) + 1
            for tid in os.listdir(f"/proc/{proc.pid}/task"):
                os.sched_setaffinity(int(tid), {cpu})

    def servers_arg(self):
        return ",".join(f"{role}:{port}:{proc.pid}"
                        for role, proc, port in self.procs)

    def stop(self):
        for _, proc, _ in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for _, proc, _ in self.procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []
        self.log_file.close()

    def count_log(self, needle):
        with open(self.log_path) as f:
            return sum(needle in line for line in f)


def start_spinners():
    def idle_on(cpu):
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    return [subprocess.Popen([sys.executable, "-c", SPIN],
                             preexec_fn=lambda cpu=cpu: idle_on(cpu))
            for cpu in range(CPUS)]


def stop(procs):
    for proc in procs:
        proc.kill()
        proc.wait()


def pin(role):
    cpus = PIN.get(role)
    return (lambda: os.sched_setaffinity(0, set(cpus))) if cpus else None


def loadgen(args, timeout):
    out = subprocess.run([binary("perfbench_loadgen")] + args,
                         stdout=subprocess.PIPE, text=True, timeout=timeout,
                         check=True, preexec_fn=pin("loadgen"))
    return json.loads(out.stdout.strip().splitlines()[-1])


def workload_flags(spec):
    return ["--dist", spec["dist"], "--items", str(ITEMS),
            "--write-frac", str(spec["write_frac"]),
            "--value-bytes", str(VALUE_BYTES)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    # A terminated run still stops its servers (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build()

    setups = []
    tier = None
    spinners = start_spinners()
    try:
        for i in range(SETUPS):
            if tier is not None:
                tier.stop()
            tier = Tier(args.workload)
            start = time.perf_counter()
            tier.start()
            setups.append(time.perf_counter() - start)
        tier.pin()
        run = loadgen(["run", "--target", f"127.0.0.1:{tier.entry}",
                       "--servers", tier.servers_arg(),
                       "--nodes", str(NODES), "--seed", str(args.seed),
                       "--rate", str(spec["rate"]),
                       "--seconds", str(args.seconds)]
                      + workload_flags(spec), timeout=150)
        mismatch_resets = tier.count_log("reply mismatch")
        log("unscaled: goodput %.0f/s, p50 %.1f us, cpu %.2f us/req; "
            "reference %.3f us/req" % (
                run["raw.goodput_qps"], run["raw.p50_us"],
                run["raw.cpu_us_per_req"], run["env.ref_us_per_req"]))
    finally:
        if tier is not None:
            tier.stop()
        stop(spinners)

    problems = []
    if not run["ok"]:
        problems.append("loadgen reported a failed check (ledger or scrape)")
    # Both sides unscaled: measured in the same rounds on the same machine.
    goodput = run["raw.goodput_qps"]
    if run["loadgen.ceiling_qps"] < CEILING_MARGIN * goodput:
        problems.append("loadgen ceiling %.0f is not %.1fx goodput %.0f" % (
            run["loadgen.ceiling_qps"], CEILING_MARGIN, goodput))
    if abs(goodput - spec["rate"]) < 0.01 * spec["rate"]:
        problems.append("goodput equals the configured fixed rate")
    if run["loadgen.ceiling_failed"] != 0:
        problems.append("ops failed against the null server")
    wrong = run["fail.get_wrong_value"] + run["fail.put_wrong_value"]
    if wrong:
        problems.append(f"{wrong:.0f} replies carried wrong bytes")
    if spec["fail_free"] and run["failed"] != 0:
        problems.append(f"{run['failed']:.0f} ops failed on a fail-free workload")

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    if args.trace == 0:
        put("setup_s", statistics.median(setups), "s")
        put("goodput_qps", run["goodput_qps"], "1/s")
        put("p50_us", run["p50_us"], "us")
        put("cpu_us_per_req", run["cpu_us_per_req"], "us")
        put("ok_frac", 1.0 - run["fail_frac"], "frac")
        put("gain", run["gain"], "ratio")
        put("rss_mb", run["rss_mb"], "MiB")
    else:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv")
        replay = loadgen(["replay", "--seed", str(args.seed),
                          "--nodes", str(NODES),
                          "--replication", str(REPLICATION),
                          "--cache-capacity", str(CACHE),
                          "--fleet", str(spec["fleet"]),
                          "--spans", spans] + workload_flags(spec), timeout=60)
        if not replay["ok"]:
            problems.append("traced replay returned wrong values")
        for name, unit in [
                ("cpu.fe_us_per_req", "us"), ("cpu.be_us_per_req", "us"),
                ("cpu.router_us_per_req", "us"),
                ("reactor.syscalls_per_req", "count"),
                ("reactor.wakeups_per_req", "count"),
                ("fe.hit_ratio", "frac"), ("fe.frames_per_req", "count"),
                ("fe.batch_fill", "count"), ("fe.coalesced_frac", "frac"),
                ("fe.retries_per_req", "count"), ("fe.failures", "count"),
                ("be.requests_per_req", "count"),
                ("be.max_over_mean", "ratio"),
                ("be.replications_per_put", "count"),
                ("router.redirects_per_req", "count"),
                ("router.batch_fill", "count"),
                ("raw.goodput_qps", "1/s"), ("raw.p50_us", "us"),
                ("raw.cpu_us_per_req", "us"), ("env.ref_us_per_req", "us"),
                ("loadgen.send_lag_p99_us", "us"),
                ("loadgen.ceiling_qps", "1/s"),
                ("client.p99_us", "us"), ("client.samples", "count"),
                ("fail_frac", "frac"), ("fail_frac.fixed_rate", "frac")]:
            put(name, run[name], unit)
        for name in ("get_error", "get_timeout", "get_dropped", "get_stale",
                     "put_error", "put_timeout", "put_dropped"):
            put("fail." + name, run["fail." + name], "count")
        put("fail.mismatched_replies", run["fail.mismatched_replies"], "count")
        put("fe.mismatch_resets", mismatch_resets, "count")
        put("env.steal_frac", run["env.steal_frac"], "frac")
        for layer in ("wire.encode", "wire.decode", "cache.lookup",
                      "route.select", "kvstore.get", "kvstore.put",
                      "quorum.write"):
            put(layer + "_ns", replay[layer + "_ns"], "ns")
        put("trace.spans", replay["spans"], "count")
        put("trace.accounted_frac",
            replay["traced_ns_per_req"] / (run["raw.cpu_us_per_req"] * 1e3),
            "frac")
        put("trace.overhead_frac",
            replay["traced_ns_per_req"] / replay["untraced_ns_per_req"] - 1.0,
            "frac")

    for problem in problems:
        log("INVALID:", problem)
    print(json.dumps({"correct": not problems,
                      "attempted": int(run["attempted"]),
                      "failed": int(run["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
