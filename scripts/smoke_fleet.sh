#!/usr/bin/env bash
# Fleet smoke: the distributed front end end to end, shared by CI's
# fe-fleet-smoke job and scripts/check.sh step 6.
#
# 1. Spawn 3 scp_backend + 3 scp_frontend fleet members + scp_router on
#    kernel-assigned ports. Through the router every cached key answers
#    kValue and kRedirect never leaks; straight at member 0 the key space
#    splits into owned and redirected keys. The router's /metrics.json must
#    show 3 members up, 65 requests, no failures and a dispatch spread that
#    sums to attempts_total. Every process must drain cleanly on SIGTERM.
# 2. bench/live_serving --preset adversarial --fe-fleet 3: a valid JSON
#    record with one fe_requests / fe_hits cell per member, no failures,
#    per-member requests covering the completions, and no idle member.
# 3. Write mix through the fleet (--write-frac 0.05): no failed GET or PUT,
#    and no "reply mismatch" / "unmatched reply" line in the output — a
#    quorum PUT's late reply must never be confused with the GET replies
#    that overtake it.
#
# Usage: scripts/smoke_fleet.sh [build-dir]   (default: $BUILD_DIR or build)
# Env: FLEET_JSON  — where step 2's record goes
#                    (default: <build-dir>/smoke_live_fleet.json)
#      WRITES_JSON — where step 3's record goes
#                    (default: <build-dir>/smoke_live_fleet_writes.json)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${BUILD_DIR:-build}}"
FLEET_JSON="${FLEET_JSON:-$BUILD_DIR/smoke_live_fleet.json}"
WRITES_JSON="${WRITES_JSON:-$BUILD_DIR/smoke_live_fleet_writes.json}"
work="$(mktemp -d)"
pids=()
cleanup() {
  local status=$?
  for pid in "${pids[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$work"
  exit "$status"
}
trap cleanup EXIT

# Prints the value of the first "<label> <n>" line in $1 once it appears.
wait_for() {
  local file="$1" label="$2" value=""
  for _ in $(seq 50); do
    value="$(sed -n "s/^$label \([0-9][0-9]*\)$/\1/p" "$file")"
    [[ -n "$value" ]] && break
    sleep 0.1
  done
  [[ -n "$value" ]] || { echo "smoke_fleet: $file: no $label" >&2; return 1; }
  echo "$value"
}

# --- 1. Spawn the fleet, probe through the router, drain on SIGTERM -------
be_ports=()
for node in 0 1 2; do
  "$BUILD_DIR/src/net/scp_backend" --port 0 --node "$node" --nodes 3 \
    --replication 2 --partition-seed 1 --items 4096 >"$work/be_$node.out" &
  pids+=($!)
done
for node in 0 1 2; do
  port="$(wait_for "$work/be_$node.out" PORT)"
  be_ports+=("$port")
done
fe_ports=()
for member in 0 1 2; do
  "$BUILD_DIR/src/net/scp_frontend" --port 0 --nodes 3 --replication 2 \
    --partition-seed 1 --items 4096 --cache-capacity 66 \
    --backends "$(IFS=,; echo "${be_ports[*]}")" \
    --fleet 3 --fleet-index "$member" --fleet-seed 42 \
    >"$work/fe_$member.out" &
  pids+=($!)
done
for member in 0 1 2; do
  port="$(wait_for "$work/fe_$member.out" PORT)"
  fe_ports+=("$port")
done
# Endpoint order must match each member's --fleet-index.
"$BUILD_DIR/src/net/scp_router" --port 0 \
  --frontends "$(IFS=,; echo "${fe_ports[*]}")" \
  --fleet-seed 42 --metrics --metrics-port 0 >"$work/router.out" &
pids+=($!)
router_port="$(wait_for "$work/router.out" PORT)"
router_metrics_port="$(wait_for "$work/router.out" METRICS_PORT)"

python3 - "$router_port" "${fe_ports[0]}" <<'EOF'
import socket, struct, sys

def get(sock, key):
    payload = struct.pack(">BQ", 1, key)  # kGet
    sock.sendall(struct.pack(">I", len(payload)) + payload)
    header = sock.recv(4, socket.MSG_WAITALL)
    (length,) = struct.unpack(">I", header)
    return sock.recv(length, socket.MSG_WAITALL)

router_port, fe0_port = int(sys.argv[1]), int(sys.argv[2])
# Through the router: every cached key answers kValue (2) and a key beyond
# --items answers kMiss (3); kRedirect (4) must never leak to a client even
# though the aggregate cache is split 3 ways, so many of these keys are
# owned by members 1 and 2.
with socket.create_connection(("127.0.0.1", router_port), timeout=5) as s:
    for key in range(64):
        reply = get(s, key)
        assert reply[0] == 2, (key, reply[0])
    assert get(s, 1 << 20)[0] == 3
# Straight at member 0: at least one of those keys is owned by another
# member and must answer kRedirect — the partition law (single-copy
# ownership) observed on the wire.
redirects = values = 0
with socket.create_connection(("127.0.0.1", fe0_port), timeout=5) as s:
    for key in range(64):
        kind = get(s, key)[0]
        redirects += kind == 4
        values += kind == 2
assert redirects > 0 and values > 0, (redirects, values)
print(f"probe ok: 64 routed GETs all kValue; direct member 0 "
      f"split {values} owned / {redirects} redirected")
EOF
python3 - "$router_metrics_port" <<'EOF'
import json, sys, urllib.request

port = int(sys.argv[1])
doc = json.load(urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics.json", timeout=5))
c, g = doc["counters"], doc["gauges"]
assert g["router.frontends_up"] == 3, g
assert g["router.fleet_size"] == 3, g
assert c["router.requests"] == 65, c
assert c["router.failures"] == 0, c
spread = [c[f"router.dispatches.fe{k}"] for k in range(3)]
assert sum(spread) == c["router.attempts_total"], (spread, c)
print(f"router metrics ok: dispatch spread {spread}")
EOF
kill -TERM "${pids[@]}"
for pid in "${pids[@]}"; do
  wait "$pid" || { echo "smoke_fleet: pid $pid: unclean SIGTERM exit" >&2; exit 1; }
done
pids=()
echo "smoke_fleet: fleet drained cleanly"

# --- 2. The adversarial load generator through the fleet (~2 s) -----------
rm -f "$FLEET_JSON"
"$BUILD_DIR/bench/live_serving" \
  --n 8 --d 2 --m 4096 --c 40 --preset adversarial \
  --rate 2000 --duration 2 --warmup 0.5 --threads 2 \
  --fe-fleet 3 --json "$FLEET_JSON" >"$work/fleet.out"
python3 - "$FLEET_JSON" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
for field in ("params", "wall_ms", "series"):
    if field not in doc:
        sys.exit(f"record missing {field!r}")
if doc.get("bench") != "live_serving":
    sys.exit(f"record is not a live_serving record: {doc.get('bench')!r}")
row = doc["series"][0]
for column in ("fe_fleet", "fe_requests", "fe_hits",
               "live_gain", "failures", "completed"):
    if column not in row:
        sys.exit(f"series row missing column {column!r}")
if int(row["fe_fleet"]) != 3:
    sys.exit(f"fleet run must record fe_fleet=3, got {row['fe_fleet']}")
if int(row["failures"]) != 0:
    sys.exit(f"fleet run must complete cleanly, failures={row['failures']}")
per_fe = str(row["fe_requests"]).split("|")
if len(per_fe) != 3:
    sys.exit(f"fe_requests must list 3 members: {row['fe_requests']!r}")
if sum(int(r) for r in per_fe) < int(row["completed"]):
    sys.exit(f"per-FE requests {per_fe} cannot cover "
             f"completed={row['completed']}")
if min(int(r) for r in per_fe) == 0:
    sys.exit(f"power-of-two-choices left a member idle: {per_fe}")
if len(str(row["fe_hits"]).split("|")) != 3:
    sys.exit(f"fe_hits must list 3 members: {row['fe_hits']!r}")
print(f"{sys.argv[1]}: ok (live_gain={row['live_gain']}, "
      f"per-FE requests {per_fe})")
EOF

# --- 3. Write mix through the fleet ----------------------------------------
rm -f "$WRITES_JSON"
"$BUILD_DIR/bench/live_serving" \
  --n 3 --d 2 --m 1024 --c 16 --rate 2000 --duration 2 --warmup 0.3 \
  --threads 2 --fe-fleet 3 --write-frac 0.05 --json "$WRITES_JSON" \
  >"$work/writes.out" 2>&1
if grep -E "reply mismatch|unmatched reply" "$work/writes.out"; then
  echo "smoke_fleet: write mix confused replies (lines above)" >&2
  exit 1
fi
python3 - "$WRITES_JSON" <<'EOF'
import json, sys

row = json.load(open(sys.argv[1]))["series"][0]
for column in ("failures", "puts", "put_failures"):
    if column not in row:
        sys.exit(f"series row missing column {column!r}")
if int(row["puts"]) == 0:
    sys.exit("write mix sent no PUTs")
if int(row["failures"]) != 0 or int(row["put_failures"]) != 0:
    sys.exit(f"write mix must complete cleanly: failures={row['failures']} "
             f"put_failures={row['put_failures']}")
print(f"{sys.argv[1]}: ok (puts={row['puts']}, no failures)")
EOF
echo "smoke_fleet: OK"
