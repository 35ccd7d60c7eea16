#!/usr/bin/env bash
# End-to-end smoke: builds every CLI, gives each a tiny run, and asserts
# exit codes plus output shape. This is the check that the six binaries
# stay wired together — flags parse, JSON envelopes keep their fields,
# figures actually produce samples, the fleet daemon serves and drains —
# independent of the unit suites.
#
# Usage: scripts/e2e.sh [bin-dir]
#   bin-dir defaults to a temporary directory that is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

bindir="${1:-}"
if [[ -z "$bindir" ]]; then
  bindir="$(mktemp -d)"
  trap 'rm -rf "$bindir"' EXIT
fi

clis=(empower-sim empower-testbed empower-scenario empower-route empower-fuzz empower-fleet)

echo "== build (${clis[*]})" >&2
for c in "${clis[@]}"; do
  go build -o "$bindir/$c" "./cmd/$c"
done

# Each binary's package doc lists its flags in a "Flags:" block, one
# "<tab>-name ..." line per flag; the names must be exactly those -h prints.
echo "== flag docs match -h (${clis[*]})" >&2
for c in "${clis[@]}"; do
  documented="$(awk '/^package main/ { exit } /^\/\/\t-[A-Za-z0-9]/ { sub(/^\/\/\t-/, ""); sub(/[^A-Za-z0-9].*/, ""); print }' \
    "cmd/$c/main.go" | sort)"
  printed="$({ "$bindir/$c" -h 2>&1 || true; } \
    | awk '/^  -[A-Za-z0-9]/ { sub(/^  -/, ""); sub(/[^A-Za-z0-9].*/, ""); print }' | sort)"
  if [[ "$documented" != "$printed" ]]; then
    echo "e2e: $c: flags in the package doc differ from -h" >&2
    diff <(echo "$documented") <(echo "$printed") >&2 || true
    exit 1
  fi
done

# jq_check DESC FILE FILTER — asserts FILTER evaluates truthy on FILE.
jq_check() {
  local desc="$1" file="$2" filter="$3"
  if ! jq -e "$filter" "$file" > /dev/null; then
    echo "e2e: $desc: jq assertion failed: $filter" >&2
    echo "---- output ----" >&2
    cat "$file" >&2
    exit 1
  fi
}

echo "== empower-sim (figure 4, residential, 2 runs)" >&2
"$bindir/empower-sim" -fig 4 -topo residential -runs 2 -slots 300 -seed 1 -parallel 2 -json \
  > "$bindir/sim.json"
jq_check "empower-sim envelope" "$bindir/sim.json" \
  '.figure == "4" and .topo == "residential" and .seed == 1 and (.result | type == "object")'
jq_check "empower-sim samples" "$bindir/sim.json" \
  '.result.Samples | type == "object" and (keys | length) > 0'

echo "== empower-testbed (figure 10, 2 pairs, 5 emulated seconds)" >&2
"$bindir/empower-testbed" -fig 10 -duration 5 -pairs 2 -seed 1 -parallel 2 -json \
  > "$bindir/testbed.json"
jq_check "empower-testbed envelope" "$bindir/testbed.json" \
  '.figure == "10" and (.result | type == "object")'

echo "== empower-scenario (flaps, 2 runs, 2 schemes)" >&2
"$bindir/empower-scenario" -scenario examples/scenarios/flaps.json -runs 2 -seed 7 \
  -schemes EMPoWER,SP -json > "$bindir/scenario.json"
jq_check "empower-scenario envelope" "$bindir/scenario.json" \
  '.experiment == "churn-failover" and .seed == 7 and (.result | type == "object")'
jq_check "empower-scenario scheme rows" "$bindir/scenario.json" \
  '[.result.rows[].scheme] | contains(["EMPoWER", "SP"])'

echo "== empower-route (built-in Figure 1 example)" >&2
"$bindir/empower-route" -example -n 3 > "$bindir/route.out"
grep -q '^single-path:' "$bindir/route.out"
grep -q '^3-shortest:' "$bindir/route.out"
grep -q '^multipath combination' "$bindir/route.out"

echo "== empower-fuzz (3 scenarios)" >&2
"$bindir/empower-fuzz" -runs 3 -seed 1 -out "$bindir/fuzz-failures" > "$bindir/fuzz.out"
if [[ -d "$bindir/fuzz-failures" ]] && [[ -n "$(ls -A "$bindir/fuzz-failures" 2>/dev/null)" ]]; then
  echo "e2e: empower-fuzz wrote reproducers:" >&2
  ls "$bindir/fuzz-failures" >&2
  exit 1
fi

# expect_exit WANT CMD... — asserts CMD's exit status (output discarded).
expect_exit() {
  local want="$1" got=0
  shift
  "$@" > /dev/null 2>&1 || got=$?
  if [[ "$got" != "$want" ]]; then
    echo "e2e: exit status $got, want $want: $*" >&2
    exit 1
  fi
}

echo "== exit statuses (0 ok, 2 bad invocation, 1 failure, 130 interrupted)" >&2
expect_exit 2 "$bindir/empower-sim" -fig 99
expect_exit 2 "$bindir/empower-sim" -topo mars
expect_exit 2 "$bindir/empower-testbed"
expect_exit 2 "$bindir/empower-testbed" -fig 99
expect_exit 2 "$bindir/empower-scenario"
expect_exit 1 "$bindir/empower-scenario" -scenario "$bindir/no-such.json"
expect_exit 1 "$bindir/empower-route" -topo "$bindir/no-such.json"
expect_exit 1 "$bindir/empower-route" -example -src nowhere
expect_exit 2 "$bindir/empower-fuzz" -inject bogus
expect_exit 1 "$bindir/empower-fleet" -addr 256.0.0.1:1 -wal "$bindir/unused.wal" -quiet
# An interrupted sweep exits 130 and still leaves its last -metrics snapshot.
"$bindir/empower-sim" -fig 6 -runs 100000 -metrics "$bindir/interrupted.prom" > /dev/null 2>&1 &
sim_pid=$!
sleep 1
kill -INT "$sim_pid"
sim_status=0
wait "$sim_pid" || sim_status=$?
if [[ "$sim_status" != 130 || ! -s "$bindir/interrupted.prom" ]]; then
  echo "e2e: interrupted empower-sim: exit $sim_status (want 130), snapshot: $(ls -l "$bindir/interrupted.prom" 2>&1)" >&2
  exit 1
fi

echo "== -json and text runs of each sweep command agree" >&2
"$bindir/empower-sim" -fig 5 -topo residential -runs 3 -slots 300 > "$bindir/sim5.txt"
"$bindir/empower-sim" -fig 5 -topo residential -runs 3 -slots 300 -json > "$bindir/sim5.json"
grep -q "^ratio .* n=$(jq -r '.result.Ratios | length' "$bindir/sim5.json")\$" "$bindir/sim5.txt"
"$bindir/empower-testbed" -fig 12 -duration 2 > "$bindir/tb12.txt"
"$bindir/empower-testbed" -fig 12 -duration 2 -json > "$bindir/tb12.json"
grep -qF "  EMPoWER route: $(jq -r '.result.Routes[0]' "$bindir/tb12.json")" "$bindir/tb12.txt"
"$bindir/empower-scenario" -scenario examples/scenarios/flaps.json -runs 1 -schemes SP > "$bindir/flaps.txt"
"$bindir/empower-scenario" -scenario examples/scenarios/flaps.json -runs 1 -schemes SP -json > "$bindir/flaps.json"
grep -q "^SP  *$(jq -r '.result.rows[0].episodes' "$bindir/flaps.json")  *$(jq -r '.result.rows[0].censored' "$bindir/flaps.json") " "$bindir/flaps.txt"

echo "== empower-route reads back what it dumps" >&2
"$bindir/empower-route" -example -dump > "$bindir/fig1.json"
"$bindir/empower-route" -topo "$bindir/fig1.json" -n 3 | cmp - "$bindir/route.out"

echo "== empower-fleet (daemon: submit, poll, results, SIGTERM drain)" >&2
fleet_port=18080
"$bindir/empower-fleet" -addr "127.0.0.1:$fleet_port" -wal "$bindir/fleet.wal" -quiet &
fleet_pid=$!
fleet_base="http://127.0.0.1:$fleet_port"
for _ in $(seq 1 100); do
  curl -sf "$fleet_base/healthz" > /dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "$fleet_base/healthz" > /dev/null || { echo "e2e: empower-fleet never came up" >&2; exit 1; }

curl -sf "$fleet_base/sweeps" -d @examples/sweeps/quickstart.json > "$bindir/fleet-submit.json"
jq_check "empower-fleet submission" "$bindir/fleet-submit.json" \
  '.id == "sweep-000001" and .state == "pending" and .total == 15'
# A typo'd field must come back as a structured 400, not be silently run.
echo '{"scenario":{"name":"x"},"runz":3}' > "$bindir/fleet-bad.json"
curl -s "$fleet_base/sweeps" -d @"$bindir/fleet-bad.json" > "$bindir/fleet-reject.json"
jq_check "empower-fleet structured rejection" "$bindir/fleet-reject.json" \
  '.error.field == "runz" and .error.reason == "unknown field"'

for _ in $(seq 1 300); do
  state="$(curl -sf "$fleet_base/sweeps/sweep-000001" | jq -r .state)"
  [[ "$state" == "done" || "$state" == "failed" ]] && break
  sleep 0.2
done
curl -sf "$fleet_base/sweeps/sweep-000001" > "$bindir/fleet-status.json"
jq_check "empower-fleet sweep completion" "$bindir/fleet-status.json" \
  '.state == "done" and .completed == 15'
curl -sf "$fleet_base/sweeps/sweep-000001/results" > "$bindir/fleet-results.json"
jq_check "empower-fleet results shape" "$bindir/fleet-results.json" \
  '.scenario == "plc-flaps" and ([.rows[].scheme] | contains(["EMPoWER", "SP"]))'
curl -sf "$fleet_base/metrics" | grep -q '^fleet_reps_completed_total 15' \
  || { echo "e2e: empower-fleet /metrics misses the completed-replication counter" >&2; exit 1; }

kill -TERM "$fleet_pid"
if ! wait "$fleet_pid"; then
  echo "e2e: empower-fleet SIGTERM drain exited non-zero" >&2
  exit 1
fi

echo "e2e: all CLIs OK" >&2
