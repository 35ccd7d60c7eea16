#!/usr/bin/env bash
# End-to-end smoke: builds every CLI, gives each a tiny run, and asserts
# exit codes plus output shape. This is the check that the six binaries
# stay wired together — flags parse, JSON envelopes keep their fields,
# figures actually produce samples, the fleet daemon serves, drains and
# resumes after kill -9 — independent of the unit suites. It also runs
# the five examples/ walkthroughs at their default flags.
#
# It is also the program corpus: every figure in text, every sweep flag
# and every fleet route runs here at least once, and scripts/reach.sh
# runs this script with coverage binaries to hold that every function
# under internal/ runs in some program.
#
# Usage: scripts/e2e.sh [bin-dir]
#   bin-dir defaults to a temporary directory that is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

bindir="${1:-}"
tmp_bindir=
if [[ -z "$bindir" ]]; then
  bindir="$(mktemp -d)"
  tmp_bindir=1
fi
# Background processes the script starts; cleanup stops and reaps them
# whichever check ends the script, so a failed run leaves no daemon
# holding the fleet port.
fleet_pid=
sim_pid=
cleanup() {
  local pid
  for pid in "$fleet_pid" "$sim_pid"; do
    if [[ -n "$pid" ]]; then
      kill "$pid" 2> /dev/null || true
      wait "$pid" 2> /dev/null || true
    fi
  done
  if [[ -n "$tmp_bindir" ]]; then
    rm -rf "$bindir"
  fi
}
trap cleanup EXIT

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

# The four-cluster scenario is the multi-domain emulation: every run must
# pass the invariant checker, and the worker count must not move a byte.
echo "== empower-scenario (clusters: four domains, 2 runs, -parallel 1 vs 2)" >&2
for p in 1 2; do
  "$bindir/empower-scenario" -scenario examples/scenarios/clusters.json -runs 2 \
    -invariants -json -parallel "$p" > "$bindir/clusters-p$p.json"
done
if ! cmp "$bindir/clusters-p1.json" "$bindir/clusters-p2.json"; then
  echo "e2e: empower-scenario clusters.json output depends on -parallel" >&2
  exit 1
fi

echo "== empower-route (built-in Figure 1 example)" >&2
"$bindir/empower-route" -n 3 > "$bindir/route.out"
grep -q '^single-path:' "$bindir/route.out"
grep -q '^3-shortest:' "$bindir/route.out"
grep -q '^multipath combination' "$bindir/route.out"

echo "== empower-fuzz (25 scenarios: invariants + checked vs recorded differential)" >&2
"$bindir/empower-fuzz" -runs 25 -seed 1 -v -out "$bindir/fuzz-failures" > "$bindir/fuzz.out" 2>&1
if [[ -d "$bindir/fuzz-failures" ]] && [[ -n "$(ls -A "$bindir/fuzz-failures" 2>/dev/null)" ]]; then
  echo "e2e: empower-fuzz wrote reproducers:" >&2
  ls "$bindir/fuzz-failures" >&2
  exit 1
fi
[[ "$(grep -c '^run [0-9]* ok ' "$bindir/fuzz.out")" == 25 ]] \
  || { echo "e2e: empower-fuzz -v did not log 25 clean runs" >&2; exit 1; }
# Each injected defect is caught — a corrupted relay counter by the
# invariant checker, a perturbed comparison arm by the differential
# oracle — with exit 1 and a reproducer beside its flight-recorder trace.
for inject in "counter invariant:flow-conservation" "seed differential"; do
  read -r mode check <<< "$inject"
  inject_status=0
  "$bindir/empower-fuzz" -runs 1 -seed 1 -inject "$mode" -out "$bindir/fuzz-$mode" \
    > "$bindir/fuzz-$mode.out" 2>&1 || inject_status=$?
  if [[ "$inject_status" != 1 ]] || ! grep -q "failed check $check\$" "$bindir/fuzz-$mode.out" \
    || [[ ! -s "$bindir/fuzz-$mode/repro-run0.json.trace.json" ]]; then
    echo "e2e: empower-fuzz -inject $mode: exit $inject_status (want 1), output:" >&2
    cat "$bindir/fuzz-$mode.out" >&2
    exit 1
  fi
done

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
expect_exit 1 "$bindir/empower-route" -src nowhere
expect_exit 2 "$bindir/empower-fuzz" -inject bogus
# Sweep knobs outside the ranges the fleet's sweep spec enforces, checked
# before any replication runs.
flaps=(-scenario examples/scenarios/flaps.json -runs 1 -schemes SP)
for bad in "-delta NaN" "-delta 1.5" "-frac 1.5" "-bin -1" "-runs -1" \
  "-runs 4611686018427387904" "-flaprates NaN" "-flaprates Inf" "-tracerun 7"; do
  # shellcheck disable=SC2086 # each case is a flag and its value
  expect_exit 2 "$bindir/empower-scenario" "${flaps[@]}" $bad
done
# A -runs whose runs × schemes would overflow is named as -runs.
out="$("$bindir/empower-scenario" "${flaps[@]}" -runs 4611686018427387904 2>&1 || true)"
if [[ "$out" != "empower-scenario: -runs: "* ]]; then
  echo "e2e: an overflowing -runs was not reported as -runs: $out" >&2
  exit 1
fi
expect_exit 2 "$bindir/empower-testbed" -fig 10 -duration 2 -pairs 1 -delta NaN
# -shards is retired: both emulation CLIs reject it as an undefined flag.
for c in empower-scenario empower-testbed; do
  expect_exit 2 "$bindir/$c" -shards 1
  out="$("$bindir/$c" -shards 1 2>&1 || true)"
  if [[ "$out" != *"flag provided but not defined: -shards"* ]]; then
    echo "e2e: $c -shards 1 did not report an undefined flag: $out" >&2
    exit 1
  fi
done
expect_exit 1 "$bindir/empower-fleet" -addr 256.0.0.1:1 -wal "$bindir/unused.wal" -quiet
# A timeline past the event budget (a billion seconds of one-second flaps)
# exits 1 within seconds, naming the budget. The address-space cap makes a
# regression to unbounded expansion die at once instead of swapping.
jq '.duration = 1e9 | .processes[0] += {"first_at": 1, "down_mean": 1, "up_mean": 1}' \
  examples/scenarios/flaps.json > "$bindir/forever.json"
hostile_status=0
hostile_out="$( (ulimit -v 4194304; timeout 20 "$bindir/empower-scenario" \
  -scenario "$bindir/forever.json" -runs 1 -schemes SP) 2>&1 > /dev/null)" || hostile_status=$?
if [[ "$hostile_status" != 1 || "$hostile_out" != *"budget of 65536 timeline events"* ]]; then
  echo "e2e: over-budget timeline: exit $hostile_status (want 1): $hostile_out" >&2
  exit 1
fi
# A topology's view is checked where the scenario is parsed.
jq '.topology.view = "bogus"' examples/scenarios/grayfail.json > "$bindir/bogus-view.json"
view_status=0
view_out="$("$bindir/empower-scenario" -scenario "$bindir/bogus-view.json" -runs 1 -schemes SP 2>&1 > /dev/null)" \
  || view_status=$?
if [[ "$view_status" != 1 || "$view_out" != *'unknown topology view "bogus"'* ]]; then
  echo "e2e: bogus topology view: exit $view_status (want 1): $view_out" >&2
  exit 1
fi
# A scripted flow may not take a name the arrival processes generate.
jq '.flows[0].name = "arrival-0-0"' examples/scenarios/flaps.json > "$bindir/reserved.json"
reserved_status=0
reserved_out="$("$bindir/empower-scenario" -scenario "$bindir/reserved.json" -runs 1 -schemes SP 2>&1 > /dev/null)" \
  || reserved_status=$?
if [[ "$reserved_status" != 1 || "$reserved_out" != *'"arrival-0-0" is reserved'* ]]; then
  echo "e2e: reserved flow name: exit $reserved_status (want 1): $reserved_out" >&2
  exit 1
fi
# An interrupted sweep exits 130 and still leaves its last -metrics snapshot.
"$bindir/empower-sim" -fig 6 -runs 100000 -metrics "$bindir/interrupted.prom" > /dev/null 2>&1 &
sim_pid=$!
sleep 1
kill -INT "$sim_pid"
sim_status=0
wait "$sim_pid" || sim_status=$?
sim_pid=
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
"$bindir/empower-scenario" -scenario examples/scenarios/flaps.json -runs 1 -schemes EMPoWER,SP -flaprates 1,4 \
  > "$bindir/flaprates.txt"
"$bindir/empower-scenario" -scenario examples/scenarios/flaps.json -runs 1 -schemes EMPoWER,SP -flaprates 1,4 -json \
  > "$bindir/flaprates.json"
jq_check "empower-scenario -flaprates" "$bindir/flaprates.json" '.experiment == "churn-flap-sweep"'
grep -q "^4.00  *$(jq -r '.result.goodput[0][1]' "$bindir/flaprates.json" | xargs printf '%.2f')  " \
  "$bindir/flaprates.txt" || { echo "e2e: -flaprates text and -json disagree" >&2; exit 1; }

echo "== every figure and Table 1 as text; -out, -progress, -pprof" >&2
"$bindir/empower-sim" -fig all -runs 2 -slots 300 -out "$bindir/tsv" -progress -pprof 127.0.0.1:0 \
  > "$bindir/sim-all.txt" 2> "$bindir/sim-all.err"
for topo in residential enterprise; do
  for head in "Figure 4 ($topo)" "Figure 5 ($topo)" "Figure 6 ($topo)" "Figure 7 ($topo)" "Convergence ($topo"; do
    grep -qF "$head" "$bindir/sim-all.txt" || { echo "e2e: empower-sim -fig all: no \"$head\"" >&2; exit 1; }
  done
done
grep -q 'reps/s' "$bindir/sim-all.err" || { echo "e2e: empower-sim -progress drew no line" >&2; exit 1; }
for f in "$bindir"/tsv/*.tsv; do
  [[ "$(head -1 "$f")" == "# value	cdf" ]] || { echo "e2e: -out: $f has no TSV header" >&2; exit 1; }
done
[[ "$(ls "$bindir"/tsv/*.tsv | wc -l)" -ge 10 ]] || { echo "e2e: -out wrote too few CDF files" >&2; exit 1; }
"$bindir/empower-testbed" -fig all -duration 3 -pairs 2 -flows 2 -runs 1 -progress \
  > "$bindir/tb-all.txt" 2> /dev/null
for head in "Figure 9:" "Figure 10 (left)" "Figure 11:" "Table 1:" "Figure 12:" "Figure 13"; do
  grep -qF "$head" "$bindir/tb-all.txt" || { echo "e2e: empower-testbed -fig all: no \"$head\"" >&2; exit 1; }
done
"$bindir/empower-testbed" -table 1 -runs 1 -duration 2 -pprof 127.0.0.1:0 -json > "$bindir/tb-table.json"
jq_check "empower-testbed -table 1" "$bindir/tb-table.json" '.figure == "table1" and (.result | type == "object")'

# The observability flags change no stdout byte; the -metrics snapshot
# lints as Prometheus text and the -trace file is a Chrome trace.
echo "== instrumented sweep: -metrics -progress -phases -trace agree with a plain one" >&2
flaps7=(-scenario examples/scenarios/flaps.json -runs 3 -seed 7 -schemes EMPoWER,SP)
"$bindir/empower-scenario" "${flaps7[@]}" > "$bindir/plain.out"
"$bindir/empower-scenario" "${flaps7[@]}" -metrics "$bindir/sweep.prom" -progress -phases \
  -trace "$bindir/sweep.trace.json" -tracerun 1 > "$bindir/instr.out" 2> "$bindir/instr.err"
cmp "$bindir/plain.out" "$bindir/instr.out"
grep -q 'phases' "$bindir/instr.err" || { echo "e2e: -phases printed no breakdown" >&2; exit 1; }
jq_check "empower-scenario -trace" "$bindir/sweep.trace.json" 'type == "array" and length > 0'
PROMFILE="$bindir/sweep.prom" GOFLAGS= go test -count=1 -run '^TestLintFile$' ./internal/obs > /dev/null
"$bindir/empower-scenario" "${flaps7[@]}" -manage=false -phases -json > "$bindir/unmanaged.json"
jq_check "empower-scenario -manage=false -phases" "$bindir/unmanaged.json" \
  '(.phases | type == "object") and ([.result.rows[].scheme] | contains(["EMPoWER", "SP"]))'

# run_example NAME TEXT — runs examples/NAME at its default flags and
# asserts exit 0 plus one characteristic output line, containing TEXT.
run_example() {
  go build -o "$bindir/example-$1" "./examples/$1"
  "$bindir/example-$1" > "$bindir/example-$1.out"
  grep -qF -- "$2" "$bindir/example-$1.out" || {
    echo "e2e: example $1: no \"$2\" in its output" >&2
    cat "$bindir/example-$1.out" >&2
    exit 1
  }
}

echo "== examples (five walkthroughs, default flags)" >&2
run_example quickstart "multipath combination: total 16.67 Mbps"
run_example failover "t=20s: PLC medium dies"
run_example tcpfriendly "EMPoWER δ=0.3 (multi)  goodput"
run_example residential "EMPoWER routes:"
run_example enterprise "optimal    utility"

echo "== empower-route reads back what it dumps" >&2
"$bindir/empower-route" -dump > "$bindir/fig1.json"
"$bindir/empower-route" -topo "$bindir/fig1.json" -n 3 | cmp - "$bindir/route.out"

echo "== empower-fleet (daemon: submit, poll, list, results, stream, metrics, cancel, SIGTERM drain)" >&2
fleet_port=18080
fleet_base="http://127.0.0.1:$fleet_port"
if curl -sf "$fleet_base/healthz" > /dev/null 2>&1; then
  echo "e2e: 127.0.0.1:$fleet_port already answers /healthz; stop the daemon holding it first" >&2
  exit 1
fi
rm -f "$bindir/fleet.wal" "$bindir/crash.wal"
# start_fleet WAL [FLAG...] — starts the daemon and waits for /healthz.
start_fleet() {
  local wal="$1"
  shift
  "$bindir/empower-fleet" -addr "127.0.0.1:$fleet_port" -wal "$wal" -quiet "$@" &
  fleet_pid=$!
  for _ in $(seq 1 100); do
    curl -sf "$fleet_base/healthz" > /dev/null 2>&1 && return
    sleep 0.1
  done
  echo "e2e: empower-fleet never came up" >&2
  exit 1
}
# stop_fleet SIGNAL WANT — signals the daemon and asserts its exit status.
stop_fleet() {
  local status=0
  kill -"$1" "$fleet_pid"
  wait "$fleet_pid" || status=$?
  fleet_pid=
  if [[ "$status" != "$2" ]]; then
    echo "e2e: empower-fleet exited $status after SIG$1, want $2" >&2
    exit 1
  fi
}
# await_sweep ID — polls until the sweep is done, failed or cancelled
# and prints its final status.
await_sweep() {
  local state
  for _ in $(seq 1 600); do
    state="$(curl -sf "$fleet_base/sweeps/$1" | jq -r .state)"
    [[ "$state" == done || "$state" == failed || "$state" == cancelled ]] && break
    sleep 0.1
  done
  curl -sf "$fleet_base/sweeps/$1"
}

start_fleet "$bindir/fleet.wal"
curl -sf "$fleet_base/sweeps" -d @examples/sweeps/quickstart.json > "$bindir/fleet-submit.json"
jq_check "empower-fleet submission" "$bindir/fleet-submit.json" \
  '.id == "sweep-000001" and .state == "pending" and .total == 15'
# A typo'd field must come back as a structured 400, not be silently run.
echo '{"scenario":{"name":"x"},"runz":3}' > "$bindir/fleet-bad.json"
curl -s "$fleet_base/sweeps" -d @"$bindir/fleet-bad.json" > "$bindir/fleet-reject.json"
jq_check "empower-fleet structured rejection" "$bindir/fleet-reject.json" \
  '.error.field == "runz" and .error.reason == "unknown field"'
# The same spec at 10 runs, uninterrupted: the reference of the kill -9
# resume below.
jq '.runs = 10' examples/sweeps/quickstart.json > "$bindir/resume-spec.json"
curl -sf "$fleet_base/sweeps" -d @"$bindir/resume-spec.json" > /dev/null

await_sweep sweep-000001 > "$bindir/fleet-status.json"
jq_check "empower-fleet sweep completion" "$bindir/fleet-status.json" \
  '.state == "done" and .completed == 15'
await_sweep sweep-000002 > "$bindir/fleet-status-2.json"
jq_check "empower-fleet second sweep completion" "$bindir/fleet-status-2.json" \
  '.state == "done" and .completed == 30'
curl -sf "$fleet_base/sweeps/sweep-000001/results" > "$bindir/fleet-results.json"
jq_check "empower-fleet results shape" "$bindir/fleet-results.json" \
  '.scenario == "plc-flaps" and ([.rows[].scheme] | contains(["EMPoWER", "SP"]))'
curl -sf "$fleet_base/sweeps/sweep-000002/results" > "$bindir/fleet-results-2.json"
# The SSE stream replays every replication, then ends in the results.
curl -sfN "$fleet_base/sweeps/sweep-000001/results?stream=1" > "$bindir/fleet-stream.txt"
if [[ "$(grep -c '^event: rep$' "$bindir/fleet-stream.txt")" != 15 \
  || "$(grep '^event: ' "$bindir/fleet-stream.txt" | tail -1)" != "event: done" ]]; then
  echo "e2e: empower-fleet results stream: want 15 rep events then done" >&2
  exit 1
fi
curl -sf "$fleet_base/sweeps" > "$bindir/fleet-list.json"
jq_check "empower-fleet list" "$bindir/fleet-list.json" \
  '[.sweeps[] | .id + " " + .state] == ["sweep-000001 done", "sweep-000002 done"]'
curl -sf "$fleet_base/sweeps/sweep-000001/metrics" | grep -q '^# TYPE ' \
  || { echo "e2e: empower-fleet per-sweep metrics are empty" >&2; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' "$fleet_base/sweeps/sweep-999999")"
[[ "$code" == 404 ]] || { echo "e2e: empower-fleet unknown sweep answered $code, want 404" >&2; exit 1; }
curl -sf "$fleet_base/metrics" | grep -q '^fleet_reps_completed_total 45' \
  || { echo "e2e: empower-fleet /metrics misses the completed-replication counter" >&2; exit 1; }
# A sweep far too long to finish is cancelled.
jq '.runs = 10000' examples/sweeps/quickstart.json > "$bindir/long-spec.json"
curl -sf "$fleet_base/sweeps" -d @"$bindir/long-spec.json" > /dev/null
curl -sf -X DELETE "$fleet_base/sweeps/sweep-000003" > /dev/null
await_sweep sweep-000003 > "$bindir/fleet-cancel.json"
jq_check "empower-fleet cancel" "$bindir/fleet-cancel.json" '.state == "cancelled"'
stop_fleet TERM 0

echo "== empower-fleet restart: the WAL replays; a 1 ms attempt timeout fails a sweep after backoff" >&2
start_fleet "$bindir/fleet.wal" -timeout 1ms -retries 1
curl -sf "$fleet_base/sweeps" > "$bindir/fleet-list-replayed.json"
jq_check "empower-fleet replayed list" "$bindir/fleet-list-replayed.json" \
  '[.sweeps[] | .id + " " + .state] == ["sweep-000001 done", "sweep-000002 done", "sweep-000003 cancelled"]'
curl -sf "$fleet_base/sweeps/sweep-000001/results" | cmp - "$bindir/fleet-results.json"
curl -sf "$fleet_base/sweeps" -d @examples/sweeps/quickstart.json > /dev/null
await_sweep sweep-000004 > "$bindir/fleet-timeout.json"
jq_check "empower-fleet timed-out sweep" "$bindir/fleet-timeout.json" \
  '.state == "failed" and .timeouts >= 2 and .retries >= 1'
stop_fleet TERM 0

# kill -9 must land mid-sweep: one worker, polled until two replications
# are checkpointed, and the sweep must not be done yet.
echo "== empower-fleet kill -9 mid-sweep: the restart resumes to the uninterrupted results" >&2
start_fleet "$bindir/crash.wal" -workers 1
curl -sf "$fleet_base/sweeps" -d @"$bindir/resume-spec.json" > /dev/null
for _ in $(seq 1 600); do
  curl -sf "$fleet_base/sweeps/sweep-000001" > "$bindir/crash-status.json"
  [[ "$(jq .completed "$bindir/crash-status.json")" -ge 2 ]] && break
  sleep 0.05
done
jq_check "empower-fleet sweep still running at the kill" "$bindir/crash-status.json" \
  '.state == "running" and .completed >= 2 and .completed < .total'
stop_fleet KILL 137
start_fleet "$bindir/crash.wal" -workers 1
await_sweep sweep-000001 > "$bindir/crash-done.json"
jq_check "empower-fleet resumed sweep" "$bindir/crash-done.json" '.state == "done" and .completed == 30'
curl -sf "$fleet_base/sweeps/sweep-000001/results" | cmp - "$bindir/fleet-results-2.json"
stop_fleet TERM 0

echo "e2e: all CLIs OK" >&2
