#!/usr/bin/env bash
# Runs the tracked benchmark suites COUNT times each and records, per
# benchmark, the median ns/op with its min/max spread plus B/op and
# allocs/op as JSON, stamped with the machine (CPU model, GOMAXPROCS, go
# version, commit), so the perf trajectory is visible per PR and a number
# can be told from noise (CI uploads the BENCH_*.json files as artifacts):
#
#   BENCH_ROUTING.json  — routing and controller micro-benchmarks plus the
#                         Figure-4 sweep bench (tracked since PR 2), and the
#                         centralized baselines: one 512-route solve and
#                         the Figure-6 sweep bench (tracked since PR 15),
#                         and what one §5 evaluation pays outside routing:
#                         the controller over the 4000-slot horizon and
#                         the three views of an instance (since PR 17)
#   BENCH_SCENARIO.json — the emulation fast-path benches: the churn sweep
#                         (scenario engine end to end, tracked since PR 3),
#                         one emulated second of the flaps scenario
#                         (tracked since PR 5), and the same second with
#                         the flight recorder + metrics sampling attached
#                         (BenchmarkMetricsOverhead — the ≤ 5% ns/op
#                         observability budget, tracked since PR 8), and
#                         the two kernels under them: one MAC completion
#                         on the testbed network and one event through
#                         the engine heap (tracked since PR 16)
#                         — plus BenchmarkChurnCollect, the collect reads
#                         (failover latencies, goodputs) of a finished
#                         flaps replication
#
# Before overwriting an output file, the previously committed numbers are
# kept and a delta table (old → new median, with ratios) is printed. A
# change is flagged faster/slower only when the two recorded [min, max]
# spreads do not overlap; overlapping spreads print "~", and "?" means a
# side recorded fewer than two samples, so its spread is unknown. The
# spread is what one invocation saw: on a shared machine, record the two
# sides back to back with nothing else running — load that drifts over
# minutes is not in it.
#
# "Median" is the lower median of the COUNT samples, so every recorded
# value is one a run actually produced.
#
# Usage: scripts/bench.sh [routing-output.json [scenario-output.json]]
#   COUNT=8 (default)  samples per benchmark (go test -count)
#   BENCHTIME=200ms scripts/bench.sh        # quicker, noisier run
#   COUNT=1 BENCHTIME=1x scripts/bench.sh   # smoke (what CI records)
set -euo pipefail
cd "$(dirname "$0")/.."

routing_out="${1:-BENCH_ROUTING.json}"
scenario_out="${2:-BENCH_SCENARIO.json}"
benchtime="${BENCHTIME:-1s}"
count="${COUNT:-8}"

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [[ -n "$(git status --porcelain 2>/dev/null)" ]]; then
  commit="$commit+dirty"
fi

# run_bench PATTERN OUTPUT — runs the root-package benchmarks matching
# PATTERN and records them as a JSON document in OUTPUT. A pre-existing
# OUTPUT (the committed numbers) is diffed against the fresh run.
run_bench() {
  local pattern="$1" out="$2" tmp old
  tmp="$(mktemp)"
  old=""
  if [[ -f "$out" ]]; then
    old="$(mktemp)"
    cp "$out" "$old"
  fi
  # shellcheck disable=SC2064
  trap "rm -f '$tmp' ${old:+'$old'}" RETURN
  go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" . | tee "$tmp" >&2

  awk -v generated="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" \
      -v commit="$commit" -v benchtime="$benchtime" -v count="$count" '
    # lower median of v[1..n] (insertion sort: asort is gawk-only and CI
    # runs mawk); also leaves lo/hi set to the extremes.
    function median(v, n,   i, j, t) {
      for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] + 0 > t + 0; j--) v[j+1] = v[j]
        v[j+1] = t
      }
      lo = v[1]; hi = v[n]
      return v[int((n + 1) / 2)]
    }
    function column(name, kind,   i, v, n) {
      n = samples[name]
      for (i = 1; i <= n; i++) {
        if (val[name, kind, i] == "") return "null"
        v[i] = val[name, kind, i]
      }
      return median(v, n)
    }
    /^cpu:/ { cpu = $0; sub(/^cpu:[ \t]*/, "", cpu) }
    /^Benchmark/ {
      name = $1
      # go test appends -GOMAXPROCS to every name unless it is 1
      procs = 1
      if (match(name, /-[0-9]+$/)) { procs = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
      if (!(name in samples)) order[++nb] = name
      k = ++samples[name]
      iters[name] = $2
      for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") val[name, "ns", k] = $i
        if ($(i+1) == "B/op") val[name, "b", k] = $i
        if ($(i+1) == "allocs/op") val[name, "a", k] = $i
        # BenchmarkOptimalSolve reports the share of routes its pass visits
        if ($(i+1) == "live-share") val[name, "live", k] = $i
      }
    }
    END {
      gsub(/["\\]/, "", cpu)
      printf "{\n"
      printf "  \"generated\": \"%s\",\n", generated
      printf "  \"go\": \"%s\",\n", gover
      printf "  \"commit\": \"%s\",\n", commit
      printf "  \"cpu\": \"%s\",\n", (cpu == "" ? "unknown" : cpu)
      printf "  \"gomaxprocs\": %d,\n", procs
      printf "  \"benchtime\": \"%s\",\n", benchtime
      printf "  \"count\": %d,\n", count
      printf "  \"benchmarks\": [\n"
      for (b = 1; b <= nb; b++) {
        name = order[b]
        ns = column(name, "ns"); nslo = lo; nshi = hi
        if (ns == "null") nslo = nshi = ns
        live = column(name, "live")
        printf "    {\"name\":\"%s\",\"samples\":%d,\"iterations\":%s,\"ns_per_op\":%s,\"ns_per_op_min\":%s,\"ns_per_op_max\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s%s}%s\n", \
          name, samples[name], iters[name], ns, nslo, nshi, \
          column(name, "b"), column(name, "a"), (live == "null" ? "" : ",\"live_share\":" live), (b < nb ? "," : "")
      }
      printf "  ]\n}\n"
    }
  ' "$tmp" > "$out"
  echo "wrote $out" >&2
  if [[ -n "$old" ]]; then
    print_delta "$old" "$out" >&2
  fi
}

# print_delta OLD NEW — per-benchmark old → new table for median ns/op and
# allocs/op, with improvement ratios (old/new: > 1 is faster/leaner) and
# the spread verdict described in the header. Files written before the
# spread was recorded carry one sample per benchmark and read as "?".
print_delta() {
  awk '
    function field(line, key,   v) {
      if (line !~ "\"" key "\":") return ""
      v = line; sub(".*\"" key "\":", "", v); sub(/[,}].*/, "", v)
      return v
    }
    function load(file, dest,   line, name, n) {
      while ((getline line < file) > 0) {
        if (line !~ /"name"/) continue
        name = line; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
        n = field(line, "samples")
        dest[name] = field(line, "ns_per_op") "|" field(line, "allocs_per_op") "|" \
          field(line, "ns_per_op_min") "|" field(line, "ns_per_op_max") "|" (n == "" ? 1 : n)
      }
      close(file)
    }
    function ratio(o, n) {
      if (o == "null" || n == "null" || n + 0 == 0) return "      -"
      return sprintf("%6.2fx", o / n)
    }
    # verdict compares the recorded [min, max] spreads: o*/n* are
    # median|allocs|min|max|samples splits.
    function verdict(o, n) {
      if (o[1] == "null" || n[1] == "null") return "-"
      if (o[5] < 2 || n[5] < 2) return "?"
      if (n[4] + 0 < o[3] + 0) return "faster"
      if (n[3] + 0 > o[4] + 0) return "slower"
      return "~"
    }
    function sorted(src, dst,   name, n, i, j, v) {
      n = 0
      for (name in src) dst[++n] = name
      for (i = 2; i <= n; i++) {
        v = dst[i]
        for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j+1] = dst[j]
        dst[j+1] = v
      }
      return n
    }
    BEGIN {
      load(ARGV[1], oldv)
      load(ARGV[2], newv)
      fmt = "%-44s %14s %14s %8s %7s %12s %12s %8s\n"
      printf "\ndelta vs previously committed %s (spread verdict: faster/slower = [min,max] disjoint, ~ = within spread, ? = spread unknown):\n", ARGV[2]
      printf fmt, "benchmark", "old ns/op", "new ns/op", "speed", "spread", "old allocs", "new allocs", "allocs"
      n = sorted(newv, order)
      for (i = 1; i <= n; i++) {
        name = order[i]
        split(newv[name], nv, "|")
        if (!(name in oldv)) {
          printf fmt, name, "-", nv[1], "new", "-", "-", nv[2], "new"
          continue
        }
        split(oldv[name], ov, "|")
        printf fmt, name, ov[1], nv[1], ratio(ov[1], nv[1]), verdict(ov, nv), ov[2], nv[2], ratio(ov[2], nv[2])
      }
      # Benchmarks present in the committed file but absent from this run
      # (renamed, removed, or filtered out by the pattern) must not vanish
      # silently from the report.
      for (name in oldv) if (!(name in newv)) gonev[name] = 1
      m = sorted(gonev, gone)
      for (i = 1; i <= m; i++) {
        name = gone[i]
        split(oldv[name], ov, "|")
        printf fmt, name, ov[1], "-", "gone", "-", ov[2], "-", "gone"
      }
    }
  ' "$1" "$2"
}

run_bench 'BenchmarkRoutingN5$|BenchmarkAblationNShortest|BenchmarkAblationCSC|BenchmarkControllerSlot$|BenchmarkControllerBatch$|BenchmarkControllerHorizon|BenchmarkInstanceBuildViews$|BenchmarkFigure4ParallelSweep|BenchmarkOptimalSolve$|BenchmarkFigure6OptimalRatios$' "$routing_out"
run_bench 'BenchmarkChurnSweep$|BenchmarkChurnCollect$|BenchmarkEmulationSecond$|BenchmarkMetricsOverhead$|BenchmarkMACCompletion$|BenchmarkEngineHeap$' "$scenario_out"
