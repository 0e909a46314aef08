#!/bin/sh
# Tier-1 CI: configure, build and run the full test suite twice —
# once plain, once under AddressSanitizer + UBSan (-DNVSIM_SANITIZE=ON)
# — then race-check the sweep pool under ThreadSanitizer and verify the
# parallel/batched engines reproduce the serial output byte-for-byte.
# Any test failure or sanitizer report fails the script.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)

run_suite() {
    build_dir=$1
    shift
    echo "=== configuring $build_dir ($*) ==="
    cmake -B "$root/$build_dir" -S "$root" "$@"
    echo "=== building $build_dir ==="
    cmake --build "$root/$build_dir" -j "$jobs"
    echo "=== testing $build_dir ==="
    ctest --test-dir "$root/$build_dir" --output-on-failure -j "$jobs"
}

run_suite build -DNVSIM_SANITIZE=OFF
run_suite build-asan -DNVSIM_SANITIZE=ON

# ThreadSanitizer pass over the sweep engine, the only code that runs
# threads: the pool tests, repeated so the batch-reuse path runs many
# times, plus real bench sweeps at --jobs > 1. Scoped to these targets
# — the rest of the suite is single-threaded and already covered.
echo "=== TSan suite (sweep pool) ==="
cmake -B "$root/build-tsan" -S "$root" -DNVSIM_SANITIZE=thread
cmake --build "$root/build-tsan" -j "$jobs" \
    --target test_exec test_access_range bench_fig4_2lm_microbench \
    bench_queue_load
# Run the binaries directly: the tree only builds these targets, and
# ctest would trip over every other test's _NOT_BUILT placeholder.
"$root/build-tsan/tests/test_exec" --gtest_repeat=20
"$root/build-tsan/tests/test_access_range"
tsan_dir=$(mktemp -d)
(cd "$tsan_dir" && \
    "$root/build-tsan/bench/bench_fig4_2lm_microbench" --jobs=4 \
    > bench.log)
(cd "$tsan_dir" && \
    "$root/build-tsan/bench/bench_queue_load" --jobs=2 > queue.log)
rm -rf "$tsan_dir"
echo "TSan suite passed: no data races reported."

# Determinism smoke: the sweep engine and the batched access engine
# must reproduce the serial per-line output byte-for-byte — console
# and CSV alike — for any --jobs=N, in 2LM (fig4) and 1LM (fig2).
echo "=== determinism smoke (--jobs / --per-line byte-diff) ==="
det_dir=$(mktemp -d)
for bench in bench_fig4_2lm_microbench bench_fig2_nvram_bw; do
    for variant in "jobs1 --jobs=1" "jobs4 --jobs=4" \
                   "perline --jobs=1 --per-line"; do
        name=${variant%% *}
        flags=${variant#* }
        mkdir -p "$det_dir/$bench/$name"
        # shellcheck disable=SC2086  # flags is a word list by design
        (cd "$det_dir/$bench/$name" && \
            "$root/build/bench/$bench" $flags > stdout.txt)
    done
    diff -r "$det_dir/$bench/jobs1" "$det_dir/$bench/jobs4"
    diff -r "$det_dir/$bench/jobs1" "$det_dir/$bench/perline"
done
rm -rf "$det_dir"
echo "determinism smoke passed: outputs byte-identical."

# Observability smoke: one bench run with every obs output enabled;
# both JSON artifacts must parse (json.tool exits nonzero otherwise).
echo "=== obs smoke (stats JSON / Perfetto / heatmap) ==="
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
(cd "$obs_dir" && "$root/build/bench/bench_fig4_2lm_microbench" \
    --stats-json=stats.json --stats-prom=stats.prom \
    --perfetto=trace.json --set-heatmap=heatmap.csv \
    --top-sets=4 > bench.log)
python3 -m json.tool "$obs_dir/stats.json" > /dev/null
python3 -m json.tool "$obs_dir/trace.json" > /dev/null
head -1 "$obs_dir/heatmap.csv" | grep -q '^run,set,hits,misses,evictions$'
test -s "$obs_dir/stats.prom"
echo "obs smoke passed: artifacts written and valid."

# Causal-tracing smoke: the attribution JSON and the Perfetto flow
# trace must parse, and the folded stacks must blame every Figure-3
# miss-handler step (the five Table I causes) at least once. Tracing
# is opt-in, so the traced run's CSV is the golden one. Sampling is
# seeded: the same seed repeats the folded stacks byte for byte, and
# another seed samples the same demand stream differently.
echo "=== causal smoke (attribution / folded stacks / flow events) ==="
causal_dir=$(mktemp -d)
for run in "seed1 1 --perfetto=causal_trace.json" "seed1b 1" "seed2 2"; do
    # shellcheck disable=SC2086  # run is a word list by design
    set -- $run
    mkdir -p "$causal_dir/$1"
    # shellcheck disable=SC2086  # $3 is an optional flag
    (cd "$causal_dir/$1" && \
        "$root/build/bench/bench_fig4_2lm_microbench" \
        --causal-trace=causal.json --folded-stacks=folded.txt \
        --causal-sample=32 --causal-seed="$2" ${3:-} > causal.log)
done
seed1="$causal_dir/seed1"
python3 -m json.tool "$seed1/causal.json" > /dev/null
python3 -m json.tool "$seed1/causal_trace.json" > /dev/null
grep -q '"ph":"s"' "$seed1/causal_trace.json"
grep -q '"bp":"e"' "$seed1/causal_trace.json"
for cause in tag_probe dirty_writeback cache_fill_read \
             cache_insert_write data_write; do
    grep -q ";$cause " "$seed1/folded.txt"
done
diff "$root/tests/golden/fig4_2lm_microbench.csv" \
     "$seed1/fig4_2lm_microbench.csv"
cmp "$seed1/folded.txt" "$causal_dir/seed1b/folded.txt"
if cmp -s "$seed1/folded.txt" "$causal_dir/seed2/folded.txt"; then
    echo "causal smoke FAILED: seeds 1 and 2 sampled identical stacks"
    exit 1
fi
python3 - "$seed1/causal.json" "$causal_dir/seed2/causal.json" <<'EOF'
import json, sys
demands = [sum(r["causal"]["demand_requests"]
               for r in json.load(open(path))["runs"])
           for path in sys.argv[1:]]
assert demands[0] == demands[1], \
    f"the sampling seed changed the demand stream: {demands}"
EOF
rm -rf "$causal_dir"
echo "causal smoke passed: blame trees cover all five causes," \
     "seeded sampling repeats, the traced CSV is golden."

# Policy smoke: the ablation bench must sweep every registered cache
# policy and emit the documented CSV schema.
echo "=== policy smoke (pluggable cache-policy ablation) ==="
pol_dir=$(mktemp -d)
(cd "$pol_dir" && "$root/build/bench/bench_ablation_policy" \
    --jobs="$jobs" > bench.log)
head -1 "$pol_dir/ablation_policy.csv" | grep -q \
    '^policy,scenario,ratio,miss_rate,effective_gbs,amplification,bypass_frac$'
for kind in direct_mapped_tag_ecc sram_tag_set_assoc \
            bypass_selective_insert; do
    grep -q "^$kind," "$pol_dir/ablation_policy.csv"
done
rm -rf "$pol_dir"
echo "policy smoke passed: every registered policy swept."

# Golden byte-diff: under the default policy the refactored controller
# must reproduce the seed's figure/table outputs byte-for-byte — the
# policy interface is an extraction, not a behavior change.
echo "=== golden byte-diff (default policy vs tests/golden) ==="
gold_dir=$(mktemp -d)
(cd "$gold_dir" && \
    "$root/build/bench/bench_fig2_nvram_bw" --jobs=1 > /dev/null && \
    "$root/build/bench/bench_fig4_2lm_microbench" --jobs=1 > /dev/null && \
    "$root/build/bench/bench_table1_amplification" > table1_stdout.txt)
diff "$root/tests/golden/fig2_nvram_bw.csv" "$gold_dir/fig2_nvram_bw.csv"
diff "$root/tests/golden/fig4_2lm_microbench.csv" \
     "$gold_dir/fig4_2lm_microbench.csv"
diff "$root/tests/golden/table1_stdout.txt" "$gold_dir/table1_stdout.txt"
rm -rf "$gold_dir"
echo "golden byte-diff passed: default-policy outputs match the seed."

# Ablation golden byte-diff: the cache paths the figure goldens never
# reach — the tags-in-ECC policy at 1-8 ways (live LRU stamps) and
# every registered policy, bypass included — must reproduce their
# recorded CSVs byte for byte.
echo "=== ablation golden byte-diff (associativity / policy) ==="
abl_dir=$(mktemp -d)
(cd "$abl_dir" && \
    "$root/build/bench/bench_ablation_associativity" --jobs="$jobs" \
        > /dev/null && \
    "$root/build/bench/bench_ablation_policy" --jobs="$jobs" > /dev/null)
diff "$root/tests/golden/ablation_associativity.csv" \
     "$abl_dir/ablation_associativity.csv"
diff "$root/tests/golden/ablation_policy.csv" "$abl_dir/ablation_policy.csv"
rm -rf "$abl_dir"
echo "ablation byte-diff passed: associativity and policy sweeps match."

# Maintenance-off equivalence: a config that spells the whole
# maintenance block out explicitly, with every engine off, must
# reproduce the golden figure outputs byte-for-byte — the subsystem is
# behavior-neutral until enabled (no RNG draws, no timing change).
echo "=== maintenance-off golden byte-diff ==="
moff_dir=$(mktemp -d)
cat > "$moff_dir/maint_off.json" <<'EOF'
{
  "maintenance": {
    "seed": 1,
    "refresh": {"trefi": 0, "trfc": 350e-9},
    "scrub": {"interval": 0, "correctable": 0, "uncorrectable": 0,
              "retire_threshold": 2, "retire_capacity": 64},
    "rowhammer": {"threshold": 0, "tracker_entries": 64,
                  "row_bytes": 8192, "blast_radius": 2,
                  "refresh_latency": 60e-9, "window": 64e-3}
  }
}
EOF
(cd "$moff_dir" && \
    "$root/build/bench/bench_fig2_nvram_bw" --jobs=1 \
        --config=maint_off.json > /dev/null && \
    "$root/build/bench/bench_fig4_2lm_microbench" --jobs=1 \
        --config=maint_off.json > /dev/null && \
    "$root/build/bench/bench_table1_amplification" > table1_stdout.txt)
diff "$root/tests/golden/fig2_nvram_bw.csv" "$moff_dir/fig2_nvram_bw.csv"
diff "$root/tests/golden/fig4_2lm_microbench.csv" \
     "$moff_dir/fig4_2lm_microbench.csv"
diff "$root/tests/golden/table1_stdout.txt" "$moff_dir/table1_stdout.txt"
rm -rf "$moff_dir"
echo "maintenance-off byte-diff passed: all-off equals absent."

# Maintenance smoke: the interference sweep must emit one row per
# (plan, mode) point and reach both headline verdicts — 2LM degrades
# faster under faults and inflates faster under maintenance.
echo "=== maintenance smoke (interference sweep) ==="
maint_dir=$(mktemp -d)
(cd "$maint_dir" && "$root/build/bench/bench_fault_degradation" \
    > bench.log)
for plan in off refresh scrub_64 scrub_16 rowhammer_2k tight; do
    for mode in 2lm 1lm; do
        grep -q "^maintenance,$mode,$plan," \
            "$maint_dir/fault_degradation.csv"
    done
done
grep -q "2LM inflates faster (as expected)" "$maint_dir/bench.log"
grep -q "2LM degrades faster (as expected)" "$maint_dir/bench.log"
rm -rf "$maint_dir"
echo "maintenance smoke passed: sweep rows and verdicts present."

# Telemetry smoke: one run with every telemetry output enabled. The
# CSV must carry the documented header, the JSON must parse and carry
# the schema marker, and the SLO report must print a verdict per run.
echo "=== telemetry smoke (windowed series / JSON / SLO report) ==="
tel_dir=$(mktemp -d)
(cd "$tel_dir" && "$root/build/bench/bench_fig4_2lm_microbench" \
    --telemetry=tel.csv --telemetry-json=tel.json \
    --telemetry-window=1ms --slo='p99_ns<100000@95%;amplification<8' \
    > bench.log)
head -1 "$tel_dir/tel.csv" | grep -q '^run,window,t0,t1,channel,metric,value$'
python3 -m json.tool "$tel_dir/tel.json" > /dev/null
grep -q '"schema": "nvsim-telemetry-v1"' "$tel_dir/tel.json" || \
    grep -q '"schema":"nvsim-telemetry-v1"' "$tel_dir/tel.json"
grep -q '=== SLO report:' "$tel_dir/bench.log"
grep -Eq 'PASS|FAIL' "$tel_dir/bench.log"
rm -rf "$tel_dir"
echo "telemetry smoke passed: artifacts written and valid."

# Telemetry byte-diff: unlike the Observer outputs, telemetry keeps
# the sweep parallel — and its exports must still be byte-identical
# for any --jobs=N (per-run collectors, order-normalized rendering).
echo "=== telemetry determinism (--jobs byte-diff) ==="
teld_dir=$(mktemp -d)
for n in 1 4; do
    mkdir -p "$teld_dir/jobs$n"
    (cd "$teld_dir/jobs$n" && \
        "$root/build/bench/bench_fig4_2lm_microbench" --jobs=$n \
        --telemetry=tel.csv --telemetry-json=tel.json > /dev/null)
done
diff "$teld_dir/jobs1/tel.csv" "$teld_dir/jobs4/tel.csv"
diff "$teld_dir/jobs1/tel.json" "$teld_dir/jobs4/tel.json"
rm -rf "$teld_dir"
echo "telemetry determinism passed: exports byte-identical."

# Differential-telemetry smoke: two identical invocations must diff
# empty (exit 0); a perturbed maintenance config must diff non-empty
# (exit 1) with the regression blamed on the maintenance counter
# family. Also smokes the anomalies/manifest subcommands and the
# --anomaly-report= bench flag.
echo "=== diff smoke (nvsim_inspect over telemetry artifacts) ==="
inspect="$root/build/tools/nvsim_inspect"
diff_dir=$(mktemp -d)
for tag in a b; do
    mkdir -p "$diff_dir/$tag"
    (cd "$diff_dir/$tag" && \
        "$root/build/bench/bench_fig4_2lm_microbench" --jobs=2 \
        --telemetry-json=tel.json > /dev/null)
done
"$inspect" diff "$diff_dir/a/tel.json" "$diff_dir/b/tel.json"
echo "identical-input diff is empty (exit 0)."
cat > "$diff_dir/maint_on.json" <<'EOF'
{
  "maintenance": {
    "seed": 1,
    "refresh": {"trefi": 7.8e-6, "trfc": 350e-9},
    "scrub": {"interval": 1e-3, "correctable": 0, "uncorrectable": 0,
              "retire_threshold": 2, "retire_capacity": 64},
    "rowhammer": {"threshold": 0, "tracker_entries": 64,
                  "row_bytes": 8192, "blast_radius": 2,
                  "refresh_latency": 60e-9, "window": 64e-3}
  }
}
EOF
mkdir -p "$diff_dir/maint"
(cd "$diff_dir/maint" && \
    "$root/build/bench/bench_fig4_2lm_microbench" --jobs=2 \
    --config="$diff_dir/maint_on.json" --telemetry-json=tel.json \
    > /dev/null)
set +e
"$inspect" diff "$diff_dir/a/tel.json" "$diff_dir/maint/tel.json" \
    --json="$diff_dir/diff.json" > "$diff_dir/diff.txt"
diff_rc=$?
set -e
test "$diff_rc" -eq 1
grep -q 'blame maintenance' "$diff_dir/diff.txt"
grep -q 'maintenance_stall_ns' "$diff_dir/diff.txt"
grep -q 'config hash' "$diff_dir/diff.txt"
python3 -m json.tool "$diff_dir/diff.json" > /dev/null
"$inspect" manifest "$diff_dir/a/tel.json" | \
    grep -q 'bench: bench_fig4_2lm_microbench'
"$inspect" anomalies "$diff_dir/a/tel.json" > /dev/null || true
(cd "$diff_dir/a" && "$root/build/bench/bench_fig4_2lm_microbench" \
    --jobs=2 --anomaly-report=anoms.json > /dev/null)
python3 -m json.tool "$diff_dir/a/anoms.json" > /dev/null
grep -q '"schema":"nvsim-anomaly-v1"' "$diff_dir/a/anoms.json"
(cd "$diff_dir" && "$root/build/bench/bench_micro_gbench" \
    --telemetry-json=micro_tel.json --benchmark_filter=BM_LfsrNext \
    > /dev/null)
"$inspect" manifest "$diff_dir/micro_tel.json" | \
    grep -q 'bench: bench_micro_gbench'
rm -rf "$diff_dir"
echo "diff smoke passed: empty on identical runs, maintenance blamed" \
     "on perturbation."

# Queue-off golden byte-diff: a config that spells out the whole
# controller block explicitly — the analytic scheduler plus non-default
# queue geometry — must reproduce the golden figure outputs byte for
# byte. The queue knobs are dead until a queued scheduler is selected;
# the analytic path is the same code the goldens were recorded on.
echo "=== queue-off golden byte-diff (explicit analytic controller) ==="
qoff_dir=$(mktemp -d)
cat > "$qoff_dir/queue_off.json" <<'EOF'
{
  "controller": {
    "scheduler": "analytic",
    "read_queue_entries": 8,
    "write_queue_entries": 24,
    "banks": 8,
    "row_bytes": 4096,
    "drain_high_watermark": 20,
    "drain_low_watermark": 4,
    "starvation_cap": 4,
    "bank_conflict_penalty": 45e-9,
    "offered_gbs": 100
  }
}
EOF
(cd "$qoff_dir" && \
    "$root/build/bench/bench_fig2_nvram_bw" --jobs=1 \
        --config=queue_off.json > /dev/null && \
    "$root/build/bench/bench_fig4_2lm_microbench" --jobs=1 \
        --config=queue_off.json > /dev/null)
diff "$root/tests/golden/fig2_nvram_bw.csv" "$qoff_dir/fig2_nvram_bw.csv"
diff "$root/tests/golden/fig4_2lm_microbench.csv" \
     "$qoff_dir/fig4_2lm_microbench.csv"
rm -rf "$qoff_dir"
echo "queue-off byte-diff passed: analytic controller equals the seed."

# Saturated-channel smoke: the queued-controller load sweep must show
# the tail pulling away from the median as the offered load crosses
# the channel service knee (the bench's own verdict line), report
# nonzero queue activity, and stay byte-identical across --jobs and
# across the batched and per-line engines — the deferred epoch-end
# drain is part of the determinism contract, and both engines log the
# demand it replays.
echo "=== queue smoke (bench_queue_load saturation + determinism) ==="
ql_dir=$(mktemp -d)
for variant in "jobs1 --jobs=1" "jobs4 --jobs=4" \
               "perline --jobs=1 --per-line"; do
    name=${variant%% *}
    flags=${variant#* }
    mkdir -p "$ql_dir/$name"
    # shellcheck disable=SC2086  # flags is a word list by design
    (cd "$ql_dir/$name" && \
        "$root/build/bench/bench_queue_load" $flags > stdout.txt)
done
diff -r "$ql_dir/jobs1" "$ql_dir/jobs4"
diff -r "$ql_dir/jobs1" "$ql_dir/perline"
grep -q "tail stretches under load (as expected)" \
    "$ql_dir/jobs1/stdout.txt"
grep -q "^analytic,0,.*,0,0,0,0$" "$ql_dir/jobs1/queue_load.csv"
awk -F, 'NR > 2 && $7 == 0 { exit 1 }' "$ql_dir/jobs1/queue_load.csv"
# The telemetry SLO report must see the same tail: fig4 under a
# saturating FR-FCFS controller, whole-run p99 > p50 in the exported
# sketch (the analytic engine reports p99 == p50 by construction).
cat > "$ql_dir/frfcfs_sat.json" <<'EOF'
{ "controller": { "scheduler": "frfcfs", "offered_gbs": 8 } }
EOF
(cd "$ql_dir" && "$root/build/bench/bench_fig4_2lm_microbench" \
    --jobs=1 --config=frfcfs_sat.json --telemetry-json=tel.json \
    --slo='p99_ns>1000@50%' > slo.log)
grep -q '=== SLO report:' "$ql_dir/slo.log"
grep -q 'PASS' "$ql_dir/slo.log"
python3 - "$ql_dir/tel.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
lats = [r["telemetry"]["latency"] for r in doc["runs"]]
assert lats, "no telemetry runs in tel.json"
assert any(l["p99_ns"] > l["p50_ns"] for l in lats), \
    "saturated queued runs show no tail (p99 == p50 everywhere)"
EOF
# Across the sweep, p99 must grow faster than the offered load: the
# tail stretches super-linearly past the channel service knee.
python3 - "$ql_dir/jobs1/queue_load.csv" <<'EOF'
import csv, sys
rows = [r for r in csv.DictReader(open(sys.argv[1]))
        if r["scheduler"] != "analytic"]
lo, hi = rows[0], rows[-1]
load = float(hi["offered_gbs"]) / float(lo["offered_gbs"])
growth = float(hi["p99_ns"]) / float(lo["p99_ns"])
assert growth > load, \
    f"p99 grew {growth:.2f}x over a {load:.2f}x offered-load sweep"
print(f"p99 grows {growth:.2f}x over a {load:.2f}x offered-load sweep")
EOF
rm -rf "$ql_dir"
echo "queue smoke passed: saturated p99 > p50 and super-linear in load," \
     "outputs byte-identical."

# Prometheus strict lint: the exposition-format rules scrapers only
# half-enforce (one TYPE per family, counters end _total, histogram
# le monotonic with +Inf == _count, no duplicate samples, info-style
# families are gauges with value 1 and labeled). The export must also
# carry the nvsim_build_info provenance gauge.
echo "=== prometheus strict lint ==="
prom_dir=$(mktemp -d)
(cd "$prom_dir" && "$root/build/bench/bench_fig4_2lm_microbench" \
    --stats-prom=stats.prom --telemetry-json=tel.json > /dev/null)
grep -q '^nvsim_build_info{' "$prom_dir/stats.prom"
grep -q 'config_hash="0x' "$prom_dir/stats.prom"
python3 "$root/scripts/prom_lint.py" "$prom_dir/stats.prom"
rm -rf "$prom_dir"
echo "prometheus lint passed: exposition is strictly valid."

# Benchmark of record: every perfbench workload builds against this
# tree and finishes one short run with correct model outputs. Host
# speed is judged by same-host parent/change pairs, not here.
echo "=== perfbench smoke (every workload, correct outputs) ==="
pb_out=$(mktemp)
for workload in kernels_2lm kernels_1lm queued_load cnn_train; do
    python3 "$root/perfbench/run.py" --workload "$workload" --seed 1 \
        --seconds 1 --trace 0 > "$pb_out"
    tail -n 1 "$pb_out" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
assert result["correct"] is True and result["failed"] == 0, result
print(sys.argv[1], "correct, 0 failed")' "$workload"
done
rm -f "$pb_out"
echo "perfbench smoke passed: every workload correct."

echo "CI passed: plain and sanitized suites green."
