#!/usr/bin/env bash
# Staged, fully-offline CI pipeline for the Nimblock workspace.
#
# Each stage is named and individually runnable; the default run executes
# all of them in order, fail-fast, with per-stage wall-clock timing and a
# summary table at the end. `.github/workflows/ci.yml` runs exactly this
# script, so CI and a developer laptop can never disagree.
#
# Stages (in order):
#
#   lint            in-repo static analyzer (`nimblock-cli analyze lint`):
#                   workspace-path-only deps, source hygiene (DESIGN.md §11)
#   build           tier-1: cargo build --release --offline, then
#                   cargo bench -p nimblock-bench --no-run --offline, so the
#                   micro-bench targets (crates/bench/benches/*.rs), which
#                   no other stage compiles, still build
#   test            tier-1: cargo test -q --offline (root package)
#   workspace-test  cargo test -q --offline --workspace
#   deep            whole-workspace semantic analysis (`nimblock-cli analyze
#                   deep`, DESIGN.md §16):
#                   call-graph reachability passes (hot-path-no-alloc,
#                   determinism-taint, lock-discipline) must be clean, the
#                   suppression audit must find no stale allows, and every
#                   adversarial fixture must trip exactly its named pass
#   telemetry       CLI smoke: metrics text + chrome trace parse
#   invariants      checked run + `analyze trace` re-verification of the
#                   exported trace, also with the exact 80 ms CAP latency
#   explain         response-time attribution: `analyze explain` on a
#                   congested trace must decompose exactly in every format
#   monitor         continuous-monitoring smoke: a run with --timeseries-out
#                   and a deliberately tight SLO rule must fire an alert and
#                   render through `analyze monitor` in every format, and
#                   obs_overhead --gate must bound the detached-sink
#                   plumbing under 4% (gate skippable with
#                   NIMBLOCK_SKIP_BENCH_GATE=1)
#   faas            serving front door smoke: a deliberately overloaded run
#                   with a tight shed horizon must shed load, conserve
#                   invocations exactly (offered = admitted + shed +
#                   rejected), and fire the shed alert; the SLO attainment
#                   curve must render in text, md, and json
#   plan            capacity-planner smoke: record a serving day with
#                   `faas --record-out`, then `analyze plan` must sweep
#                   fleet shapes, reproduce the recorded report by exact
#                   replay byte-for-byte (the CLI exits nonzero on a
#                   mismatch), and render in text, md, and json
#   goldens         golden-drift: regenerate goldens, fail if they differ
#                   from the committed files
#   engine-diff     fixed-seed differential oracles: the makespan
#                   estimator must match its queue-driven reference on
#                   the fixed benchmark panel, runs that
#                   elide idle scheduling ticks and item-boundary consults
#                   must match the every-tick, every-consult schedule on
#                   the fixed policy panel, whose two committed fixtures
#                   (tests/fixtures/tick_elision/same_instant_tick.json
#                   and boundary_preempt.json) must each still hit the
#                   case its probe names, the indexed
#                   invariant verifier and attribution must match their
#                   reference on the fixed trace panel, and the debug
#                   build's per-event check of the hypervisor's slot
#                   table and launch set must hold on a 70-slot device
#                   with stalled launches and under fine preemption
#   bench-gate      the repository benchmark (.perfbench, BENCHMARK.json):
#                   its package tests must pass, so the benchmark still
#                   builds against the program and repeats exactly; then
#                   every workload runs three times, 8 s at seed 2023, each
#                   run must be correct with no failed op, and the best
#                   sim_speed may fall at most NIMBLOCK_BENCH_TOLERANCE
#                   percent [15] below results/perfbench/<workload>.json
#                   (the timing half is skippable with
#                   NIMBLOCK_SKIP_BENCH_GATE=1)
#
# Usage:
#   scripts/ci.sh                 # every stage
#   scripts/ci.sh lint build      # just those stages, in the given order
#   scripts/ci.sh --list          # print stage names and exit
#
# Environment:
#   NIMBLOCK_CI_STAGES        comma-separated stage filter, used when no
#                             stages are given on the command line (e.g.
#                             NIMBLOCK_CI_STAGES=lint,build,faas scripts/ci.sh)
#   NIMBLOCK_BENCH_TOLERANCE  allowed sim_speed shortfall of the bench gate,
#                             percent [15]
#   NIMBLOCK_SKIP_BENCH_GATE  1 skips the timed halves of the monitor and
#                             bench-gate stages (noisy or shared hosts)
#
# Every run writes per-stage wall-clock timing to results/ci_stages.json —
# a per-run artifact that is gitignored on purpose; never commit it.

set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

# `deep` sits after the test stages so the analyzer and test binaries it
# reuses are already built; the analysis itself takes well under ten
# seconds.
ALL_STAGES=(lint build test workspace-test deep telemetry invariants explain monitor faas plan goldens engine-diff bench-gate)

smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT

stage_lint() {
    cargo build --release --offline -q -p nimblock-cli
    ./target/release/nimblock-cli analyze lint
}

stage_deep() {
    # The deep analyzer must pass the workspace clean (zero unsuppressed
    # findings, zero stale suppressions — it exits nonzero otherwise) and
    # each adversarial fixture must trip exactly its named pass.
    cargo build --release --offline -q -p nimblock-cli
    ./target/release/nimblock-cli analyze deep
    cargo test -q --offline --test analyze_deep
}

stage_build() {
    cargo build --release --offline
    cargo bench -p nimblock-bench --no-run --offline
}

stage_test() {
    cargo test -q --offline
}

stage_workspace_test() {
    cargo test -q --offline --workspace
}

ensure_smoke_cli() {
    cargo build --release --offline -q -p nimblock-cli
}

stage_telemetry() {
    # A tiny deterministic run must emit Prometheus text that the in-repo
    # validator accepts and a Chrome trace that parses as trace-event JSON.
    ensure_smoke_cli
    ./target/release/nimblock-cli run \
        --scheduler nimblock --batch 2 --delay-ms 100 --events 3 --seed 7 \
        --metrics-out "$smoke_dir/metrics.prom" \
        --trace-format chrome --trace-out "$smoke_dir/trace.chrome.json" \
        > "$smoke_dir/run.out"
    grep -q "counters: reconfigurations" "$smoke_dir/run.out" \
        || { echo "error: run summary lost its counters line" >&2; return 1; }
    local rust_validate=0
    python3 - "$smoke_dir" <<'PY' 2>/dev/null || rust_validate=1
import json, sys, pathlib
d = pathlib.Path(sys.argv[1])
doc = json.loads((d / "trace.chrome.json").read_text())
assert isinstance(doc["traceEvents"], list) and doc["traceEvents"], "empty traceEvents"
text = (d / "metrics.prom").read_text()
assert "hv_arrivals_total 3" in text, "metrics text missing hv_arrivals_total"
print("ok: python validated telemetry outputs")
PY
    if [ "$rust_validate" = "1" ]; then
        # No python3: fall back to the in-repo validators via the test suite.
        cargo test -q --offline --test golden_telemetry
    fi
}

stage_invariants() {
    # A congested stimulus under a preempting policy must uphold every
    # schedule invariant, both checked inline during the run and re-derived
    # from the exported trace by `analyze trace`, there with the default
    # board's exact 80 ms reconfiguration latency as well.
    ensure_smoke_cli
    ./target/release/nimblock-cli run \
        --scheduler nimblock --scenario stress --events 6 --seed 23 \
        --check-invariants \
        --trace-format json --trace-out "$smoke_dir/trace.json" \
        > "$smoke_dir/invariants.out"
    grep -q "invariants: ok" "$smoke_dir/invariants.out" \
        || { echo "error: run --check-invariants did not report a clean schedule" >&2; return 1; }
    ./target/release/nimblock-cli analyze trace "$smoke_dir/trace.json"
    ./target/release/nimblock-cli analyze trace "$smoke_dir/trace.json" \
        --reconfig-latency-ms 80
}

stage_explain() {
    # The attribution engine must decompose every application's response
    # time exactly (the CLI exits nonzero otherwise), in all three report
    # formats, on a congested preempting trace.
    ensure_smoke_cli
    ./target/release/nimblock-cli run \
        --scheduler nimblock --scenario stress --events 8 --seed 41 \
        --trace-format json --trace-out "$smoke_dir/explain-trace.json" \
        > /dev/null
    ./target/release/nimblock-cli analyze explain "$smoke_dir/explain-trace.json" \
        > "$smoke_dir/explain.txt"
    grep -q "exact decomposition: yes" "$smoke_dir/explain.txt" \
        || { echo "error: explain lost its exactness line" >&2; return 1; }
    ./target/release/nimblock-cli analyze explain "$smoke_dir/explain-trace.json" \
        --format md > "$smoke_dir/explain.md"
    grep -q "^# Response-time attribution" "$smoke_dir/explain.md" \
        || { echo "error: markdown explain lost its heading" >&2; return 1; }
    ./target/release/nimblock-cli analyze explain "$smoke_dir/explain-trace.json" \
        --format json > "$smoke_dir/explain.json"
    grep -q '"exact": *true' "$smoke_dir/explain.json" \
        || { echo "error: JSON explain does not attest exactness" >&2; return 1; }
    echo "ok: attribution is exact in text, md, and json"
}

stage_monitor() {
    # A monitored run with a deliberately unmeetable SLO (util>=100%) must
    # fire alerts, and the written time-series document must render
    # through `analyze monitor` in all three formats.
    ensure_smoke_cli
    ./target/release/nimblock-cli run \
        --scheduler nimblock --scenario stress --events 6 --seed 23 \
        --window-ms 1000 --slo 'util>=100%' \
        --timeseries-out "$smoke_dir/series.json" \
        > "$smoke_dir/monitor.out"
    grep -q "slo: 1 rule(s) evaluated" "$smoke_dir/monitor.out" \
        || { echo "error: monitored run lost its slo summary line" >&2; return 1; }
    grep -qE "slo: .* [1-9][0-9]* alert\(s\) fired" "$smoke_dir/monitor.out" \
        || { echo "error: the deliberately tight SLO rule fired no alert" >&2; return 1; }
    ./target/release/nimblock-cli analyze monitor "$smoke_dir/series.json" \
        > "$smoke_dir/monitor.txt"
    grep -q "continuous monitor:" "$smoke_dir/monitor.txt" \
        || { echo "error: text monitor report lost its heading" >&2; return 1; }
    grep -q "util>=100%" "$smoke_dir/monitor.txt" \
        || { echo "error: text monitor report lost the fired rule" >&2; return 1; }
    ./target/release/nimblock-cli analyze monitor "$smoke_dir/series.json" \
        --format md > "$smoke_dir/monitor.md"
    grep -q "^# Continuous monitor" "$smoke_dir/monitor.md" \
        || { echo "error: markdown monitor report lost its heading" >&2; return 1; }
    ./target/release/nimblock-cli analyze monitor "$smoke_dir/series.json" \
        --format json > "$smoke_dir/monitor.json"
    grep -q '"clean": *false' "$smoke_dir/monitor.json" \
        || { echo "error: JSON monitor report does not flag the breach" >&2; return 1; }
    echo "ok: tight SLO fired and analyze monitor renders in text, md, and json"
    if [ "${NIMBLOCK_SKIP_BENCH_GATE:-}" = "1" ]; then
        echo "skip: obs_overhead gate (NIMBLOCK_SKIP_BENCH_GATE=1)"
        return 0
    fi
    cargo build --release --offline -q -p nimblock-bench
    ./target/release/obs_overhead --quick --gate 4
}

stage_faas() {
    # The serving front door under deliberate overload: a bursty stream far
    # beyond cluster capacity with a tight shed horizon and per-tenant rate
    # limits. The stage fails unless load was actually shed (the shed alert
    # fires only when every shed is explained by its attribution budget)
    # and the counters conserve invocations exactly — the CLI exits nonzero
    # on a conservation violation, and the greps re-check the rendered
    # lines so a silent output regression also fails.
    ensure_smoke_cli
    ./target/release/nimblock-cli faas \
        --arrivals bursty:2000 --invocations 5000 --seed 11 \
        --shed-horizon-ms 200 --rate-limit 300 --burst 32 \
        > "$smoke_dir/faas.out"
    grep -q "conservation: exact" "$smoke_dir/faas.out" \
        || { echo "error: front door lost invocations (offered != admitted + shed + rejected)" >&2; return 1; }
    grep -q "shed-alert: fired" "$smoke_dir/faas.out" \
        || { echo "error: the deliberately overloaded run shed nothing" >&2; return 1; }
    grep -qE "rejected [1-9]" "$smoke_dir/faas.out" \
        || { echo "error: the tenant rate limit rejected nothing" >&2; return 1; }
    # The SLO attainment curve renders in all three formats and stays
    # monotone non-increasing in offered attainment (the CLI checks
    # conservation per point and exits nonzero otherwise).
    local curve_args="--arrivals steady:0.05 --invocations 400 --seed 31 \
        --shed-horizon-ms 60000 --curve 0.25,4"
    ./target/release/nimblock-cli faas $curve_args > "$smoke_dir/faas-curve.txt"
    grep -q "offered-slo" "$smoke_dir/faas-curve.txt" \
        || { echo "error: text curve lost its offered-slo column" >&2; return 1; }
    grep -q "monotone non-increasing" "$smoke_dir/faas-curve.txt" \
        || { echo "error: offered attainment rose with load" >&2; return 1; }
    ./target/release/nimblock-cli faas $curve_args --format md \
        > "$smoke_dir/faas-curve.md"
    grep -q "^# SLO attainment curve" "$smoke_dir/faas-curve.md" \
        || { echo "error: markdown curve lost its heading" >&2; return 1; }
    ./target/release/nimblock-cli faas $curve_args --format json \
        --slo-curve-out "$smoke_dir/faas-curve.json" > /dev/null
    grep -q '"points"' "$smoke_dir/faas-curve.json" \
        || { echo "error: JSON curve lost its points array" >&2; return 1; }
    echo "ok: overload shed and conserved; curve renders in text, md, and json"
}

stage_plan() {
    # Capacity planning end to end (DESIGN.md §18): record an overloaded
    # serving day as a compact binary trace, then `analyze plan` must
    # sweep fleet shapes, validate the recorded baseline by exact replay
    # (the CLI exits nonzero unless the replay reproduces the embedded
    # report byte-for-byte), and render in all three formats.
    ensure_smoke_cli
    ./target/release/nimblock-cli faas \
        --arrivals bursty:2000 --invocations 2000 --seed 11 \
        --shed-horizon-ms 200 --rate-limit 300 --burst 32 \
        --record-out "$smoke_dir/day.trace" > "$smoke_dir/plan-record.out"
    grep -q "recorded 2000 invocation(s)" "$smoke_dir/plan-record.out" \
        || { echo "error: faas --record-out did not record the stream" >&2; return 1; }
    ./target/release/nimblock-cli analyze plan "$smoke_dir/day.trace" \
        --sweep boards=1..8 --replays 3 > "$smoke_dir/plan.txt"
    grep -q "baseline replay byte-identical" "$smoke_dir/plan.txt" \
        || { echo "error: exact replay did not reproduce the recorded report" >&2; return 1; }
    grep -q "recommendation" "$smoke_dir/plan.txt" \
        || { echo "error: text plan lost its recommendation line" >&2; return 1; }
    ./target/release/nimblock-cli analyze plan "$smoke_dir/day.trace" \
        --sweep boards=1..8 --replays 3 --format md > "$smoke_dir/plan.md"
    grep -q "^# Capacity plan" "$smoke_dir/plan.md" \
        || { echo "error: markdown plan lost its heading" >&2; return 1; }
    ./target/release/nimblock-cli analyze plan "$smoke_dir/day.trace" \
        --sweep boards=1..8 --replays 3 --format json > "$smoke_dir/plan.json"
    grep -q '"replay_check": *"byte-identical"' "$smoke_dir/plan.json" \
        || { echo "error: JSON plan does not attest the byte-identity check" >&2; return 1; }
    echo "ok: recorded day replays byte-identically and plans in text, md, and json"
}

stage_goldens() {
    # Regenerate every golden in place, then require the tree to be clean:
    # a diff means an encoding change landed without its golden refresh.
    if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        echo "skip: not a git checkout, cannot detect golden drift"
        return 0
    fi
    if ! git diff --quiet -- tests/goldens; then
        echo "error: tests/goldens already dirty before regeneration;" \
             "commit or restore it first" >&2
        return 1
    fi
    NIMBLOCK_REGEN_GOLDENS=1 cargo test -q --offline \
        --test golden_roundtrip --test golden_telemetry --test golden_monitor \
        --test golden_analyze --test golden_faas --test golden_plan
    if ! git diff --exit-code -- tests/goldens; then
        git checkout -- tests/goldens
        echo "error: regenerated goldens differ from the committed files" \
             "(diff above; refresh with NIMBLOCK_REGEN_GOLDENS=1 and commit)" >&2
        return 1
    fi
    echo "ok: goldens are drift-free"
}

stage_engine_diff() {
    # The slot-bounded makespan estimator must give the makespans of its
    # queue-driven reference, eliding idle ticks and item-boundary
    # consults must leave every output of the every-tick, every-consult
    # schedule unchanged (the probes pin that the same-instant tick and
    # the boundary batch-preemption fixtures still hit their cases), and
    # the indexed check path
    # (verifier, attribution, span trees) must give its reference's output
    # on every trace of the panel. The randomized sweeps run in
    # workspace-test (replay a failure with the NIMBLOCK_CHECK_SEED they
    # print); the fixed panels re-run here so this stage is reproducible
    # in isolation.
    cargo test -q --offline \
        --test estimator_differential -- \
        benchmark_panel_matches_the_queue_driven_reference
    echo "ok: estimator matches its queue-driven reference on the benchmark panel"
    cargo test -q --offline \
        --test tick_elision_differential -- \
        every_policy_matches_the_every_tick_reference_on_the_fixed_panel \
        the_panel_hits_a_directive_issuing_tick_that_shares_its_instant_with_a_completion \
        the_panel_hits_a_batch_preemption_at_an_item_boundary_without_a_tick
    echo "ok: elided ticks and boundary consults match the every-tick schedule on the fixed panel"
    cargo test -q --offline \
        --test check_path_differential -- \
        the_fixed_panel_matches_the_reference_check_path \
        an_unknown_task_is_reported_where_the_reference_panics
    echo "ok: the indexed check path matches its reference on the fixed panel"
    # This stage builds in debug, so the hypervisor checks its slot table,
    # launch set and buffers after every event of these runs: 70 slots
    # with launches stalled on memory, and stale completions of items a
    # fine-grained preemption aborted.
    cargo test -q --offline \
        --test failure_injection -- seventy_slots_with_stalled_launches
    cargo test -q --offline \
        --test fine_preemption -- stale_completions_of_aborted_items_are_discarded
    echo "ok: the slot table and launch set hold on 70 slots and under fine preemption"
}

# The bench gate's fixed run: seed and seconds of every perfbench run, three
# runs per workload. A baseline is the result line of the best of three runs
# of this same stage on the host that recorded it.
BENCH_SEED=2023
BENCH_SECONDS=8

stage_bench_gate() {
    # The benchmark calls the program's public API, so a change to that API
    # fails here rather than in a benchmark run; its tests also require
    # every count and simulated metric to repeat exactly for a seed.
    cargo test -q --offline --manifest-path .perfbench/Cargo.toml
    if [ "${NIMBLOCK_SKIP_BENCH_GATE:-}" = "1" ]; then
        echo "skip: bench timing gate (NIMBLOCK_SKIP_BENCH_GATE=1)"
        return 0
    fi
    local tolerance="${NIMBLOCK_BENCH_TOLERANCE:-15}"
    local workloads
    workloads=$(sed -n 's/^ *{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)
    [ -n "$workloads" ] \
        || { echo "error: BENCHMARK.json lists no workloads" >&2; return 1; }
    cargo build --release --offline -q -p nimblock-bench --bin perf_gate
    # One run of every workload per round: a workload's three runs spread
    # over the stage instead of sampling one of the host's slow spells,
    # which last tens of seconds.
    local run workload
    for run in 1 2 3; do
        for workload in $workloads; do
            echo "-- run $run of 3: $workload, seed $BENCH_SEED, ${BENCH_SECONDS}s"
            cargo run --release --quiet --offline --manifest-path .perfbench/Cargo.toml -- \
                --workload "$workload" --seed "$BENCH_SEED" \
                --seconds "$BENCH_SECONDS" --trace 0 \
                > "$smoke_dir/$workload.$run.out"
        done
    done
    # perf_gate judges each run's last line, its result line, and prints the
    # best run's line last: the line to commit as
    # results/perfbench/<workload>.json when a baseline is re-recorded.
    local fail=0
    for workload in $workloads; do
        echo "-- $workload"
        ./target/release/perf_gate "$tolerance" "results/perfbench/$workload.json" \
            "$smoke_dir/$workload".{1,2,3}.out || fail=1
    done
    if [ "$fail" -ne 0 ]; then
        echo "error: a workload failed the bench gate (tolerance ${tolerance}%);" \
             "a real regression needs fixing, an intended slowdown a re-recorded" \
             "baseline" >&2
        return 1
    fi
    echo "ok: every workload holds its baseline within ${tolerance}%"
}

run_stage() {
    case "$1" in
        lint) stage_lint ;;
        deep) stage_deep ;;
        build) stage_build ;;
        test) stage_test ;;
        workspace-test) stage_workspace_test ;;
        telemetry) stage_telemetry ;;
        invariants) stage_invariants ;;
        explain) stage_explain ;;
        monitor) stage_monitor ;;
        faas) stage_faas ;;
        plan) stage_plan ;;
        goldens) stage_goldens ;;
        engine-diff) stage_engine_diff ;;
        bench-gate) stage_bench_gate ;;
        *)
            echo "ci.sh: unknown stage '$1' (known: ${ALL_STAGES[*]})" >&2
            return 2
            ;;
    esac
}

if [ "${1:-}" = "--list" ]; then
    printf '%s\n' "${ALL_STAGES[@]}"
    exit 0
fi

stages=("$@")
if [ ${#stages[@]} -eq 0 ] && [ -n "${NIMBLOCK_CI_STAGES:-}" ]; then
    IFS=',' read -r -a stages <<< "$NIMBLOCK_CI_STAGES"
fi
[ ${#stages[@]} -gt 0 ] || stages=("${ALL_STAGES[@]}")

summary=()
timing_names=()
timing_secs=()
timing_status=()

# Emits per-stage wall-clock timing as results/ci_stages.json so the run's
# cost profile is a machine-readable artifact (written on failure too).
write_stage_timings() {
    local overall=$1 total=$2
    mkdir -p results
    {
        echo '{'
        echo '  "stages": ['
        local i last=$((${#timing_names[@]} - 1))
        for i in "${!timing_names[@]}"; do
            local comma=','
            [ "$i" -eq "$last" ] && comma=''
            printf '    {"stage": "%s", "seconds": %s, "status": "%s"}%s\n' \
                "${timing_names[$i]}" "${timing_secs[$i]}" "${timing_status[$i]}" "$comma"
        done
        echo '  ],'
        printf '  "total_seconds": %s,\n' "$total"
        printf '  "status": "%s"\n' "$overall"
        echo '}'
    } > results/ci_stages.json
}

total_start=$SECONDS
for stage in "${stages[@]}"; do
    echo
    echo "== stage: $stage =="
    start=$SECONDS
    # Run the stage in a subshell with errexit active (a plain
    # `if run_stage`, by POSIX rules, would suspend `set -e` inside the
    # stage and let a mid-stage failure slip through).
    set +e
    (
        set -e
        run_stage "$stage"
    )
    status=$?
    set -e
    took=$((SECONDS - start))
    timing_names+=("$stage")
    timing_secs+=("$took")
    if [ "$status" -eq 0 ]; then
        timing_status+=("ok")
        summary+=("$(printf '%-15s %4ss  ok' "$stage" "$took")")
        echo "-- $stage: ok (${took}s)"
    else
        timing_status+=("fail")
        summary+=("$(printf '%-15s %4ss  FAIL' "$stage" "$took")")
        write_stage_timings fail $((SECONDS - total_start))
        echo
        echo "== ci summary =="
        printf '%s\n' "${summary[@]}"
        echo "ci: FAIL at stage '$stage' after $((SECONDS - total_start))s"
        exit 1
    fi
done

write_stage_timings pass $((SECONDS - total_start))

echo
echo "== ci summary =="
printf '%s\n' "${summary[@]}"
echo "ci: PASS (${#stages[@]} stages, $((SECONDS - total_start))s)"
