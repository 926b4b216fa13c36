#!/usr/bin/env bash
# Full CI gate: formatting, lints, build, the complete test suite (which
# includes the fault-matrix soak), and the runnable examples.
#
#   scripts/ci.sh          # everything
#   scripts/ci.sh quick    # skip the examples (inner loop)
#
# Every step runs even when an earlier one fails, so one failing gate does
# not hide the verdicts of the steps after it. The failed steps are listed
# at the end, and the script exits non-zero if there was any.
set -uo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"
failed=()

# step NAME FUNCTION: runs FUNCTION in a subshell with errexit on, and
# records NAME as failed if it exits non-zero.
step() {
    local name="$1"
    shift
    echo "── $name"
    ( set -e; "$@" )
    local rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "!! FAILED (exit $rc): $name"
        failed+=("$name")
    fi
}

tt=(cargo run --release -q -p vidi-bench --bin trace_tool --)
convert_dir="$(mktemp -d)"
trap 'rm -rf "$convert_dir"' EXIT

fmt() { cargo fmt --all --check; }

clippy() { cargo clippy --workspace --all-targets -- -D warnings; }

tier1() {
    cargo build --release
    cargo test -q
}

workspace_tests() { cargo test -q --workspace; }

perfbench_tests() {
    # perfbench is a separate workspace over the public APIs of vidi-bench,
    # vidi-core and vidi-snap; building it here keeps those APIs honest.
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
}

streaming_soak() {
    # Streams a recording to disk until the framed trace spans several chunk
    # windows (asserting peak buffered bytes stay under the streaming bound),
    # then kills a recording mid-run, tears the final storage word, and
    # asserts the torn file recovers to a bit-exact, replayable prefix.
    cargo test -q --release --test streaming_soak
}

codec_roundtrip() {
    # Records a catalog app to a framed chunk stream, transcodes it through
    # every compressed codec and back to raw, and requires the reconstructed
    # raw stream to be byte-identical to the original — codec negotiation and
    # the transcoder preserve the stream exactly, not merely semantically.
    "${tt[@]}" sample "$convert_dir/orig.vidi" --app sha --seed 9
    for codec in delta-rle xor-dict columnar; do
        "${tt[@]}" convert "$convert_dir/orig.vidi" "$convert_dir/$codec.vidi" --codec "$codec"
        "${tt[@]}" convert "$convert_dir/$codec.vidi" "$convert_dir/$codec-back.vidi" --codec raw
        cmp "$convert_dir/orig.vidi" "$convert_dir/$codec-back.vidi" \
            || { echo "FAIL: $codec round-trip is not byte-identical"; exit 1; }
    done
}

debug_dma() {
    # §3.6: record the naturally-diverging DMA poll (seed 42), then drive a
    # scripted debugger session over the trace alone — seek, reverse-step, a
    # watchpoint on the status-read response, and bisect. The watch must fire
    # and bisect must pin the divergence at cycle 215 with its causal
    # transaction.
    "${tt[@]}" sample "$convert_dir/dma.vidi" --app dma --seed 42
    cat > "$convert_dir/dma.dbg" <<'EOS'
seek 100
step 50
rstep 25
watch ocl.r.valid rise
bisect
EOS
    "${tt[@]}" debug "$convert_dir/dma.vidi" --app dma --seed 42 \
        --script "$convert_dir/dma.dbg" | tee "$convert_dir/dma.out"
    grep -q "reverse-stepped 25 -> @cycle 125" "$convert_dir/dma.out" \
        || { echo "FAIL: debugger reverse-step did not land on cycle 125"; exit 1; }
    grep -q "watch hit: ocl.r.valid Rise @cycle 215" "$convert_dir/dma.out" \
        || { echo "FAIL: debugger watchpoint missed the cycle-215 status read"; exit 1; }
    grep -q "verdict: diverged@215" "$convert_dir/dma.out" \
        || { echo "FAIL: debugger bisect did not reproduce the §3.6 divergence at cycle 215"; exit 1; }
    grep -q "causal transaction: ocl.r end #1" "$convert_dir/dma.out" \
        || { echo "FAIL: debugger bisect did not name the causal status-read transaction"; exit 1; }
}

debug_atop() {
    # §5.3: record the buggy-ATOP ping-pong server, reorder the first pcim.w
    # completion ahead of its address phase (the mutated-trace experiment),
    # and let the debugger run and bisect the resulting deadlock from the
    # traces alone. The run's stall report, rendered on query from engine
    # state, must name the blocked write-address channel with its queue
    # length, and bisect must name the reordered write-data beat as the
    # causal transaction.
    "${tt[@]}" sample "$convert_dir/atop.vidi" --case echo-atop --filter buggy \
        --pings 32 --seed 5
    "${tt[@]}" mutate "$convert_dir/atop.vidi" pcim.w 0 pcim.aw 0 "$convert_dir/atop-mut.vidi"
    printf 'run\nbisect\n' > "$convert_dir/atop.dbg"
    "${tt[@]}" debug "$convert_dir/atop-mut.vidi" --case echo-atop --filter buggy \
        --pings 32 --seed 5 --max-cycles 20000 --final-budget 5000 \
        --script "$convert_dir/atop.dbg" | tee "$convert_dir/atop.out"
    grep -q "replay NOT complete by @cycle 20000" "$convert_dir/atop.out" \
        || { echo "FAIL: debugger run did not stop on the §5.3 stall"; exit 1; }
    grep -Eq "channel env\.pcim\.aw blocked .*[0-9]+ queued" "$convert_dir/atop.out" \
        || { echo "FAIL: stall report did not name env.pcim.aw with its queue length"; exit 1; }
    grep -q "verdict: deadlock@" "$convert_dir/atop.out" \
        || { echo "FAIL: debugger bisect did not detect the §5.3 deadlock"; exit 1; }
    grep -q "causal transaction: pcim.w end #0" "$convert_dir/atop.out" \
        || { echo "FAIL: debugger bisect did not name the reordered pcim.w transaction"; exit 1; }
}

lint() { cargo run --release -q -p vidi-lint -- ci --config scripts/vidi-lint.allow; }

# The three bench steps below each emit a BENCH_*.json document and fail
# on any entry of that bench's gate table (crates/bench/src/gate.rs:
# gate::sim, gate::snap, gate::fleet), checked against the committed
# baseline.

bench_sim() {
    cargo run --release -q -p vidi-bench --bin bench_sim -- \
        --out BENCH_sim.json --baseline scripts/bench_sim_baseline.json
}

fleet_soak() {
    # Eight tenants (four clean, four under distinct fault schedules including
    # an injected panic) share one supervisor, credit arbiter, and memory
    # budget: clean traces must stay bit-identical to solo runs, faults must
    # stay contained with attributed causes, and admission must never
    # over-commit.
    cargo test -q --release -p vidi-fleet
}

bench_fleet() {
    cargo run --release -q -p vidi-bench --bin bench_fleet -- \
        --out BENCH_fleet.json --baseline scripts/bench_fleet_baseline.json
}

bench_snap() {
    cargo run --release -q -p vidi-bench --bin bench_snap -- \
        --out BENCH_snap.json --baseline scripts/bench_snap_baseline.json --threads 4
}

examples() {
    for ex in quickstart debugging_case_study testing_case_study \
              divergence_detection custom_boundary custom_accelerator; do
        echo "   running example: $ex"
        cargo run --release -q --example "$ex" >/dev/null
    done
}

step "fmt" fmt
step "clippy (warnings are errors)" clippy
step "tier-1: release build + tests" tier1
step "workspace tests (unit + integration + fault-matrix soak)" workspace_tests
step "perfbench: build + unit tests of the benchmark workspace" perfbench_tests
step "streaming soak: bounded-memory record + kill-recovery gate" streaming_soak
step "codec round-trip: raw -> compressed -> raw byte-identity" codec_roundtrip
step "vidi debug: scripted time-travel session, §3.6 DMA" debug_dma
step "vidi debug: scripted time-travel session, §5.3 mutated ATOP" debug_atop
step "vidi-lint: static design lint + trace-analysis gate" lint
step "bench smoke: scheduler equivalence + evals/cycle gate" bench_sim
step "fleet soak: multi-tenant isolation + admission gate" fleet_soak
step "fleet bench: throughput + isolation trajectory" bench_fleet
step "snap smoke: checkpoint exactness + parallel-verify gate" bench_snap
if [ "$mode" = "full" ]; then
    step "examples" examples
fi

if [ "${#failed[@]}" -ne 0 ]; then
    echo "── CI FAILED: ${#failed[@]} step(s)"
    for name in "${failed[@]}"; do
        echo "   - $name"
    done
    exit 1
fi
echo "── CI green ────────────────────────────────────────────────────"
