#!/usr/bin/env bash
# CI gate: formatting, lints, build, and the full test suite.
# Everything must pass with zero warnings.
#
# `--smoke` runs the fast subset only — debug build plus the core and
# simulator unit tests — for a quick pre-push signal; the default (full)
# mode is the gate that counts.
#
# `--bench-gate` re-measures every labeled speedup ratio and compares it
# against the committed BENCH_*.json snapshots: any ratio that lands below
# 75% of its committed value fails the gate. Run it on the bench host that
# produced the committed numbers; other machines carry different constants.
#
# `--serve-smoke` runs only the flm-serve round-trip smoke (also part of the
# full gate): start flm-serve on an ephemeral port, drive a refute + verify +
# audit round trip through flm-client, audit the wire certificate with the
# local flm-audit, and require a repeat refute to come back byte-identical
# from the answer cache's memory tier.
#
# `--shard-smoke` stands up a 2-shard cluster behind an flm-router, all
# via the release binaries: warm keys through the router, drive the router
# load mode and cluster stats, kill one shard, restart it over the same
# store directory, and require the router to serve byte-identical
# certificates again once the backend heals.
#
# `--campaign-smoke` runs a tiny fixed-seed chaos campaign end to end:
# `regen --campaign --scale smoke` sweeps the protocol zoo across graph
# families, shrinks every violation, and writes certificates plus a report;
# `flm-audit --batch` must accept the whole directory (exit 0), and a second
# run with the same seed must reproduce the certificates byte-for-byte.
set -euo pipefail
cd "$(dirname "$0")/.."

# Starts flm-serve on an ephemeral port, round-trips refute/verify/audit
# through flm-client, and checks the wire certificate against the local
# flm-audit. Expects release binaries to be built already.
serve_smoke() {
    local tmpdir
    tmpdir="$(mktemp -d)"
    ./target/release/flm-serve --addr 127.0.0.1:0 --port-file "$tmpdir/addr" &
    local serve_pid=$!
    # shellcheck disable=SC2064  # expand tmpdir/serve_pid now, not at exit
    trap "kill $serve_pid 2>/dev/null || true; wait $serve_pid 2>/dev/null || true; rm -rf '$tmpdir'" RETURN
    for _ in $(seq 1 100); do
        [[ -s "$tmpdir/addr" ]] && break
        sleep 0.05
    done
    [[ -s "$tmpdir/addr" ]] || { echo "flm-serve never wrote its port file"; return 1; }
    local addr
    addr="$(cat "$tmpdir/addr")"

    ./target/release/flm-client ping --addr "$addr"
    ./target/release/flm-client refute ba-nodes --addr "$addr" --out "$tmpdir/wire.flmc"
    ./target/release/flm-client verify "$tmpdir/wire.flmc" --addr "$addr"
    ./target/release/flm-client audit "$tmpdir/wire.flmc" --addr "$addr" > /dev/null
    # The wire certificate must satisfy the *local* auditor too.
    ./target/release/flm-audit "$tmpdir/wire.flmc" --quiet
    # Damaged wire bytes must be rejected (exit 2) by the remote audit path.
    head -c 40 "$tmpdir/wire.flmc" > "$tmpdir/damaged.flmc"
    set +e
    ./target/release/flm-client audit "$tmpdir/damaged.flmc" --addr "$addr" 2>/dev/null
    local rc=$?
    set -e
    if [[ $rc -ne 2 ]]; then
        echo "flm-client audit exited $rc on damaged bytes (expected 2: malformed)"
        return 1
    fi
    # A repeat refute on this store-less server is a byte lookup in the
    # answer cache's memory tier: the same bytes, counted as one mem hit.
    ./target/release/flm-client refute ba-nodes --addr "$addr" --out "$tmpdir/wire2.flmc"
    cmp "$tmpdir/wire.flmc" "$tmpdir/wire2.flmc" || {
        echo "repeat refute served different certificate bytes"
        return 1
    }
    local stats
    stats="$(./target/release/flm-client stats --addr "$addr")"
    echo "$stats"
    grep -q "cert store: 1 mem hits" <<< "$stats" || {
        echo "repeat refute was not answered from the answer cache's memory tier"
        return 1
    }

    # Restart warmth: two server lifetimes over the same --store-dir must
    # serve byte-identical certificate bytes — the second from the on-disk
    # certificate store, without re-simulating.
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    local store_dir="$tmpdir/store" run
    for run in 1 2; do
        rm -f "$tmpdir/addr"
        ./target/release/flm-serve --addr 127.0.0.1:0 --store-dir "$store_dir" \
            --port-file "$tmpdir/addr" &
        serve_pid=$!
        # shellcheck disable=SC2064  # re-arm cleanup with the new pid
        trap "kill $serve_pid 2>/dev/null || true; wait $serve_pid 2>/dev/null || true; rm -rf '$tmpdir'" RETURN
        for _ in $(seq 1 100); do
            [[ -s "$tmpdir/addr" ]] && break
            sleep 0.05
        done
        [[ -s "$tmpdir/addr" ]] || {
            echo "flm-serve (store run $run) never wrote its port file"; return 1; }
        addr="$(cat "$tmpdir/addr")"
        ./target/release/flm-client refute ba-nodes --addr "$addr" \
            --out "$tmpdir/warm$run.flmc"
        kill "$serve_pid" 2>/dev/null || true
        wait "$serve_pid" 2>/dev/null || true
    done
    cmp "$tmpdir/warm1.flmc" "$tmpdir/warm2.flmc" || {
        echo "restart warmth broken: certificate bytes differ across restarts"
        return 1
    }
    # The disk-served bytes must satisfy the local auditor too.
    ./target/release/flm-audit "$tmpdir/warm2.flmc" --quiet
}

# Stands up router + 2 shards from the release binaries, warms keys
# through the router, then kills and restarts one shard over its store
# directory and requires the router to serve the same bytes again.
# Expects release binaries to be built already.
shard_smoke() {
    local tmpdir
    tmpdir="$(mktemp -d)"
    local pids=() p0 p1 peers attempt started=0 f
    # shellcheck disable=SC2064  # expand tmpdir now, not at exit
    trap "kill \${pids[@]:-} 2>/dev/null || true; wait 2>/dev/null || true; rm -rf '$tmpdir'" RETURN
    # The peer list must be known before either shard binds, so the ports
    # are picked up front; a collision just retries with fresh picks.
    for attempt in 1 2 3 4 5; do
        p0=$((20000 + RANDOM % 20000))
        p1=$((20000 + RANDOM % 20000))
        [[ $p0 -eq $p1 ]] && continue
        peers="127.0.0.1:$p0,127.0.0.1:$p1"
        rm -f "$tmpdir"/shard0.addr "$tmpdir"/shard1.addr
        ./target/release/flm-serve --addr "127.0.0.1:$p0" --shard-id 0 --peers "$peers" \
            --store-dir "$tmpdir/store0" --port-file "$tmpdir/shard0.addr" 2>/dev/null &
        pids[0]=$!
        ./target/release/flm-serve --addr "127.0.0.1:$p1" --shard-id 1 --peers "$peers" \
            --store-dir "$tmpdir/store1" --port-file "$tmpdir/shard1.addr" 2>/dev/null &
        pids[1]=$!
        started=1
        for f in shard0 shard1; do
            for _ in $(seq 1 100); do
                [[ -s "$tmpdir/$f.addr" ]] && break
                sleep 0.05
            done
            [[ -s "$tmpdir/$f.addr" ]] || started=0
        done
        [[ $started -eq 1 ]] && break
        kill "${pids[@]}" 2>/dev/null || true
        wait "${pids[@]}" 2>/dev/null || true
        echo "shard smoke: port pick $attempt collided, retrying"
    done
    [[ $started -eq 1 ]] || { echo "could not bind a 2-shard topology"; return 1; }

    ./target/release/flm-router --addr 127.0.0.1:0 --shards "$peers" \
        --reconnect-ms 100 --port-file "$tmpdir/router.addr" &
    pids[2]=$!
    for _ in $(seq 1 100); do
        [[ -s "$tmpdir/router.addr" ]] && break
        sleep 0.05
    done
    [[ -s "$tmpdir/router.addr" ]] || { echo "flm-router never wrote its port file"; return 1; }
    local raddr
    raddr="$(cat "$tmpdir/router.addr")"

    ./target/release/flm-client ping --addr "$raddr"
    # Warm one key per side of the split (whichever shard owns which, both
    # families together cover both shards or at worst exercise one twice).
    ./target/release/flm-client refute ba-nodes --addr "$raddr" --out "$tmpdir/ba1.flmc"
    ./target/release/flm-client refute clock-sync --addr "$raddr" --out "$tmpdir/clock1.flmc"
    # Router-served bytes must satisfy the local auditor.
    ./target/release/flm-audit "$tmpdir/ba1.flmc" --quiet
    ./target/release/flm-audit "$tmpdir/clock1.flmc" --quiet
    # Cluster stats and the router load mode, end to end.
    ./target/release/flm-client stats --addr "$raddr"
    ./target/release/flm-client load --addr "$raddr" --mode router \
        --connections 2 --requests 4
    # Kill shard 0 and restart it on the same port over the same store:
    # once the router reconnects, the answer must come back byte-identical
    # (served disk-warm from the store, not re-simulated — the Rust
    # integration tests pin the counters; the smoke pins the bytes).
    kill "${pids[0]}" 2>/dev/null || true
    wait "${pids[0]}" 2>/dev/null || true
    rm -f "$tmpdir/shard0.addr"
    ./target/release/flm-serve --addr "127.0.0.1:$p0" --shard-id 0 --peers "$peers" \
        --store-dir "$tmpdir/store0" --port-file "$tmpdir/shard0.addr" 2>/dev/null &
    pids[0]=$!
    for _ in $(seq 1 100); do
        [[ -s "$tmpdir/shard0.addr" ]] && break
        sleep 0.05
    done
    [[ -s "$tmpdir/shard0.addr" ]] || { echo "restarted shard never wrote its port file"; return 1; }
    local healed=0
    for _ in $(seq 1 100); do
        if ./target/release/flm-client refute ba-nodes --addr "$raddr" \
            --out "$tmpdir/ba2.flmc" 2>/dev/null; then
            healed=1
            break
        fi
        sleep 0.1
    done
    [[ $healed -eq 1 ]] || { echo "router never healed after the shard restart"; return 1; }
    ./target/release/flm-client refute clock-sync --addr "$raddr" --out "$tmpdir/clock2.flmc"
    cmp "$tmpdir/ba1.flmc" "$tmpdir/ba2.flmc" || {
        echo "shard restart broke warmth: ba-nodes bytes differ through the router"
        return 1
    }
    cmp "$tmpdir/clock1.flmc" "$tmpdir/clock2.flmc" || {
        echo "shard restart broke warmth: clock-sync bytes differ through the router"
        return 1
    }
}

if [[ "${1:-}" == "--smoke" ]]; then
    echo "==> smoke: cargo build"
    cargo build --workspace
    echo "==> smoke: cargo test (core + sim + par libs)"
    cargo test -p flm-core -p flm-sim -p flm-par --lib --quiet
    echo "Smoke checks passed (run without --smoke for the full gate)."
    exit 0
fi

if [[ "${1:-}" == "--serve-smoke" ]]; then
    echo "==> serve smoke: cargo build --release -p flm-serve -p flm-bench"
    cargo build --release -p flm-serve -p flm-bench
    echo "==> serve smoke: flm-serve round trip on an ephemeral port"
    serve_smoke
    echo "Serve smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--shard-smoke" ]]; then
    echo "==> shard smoke: cargo build --release -p flm-serve"
    cargo build --release -p flm-serve
    echo "==> shard smoke: router + 2 shards, warm, kill, restart, re-serve"
    shard_smoke
    echo "Shard smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--campaign-smoke" ]]; then
    echo "==> campaign smoke: cargo build --release -p flm-bench -p flm-serve"
    cargo build --release -p flm-bench -p flm-serve
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' EXIT
    echo "==> campaign smoke: regen --campaign (seed 0xF1A, smoke scale)"
    ./target/release/regen --campaign --seed 0xF1A --scale smoke \
        --out-dir "$tmpdir/run1"
    ls "$tmpdir"/run1/*.flmc > /dev/null || {
        echo "campaign produced no certificates"; exit 1; }
    echo "==> campaign smoke: flm-audit --batch"
    ./target/release/flm-audit --batch "$tmpdir/run1"
    echo "==> campaign smoke: same seed reproduces byte-identically"
    ./target/release/regen --campaign --seed 0xF1A --scale smoke \
        --out-dir "$tmpdir/run2" 2>/dev/null
    diff -r "$tmpdir/run1" "$tmpdir/run2" > /dev/null || {
        echo "campaign is not reproducible: run1 and run2 differ"; exit 1; }
    echo "Campaign smoke passed."
    exit 0
fi

# Extracts "label<TAB>ratio" pairs from a suite JSON's speedups array
# (the snapshots are hand-rolled JSON with one speedup object per line).
extract_ratios() {
    sed -n 's/.*"label": "\(.*\)", "ratio": \([0-9.]*\).*/\1\t\2/p' "$1"
}

if [[ "${1:-}" == "--bench-gate" ]]; then
    samples="${2:-9}"
    echo "==> bench gate: cargo build --release -p flm-bench"
    cargo build --release -p flm-bench
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' EXIT
    failed=0
    for suite in substrate refuters runcache serve campaign; do
        committed="BENCH_${suite}.json"
        if [[ ! -f "$committed" ]]; then
            echo "bench gate: missing $committed"
            failed=1
            continue
        fi
        echo "==> bench gate: $suite suite ($samples samples)"
        ./target/release/regen --bench "$suite" --samples "$samples" \
            --out "$tmpdir/$suite.json" 2>/dev/null
        while IFS=$'\t' read -r label committed_ratio; do
            fresh_ratio="$(extract_ratios "$tmpdir/$suite.json" \
                | awk -F'\t' -v l="$label" '$1 == l {print $2}')"
            if [[ -z "$fresh_ratio" ]]; then
                echo "FAIL  $suite: \"$label\" missing from fresh measurement"
                failed=1
                continue
            fi
            verdict="$(awk -v f="$fresh_ratio" -v c="$committed_ratio" \
                'BEGIN {print (f < 0.75 * c) ? "regressed" : "ok"}')"
            if [[ "$verdict" == "regressed" ]]; then
                echo "FAIL  $suite: \"$label\" regressed: ${fresh_ratio}x vs committed ${committed_ratio}x (>25% drop)"
                failed=1
            else
                echo "ok    $suite: \"$label\": ${fresh_ratio}x (committed ${committed_ratio}x)"
            fi
        done < <(extract_ratios "$committed")
    done
    if [[ $failed -ne 0 ]]; then
        echo "Bench gate failed."
        exit 1
    fi
    echo "Bench gate passed."
    exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> audit round-trip smoke"
# A refuter-emitted certificate must audit clean (exit 0), and damaged
# bytes must be rejected as malformed (exit 2) — the flm-audit contract.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
./target/release/regen --refute ba-nodes --emit-cert "$tmpdir/ba.flmc"
./target/release/flm-audit "$tmpdir/ba.flmc" --quiet
./target/release/regen --refute clock-sync --emit-cert "$tmpdir/clock.flmc"
./target/release/flm-audit "$tmpdir/clock.flmc" --quiet
# The asynchronous (kind 2) family: the certificate's body is the full
# adversarial schedule, the audit replays it, and a rerun must reproduce
# the bytes exactly — schedules are deterministic, not sampled.
./target/release/regen --refute flp-async --emit-cert "$tmpdir/async.flmc"
./target/release/flm-audit "$tmpdir/async.flmc" --quiet
./target/release/regen --refute flp-async --emit-cert "$tmpdir/async2.flmc" > /dev/null
cmp "$tmpdir/async.flmc" "$tmpdir/async2.flmc" || {
    echo "flp-async is not reproducible: emitted certificates differ"
    exit 1
}
head -c 40 "$tmpdir/ba.flmc" > "$tmpdir/truncated.flmc"
cat "$tmpdir/ba.flmc" <(printf 'junk') > "$tmpdir/trailing.flmc"
for mutant in truncated trailing; do
    set +e
    ./target/release/flm-audit "$tmpdir/$mutant.flmc" --quiet
    rc=$?
    set -e
    if [[ $rc -ne 2 ]]; then
        echo "flm-audit exited $rc on $mutant.flmc (expected 2: malformed)"
        exit 1
    fi
done

echo "==> serve round-trip smoke"
serve_smoke

echo "==> shard round-trip smoke"
shard_smoke

echo "All checks passed."
