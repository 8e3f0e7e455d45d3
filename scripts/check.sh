#!/usr/bin/env bash
# Repo gate: build, tests, formatting, lints. Run from the repo root before
# sending a change; CI-equivalent for this offline environment.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (workspace, including the zkml CLI)"
cargo build --workspace --release
# The gateway polls nothing: handlers block in accept, the dispatcher in
# recv. A sleep, a nonblocking socket or a timed wait cannot come back unnoticed.
[ "$(grep -cE 'thread::sleep|set_nonblocking|wait_timeout' crates/net/src/gateway.rs)" = 0 ]
# Placement sums op shapes and never replays a gadget body: the builder has
# no placer mode and no count-only branch for a shape to drift from.
[ -z "$(grep -rlE 'count_only|placer\(|is_placer' crates/core/src)" ]

echo "==> benchmark/ builds against the tree (its API is frozen between benchmark PRs)"
# benchmark/ is its own package and compiles against the crates' public
# items, so deleting one of those must fail here, not in the gate's run.
CARGO_TARGET_DIR=target/benchmark cargo build --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q (workspace, default ZKML_THREADS)"
cargo test --workspace -q

echo "==> cargo test -q (workspace, ZKML_THREADS=1)"
# The two workspace runs include the soundness and negative-path suites, the
# optimizer parity test, the analyzer's rule tests and its enrollment sweep
# (zoo clean, toy fixture flagged, every optimizer layout clean); none of
# them is #[ignore]d.
ZKML_THREADS=1 cargo test --workspace -q

echo "==> segmented prove/verify round-trip (bundles identical across thread counts)"
# The standalone CLI runs the served job's pipeline: every circuit passes the
# determinism gate and every proof is verified before anything is written.
SEG_TMP="$(mktemp -d)"
trap 'rm -rf "$SEG_TMP"' EXIT
./target/release/zkml prove MNIST --dir "$SEG_TMP/default" --segments 3 --seed 7 | tee "$SEG_TMP/prove.out"
grep -q "analyzer cleared 3 circuit(s), verifier accepted 3 proof(s)" "$SEG_TMP/prove.out"
ZKML_THREADS=1 ./target/release/zkml prove MNIST --dir "$SEG_TMP/serial" --segments 3 --seed 7
cmp "$SEG_TMP/default/bundle.bin" "$SEG_TMP/serial/bundle.bin"
./target/release/zkml verify --dir "$SEG_TMP/default"
ZKML_THREADS=1 ./target/release/zkml verify --dir "$SEG_TMP/serial"

echo "==> proof and bundle bytes are pinned (MNIST, seed 7, fixture calibration)"
# A kernel change that alters one byte of a proof or a bundle fails here, not
# only a thread-count cmp. The calibration is a copy of the fixture, because
# an unreadable cache file is overwritten with a fresh calibration.
cp benchmark/hw-fixture.txt "$SEG_TMP/hw.txt"
ZKML_HW_CACHE="$SEG_TMP/hw.txt" ./target/release/zkml prove MNIST --dir "$SEG_TMP/pinned" --seed 7
ZKML_HW_CACHE="$SEG_TMP/hw.txt" ./target/release/zkml prove MNIST --dir "$SEG_TMP/pinned-seg" \
  --segments 3 --seed 7
sha256sum -c - <<EOF
2cd01267e72f6d22f3aac6857ee41920196cc6a7290cd61f46ebfdc9b15d483f  $SEG_TMP/pinned/proof.bin
04b97ea0fb225a4056470e182eba0ce0d8e02cdfb17f8b57200cba0db829251c  $SEG_TMP/pinned-seg/bundle.bin
EOF

echo "==> HTTP is the only transport (the removed --spool flag is a usage error)"
for cmd in "serve --spool x" "submit MNIST --spool x"; do
  # shellcheck disable=SC2086
  if USAGE_ERR="$(./target/release/zkml $cmd 2>&1)"; then
    echo "zkml $cmd should exit 2" >&2; exit 1
  else
    rc=$?
    [ "$rc" -eq 2 ] || { echo "zkml $cmd should exit 2, not $rc" >&2; exit 1; }
  fi
  case "$USAGE_ERR" in usage:*) ;; *) echo "zkml $cmd should print usage" >&2; exit 1 ;; esac
done

echo "==> HTTP serving round-trip (submit, poll, download, verify, 429, drain)"
NET_TMP="$(mktemp -d)"
trap 'rm -rf "$SEG_TMP" "$NET_TMP"; [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true' EXIT
./target/release/zkml serve --http 127.0.0.1:0 \
  --journal "$NET_TMP/journal.jsonl" --port-file "$NET_TMP/port" \
  --workers 2 --tenant-limit throttled:0.1:1:8 &
SERVER_PID=$!
for _ in $(seq 1 100); do [ -s "$NET_TMP/port" ] && break; sleep 0.1; done
ADDR="$(cat "$NET_TMP/port")"
# Monolithic prove over HTTP: submit, wait, download artifacts, verify.
./target/release/zkml submit MNIST --http "$ADDR" --tenant ci --seed 7 \
  --wait --timeout-s 600 --dir "$NET_TMP/proof"
./target/release/zkml verify --dir "$NET_TMP/proof"
# Segmented prove over HTTP: same round-trip with a 3-segment bundle.
./target/release/zkml submit MNIST --http "$ADDR" --tenant ci --seed 7 \
  --segments 3 --wait --timeout-s 600 --dir "$NET_TMP/bundle"
./target/release/zkml verify --dir "$NET_TMP/bundle"
# Admission: the throttled tenant's second submit must be a 429 (exit 3).
./target/release/zkml submit sleep --http "$ADDR" --tenant throttled
if ./target/release/zkml submit sleep --http "$ADDR" --tenant throttled; then
  echo "expected a 429 rejection for tenant 'throttled'" >&2; exit 1
else
  [ $? -eq 3 ] || { echo "429 should map to exit code 3" >&2; exit 1; }
fi
# Commit-and-prove over HTTP: publish the weight commitment on the server's
# registry, prove against the returned digest, verify the download against it.
./target/release/zkml commit-model MNIST --http "$ADDR" | tee "$NET_TMP/commit.out"
DIGEST_HTTP="$(sed -n 's/^model digest: //p' "$NET_TMP/commit.out")"
./target/release/zkml submit MNIST --http "$ADDR" --tenant ci --seed 9 \
  --model "$DIGEST_HTTP" --wait --timeout-s 600 --dir "$NET_TMP/committed"
./target/release/zkml verify --dir "$NET_TMP/committed" --model "$DIGEST_HTTP"
# Graceful drain: SIGTERM, server exits 0 with the journal settled.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
grep -q '"rec":"completed"' "$NET_TMP/journal.jsonl"

echo "==> commit-and-prove (publish once, prove twice, zero re-keygen/re-encode)"
CP_TMP="$(mktemp -d)"
trap 'rm -rf "$SEG_TMP" "$NET_TMP" "$CP_TMP"; [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true' EXIT
# Standalone CLI quickstart: publish, prove under the digest, verify against it.
./target/release/zkml commit-model MNIST --dir "$CP_TMP/registry" | tee "$CP_TMP/commit.out"
grep -q "analyzer cleared 1 circuit(s)" "$CP_TMP/commit.out"
DIGEST="$(basename "$CP_TMP/registry"/*.wc .wc)"
./target/release/zkml prove MNIST --dir "$CP_TMP/proof" --seed 7 --model "$DIGEST" | tee "$CP_TMP/prove.out"
grep -q "analyzer cleared 1 circuit(s), verifier accepted 1 proof(s)" "$CP_TMP/prove.out"
./target/release/zkml verify --dir "$CP_TMP/proof" --model "$DIGEST"
# A foreign digest must fail with the distinct commitment-mismatch exit code 4.
BAD_DIGEST="$(printf '0%.0s' $(seq 1 64))"
if ./target/release/zkml verify --dir "$CP_TMP/proof" --model "$BAD_DIGEST"; then
  echo "expected a commitment mismatch for a foreign digest" >&2; exit 1
else
  [ $? -eq 4 ] || { echo "commitment mismatch should map to exit code 4" >&2; exit 1; }
fi
# The rest of `zkml verify`'s commitment rule, by exit code: a committed proof
# without its commitment.bin is a mismatch (4) with or without --model, and a
# bundle, which carries its own commitments, refuses --model (1).
expect_verify_exit() { # $1 = expected exit code, the rest = verify arguments
  local want="$1" rc=0
  shift
  ./target/release/zkml verify "$@" || rc=$?
  [ "$rc" -eq "$want" ] || { echo "zkml verify $* should exit $want, not $rc" >&2; exit 1; }
}
mkdir "$CP_TMP/bare"
cp "$CP_TMP/proof"/{proof,vk,public}.bin "$CP_TMP/bare/"
expect_verify_exit 4 --dir "$CP_TMP/bare"
expect_verify_exit 4 --dir "$CP_TMP/bare" --model "$DIGEST"
expect_verify_exit 1 --dir "$SEG_TMP/default" --model "$DIGEST"
# Counter regression: after one publication, proving twice against the digest
# performs zero keygens and zero weight re-encodings (runs alone because it
# reads process-global counters).
cargo test -p zkml-service --test commitment -q -- --ignored --test-threads=1

echo "==> perf smoke (kernel + 4-thread ratios at small k vs PERF_THRESHOLDS.json)"
# Gates the serial jacobian/batch-affine MSM ratio, the small-over-uniform and
# grand-product-over-uniform MSM ratios, the 1 MiB-over-256 KiB JSON parse
# ratio, the p50 of 200 sequential healthz round trips to an in-process
# gateway, the static analyzer's constraint evaluations per row on MNIST,
# MNIST's layout sweep time over one synthesis of its winner, and the
# 4-thread/1-thread MSM and FFT ratios (the verifier's work is
# pinned by counts in the test run). Thresholds are
# hardware-stamped: on a machine with a different core count the parallel
# gates auto-skip; re-baseline with
# ZKML_PERF_RECORD=1 cargo run --release -p zkml-bench --bin perf_smoke
cargo run --release -q -p zkml-bench --bin perf_smoke

echo "==> cargo doc (workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
# The workspace lints include `unreachable_pub`, so a `pub` item that no
# path outside its crate reaches fails here; it is `pub(crate)`, which lets
# the dead-code lint judge it.
cargo clippy --workspace --all-targets -- -D warnings

echo "All checks passed."
