#!/bin/sh
# Full local gate: everything CI would need to trust a change.
#
#   1. build the whole tree
#   2. tier-1 test suite (dune runtest: unit, property, golden, e2e)
#   3. fast serving tier alone (dune build @server) — redundant with
#      runtest, but proves the alias stays wired for quick iteration
#   4. chaos tier alone (fault injection, deadlines, slow-loris) — also
#      part of runtest, but kept addressable for quick iteration
#   5. grep gate: no bare `with _ -> ()` in lib/server — every dropped
#      exception there must be classified or counted
#   6. crypto tier alone (dune build @crypto) — the table-driven QARMA
#      core, every MAC path and correction checked against the cell-array
#      reference cipher (test/crypto/qarma_ref.ml), golden vectors and
#      Block128 algebra, also part of runtest but addressable for quick
#      cipher iteration
#   6b. trace tier alone (dune build @trace) — registry conformance +
#      memory-trace formats, also part of runtest but addressable
#   6c. grep gate: the plugin names registered in
#      lib/mitigations/registry.ml and the plugin table documented in
#      README.md must stay in sync
#   7. Figure 6 wall-time regression gate (scripts/check_bench_fig6.sh)
#   8. full-system regression gate (scripts/check_bench_fullsys.sh):
#      real-crypto co-simulation + batched multicore verification wall
#      time vs the committed BENCH_fullsys.json, zero wrong translations
#      and zero verify failures required
#   8b. snapshot tier alone (dune build @snapshot) — codec/container
#      properties and resume determinism, also part of runtest but
#      addressable for quick checkpoint iteration
#   8c. grep gates: Snapshot.prune and Snapshot.store_counts each have
#      exactly one call site in lib/ outside lib/snapshot/ — the one
#      checkpoint driver — so no hand-rolled driver loop reappears; and
#      Unix.bind, Unix.accept, Unix.listen and SHUTDOWN_RECEIVE each
#      have exactly one call site in lib/, in lib/server/listener.ml —
#      the one connection layer behind Server and Router
#   8d. warm-start regression gate (scripts/check_bench_snapshot.sh):
#      resuming a finished fullsys budget from its snapshot store must
#      stay >= 5x faster than computing it cold and byte-identical,
#      cold wall time vs the committed BENCH_snapshot.json
#   8e. deadline-slicing gate (scripts/check_bench_slices.sh): a served
#      run forced through checkpoint/requeue compute windows must stay
#      byte-identical at <= 10% tax, and finishing from a victim's
#      deepest checkpoint must stay >= 2x faster than recomputing cold
#   9. serving throughput smoke (PTG_BENCH_ONLY=serve): asserts the
#      cache-hot path serves at least 100x the cold-compute rate
#  10. sharded-scaling gate (scripts/check_bench_serve_sharded.sh):
#      2 router shards must serve >= 1.6x one shard's throughput, with
#      zero lost requests
#
# Usage: scripts/check_all.sh   (run from anywhere inside the repo)
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tier-1 tests (dune runtest) =="
dune runtest

echo "== serving tier (dune build @server) =="
dune build @server

echo "== chaos tier (fault injection) =="
dune exec test/server/test_server_main.exe -- test server.chaos

echo "== no silent exception swallowing in lib/server =="
if grep -rn 'with _ -> ()' lib/server; then
    echo "FAIL: bare 'with _ -> ()' in lib/server — classify or count it" >&2
    exit 1
fi
echo "OK: lib/server swallows no exception silently"

echo "== crypto tier (dune build @crypto) =="
dune build @crypto

echo "== trace tier (dune build @trace) =="
dune build @trace

echo "== registry plugins documented in README =="
registered=$(sed -n 's/.*register ~name:"\([^"]*\)".*/\1/p' lib/mitigations/registry.ml | sort)
documented=$(sed -n 's/^| `\([a-z-]*\)` *|.*=.*|.*|$/\1/p' README.md | sort)
if [ -z "$registered" ]; then
    echo "FAIL: no plugin registrations found in lib/mitigations/registry.ml" >&2
    exit 1
fi
if [ "$registered" != "$documented" ]; then
    echo "FAIL: registry plugins and README plugin table out of sync" >&2
    echo "  registered: $(echo $registered)" >&2
    echo "  documented: $(echo $documented)" >&2
    exit 1
fi
echo "OK: registry plugins match the README table ($(echo $registered))"

echo "== Figure 6 regression gate =="
scripts/check_bench_fig6.sh

echo "== full-system regression gate =="
scripts/check_bench_fullsys.sh

echo "== snapshot tier (dune build @snapshot) =="
dune build @snapshot

echo "== one checkpoint driver in lib =="
for fn in Snapshot.prune Snapshot.store_counts; do
    sites=$(grep -rnF --include='*.ml' "$fn" lib | grep -v '^lib/snapshot/' || true)
    if [ "$(printf '%s' "$sites" | grep -c .)" -ne 1 ]; then
        echo "FAIL: $fn must have exactly one call site in lib/ outside lib/snapshot/ (the checkpoint driver):" >&2
        printf '%s\n' "$sites" >&2
        exit 1
    fi
done
echo "OK: Snapshot.prune and Snapshot.store_counts each called once, by the checkpoint driver"

echo "== one connection layer in lib =="
for fn in Unix.bind Unix.accept Unix.listen SHUTDOWN_RECEIVE; do
    sites=$(grep -rnF --include='*.ml' "$fn" lib || true)
    if [ "$(printf '%s' "$sites" | grep -c .)" -ne 1 ] \
        || [ "$(printf '%s' "$sites" | grep -c '^lib/server/listener\.ml:')" -ne 1 ]; then
        echo "FAIL: $fn must have exactly one call site in lib/, in lib/server/listener.ml (the connection layer):" >&2
        printf '%s\n' "$sites" >&2
        exit 1
    fi
done
echo "OK: Unix.bind, Unix.accept, Unix.listen and SHUTDOWN_RECEIVE each called once, by the listener"

echo "== warm-start regression gate =="
scripts/check_bench_snapshot.sh

echo "== deadline-slicing gate =="
scripts/check_bench_slices.sh

echo "== serving throughput (cold vs cache-hot) =="
out=$(mktemp /tmp/ptg_bench_serve.XXXXXX.txt)
trap 'rm -f "$out"' EXIT
PTG_BENCH_ONLY=serve dune exec bench/main.exe >"$out" 2>&1
cat "$out"
ratio=$(sed -n 's/^ *ratio: *\([0-9][0-9]*\)x.*/\1/p' "$out" | head -1)
if [ -z "$ratio" ]; then
    echo "FAIL: serve bench did not report a cold-vs-hot ratio" >&2
    exit 1
fi
if [ "$ratio" -lt 100 ]; then
    echo "FAIL: cache-hot serving only ${ratio}x cold (want >= 100x)" >&2
    exit 1
fi
echo "OK: cache-hot serving ${ratio}x cold (>= 100x)"

echo "== sharded-scaling gate =="
scripts/check_bench_serve_sharded.sh
