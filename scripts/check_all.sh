#!/bin/sh
# Full local gate: everything CI would need to trust a change.
#
#   1. build the whole tree
#   1b. build-profile gate: no lib/ module compiles with -opaque (the
#      workspace's release profile; -opaque would stop every
#      cross-module inlining the timing model's hot path relies on), and
#      `dune printenv .` still carries the strict warning set,
#      -strict-sequence and -strict-formats (the root dune file)
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
#   7. Figure 6 gate (bench_gate fig6): single-job wall time, obs-on
#      figure identical to obs-off, Fig. 6 mean slowdown pinned
#   8. full-system gate (bench_gate fullsys): real-crypto co-simulation
#      + engine-verified multicore wall time, zero wrong
#      translations and zero verify failures, walks/flips/MACs pinned
#   8b. snapshot tier alone (dune build @snapshot) — codec/container
#      properties and resume determinism, also part of runtest but
#      addressable for quick checkpoint iteration
#   8c. grep gates: Snapshot.prune and Snapshot.store_counts each have
#      exactly one call site in lib/ outside lib/snapshot/ — the one
#      checkpoint driver — so no hand-rolled driver loop reappears; and
#      Unix.bind, Unix.accept, Unix.listen and SHUTDOWN_RECEIVE each
#      have exactly one call site in lib/, in lib/server/listener.ml —
#      the one connection layer behind Server and Router; and one bench
#      gate: no scripts/check_bench_*.sh, and bench/main.ml reads
#      PTG_BENCH_JSON in exactly one place (its one JSON writer); and one
#      MAC path: no compute_batch or Engine.Batch in lib/ or bench/, so
#      nothing bypasses the engine's MAC memo; and no assert false in
#      lib/ at all; and one mitigation path and one trace format: no
#      Mitigation., attach_, Walk_trace, save_state/restore_state or
#      put_kvs in lib/, bin/, bench/ or examples/ (Registry.instantiate
#      builds every mitigation, Mem_trace is the only trace format); and
#      one sweep path: Sink.child in lib/ only in lib/sim/sweep.ml (its
#      one per-case fan-out) and lib/obs/, no per-kind run_fig6,
#      run_fig7, run_fig9 or run_multicore, and no timing-model machine
#      snapshots (Core/Multicore/Guard_timing.set_state, put_core,
#      put_multicore) in lib/, bin/, bench/ or examples/; and one
#      scenario codec: no json_escape in lib/ (Json.escape is the one
#      escaper), no scenario_to_json, scenario_of_json or canonical_ext
#      in lib/, bin/ or bench/ (Scenario.to_json/of_json are the codec,
#      and the canonical form is their encoding), and no hand-built JSON
#      string literal starting {\" in lib/sim/ (it goes through Json);
#      and one row table: no Hashtbl in lib/rowhammer/fault_model.ml
#      (its disturbance lives in Ptg_dram.Row_table), and the table's
#      Fibonacci hash multiplier 0x27d4eb2f165667c5 appears in exactly
#      one file of lib/, lib/dram/row_table.ml, so no second copy of the
#      open-addressing probe exists; and one way to run an artifact: no
#      Fullsys.create, fullsys_key, run_fullsys, Fig6.run, Fig7.run,
#      Fig8.run, Fig9.run or Multicore_exp.run in bin/ (the CLI builds a
#      Scenario and runs it through Scenario.run or
#      Checkpoint.run_scenario, as the server does)
#   8d. warm-start gate (bench_gate snapshot): resuming a finished
#      fullsys budget from its snapshot store must stay >= 5x faster
#      than computing it cold and byte-identical
#   8e. deadline-slicing gate (bench_gate slices): a served run forced
#      through checkpoint/requeue compute windows must stay
#      byte-identical at <= 10% tax, and finishing from a victim's
#      deepest checkpoint must stay >= 2x faster than recomputing cold
#   9. serving throughput gate (bench_gate serve): the cache-hot path
#      serves at least 100x the cold-compute rate
#  10. sharded-scaling gate (bench_gate serve_sharded): 2 router shards
#      must serve >= 1.6x one shard's throughput, with zero lost requests
#
# Usage: scripts/check_all.sh   (run from anywhere inside the repo)
set -eu
cd "$(dirname "$0")/.."

# bench_gate SECTION: record one bench section into a temp file, then
# check it against the committed BENCH_SECTION.json with bench/gate.exe,
# whose rule table holds every bound of steps 7-10.
bench_gate() {
    fresh=$(mktemp "/tmp/ptg_bench_$1.XXXXXX.json")
    status=0
    PTG_BENCH_ONLY="$1" PTG_BENCH_JSON="$fresh" dune exec bench/main.exe >/dev/null \
        && dune exec bench/gate.exe -- "BENCH_$1.json" "$fresh" || status=$?
    rm -f "$fresh"
    return "$status"
}

echo "== build =="
dune build

echo "== build profile: cross-module inlining and strict warnings =="
modules=$(find _build/default/lib -name '*.cmx' | sed 's|^_build/default/||')
if [ -z "$modules" ]; then
    echo "FAIL: no lib/ module was built natively" >&2
    exit 1
fi
# shellcheck disable=SC2086 # one target per word
if dune rules $modules | grep -q -- '-opaque'; then
    echo "FAIL: lib/ modules compile with -opaque; build with the workspace's release profile" >&2
    exit 1
fi
env=$(dune printenv .)
for flag in '@1..3@5..28@30..39@43@46..47@49..57@61..62-40' -strict-sequence -strict-formats; do
    if ! printf '%s\n' "$env" | grep -qF -- "$flag"; then
        echo "FAIL: dune printenv . lacks $flag; the root dune file's env stanza must keep the dev warning set" >&2
        exit 1
    fi
done
echo "OK: no lib/ module is -opaque; warnings stay strict and errors"

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
bench_gate fig6

echo "== full-system regression gate =="
bench_gate fullsys

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

echo "== one bench gate =="
if ls scripts/check_bench_*.sh 2>/dev/null; then
    echo "FAIL: per-section bench scripts are back; add rows to bench/gate.ml instead" >&2
    exit 1
fi
reads=$(grep -nF '"PTG_BENCH_JSON"' bench/main.ml || true)
if [ "$(printf '%s' "$reads" | grep -c .)" -ne 1 ]; then
    echo "FAIL: bench/main.ml must read PTG_BENCH_JSON exactly once (in write_json):" >&2
    printf '%s\n' "$reads" >&2
    exit 1
fi
echo "OK: no check_bench_*.sh; PTG_BENCH_JSON read once, by the one bench JSON writer"

echo "== one MAC path =="
if grep -rnE --include='*.ml' --include='*.mli' 'compute_batch|Engine\.Batch' lib bench; then
    echo "FAIL: a batched MAC path is back; every engine MAC goes through Engine.compute_mac" >&2
    exit 1
fi
echo "OK: no compute_batch or Engine.Batch in lib/ or bench/"

echo "== no assert false in lib =="
if grep -rn --include='*.ml' 'assert false' lib; then
    echo "FAIL: assert false in lib/ — make the case impossible by type or raise a descriptive error" >&2
    exit 1
fi
echo "OK: no assert false in lib/"

echo "== one mitigation path, one trace format =="
if grep -rnE --include='*.ml' --include='*.mli' \
    'Mitigation\.|attach_|Walk_trace|save_state|restore_state|put_kvs' \
    lib bin bench examples; then
    echo "FAIL: a second mitigation entry point, the walk trace format or the plugin checkpoint images are back; use Registry.instantiate and Mem_trace" >&2
    exit 1
fi
echo "OK: Registry.instantiate is the one mitigation path, Mem_trace the one trace format"

echo "== one sweep path =="
sites=$(grep -rn --include='*.ml' 'Sink\.child' lib \
    | grep -v -e '^lib/sim/sweep\.ml:' -e '^lib/obs/' || true)
if [ -n "$sites" ]; then
    echo "FAIL: a per-case child-sink fan-out outside lib/sim/sweep.ml; run the cases through Sweep:" >&2
    printf '%s\n' "$sites" >&2
    exit 1
fi
if grep -rnE --include='*.ml' --include='*.mli' \
    '\brun_(fig6|fig7|fig9|multicore)\b|(Core|Multicore|Guard_timing)\.set_state|\bput_(core|multicore)\b' \
    lib bin bench examples; then
    echo "FAIL: a per-kind checkpoint wrapper or a timing-model machine snapshot is back; a sweep runs through Sweep.exec" >&2
    exit 1
fi
echo "OK: one per-case fan-out (Sweep), no per-kind sweep wrappers, no timing-model machine snapshots"

echo "== one scenario codec =="
if grep -rn --include='*.ml' --include='*.mli' 'json_escape' lib \
    || grep -rnE --include='*.ml' --include='*.mli' \
        'scenario_to_json|scenario_of_json|canonical_ext' lib bin bench \
    || grep -rnF --include='*.ml' '"{\"' lib/sim; then
    echo "FAIL: a second JSON writer or scenario codec is back; use Ptg_util.Json and Scenario.to_json/of_json" >&2
    exit 1
fi
echo "OK: Json.escape is the one escaper, Scenario holds the one scenario codec, lib/sim builds no JSON by hand"

echo "== one row table =="
if grep -n 'Hashtbl' lib/rowhammer/fault_model.ml; then
    echo "FAIL: the fault model keeps row state in a Hashtbl again; use Ptg_dram.Row_table" >&2
    exit 1
fi
probes=$(grep -rlF --include='*.ml' '0x27d4eb2f165667c5' lib || true)
if [ "$probes" != "lib/dram/row_table.ml" ]; then
    echo "FAIL: the open-addressing probe must be defined once, in lib/dram/row_table.ml; found in:" >&2
    printf '%s\n' "$probes" >&2
    exit 1
fi
echo "OK: the fault model and the DRAM counters share one row table (lib/dram/row_table.ml)"

echo "== one way to run an artifact =="
if grep -rnE --include='*.ml' --include='*.mli' \
    'Fullsys\.create|fullsys_key|run_fullsys|\b(Fig6|Fig7|Fig8|Fig9|Multicore_exp)\.run\b' bin; then
    echo "FAIL: the CLI runs an artifact outside Scenario; build a Scenario and run it through Scenario.run or Checkpoint.run_scenario" >&2
    exit 1
fi
echo "OK: every artifact the CLI runs is a Scenario"

echo "== warm-start regression gate =="
bench_gate snapshot

echo "== deadline-slicing gate =="
bench_gate slices

echo "== serving throughput (cold vs cache-hot) =="
bench_gate serve

echo "== sharded-scaling gate =="
bench_gate serve_sharded
