#!/bin/sh
# Repo CI gate: build, tier-1 tests, and one tiny end-to-end fault campaign
# (seeded, positive rate — exercises injection, DMR detection, bounded
# re-execution, and the graceful-degradation serving path).
#
# Usage: bin/check.sh        (from the repo root)
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tier-1 tests =="
dune runtest

echo "== compilation pipeline smoke =="
# per-pass instrumentation visible from the CLI ...
dune exec bin/picachu_cli.exe -- compile softmax --timings
# ... and the content-addressed cache effective: `stats` compiles the whole
# library twice and exits non-zero if the second sweep misses the cache
dune exec bin/picachu_cli.exe -- stats

echo "== search-effort budget gate =="
# the full-roster DSE sweep from a cold cache must stay under a pinned
# II-attempt ceiling — catches search-cost regressions the way the QoR
# goldens catch schedule regressions (measured: 928 attempts; ceiling 1.3x)
dune exec bin/picachu_cli.exe -- stats --sweep-effort 1200

echo "== static verification sweep =="
# whole kernel library through the independent verifier (IR lint, DFG
# invariants, schedule validation, and the affine precision analysis at
# each kernel's selected format); non-zero exit on any Error-severity
# finding, and one precision verdict per kernel
lint_out="$(dune exec bin/picachu_cli.exe -- lint)"
echo "$lint_out"
echo "$lint_out" | grep -q "^24 kernel(s): 0 error(s)" || {
  echo "lint: the library summary is not 24 kernel(s): 0 error(s)"; exit 1; }
[ "$(echo "$lint_out" | grep -c "^  precision: ")" -eq 24 ] || {
  echo "lint: expected 24 precision verdicts"; exit 1; }

echo "== format selection smoke =="
# the proven-bound ladder must pick a sub-16-bit format for at least one
# roster kernel within the default 1e-2 budget (relu proves bound 0 even
# in 4-bit fp4_e2m1; gelu fits q4.8), and the summary line must say so
formats_out="$(dune exec bin/picachu_cli.exe -- formats)"
echo "$formats_out"
echo "$formats_out" | grep -q "^relu  *fp4_e2m1  *4  *0 " || {
  echo "formats smoke: relu did not select fp4_e2m1 at proven bound 0"; exit 1; }
echo "$formats_out" | grep -Eq "[1-9][0-9]* sub-16-bit selection" || {
  echo "formats smoke: no sub-16-bit selection on the roster"; exit 1; }
# an infinite budget proves nothing: it must be refused, never reported as
# an unbounded format that "fits"
if dune exec bin/picachu_cli.exe -- formats softmax --budget inf; then
  echo "formats smoke: --budget inf was accepted"; exit 1
fi
# a kernel that reads its induction variable as data would be miscompiled
# by unrolling (every copy would see copy 0's index): hw-run must refuse it
# at validation, never report a max |hw - interp|
iv_pk="$(mktemp)"
trap 'rm -f "$iv_pk"' EXIT
dune exec bin/picachu_cli.exe -- dump relu \
  | sed 's/%4 = select %3 %2 %0/%4 = mul %2 %1/' > "$iv_pk"
if dune exec bin/picachu_cli.exe -- hw-run "$iv_pk"; then
  echo "validation smoke: a kernel reading the induction variable ran"; exit 1
fi

echo "== approximation backend smoke =="
# the Taylor-vs-NLI head-to-head must run end to end (compile both rosters,
# bound or surrogate-measure each operator) and NLI must actually win the
# summed-II comparison somewhere while staying inside the tile ROM budget
backends_out="$(dune exec bin/picachu_cli.exe -- backends)"
echo "$backends_out"
echo "$backends_out" | grep -Eq "nli lowers the summed II on [1-9][0-9]*/" || {
  echo "backends smoke: nli wins the II comparison nowhere"; exit 1; }
echo "$backends_out" | grep -q "every nli table fits" || {
  echo "backends smoke: an nli table exceeds the tile ROM budget"; exit 1; }

echo "== codesign smoke =="
# a small seeded annealing run must walk off the hand-designed 4x4 point:
# the verdict line asserts best perf/area >= the Explore.reference_point
codesign_out="$(dune exec bin/picachu_cli.exe -- codesign --iters 16 --seed 7)"
echo "$codesign_out"
echo "$codesign_out" | grep -q "beats reference" || {
  echo "codesign smoke: search did not beat the 4x4 reference point"; exit 1; }

echo "== one-sa baseline smoke =="
# the third Figure 8 philosophy must run end to end and keep the narrative:
# no scalar cliff (covers llama), but PICACHU stays ahead on geomean
onesa_out="$(dune exec bin/picachu_cli.exe -- experiments onesa)"
echo "$onesa_out"
echo "$onesa_out" | grep -q "ONE-SA" || {
  echo "one-sa smoke: baseline column missing"; exit 1; }
echo "$onesa_out" | grep -q "PICACHU vs ONE-SA geomean" || {
  echo "one-sa smoke: geomean summary line missing"; exit 1; }

echo "== fault campaign smoke =="
dune exec examples/fault_campaign.exe -- 0.002 7

echo "== serving smoke =="
# a small fixed-seed traffic trace through the single-replica event engine,
# under both batching policies; each run must exit 0 and emit a non-empty
# percentile table
for policy in continuous static=4; do
  serve_out="$(dune exec bin/picachu_cli.exe -- serve llama2-7b --rps 8 --requests 12 --policy "$policy" --seed 7)"
  echo "$serve_out"
  echo "$serve_out" | grep -q "ttft (ms)" || {
    echo "serve smoke ($policy): percentile table missing"; exit 1; }
done

echo "== cluster smoke =="
# 3 fault-free replicas behind the round-robin router must answer every
# request, lose none, and keep the availability accounting identity
cluster_out="$(dune exec bin/picachu_cli.exe -- cluster llama2-7b --replicas 3 --router round-robin --fault-profile none --rps 8 --requests 12 --seed 7)"
echo "$cluster_out"
echo "$cluster_out" | grep -q "(identity ok)" || {
  echo "cluster smoke: accounting identity violated"; exit 1; }
echo "$cluster_out" | grep -q "arrivals 12  answered 12  dropped 0  failed 0" || {
  echo "cluster smoke: fault-free cluster lost requests"; exit 1; }

echo "== chaos smoke =="
# crash-heavy profile with the defense stack on: the identity must still
# hold and the circuit breakers must actually trip
chaos_out="$(dune exec bin/picachu_cli.exe -- cluster llama2-7b --replicas 3 --fault-profile crash --mttf 6 --mttr 2 --rps 2 --requests 24 --seed 5 --timeout 20)"
echo "$chaos_out"
echo "$chaos_out" | grep -q "(identity ok)" || {
  echo "chaos smoke: accounting identity violated"; exit 1; }
if echo "$chaos_out" | grep -q "breaker-trips=0 "; then
  echo "chaos smoke: no breaker trips under a crash-heavy profile"; exit 1
fi

echo "== check.sh: all green =="
