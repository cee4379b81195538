#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests. Run before every push.
#
#   ./ci.sh           # full gate
#   ./ci.sh --fast    # skip the release build and release-profile tests
#
# Everything runs offline; the vendored stand-ins under vendor/ satisfy all
# external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

step() { printf '\n== %s ==\n' "$1"; }

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $fast -eq 0 ]]; then
  step "cargo build --release (workspace)"
  cargo build --release --workspace
fi

step "cargo test (workspace)"
cargo test -q --workspace

if [[ $fast -eq 0 ]]; then
  step "cargo test --release (root package + CLI goldens: same bits from every build)"
  # The digests and snapshot bytes the tests pin are the test profile's. A
  # float the optimizer may compute differently in a release build (as it
  # once rewrote the damped decay's `pow(2, x)` into `exp2(x)`) fails here
  # instead of surprising a reader of a release binary's output.
  cargo test --release -q
  cargo test --release -q -p superfe-cli --test golden
fi

step "ring stress (randomized SPSC producer/consumer) + schedule explorer"
# The frame ring under the executor's event path: randomized capacities,
# doorbell batches, send flavors, and consumer stalls must preserve order
# and lose nothing, and producer-drop must drain-then-terminate. Already
# part of the workspace tests; run named here so a failure points straight
# at the data path.
cargo test -q -p superfe-net --test ring_stress
# The same ring under the deterministic schedule explorer: every producer /
# consumer / dwell-timeout interleaving of capacity 1-2 rings within the
# stated bounds, x86-TSO store buffers included. A failure here is a
# protocol bug in ring.rs (lost wakeup, lost or repeated `hungry`), named
# with the schedule that shows it; the schedule count it prints is the same
# every run.
model_out=$(cargo test -q -p superfe-net --lib ring::model -- --nocapture 2>&1) \
  || { printf '%s\n' "$model_out"; echo "ci: the ring's schedule explorer failed"; exit 1; }
grep "schedules in all" <<<"$model_out"

step "plane schedules (one generated oracle)"
# The control plane under one deterministic generator: schedules of push
# (some stalled past the ring dwell), attach (with or without sinks),
# detach, score_with, set_table_budget and snapshot-then-restore at
# workers 1/2/4/8, every tenant held to its solo run over its window and
# finish to ascending id. It prints how many schedules reached each shape;
# a shape that stands for a deleted or replaced hand-written test must be
# reached, or those tests' cases are no longer checked.
plane_started=$(date +%s%N)
plane_out=$(cargo test -q --test plane_schedules -- --nocapture 2>&1) \
  || { printf '%s\n' "$plane_out"; echo "ci: the plane's schedule oracle failed"; exit 1; }
grep "plane schedules:" <<<"$plane_out"
echo "ci: plane schedules took $(( ($(date +%s%N) - plane_started) / 1000000 )) ms wall"
if grep "plane schedules: *0 reached .*(stands for" <<<"$plane_out"; then
  echo "ci: a shape that stands for a deleted test was reached by no schedule"
  exit 1
fi

step "allocation budget (NIC hot path, counted)"
# A counting global allocator around `FeNic::handle` on the Kitsune policy:
# two allocations for a steady-state record (its emitted vector, and the
# pending-vector buffer regrown after `take_packet_vectors`). A record that
# opens a socket and a channel allocates nothing of its own: a group's state
# is a block of its level's slab, so 64 such records cost 64 steady records
# plus the chunks the slabs grew by, one per 64 groups of a slab. A block per
# group put that at three per record, separate lanes per reducer kind at
# five, per-group copies of the level program at twenty. Scoring the
# record's vector in the shard — float KitNET or its Q39.24 plan — adds
# none (it was 95 and 65). Already part of the workspace tests; named here
# because it is the deterministic form of what the kitsune_steady /
# kitsune_churn / kitnet_score microbenches below only time. The same binary
# holds the front-end to the solo switch: on the Mirai trace a one-partition
# `SharedSwitch` allocates exactly as often as the `FeSwitch` it wraps.
cargo test -q --test alloc_budget

step "damped bank differential (banked windows vs one window at a time)"
# A level keeps each run of damped windows of a reduce as one bank: one
# shared header, structure-of-arrays lanes, one probe of a per-record memo
# for a header's decay factors. Its contract is bit-identity — every value a
# group emits in the one walk that updates it, every value it finalizes to
# after, and every snapshot byte — with the shape it replaced, kept as a
# test-only reference that updates, then finalizes: random levels over every
# reducing function, Kitsune's banks, runs split by other functions, 2-D
# banks in both directions, backward timestamps, banks fed from `f_ipt`'s
# second packet (its first only emits), banks behind `synthesize` chains,
# and banks whose rates are a reordering or a part of Kitsune's at the same
# gap. Already part of the workspace tests at 96 cases; here at 2,000.
bank_out=$(BANK_DIFF_CASES=2000 cargo test -q -p superfe-policy --lib \
  lanes_and_memo_match_the_reference_bitwise -- --nocapture 2>&1) \
  || { printf '%s\n' "$bank_out"; echo "ci: a damped bank diverged from the one-window reference"; exit 1; }
grep "damped bank differential:" <<<"$bank_out"

step "scorer kernel differential (compiled KitNET plan vs the i128 reference)"
# The lowered KitNET is a compiled plan: accumulator width proved from the
# rows' L1 norms, constant clusters folded, weights streamed from one arena.
# Its contract is bit-identity with the scorer it replaced, which is kept
# as a test-only reference: random trained models x all sixteen (FA, FW)
# corners x hostile vectors, at the proved width and forced wide. The test
# profile's overflow checks turn a wrong width proof into a panic. Every
# plan also scores batches through the detector's batch entry point — a full
# tile of sixteen, then every remainder, each vector at every lane — which
# must give the single-vector bits; an exact-f64 plan whose proof were
# wrong would round there. The line printed counts the plans that ran at
# exact-f64, i64 and i128, and the batch cases. Already part of the
# workspace tests at six models; here at sixty.
diff_out=$(KERNEL_DIFF_CASES=60 cargo test -q -p superfe-ml --lib \
  plan_scores_are_bit_identical_to_the_reference_scorer -- --nocapture 2>&1) \
  || { printf '%s\n' "$diff_out"; echo "ci: the plan diverged from the reference scorer"; exit 1; }
grep "kernel differential:" <<<"$diff_out"
# The share of the program that folding removes depends on the model (flat
# training dimensions): print it for the one `superfe detect` pins.
fold_out=$(cargo test -q -p superfe-cli --lib \
  golden_kitnet_reports_what_lowering_folded -- --nocapture 2>&1) \
  || { printf '%s\n' "$fold_out"; echo "ci: the detect golden model did not lower"; exit 1; }
grep "detect golden model:" <<<"$fold_out"

step "superfe check (bundled policies + examples)"
# Every bundled application policy and every example .sfe file must pass the
# full static analyzer — structural lints, dataflow lints, the SF05xx
# value-range/overflow proofs, and hardware feasibility. `check` exits
# non-zero on any error-severity finding.
cargo build -q -p superfe-cli
superfe=target/debug/superfe
# The policy list comes from `superfe list` (machine-readable, one name per
# line) so a newly bundled application is covered here automatically.
policies=$("$superfe" list)
[[ -n "$policies" ]] || { echo "ci: superfe list returned no policies"; exit 1; }
for p in $policies; do
  "$superfe" check "$p" >/dev/null || { echo "ci: superfe check $p failed"; exit 1; }
done
for f in examples/*.sfe; do
  "$superfe" check "$f" >/dev/null || { echo "ci: superfe check $f failed"; exit 1; }
done

step "benches compile (criterion targets + the one bench binary)"
cargo build -q -p superfe-bench --benches --bins
cargo run -q -p superfe-bench -- list >/dev/null

step "one NIC cost model (one price table, one cycle formula)"
# A `ReduceFn` is priced in policy/src/analyze/cost.rs and nowhere else, and
# the hash / division / threading arithmetic has one body in
# nic/src/perf.rs: the second table and the second model must not come
# back, and the two hardware constants only that arithmetic needs are each
# read on exactly one line outside the NfpModel definition.
if grep -rn "REDUCE_SIMPLE\|REDUCE_WELFORD\|REDUCE_DAMPED\|REDUCE_TABLE\|REDUCE_HLL\|struct CycleModel" crates; then
  echo "ci: a second NIC cost table or cycle model is back"
  exit 1
fi
for field in soft_div_cycles ctx_switch_cycles; do
  reads=$(grep -rn "$field" crates/*/src | grep -vc "/arch\.rs:" || true)
  if [[ "$reads" -ne 1 ]]; then
    echo "ci: $field is read on $reads lines outside arch.rs (the one formula reads it once)"
    exit 1
  fi
done
# Fig. 17 through that formula: each optimisation must lower the cycles.
fig17_cycles=$(cargo run -q -p superfe-bench -- fig17 | grep -o '[0-9]* cycles' | grep -o '^[0-9]*')
[[ $(wc -l <<<"$fig17_cycles") -eq 4 ]] \
  || { echo "ci: bench -- fig17 did not print its four rows"; exit 1; }
if ! sort -rnuc <<<"$fig17_cycles" 2>/dev/null; then
  echo "ci: Fig. 17's rows are not strictly decreasing:" $fig17_cycles
  exit 1
fi

step "one front-end (switch events become shard frames in one place)"
# `superfe_core::stream::DataPath` is the one place switch output is routed
# into the NIC shard pool, and `SharedSwitch` the one place a partition's
# events are tagged: the solo pipeline is the data path with one partition,
# the control plane drives it with N. The pool's own tests (crates/nic) and
# the pool experiments (crates/bench) feed the pool directly.
feeders=$(grep -rl "push_all(" crates --include='*.rs' | grep -v "^crates/nic/\|^crates/bench/" || true)
if [[ $(grep -c . <<<"$feeders") -gt 1 ]]; then
  echo "ci: more than one file pushes switch events into the shard pool:" $feeders
  exit 1
fi
if grep -rn "TaggedEvent {" crates --include='*.rs' \
    | grep -v "^crates/switch/src/tenant\.rs:\|^crates/nic/\|^crates/bench/"; then
  echo "ci: switch events are tagged outside SharedSwitch"
  exit 1
fi

step "one JSON writer, one flag loop"
# JSON is a `superfe_policy::analyze::json::Json` value, rendered compact or
# pretty by that module alone, which owns the escaping; the CLI reads every
# subcommand's flags through one cursor (cli/src/args.rs), which owns the
# missing-value refusal. A second writer or a second flag loop must not come
# back.
writer=crates/policy/src/analyze/json.rs
if grep -rn "json_escape" crates --include='*.rs' | grep -v "^$writer:"; then
  echo "ci: json_escape is referenced outside the JSON writer"
  exit 1
fi
if grep -rn '{\\"' crates/*/src --include='*.rs' | grep -v "^$writer:"; then
  echo "ci: JSON is built by hand outside the JSON writer"
  exit 1
fi
value_refusals=$(grep -ro "needs a value" crates/cli/src | wc -l)
if [[ "$value_refusals" -ne 1 ]]; then
  echo "ci: 'needs a value' is in crates/cli/src $value_refusals times (one flag loop owns it)"
  exit 1
fi

step "one fit (a detector is fitted once; no staged trainer, no downcasts)"
# `Detector::fit` over a slice is the only way to get a model, and the
# quantizer matches on the closed `FittedModel` enum: the per-vector
# trainer, its stage machine and the `as_any` downcast must not come back.
if grep -rnE "as_any|downcast_ref|Lifecycle|WrongStage|end_training" crates/ml/src crates/detect/src; then
  echo "ci: a second trainer or a detector downcast is back"
  exit 1
fi
# The four models are a closed set, so `DetectorKind` is their one
# registry: `DetectorKind::build` makes every unfitted `Detector`, and the
# open trait with its four wrapper types must not come back.
if grep -rnE "trait Detector|dyn Detector|KitNetDetector|KnnNovelty|CentroidDetector|CartDetector" crates; then
  echo "ci: a second detector registry (the Detector trait or a wrapper type) is back"
  exit 1
fi

step "one admission path (attach is admission's one caller)"
# `CtrlPlane::attach` is the one way into admission: no dry run, no
# per-tenant pricer, no second shape of the NIC pool's observed state.
# Outside test modules, `admission::admit` is called from `attach` alone,
# and the SF0903 note has one producer, the quantization certifier.
nontest_src() {
  # Every line of crates/*/src outside a top-level `#[cfg(test)] mod`, as
  # file:line:text.
  find crates -path '*/src/*.rs' -print0 | xargs -0 awk '
    FNR == 1 { t = 0 }
    prev ~ /^#\[cfg\(test\)\]/ && /^(pub )?mod / { t = 1 }
    { prev = $0 }
    !t { print FILENAME ":" FNR ":" $0 }
    t && /^}/ { t = 0 }'
}
admit_calls=$(nontest_src | awk '
  { split($0, f, ":"); if (f[1] != file) { file = f[1]; fn = "" } }
  match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
  /([^a-z_:]admit|admission::admit)\(/ && !/fn admit\(/ { print f[1] " in fn " fn }')
if [[ "$admit_calls" != "crates/ctrl/src/plane.rs in fn attach" ]]; then
  echo "ci: admission::admit must be called from CtrlPlane::attach alone; its calls:"
  printf '%s\n' "$admit_calls"
  exit 1
fi
if nontest_src | grep "QUANT_CYCLE_COST" \
    | grep -v "^crates/policy/src/analyze/quant\.rs:\|^crates/policy/src/analyze/codes\.rs:"; then
  echo "ci: the SF0903 note is emitted outside analyze/quant.rs"
  exit 1
fi
if grep -rnE "admission_check|InferenceDemand|StatePressure|TenantOccupancy|admit_composed|BurstTracker" crates; then
  echo "ci: a second admission path, re-shape of the observed state, or BurstTracker is back"
  exit 1
fi

step "one topology (the plane keeps the roster and the position gate)"
# `CtrlPlane` is the one keeper of the tenant -> unit -> partition topology
# and of the stream-position gate (`plan_join`). The shard pool keeps only
# each member's unit and partition, for routing and demux: one `attach`
# (a partition of its own or a prefix share), no second roster, no
# events-routed counter, no second gate; the plane carries no callerless
# accessors over the same tables.
pool_attach=$(grep -c "pub fn attach" crates/nic/src/pool.rs || true)
if [[ "$pool_attach" -ne 1 ]]; then
  echo "ci: crates/nic/src/pool.rs has $pool_attach 'pub fn attach'; the pool has one"
  exit 1
fi
if grep -rnE "attach_to_group|group_positions|set_group_position|routed_of_group|UnitEntry|tenant_switch_stats|fusion_enabled" crates; then
  echo "ci: a second topology keeper or position gate is back"
  exit 1
fi

step "one outlet (a member owns its outlet; a prefix join re-lays in place)"
# Per-packet vectors leave a unit through each member's own outlet — its
# sinks, or the vectors kept for its output — and are copied for the
# members in `UnitEngine::drain_packets` alone; a unit subscribing to a live
# partition re-lays the partition's record in place. The unit-wide buffer
# every change re-divided, the partition tear-down and re-attach, the
# plane's second tenant table, and a debug-only guard on the re-layout
# (which a release build skips) must not come back.
if grep -rnE "pkts_accum|attach_shared|struct Slot\b" crates; then
  echo "ci: a unit-wide vector buffer, a partition rebuild or a second tenant table is back"
  exit 1
fi
relaid=$(awk '/fn attach_to_partition\(/ { f = 1 } f { print } f && /^    }$/ { exit }' \
  crates/core/src/stream.rs)
[[ -n "$relaid" ]] || { echo "ci: DataPath::attach_to_partition is gone"; exit 1; }
if grep -n "debug_assert" <<<"$relaid"; then
  echo "ci: DataPath::attach_to_partition holds a debug_assert!"
  exit 1
fi

step "one marker (an epoch is a call on the shard, sent by one path)"
# A shard's ring carries event frames and epochs — an operation on the
# shard, run at one cut of the event stream. One control variant per shard
# operation must not come back, nor a second send path that could publish
# an epoch without the flush in front of it: `ShardMsg` has the variants
# `Frame` and `Epoch` alone, and `send_now(` is called in
# `ShardPool::epoch` alone.
pool=crates/nic/src/pool.rs
variants=$(awk '/(^| )enum ShardMsg[ {]/ { f = 1; next } f && /^}/ { exit }
  f && match($0, /^    [A-Z][A-Za-z0-9_]*/) { print substr($0, 5, RLENGTH - 4) }' "$pool")
if [[ "$(sort <<<"$variants" | tr '\n' ' ')" != "Epoch Frame " ]]; then
  echo "ci: ShardMsg's variants are not Frame and Epoch alone:" $variants
  exit 1
fi
stray=$(awk '
  /^ *\/\// { next }
  match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
  /send_now\(/ && fn != "epoch" { print FILENAME ":" FNR " (fn " fn "):" $0 }' "$pool")
if [[ -n "$stray" ]]; then
  echo "ci: send_now( outside ShardPool::epoch:"
  printf '%s\n' "$stray"
  exit 1
fi

step "decoded lengths (a count read out of bytes reserves nothing unchecked)"
# Snapshot bytes cross a trust boundary. Inside a `load_state` or `restore`
# body (outside test modules), `with_capacity(` takes a constant, the
# receiver's own geometry (`self.…`), or a count that, since its `let`,
# `StateReader::get_count` checked against the bytes left or an `if` bounded
# by that geometry (`if n > self.…`, the MGPV buffers); any other count read
# out of the bytes fills its list one decoded entry at a time.
unchecked=$(find crates -path '*/src/*.rs' -print0 | xargs -0 awk '
  FNR == 1 { t = 0; body = 0 }
  prev ~ /^#\[cfg\(test\)\]/ && /^(pub )?mod / { t = 1 }
  { prev = $0 }
  t { if (/^}/) t = 0; next }
  !body && /fn (load_state|restore)[<(]/ && !/;$/ { body = 1; depth = 0; pending = ""; split("", counted) }
  !body { next }
  match($0, /let (mut )?[a-z_][a-z_0-9]*/) {
    pending = substr($0, RSTART, RLENGTH); sub(/^let (mut )?/, "", pending)
    delete counted[pending]
  }
  pending != "" && /get_count\(/ { counted[pending] = 1 }
  /;/ { pending = "" }
  match($0, /if [a-z_][a-z_0-9]* >=? self\./) {
    bound = substr($0, RSTART + 3, RLENGTH - 3); sub(/ .*/, "", bound); counted[bound] = 1
  }
  {
    s = $0
    while ((i = index(s, "with_capacity(")) > 0) {
      s = substr(s, i + 14); d = 1; arg = ""
      for (k = 1; k <= length(s) && d > 0; k++) {
        c = substr(s, k, 1)
        if (c == "(") d++; else if (c == ")") d--
        if (d > 0) arg = arg c
      }
      gsub(/ /, "", arg)
      if (!(arg in counted) && arg !~ /^([0-9_]+|[A-Z][A-Z0-9_]*|self\.[a-z_0-9.]+|[a-z_]+\.get_count\(.*)$/)
        print FILENAME ":" FNR ":" $0
    }
    n = gsub(/{/, "{"); m = gsub(/}/, "}"); depth += n - m
    if (depth <= 0 && (n > 0 || m > 0)) body = 0
  }')
if [[ -n "$unchecked" ]]; then
  echo "ci: an allocation is sized by a count read out of bytes that nothing bounded:"
  printf '%s\n' "$unchecked"
  exit 1
fi

step "online detection smoke (seeded train/calibrate/serve, in-pipeline)"
# A seeded end-to-end detect run must raise at least one alert inside the
# attack window and stay quiet on the benign warm-up (the calibrated
# threshold guarantees the latter by construction).
cargo build -q --release -p superfe-cli
detect_smoke=$(mktemp)
trap 'rm -f "$detect_smoke"' EXIT
target/release/superfe detect --in-pipeline --out "$detect_smoke" >/dev/null
field() { grep -o "\"$2\": [0-9]*" "$1" | head -1 | grep -o '[0-9]*$'; }
on_attack=$(field "$detect_smoke" alerts_on_attack)
on_benign=$(field "$detect_smoke" alerts_on_benign)
if [[ "$on_attack" -lt 1 ]]; then
  echo "ci: detect smoke raised no alerts in the attack window"
  exit 1
fi
if [[ "$on_benign" -ne 0 ]]; then
  echo "ci: detect smoke raised $on_benign alerts on benign warm-up traffic"
  exit 1
fi
# The SF09xx-certified quantized model ran inside the NIC shards: it must
# alert on the attack window, stay quiet on benign traffic, and the
# measured |float - quantized| score delta must sit under the certified
# SF0901 bound (delta_within_bound is computed by the command).
inpipe=$(sed -n '/"in_pipeline": {/,/^  }/p' "$detect_smoke")
[[ -n "$inpipe" ]] \
  || { echo "ci: detect smoke is missing the in_pipeline section"; exit 1; }
grep -q '"supported": true' <<<"$inpipe" \
  || { echo "ci: in-pipeline lowering unsupported for the default detector"; exit 1; }
grep -q '"certified": true' <<<"$inpipe" \
  || { echo "ci: in-pipeline lowering lost its SF0901 certificate"; exit 1; }
grep -q '"delta_within_bound": true' <<<"$inpipe" \
  || { echo "ci: measured float-vs-quantized delta exceeded the SF0901 bound"; exit 1; }
ip_field() { grep -o "\"$1\": [0-9]*" <<<"$inpipe" | head -1 | grep -o '[0-9]*$'; }
ip_attack=$(ip_field alerts_on_attack)
ip_benign=$(ip_field alerts_on_benign)
if [[ "$ip_attack" -lt 1 ]]; then
  echo "ci: in-pipeline quantized model raised no alerts in the attack window"
  exit 1
fi
if [[ "$ip_benign" -ne 0 ]]; then
  echo "ci: in-pipeline quantized model raised $ip_benign benign alerts"
  exit 1
fi
# Both sections are scored inside the NIC shards, and a group key lives on
# one shard whatever their number: the document an operator reads must not
# depend on --workers beyond the line that prints it.
detect_w1=$(target/release/superfe detect --in-pipeline --workers 1 | grep -v '"workers":')
detect_w4=$(target/release/superfe detect --in-pipeline --workers 4 | grep -v '"workers":')
if ! diff <(printf '%s\n' "$detect_w1") <(printf '%s\n' "$detect_w4"); then
  echo "ci: superfe detect --in-pipeline differs between --workers 1 and --workers 4"
  exit 1
fi

step "multi-tenant serve smoke (3 tenants, solo-identical)"
# Three bundled policies on one shared switch/NIC, with a mid-stream hot
# detach; --verify-solo makes the CLI re-run every tenant alone and exit
# non-zero unless the shared-plane output is bitwise identical.
serve_out=$(target/release/superfe serve npod cumul awf \
  --packets 6000 --workers 2 --detach-at 2:4000 --verify-solo) \
  || { echo "ci: multi-tenant serve smoke failed"; exit 1; }
for t in 0 1 2; do
  if ! grep -q "verified tenant t$t .*bitwise identical" <<<"$serve_out"; then
    echo "ci: serve smoke did not verify tenant t$t against its solo run"
    exit 1
  fi
done

step "admission rejection smoke (over-budget tenant set exits non-zero)"
# Three sALU-heavy policies compose past the Tofino budget when nothing is
# shared; with cross-tenant sharing disabled the control plane must refuse
# the set, naming the binding resource, before anything touches the data
# path. With sharing on, the same set fits: the join rule certifies one
# shared parse/groupby prefix, so the composed switch demand drops under
# budget — assert both sides of that line.
if target/release/superfe serve kitsune helad n-baiot --packets 100 \
    --no-fuse >/dev/null 2>"$detect_smoke.err"; then
  echo "ci: admission accepted an over-budget tenant set"
  exit 1
fi
if ! grep -q "admission rejected" "$detect_smoke.err"; then
  echo "ci: admission rejection did not name the binding resource"
  cat "$detect_smoke.err"
  exit 1
fi
rm -f "$detect_smoke.err"
target/release/superfe serve kitsune helad n-baiot --packets 100 >/dev/null \
  || { echo "ci: prefix sharing failed to admit the sALU-heavy set"; exit 1; }

step "sharing smoke (SF07xx + SF08xx report, fused and prefix-shared serve)"
# One tenant set exercising both depths of the sharing lattice: AWF and DF
# are the same extractor under different names (one plan class, SF0701),
# and flow_stats shares their parse → groupby(flow) → filter(tcp.exist)
# switch prefix but keeps its own map/reduce tail (one partition class,
# SF0801). Both output formats must report it, and the serve must run three
# tenants on two execution units and one switch partition with every
# tenant's output bitwise identical to its solo run.
sharing_set="awf df examples/flow_stats.sfe"
share_json=$(target/release/superfe check $sharing_set --format json) \
  || { echo "ci: multi-policy check failed"; exit 1; }
grep -q '"plans_saved":1' <<<"$share_json" \
  || { echo "ci: fusion report did not save the AWF/DF duplicate plan"; exit 1; }
grep -q '"code":"SF0701"' <<<"$share_json" \
  || { echo "ci: fusion report is missing the SF0701 class finding"; exit 1; }
grep -q '"partitions_saved":2' <<<"$share_json" \
  || { echo "ci: sharing report did not save the two duplicate switch partitions"; exit 1; }
grep -q '"code":"SF0801"' <<<"$share_json" \
  || { echo "ci: sharing report is missing the SF0801 shared-prefix finding"; exit 1; }
share_text=$(target/release/superfe check $sharing_set)
grep -q "cross-policy fusion (SF07xx)" <<<"$share_text" \
  || { echo "ci: text check lost the fusion section"; exit 1; }
grep -q "cross-tenant prefix sharing (SF08xx)" <<<"$share_text" \
  || { echo "ci: text check lost the sharing section"; exit 1; }
shared_out=$(target/release/superfe serve $sharing_set --packets 4000 --workers 2 \
  --verify-solo) || { echo "ci: shared serve smoke failed"; exit 1; }
grep -q "execution units at shutdown: 2 (cross-policy fusion enabled)" \
  <<<"$shared_out" || { echo "ci: serve did not fuse the AWF/DF pair"; exit 1; }
grep -q "shared switch partitions at shutdown: 1 (cross-tenant CSE enabled)" \
  <<<"$shared_out" || { echo "ci: serve did not share the switch prefix"; exit 1; }
for t in 0 1 2; do
  grep -q "verified tenant t$t .*bitwise identical" <<<"$shared_out" \
    || { echo "ci: shared serve did not verify tenant t$t"; exit 1; }
done

step "corpus-scale state (90k flows under a DRAM budget; bounded RSS from the ledger)"
# The functional half, in release because it needs enough groups to spill
# past the NIC fast table: the cap bites, every evicted group surfaces as a
# typed vector, and drop_new costs more accuracy than evict_oldest.
cargo test --release -q -p superfe-bench -- --ignored tight_budget
# The corpus itself: the benchmark's 100k-flow, 60 s stream at seeds 4 and 11
# must fold (FNV-1a over every field of every packet) to its pinned digest.
# The stream's cost per packet is printed for information, not gated.
corpus_out=$(cargo test --release -q -p superfe-trafficgen --lib -- --ignored \
  corpus_bytes_are_pinned --nocapture 2>&1) \
  || { printf '%s\n' "$corpus_out"; echo "ci: the corpus-scale stream changed its bytes"; exit 1; }
grep "scale corpus seed" <<<"$corpus_out"
# The memory half, read from the benchmark: 100k flows through the budgeted
# pair must come out digest-correct with peak RSS bounded — the DRAM budget
# is what makes corpus-scale cardinality safe, so a blow-up here means the
# cap stopped biting. The last line of standard output is the workload's
# result.
scale_line=$(bash benchmark/run.sh --workload scale_churn --seed 4 --seconds 2 --trace 0 \
  | tail -1) || { echo "ci: the scale_churn workload did not run"; exit 1; }
grep -q '"correct":true' <<<"$scale_line" \
  || { echo "ci: scale_churn output diverged from its reference digest"; exit 1; }
scale_rss=$(grep -o '"peak_rss_mb":{"value":[0-9]*' <<<"$scale_line" | grep -o '[0-9]*$')
[[ -n "$scale_rss" ]] || { echo "ci: scale_churn reported no peak_rss_mb"; exit 1; }
if (( scale_rss >= 1000 )); then
  echo "ci: scale_churn peaked at ${scale_rss} MiB RSS (cap 1000 MiB)"
  exit 1
fi

step "paced latency (10k pkt/s into Kitsune; a hungry worker gets its frame)"
# The open-loop workload is where the ring's publish rule shows: a frame is
# published when full *or when its worker asked*, so at 10,000 pkt/s a
# vector leaves within a ring dwell (~4 ms end to end, ~3 of them the
# switch's own MGPV aging) instead of waiting for 1,024 later events
# (65 ms with the full-only rule). The bound is 5x the expected value so a
# loud host cannot trip it.
paced_line=$(bash benchmark/run.sh --workload kitsune_paced --seed 4 --seconds 2 --trace 0 \
  | tail -1) || { echo "ci: the kitsune_paced workload did not run"; exit 1; }
grep -q '"correct":true' <<<"$paced_line" \
  || { echo "ci: kitsune_paced output diverged from its reference digest"; exit 1; }
paced_ms=$(grep -o '"vector_latency_mean_ms":{"value":[0-9]*' <<<"$paced_line" | grep -o '[0-9]*$')
[[ -n "$paced_ms" ]] || { echo "ci: kitsune_paced reported no vector_latency_mean_ms"; exit 1; }
if (( paced_ms >= 20 )); then
  echo "ci: kitsune_paced holds a vector ${paced_ms} ms (bound 20 ms): early publish is not happening"
  exit 1
fi

step "snapshot/restore smoke (digest-certified resume)"
# A mid-stream snapshot, then a fresh process restoring from it: the
# per-tenant output digests of the resumed run must be identical to the
# uninterrupted run's — the CLI face of tests/plane_snapshot.rs.
snap_file=$(mktemp)
trap 'rm -f "$detect_smoke" "$snap_file"' EXIT
full_out=$(target/release/superfe serve cumul npod --packets 4000 --workers 2 \
  --snapshot "$snap_file" --snapshot-at 2000) \
  || { echo "ci: snapshot serve smoke failed"; exit 1; }
grep -q "snapshot: wrote" <<<"$full_out" \
  || { echo "ci: serve did not write the mid-stream snapshot"; exit 1; }
resumed_out=$(target/release/superfe serve cumul npod --packets 4000 --workers 2 \
  --restore "$snap_file") || { echo "ci: restore serve smoke failed"; exit 1; }
grep -q "restored 2 tenants" <<<"$resumed_out" \
  || { echo "ci: restore did not rebuild the 2-tenant topology"; exit 1; }
grep -q "tenant t0 cumul state:" <<<"$resumed_out" \
  || { echo "ci: restore lost the per-tenant state occupancy lines"; exit 1; }
digest_lines() { grep -o 'digest=[0-9a-f]*' <<<"$1"; }
if ! diff <(digest_lines "$full_out") <(digest_lines "$resumed_out"); then
  echo "ci: restored run's output digests diverged from the uninterrupted run"
  exit 1
fi

step "ring vs sync_channel microbench (ring must not be slower)"
# The Issue 8 data-path swap is justified by this number: per-frame transfer
# through the doorbell-batched SPSC ring must be at least as fast as the
# std sync_channel it replaced, on this host, or the swap has regressed.
bench_out=$(cargo bench -q -p superfe-bench --bench ring 2>/dev/null)
printf '%s\n' "$bench_out"
# The elem/s figure of one bench function in $bench_out.
elem_rate() { grep -o "$1 .* \([0-9]*\) elem/s" <<<"$bench_out" \
  | grep -o '[0-9]* elem/s' | grep -o '^[0-9]*'; }
ring_rate=$(elem_rate spsc_transfer/ring_doorbell_4)
sync_rate=$(elem_rate spsc_transfer/sync_channel)
[[ -n "$ring_rate" && -n "$sync_rate" ]] \
  || { echo "ci: could not parse ring microbench output"; exit 1; }
if (( ring_rate < sync_rate )); then
  echo "ci: ring transfer ($ring_rate elem/s) is slower than sync_channel ($sync_rate elem/s)"
  exit 1
fi

step "MGPV insert, sparse vs dense gaps (insert cost must not follow trace time); key hash vs its byte loop"
# The aging probes owed per insert grow with the inter-packet gap (3 at 1 µs,
# 1,002 at 1 ms under the default 1 MHz probe rate); the bitmap sweep makes
# their cost follow resident groups instead. The ratio is host-independent:
# a per-slot probe loop puts sparse some 70× below dense.
bench_out=$(cargo bench -q -p superfe-bench --bench hotpath 2>/dev/null)
printf '%s\n' "$bench_out"
dense_rate=$(elem_rate mgpv_hotpath/insert_dense_gap)
sparse_rate=$(elem_rate mgpv_hotpath/insert_sparse_gap)
[[ -n "$dense_rate" && -n "$sparse_rate" ]] \
  || { echo "ci: could not parse hotpath microbench output"; exit 1; }
if (( sparse_rate * 3 < dense_rate )); then
  echo "ci: sparse-gap insert ($sparse_rate elem/s) is more than 3x below dense-gap ($dense_rate elem/s)"
  exit 1
fi
# The group-key hash alone, as one dependent chain of keys: hash32 folds a
# 13-byte socket key in one step of independent table lookups, the
# byte-at-a-time crc32 in a chain of 13 dependent ones. The ratio is
# host-independent; hash32 through the byte loop puts socket near 1x.
host_hash=$(elem_rate key_hash/host)
channel_hash=$(elem_rate key_hash/channel)
socket_hash=$(elem_rate key_hash/socket)
bytewise_hash=$(elem_rate key_hash/socket_bytewise)
[[ -n "$host_hash" && -n "$channel_hash" && -n "$socket_hash" && -n "$bytewise_hash" ]] \
  || { echo "ci: could not parse the key_hash output"; exit 1; }
echo "ci: key_hash host $host_hash, channel $channel_hash, socket $socket_hash," \
  "socket_bytewise $bytewise_hash keys/s"
if (( socket_hash * 2 < bytewise_hash * 3 )); then
  echo "ci: socket key hash ($socket_hash keys/s) is below 1.5x the byte-at-a-time" \
    "loop ($bytewise_hash keys/s)"
  exit 1
fi
# The NIC engine on Kitsune with every record in one socket, with every
# record opening a socket and a channel, on the kitsune_extract workload's
# Mirai trace with `finish` and teardown timed, and that engine's teardown
# alone, as time per drop. Printed, not gated:
# steady/churn has read anywhere from 1.3 to 3.3 with the host's load — no
# threshold holds everywhere. The alloc_budget step is the gate.
steady_rate=$(elem_rate nic_hotpath/kitsune_steady)
churn_rate=$(elem_rate nic_hotpath/kitsune_churn)
mirai_rate=$(elem_rate nic_hotpath/kitsune_mirai)
teardown_time=$(grep -o 'nic_hotpath/kitsune_teardown *[0-9.]* [µm]*s' <<<"$bench_out" \
  | grep -o '[0-9.]* [µm]*s$')
[[ -n "$steady_rate" && -n "$churn_rate" && -n "$mirai_rate" && -n "$teardown_time" ]] \
  || { echo "ci: could not parse the kitsune hotpath output"; exit 1; }
echo "ci: nic_hotpath kitsune_steady $steady_rate elem/s, kitsune_churn $churn_rate elem/s," \
  "kitsune_mirai $mirai_rate elem/s, kitsune_teardown $teardown_time"
# One KitNET score, fixed point and float, and the fixed-point plan over the
# same vectors handed over as one batch, as a shard hands over a frame's:
# full tiles of sixteen in f64 lanes when lowering proved every accumulator
# below 2^53 (exact-f64), one i64 lane a vector otherwise. Printed, not
# gated: the gate on the scorer is the differential above and the
# kitsune_inline workload.
kitnet_width=$(grep -o 'kitnet_score/q39_24 plan width: [a-z0-9-]*' <<<"$bench_out" \
  | grep -o '[a-z0-9-]*$')
[[ -n "$kitnet_width" ]] || { echo "ci: the kitnet_score bench did not print its plan width"; exit 1; }
echo "ci: kitnet_score q39_24 $(elem_rate kitnet_score/q39_24) scores/s," \
  "q39_24_batch $(elem_rate kitnet_score/q39_24_batch) scores/s (plan width $kitnet_width)," \
  "float $(elem_rate kitnet_score/float) scores/s"
if [[ "$kitnet_width" != "exact-f64" ]]; then
  echo "ci: the synthetic model does not prove its accumulators below 2^53:" \
    "q39_24_batch scores one vector at a time"
fi

step "benchmark package (offline build against these crates + smoke set)"
# The benchmark is a package of its own that calls a pinned list of public
# functions (benchmark/README.md "Pinned public surface"). Building it here
# and running its six workloads at 1/50 scale makes removing or changing
# one of those functions fail locally, not in the benchmark pipeline; the
# run exits non-zero unless every workload reports `ok` with nothing failed.
bash benchmark/run.sh --smoke --trace 0 >/dev/null \
  || { echo "ci: the benchmark's smoke set failed against these crates"; exit 1; }

step "lines of Rust under crates/ (the ROADMAP net-LOC measure)"
# 45,606 at PR 11, 45,945 before ISSUE 16 retired the second benchmark
# stack, 43,942 before ISSUE 17 merged the two sharing analyses, 44,719
# before ISSUE 20 retired the host-side scoring path, 44,768 before ISSUE 23
# merged the two NIC cost models; a simplicity PR states its delta from the
# number printed here.
# 45,623 at commit efedb7c, before the solo pipeline became the one-partition
# data path; 45,614 after it (-9).
# 46,150 at commit fc1896e, before the CLI was split by subcommand over one
# flag parser and one JSON writer; 45,826 after it (-324).
# 45,826 at commit 970e275, before a detector was fitted once over a closed
# set of four models; 45,580 after it (-246).
# 45,872 at commit c78f1da, before admission had one path and the
# callerless streaming surface went; 45,468 after it (-404, the 202-line
# attach pin in crates/ctrl/tests included).
# 45,468 at commit 07a72a8, before the plane became the one keeper of the
# topology and the position gate; 45,494 after it (+26 with the 158-line
# position pin in crates/ctrl/tests and the 29-line worker-bound test in
# ctrl/src/snapshot.rs; -163 without the new tests).
# 45,494 at commit 7e56029, before a fused member owned its vector outlet
# and a prefix join re-laid its partition in place; 45,757 after it (+263
# with the 212-line outlet pin in crates/ctrl/tests and three smaller
# tests; -8 without the new tests).
# 45,757 at commit b1675d7, before an epoch marker became a call on the
# shard; 45,696 after it (-61: pool.rs -62; three callerless functions
# deleted with their tests -57, two made test-only oracles +6; the
# # Panics sections +47; the decay comment +5).
# 45,696 at commit b0b862d, before the group-key hash folded in one step;
# 45,904 after it (+208: the 144-line hash pin in crates/net/tests, the
# key_hash bench group +49, hash.rs and key.rs +15).
# 45,904 at commit ade9e74, before the plane's hand-written schedules gave
# way to one generated oracle in tests/; 45,450 after it (-454: the
# 370-line position and outlet pins in crates/ctrl/tests, and 84 lines of
# callerless analysis helpers with their tests).
# 45,450 at commit cbf4222, before `DetectorKind` became the one model
# registry; 45,430 after it (-20: the registry -114, detector.rs alone
# -109; twelve callerless functions settled -47, mgpv.rs -52; the table
# budget rule for fused members and its restore +141, the 20-line pool
# test and the 43-line split-refusal test in ctrl/src/snapshot.rs
# included).
find crates -name '*.rs' | xargs wc -l | tail -1

printf '\nci: all checks passed\n'
