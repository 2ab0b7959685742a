#!/usr/bin/env bash
# Tier-1 gate: build, vet, tests, fuzz smoke, coverage, then the race
# detector over the full tree. The race pass is the slowest stage (the
# parallel learner trains real episodes under -race); keep it last so fast
# failures surface first.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
# go vet's asmdecl pass checks the amd64 assembly (internal/nn/*_amd64.s)
# against its Go declarations: argument names, offsets and frame sizes.
go vet ./...
# The portable side of the build split: arm64 has no assembly here and 386
# has 32-bit ints, so a missing fallback or a 64-bit-only constant fails
# here rather than on someone else's machine.
GOARCH=arm64 go vet ./internal/nn
GOARCH=386 go build ./...
# The examples are documentation that compiles; build and vet them like
# first-class code, then actually run the quickstart as a smoke test so the
# front-door experience can never silently rot.
go vet ./examples/...
go build -o /dev/null ./examples/...
go run ./examples/quickstart >/dev/null

go test ./...

SMOKE=$(mktemp -d)
COVER=$(mktemp)
trap 'rm -rf "$SMOKE"; rm -f "$COVER"' EXIT

# The one binary, built twice: astraea for every smoke below, astraea-race
# (race detector on) for the serve and pilot processes, which hand requests
# and policies across goroutines under real traffic.
go build -o "$SMOKE/astraea" ./cmd/astraea
go build -race -o "$SMOKE/astraea-race" ./cmd/astraea

# Tracing smoke: flow observers only watch. A traced run must print the
# same results, line for line, as the same run untraced, and its CSV must
# hold both window and loss rows (a tracer that lost its loss observer, or
# an observer that perturbs the flow, fails here).
"$SMOKE/astraea" run -scheme cubic -flows 2 -dur 5 >"$SMOKE/plain.txt"
"$SMOKE/astraea" run -scheme cubic -flows 2 -dur 5 -trace "$SMOKE/t.csv" >"$SMOKE/traced.txt"
grep -v '^wrote .* trace events to ' "$SMOKE/traced.txt" | cmp -s - "$SMOKE/plain.txt" \
    || { echo "ci: -trace changed the results"; diff "$SMOKE/plain.txt" "$SMOKE/traced.txt"; exit 1; }
grep -q '^flow 1: ' "$SMOKE/plain.txt" || { echo "ci: no per-flow result lines"; cat "$SMOKE/plain.txt"; exit 1; }
grep -q ',cwnd,' "$SMOKE/t.csv" || { echo "ci: trace CSV has no cwnd rows"; exit 1; }
grep -q ',loss,' "$SMOKE/t.csv" || { echo "ci: trace CSV has no loss rows"; exit 1; }

# Serving-path smoke: boot serve (4 shards, race-built so the sharded hot
# path — pooled requests, write arenas, sweepers, hot reload — runs under
# the detector with real traffic), drive it with a race-built loadgen (so
# the client's coalesced request writes run under the detector too; exits
# non-zero if any request fails hard — fallback answers are fine,
# unanswered requests are not), probe the saturation knee (non-zero
# throughput required), then SIGINT and require a clean drain. This
# exercises the real binary and signal path, which the package tests
# cannot.
"$SMOKE/astraea-race" serve -listen tcp:127.0.0.1:0 -policy reference -shards 4 \
    -addr-file "$SMOKE/addr" >"$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SMOKE/addr" ] && break; sleep 0.1; done
[ -s "$SMOKE/addr" ] || { echo "ci: serve never bound"; cat "$SMOKE/serve.log"; exit 1; }
"$SMOKE/astraea-race" loadgen -addr "$(head -1 "$SMOKE/addr")" \
    -rate 2000 -duration 1s -flows -out "$SMOKE/load.json" >"$SMOKE/loadgen.log" 2>&1 \
    || { echo "ci: loadgen failed"; cat "$SMOKE/loadgen.log"; exit 1; }
# At this rate the evaluators are mostly idle, so a request is answered as
# it arrives: the median is the round trip (~0.7 ms against the race-built
# server). Anything that makes requests wait for company again — the old
# 5 ms batching window sat at p50 ≈ 4 ms here — fails this bound.
P50=$(sed -n 's/^ *"p50_ms": *\([0-9.eE+-]*\),*$/\1/p' "$SMOKE/load.json")
awk -v p50="$P50" 'BEGIN { exit !(p50 != "" && p50 + 0 < 3) }' ||
    { echo "ci: serve smoke p50_ms=$P50 at 2000 req/s, want < 3"; cat "$SMOKE/load.json"; exit 1; }
"$SMOKE/astraea-race" loadgen -addr "$(head -1 "$SMOKE/addr")" \
    -knee -duration 300ms -outstanding 8 -flows -out "$SMOKE/knee.json" >>"$SMOKE/loadgen.log" 2>&1 \
    || { echo "ci: loadgen -knee failed"; cat "$SMOKE/loadgen.log"; exit 1; }
if grep -q "RACE" "$SMOKE/loadgen.log"; then echo "ci: race detected in loadgen"; cat "$SMOKE/loadgen.log"; exit 1; fi
kill -INT "$SERVE_PID"
wait "$SERVE_PID" || { echo "ci: serve drain was not clean"; cat "$SMOKE/serve.log"; exit 1; }
grep -q "drained after" "$SMOKE/serve.log" || { echo "ci: no drain line"; cat "$SMOKE/serve.log"; exit 1; }
if grep -q "RACE" "$SMOKE/serve.log"; then echo "ci: race detected in serve smoke"; cat "$SMOKE/serve.log"; exit 1; fi

# Unixgram restart smoke: a drained unixgram server must leave its path
# free, so a second server boots on the same path (a leftover socket file
# made that fail with "address already in use").
for round in 1 2; do
    rm -f "$SMOKE/uaddr"
    "$SMOKE/astraea-race" serve -listen "unixgram:$SMOKE/u.sock" -policy reference -shards 2 \
        -addr-file "$SMOKE/uaddr" >"$SMOKE/userve$round.log" 2>&1 &
    USERVE_PID=$!
    for _ in $(seq 1 100); do [ -s "$SMOKE/uaddr" ] && break; sleep 0.1; done
    [ -s "$SMOKE/uaddr" ] || { echo "ci: unixgram serve $round never bound"; cat "$SMOKE/userve$round.log"; exit 1; }
    "$SMOKE/astraea" loadgen -addr "$(head -1 "$SMOKE/uaddr")" \
        -rate 500 -duration 300ms -out "$SMOKE/uload$round.json"
    kill -INT "$USERVE_PID"
    wait "$USERVE_PID" || { echo "ci: unixgram serve $round drain was not clean"; cat "$SMOKE/userve$round.log"; exit 1; }
    grep -q "drained after" "$SMOKE/userve$round.log" || { echo "ci: no drain line from unixgram serve $round"; cat "$SMOKE/userve$round.log"; exit 1; }
    if grep -q "RACE" "$SMOKE/userve$round.log"; then echo "ci: race detected in unixgram serve $round"; exit 1; fi
done

# Deployment smoke: the check → serve lifecycle through the real binary —
# distill an actor, check its fixed-point compile with quantize (which
# writes nothing), boot the race-built server on the float weights (it
# compiles them at load, the quantized default path), drive it, and
# require a clean drain. Catches loader or compile drift that package
# tests, which call the Go APIs directly, would miss.
"$SMOKE/astraea" train -mode distill -samples 4000 -epochs 3 \
    -out "$SMOKE/actor.json" >/dev/null
# The trimmed distillation leaves a rougher actor than the documented
# default budget (which passes the tool's 0.02 default gate), so open the
# divergence gate here: this smoke tests the deployment lifecycle, and
# accuracy is gated by TestQuantizedClosedLoopEquivalence below.
ls -A "$SMOKE" >"$SMOKE/files.txt" # the redirect creates files.txt first, so it lists itself
"$SMOKE/astraea" quantize -in "$SMOKE/actor.json" -tol 0.1
ls -A "$SMOKE" | cmp -s - "$SMOKE/files.txt" || { echo "ci: quantize wrote a file"; ls -A "$SMOKE"; exit 1; }
"$SMOKE/astraea-race" serve -listen tcp:127.0.0.1:0 -policy "$SMOKE/actor.json" -shards 2 \
    -addr-file "$SMOKE/qaddr" >"$SMOKE/qserve.log" 2>&1 &
QSERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SMOKE/qaddr" ] && break; sleep 0.1; done
[ -s "$SMOKE/qaddr" ] || { echo "ci: quantized serve never bound"; cat "$SMOKE/qserve.log"; exit 1; }
grep -q "serving quantized policy" "$SMOKE/qserve.log" || { echo "ci: actor.json did not serve quantized"; cat "$SMOKE/qserve.log"; exit 1; }
"$SMOKE/astraea" loadgen -addr "$(head -1 "$SMOKE/qaddr")" \
    -rate 2000 -duration 1s -flows -out "$SMOKE/qload.json"
kill -INT "$QSERVE_PID"
wait "$QSERVE_PID" || { echo "ci: quantized serve drain was not clean"; cat "$SMOKE/qserve.log"; exit 1; }
grep -q "drained after" "$SMOKE/qserve.log" || { echo "ci: no drain line from quantized serve"; cat "$SMOKE/qserve.log"; exit 1; }
if grep -q "RACE" "$SMOKE/qserve.log"; then echo "ci: race detected in quantized serve smoke"; cat "$SMOKE/qserve.log"; exit 1; fi

# Training-loop smoke: train's one rl loop through the real binary.
# A -workers value below 1 trains on one worker. A checkpointed run
# interrupted after 2 episodes and resumed to 4 must write the same actor
# bytes as an uninterrupted 4-episode run: checkpoints written from the
# per-episode hook resume bitwise.
"$SMOKE/astraea" train -mode rl -episodes 2 -workers 0 -out "$SMOKE/rl-w0.json" >/dev/null
[ -s "$SMOKE/rl-w0.json" ] || { echo "ci: train -workers 0 wrote no actor"; exit 1; }
"$SMOKE/astraea" train -mode rl -episodes 2 -checkpoint "$SMOKE/rl.ckpt" -checkpoint-every 1 \
    -out "$SMOKE/rl-half.json" >/dev/null 2>&1
"$SMOKE/astraea" train -mode rl -episodes 4 -resume "$SMOKE/rl.ckpt" \
    -out "$SMOKE/rl-resumed.json" >/dev/null 2>&1
"$SMOKE/astraea" train -mode rl -episodes 4 -workers 1 -out "$SMOKE/rl-whole.json" >/dev/null
cmp "$SMOKE/rl-resumed.json" "$SMOKE/rl-whole.json" || { echo "ci: resumed train actor differs from an uninterrupted run"; exit 1; }
# The training flags train shares with pilot, on a checkpointed run; a
# resume with a -reward other than the checkpoint's must be refused by
# name before any episode runs.
"$SMOKE/astraea" train -mode rl -episodes 1 -rl-hidden 8,8 -episode-duration 3 -max-flows 2 \
    -checkpoint "$SMOKE/tiny.ckpt" -out "$SMOKE/rl-tiny.json" >/dev/null 2>&1
[ -s "$SMOKE/tiny.ckpt" ] || { echo "ci: train -rl-hidden wrote no checkpoint"; exit 1; }
if "$SMOKE/astraea" train -mode rl -episodes 2 -resume "$SMOKE/tiny.ckpt" -reward maxmin \
    -out "$SMOKE/rl-refused.json" >"$SMOKE/refused.log" 2>&1; then
    echo "ci: resume under another -reward was not refused"; cat "$SMOKE/refused.log"; exit 1
fi
grep -q -- "-reward maxmin" "$SMOKE/refused.log" || { echo "ci: resume refusal does not name -reward"; cat "$SMOKE/refused.log"; exit 1; }

# Tournament smoke: the real binary on a trimmed grid (2 schemes × 2
# families, invariants checked). The report must rank both schemes and both
# artifacts must land under the output directory — a malformed table or a
# missing JSON report fails here, not in a user's hands.
"$SMOKE/astraea" tournament -schemes cubic,reno -families incast,oscillating \
    -flows 4 -duration 1 -check -out "$SMOKE/tourney" >"$SMOKE/tourney.txt"
grep -Eq '^1 +(cubic|reno) ' "$SMOKE/tourney.txt" || { echo "ci: tournament table has no rank-1 row"; cat "$SMOKE/tourney.txt"; exit 1; }
grep -Eq '^2 +(cubic|reno) ' "$SMOKE/tourney.txt" || { echo "ci: tournament table has no rank-2 row"; cat "$SMOKE/tourney.txt"; exit 1; }
[ -s "$SMOKE/tourney/tournament.json" ] || { echo "ci: tournament.json missing"; exit 1; }
[ -s "$SMOKE/tourney/tournament.txt" ]  || { echo "ci: tournament.txt missing"; exit 1; }
grep -q '"ranking"' "$SMOKE/tourney/tournament.json" || { echo "ci: tournament.json has no ranking"; exit 1; }

# Fairness-lab smoke: the reward-strategy ablation on a tiny budget
# (2 strategies × 2 episodes), then the saved actor entered into a
# tournament — the full trained-under-strategy-X-competes-as-itself loop
# through the real binary.
"$SMOKE/astraea" fairlab -strategies paper,maxmin -episodes 2 \
    -out "$SMOKE/fairlab" -actors "$SMOKE/fairlab-actors" >"$SMOKE/fairlab.txt"
grep -Eq '^1 +(paper|maxmin) ' "$SMOKE/fairlab.txt" || { echo "ci: fairlab table has no rank-1 row"; cat "$SMOKE/fairlab.txt"; exit 1; }
grep -Eq '^2 +(paper|maxmin) ' "$SMOKE/fairlab.txt" || { echo "ci: fairlab table has no rank-2 row"; cat "$SMOKE/fairlab.txt"; exit 1; }
grep -q '"outcomes"' "$SMOKE/fairlab.json" || { echo "ci: fairlab.json has no outcomes"; exit 1; }
[ -s "$SMOKE/fairlab.txt" ] || { echo "ci: fairlab.txt missing"; exit 1; }
[ -s "$SMOKE/fairlab-actors/maxmin.json" ] || { echo "ci: fairlab saved no maxmin actor"; exit 1; }
"$SMOKE/astraea" tournament -schemes cubic -families steady -flows 3 -duration 1 \
    -actors "lab-maxmin=$SMOKE/fairlab-actors/maxmin.json" -out "" >"$SMOKE/fairtourney.txt"
grep -Eq '^[12] +lab-maxmin ' "$SMOKE/fairtourney.txt" || { echo "ci: fairlab actor missing from tournament ranking"; cat "$SMOKE/fairtourney.txt"; exit 1; }
# The committed fairness-lab report must regenerate byte-identical: a
# change that moves training numerics has to re-capture
# results/fairness_lab.{json,txt} with it (about half a second).
"$SMOKE/astraea" fairlab -out "$SMOKE/fairness_lab" >/dev/null
for ext in json txt; do
    cmp "$SMOKE/fairness_lab.$ext" "results/fairness_lab.$ext" \
        || { echo "ci: results/fairness_lab.$ext is stale; regenerate with: go run ./cmd/astraea fairlab -out results/fairness_lab"; exit 1; }
done
# The committed tournament report must regenerate byte-identical too: the
# full default grid (every registered scheme × every family, about 1.5 s).
# A changed scheme, family or score has to re-capture
# results/tournament.{json,txt} with it.
"$SMOKE/astraea" tournament -out "$SMOKE/tournament" >/dev/null
for ext in json txt; do
    cmp "$SMOKE/tournament/tournament.$ext" "results/tournament.$ext" \
        || { echo "ci: results/tournament.$ext is stale; regenerate with: go run ./cmd/astraea tournament -out results"; exit 1; }
done

# Closed-loop pilot smoke: the full train → gate → promote → serve loop
# through the real binary. A race-built serve watches a weights file; a
# race-built pilot trains a short round, gates the candidate against the
# serving incumbent, and promotes by atomically publishing the sealed
# generation artifact — confirmed via the daemon's own
# serve_policy_generation gauge — while loadgen hammers the fleet
# and must see zero failed requests and a monotonically advancing policy
# version. A second pilot run with an impossible gate floor must refuse its
# candidate and leave the serving file byte-identical.
cp "$SMOKE/actor.json" "$SMOKE/serving.policy"
"$SMOKE/astraea-race" serve -listen tcp:127.0.0.1:0 -policy "$SMOKE/serving.policy" -shards 2 \
    -reload 50ms -pprof 127.0.0.1:0 -addr-file "$SMOKE/paddr" >"$SMOKE/pserve.log" 2>&1 &
PSERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/paddr" ] && grep -q "serving pprof and /metrics on" "$SMOKE/pserve.log" && break; sleep 0.1
done
[ -s "$SMOKE/paddr" ] || { echo "ci: pilot's serve never bound"; cat "$SMOKE/pserve.log"; exit 1; }
PMETRICS=$(sed -n 's#.*serving pprof and /metrics on \(http://[^ ]*\)$#\1/metrics#p' "$SMOKE/pserve.log" | head -1)
[ -n "$PMETRICS" ] || { echo "ci: no telemetry endpoint in serve log"; cat "$SMOKE/pserve.log"; exit 1; }
"$SMOKE/astraea" loadgen -addr "$(head -1 "$SMOKE/paddr")" \
    -rate 500 -duration 12s -flows -out "$SMOKE/pload.json" >"$SMOKE/ploadgen.log" 2>&1 &
PLOAD_PID=$!
"$SMOKE/astraea-race" pilot -promote "$SMOKE/serving.policy" -serve-metrics "$PMETRICS" \
    -dir "$SMOKE/gens" -rounds 1 -episodes-per-round 2 -workers 2 -rl-hidden 8,8 \
    -episode-duration 3 -max-flows 2 \
    -gate-families steady -gate-flows 3 -gate-duration 0.5 \
    -gate-util-floor 0.000001 -gate-jain-floor 0.000001 -gate-rtt-ceiling 1000000 \
    -probation 0.5 -health-interval 0.1 -health-min-requests 10 \
    -checkpoint "$SMOKE/pilot.ckpt" -checkpoint-every 1 \
    >"$SMOKE/pilot.log" 2>&1 || { echo "ci: pilot promotion run failed"; cat "$SMOKE/pilot.log"; exit 1; }
grep -q "promoted generation 2" "$SMOKE/pilot.log" || { echo "ci: pilot did not promote"; cat "$SMOKE/pilot.log"; exit 1; }
grep -q "serving generation 2" "$SMOKE/pilot.log" || { echo "ci: pilot did not confirm generation 2"; cat "$SMOKE/pilot.log"; exit 1; }
# Scrape once into a file and grep that: `curl | grep -q` under pipefail
# fails when grep exits at its first match and curl dies of SIGPIPE.
curl -s "$PMETRICS" >"$SMOKE/pmetrics.txt"
grep -q '^serve_policy_generation 2$' "$SMOKE/pmetrics.txt" \
    || { echo "ci: fleet does not report generation 2"; grep serve_ "$SMOKE/pmetrics.txt"; exit 1; }
# Impossible floor: the candidate must be refused and the serving artifact
# must not move (byte-identical file, fleet still on generation 2).
cksum "$SMOKE/serving.policy" >"$SMOKE/serving.sum"
"$SMOKE/astraea-race" pilot -promote "$SMOKE/serving.policy" -serve-metrics "$PMETRICS" \
    -dir "$SMOKE/gens" -rounds 1 -episodes-per-round 2 -workers 2 -rl-hidden 8,8 \
    -episode-duration 3 -max-flows 2 \
    -gate-families steady -gate-flows 3 -gate-duration 0.5 -gate-min-jain 1.5 \
    -probation 0.5 -health-interval 0.1 -health-min-requests 10 \
    >"$SMOKE/pilot2.log" 2>&1 || { echo "ci: pilot refusal run failed"; cat "$SMOKE/pilot2.log"; exit 1; }
grep -q "gate refused" "$SMOKE/pilot2.log" || { echo "ci: impossible floor not refused"; cat "$SMOKE/pilot2.log"; exit 1; }
cksum "$SMOKE/serving.policy" | cmp -s - "$SMOKE/serving.sum" \
    || { echo "ci: refused candidate moved the serving artifact"; exit 1; }
curl -s "$PMETRICS" >"$SMOKE/pmetrics.txt"
grep -q '^serve_policy_generation 2$' "$SMOKE/pmetrics.txt" \
    || { echo "ci: fleet moved off generation 2 after a refusal"; exit 1; }
grep -q '^policy_reload_failures_total 0$' "$SMOKE/pmetrics.txt" \
    || { echo "ci: reload failures during pilot smoke"; grep policy_ "$SMOKE/pmetrics.txt"; exit 1; }
wait "$PLOAD_PID" || { echo "ci: loadgen failed across promotion"; cat "$SMOKE/ploadgen.log"; exit 1; }
grep -q '"failed": 0' "$SMOKE/pload.json" || { echo "ci: dropped requests across promotion"; cat "$SMOKE/pload.json"; exit 1; }
grep -q '"max_version": 3' "$SMOKE/pload.json" || { echo "ci: clients never saw the promoted version"; cat "$SMOKE/pload.json"; exit 1; }
kill -INT "$PSERVE_PID"
wait "$PSERVE_PID" || { echo "ci: pilot's serve drain was not clean"; cat "$SMOKE/pserve.log"; exit 1; }
grep -q "drained after" "$SMOKE/pserve.log" || { echo "ci: no drain line after pilot smoke"; cat "$SMOKE/pserve.log"; exit 1; }
if grep -q "RACE" "$SMOKE/pserve.log" "$SMOKE/pilot.log" "$SMOKE/pilot2.log"; then
    echo "ci: race detected in pilot smoke"; exit 1
fi
# Restart on the promoted artifact: a daemon booted from the sealed
# generation-2 serving.policy must report that generation from the first
# scrape, before any reload, still at policy version 1.
"$SMOKE/astraea-race" serve -listen tcp:127.0.0.1:0 -policy "$SMOKE/serving.policy" -shards 2 \
    -pprof 127.0.0.1:0 -addr-file "$SMOKE/raddr" >"$SMOKE/rserve.log" 2>&1 &
RSERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/raddr" ] && grep -q "serving pprof and /metrics on" "$SMOKE/rserve.log" && break; sleep 0.1
done
[ -s "$SMOKE/raddr" ] || { echo "ci: restarted serve never bound"; cat "$SMOKE/rserve.log"; exit 1; }
RMETRICS=$(sed -n 's#.*serving pprof and /metrics on \(http://[^ ]*\)$#\1/metrics#p' "$SMOKE/rserve.log" | head -1)
[ -n "$RMETRICS" ] || { echo "ci: no telemetry endpoint in restarted serve log"; cat "$SMOKE/rserve.log"; exit 1; }
curl -s "$RMETRICS" >"$SMOKE/rmetrics.txt"
grep -q '^serve_policy_generation 2$' "$SMOKE/rmetrics.txt" \
    || { echo "ci: restarted daemon does not report generation 2"; grep serve_policy_ "$SMOKE/rmetrics.txt"; exit 1; }
grep -q '^serve_policy_version 1$' "$SMOKE/rmetrics.txt" \
    || { echo "ci: restarted daemon is not at policy version 1"; grep serve_policy_ "$SMOKE/rmetrics.txt"; exit 1; }
kill -INT "$RSERVE_PID"
wait "$RSERVE_PID" || { echo "ci: restarted serve drain was not clean"; cat "$SMOKE/rserve.log"; exit 1; }
if grep -q "RACE" "$SMOKE/rserve.log"; then echo "ci: race detected in restarted serve"; cat "$SMOKE/rserve.log"; exit 1; fi

# Coverage summary: per-package statement coverage plus the total, so a PR
# that guts a test file shows up as a number, not a feeling.
go test -coverprofile="$COVER" ./... >/dev/null
go tool cover -func="$COVER" | awk '
  /\.go:/ { split($1, p, "/"); pkg = p[1]"/"p[2]"/"p[3]; sub(/:.*/, "", pkg)
            cov[pkg] += $NF + 0; n[pkg]++ }
  /^total:/ { total = $NF }
  END { for (k in cov) printf "coverage %-28s %5.1f%%\n", k, cov[k]/n[k] | "sort"
        close("sort"); printf "coverage %-28s %s\n", "TOTAL", total }'

# Coverage floors on the packages owning the reward-strategy and
# training/checkpoint contracts: a PR that guts their tests fails with a
# number attached. Floors sit a few points under today's statement coverage
# (core 89.6%, env 91.2%) so organic drift passes and gutting does not.
awk '
  NR > 1 { n = split($1, p, "/"); pkg = p[1]
           for (i = 2; i < n; i++) pkg = pkg "/" p[i]
           stmts[pkg] += $2; if ($3 > 0) hit[pkg] += $2 }
  END {
    floor["repro/internal/core"] = 85
    floor["repro/internal/env"]  = 87
    bad = 0
    for (k in floor) {
      if (stmts[k] == 0) { printf "ci: no coverage data for %s\n", k; bad = 1; continue }
      pct = 100 * hit[k] / stmts[k]
      printf "coverage floor %-24s %5.1f%% (floor %d%%)\n", k, pct, floor[k]
      if (pct < floor[k]) { printf "ci: %s statement coverage below floor\n", k; bad = 1 }
    }
    exit bad
  }' "$COVER"

# Benchmark smoke pass: one iteration of every benchmark, so a bench that
# panics or trips its alloc regression check fails CI without paying for a
# full measurement run.
go test -run=NONE -bench=. -benchtime=1x ./...

# Fuzz smoke pass: a short budget per target catches shallow regressions in
# the parsers/decoders (the committed corpora under testdata/fuzz replay in
# plain `go test` runs above; this adds fresh mutation on top).
FUZZTIME=${FUZZTIME:-10s}
go test -fuzz=FuzzCkptDecode      -fuzztime="$FUZZTIME" -run=NONE ./internal/ckpt
go test -fuzz=FuzzCodecRead       -fuzztime="$FUZZTIME" -run=NONE ./internal/nn
go test -fuzz=FuzzTraceParse      -fuzztime="$FUZZTIME" -run=NONE ./internal/trace
go test -fuzz=FuzzLoadPolicy      -fuzztime="$FUZZTIME" -run=NONE ./internal/core
go test -fuzz=FuzzServedRequest   -fuzztime="$FUZZTIME" -run=NONE ./internal/serve
go test -fuzz=FuzzTrainCheckpoint -fuzztime="$FUZZTIME" -run=NONE ./internal/rl

# The batch-major training path's bitwise contract, named: the three
# products, the transpose, the elementwise passes (ReLU, Δ, the gB column
# sum) and the vector Adam step against their scalar forms with guard
# words, the per-sample Forward kernels vs the portable forward (special
# values included, guard words around the bare kernels),
# ForwardBatch/BackwardBatch vs looped Forward/Backward, every
# product term one fused multiply-add (TestProductsAreFused; all on every
# kernel tier this machine runs: portable, avx2, avx512), the CPUID table
# that picks the tier, batched Update vs the per-sample reference, the
# reference-captured golden weight digests and the zero-alloc pin (both
# on every tier; the pin holds under the detector too, so it needs no
# race_on/race_off split). Update
# forks a helper goroutine per phase (the reference test forces the fork
# on every shape, and the inline path small networks take): at -cpu 1 the
# helper interleaves with the learner, at 2 the two run in parallel, and
# both schedules must give the same bits. The quantized serving path
# rides along: the batched int16 kernel and the AVX2 requantization
# epilogue against the portable ones, ForwardBatch against per-row
# Forward (hostile inputs, rows on the accumulator bound), clones driven
# concurrently, and core.Service's one-call chunk against per-request
# Action, with its zero-alloc pin. First, log the tier this
# machine selects: the tests skip, with the reason, the tiers it lacks, so
# a box without AVX-512 says so here.
go test -count=1 -v -run 'TestKernelTier$' ./internal/nn | grep 'kernel tier'
go test -race -cpu 1,2 -run 'TestMulNN|TestTranspose|TestElementwise|TestAdamKernel|TestBatch|TestForward|TestGemv|TestTD3Update|TestProductsAreFused|TestCPUTier|TestQuantizedForwardBatch|TestRequantKernel|TestMatvecKernel|TestQuantizedCloneIndependence|TestServiceBatch|TestServiceEvaluateBatch|TestQuantizedPolicyCloneConcurrent' ./internal/nn ./internal/rl ./internal/core
# The same bits from a different build of the scalar paths: at GOAMD64=v3
# math.FMA is one VFMADD231SD with no runtime feature check. The Go spec
# lets a compiler fuse x*y + z (gc does on arm64, ppc64le, s390x and
# riscv64), so the contract names every fusion itself instead of relying
# on what a build happens to do. The quantized tests run here too: at v3
# the compiler may use BMI2 and CMOV forms in the scalar requantization
# that the AVX2 epilogue is held to.
GOAMD64=v3 go test -count=1 -run 'TestBatch|TestMulNN|TestForward|TestProductsAreFused|TestTD3UpdateGoldenDigest|TestQuantizedForwardBatch|TestRequantKernel|TestMatvecKernel|TestQuantizedCloneIndependence|TestServiceBatch|TestServiceEvaluateBatch|TestQuantizedPolicyCloneConcurrent' ./internal/nn ./internal/rl ./internal/core
# The checkpoint/resume bitwise-determinism guarantee, the one-worker
# golden (the serial trajectory, pinned) and the parallel learner get their
# own named race pass so a regression is attributable at a glance (the
# full-tree race run below also covers them, but buries the name). With the
# default-size networks the parallel-learner tests train, the learner
# goroutine, Update's helper and the rollout workers run all at once here.
go test -race -cpu 1,2 -run 'TestParallelLearner|TestResumeDeterminismBitwise|TestOneWorkerMatchesSerialGolden' ./internal/env
# The batching core and the admission accounting around it, named: the
# deterministic pull-semantics tests (core's TestService*: gate policy, no
# sleeps), the datagram transport tests (serve's TestServiceOver*,
# TestServer*: serve.Dial against serve.Server's udp and unixgram
# endpoints) and the slot-leak / queue-bound / fallback-lateness
# regressions (TestAdmission*) all turn on cross-goroutine hand-offs the
# detector should watch.
go test -race -run 'TestService|TestServer|TestAdmission' ./internal/core ./internal/serve
# Property-based invariant sweep under the race detector: 200+ seeded
# random scenarios with the internal/check invariant checker attached.
# Reproduce a failing seed with:
#   go test ./internal/check -run TestRandomScenarioInvariants -seed=N
go test -race -run TestRandomScenarioInvariants ./internal/check
# Reward-strategy property sweep, named: 220 seeded random worlds per
# strategy checking boundedness, permutation invariance, and the
# equal-shares preference every strategy must hold. Reproduce with -seed=N.
go test -race -run 'TestStrategyPropertySweep|TestStrategyEqualSharesPreferred|TestStrategyDegenerateInputsAreZero' ./internal/check
# The 500-flow incast under the full invariant checker, named: this is the
# scale workload the O(flows) fix pass targets, and the dirty-flow plumbing
# it relies on must also be clean under the detector.
go test -race -run 'TestIncast500FlowInvariants|TestIncrementalChecker' ./internal/check
# The event queue's contract, named: Cancel removes eagerly, Reschedule is
# exactly Cancel + At (differential, including re-arms from inside firing
# callbacks), heap indices and order survive random removals, the Fig. 6
# queue depth stays at live events only, and delay lines dispatch exactly as
# one At per item would (differential, in sim and through netem's hops).
go test -race -run 'TestReschedule|TestCancel|TestHeap|TestEventQueueDepth|TestLine' ./internal/sim ./internal/netem ./internal/runner
# Quantized-equivalence sweep under the race detector, named so a fixed-
# point regression (divergent actions, moved fairness/throughput, or a
# kernel race) is attributable at a glance.
go test -race -run TestQuantizedClosedLoopEquivalence ./internal/check
# The closed-loop pilot's acceptance scenarios under the race detector,
# named: live promotion with monotonic versions and zero drops, gate
# refusal, and health-triggered automatic rollback.
go test -race -run 'TestPilot' ./internal/pilot
# The race pass needs a generous timeout: the experiment suite and the
# parallel learner run full simulations under the detector's ~10x slowdown.
go test -race -timeout 60m ./...
