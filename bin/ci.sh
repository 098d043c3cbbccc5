#!/bin/sh
# Repository CI gate: full build, the tier-1 test suite, determinism
# checks and CLI smokes.
#
# `dune runtest` already plays the pinned torture and scheduler chaos
# corpora (the first 25 seeds of each); widen both with e.g.
# CHAOS_SEEDS=200 to match the nightly sweep.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build @check =="
dune build @check

echo "== dune runtest =="
dune runtest

mkdir -p _artifacts
rm -f _artifacts/*_1.txt _artifacts/*_2.txt

echo "== determinism: each command runs twice, outputs byte-identical =="
# - trace: the fixed checkpoint/restart scenario, plain, on the
#   incremental/forked fast path (the restart resolves a depth-2 delta
#   chain), with demand-paged lazy restore, and with every heuristic
#   plugin on (their spans join the trace); each also self-checks two
#   in-process runs.
# - sched run / demo1k: the canned three-job and 1000-job
#   preempt/fail/drain scenarios, each judged against its no-fault
#   reference and printing a trace digest or summary.
# - mpi run proxy / direct: the stencil checkpoint/restart cycle on the
#   proxy and the direct socket-mesh backends (result, rank-image shape,
#   trace digest). The stencil runs on Nas.Make, the framework every
#   rank program shares, so these two lines pin that framework too.
# - chaos all: one verdict line per fault-fixture scenario.
# - inspect / store ls: a checkpoint image dumped as text, and the
#   catalog of the canned two-generation store scenario.
# - torture --replay 5: one pinned chaos seed through the CLI.
# Every output must then match its MD5 in bin/ci_digests.md5, so a
# change that moves any output byte fails here.
while read -r cmd; do
  out=_artifacts/$(echo "$cmd" | tr ' -' '__')
  echo "-- $cmd"
  dune exec bin/dmtcp_sim.exe -- $cmd < /dev/null > "${out}_1.txt"
  dune exec bin/dmtcp_sim.exe -- $cmd < /dev/null > "${out}_2.txt"
  if ! diff -u "${out}_1.txt" "${out}_2.txt"; then
    echo "FAIL: '$cmd' is non-deterministic across two runs." >&2
    exit 1
  fi
  cat "${out}_1.txt"
done <<EOF
trace --check-determinism
trace --incremental --check-determinism
trace --lazy --check-determinism
trace --plugins --check-determinism
sched run
sched demo1k
mpi run proxy
mpi run direct
chaos all
inspect
store ls
torture --replay 5
EOF
if ! md5sum -c bin/ci_digests.md5; then
  echo "FAIL: determinism outputs diverged from bin/ci_digests.md5." >&2
  echo "If the change is intentional, refresh the digests with:" >&2
  echo "  md5sum _artifacts/*_1.txt > bin/ci_digests.md5" >&2
  exit 1
fi
# the point of the rank/proxy split: rank images carry no live socket
# state and nothing drained
grep -q "0 established socket spec(s), 0 drained byte(s)" _artifacts/mpi_run_proxy_1.txt \
  || { echo "FAIL: proxy-backend rank images carry socket state." >&2; exit 1; }

echo "== plugin smoke: registry listing + heuristic verdict diff =="
# Each heuristic scenario must change its verdict when its plugin is
# enabled: blacklisted DNS degrades instead of staying live, the /proc
# fd reads the restarted pid instead of a stale one, the NSCD app
# detects the zeroed segment instead of trusting resurrected cache.
dune exec bin/dmtcp_sim.exe -- plugins ls
dune exec bin/dmtcp_sim.exe -- plugins run > _artifacts/plugins_on.txt
dune exec bin/dmtcp_sim.exe -- plugins run --off > _artifacts/plugins_off.txt
cat _artifacts/plugins_on.txt
if diff -q _artifacts/plugins_on.txt _artifacts/plugins_off.txt > /dev/null; then
  echo "FAIL: heuristic verdicts identical with plugins on and off." >&2
  exit 1
fi
grep -q "degraded" _artifacts/plugins_on.txt || { echo "FAIL: blacklist/extshm did not degrade with plugins on." >&2; exit 1; }
grep -q "PROC OK" _artifacts/plugins_on.txt || { echo "FAIL: proc-fd did not re-point with plugins on." >&2; exit 1; }
grep -q "dns:1200 live" _artifacts/plugins_off.txt || { echo "FAIL: dns pair did not stay live with plugins off." >&2; exit 1; }
grep -q "PROC STALE" _artifacts/plugins_off.txt || { echo "FAIL: /proc fd unexpectedly fresh with plugins off." >&2; exit 1; }

echo "== store smoke: catalog verify over the canned two-generation scenario =="
dune exec bin/dmtcp_sim.exe -- store verify

echo "== bench smoke (quick scale, micro layer) =="
# Emits the machine-readable artifact, enforces the compression-shape
# invariants (text halves, random expands <= 1%) and the store dedup
# shape (a 1-of-16-dirty generation ships <= 1/8 of the image), then
# checks that the deterministic ratio records still match the committed
# baseline -- timings are machine-dependent and excluded from the
# comparison.
BENCH_SCALE=quick BENCH_SECTIONS=micro BENCH_ASSERT=1 \
  BENCH_JSON=_artifacts/bench_micro.json dune exec bench/main.exe > /dev/null
grep '"kind": "ratio"' _artifacts/bench_micro.json > _artifacts/bench_ratios.json
if ! diff -u BENCH_micro.json _artifacts/bench_ratios.json; then
  echo "FAIL: deterministic bench ratios diverged from BENCH_micro.json." >&2
  echo "If the encoder change is intentional, refresh the baseline with:" >&2
  echo "  cp _artifacts/bench_ratios.json BENCH_micro.json" >&2
  exit 1
fi
echo "bench ratios match committed BENCH_micro.json"

echo "CI OK"
