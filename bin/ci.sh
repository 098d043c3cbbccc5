#!/bin/sh
# Repository CI gate: full build, the tier-1 test suite, determinism
# checks (the deterministic ratio records among them) and CLI smokes.
# Host time is not gated here: bench_e2e measures it.
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
# - ratios: every design payoff as a modeled in -> out record with its
#   bound (compression, dedup, deltas, forked checkpoints, lazy
#   restore, op queues, plugin dispatch, the proxy split); it exits 1,
#   failing CI, when a bound fails.
# Every output must then match its MD5 in bin/ci_digests.md5, so a
# change that moves any output byte fails here.
while read -r cmd; do
  out=_artifacts/$(echo "$cmd" | tr ' -' '__')
  echo "-- $cmd"
  for run in 1 2; do
    if ! dune exec bin/dmtcp_sim.exe -- $cmd < /dev/null > "${out}_${run}.txt"; then
      cat "${out}_${run}.txt"
      echo "FAIL: '$cmd' exited non-zero." >&2
      exit 1
    fi
  done
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
ratios
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

echo "== torture sweep: 1000 seeds =="
# The pinned 25-seed corpus of `dune runtest` is too narrow to catch
# rare interleavings; the whole block of 1000 takes about 12 s.
if ! dune exec bin/dmtcp_sim.exe -- torture --seeds 1000 < /dev/null > _artifacts/torture_1000.txt \
  || ! grep -qx "torture: 1000/1000 seeds passed (base 0)" _artifacts/torture_1000.txt; then
  grep -v ": ok (" _artifacts/torture_1000.txt >&2
  echo "FAIL: the 1000-seed torture sweep did not pass every seed." >&2
  exit 1
fi
echo "torture: 1000/1000 seeds passed (base 0)"

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

echo "CI OK"
