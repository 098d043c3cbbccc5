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

# Wall seconds of the four long phases, printed as each ends (`time:`
# lines).  Not gated; they let one log answer how long tier-1 and this
# script take.
now() { date +%s.%N; }
took() { echo "time: $1 $(awk -v a="$2" -v b="$(now)" 'BEGIN { printf "%.1f", b - a }') s"; }

echo "== dune build @check =="
dune build @check

echo "== run state: no new process-wide state in lib/ =="
# A cluster owns its run (DESIGN §2.6): a top-level or module-level
# `let` in lib/ that binds a ref, a Hashtbl, a Queue, an array or an
# atomic is state every run in the process would share.  Only eight
# may: the program and plugin registries, filled before any run; the
# two injected-bug switches, set before any run; two memos of pure
# functions; and Trace's sinks and metrics registry.  New run state
# goes into the cluster's run store (Simos.Local).
allowed='^lib/(simos/program\.ml:[0-9]+:let registry|dmtcp/plugins\.ml:[0-9]+:let table'
allowed="$allowed|dmtcp/faults\.ml:[0-9]+:let bug_(skip_drain|drop_refill)|mem/entropy\.ml:[0-9]+:let table"
allowed="$allowed|chaos/progs\.ml:[0-9]+:  let pages_by_k|trace/trace\.ml:[0-9]+:(let sinks|  let registry)) "
state=$(grep -rnE "^ {0,2}let [a-z_0-9']+( *:[^=]*)? *= *(ref|Hashtbl\.create|Queue\.create|Array\.make|Atomic\.make)\b" \
  --include='*.ml' lib | grep -vE ' in$' | grep -vE "$allowed" || true)
if [ -n "$state" ]; then
  echo "$state" >&2
  echo "FAIL: process-wide state outside the eight allowed bindings; put run state in the run store." >&2
  exit 1
fi

echo "== dune runtest =="
t0=$(now)
dune runtest
took "dune runtest" "$t0"

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
# - ablation --quick: the forked, incremental, compression-scheme,
#   coordinator and drain ablations at their quick sizes; it pins the
#   incremental pricing and the stage spans the last two aggregate.
# - plugins ls / run / run --off: the plugin table (hook counts and
#   sites) and the open-world heuristic verdicts with the heuristic
#   plugins on and off; the plugin smoke below diffs the two.
# - store verify / stat / gc: the catalog check, the store's counters
#   and a `gc --keep 1` pass over the canned two-generation store
#   scenario.
# Every output must then match its MD5 in bin/ci_digests.md5, so a
# change that moves any output byte fails here.
t0=$(now)
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
ablation --quick
plugins ls
plugins run
plugins run --off
store verify
store stat
store gc
EOF
took "determinism loop" "$t0"

echo "== examples: each runs once =="
# The programs under examples/ print modeled checkpoint and restart
# times; their outputs are pinned below with the determinism outputs.
# cluster_to_laptop takes about 20 s, the others under a second.
t0=$(now)
for src in examples/*.ml; do
  ex=$(basename "$src" .ml)
  out=_artifacts/example_${ex}_1.txt
  echo "-- examples/$ex"
  if ! dune exec "examples/$ex.exe" < /dev/null > "$out"; then
    cat "$out"
    echo "FAIL: examples/$ex exited non-zero." >&2
    exit 1
  fi
  cat "$out"
done
took "examples" "$t0"

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
# rare interleavings; the whole block of 1000 took 11 to 13 s on a
# 2-vCPU host (see its `time:` line).
t0=$(now)
if ! dune exec bin/dmtcp_sim.exe -- torture --seeds 1000 < /dev/null > _artifacts/torture_1000.txt \
  || ! grep -qx "torture: 1000/1000 seeds passed (base 0)" _artifacts/torture_1000.txt; then
  grep -v ": ok (" _artifacts/torture_1000.txt >&2
  echo "FAIL: the 1000-seed torture sweep did not pass every seed." >&2
  exit 1
fi
echo "torture: 1000/1000 seeds passed (base 0)"
took "torture sweep" "$t0"

echo "== plugin smoke: heuristic verdict diff =="
# Each heuristic scenario must change its verdict when its plugin is
# enabled: blacklisted DNS degrades instead of staying live, the /proc
# fd reads the restarted pid instead of a stale one, the NSCD app
# detects the zeroed segment instead of trusting resurrected cache.
# Both outputs come from the determinism loop above.
on=_artifacts/plugins_run_1.txt
off=_artifacts/plugins_run___off_1.txt
if diff -q "$on" "$off" > /dev/null; then
  echo "FAIL: heuristic verdicts identical with plugins on and off." >&2
  exit 1
fi
grep -q "degraded" "$on" || { echo "FAIL: blacklist/extshm did not degrade with plugins on." >&2; exit 1; }
grep -q "PROC OK" "$on" || { echo "FAIL: proc-fd did not re-point with plugins on." >&2; exit 1; }
grep -q "dns:1200 live" "$off" || { echo "FAIL: dns pair did not stay live with plugins off." >&2; exit 1; }
grep -q "PROC STALE" "$off" || { echo "FAIL: /proc fd unexpectedly fresh with plugins off." >&2; exit 1; }
# an unregistered name in the host shell's DMTCP_PLUGINS is a usage error
rc=0
DMTCP_PLUGINS=no-such dune exec bin/dmtcp_sim.exe -- plugins ls > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: an unregistered plugin name exited $rc, not 2." >&2; exit 1; }

echo "CI OK"
