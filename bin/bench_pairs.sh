#!/bin/sh
# Compare this checkout against a parent commit on the end-to-end
# benchmark, in alternating pairs.
#
#   bin/bench_pairs.sh PARENT_REV N WORKLOAD...
#
# Builds PARENT_REV in a temporary copy under $TMPDIR (default /tmp),
# unpacked from `git archive`, so the script never writes to .git, and
# this checkout's working tree in place.  Then, for each
# workload, runs N pairs of
#   bench_e2e/main.exe --workload W --seed S --seconds 25 --json FILE
# one run per side, flipping which side goes first every pair so that
# drift in host speed falls on both sides alike.  Last it runs
# `main.exe compare` over all the records; its verdict table is the
# output, and its exit status (1 if anything regressed) is the
# script's.  The copy is removed on exit.
#
# SEED (default 1) is the seed of every run.  Records and run logs go
# to OUT (default _artifacts/bench_pairs), named SIDE-WORKLOAD-PAIR.
# The host's core count and CPU model are printed first and kept in
# OUT/host.txt: checkpoint compression runs on every core, so records
# compare only between runs on the same host.  Each run's log ends
# with the share of the host's CPU time the hypervisor stole while it
# ran (the "cpu" line of /proc/stat, read before and after), and each
# pair prints both sides' shares: the benchmark's probe corrects a
# slowed host only for one-domain work.
set -eu
cd "$(dirname "$0")/.."
if [ $# -lt 3 ]; then
  echo "usage: $0 PARENT_REV N WORKLOAD..." >&2
  exit 2
fi
parent_rev=$1
n=$2
shift 2
seed=${SEED:-1}
out=${OUT:-_artifacts/bench_pairs}
mkdir -p "$out"
out=$(cd "$out" && pwd)

cpu=$(sed -n 's/^model name[[:space:]]*: *//p' /proc/cpuinfo | head -n 1)
printf 'nproc: %s\ncpu: %s\n' "$(nproc)" "${cpu:-unknown}" | tee "$out/host.txt" | sed 's/^/== host: /' >&2

tree=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$tree"' EXIT
trap 'exit 130' INT TERM
git archive "$parent_rev" | tar -x -C "$tree"

echo "== build: $parent_rev (parent) and the working tree (change)" >&2
(cd "$tree" && dune build --display=quiet ./bench_e2e/main.exe)
dune build --display=quiet ./bench_e2e/main.exe

# ticks: steal and total jiffies of all CPUs so far (guest time is
# already inside user time)
ticks() {
  awk '/^cpu / { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t; exit }' /proc/stat 2>/dev/null || true
}

# run SIDE DIR WORKLOAD PAIR; sets $steal to the run's steal share
run() {
  echo "-- $1 $3 pair $4 (seed $seed)" >&2
  log=$out/$1-$3-$4.log
  before=$(ticks)
  (cd "$2" && ./_build/default/bench_e2e/main.exe --workload "$3" --seed "$seed" --seconds 25 \
    --json "$out/$1-$3-$4.json" > "$log" 2>&1) \
    || echo "   $1 run exited non-zero; see $log" >&2
  steal=$(echo "$before $(ticks)" \
    | awk 'NF == 4 && $4 > $2 { printf "%.1f %%", 100 * ($3 - $1) / ($4 - $2); exit } { print "n/a" }')
  echo "steal: $steal" >> "$log"
}

parents=
changes=
for w in "$@"; do
  i=1
  while [ "$i" -le "$n" ]; do
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$tree" "$w" "$i"
      steal_parent=$steal
      run change . "$w" "$i"
      steal_change=$steal
    else
      run change . "$w" "$i"
      steal_change=$steal
      run parent "$tree" "$w" "$i"
      steal_parent=$steal
    fi
    echo "   $w pair $i steal: parent $steal_parent, change $steal_change" >&2
    parents="$parents $out/parent-$w-$i.json"
    changes="$changes $out/change-$w-$i.json"
    i=$((i + 1))
  done
done

# shellcheck disable=SC2086 # one record path per word
./_build/default/bench_e2e/main.exe compare --parent $parents --change $changes
