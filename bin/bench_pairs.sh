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

tree=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$tree"' EXIT
trap 'exit 130' INT TERM
git archive "$parent_rev" | tar -x -C "$tree"

echo "== build: $parent_rev (parent) and the working tree (change)" >&2
(cd "$tree" && dune build --display=quiet ./bench_e2e/main.exe)
dune build --display=quiet ./bench_e2e/main.exe

# run SIDE DIR WORKLOAD PAIR
run() {
  echo "-- $1 $3 pair $4 (seed $seed)" >&2
  (cd "$2" && ./_build/default/bench_e2e/main.exe --workload "$3" --seed "$seed" --seconds 25 \
    --json "$out/$1-$3-$4.json" > "$out/$1-$3-$4.log" 2>&1) \
    || echo "   $1 run exited non-zero; see $out/$1-$3-$4.log" >&2
}

parents=
changes=
for w in "$@"; do
  i=1
  while [ "$i" -le "$n" ]; do
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$tree" "$w" "$i"
      run change . "$w" "$i"
    else
      run change . "$w" "$i"
      run parent "$tree" "$w" "$i"
    fi
    parents="$parents $out/parent-$w-$i.json"
    changes="$changes $out/change-$w-$i.json"
    i=$((i + 1))
  done
done

# shellcheck disable=SC2086 # one record path per word
./_build/default/bench_e2e/main.exe compare --parent $parents --change $changes
