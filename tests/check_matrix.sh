#!/usr/bin/env bash
# Runs the exact checker over a fixed matrix and prints one manifest line
# per check: its arguments, exit code, and the SHA-256 of its stdout, its
# stderr and the counterexample DOT file it wrote ("-" when it wrote none).
#
# The matrix is every topology family at sizes 3 and 5, times every
# algorithm, times four objectives: progress, lockout, progress under
# k-bounded fairness (k = 2) and progress under one crash-stop fault.
# Every check runs on two threads with a 3,000-state budget.
#
# Usage: tests/check_matrix.sh <path to gdp> > manifest.txt
# tests/expected/check-matrix.txt is the expected manifest.
set -u
gdp=$(realpath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2
digest() {
  if [ -e "$1" ]; then sha256sum < "$1" | cut -d ' ' -f 1; else echo -; fi
}
for family in ring shared-ring grid torus complete star barbell theta random-regular; do
  for size in 3 5; do
    for algorithm in lr1 lr2 gdp1 gdp2 ordered naive; do
      for mode in "" "--target lockout" "--adversary kbounded:2" "--adversary crash:1"; do
        args="--family $family --size $size --algorithm $algorithm${mode:+ $mode}"
        rm -f counterexample.dot
        # shellcheck disable=SC2086 # the arguments are split on purpose
        "$gdp" check $args --max-states 3000 --threads 2 --counterexample counterexample.dot \
          > stdout.txt 2> stderr.txt && code=0 || code=$?
        echo "$args exit=$code stdout=$(digest stdout.txt) stderr=$(digest stderr.txt) dot=$(digest counterexample.dot)"
      done
    done
  done
done
