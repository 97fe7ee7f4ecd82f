#!/usr/bin/env bash
# Runs the named tests and fails unless every name ran and passed.
#
# Usage: .github/run-exact-tests.sh <cargo test args...> -- <test names...>
#
# Runs `cargo test <cargo test args> -- --exact <test names>`. libtest
# reports a name that matches no test (a rename, a typo) as "0 passed"
# and exits 0, so the step would pass without running it: this script
# also counts the tests that passed and fails unless that count equals
# the number of names given.
set -euo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 <cargo test args...> -- <test names...>" >&2
  exit 2
fi
shift
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "${args[@]}" -- --exact "$@" 2>&1 | tee "$log"
passed=$(sed -n 's/^test result: .* \([0-9][0-9]*\) passed;.*/\1/p' "$log" |
  awk '{ sum += $1 } END { print sum + 0 }')
if [ "$passed" -ne "$#" ]; then
  echo "error: $# test names given, but $passed tests passed" >&2
  exit 1
fi
