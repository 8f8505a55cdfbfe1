#!/bin/sh
# Lint: every --gtest_filter pattern in the CI workflow must select at
# least one test. gtest runs nothing for a pattern that matches no test
# and still exits 0, so a renamed or deleted test silently drops out of
# a sanitizer job; this check turns that into a failure.
#
# Each ':'-separated positive pattern of each filter is checked on its
# own against `<tbm_tests> --gtest_list_tests`, so one stale pattern
# cannot hide behind a live one in the same filter.
#
# Usage: tools/check_ci_filters.sh <tbm_tests binary> [workflow file]
set -eu
# Patterns hold `*`; never let the shell expand them against files.
set -f

if [ $# -lt 1 ]; then
  echo "usage: $0 <tbm_tests binary> [workflow file]" >&2
  exit 2
fi
tests="$1"
workflow="${2:-.github/workflows/ci.yml}"
fail=0
checked=0

filters=$(grep -oE "gtest_filter='[^']*'" "$workflow" |
          sed -e "s/^gtest_filter='//" -e "s/'\$//")

for filter in $filters; do
  # gtest reads everything after the first '-' as negative patterns.
  positive=${filter%%-*}
  old_ifs=$IFS
  IFS=:
  for pattern in $positive; do
    IFS=$old_ifs
    [ -n "$pattern" ] || continue
    checked=$((checked + 1))
    # Listed tests are the indented lines under each suite name.
    if ! "$tests" --gtest_list_tests --gtest_filter="$pattern" |
         grep -q '^  '; then
      echo "ERROR: --gtest_filter pattern '$pattern' in $workflow" \
           "matches no test" >&2
      fail=1
    fi
  done
  IFS=$old_ifs
done

if [ "$checked" -eq 0 ]; then
  echo "ERROR: no --gtest_filter patterns found in $workflow" >&2
  exit 1
fi
if [ "$fail" -ne 0 ]; then
  echo "" >&2
  echo "Fix or remove the stale patterns: gtest runs nothing for them" >&2
  echo "and still passes." >&2
  exit 1
fi
echo "ci filter lint OK: $checked --gtest_filter patterns each match" \
     "at least one test"
