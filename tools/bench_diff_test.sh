#!/usr/bin/env bash
# Checks bench_diff's two gates: every metric of a bench named "*_de"
# must equal its baseline exactly (a change either way, or a missing
# metric, fails); other benches fail only on a regression past the
# threshold.
#
# Usage: bench_diff_test.sh path/to/bench_diff
set -u
diff_tool=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

doc() {  # doc FILE BENCH METRICS
  printf '{"bench": "%s", "metrics": {%s}}\n' "$2" "$3" > "$dir/$1"
}
expect() {  # expect EXIT_CODE FILE...
  local want=$1
  shift
  "$diff_tool" --baseline="$dir/base.json" "${@/#/$dir/}" > "$dir/out.txt"
  local got=$?
  if [ "$got" != "$want" ]; then
    echo "bench_diff $*: exit $got, want $want"
    cat "$dir/out.txt"
    exit 1
  fi
}

doc de.json b_de '"m": 1.5, "n": 2'
doc wall.json b '"m": 1.5'
"$diff_tool" --write-baseline="$dir/base.json" "$dir/de.json" \
  "$dir/wall.json" > /dev/null || exit 1

expect 0 de.json wall.json
doc de_up.json b_de '"m": 1.50001, "n": 2'
expect 1 de_up.json
doc de_down.json b_de '"m": 1.49999, "n": 2'
expect 1 de_down.json
doc de_missing.json b_de '"m": 1.5'
expect 1 de_missing.json
doc wall_noise.json b '"m": 1.55'
expect 0 wall_noise.json
doc wall_worse.json b '"m": 3'
expect 1 wall_worse.json

# The baseline keeps every digit a *_de value carries.
doc fine.json f_de '"m": 0.123456789'
"$diff_tool" --write-baseline="$dir/base.json" "$dir/fine.json" \
  > /dev/null || exit 1
expect 0 fine.json
doc fine_off.json f_de '"m": 0.123456788'
expect 1 fine_off.json
echo bench_diff_test_ok
