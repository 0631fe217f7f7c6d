#!/usr/bin/env bash
# Checks bench_diff's two gates: every metric of a bench named "*_de"
# must equal its baseline exactly (a change either way, or a missing
# metric, fails); other benches fail only on a regression past the
# threshold. Also checks that writing or updating a baseline refuses a
# bench file that records no commit.
#
# Usage: bench_diff_test.sh path/to/bench_diff
set -u
diff_tool=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

doc() {  # doc FILE BENCH METRICS [GIT_SHA]
  printf '{"bench": "%s", "git_sha": "%s", "metrics": {%s}}\n' \
    "$2" "${4-0123456789ab}" "$3" > "$dir/$1"
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
# A baseline must say which commit produced its numbers: both writing
# modes refuse a bench file whose git_sha is "unknown", empty or absent,
# name the file and GODIVA_GIT_SHA, and leave the baseline untouched.
refuse() {  # refuse MODE FILE
  cp "$dir/base.json" "$dir/before.json"
  "$diff_tool" "$1=$dir/base.json" "$dir/$2" > "$dir/out.txt" 2>&1
  local got=$?
  if [ "$got" != 2 ] || ! grep -q "$2" "$dir/out.txt" ||
     ! grep -q GODIVA_GIT_SHA "$dir/out.txt" ||
     ! cmp -s "$dir/base.json" "$dir/before.json"; then
    echo "bench_diff $1 $2: exit $got, want 2 naming the file and" \
      "GODIVA_GIT_SHA with the baseline unchanged"
    cat "$dir/out.txt"
    exit 1
  fi
}
doc unknown.json f_de '"m": 0.123456789' unknown
doc empty.json f_de '"m": 0.123456789' ''
printf '{"bench": "f_de", "metrics": {"m": 0.123456789}}\n' \
  > "$dir/absent.json"
for file in unknown.json empty.json absent.json; do
  refuse --update-baseline "$file"
  refuse --write-baseline "$file"
done
# A stamped file still updates the baseline, provenance included.
doc stamped.json f_de '"m": 0.5' fedcba987654
"$diff_tool" --update-baseline="$dir/base.json" "$dir/stamped.json" \
  > /dev/null || exit 1
grep -q '"f_de": "fedcba987654"' "$dir/base.json" || {
  echo "--update-baseline lost the stamped provenance"
  cat "$dir/base.json"
  exit 1
}
expect 0 stamped.json
echo bench_diff_test_ok
