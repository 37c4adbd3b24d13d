#!/usr/bin/env bash
# bench2json.sh — convert `go test -bench` output into a BENCH_*.json
# artifact and enforce its ratio gates, shared by every bench step in CI
# so the conversion and the gate logic live in exactly one place.
#
# Usage:
#   bench2json.sh <bench.txt> <out.json> <name-regex> [key=NUM/DEN[>=X|<=X] ...]
#
# Every benchmark line whose name matches <name-regex> (after stripping
# the -GOMAXPROCS suffix) contributes its ns/op; with -count > 1 the
# minimum per name is kept — min-of-runs is the standard noise-robust
# statistic, so one slow sample on a loaded shared runner cannot flip a
# speedup gate computed from these numbers. Each trailing key=NUM/DEN
# argument appends a derived field: the ratio of the two named
# benchmarks' ns/op, rounded to two decimals in the JSON. A ">=X" or
# "<=X" suffix makes it a gate on the unrounded ratio. Quote such
# arguments in the shell, where ">" and "<" are redirections.
#
# The JSON is always written and printed. The script then exits
# non-zero if a gate fails or a ratio names a benchmark the input does
# not contain, so the published artifact and the enforced check read
# the same numbers.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    echo "usage: $0 <bench.txt> <out.json> <name-regex> [key=NUM/DEN[>=X|<=X] ...]" >&2
    exit 2
fi

in=$1
out=$2
regex=$3
shift 3
ratios="$*"

status=0
awk -v regex="$regex" -v ratios="$ratios" '
  $4 == "ns/op" {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (name !~ regex) next
    if (!(name in ns)) { ns[name] = $3; order[n++] = name }
    else if ($3 + 0 < ns[name] + 0) ns[name] = $3
  }
  END {
    if (n == 0) {
      print "bench2json: no benchmark lines matched " regex > "/dev/stderr"
      exit 1
    }
    print "{"
    nr = split(ratios, rspec, " ")
    for (i = 0; i < n; i++) {
      name = order[i]
      sep = (i + 1 < n || nr > 0) ? "," : ""
      printf("  \"%s\": {\"ns_per_op\": %s}%s\n", name, ns[name], sep)
    }
    failed = 0
    for (r = 1; r <= nr; r++) {
      spec = rspec[r]
      eq = index(spec, "=")
      key = substr(spec, 1, eq - 1)
      frac = substr(spec, eq + 1)
      op = ""
      if ((p = index(frac, ">=")) > 0 || (p = index(frac, "<=")) > 0) {
        op = substr(frac, p, 2)
        bound = substr(frac, p + 2) + 0
        frac = substr(frac, 1, p - 1)
      }
      slash = index(frac, "/")
      num = substr(frac, 1, slash - 1)
      den = substr(frac, slash + 1)
      v = 0
      if (!(num in ns) || !(den in ns) || ns[den] + 0 <= 0) {
        printf("bench2json: %s: missing benchmark %s or %s\n", key, num, den) > "/dev/stderr"
        failed = 1
      } else {
        v = ns[num] / ns[den]
        if ((op == ">=" && !(v >= bound)) || (op == "<=" && !(v <= bound))) {
          printf("bench2json: gate failed: %s = %s / %s = %.4f, want %s %s\n", key, num, den, v, op, bound) > "/dev/stderr"
          failed = 1
        } else if (op != "") {
          printf("bench2json: gate passed: %s = %.4f %s %s\n", key, v, op, bound) > "/dev/stderr"
        }
      }
      sep = (r < nr) ? "," : ""
      printf("  \"%s\": %.2f%s\n", key, v, sep)
    }
    print "}"
    exit failed
  }' "$in" > "$out" || status=$?

cat "$out"
exit "$status"
