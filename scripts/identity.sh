#!/usr/bin/env bash
# Byte-identity check of the working tree against a parent revision.
#
#   scripts/identity.sh <parent-rev>
#   make identity PARENT=<rev>
#
# Checks the parent revision's committed files out under
# .bench_build/identity/src (git archive, as scripts/pairs.sh does),
# builds the benchmark harness, lunule-sim and lunule-bench from both
# trees, and compares their outputs:
#
#   digests  the benchmark run digests of all five workloads at seeds 42
#            and 7 (`-repeats 2 -trace 0`), with their window, warm-up
#            and op counts;
#   exp      `lunule-bench -exp all -scale 0.5`, timing lines dropped;
#   trace X  a write-back lunule-sim run with every subsystem attached.
#            It must be equal once sorted within each tick: events land
#            where they occur, so a change that only moves an effect
#            within its tick passes. The number of ticks whose events
#            reordered is printed;
#   trace Y  a sync lunule-sim run, byte for byte;
#   stdout   both lunule-sim runs' reports, the trace file name aside.
#
# Prints one line per comparison and exits nonzero on any difference;
# the outputs stay under .bench_build/identity for a closer look.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 <parent-rev>" >&2
	exit 2
fi
parent_rev="$1"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
work="$build/identity"

# Same hermetic toolchain settings as benchmark/run.sh.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

rm -rf "$work"
mkdir -p "$work/src"
git -C "$root" archive "$parent_rev" | tar -x -C "$work/src"
echo "# parent $(git -C "$root" rev-parse --short "$parent_rev") vs working tree at $(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD || echo '+dirty')"

x_flags=(-tenants 4 -tenant-rate 600 -tenant-burst 1200 -batch-size 32 -flush-every 4
	-replication 3 -lease-ticks 40 -mds 8 -clients 64 -crash 120:hot -audit -maxticks 400)
y_flags=(-mds 5 -clients 100 -workload Mixed)

for side in parent change; do
	src="$root" out="$work/$side"
	[ "$side" = parent ] && src="$work/src"
	mkdir -p "$out"
	go build -C "$src/benchmark" -o "$out/benchmark" .
	go build -C "$src" -o "$out/sim" ./cmd/lunule-sim
	go build -C "$src" -o "$out/bench" ./cmd/lunule-bench
	for seed in 42 7; do
		(cd "$src" && "$out/benchmark" -seed "$seed" -repeats 2 -trace 0) |
			grep -E '^(== |seed [0-9]+: )' >>"$out/digests.txt"
	done
	"$out/bench" -exp all -scale 0.5 | grep -v '^(.* in .*)$' >"$out/exp.txt"
	(cd "$out" && ./sim "${x_flags[@]}" -trace-out X.jsonl >X.out)
	(cd "$out" && ./sim "${y_flags[@]}" -trace-out Y.jsonl >Y.out)
done

bad=0
same() { # same <name> <parent-file> <change-file>
	if cmp -s "$2" "$3"; then
		echo "ok    $1"
	else
		echo "DIFF  $1: $2 vs $3"
		bad=1
	fi
}
p="$work/parent" c="$work/change"
same digests "$p/digests.txt" "$c/digests.txt"
same "exp all -scale 0.5" "$p/exp.txt" "$c/exp.txt"
same "trace Y" "$p/Y.jsonl" "$c/Y.jsonl"
same "stdout X" "$p/X.out" "$c/X.out"
same "stdout Y" "$p/Y.out" "$c/Y.out"

# Trace X: every line starts {"tick":N,. Sorted by tick, then by the
# whole line, each tick's events compare as a set; a tick whose events
# differ only in order counts as reordered.
tick='{ t = $0; sub(/^\{"tick":/, "", t); sub(/[^0-9].*/, "", t) }'
bytick() { awk "$tick"' { print t "\t" $0 }' "$1" | LC_ALL=C sort -t "$(printf '\t')" -k1,1n -k2 | cut -f2-; }
bytick "$p/X.jsonl" >"$p/X.sorted"
bytick "$c/X.jsonl" >"$c/X.sorted"
how=reordered
cmp -s "$p/X.sorted" "$c/X.sorted" || how=different
same "trace X, sorted within each tick" "$p/X.sorted" "$c/X.sorted"
n=$(awk "$tick"' { seq[FILENAME, t] = seq[FILENAME, t] "\n" $0; ticks[t] }
	END { n = 0; for (t in ticks) if (seq[ARGV[1], t] != seq[ARGV[2], t]) n++; print n }' "$p/X.jsonl" "$c/X.jsonl")
echo "      trace X: $n ticks $how"
exit "$bad"
