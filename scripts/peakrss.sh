#!/usr/bin/env bash
# Peak resident memory and wall time of lunule-bench or lunule-sim runs.
#
#   scripts/peakrss.sh [-cmd <command>] [-parent <rev>] [-n <runs>] [args...]
#   make peakrss [CMD=lunule-sim] ARGS='-exp fig6' [PARENT=<rev>] [RUNS=3]
#
# Builds the command (./cmd/<command>, default lunule-bench) from the
# working tree into .bench_build/peakrss, runs it N times (default 1)
# with the given arguments, and prints each run's peak RSS (VmHWM from
# /proc/<pid>/status, sampled every 50 ms until the process exits) and
# wall time, then their medians. Each run's stdout is kept there as
# <side>.<run>.out for comparison. With -parent it also builds the
# parent revision's command (git archive, as scripts/pairs.sh does) and
# alternates parent and change runs, parent first.
set -euo pipefail

cmd=lunule-bench parent_rev="" n=1
while [ $# -gt 0 ]; do
	case "$1" in
	-cmd) cmd="$2"; shift 2 ;;
	-parent) parent_rev="$2"; shift 2 ;;
	-n) n="$2"; shift 2 ;;
	*) break ;;
	esac
done
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/peakrss"
mkdir -p "$work"

sides=(change)
go build -C "$root" -o "$work/change" "./cmd/$cmd"
if [ -n "$parent_rev" ]; then
	rm -rf "$work/src" && mkdir -p "$work/src"
	git -C "$root" archive "$parent_rev" | tar -x -C "$work/src"
	go build -C "$work/src" -o "$work/parent" "./cmd/$cmd"
	sides=(parent change)
fi

# measure runs one binary, its stdout into the file named first, and
# prints "<peak kB> <wall s>".
measure() {
	local out="$1" start end hwm=0 v
	shift
	start=$(date +%s.%N)
	"$@" >"$out" &
	local pid=$!
	while kill -0 "$pid" 2>/dev/null; do
		v=$(awk '/^VmHWM:/ { print $2 }' "/proc/$pid/status" 2>/dev/null || true)
		[ -n "$v" ] && hwm=$v
		sleep 0.05
	done
	wait "$pid"
	end=$(date +%s.%N)
	echo "$hwm $(awk -v a="$start" -v b="$end" 'BEGIN { print b - a }')"
}

echo "# $cmd $*  ($(nproc) CPUs, $(go version | cut -d' ' -f3))"
for i in $(seq 1 "$n"); do
	for side in "${sides[@]}"; do
		read -r kb secs < <(measure "$work/$side.$i.out" "$work/$side" "$@")
		printf '%-7s run %d  peak_rss_mb %8.1f  wall_s %7.2f\n' "$side" "$i" "$(awk -v k="$kb" 'BEGIN { print k / 1024 }')" "$secs" |
			tee -a "$work/runs.$$"
	done
done
for side in "${sides[@]}"; do
	awk -v s="$side" '$1 == s { rss[++k] = $5; wall[k] = $7 }
		function med(a, k,   i, j, t) {
			for (i = 1; i <= k; i++) for (j = i + 1; j <= k; j++) if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
			return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
		}
		END { printf "%-7s median peak_rss_mb %8.1f  wall_s %7.2f  (%d runs)\n", s, med(rss, k), med(wall, k), k }' "$work/runs.$$"
done
rm -f "$work/runs.$$"
