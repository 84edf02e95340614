#!/usr/bin/env bash
# Peak resident memory and wall time of lunule-bench runs.
#
#   scripts/peakrss.sh [-parent <rev>] [-n <runs>] [lunule-bench args...]
#   make peakrss ARGS='-exp fig6' [PARENT=<rev>] [N=3]
#
# Builds lunule-bench from the working tree into .bench_build/peakrss,
# runs it N times (default 1) with the given arguments, stdout
# discarded, and prints each run's peak RSS (VmHWM from
# /proc/<pid>/status, sampled every 50 ms until the process exits) and
# wall time, then their medians. With -parent it also builds the parent
# revision's lunule-bench (git archive, as scripts/pairs.sh does) and
# alternates parent and change runs, parent first.
set -euo pipefail

parent_rev="" n=1
while [ $# -gt 0 ]; do
	case "$1" in
	-parent) parent_rev="$2"; shift 2 ;;
	-n) n="$2"; shift 2 ;;
	*) break ;;
	esac
done
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/peakrss"
mkdir -p "$work"

sides=(change)
go build -C "$root" -o "$work/change" ./cmd/lunule-bench
if [ -n "$parent_rev" ]; then
	rm -rf "$work/src" && mkdir -p "$work/src"
	git -C "$root" archive "$parent_rev" | tar -x -C "$work/src"
	go build -C "$work/src" -o "$work/parent" ./cmd/lunule-bench
	sides=(parent change)
fi

# measure runs one binary and prints "<peak kB> <wall s>".
measure() {
	local start end hwm=0 v
	start=$(date +%s.%N)
	"$@" >/dev/null &
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

echo "# lunule-bench $*  ($(nproc) CPUs, $(go version | cut -d' ' -f3))"
for i in $(seq 1 "$n"); do
	for side in "${sides[@]}"; do
		read -r kb secs < <(measure "$work/$side" "$@")
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
