#!/usr/bin/env bash
# Alternating parent/change benchmark pairs (choosing-metrics §8).
#
#   scripts/pairs.sh <parent-rev> <workload-regex> [pairs]
#   make pairs PARENT=<rev> WORKLOAD=<regex> N=10
#
# Checks the parent revision's committed files out under
# .bench_build/parent (git archive: nothing is registered in .git, and a
# dirty working tree does not matter), builds the parent's and the
# working tree's benchmark harness once each, and for every workload of
# BENCHMARK.json whose name matches the regex runs N pairs of driver
# runs (`--seed S --seconds RUN_SECONDS --trace 0`, one fresh seed per
# pair, the side that runs first alternating). It prints every run's
# end-to-end metrics and, per metric, both medians, both inter-quartile
# ranges, the win count and the verdict: a gain needs the change to win
# at least nine tenths of the pairs (ties count for neither) AND the
# medians to differ by more than the parent's own inter-quartile range;
# a regression is a median worse than the parent's by more than the
# metric's BENCHMARK.json bound.
#
# Environment: SEED0 (default 100; pair i uses seed SEED0+i — pick seeds
# not used while developing), RUN_SECONDS (default: BENCHMARK.json's
# run_seconds).
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-rev> <workload-regex> [pairs]" >&2
	exit 2
fi
parent_rev="$1" pattern="$2" pairs="${3:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
seed0="${SEED0:-100}"
spec="$root/BENCHMARK.json"
run_seconds="${RUN_SECONDS:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$spec")}"

# The workloads and the end-to-end metrics (name, better, bound) are
# read off BENCHMARK.json, one object per line there.
mapfile -t workloads < <(sed -n 's/^ *{"name": "\([^"]*\)", "why".*/\1/p' "$spec" | grep -E "^(${pattern})\$" || true)
if [ ${#workloads[@]} -eq 0 ]; then
	echo "pairs: no BENCHMARK.json workload matches '$pattern'" >&2
	exit 2
fi
metrics="$(sed -n 's/^ *{"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1 \2 \3/p' "$spec" | tr '\n' ' ')"

# Same hermetic toolchain settings as benchmark/run.sh.
mkdir -p "$build/pairs"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

rm -rf "$build/parent"
mkdir -p "$build/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$build/parent"
go build -C "$build/parent/benchmark" -o "$build/pairs/parent" . >&2
go build -C "$root/benchmark" -o "$build/pairs/change" . >&2

echo "# host: $(nproc) cores, GOMAXPROCS=${GOMAXPROCS:-unset (all cores)}, $(go version | cut -d' ' -f3-)"
echo "# parent $(git -C "$root" rev-parse --short "$parent_rev") vs working tree at $(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD || echo '+dirty'); $pairs pairs, seeds $((seed0 + 1))..$((seed0 + pairs)), --seconds $run_seconds --trace 0"

# run_side <side> <workload> <seed> prints "<metric> <value>" lines plus
# "failed <n>", read from the driver's last-line JSON object.
run_side() {
	local side="$1" dir="$root"
	[ "$side" = parent ] && dir="$build/parent"
	(cd "$dir" && "$build/pairs/$side" --workload "$2" --seed "$3" --seconds "$run_seconds" --trace 0) |
		tail -n 1 | tr '{,' '\n\n' |
		sed -n -e 's/^"failed":\([0-9]*\).*/failed \1/p' -e 's/^"value":\([-0-9.e+]*\).*/\1/p' -e 's/^"\([a-z_]*\)":$/\1/p' |
		awk '$1 == "failed" { print; next } /^[a-z_]+$/ { name = $0; next } name != "" { print name, $0; name = "" }'
}

for w in "${workloads[@]}"; do
	echo
	echo "== $w =="
	runs="$build/pairs/$w.runs"
	: >"$runs"
	for i in $(seq 1 "$pairs"); do
		seed=$((seed0 + i))
		order="parent change"
		[ $((i % 2)) -eq 0 ] && order="change parent"
		for side in $order; do
			run_side "$side" "$w" "$seed" | sed "s/^/$i $seed $side /" >>"$runs"
		done
		# One line per run: pair, seed, side, then the metrics in
		# BENCHMARK.json order and the failed-op count.
		for side in parent change; do
			awk -v i="$i" -v side="$side" -v metrics="$metrics" '
				BEGIN { n = split(metrics, m, " ") }
				$1 == i && $3 == side { v[$4] = $5; seed = $2 }
				END {
					printf "pair %2d seed %-4s %-6s", i, seed, side
					for (k = 1; k <= n; k += 3) printf "  %s %.6g", m[k], v[m[k]]
					printf "  failed %d\n", v["failed"]
				}' "$runs"
		done
	done
	echo
	awk -v metrics="$metrics" -v pairs="$pairs" '
		function quant(a, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
		function sorted(src, dst, n,    i, j, t) {
			for (i = 1; i <= n; i++) dst[i] = src[i]
			for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
		}
		BEGIN { n = split(metrics, m, " ") }
		{ val[$3, $4, $1] = $5 }
		$4 == "failed" && $5 > 0 { failed[$3] += $5 }
		END {
			printf "%-22s %14s %12s %14s %12s %8s %6s  %s\n", "metric", "parent median", "parent IQR", "change median", "change IQR", "ratio", "wins", "verdict"
			for (k = 1; k <= n; k += 3) {
				name = m[k]; lower = (m[k + 1] == "lower"); bound = m[k + 2]
				wins = 0; ties = 0
				for (i = 1; i <= pairs; i++) {
					p[i] = val["parent", name, i]; c[i] = val["change", name, i]
					if (c[i] == p[i]) ties++
					else if ((c[i] < p[i]) == lower) wins++
				}
				sorted(p, ps, pairs); sorted(c, cs, pairs)
				pm = quant(ps, pairs, 0.5); cm = quant(cs, pairs, 0.5)
				piqr = quant(ps, pairs, 0.75) - quant(ps, pairs, 0.25)
				ciqr = quant(cs, pairs, 0.75) - quant(cs, pairs, 0.25)
				gap = lower ? pm - cm : cm - pm # > 0: the change reads better
				worse = pm != 0 ? -gap / (pm < 0 ? -pm : pm) : 0
				clear = lower ? cs[pairs] < ps[1] : cs[1] > ps[pairs] # every change run beats every parent run
				if (ties == pairs) verdict = "equal in every pair"
				else if (wins * 10 >= pairs * 9 && gap > piqr) verdict = "GAIN"
				else if (worse > bound) verdict = "REGRESSION beyond the " bound " bound"
				else if (piqr > bound * (pm < 0 ? -pm : pm) && !clear) verdict = "unresolved: parent spread wider than the " bound " bound"
				else verdict = "within the " bound " bound"
				printf "%-22s %14.6g %12.4g %14.6g %12.4g %8.3f %3d/%-2d  %s\n", name, pm, piqr, cm, ciqr, (pm != 0 ? cm / pm : 0), wins, pairs, verdict
			}
			printf "failed ops: parent %d, change %d\n", failed["parent"], failed["change"]
		}' "$runs"
done
