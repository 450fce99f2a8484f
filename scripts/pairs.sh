#!/bin/sh
# pairs.sh measures one benchmark metric of the working tree against <rev>
# in alternating pairs: it builds both ./benchmark binaries once, runs n
# pairs of the same workload (10 by default), the base first in odd pairs
# and the head first in even ones, and prints each pair, both sides'
# quartiles, how many pairs the head wins, a two-sided sign-test p-value
# over the pairs that are not ties, the ratio of the medians (head over
# base), and last a verdict line against the metric's BENCHMARK.json bound
# (0 for a metric it does not list), the first of these that holds:
#   unresolved     the base's quartile spread over its median exceeds the
#                  bound, and not every head run beats every base run;
#   gain           the head wins at least 9 in 10 pairs and its median is
#                  better by more than the base's quartile spread;
#   worse          the head's median is worse than the base's by more than
#                  the bound, as a fraction of the base's;
#   no regression  otherwise.
#
#   scripts/pairs.sh <rev> <workload> <metric> [n]
#   make pairs REV=<rev> W=<workload> M=<metric> [N=n]
#
# Run it from inside the checkout under test. <rev> is built from a git
# worktree in a temporary directory (TMPDIR), which is removed on exit. SEED
# (21) and SCALE (20, the benchmark's --seconds) set the runs. A win is a
# better head value in the direction BENCHMARK.json gives the metric
# ("lower" when it names none). Quartiles are the ledger's (Python's
# statistics.quantiles, exclusive method). One benchmark process runs at a
# time, in the foreground.
set -eu
usage='usage: scripts/pairs.sh <rev> <workload> <metric> [n]'
[ $# -ge 3 ] && [ $# -le 4 ] || {
	echo "$usage" >&2
	exit 2
}
rev=$1 workload=$2 metric=$3 n=${4:-10}
GO=${GO:-go}
seed=${SEED:-21}
scale=${SCALE:-20}

cd "$(git rev-parse --show-toplevel)"
base=$(git rev-parse --verify "$rev^{commit}")
head=$(git rev-parse HEAD)
git diff --quiet HEAD -- || head="$head+dirty"
better=$(awk -v m="\"$metric\"" '
	$1 == "\"name\":" { hit = ($2 == m ",") }
	hit && $1 == "\"better\":" { gsub(/[",]/, "", $2); print $2; exit }' BENCHMARK.json)
better=${better:-lower}
bound=$(awk -v m="\"$metric\"" '
	$1 == "\"name\":" { hit = ($2 == m ",") }
	hit && $1 == "\"bound\":" { gsub(/,/, "", $2); print $2; exit }' BENCHMARK.json)
bound=${bound:-0}

tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	rm -rf "$tmp"
	git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --detach -q "$tmp/base" "$base"
(cd "$tmp/base" && $GO build -o "$tmp/base-bench" ./benchmark)
$GO build -o "$tmp/head-bench" ./benchmark

echo "# pairs.sh: $($GO version | cut -d' ' -f3-)"
echo "# $workload $metric ($better is better), seed $seed, scale $scale s, $n pairs"
echo "# base $base"
echo "# head $head"

# run <side>: one run's value of the metric.
run() {
	"$tmp/$1-bench" --workload "$workload" --seed "$seed" --seconds "$scale" \
		--trace 0 --out "$tmp/out" >"$tmp/run.txt"
	v=$(awk -v m="$metric" '$1 == m { print $2 }' "$tmp/run.txt")
	[ -n "$v" ] || {
		echo "pairs.sh: $1 printed no $metric" >&2
		exit 1
	}
	echo "$v"
}

: >"$tmp/pairs"
i=1
while [ $i -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		first=base
		b=$(run base)
		h=$(run head)
	else
		first=head
		h=$(run head)
		b=$(run base)
	fi
	echo "$b $h" >>"$tmp/pairs"
	printf 'pair %2d  base %-14s head %-14s (%s first)\n' "$i" "$b" "$h" "$first"
	i=$((i + 1))
done

# quartiles <column>: the column's three quartiles.
quartiles() {
	cut -d' ' -f"$1" "$tmp/pairs" | sort -n | awk '
		{ s[NR] = $1 }
		function at(i,  j, d) {
			if (NR == 1) return s[1]
			j = int(i * (NR + 1) / 4); if (j < 1) j = 1; if (j > NR - 1) j = NR - 1
			d = i * (NR + 1) - j * 4
			return (s[j] * (4 - d) + s[j + 1] * d) / 4
		}
		END { printf "%.6g %.6g %.6g\n", at(1), at(2), at(3) }'
}
qb=$(quartiles 1)
qh=$(quartiles 2)
echo "base quartiles $qb"
echo "head quartiles $qh"
awk -v better="$better" -v bound="$bound" -v qb="$qb" -v qh="$qh" '
	function beats(h, b) { return better == "lower" ? h < b : h > b }
	NR == 1 { bmin = bmax = $1; hmin = hmax = $2 }
	{
		if ($1 == $2) ties++; else if (beats($2, $1)) wins++; else losses++
		if ($1 < bmin) bmin = $1; if ($1 > bmax) bmax = $1
		if ($2 < hmin) hmin = $2; if ($2 > hmax) hmax = $2
	}
	END {
		m = wins + losses; k = wins < losses ? wins : losses
		# Two-sided sign test: twice the smaller tail of Binomial(m, 1/2).
		p = 0; c = 1
		for (i = 0; i <= k; i++) { p += c; c = c * (m - i) / (i + 1) }
		p = m ? 2 * p / 2 ^ m : 1
		if (p > 1) p = 1
		split(qb, b, " "); split(qh, h, " ")
		printf "head wins %d of %d pairs (%d ties), sign test p = %.4g\n", wins, NR, ties, p
		printf "median ratio head/base %.4f\n", b[2] ? h[2] / b[2] : 0
		spread = b[3] - b[1]
		sweep = better == "lower" ? hmax < bmin : hmin > bmax
		worse = (better == "lower" ? h[2] - b[2] : b[2] - h[2]) / (b[2] ? b[2] : 1)
		if (b[2] && spread / b[2] > bound && !sweep) v = "unresolved"
		else if (10 * wins >= 9 * NR && beats(h[2], b[2]) && (h[2] - b[2]) ^ 2 > spread ^ 2) v = "gain"
		else if (worse > bound) v = "worse"
		else v = "no regression"
		printf "verdict: %s (bound %s, base quartile spread %.4g of its median)\n", v, bound, b[2] ? spread / b[2] : 0
	}' "$tmp/pairs"
