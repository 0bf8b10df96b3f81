#!/bin/sh
# Regenerate the reproduction figures at results.md's run length and diff
# every figure section (### Fig*, ### Sec6.5, ### ExtRA, ### WS) against the
# committed results.md. The Run: line carries a timestamp and sits outside
# the sections; the hand-written sections after the figures are not
# regenerated and not compared. Exits 1 on any difference.
set -eu
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if ! $GO run ./cmd/experiments -n 30000 -n8 15000 -md "$tmp/results.md" >"$tmp/log" 2>&1; then
	cat "$tmp/log"
	echo "results-check: experiments failed"
	exit 1
fi

# sections prints the figure sections of a results file: each from its
# heading up to the next heading of any kind, without the blank lines that
# end it (the last figure is followed by different sections in the two
# files).
sections() {
	awk '/^#/ { keep = ($0 ~ /^### (Fig[0-9]+|Sec6\.5|ExtRA|WS) /); blank = 0 }
		keep && /^$/ { blank++; next }
		keep { for (; blank > 0; blank--) print ""; print }' "$1"
}
sections results.md >"$tmp/want"
sections "$tmp/results.md" >"$tmp/got"
n=$(grep -c '^###' "$tmp/want" || true)
if [ "$n" -eq 0 ]; then
	echo "results-check: no figure sections in results.md"
	exit 1
fi
if ! diff -u "$tmp/want" "$tmp/got"; then
	echo "results-check: FAIL: regenerated figures differ from results.md (- committed, + regenerated)"
	exit 1
fi
echo "results-check: $n figure sections identical to results.md"
