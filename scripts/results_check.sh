#!/bin/sh
# Regenerate results.md at its run length and diff the whole file against
# the committed one. Only the Run: line, which carries a timestamp, is left
# out of the comparison. Exits 1 on any difference.
set -eu
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if ! $GO run ./cmd/experiments -n 30000 -n8 15000 -md "$tmp/results.md" >"$tmp/log" 2>&1; then
	cat "$tmp/log"
	echo "results-check: experiments failed"
	exit 1
fi

grep -v '^Run: ' results.md >"$tmp/want"
grep -v '^Run: ' "$tmp/results.md" >"$tmp/got"
n=$(grep -c '^###' "$tmp/want" || true)
if [ "$n" -eq 0 ]; then
	echo "results-check: no sections in results.md"
	exit 1
fi
if ! diff -u "$tmp/want" "$tmp/got"; then
	echo "results-check: FAIL: regenerated results differ from results.md (- committed, + regenerated)"
	exit 1
fi
echo "results-check: results.md identical to the regenerated file ($n sections)"
