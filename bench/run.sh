#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given flags (see bench/README.md). The build cache, the
# binary and every result file stay under .bench_build/ in that checkout.
#
# The build depends on nothing but the Go toolchain: no C compiler (cgo
# off), no go env file, no VCS. The commit is read only when the checkout
# itself is a git work tree.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	GOENV=off GO111MODULE=on CGO_ENABLED=0
unset GOOS GOARCH
commit=unknown
if [ -d .git ] && rev=$(git rev-parse HEAD 2>/dev/null); then
	commit=$rev
	if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
		commit+=-dirty
	fi
fi
go -C bench build -buildvcs=false -ldflags "-X main.commitID=$commit" -o "$out/emcbench" .
exec "$out/emcbench" "$@"
