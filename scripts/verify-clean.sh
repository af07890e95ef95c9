#!/usr/bin/env bash
# verify-clean.sh — run the tier-1 checks on the committed tree alone:
# gofmt, go vet, go build and go test inside a throwaway detached
# worktree of HEAD, plus the short tests of the costbench module (its
# own module, which the root ./... does not reach but which imports the
# cost engines), then build explore and actuaryd there and run the
# kill-and-resume and stream-smoke harnesses against them, so an
# uncommitted, ignored or stray local file can never make a commit look
# green. The worktree is removed on exit, pass or fail.
# (straggler-smoke.sh stays out: it asserts a race outcome and flakes
# on small machines.)
#
# Usage: scripts/verify-clean.sh [go test flags...]
#   e.g. scripts/verify-clean.sh -race -short
# The worktree goes under $TMPDIR (default /tmp).
set -euo pipefail

repo=$(git rev-parse --show-toplevel)
dir=$(mktemp -d "${TMPDIR:-/tmp}/verify-clean.XXXXXX")
cleanup() {
	git -C "$repo" worktree remove --force "$dir/tree" >/dev/null 2>&1 || true
	rm -rf "$dir"
	git -C "$repo" worktree prune
}
trap cleanup EXIT

git -C "$repo" worktree add --detach --quiet "$dir/tree" HEAD
cd "$dir/tree"
echo "verify-clean: $(git rev-parse --short HEAD) in a clean worktree"

out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:" && echo "$out"
	exit 1
fi
echo "gofmt: ok"
go vet ./...
echo "vet: ok"
go build ./...
echo "build: ok"
go test "$@" ./...
(cd costbench && go test -short ./...)
go build -o explore ./cmd/explore
go build -o actuaryd ./cmd/actuaryd
bash scripts/kill-and-resume.sh
bash scripts/stream-smoke.sh
echo "verify-clean: ok"
