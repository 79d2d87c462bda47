#!/usr/bin/env sh
# Build the repo's static-invariant suite (cmd/b3vet) and run it over the
# whole module. Exits non-zero on any finding that is not suppressed with a
# documented //lint:allow, so CI (the vet-suite job) fails on new
# violations of the borrow/release/atomic/salt/enum invariants.
#
# Usage: scripts/b3vet.sh
set -eu

cd "$(dirname "$0")/.."

bin="$(mktemp -d)/b3vet"
trap 'rm -rf "$(dirname "$bin")"' EXIT

go build -o "$bin" ./cmd/b3vet
# Not exec: the EXIT trap must outlive the run to remove the binary.
"$bin" -v
