#!/usr/bin/env sh
# shard_smoke.sh — the sharded-campaign equivalence smoke: run both residue
# classes of a two-way sharded quick-tier matrix campaign (seq-1, every
# backend, reorder k=1) into a corpus directory, fold them with `b3 -merge`,
# and diff the merged shard-stable counters (generated / tested / failing /
# groups / new / states / reorder / r-broken) against an unsharded run of
# the identical configuration. Any divergence means the partition or the
# merge fold is broken, and the job fails.
#
# Usage: scripts/shard_smoke.sh [workdir]
# Without a workdir the outputs go to a temporary directory, removed on exit.
set -eu
cd "$(dirname "$0")/.."
if [ -n "${1:-}" ]; then
  work=$1
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
corpus="$work/shards"
mkdir -p "$corpus"

echo "== shard 0/2 and 1/2: the quick tier" >&2
go run ./cmd/b3 -tier quick -shard 0/2 -corpus "$corpus" >"$work/shard0.out"
go run ./cmd/b3 -tier quick -shard 1/2 -corpus "$corpus" >"$work/shard1.out"

echo "== merge" >&2
go run ./cmd/b3 -merge "$corpus" >"$work/merged.out"

echo "== unsharded baseline" >&2
go run ./cmd/b3 -tier quick >"$work/unsharded.out"

# Extract the per-FS stable counters from each table — every data row
# between the dashed separator and the following blank line, so newly
# registered backends join the comparison automatically. Columns are looked
# up by header name, not position: the merge and matrix tables order their
# columns differently and both grow new ones over time, and a positional
# pick silently compares the wrong counters when that happens. A required
# header that is missing yields zero extracted rows, which the >= 5-row
# guard below turns into a loud failure.
extract_counters() {
  awk -v NEED='file system,generated,tested,failing,groups,new,states,reorder,r-broken,kv' '
    BEGIN { FS = "  +"; nneed = split(NEED, need, ",") }
    /^-+(  +-+)*$/ {
      # The line before the dashed separator is the header row.
      for (i = 1; i <= nh; i++) col[h[i]] = i
      for (i = 1; i <= nneed; i++) if (!(need[i] in col)) {
        printf "missing column %s in table header\n", need[i] > "/dev/stderr"
        exit 2
      }
      t = 1; next
    }
    t && NF == 0 { t = 0 }
    t {
      out = $(col[need[1]])
      for (i = 2; i <= nneed; i++) out = out " " $(col[need[i]])
      print out
      next
    }
    { nh = split($0, h, "  +") }
  ' "$1" | sort
}
extract_counters "$work/merged.out" >"$work/merged.counters"
extract_counters "$work/unsharded.out" >"$work/unsharded.counters"

echo "== merged counters" >&2
cat "$work/merged.counters" >&2
# Guard against a vacuous pass: the quick-tier matrix always holds at least the
# five seed backends; fewer extracted rows means the table parse broke.
for f in "$work/merged.counters" "$work/unsharded.counters"; do
  rows=$(wc -l <"$f")
  if [ "$rows" -lt 5 ]; then
    echo "shard_smoke: $f holds only $rows rows, want every backend (>= 5) — table format drifted? fix the awk extraction" >&2
    exit 1
  fi
done
if ! diff -u "$work/unsharded.counters" "$work/merged.counters"; then
  echo "shard_smoke: merged shard counters diverge from the unsharded run" >&2
  exit 1
fi
echo "shard_smoke: merged counters match the unsharded campaign" >&2
