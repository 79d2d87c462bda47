#!/usr/bin/env sh
# fleet_smoke.sh — the fleet fault-tolerance smoke: run the quick tier
# (seq-1, every backend, reorder k=1) as a three-class fleet through the
# real CLI — one `b3 -serve` coordinator plus local `b3 -worker`
# processes — kill the first worker mid-lease with SIGKILL, and let the
# survivors finish: the coordinator must expire the dead lease, re-issue
# (or work-steal-split) its class, and the merged report it prints on
# completion must carry the same per-backend stable counters as an
# unsharded run of the identical configuration. Any divergence means lease
# recovery lost or double-counted work, and the job fails.
#
# Usage: scripts/fleet_smoke.sh [workdir]
set -eu
cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
corpus="$work/fleet"
mkdir -p "$corpus"
bin="$work/b3"
go build -o "$bin" ./cmd/b3
port=$((20000 + $$ % 20000))

trap 'kill "${serve:-}" "${victim:-}" "${w2:-}" "${w3:-}" 2>/dev/null || true' EXIT

echo "== coordinator: the quick tier over 3 residue classes" >&2
"$bin" -serve "127.0.0.1:$port" -tier quick \
  -fleet-shards 3 -lease-ttl 1s -corpus "$corpus" \
  >"$work/merged.out" 2>"$work/serve.err" &
serve=$!
sleep 0.5

echo "== worker 1: killed mid-lease (SIGKILL — no release, no checkpoint flush)" >&2
"$bin" -worker "127.0.0.1:$port" -worker-id victim >"$work/w1.out" 2>&1 &
victim=$!
# Kill the victim while it holds a lease: a fixed sleep races the lease
# itself (on a fast machine the victim finished its leases first and the
# run was vacuous), so wait for the coordinator to journal the victim's
# first grant — polling for up to 10 s — and kill it at once.
i=0
until grep -q 'fleet: grant .*worker=victim' "$work/serve.err" 2>/dev/null || [ "$i" -ge 1000 ]; do
  i=$((i + 1))
  sleep 0.01
done
kill -KILL "$victim" 2>/dev/null || true

echo "== workers 2+3: run the fleet to completion" >&2
"$bin" -worker "127.0.0.1:$port" -worker-id w2 >"$work/w2.out" 2>&1 &
w2=$!
"$bin" -worker "127.0.0.1:$port" -worker-id w3 >"$work/w3.out" 2>&1 &
w3=$!

if ! wait "$serve"; then
  echo "fleet_smoke: coordinator failed" >&2
  sed -n '1,60p' "$work/serve.err" >&2
  exit 1
fi
echo "== lease transitions" >&2
grep 'fleet:' "$work/serve.err" >&2 || true

# The victim must have held a lease when it died, so exactly one expiry
# must appear in the journal. A run where the kill landed between leases
# would pass vacuously — fail it so the timing gets retuned, not ignored.
if ! grep -q 'fleet: expire' "$work/serve.err"; then
  echo "fleet_smoke: no lease expired — the victim died holding nothing (vacuous run); retune the sleeps" >&2
  exit 1
fi

echo "== unsharded baseline" >&2
"$bin" -tier quick >"$work/unsharded.out"

# Extract the per-FS stable counters from each table — every data row
# between the dashed separator and the following blank line. Columns are
# looked up by header name (see shard_smoke.sh for why positional picks are
# a trap); a missing required header yields zero extracted rows, which the
# >= 5-row guard below turns into a loud failure.
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
for f in "$work/merged.counters" "$work/unsharded.counters"; do
  rows=$(wc -l <"$f")
  if [ "$rows" -lt 5 ]; then
    echo "fleet_smoke: $f holds only $rows rows, want every backend (>= 5) — table format drifted? fix the awk extraction" >&2
    exit 1
  fi
done
if ! diff -u "$work/unsharded.counters" "$work/merged.counters"; then
  echo "fleet_smoke: merged fleet counters diverge from the unsharded run" >&2
  exit 1
fi
echo "fleet_smoke: a worker died mid-lease and the merged fleet still matches the unsharded campaign" >&2
