#!/usr/bin/env bash
# Messaging benchmark smoke: runs the pcu phased-exchange A/B benches and
# the migration bench with quick settings and merges the results into one
# BENCH_MESSAGING.json summarizing messages/phase, bytes/phase and ns/op
# for the coalesced vs uncoalesced transport.
#
# Usage: tools/bench_messaging.sh <build-dir> [out.json]
# The build dir must contain bench/bench_pcu_msg and bench/bench_migration
# (build with -DCMAKE_BUILD_TYPE=Release for meaningful numbers).
set -euo pipefail

BUILD="${1:?usage: tools/bench_messaging.sh <build-dir> [out.json]}"
OUT="${2:-BENCH_MESSAGING.json}"

# Fail fast, clearly: a missing build tree or binary means "build first",
# not a python traceback halfway through the merge.
if [[ ! -d "$BUILD" ]]; then
  echo "error: build dir '$BUILD' not found; configure and build first:" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
  exit 1
fi
for bin in bench/bench_pcu_msg bench/bench_migration; do
  if [[ ! -x "$BUILD/$bin" ]]; then
    echo "error: missing binary '$BUILD/$bin'; rebuild: cmake --build \"$BUILD\" -j" >&2
    exit 1
  fi
done
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Note: this google-benchmark build takes --benchmark_min_time as a plain
# double (seconds), not the newer "0.05x"/"0.05s" suffixed forms.
"$BUILD/bench/bench_pcu_msg" \
  --benchmark_filter='BM_PhasedExchange(Coalesced|Uncoalesced)' \
  --benchmark_min_time=0.05 \
  --benchmark_out="$TMP/pcu.json" --benchmark_out_format=json >&2
"$BUILD/bench/bench_migration" \
  --benchmark_filter='BM_MigrateSlabAcrossParts' \
  --benchmark_min_time=0.05 \
  --benchmark_out="$TMP/migration.json" --benchmark_out_format=json >&2

python3 - "$TMP/pcu.json" "$TMP/migration.json" "$OUT" <<'EOF'
import json, sys

pcu, migration, out = sys.argv[1], sys.argv[2], sys.argv[3]

# google-benchmark reports real_time in each row's own time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_ns(b):
    return b["real_time"] * NS_PER_UNIT[b.get("time_unit", "ns")]

summary = {"description": (
    "Per-peer message coalescing A/B: logical = payloads posted by the "
    "operations, physical = transport messages after coalescing (segments "
    "of length-prefixed sub-messages). Produced by tools/bench_messaging.sh."),
    "phased_exchange": [], "migration": []}

for b in json.load(open(pcu))["benchmarks"]:
    name, _, arg = b["name"].partition("/")
    summary["phased_exchange"].append({
        "bench": name,
        "ranks": int(arg),
        "coalesced": "Uncoalesced" not in name,
        "ns_per_op": round(real_ns(b), 1),
        "logical_msgs_per_phase": b["logical_msgs_per_phase"],
        "physical_msgs_per_phase": b["physical_msgs_per_phase"],
        "logical_bytes_per_phase": b["logical_bytes_per_phase"],
        "physical_bytes_per_phase": b["physical_bytes_per_phase"],
    })

for b in json.load(open(migration))["benchmarks"]:
    name, _, arg = b["name"].partition("/")
    summary["migration"].append({
        "bench": name,
        "parts": int(arg),
        "ms_per_op": round(real_ns(b) / 1e6, 2),
        "logical_msgs": b["logical_msgs"],
        "physical_msgs": b["physical_msgs"],
    })

# The headline claim: >= 2x fewer physical messages per phase with >= 8
# payloads per peer. Fail the smoke run if it ever stops holding.
by_ranks = {}
for row in summary["phased_exchange"]:
    by_ranks.setdefault(row["ranks"], {})[row["coalesced"]] = row
for ranks, ab in sorted(by_ranks.items()):
    if True in ab and False in ab:
        reduction = (ab[False]["physical_msgs_per_phase"] /
                     ab[True]["physical_msgs_per_phase"])
        ab[True]["physical_reduction_vs_uncoalesced"] = round(reduction, 2)
        assert reduction >= 2.0, (
            f"{ranks} ranks: physical reduction {reduction:.2f}x < 2x")

json.dump(summary, open(out, "w"), indent=2)
print(f"wrote {out}")
EOF
