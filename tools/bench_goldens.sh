#!/usr/bin/env bash
# Byte-for-byte goldens of the paper benches.
#
# Runs each fig/table/ablation bench at --quick and compares its
# stdout (<bench>.txt) and, where the bench writes one, its --csv
# series (<bench>.csv) against tests/golden/. fig09 and fig11 are
# also run at --threads 4 against the same files: their output must
# not depend on the thread count.
#
# Usage: tools/bench_goldens.sh [--update] [build-dir]
#   --update   rewrite tests/golden/ from this build instead of
#              comparing (a deliberate behaviour change only)
#   build-dir  defaults to build
set -euo pipefail

cd "$(dirname "$0")/.."
UPDATE=0
if [ "${1:-}" = "--update" ]; then
    UPDATE=1
    shift
fi
BUILD="${1:-build}"
GOLDEN=tests/golden
BENCHES="fig02_energy_breakdown fig03_battery_drain fig04_useless_events
fig06_table_size fig06_ota_payload fig07_io_characteristics
fig08_inevent_table fig09_pfi_trimming fig11_schemes
fig12_continuous_learning table1_scheme_scope ablation_pfi
ablation_federated ablation_sensor_fidelity"

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

# run <name> <bench> [args...]: stdout to $OUT/<name>.txt, CSV (if
# the bench writes one) to $OUT/<name>.csv.
run() {
    local name=$1 bench=$2
    shift 2
    "$BUILD/bench/$bench" --quick --csv "$OUT/$name.csv" "$@" \
        >"$OUT/$name.txt"
}

for b in $BENCHES; do
    run "$b" "$b"
done

if [ "$UPDATE" = 1 ]; then
    mkdir -p "$GOLDEN"
    rm -f "$GOLDEN"/*.txt "$GOLDEN"/*.csv
    cp "$OUT"/*.txt "$OUT"/*.csv "$GOLDEN"/
    echo "bench goldens: rewrote $GOLDEN from $BUILD"
    exit 0
fi

THREADED="fig09_pfi_trimming fig11_schemes"
for b in $THREADED; do
    run "${b}_t4" "$b" --threads 4
done

fail=0
for b in $BENCHES; do
    for ext in txt csv; do
        if [ -e "$GOLDEN/$b.$ext" ] || [ -e "$OUT/$b.$ext" ]; then
            diff -u "$GOLDEN/$b.$ext" "$OUT/$b.$ext" || fail=1
        fi
    done
done
for b in $THREADED; do
    for ext in txt csv; do
        diff -u "$GOLDEN/$b.$ext" "$OUT/${b}_t4.$ext" || fail=1
    done
done
if [ "$fail" != 0 ]; then
    echo "bench goldens: output differs from $GOLDEN" >&2
    exit 1
fi
echo "bench goldens: all identical"
