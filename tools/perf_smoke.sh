#!/usr/bin/env sh
# Interpreter-throughput smoke for the two execution engines
# (docs/performance.md).
#
# Runs `kivati bench-interp` over the standard grid — NSS and VLC, vanilla,
# base and optimized, at 2 cores with the default 4 app workers and at 4
# and 8 cores with 8 workers — and gates every cell on the block engine's
# speedup over the per-instruction ("interp") engine measured in the same
# process. A cell fails when that ratio drops below THRESHOLD (default 0.7)
# of the committed BENCH_interp.json ratio: a regression in basic-block
# translation, in the N-core scheduler it runs on, or a silent deopt to
# per-instruction execution all show up as a lower ratio. Absolute Mcyc/s
# is printed for information only; it varies with the host far more than
# the ratio does. The bench itself is flake-hardened: each cell runs once
# untimed (warmup) and `--repeats` timed times and reports the median.
#
#   sh tools/perf_smoke.sh check    # compare against BENCH_interp.json
#   sh tools/perf_smoke.sh update   # regenerate the baseline (Release build)
#
# Override the binary with KIVATI=path. Run from the repo root.
set -eu

KIVATI="${KIVATI:-./build/tools/kivati}"
BASELINE="BENCH_interp.json"
THRESHOLD="${THRESHOLD:-0.7}"
GRID="--apps nss,vlc --configs vanilla,base,optimized --repeats 3"

# Runs the grid at every core count and merges the reports into $1. Both
# engines run per cell; the bench cross-checks their simulated outcomes
# (cycles, instructions), so this doubles as an engine-equivalence smoke.
bench() {
  out="$1"
  parts=""
  for row in 2:4 4:8 8:8; do
    cores="${row%%:*}"
    workers="${row##*:}"
    part="$out.c$cores"
    # shellcheck disable=SC2086  # GRID is a flag list on purpose
    "$KIVATI" bench-interp $GRID --cores "$cores" --app-workers "$workers" --json "$part"
    parts="$parts $part"
  done
  # shellcheck disable=SC2086
  python3 - "$out" $parts <<'EOF'
import json
import sys

out, parts = sys.argv[1], sys.argv[2:]
merged = None
for path in parts:
    with open(path) as f:
        report = json.load(f)
    if merged is None:
        merged = report
    else:
        merged["entries"] += report["entries"]
with open(out, "w") as f:
    json.dump(merged, f, separators=(",", ":"))
EOF
  # shellcheck disable=SC2086
  rm -f $parts
}

case "${1:-check}" in
  update)
    bench "$BASELINE"
    echo "wrote $BASELINE"
    ;;
  check)
    bench perf_current.json
    python3 - "$BASELINE" perf_current.json "$THRESHOLD" <<'EOF'
import json
import sys

baseline_path, current_path = sys.argv[1], sys.argv[2]
threshold = float(sys.argv[3])


def cells(path):
    with open(path) as f:
        report = json.load(f)
    rows = {}
    for e in report["entries"]:
        rows.setdefault(e["label"], {})[e["engine"]] = e["mcycles_per_sec"]
    return rows


baseline = cells(baseline_path)
current = cells(current_path)
failed = False
for label, now in sorted(current.items()):
    block, interp = now.get("block"), now.get("interp")
    info = f"block {block:.2f} / interp {interp:.2f} Mcyc/s"
    want = baseline.get(label, {})
    if "block" not in want or "interp" not in want:
        print(f"SKIP       {label}: not in {baseline_path} ({info})")
        continue
    ratio = block / interp if interp else float("inf")
    committed = want["block"] / want["interp"] if want["interp"] else float("inf")
    ok = ratio >= threshold * committed
    print(f"{'ok' if ok else 'REGRESSION':10s} {label}: block over interp "
          f"{ratio:.2f}x vs committed {committed:.2f}x ({info})")
    failed = failed or not ok
sys.exit(1 if failed else 0)
EOF
    ;;
  *)
    echo "usage: $0 [check|update]" >&2
    exit 2
    ;;
esac
