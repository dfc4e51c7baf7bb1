#!/usr/bin/env sh
# Interpreter-throughput smoke for the two execution engines
# (docs/performance.md).
#
# Runs `kivati bench-interp` over the standard grid and compares every
# (label, engine) row's simulated Mcycles/s against the committed
# BENCH_interp.json baseline. The bench itself is flake-hardened: each cell
# runs once untimed (warmup) and `--repeats` timed times, and reports the
# median wall time — best-of-N rewarded lucky outliers and made this gate
# flaky. A row fails when it drops below THRESHOLD (default 0.7) of the
# committed number; absolute throughput varies across runners, hence the
# wide margin. Block-engine rows are gated like the per-instruction
# ("fast") rows, so a regression in basic-block translation (or a silent
# deopt to per-instruction execution) surfaces in CI even while the fast
# rows stay green.
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

case "${1:-check}" in
  update)
    # shellcheck disable=SC2086  # GRID is a flag list on purpose
    "$KIVATI" bench-interp $GRID --json "$BASELINE"
    echo "wrote $BASELINE"
    ;;
  check)
    # Both engines: the bench cross-checks their simulated outcomes
    # (cycles, instructions), so this run doubles as an engine-equivalence
    # smoke.
    # shellcheck disable=SC2086
    "$KIVATI" bench-interp $GRID --json perf_current.json
    python3 - "$BASELINE" perf_current.json "$THRESHOLD" <<'EOF'
import json
import sys

baseline_path, current_path = sys.argv[1], sys.argv[2]
threshold = float(sys.argv[3])


def rows(path):
    with open(path) as f:
        report = json.load(f)
    return {(e["label"], e["engine"]): e["mcycles_per_sec"]
            for e in report["entries"]}


baseline = rows(baseline_path)
current = rows(current_path)
failed = False
for (label, engine), now in sorted(current.items()):
    name = f"{label} [{engine}]"
    want = baseline.get((label, engine))
    if want is None:
        print(f"SKIP       {name}: not in {baseline_path}")
        continue
    ratio = now / want if want else float("inf")
    ok = ratio >= threshold
    print(f"{'ok' if ok else 'REGRESSION':10s} {name}: "
          f"{now:.2f} vs committed {want:.2f} Mcyc/s ({ratio:.2f}x)")
    failed = failed or not ok
sys.exit(1 if failed else 0)
EOF
    ;;
  *)
    echo "usage: $0 [check|update]" >&2
    exit 2
    ;;
esac
