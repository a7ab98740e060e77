#!/usr/bin/env python
"""Gate one traced performance-ledger run: correct, and its layers live.

Reads what ``perfbench/run.py --trace 1`` prints on stdin, takes its
last (JSON) line, and exits non-zero unless every check of the run
passed and every layer the workload stresses read above zero.  A layer
at zero means the tracer no longer reaches the callable it wraps (a
rename, or a by-name import that bypasses the wrapped attribute), so
the ledger would silently stop measuring it.

Usage::

    python3 perfbench/run.py --workload stream_spill --seed 0 \\
        --seconds 10 --trace 1 | python3 benchmarks/check_ledger.py stream_spill
"""

import json
import sys

#: Per workload, the layers its run must exercise.
LIVE_LAYERS = {
    "replay_all": (
        "social.multiplatform.search_many.calls",
        "core.pipeline.sai.self_s",
        "core.monitor.tick_date.calls",
        "obs.views.runtime_health.calls",
        "stream.tiers.hot_seals",
    ),
    "stream_tiered": (
        "stream.deltas.compute_signal_delta.self_s",
        "stream.deltas.compute_signal_delta_columnar.self_s",
        "stream.tiers.cold_seals",
        "tara.scoring.score.calls",
    ),
    "stream_spill": (
        "nlp.analysis.analyze_text.calls",
        "stream.store.spill.calls",
        "stream.store.hydrate.calls",
        "stream.checkpoint.restore.self_s",
    ),
}


def problems(workload: str, result: dict) -> list:
    """Why ``result`` (the run's JSON line) fails the gate; empty if not."""
    found = []
    if not result["correct"]:
        found.append(
            f"{result['failed']} of {result['attempted']} checks failed"
        )
    metrics = result["metrics"]
    for name in LIVE_LAYERS[workload]:
        value = metrics[name]["value"] if name in metrics else None
        if value is None or not value > 0:
            found.append(f"layer {name} is not live (read {value})")
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0] not in LIVE_LAYERS:
        print(f"usage: check_ledger.py {{{','.join(LIVE_LAYERS)}}}",
              file=sys.stderr)
        return 2
    lines = sys.stdin.read().strip().splitlines()
    if not lines:
        print("error: no ledger output on stdin", file=sys.stderr)
        return 1
    found = problems(args[0], json.loads(lines[-1]))
    for problem in found:
        print(f"error: {args[0]}: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
