"""PSP performance ledger: run one workload and print its figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration of the workload runs in a fresh interpreter
(``workloads.py``), so set-up time starts at interpreter start and peak
RSS belongs to that iteration alone.  A run makes a fixed number of
iterations that depends on ``--seconds`` only (``iterations``), never on
how fast the program is, so every commit is measured by the same
statistic.  The load is a closed loop: each tick is handed to the
runtime only after the previous one returned, with the serial executor
in one process.

With ``--trace 0`` the figures are the end-to-end metrics of the
untraced iterations (see ``end_to_end``).  With ``--trace 1`` untraced
and traced iterations alternate; the figures are the per-layer metrics
of the traced ones, and ``trace.overhead_s`` is the median traced minus
the median untraced ``run_s``, both at reference speed.

Every line but the last is for people; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, merge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ITERATIONS = 3
#: Rough wall time of one iteration of any workload on a 2-vCPU VM; a
#: run makes ``--seconds`` / ``ITERATION_S`` iterations.
ITERATION_S = 10.0
#: Every run must end well inside three minutes.
DEADLINE_S = 150.0
#: A p99 is reported only with at least this many samples beyond it;
#: fewer would make it a reading of one or two outliers.
MIN_BEYOND = 10
#: The host-speed probe's time at the reference speed: about its mean
#: on the 2-vCPU VM the bounds were set on (47-69 us across iterations).
REFERENCE_PROBE_S = 60e-6

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("posts_per_s", "posts/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class IterationFailed(RuntimeError):
    pass


def iterate(workload: str, seed: int, *, trace: bool, timeout: float) -> dict:
    """Run one iteration in its own interpreter; returns its figures."""
    command = [
        sys.executable, str(HERE / "workloads.py"), workload,
        "--seed", str(seed), "--out", str(OUT),
    ]
    if trace:
        command.append("--trace")
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command + ["--spawned", repr(spawned)],
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as error:
        raise IterationFailed(f"{workload} iteration timed out") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise IterationFailed(
            f"{workload} iteration exited {done.returncode}:\n"
            f"{done.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def iterations(seconds: float) -> int:
    """How many iterations a run of ``seconds`` makes, whatever the speed."""
    return max(MIN_ITERATIONS, int(seconds // ITERATION_S))


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the iterations, alternating when tracing; returns both lists.

    A traced run starts and ends untraced, so it makes at least one
    traced iteration and more untraced than traced ones.
    """
    plain, traced = [], []
    begin = time.monotonic()
    for number in range(iterations(seconds)):
        elapsed = time.monotonic() - begin
        if elapsed > DEADLINE_S:
            raise IterationFailed(
                f"{workload}: {number} iterations took {elapsed:.0f} s"
            )
        use_trace = trace and number % 2 == 1
        figures = iterate(
            workload, seed, trace=use_trace,
            timeout=max(1.0, DEADLINE_S + 20 - elapsed),
        )
        (traced if use_trace else plain).append(figures)
    return plain, traced


def p99(samples: Sequence[float]) -> Optional[float]:
    """The nearest-rank 99th percentile, or None when too few lie beyond.

    ``len(samples) - rank`` samples rank above the percentile; it is
    reported only when that is at least ``MIN_BEYOND``, which takes
    1,000 samples.
    """
    rank = max(1, math.ceil(0.99 * len(samples)))
    if len(samples) - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def speed_scale(figures: dict) -> float:
    """Factor that takes an iteration's run-phase times to reference speed.

    A shared VM's speed swings up to 2x within seconds, and the swings
    last from under a second to minutes.  A probe timed after every tick
    samples the same swings the ticks meet, so scaling by the reference
    over its mean cuts the iteration-to-iteration spread of ``run_s`` and
    the tick median by a factor of 1.4 to 5 (perfbench/LEDGER.md).
    """
    return REFERENCE_PROBE_S / figures["probe_s"]


def end_to_end(plain) -> dict:
    """The end-to-end figures of one run's untraced iterations.

    Each figure is computed per iteration from that iteration alone, and
    the run reports its median over the iterations.  Run-phase times are
    taken to reference speed (``speed_scale``); ``setup_s`` is as
    measured, because no probe runs during set-up.
    """
    rows = []
    for f in plain:
        tail = p99(f["ticks_ms"])
        if tail is None:
            raise IterationFailed(
                f"{len(f['ticks_ms'])} ticks are too few for a p99"
            )
        scale = speed_scale(f)
        rows.append({
            "setup_s": f["setup_s"],
            "run_s": f["run_s"] * scale,
            "posts_per_s": f["posts"] / (f["run_s"] * scale),
            "tick_p50_ms": statistics.median(f["ticks_ms"]) * scale,
            "tick_p99_ms": tail * scale,
            "peak_rss_mb": f["peak_rss_mb"],
        })
    return {
        name: statistics.median(row[name] for row in rows)
        for name, _unit in END_TO_END
    }


def audit(iterations) -> tuple:
    """Checks attempted and failed, digest agreement included."""
    attempted = failed = 0
    for figures in iterations:
        attempted += len(figures["checks"])
        failed += sum(1 for ok in figures["checks"].values() if not ok)
    digests = [figures["digest"] for figures in iterations]
    attempted += len(digests) - 1
    failed += sum(1 for digest in digests[1:] if digest != digests[0])
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no program source under src/repro", file=sys.stderr)
        return 2
    try:
        plain, traced = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
        e2e = end_to_end(plain)
    except IterationFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    attempted, failed = audit(plain + traced)

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(plain)} untraced + {len(traced)} traced iterations, "
          f"{len(plain[0]['ticks_ms'])} ticks each, run-phase times scaled "
          f"by {', '.join(f'{speed_scale(f):.3f}' for f in plain)}")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {e2e[name]:>14.4f} {unit}")
    print(f"  {'failed_share':<14} {failed / attempted:>14.4f} ratio "
          f"({failed} of {attempted} checks)")
    if args.trace:
        layers = merge([f["layers"] for f in traced])
        layers["trace.overhead_s"] = (
            statistics.median(f["run_s"] * speed_scale(f) for f in traced)
            - e2e["run_s"]
        )
        units = dict(PER_LAYER)
        for name, value in layers.items():
            print(f"  {name:<52} {value:>14.4f} {units[name]}")
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
