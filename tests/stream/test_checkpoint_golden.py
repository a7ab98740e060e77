"""Golden version-1 checkpoint files: same run, same bytes.

``golden/checkpoint_v1/<layout>/`` holds the three files one
single-feed ECM run writes, once on the flat index and once on the
tiered index (90-day warm spans, 365-day cold horizon):

* ``base.json`` — :func:`save_checkpoint` after three micro-batch ticks;
* ``delta.json`` — :func:`save_delta_checkpoint` two ticks later;
* ``state.json`` — ``state_dict(include_index=False)`` at that point.

The same run must keep writing byte-identical files, and the golden
base + delta pair must keep restoring into a runtime that finishes on
the uninterrupted run's alerts and tables.

Regenerate only together with a ``CHECKPOINT_VERSION`` bump::

    PYTHONPATH=src python -m tests.stream.test_checkpoint_golden
"""

import json
from pathlib import Path

import pytest

from repro.core.config import TargetApplication
from repro.social import ecm_reprogramming_corpus
from repro.stream.checkpoint import (
    restore_runtime,
    save_checkpoint,
    save_delta_checkpoint,
)
from repro.stream.feed import SyntheticFeed
from repro.stream.runtime import StreamRuntime
from tests.conftest import build_ecm_database

GOLDEN = Path(__file__).parent / "golden" / "checkpoint_v1"
ECM_TARGET = TargetApplication("car", "europe", "passenger")
BATCH = 100
BASE_TICKS = 3
DELTA_TICKS = 2
FILES = ("base.json", "delta.json", "state.json")
LAYOUTS = {
    "flat": {},
    "tiered": {"warm_span_days": 90, "cold_age_days": 365},
}


def _feed():
    return SyntheticFeed.from_corpus(ecm_reprogramming_corpus())


def _runtime(layout):
    return StreamRuntime(
        _feed(),
        build_ecm_database(),
        target=ECM_TARGET,
        since_year=2015,
        batch_size=BATCH,
        **LAYOUTS[layout],
    )


def write_run(layout, directory: Path) -> None:
    """Write the three checkpoint files of the golden run."""
    directory.mkdir(parents=True, exist_ok=True)
    runtime = _runtime(layout)
    for _ in range(BASE_TICKS):
        runtime.step()
    save_checkpoint(runtime, directory / "base.json")
    for _ in range(DELTA_TICKS):
        runtime.step()
    save_delta_checkpoint(runtime, directory / "delta.json")
    state = runtime.state_dict(include_index=False)
    (directory / "state.json").write_text(
        json.dumps(state, indent=2, sort_keys=True) + "\n"
    )


def _alert_keys(runtime):
    return [
        (alert.upto_year, alert.changes, alert.result.insider_table.as_rows())
        for alert in runtime.alerts
    ]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_run_writes_the_golden_bytes(layout, tmp_path):
    write_run(layout, tmp_path)
    for name in FILES:
        written = (tmp_path / name).read_bytes()
        assert written == (GOLDEN / layout / name).read_bytes(), name


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_golden_delta_resumes_to_the_uninterrupted_tables(layout):
    reference = _runtime(layout)
    reference.run()

    resumed = restore_runtime(
        GOLDEN / layout / "delta.json",
        _feed(),
        build_ecm_database(),
        base=GOLDEN / layout / "base.json",
        target=ECM_TARGET,
        batch_size=BATCH,
        **LAYOUTS[layout],
    )
    assert resumed.cursor == (BASE_TICKS + DELTA_TICKS) * BATCH - 1
    delta = json.loads((GOLDEN / layout / "delta.json").read_text())
    done = delta["runtime_delta"]["alert_count"]
    resumed.run()
    assert _alert_keys(resumed) == _alert_keys(reference)[done:]
    assert (
        resumed.current_table.as_rows() == reference.current_table.as_rows()
    )
    assert (
        resumed.current_result.sai.as_rows()
        == reference.current_result.sai.as_rows()
    )


if __name__ == "__main__":
    for name in LAYOUTS:
        write_run(name, GOLDEN / name)
