"""Golden checkpoint files: same run, same bytes, and old files restore.

``golden/checkpoint_v2/<layout>/`` holds the three files one
single-feed ECM run writes, once without retention knobs (``flat``)
and once with them (``tiered``: 90-day warm spans, 365-day cold
horizon):

* ``base.json`` — :func:`save_checkpoint` after three micro-batch ticks;
* ``delta.json`` — :func:`save_delta_checkpoint` two ticks later;
* ``state.json`` — ``state_dict(include_index=False)`` at that point.

The same run must keep writing byte-identical files.  The version-1
files of the same run (``golden/checkpoint_v1/``, written when the flat
layout had its own index class) stay as restore fixtures: every golden
base + delta pair, and every base on its own, must keep restoring into
a runtime that finishes on the uninterrupted run's alerts and tables.

Regenerate the current version's files only together with a
``CHECKPOINT_VERSION`` bump (and keep the old ones)::

    PYTHONPATH=src python -m tests.stream.test_checkpoint_golden
"""

import json
from pathlib import Path

import pytest

from repro.core.config import TargetApplication
from repro.social import ecm_reprogramming_corpus
from repro.stream.checkpoint import (
    CHECKPOINT_VERSION,
    restore_runtime,
    save_checkpoint,
    save_delta_checkpoint,
)
from repro.stream.feed import SyntheticFeed
from repro.stream.runtime import StreamRuntime
from tests.conftest import build_ecm_database

GOLDEN_ROOT = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_ROOT / f"checkpoint_v{CHECKPOINT_VERSION}"
GOLDEN_V1 = GOLDEN_ROOT / "checkpoint_v1"
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


def _restore(directory, layout, *, delta):
    source = directory / layout / ("delta.json" if delta else "base.json")
    return restore_runtime(
        source,
        _feed(),
        build_ecm_database(),
        base=directory / layout / "base.json" if delta else None,
        target=ECM_TARGET,
        batch_size=BATCH,
        **LAYOUTS[layout],
    )


def _assert_finishes_like(resumed, reference, *, done):
    resumed.run()
    assert _alert_keys(resumed) == _alert_keys(reference)[done:]
    assert (
        resumed.current_table.as_rows() == reference.current_table.as_rows()
    )
    assert (
        resumed.current_result.sai.as_rows()
        == reference.current_result.sai.as_rows()
    )


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_golden_delta_resumes_to_the_uninterrupted_tables(layout):
    reference = _runtime(layout)
    reference.run()

    for directory in (GOLDEN_V1, GOLDEN):
        resumed = _restore(directory, layout, delta=True)
        assert resumed.cursor == (BASE_TICKS + DELTA_TICKS) * BATCH - 1
        delta = json.loads((directory / layout / "delta.json").read_text())
        _assert_finishes_like(
            resumed, reference, done=delta["runtime_delta"]["alert_count"]
        )


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_v1_base_restores_with_its_index(layout):
    # A delta restore starts the index empty, so only a base on its own
    # shows that a version-1 index still loads.
    uninterrupted = _runtime(layout)
    for _ in range(BASE_TICKS):
        uninterrupted.step()
    resumed = _restore(GOLDEN_V1, layout, delta=False)
    assert resumed.cursor == uninterrupted.cursor == BASE_TICKS * BATCH - 1
    assert len(resumed.index) == BASE_TICKS * BATCH
    assert resumed.index.posts == uninterrupted.index.posts
    for keyword in build_ecm_database().keywords:
        assert resumed.index.matching(keyword) == (
            uninterrupted.index.matching(keyword)
        ), keyword

    reference = _runtime(layout)
    reference.run()
    _assert_finishes_like(
        resumed, reference, done=len(uninterrupted.alerts)
    )


def test_tiered_layout_is_unchanged_since_v1():
    for name in FILES:
        current = json.loads((GOLDEN / "tiered" / name).read_text())
        original = json.loads((GOLDEN_V1 / "tiered" / name).read_text())
        if "checkpoint_version" in original:
            assert original.pop("checkpoint_version") == 1
            assert current.pop("checkpoint_version") == CHECKPOINT_VERSION
        assert current == original, name


if __name__ == "__main__":
    for name in LAYOUTS:
        write_run(name, GOLDEN / name)
