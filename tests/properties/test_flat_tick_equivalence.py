"""Property: the stream's flat retune equals the object path, bit for bit.

:meth:`~repro.stream.runtime.TickEvaluator.evaluate` retunes on plain
numbers: the tracker's flat window sums, the SAI computer's flat scorer,
the insider vector shares in rank order and the tuner's rating rule.  It
builds the SAI list, split, tuning outcome and run result only when an
alert or a read of :attr:`~repro.stream.runtime.TickEvaluator.
last_result` needs them.  Here an evaluator is driven over random
tracker states, and every retune is checked against the object path
(``DeltaTracker.signals`` → ``SAIComputer.compute_from_signals`` → the
insider/outsider split → ``WeightTuner.tune``):

* the table fingerprint, ``retune_window_posts`` and the table, note
  included;
* the cached insider verdicts (they go into every checkpoint);
* the lazily built result, read at its own tick or after later ticks
  changed the tracker: entries, split, tuning outcome and window with
  ``==``, and every score, probability, mean sentiment and vector share
  by :meth:`float.hex` (the shares in their insertion order too).

The states mix annotated and unannotated keywords, keywords without an
attack vector, year buckets inside and outside the window, keywords
with no posts, and tied voice votes.
"""

import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classification import ClassifiedEntry, InsiderOutsiderSplit
from repro.core.config import PSPConfig, TargetApplication
from repro.core.framework import PSPRunResult
from repro.core.keywords import AttackKeyword, KeywordDatabase
from repro.core.sai import SAIComputer
from repro.core.timewindow import TimeWindow
from repro.core.weights import WeightTuner
from repro.iso21434.enums import AttackVector
from repro.stream.deltas import DeltaTracker, SignalDelta
from repro.stream.runtime import TickEvaluator
from repro.tara.scoring import table_fingerprint

KEYWORDS = (
    "dpfdelete", "egrremoval", "obdflash", "relayattack", "chiptune",
    "keyclone", "canbus",
)
YEARS = tuple(range(2015, 2024))
SINCE_YEARS = (None, 2016, 2019)
UPTO_YEARS = (None, 2017, 2019, 2021, 2023)
TARGET = TargetApplication("car", "europe", "passenger")
CONFIG = PSPConfig()

#: Sentiment sums with many significant bits, so any change in the
#: order of a float sum shows in the last digits.
SENTIMENT = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
)


@st.composite
def _database(draw):
    database = KeywordDatabase()
    for keyword in KEYWORDS[: draw(st.integers(min_value=3, max_value=7))]:
        database.add(
            AttackKeyword(
                keyword=keyword,
                vector=draw(st.sampled_from((None, *AttackVector))),
                owner_approved=draw(st.sampled_from((None, True, False))),
            )
        )
    return database


@st.composite
def _delta(draw, keywords):
    buckets = {}
    for keyword in draw(st.lists(st.sampled_from(keywords), unique=True)):
        buckets[keyword] = {
            year: [
                draw(st.integers(min_value=0, max_value=10 ** 6)),
                draw(st.integers(min_value=0, max_value=500)),
                draw(st.integers(min_value=0, max_value=200)),
                draw(st.integers(min_value=0, max_value=200)),
                # Zero-post buckets leave a keyword without posts.
                draw(st.integers(min_value=0, max_value=6)),
                draw(SENTIMENT),
            ]
            for year in draw(
                st.lists(
                    st.sampled_from(YEARS), min_size=1, max_size=3, unique=True
                )
            )
        }
    # Small counts, so votes often tie.
    votes = {
        keyword: (
            draw(st.integers(min_value=0, max_value=2)),
            draw(st.integers(min_value=0, max_value=2)),
        )
        for keyword in draw(st.lists(st.sampled_from(keywords), unique=True))
    }
    dirty = tuple(sorted(set(buckets) | set(votes)))
    return SignalDelta(
        buckets=buckets, votes=votes, dirty=dirty, observed=len(dirty)
    )


@st.composite
def _streams(draw):
    database = draw(_database())
    since = draw(st.sampled_from(SINCE_YEARS))
    upto_years = [
        year for year in UPTO_YEARS
        if year is None or since is None or year >= since
    ]
    steps = draw(
        st.lists(
            st.tuples(
                _delta(database.keywords),
                st.sampled_from(upto_years),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return database, since, steps


def _window(since, upto):
    if since is not None and upto is not None:
        return TimeWindow.years(since, upto)
    return TimeWindow(
        since=dt.date(since, 1, 1) if since is not None else None,
        until=dt.date(upto, 12, 31) if upto is not None else None,
        label="streamed",
    )


class _ObjectPath:
    """The object-building retune: the oracle for the flat one."""

    def __init__(self, database, since):
        self.database = database
        self.since = since
        self.flags = {}
        self.computer = SAIComputer(None, config=CONFIG)
        self.tuner = WeightTuner(CONFIG.tuning)

    def classify(self, tracker, keyword):
        annotation = self.database.get(keyword).owner_approved
        if annotation is not None:
            return annotation
        if tracker.window_count(keyword, since_year=self.since) <= 0:
            return False
        insider, outsider = tracker.votes(keyword)
        return insider > outsider

    def mark_dirty(self, tracker, dirty):
        for keyword in dirty:
            self.flags[keyword] = self.classify(tracker, keyword)

    def retune(self, tracker, upto):
        window = _window(self.since, upto)
        sai = self.computer.compute_from_signals(
            self.database,
            tracker.signals(since_year=self.since, until_year=upto),
        )
        insider, outsider = [], []
        for entry in sai:
            keyword = entry.keyword
            if keyword not in self.flags:
                self.flags[keyword] = self.classify(tracker, keyword)
            flag = self.flags[keyword]
            annotated = self.database.get(keyword).owner_approved is not None
            votes = (0, 0) if annotated else tracker.votes(keyword)
            (insider if flag else outsider).append(
                ClassifiedEntry(
                    entry=entry,
                    insider=flag,
                    from_annotation=annotated,
                    insider_votes=votes[0],
                    outsider_votes=votes[1],
                )
            )
        split = InsiderOutsiderSplit(
            insider=tuple(insider), outsider=tuple(outsider)
        )
        return PSPRunResult(
            target=TARGET,
            window=window,
            sai=sai,
            split=split,
            tuning=self.tuner.tune(split, window_label=window.describe()),
            learned_keywords=(),
        )


def _floats(result):
    return (
        [
            (e.score.hex(), e.probability.hex(), e.mean_sentiment.hex())
            for e in result.sai
        ],
        [(v, share.hex()) for v, share in result.tuning.vector_shares.items()],
    )


def assert_same_result(got, want):
    assert got.target == want.target
    assert got.window == want.window
    assert got.sai.entries == want.sai.entries
    assert got.split == want.split
    assert got.tuning == want.tuning
    assert _floats(got) == _floats(want)
    assert got.learned_keywords == ()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_streams())
def test_flat_retune_equals_the_object_path(stream):
    database, since, steps = stream
    tracker = DeltaTracker(database)
    evaluator = TickEvaluator(
        database, target=TARGET, config=CONFIG, since_year=since
    )
    oracle = _ObjectPath(database, since)
    latest = None
    for delta, upto, read in steps:
        tracker.apply_delta(delta)
        dirty = tracker.take_dirty()
        oracle.mark_dirty(tracker, dirty)
        retuned, _, alert = evaluator.evaluate(tracker, dirty, upto)
        if retuned:
            latest = oracle.retune(tracker, upto)
            table = latest.tuning.insider_table
            assert evaluator.last_table == table
            assert evaluator.last_table.note == table.note
            assert evaluator.last_fingerprint == table_fingerprint(table)
            assert evaluator.retune_window_posts == tracker.window_total(
                since_year=since, until_year=upto
            )
        if alert is not None:
            assert_same_result(alert.result, latest)
        assert evaluator.insider_flags == oracle.flags
        if read:
            assert_same_result(evaluator.last_result, latest)
    assert_same_result(evaluator.last_result, latest)
