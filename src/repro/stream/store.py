"""Cold-segment spill-to-disk store: binary columns, hydration cache.

A :class:`~repro.stream.tiers.TieredCorpusIndex` seals frozen history
into cold segments whose raw ``columns_state`` payloads never change —
but until now they stayed resident forever, so a decade-scale corpus
paid RSS for posts it almost never re-materializes.  This module moves
that payload to disk:

* :func:`segment_to_bytes` / :func:`segment_from_bytes` — a compact
  binary codec for a cold segment's column dict.  Numeric columns are
  written as their raw :class:`array.array` machine bytes; string
  columns as one contiguous UTF-8 blob plus a ``Q``-typed offset table.
  The round trip is exact — integers, floats (bit-for-bit) and text all
  reconstruct to equal columns.
* :class:`SegmentStore` — a directory of immutable segment files.
  Each spill is one crash-atomic write (temp file, fsync,
  ``os.replace``), so a ``seg-<span>-<digest>.seg`` file exists only
  once it is complete: the files are the store's record of what it
  holds.  Opening a directory lists its segment files once; a kill
  mid-spill leaves at worst a ``*.tmp`` file, which is never adopted.
  Which segments are live is recorded by the checkpoint that
  references them, not by the store.  Keys are content-addressed,
  which makes re-spilling the same segment idempotent and lets several
  store instances — shard indexes, a checkpoint-restored runtime, a
  replay audit — safely share one directory: segment files never
  change once written.
* :class:`HydrationCache` — the small LRU (``max_resident_cold``
  entries) through which *all* cold rehydration is routed, so
  back-to-back queries against the same cold window stop re-parsing the
  segment (and rebuilding a throwaway interner) on every call.

Failures surface as the typed :class:`StoreError` (a
:class:`~repro.core.errors.PSPError`, so the CLI reports it as a clean
``error:`` line): a missing or corrupted segment file names its key and
file, and a checkpoint that references spilled segments refuses to
restore without its store instead of crashing later mid-query.

Telemetry: ``psp_store_*`` counters (spills, spilled bytes, hydrations,
cache hits/evictions) and gauges (segments, bytes on disk, resident
cache size) register in the PR 9 metrics registry when one is attached.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import zlib
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import (
    Collection,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Union,
)

from repro.core.errors import PSPError
from repro.social.columnar import ColumnarCorpus

__all__ = [
    "DEFAULT_MAX_RESIDENT_COLD",
    "HydrationCache",
    "SegmentStore",
    "StoreError",
    "segment_from_bytes",
    "segment_to_bytes",
]

#: How many hydrated cold segments stay resident by default — a handful:
#: enough that a replay sweeping a cold window re-reads nothing, small
#: enough that hydration can never quietly resurrect the resident cost
#: the spill exists to shed.
DEFAULT_MAX_RESIDENT_COLD = 4

#: Segment file magic: identifies the format and pins its version.
_MAGIC = b"PSPSEG1\n"

_SEGMENT_SUFFIX = ".seg"
_TMP_MARKER = ".tmp"

#: The segment file names a store adopts as keys.  Keys come back from
#: checkpoints (outside input) and resolve only once adopted or spilled,
#: so a name outside ``seg-<span>-<16 hex digits>`` never becomes a path.
_KEY_PATTERN = re.compile(r"seg--?[0-9]+-[0-9a-f]{16}")

_STORE_VERSION = 1


class StoreError(PSPError):
    """A segment store operation failed (missing/corrupt file, no store)."""


# -- binary segment codec ------------------------------------------------------


def segment_to_bytes(columns_state: Mapping[str, object]) -> bytes:
    """Serialize a cold segment's column dict into the binary layout.

    ``array`` values are written as raw machine bytes; ``list`` values
    must hold strings and are written as an offset table plus one
    contiguous UTF-8 blob.  The section order is the dict's insertion
    order, so the decoded dict preserves it.
    """
    sections: List[Dict[str, object]] = []
    payload = bytearray()
    for name, value in columns_state.items():
        if isinstance(value, array):
            raw = value.tobytes()
            sections.append(
                {
                    "name": name,
                    "kind": "array",
                    "typecode": value.typecode,
                    "itemsize": value.itemsize,
                    "count": len(value),
                    "bytes": len(raw),
                }
            )
            payload.extend(raw)
        else:
            items = list(value)  # type: ignore[call-overload]
            encoded = [item.encode("utf-8") for item in items]
            offsets = array("Q", [0] * (len(encoded) + 1))
            cursor = 0
            for position, chunk in enumerate(encoded):
                cursor += len(chunk)
                offsets[position + 1] = cursor
            blob = b"".join(encoded)
            sections.append(
                {
                    "name": name,
                    "kind": "text",
                    "count": len(encoded),
                    "offsets_bytes": len(offsets) * offsets.itemsize,
                    "blob_bytes": len(blob),
                }
            )
            payload.extend(offsets.tobytes())
            payload.extend(blob)
    header = json.dumps(
        {
            "version": _STORE_VERSION,
            "byteorder": sys.byteorder,
            "sections": sections,
            "payload_crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    out = bytearray()
    out.extend(_MAGIC)
    out.extend(len(header).to_bytes(8, "little"))
    out.extend(header)
    out.extend(payload)
    return bytes(out)


def segment_from_bytes(
    data: bytes, *, names: Optional[Collection[str]] = None
) -> Dict[str, object]:
    """Decode :func:`segment_to_bytes` output back into the column dict.

    With ``names``, only those sections are decoded; the others are
    skipped by their header sizes.  The checksum still covers the whole
    payload.

    Raises :class:`StoreError` on any structural damage — bad magic,
    truncation, checksum mismatch, or a host whose ``array`` layout does
    not match the writer's.
    """
    view = memoryview(data)
    try:
        return _decode_sections(view, names)
    finally:
        # Release explicitly: exception tracebacks keep the frame (and
        # its views) alive, which would block closing an mmap source.
        view.release()


def _decode_sections(
    view: "memoryview", names: Optional[Collection[str]]
) -> Dict[str, object]:
    if len(view) < len(_MAGIC) + 8 or bytes(view[: len(_MAGIC)]) != _MAGIC:
        raise StoreError("segment data does not start with the PSPSEG magic")
    header_len = int.from_bytes(view[len(_MAGIC) : len(_MAGIC) + 8], "little")
    header_start = len(_MAGIC) + 8
    if len(view) < header_start + header_len:
        raise StoreError("segment data truncated inside the header")
    try:
        header = json.loads(bytes(view[header_start : header_start + header_len]))
    except ValueError as error:
        raise StoreError(f"segment header is not valid JSON: {error}") from None
    if header.get("version") != _STORE_VERSION:
        raise StoreError(
            f"unsupported segment format version {header.get('version')!r}"
        )
    if header.get("byteorder") != sys.byteorder:
        raise StoreError(
            f"segment was written on a {header.get('byteorder')}-endian "
            f"host, this host is {sys.byteorder}-endian"
        )
    payload = view[header_start + header_len :]
    try:
        return _decode_payload(header, payload, names)
    finally:
        payload.release()


def _decode_payload(
    header: Mapping[str, object],
    payload: "memoryview",
    names: Optional[Collection[str]],
) -> Dict[str, object]:
    # crc32 reads the buffer in place — no copy of a possibly
    # mmap-backed multi-megabyte payload.
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    if checksum != header.get("payload_crc32"):
        raise StoreError(
            "segment payload checksum mismatch "
            f"(stored {header.get('payload_crc32')}, computed {checksum})"
        )
    out: Dict[str, object] = {}
    cursor = 0
    for section in header["sections"]:
        name = section["name"]
        if section["kind"] == "array":
            size = section["bytes"]
        else:
            size = section["offsets_bytes"] + section["blob_bytes"]
        if cursor + size > len(payload):
            raise StoreError(f"column {name!r} truncated")
        if names is None or name in names:
            out[name] = _decode_section(section, payload, cursor)
        cursor += size
    return out


def _decode_section(
    section: Mapping[str, object], payload: "memoryview", cursor: int
) -> object:
    """One column, read from ``payload`` at ``cursor``.

    The caller has checked the section's bounds.  Sub-views of
    ``payload`` stay temporaries: a traceback that kept one alive would
    block closing an mmap source.
    """
    name = section["name"]
    if section["kind"] == "array":
        typecode = section["typecode"]
        column = array(typecode)
        if column.itemsize != section["itemsize"]:
            raise StoreError(
                f"column {name!r}: array typecode {typecode!r} is "
                f"{column.itemsize} bytes on this host, segment was "
                f"written with {section['itemsize']}"
            )
        column.frombytes(payload[cursor : cursor + section["bytes"]])
        return column
    offsets = array("Q")
    offsets_bytes = section["offsets_bytes"]
    offsets.frombytes(payload[cursor : cursor + offsets_bytes])
    cursor += offsets_bytes
    blob = bytes(payload[cursor : cursor + section["blob_bytes"]])
    return [
        blob[offsets[position] : offsets[position + 1]].decode("utf-8")
        for position in range(section["count"])
    ]


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` crash-atomically (temp + fsync + rename)."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}{_TMP_MARKER}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


# -- the LRU hydration cache ---------------------------------------------------


class HydrationCache:
    """A tiny LRU of materialized cold segments.

    Every rehydration path — spilled segments read back from the store,
    resident cold segments rebuilt from their in-memory columns — goes
    through one of these, so repeated queries against the same cold
    window parse the segment once instead of once per call.
    """

    def __init__(self, capacity: int = DEFAULT_MAX_RESIDENT_COLD) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[str, ColumnarCorpus]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        """The resident-segment bound (the ``max_resident_cold`` knob)."""
        return self._capacity

    def get(self, key: str) -> Optional[ColumnarCorpus]:
        """The cached corpus (refreshing recency), or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, corpus: ColumnarCorpus) -> None:
        """Insert (or refresh) an entry, evicting the least recent."""
        self._entries[key] = corpus
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every resident entry (statistics are kept)."""
        self._entries.clear()


# -- the store -----------------------------------------------------------------


class SegmentStore:
    """A directory of spilled cold segments, one file per segment.

    Args:
        directory: where the segment files live; created if missing.
            The segment files already there are adopted (the re-attach
            path of checkpoint restores).
        max_resident_cold: LRU capacity of the hydration cache.
        metrics: optional :class:`~repro.obs.registry.MetricsRegistry`
            receiving the ``psp_store_*`` counters and gauges.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        max_resident_cold: int = DEFAULT_MAX_RESIDENT_COLD,
        metrics=None,
    ) -> None:
        from repro.obs.registry import ensure_registry

        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        #: Store key -> segment file size in bytes.
        self._segments: Dict[str, int] = {}
        # A segment file is renamed into place only once complete, so
        # every one listed is adoptable; temp files end in ``.tmp`` and
        # never match the glob.
        for path in sorted(self._directory.glob(f"*{_SEGMENT_SUFFIX}")):
            key = path.name[: -len(_SEGMENT_SUFFIX)]
            if _KEY_PATTERN.fullmatch(key):
                self._segments[key] = path.stat().st_size
        self._cache = HydrationCache(max_resident_cold)
        self.spills = 0
        self.hydrations = 0
        self._metrics = ensure_registry(metrics)
        self._spills_total = self._metrics.counter(
            "psp_store_spills_total", "Cold segments spilled to disk"
        )
        self._spilled_bytes_total = self._metrics.counter(
            "psp_store_spilled_bytes_total", "Bytes written by spills"
        )
        self._hydrations_total = self._metrics.counter(
            "psp_store_hydrations_total",
            "Spilled segments read back and re-materialized",
        )
        self._cache_hits_total = self._metrics.counter(
            "psp_store_cache_hits_total",
            "Hydrations answered by the resident LRU cache",
        )
        self._cache_evictions_total = self._metrics.counter(
            "psp_store_cache_evictions_total",
            "Hydrated segments evicted from the resident LRU cache",
        )
        if self._metrics.enabled:
            self._metrics.add_collector(self._refresh_gauges)

    def _refresh_gauges(self) -> None:
        """Store-size gauges, refreshed at export/snapshot time."""
        self._metrics.gauge(
            "psp_store_segments", "Spilled cold segments tracked on disk"
        ).set(len(self._segments))
        self._metrics.gauge(
            "psp_store_bytes", "Bytes of spilled cold segments on disk"
        ).set(self.bytes_on_disk)
        self._metrics.gauge(
            "psp_store_resident_segments",
            "Hydrated segments resident in the LRU cache",
        ).set(len(self._cache))

    @property
    def directory(self) -> Path:
        """The store's on-disk root."""
        return self._directory

    # -- write path ----------------------------------------------------------

    def spill(self, columns_state: Mapping[str, object], *, span: int) -> str:
        """Serialize one cold segment to disk; returns its store key.

        The key is content-addressed, so spilling identical columns
        twice (a checkpoint re-spill, a parallel audit run) lands on the
        same immutable file.  The write is the spill's only durable
        step: a crash before its rename leaves a temp file no open
        adopts, after it a complete segment file.
        """
        data = segment_to_bytes(columns_state)
        digest = hashlib.sha256(data).hexdigest()[:16]
        key = f"seg-{span}-{digest}"
        target = self._directory / f"{key}{_SEGMENT_SUFFIX}"
        if key not in self._segments or not target.exists():
            _atomic_write(target, data)
        self._segments[key] = len(data)
        self.spills += 1
        self._spills_total.inc()
        self._spilled_bytes_total.inc(len(data))
        return key

    # -- read path -----------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._segments

    def keys(self) -> Iterator[str]:
        """The tracked store keys."""
        return iter(self._segments)

    @property
    def segment_count(self) -> int:
        """How many spilled segments this store tracks."""
        return len(self._segments)

    @property
    def bytes_on_disk(self) -> int:
        """Total bytes of the tracked segment files."""
        return sum(self._segments.values())

    def _segment_path(self, key: str) -> Path:
        # Only keys this store listed or spilled resolve, so a key read
        # from a checkpoint never names a file outside the directory.
        if key not in self._segments:
            raise StoreError(
                f"segment {key!r} is not in the store at {self._directory}"
            )
        return self._directory / f"{key}{_SEGMENT_SUFFIX}"

    def load_columns_state(self, key: str) -> Dict[str, object]:
        """Read one spilled segment's columns back (no caching).

        Raises :class:`StoreError` naming the key when the file is
        missing or fails structural validation.
        """
        return self._load(key, None)

    def load_post_ids(self, key: str) -> List[str]:
        """Just the ``post_ids`` column of one spilled segment.

        The checkpoint-restore path needs every retained post id for
        duplicate detection but none of the other columns: the whole
        payload is checksummed, then only this text column is decoded.
        """
        state = self._load(key, ("post_ids",))
        return state["post_ids"]  # type: ignore[return-value]

    def _load(
        self, key: str, names: Optional[Collection[str]]
    ) -> Dict[str, object]:
        import mmap

        path = self._segment_path(key)
        try:
            with open(path, "rb") as handle:
                try:
                    # Decode straight out of the page cache: numeric
                    # columns copy from the mapping into their arrays
                    # without an intermediate whole-file bytes object.
                    with mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    ) as mapped:
                        return segment_from_bytes(mapped, names=names)
                except ValueError:
                    # Empty (or unmappable) file — fall back to a plain
                    # read so validation reports it as a StoreError.
                    handle.seek(0)
                    return segment_from_bytes(handle.read(), names=names)
        except OSError as error:
            raise StoreError(
                f"segment {key!r}: cannot read {path}: {error}"
            ) from None
        except StoreError as error:
            raise StoreError(f"segment {key!r} ({path}): {error}") from None

    def hydrate(self, key: str) -> ColumnarCorpus:
        """The materialized corpus of one spilled segment, LRU-cached.

        Cache hits cost a dictionary lookup; misses read the segment
        file, rebuild the corpus into a throwaway pool and cache it,
        evicting the least-recently used corpus past
        ``max_resident_cold``.
        """
        cached = self._cache.get(key)
        if cached is not None:
            self._cache_hits_total.inc()
            return cached
        corpus = ColumnarCorpus.from_state(self.load_columns_state(key))
        evictions_before = self._cache.evictions
        self._cache.put(key, corpus)
        self._cache_evictions_total.inc(
            self._cache.evictions - evictions_before
        )
        self.hydrations += 1
        self._hydrations_total.inc()
        return corpus

    def drop_cache(self) -> None:
        """Release every resident hydrated corpus (tests, memory audits)."""
        self._cache.clear()

    # -- introspection -------------------------------------------------------

    @property
    def cache(self) -> HydrationCache:
        """The resident-segment LRU."""
        return self._cache

    @property
    def stats(self) -> Dict[str, object]:
        """Operational counters for ``--stats`` rows and checkpoints."""
        return {
            "directory": str(self._directory),
            "segments": len(self._segments),
            "bytes": self.bytes_on_disk,
            "spills": self.spills,
            "hydrations": self.hydrations,
            "cache_hits": self._cache.hits,
            "cache_evictions": self._cache.evictions,
            "resident": len(self._cache),
            "max_resident_cold": self._cache.capacity,
        }
