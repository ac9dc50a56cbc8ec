"""Content-addressed on-disk cache for protocol results.

A protocol run is a pure function of its :class:`~repro.experiments.
executor.RunSpec` — the application, controller, every config dataclass
and the seeds.  The cache therefore keys each
:class:`~repro.experiments.protocol.ProtocolResult` by a SHA-256 digest
of the spec's canonical form (see :func:`repro.config.config_digest`)
plus the package version and a digest schema tag, so results are
invalidated automatically whenever any config field *or* the code
version changes.

Two on-disk formats coexist:

* **v2 (current)** — a log-structured store: values are
  zlib-compressed pickles appended to per-writer *segment* files under
  ``<root>/segments/``, indexed by an append-only JSONL *manifest*
  (``<root>/manifest.jsonl``) mapping each key to ``(segment, offset,
  length, crc32)``.  A warm replay of a 10k-cell sweep is one manifest
  read plus sequential blob reads from a handful of kept-open segment
  handles — no per-entry ``stat``/``open`` round-trips.  Compression
  shrinks the trace-less entries of the 90-cell paper grid (10 runs
  per cell) about 2.9× (550 KB of raw pickles → 191 KB); cells with
  ``record_trace`` carry a last-run trace and compress about 13×.
* **v1 (legacy)** — one raw pickle per entry, laid out
  ``<root>/<k[:2]>/<k[2:]>.pkl``.  Entries written by earlier versions
  are read transparently (the *digest* schema did not change, so their
  keys are still reachable); new writes always use v2.

Crash consistency is ordering, not locking: a blob is fully appended
and flushed before its manifest line is written, so a torn blob is
invisible and a torn trailing manifest line is skipped on load.  Every
manifest record carries the blob's CRC-32; a corrupted or unreadable
entry (either format) is treated as a miss, dropped, and recomputed —
interrupting a sweep mid-write can never poison later runs.
"""

from __future__ import annotations

import json
import os
import pickle
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

from ..errors import ExperimentError

__all__ = [
    "CACHE_SCHEMA",
    "DIGEST_SCHEMA",
    "CacheStats",
    "ResultCache",
]

#: On-disk storage format version: 1 = one raw pickle per entry,
#: 2 = zlib-compressed blobs in segment logs behind a manifest index.
CACHE_SCHEMA = 2

#: Content-address schema folded into every :func:`~repro.experiments.
#: executor.spec_key` digest.  Deliberately *separate* from
#: ``CACHE_SCHEMA``: the storage layout changing does not change what
#: a result is a function of, so v1 entries keep their historical
#: addresses and remain readable after the v2 migration.  Bump only
#: when the *meaning* of a cached payload changes — not for a payload
#: that only lost fields no sweep reads: ``record_trace=False`` entries
#: written by older code still hold a last-run trace and are served as
#: they are.
DIGEST_SCHEMA = 1

#: zlib level for new entries: on the trace-less paper grid, 6 is
#: within 1 % of level 9's ratio (2.88× against 2.91×) at under half
#: its CPU; on traced entries level 9 packs 14 % tighter for 3× the CPU.
_COMPRESS_LEVEL = 6

_MANIFEST_NAME = "manifest.jsonl"
_SEGMENT_DIR = "segments"


@dataclass
class CacheStats:
    """Counters for one cache's lifetime (drives the run summaries)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupted: int = 0
    #: Hits served from legacy v1 per-file entries (observability for
    #: the v2 migration: a warm cache that still shows legacy hits has
    #: not been rewritten yet).
    legacy_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


@dataclass
class ResultCache:
    """Content-addressed store mapping spec digests to pickled results."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ExperimentError(
                f"cache path {self.root} exists and is not a directory"
            ) from exc
        self.stats = CacheStats()
        #: key -> (segment name, offset, length, crc32); loaded lazily.
        self._index: dict[str, tuple[str, int, int, int]] = {}
        #: Bytes of the manifest already folded into ``_index``.
        self._manifest_pos = 0
        self._segment_readers: dict[str, BinaryIO] = {}
        self._segment_writer: BinaryIO | None = None
        self._segment_name = ""
        self._segment_offset = 0
        self._manifest_writer: BinaryIO | None = None

    # -- paths ---------------------------------------------------------

    @property
    def _manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    @property
    def _segment_root(self) -> Path:
        return self.root / _SEGMENT_DIR

    @staticmethod
    def _check_key(key: str) -> None:
        if len(key) < 8 or not all(c in "0123456789abcdef" for c in key):
            raise ExperimentError(f"malformed cache key {key!r}")

    def _legacy_path(self, key: str) -> Path:
        """Where a v1 (one raw pickle per entry) record would live."""
        self._check_key(key)
        return self.root / key[:2] / f"{key[2:]}.pkl"

    # -- manifest index ------------------------------------------------

    def _refresh_index(self) -> None:
        """Fold any manifest lines appended since the last read.

        Incremental: only the tail past ``_manifest_pos`` is read, so a
        long-lived cache object costs one ``stat`` per refresh, not a
        re-parse.  A torn trailing line (no newline yet — a concurrent
        writer mid-append, or a crash) is left for the next refresh.
        """
        try:
            size = self._manifest_path.stat().st_size
        except FileNotFoundError:
            return
        if size <= self._manifest_pos:
            return
        with self._manifest_path.open("rb") as fh:
            fh.seek(self._manifest_pos)
            data = fh.read()
        end = data.rfind(b"\n")
        if end < 0:
            return
        for line in data[:end].split(b"\n"):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                entry = (
                    str(rec["s"]),
                    int(rec["o"]),
                    int(rec["l"]),
                    int(rec["c"]),
                )
                key = str(rec["k"])
            except (ValueError, KeyError, TypeError):
                # A corrupt line loses one entry (recomputed on miss),
                # never the whole index.
                self.stats.corrupted += 1
                continue
            self._index[key] = entry
        self._manifest_pos += end + 1

    def _read_blob(self, seg: str, off: int, length: int, crc: int):
        reader = self._segment_readers.get(seg)
        if reader is None:
            reader = (self._segment_root / seg).open("rb")
            self._segment_readers[seg] = reader
        reader.seek(off)
        blob = reader.read(length)
        if len(blob) != length or zlib.crc32(blob) != crc:
            raise ExperimentError(f"segment {seg} entry at {off} is torn")
        return pickle.loads(zlib.decompress(blob))

    # -- writers -------------------------------------------------------

    def _open_segment(self) -> None:
        """Create this writer's private segment file (exclusive name).

        One segment per cache instance keeps appends single-writer —
        concurrent sweeps sharing a root never interleave blobs — while
        the manifest absorbs all writers through atomic O_APPEND lines.
        """
        self._segment_root.mkdir(parents=True, exist_ok=True)
        for n in range(10_000):
            name = f"{os.getpid()}-{n:03d}.seg"
            try:
                fd = os.open(
                    self._segment_root / name,
                    os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                    0o644,
                )
            except FileExistsError:
                continue
            self._segment_writer = os.fdopen(fd, "wb")
            self._segment_name = name
            self._segment_offset = 0
            return
        raise ExperimentError(
            f"could not allocate a cache segment under {self._segment_root}"
        )

    def _append_manifest(self, line: bytes) -> None:
        if self._manifest_writer is None:
            fd = os.open(
                self._manifest_path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            self._manifest_writer = os.fdopen(fd, "wb")
        self._manifest_writer.write(line)
        self._manifest_writer.flush()

    # -- public API ----------------------------------------------------

    def get(self, key: str):
        """The cached value for ``key``, or ``None`` on miss/corruption."""
        self._check_key(key)
        if key not in self._index:
            self._refresh_index()
        entry = self._index.get(key)
        if entry is not None:
            try:
                value = self._read_blob(*entry)
            except Exception:
                # Torn blob, bad CRC, unpicklable garbage: forget the
                # record (a later put appends a superseding one) and
                # recompute rather than fail the sweep.
                del self._index[key]
                self.stats.corrupted += 1
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return value
        # Transparent fallback to a legacy v1 per-file entry.
        path = self._legacy_path(key)
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            self.stats.corrupted += 1
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            return None
        self.stats.hits += 1
        self.stats.legacy_hits += 1
        return value

    def put(self, key: str, value) -> None:
        """Append ``value`` under ``key`` (blob first, then the index line)."""
        self._check_key(key)
        blob = zlib.compress(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
            _COMPRESS_LEVEL,
        )
        if self._segment_writer is None:
            self._open_segment()
        assert self._segment_writer is not None
        offset = self._segment_offset
        self._segment_writer.write(blob)
        self._segment_writer.flush()
        self._segment_offset += len(blob)
        rec = {
            "k": key,
            "s": self._segment_name,
            "o": offset,
            "l": len(blob),
            "c": zlib.crc32(blob),
        }
        line = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        self._append_manifest(line.encode("utf-8"))
        self._index[key] = (self._segment_name, offset, len(blob), rec["c"])
        self.stats.writes += 1

    def keys(self) -> set[str]:
        """Every reachable key: the manifest index plus legacy entries."""
        self._refresh_index()
        legacy = {
            p.parent.name + p.stem
            for p in self.root.glob("[0-9a-f][0-9a-f]/*.pkl")
        }
        return set(self._index) | legacy

    def close(self) -> None:
        """Release file handles (safe to call more than once)."""
        for fh in self._segment_readers.values():
            try:
                fh.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._segment_readers.clear()
        for attr in ("_segment_writer", "_manifest_writer"):
            fh = getattr(self, attr)
            if fh is not None:
                try:
                    fh.close()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
                setattr(self, attr, None)

    def __contains__(self, key: str) -> bool:
        self._check_key(key)
        if key not in self._index:
            self._refresh_index()
        return key in self._index or self._legacy_path(key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
