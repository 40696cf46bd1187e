"""Content-addressed on-disk artifact cache.

Expensive sweep results (reference-simulator characterisation tables,
design-space corner evaluations) are stored as flat ``.art`` artifacts
addressed by the SHA-256 content hash of everything that determines them:
the sweep plan, the technology card, the operating conditions and the code
version (see :func:`repro.runtime.jobs.job_key`).  A warm re-run of a sweep
therefore never touches the reference solver — it reads the artifact and
returns.

Artifact layout
---------------
One file per artifact, read with a single ``read``::

    REPRO-ART1\n                                          magic line
    {"arrays": [...], "meta": {...}, "payload_bytes": N} C\n  header line
    <N raw payload bytes>

The JSON header carries the artifact's ``meta``, the array specs
``{name, dtype, shape}`` of :func:`repro.wire.pack_arrays` and the payload
length; ``C`` is the ``zlib.crc32`` (8 hex digits) of the JSON header
followed by the payload, so a flipped byte anywhere after the magic line —
a metadata value as much as an array element — makes the artifact
corrupt, never a wrong result.  The payload is the arrays' raw bytes,
concatenated in order, and is decoded by :func:`repro.wire.unpack_arrays`
— the same validated codec the service and cluster wire use — from a
``bytearray``, so the returned arrays are writable.  Object dtypes are
rejected on write and on read, so no artifact can carry a pickle.

Robustness properties the tests assert:

* **hash stability** — keys are reproducible across processes, so a cache
  written by one run is valid for every later one;
* **invalidation** — any change to the technology card, the plan, the
  operating conditions or :data:`repro.__version__` changes the key, so
  stale artifacts are never served;
* **corrupt-artifact recovery** — an unreadable artifact (wrong magic, a
  failed CRC-32, a header that does not parse or whose specs do not tile
  the payload) is treated as a miss and deleted, never as an error;
* **atomic writes** — artifacts are written to a temporary file and
  ``os.replace``-d into place, so a crashed run cannot leave a truncated
  artifact under a live key.  Temporary files orphaned by a crashed
  ``put`` still occupy disk, so :meth:`ArtifactCache.size_bytes` counts
  them and :meth:`ArtifactCache.clear` / :meth:`ArtifactCache.evict`
  sweep them.  ``.npz`` files left by the previous zip-archive format are
  garbage the same way (the code version in every key means they can
  never be looked up again) and are counted and swept alike;
* **size-bounded LRU eviction** — a cache built with ``max_bytes`` evicts
  least-recently-used artifacts whenever a ``put`` pushes it over the
  limit (never the artifact just written).  Recency is tracked through
  the filesystem: every ``get`` hit bumps the artifact's timestamps via
  ``os.utime``, so eviction order survives process restarts and needs no
  sidecar index.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import tempfile
import threading
import time
import zlib
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro import obs, wire

_HEX_DIGITS = frozenset("0123456789abcdef")

#: First line of every artifact file; a file without it is corrupt.
_MAGIC = b"REPRO-ART1\n"
_SUFFIX = ".art"
_TMP_SUFFIX = ".art.tmp"
#: Files of the previous zip-archive format: never read, only counted and
#: swept (artifacts, and tmp files of a writer that crashed).
_LEGACY_GLOB = "*/*.npz"
_LEGACY_TMP_GLOB = "*/*.npz.tmp"

# Process-wide mirrors of the per-instance CacheStats counters (one label
# per accounting event), plus the footprint gauge: `status`, `cache info`
# and the Prometheus endpoint all read the same accounting.
_CACHE_EVENTS = obs.counter(
    "repro_cache_events_total",
    "Artifact-cache accounting events (hit/miss/write/write_error/corrupt/evict).",
    labels=("event",),
)
_CACHE_BYTES = obs.counter(
    "repro_cache_bytes_total",
    "Artifact bytes moved by cache hits (read) and stores (write).",
    labels=("direction",),
)
_CACHE_SIZE = obs.gauge(
    "repro_cache_size_bytes",
    "Last measured on-disk footprint of the artifact cache.",
)

# A tmp file this old cannot belong to an in-flight put(); evict() treats it
# as garbage from a crashed writer.  clear() sweeps tmp files regardless.
_STALE_TMP_SECONDS = 3600.0

PathLike = Union[str, pathlib.Path]


def default_cache_dir() -> pathlib.Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-optima``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro-optima"


@dataclasses.dataclass
class Artifact:
    """One cached sweep result: named arrays plus JSON-serialisable metadata."""

    arrays: Dict[str, np.ndarray] = dataclasses.field(default_factory=dict)
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class CacheStats:
    """Hit / miss counters of one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_dropped: int = 0
    evictions: int = 0

    def describe(self) -> str:
        """Short human-readable counter summary."""
        return (
            f"{self.hits} hits, {self.misses} misses, {self.writes} writes, "
            f"{self.corrupt_dropped} corrupt artifacts dropped, "
            f"{self.evictions} evicted"
        )


def _encode(artifact: Artifact) -> bytes:
    """Serialise ``artifact`` to the flat layout (magic, header line, payload).

    Raises :class:`ValueError` for object-dtype arrays.
    """
    arrays = {name: np.asarray(value) for name, value in artifact.arrays.items()}
    specs, payload = wire.pack_arrays(list(arrays.values()))
    header = json.dumps(
        {
            "arrays": [{"name": name, **spec} for name, spec in zip(arrays, specs)],
            "meta": artifact.meta,
            "payload_bytes": len(payload),
        },
        sort_keys=True,
    ).encode("utf-8")
    crc = zlib.crc32(payload, zlib.crc32(header))
    return b"%s%s %08x\n%s" % (_MAGIC, header, crc, payload)


def _decode(data: bytes) -> Artifact:
    """Inverse of :func:`_encode`.

    Any inconsistency raises ``ValueError`` (the wire codec's
    ``ProtocolError`` included), or ``KeyError`` / ``TypeError`` for a
    header of the wrong shape.
    """
    if not data.startswith(_MAGIC):
        raise ValueError("not a repro artifact (bad magic)")
    newline = data.find(b"\n", len(_MAGIC))
    if newline < 0:
        raise ValueError("artifact header line is not terminated")
    header_bytes, _, crc = data[len(_MAGIC):newline].rpartition(b" ")
    payload = bytearray(memoryview(data)[newline + 1:])
    if int(crc, 16) != zlib.crc32(payload, zlib.crc32(header_bytes)):
        raise ValueError("artifact fails its CRC-32 check")
    header = json.loads(header_bytes)
    if header["payload_bytes"] != len(payload) or not isinstance(header["meta"], dict):
        raise ValueError("artifact header does not describe its payload")
    specs = header["arrays"]
    arrays = wire.unpack_arrays(specs, payload)
    return Artifact(
        arrays={spec["name"]: array for spec, array in zip(specs, arrays)},
        meta=header["meta"],
    )


def _write_atomically(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to a tmp file, then rename it to ``path``.

    A failed write removes its tmp file before re-raising.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=_TMP_SUFFIX)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ArtifactCache:
    """Content-addressed store of flat ``.art`` artifacts.

    Parameters
    ----------
    root:
        Cache directory; defaults to :func:`default_cache_dir`.  Artifacts
        are sharded into two-character subdirectories by key prefix so the
        directory stays navigable at scale.
    max_bytes:
        Optional size bound.  When set, every :meth:`put` that pushes the
        on-disk footprint over the limit evicts least-recently-used
        artifacts (never the one just written) until the cache fits;
        :meth:`evict` applies the same policy on demand.

    Raises
    ------
    ValueError
        For a negative ``max_bytes``, or (from :meth:`path_for` /
        :meth:`get` / :meth:`put`) for keys that are not lowercase hex
        digests.

    Examples
    --------
    >>> import tempfile
    >>> import numpy as np
    >>> cache = ArtifactCache(tempfile.mkdtemp())
    >>> key = "ab" * 32                       # content hash from job_key()
    >>> path = cache.put(key, Artifact(arrays={"x": np.arange(3)}))
    >>> cache.get(key).arrays["x"].tolist()
    [0, 1, 2]
    >>> len(cache), cache.stats.hits
    (1, 1)
    >>> cache.get("cd" * 32) is None          # miss
    True
    """

    def __init__(self, root: Optional[PathLike] = None, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        # Guards counter updates and the footprint estimate: the serving
        # layer drives one cache from several worker threads.
        self._lock = threading.Lock()
        # Running footprint estimate so a put() below the limit never has
        # to rescan the whole store.  Seeded from disk on first use; other
        # writer processes are invisible to it, which only delays (never
        # prevents) an eviction pass — evict() always measures exactly.
        self._size_estimate: Optional[int] = None

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> pathlib.Path:
        """On-disk location of the artifact for ``key``."""
        if not key or not _HEX_DIGITS.issuperset(key):
            raise ValueError(f"cache keys must be lowercase hex digests, got {key!r}")
        return self.root.joinpath(key[:2], key + _SUFFIX)

    def has(self, key: str) -> bool:
        """Whether an artifact (possibly corrupt) exists for ``key``."""
        return self.path_for(key).exists()

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Artifact]:
        """Load the artifact for ``key``; a corrupt artifact counts as a miss.

        Corrupt or unreadable files are deleted so the next ``put`` rebuilds
        them from scratch.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
            artifact = _decode(data)
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            _CACHE_EVENTS.inc(event="miss")
            obs.EVENTS.emit("cache_miss", key=key)
            return None
        except (OSError, ValueError, KeyError, TypeError):
            with self._lock:
                self.stats.corrupt_dropped += 1
                self.stats.misses += 1
            _CACHE_EVENTS.inc(event="corrupt")
            _CACHE_EVENTS.inc(event="miss")
            obs.EVENTS.emit("cache_miss", key=key, corrupt=True)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            # Bump the timestamps so LRU eviction sees this artifact as
            # recently used even on filesystems mounted noatime.
            os.utime(path)
        except OSError:
            pass
        with self._lock:
            self.stats.hits += 1
        _CACHE_EVENTS.inc(event="hit")
        _CACHE_BYTES.inc(len(data), direction="read")
        obs.EVENTS.emit("cache_hit", key=key)
        return artifact

    def put(self, key: str, artifact: Artifact) -> pathlib.Path:
        """Atomically store ``artifact`` under ``key`` and return its path.

        With ``max_bytes`` configured, a write that pushes the cache over
        the limit triggers LRU eviction; the artifact just written is
        always protected from it.  A write that fails with ``OSError``
        (disk full, read-only directory) leaves no tmp file behind, is
        counted as a ``write_error`` event and re-raises.  An artifact
        holding object-dtype arrays raises :class:`ValueError` before any
        file is created.
        """
        path = self.path_for(key)
        data = _encode(artifact)
        try:
            _write_atomically(path, data)
        except OSError:
            _CACHE_EVENTS.inc(event="write_error")
            raise
        over_limit = False
        written = len(data)
        with self._lock:
            self.stats.writes += 1
            if self.max_bytes is not None:
                if self._size_estimate is None:
                    self._size_estimate = self.size_bytes()
                else:
                    self._size_estimate += written
                over_limit = self._size_estimate > self.max_bytes
                _CACHE_SIZE.set(self._size_estimate)
        _CACHE_EVENTS.inc(event="write")
        _CACHE_BYTES.inc(written, direction="write")
        obs.EVENTS.emit("cache_write", key=key, bytes=written)
        if over_limit:
            self.evict(protect=(key,))
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _glob(self, *patterns: str) -> List[pathlib.Path]:
        if not self.root.exists():
            return []
        return sorted(path for pattern in patterns for path in self.root.glob(pattern))

    def _artifact_paths(self) -> List[pathlib.Path]:
        return self._glob("*/*" + _SUFFIX)

    def _tmp_paths(self) -> List[pathlib.Path]:
        """Temporary files orphaned by a ``put`` that crashed mid-write."""
        return self._glob("*/*" + _TMP_SUFFIX, _LEGACY_TMP_GLOB)

    def _legacy_paths(self) -> List[pathlib.Path]:
        """Artifacts of the previous ``.npz`` format, unreachable by any key."""
        return self._glob(_LEGACY_GLOB)

    def keys(self) -> Iterator[str]:
        """Iterate over every stored artifact key."""
        for path in self._artifact_paths():
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def size_bytes(self) -> int:
        """Total on-disk footprint in bytes, stray tmp and legacy files included."""
        total = 0
        for path in self._artifact_paths() + self._tmp_paths() + self._legacy_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass  # deleted concurrently
        return total

    def clear(self) -> int:
        """Delete every artifact, stray tmp and legacy file; returns files removed."""
        removed = 0
        for path in self._artifact_paths() + self._tmp_paths() + self._legacy_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        with self._lock:
            self._size_estimate = 0
        _CACHE_SIZE.set(0)
        return removed

    def evict(
        self,
        max_bytes: Optional[int] = None,
        protect: Sequence[str] = (),
    ) -> int:
        """Evict least-recently-used artifacts until the cache fits.

        Parameters
        ----------
        max_bytes:
            Size bound to enforce; defaults to the cache's configured
            ``max_bytes``.  Raises :class:`ValueError` when neither is set.
        protect:
            Keys that must survive this pass whatever their recency —
            ``put`` uses it so eviction never drops the artifact just
            written.

        Returns the number of files removed.  Stale tmp files (older than
        one hour, i.e. certainly not an in-flight write) and every legacy
        ``.npz`` artifact are swept first;
        artifacts are then removed oldest-first, where age is the newest of
        ``st_atime`` / ``st_mtime`` (every cache hit bumps both).
        """
        limit = self.max_bytes if max_bytes is None else max_bytes
        if limit is None:
            raise ValueError("evict() needs max_bytes (argument or constructor)")
        removed = 0
        stale_before = time.time() - _STALE_TMP_SECONDS
        for tmp in self._tmp_paths():
            try:
                if tmp.stat().st_mtime < stale_before:
                    tmp.unlink()
                    removed += 1
            except OSError:
                pass
        for legacy in self._legacy_paths():
            try:
                legacy.unlink()
                removed += 1
            except OSError:
                pass
        entries = []
        for path in self._artifact_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((max(stat.st_atime, stat.st_mtime), stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        protected = {self.path_for(key) for key in protect}
        for _, size, path in sorted(entries, key=lambda entry: (entry[0], entry[2])):
            if total <= limit:
                break
            if path in protected:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            with self._lock:
                self.stats.evictions += 1
            _CACHE_EVENTS.inc(event="evict")
            obs.EVENTS.emit("cache_evict", key=path.stem, bytes=size)
        with self._lock:
            self._size_estimate = total
        _CACHE_SIZE.set(total)
        return removed

    def describe(self) -> str:
        """Human-readable cache summary used by ``python -m repro cache info``."""
        count = len(self)
        limit = "unbounded" if self.max_bytes is None else f"limit {self.max_bytes / 1e6:.2f} MB"
        return (
            f"artifact cache at {self.root}: {count} artifacts, "
            f"{self.size_bytes() / 1e6:.2f} MB, {limit} ({self.stats.describe()})"
        )
