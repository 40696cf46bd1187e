"""Tests for content hashing and the on-disk artifact cache.

Covers the satellite requirements: hash stability across processes,
invalidation when the technology card / operating conditions / plan / code
version change, corrupt-artifact recovery, and warm characterisation runs
that never touch the reference solver.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import tempfile
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.runtime.cache as cache_module
import repro.runtime.jobs as jobs_module
from repro import obs
from repro.circuits.conditions import OperatingConditions
from repro.circuits.technology import ProcessCorner, tsmc65_like
from repro.core.characterization import CharacterizationPlan, characterize
from repro.runtime import (
    Artifact,
    ArtifactCache,
    SweepEngine,
    code_version,
    default_cache_dir,
    fingerprint,
    job_key,
)

_SUBPROCESS_KEY_SCRIPT = """\
from repro.circuits.technology import tsmc65_like
from repro.core.characterization import CharacterizationPlan
from repro.runtime import job_key
print(job_key("char-base", tsmc65_like(), CharacterizationPlan.quick()))
"""


def _fail_artifact_writes(monkeypatch, error):
    """Make the artifact tmp handle's ``write`` raise ``error``."""
    real_fdopen = os.fdopen

    class FailingHandle:
        def __init__(self, handle):
            self._handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self._handle.close()

        def write(self, data):
            raise error

    monkeypatch.setattr(
        cache_module.os, "fdopen", lambda fd, mode: FailingHandle(real_fdopen(fd, mode))
    )


class TestFingerprint:
    def test_stable_within_process(self):
        technology = tsmc65_like()
        plan = CharacterizationPlan.quick()
        assert fingerprint(technology, plan) == fingerprint(technology, plan)

    def test_stable_across_processes(self):
        """Keys never depend on hash randomisation, id() or repr caprice."""
        local = job_key("char-base", tsmc65_like(), CharacterizationPlan.quick())
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "271828"  # force a different hash seed
        remote = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_KEY_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert remote == local

    def test_technology_change_invalidates(self):
        base = tsmc65_like()
        assert fingerprint(base) != fingerprint(base.scaled(vth_nominal=0.36))
        assert fingerprint(base) != fingerprint(base.scaled(bitline_capacitance=51e-15))

    def test_plan_change_invalidates(self):
        quick = CharacterizationPlan.quick()
        bigger = CharacterizationPlan.quick()
        bigger = type(bigger)(
            times=quick.times,
            wordline_voltages=quick.wordline_voltages,
            supply_voltages=(0.9, 1.0),
            temperatures_celsius=quick.temperatures_celsius,
            mismatch_wordline_voltages=quick.mismatch_wordline_voltages,
            mismatch_samples=quick.mismatch_samples,
        )
        assert fingerprint(quick) != fingerprint(bigger)

    def test_conditions_change_invalidates(self):
        nominal = OperatingConditions(vdd=1.0, temperature=300.15)
        assert fingerprint(nominal) != fingerprint(nominal.with_vdd(1.05))
        assert fingerprint(nominal) != fingerprint(nominal.with_temperature(310.0))
        assert fingerprint(nominal) != fingerprint(
            nominal.with_corner(ProcessCorner.FAST)
        )

    def test_code_version_change_invalidates(self, monkeypatch):
        key_before = job_key("tag", 1)
        monkeypatch.setattr(jobs_module, "_CODE_VERSION", "0.0.0+deadbeef")
        assert job_key("tag", 1) != key_before

    def test_code_version_includes_source_digest(self):
        version = code_version()
        assert version.startswith(repro.__version__ + "+")
        assert len(version.split("+", 1)[1]) == 16

    def test_array_and_container_support(self):
        array = np.linspace(0.0, 1.0, 7)
        assert fingerprint(array) == fingerprint(array.copy())
        assert fingerprint(array) != fingerprint(array[:-1])
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint((1, 2)) == fingerprint([1, 2])
        assert fingerprint(np.float64(0.1)) == fingerprint(0.1)

    def test_unfingerprintable_value_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            fingerprint(Opaque())


class TestArtifactCache:
    def test_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = job_key("test-artifact", 1)
        artifact = Artifact(
            arrays={"x": np.arange(5.0), "y": np.ones((2, 3))},
            meta={"label": "toy", "count": 5},
        )
        path = cache.put(key, artifact)
        assert path.exists() and path.suffix == ".art"
        assert cache.has(key)
        loaded = cache.get(key)
        np.testing.assert_array_equal(loaded.arrays["x"], artifact.arrays["x"])
        np.testing.assert_array_equal(loaded.arrays["y"], artifact.arrays["y"])
        assert loaded.meta == artifact.meta
        assert cache.stats.hits == 1 and cache.stats.writes == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get(job_key("nothing")) is None
        assert cache.stats.misses == 1

    def test_corrupt_artifact_recovery(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = job_key("corrupt-me")
        cache.put(key, Artifact(arrays={"x": np.arange(3.0)}))
        path = cache.path_for(key)
        path.write_bytes(b"this is not an artifact")
        assert cache.get(key) is None
        assert not path.exists(), "corrupt artifact must be deleted"
        assert cache.stats.corrupt_dropped == 1
        # the key is usable again after recovery
        cache.put(key, Artifact(arrays={"x": np.arange(3.0)}))
        np.testing.assert_array_equal(cache.get(key).arrays["x"], np.arange(3.0))

    def test_invalid_key_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ValueError):
            cache.path_for("../escape")
        with pytest.raises(ValueError):
            cache.path_for("")

    def test_len_size_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for index in range(3):
            cache.put(job_key("bulk", index), Artifact(arrays={"x": np.arange(4.0)}))
        assert len(cache) == 3
        assert cache.size_bytes() > 0
        assert set(cache.keys()) == {job_key("bulk", i) for i in range(3)}
        assert cache.clear() == 3
        assert len(cache) == 0
        assert "artifact cache" in cache.describe()

    def test_default_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        assert ArtifactCache().root == tmp_path / "override"


def _frame(header, payload):
    """An artifact file holding ``header`` and ``payload`` with a matching CRC."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    crc = zlib.crc32(payload, zlib.crc32(header_bytes))
    return b"REPRO-ART1\n%s %08x\n%s" % (header_bytes, crc, payload)


def _header(arrays=(("x", "<f8", [4]),), payload_bytes=32):
    return {
        "arrays": [{"name": n, "dtype": d, "shape": s} for n, d, s in arrays],
        "meta": {},
        "payload_bytes": payload_bytes,
    }


#: The artifact ``{"x": np.arange(4.0)}`` as ``put`` writes it.
_GOOD_PAYLOAD = np.arange(4.0).tobytes()
_GOOD_FILE = _frame(_header(), _GOOD_PAYLOAD)

#: Each fault turns the good file into a corrupt one.  The header faults
#: carry a matching CRC, so they reach the array codec's own checks.
_FAULTS = {
    "truncated payload": _GOOD_FILE[:-5],
    "flipped payload byte": _GOOD_FILE[:-3] + bytes([_GOOD_FILE[-3] ^ 0x10]) + _GOOD_FILE[-2:],
    "wrong magic": b"REPRO-ART0" + _GOOD_FILE[10:],
    "header without newline": _GOOD_FILE[: _GOOD_FILE.index(b"\n", 11)],
    "spec longer than payload": _frame(_header(arrays=[("x", "<f8", [5])]), _GOOD_PAYLOAD),
    "undeclared trailing bytes": _frame(_header(payload_bytes=40), _GOOD_PAYLOAD + bytes(8)),
    "object dtype": _frame(_header(arrays=[("x", "|O", [4])]), _GOOD_PAYLOAD),
}

_DTYPES = ["|b1", "|i1", "<i2", ">i2", "<i4", ">i4", "<i8", ">i8",
           "<f4", ">f4", "<f8", ">f8", "<c16"]


@st.composite
def _any_array(draw):
    """Arbitrary bytes as any supported dtype: 0-d, empty or Fortran-ordered."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = draw(st.binary(min_size=nbytes, max_size=nbytes))
    array = np.array(bytearray(raw), dtype=np.uint8).view(dtype).reshape(shape)
    return np.asfortranarray(array) if draw(st.booleans()) else array


class TestArtifactFormat:
    def test_put_writes_the_documented_layout(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.put(job_key("layout"), Artifact(arrays={"x": np.arange(4.0)}))
        assert path.read_bytes() == _GOOD_FILE

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_corrupt_artifact_is_dropped_as_a_miss(self, tmp_path, fault):
        cache = ArtifactCache(tmp_path)
        key = job_key("fault", fault)
        path = cache.put(key, Artifact(arrays={"x": np.arange(4.0)}))
        path.write_bytes(_FAULTS[fault])
        events = obs.REGISTRY.counter("repro_cache_events_total", labels=("event",))
        corrupt_before = events.value(event="corrupt")
        assert cache.get(key) is None
        assert cache.stats.corrupt_dropped == 1 and cache.stats.misses == 1
        assert events.value(event="corrupt") == corrupt_before + 1
        assert not path.exists(), "a corrupt artifact must be deleted"

    @settings(max_examples=80, deadline=None)
    @given(
        arrays=st.dictionaries(st.text(min_size=1, max_size=6), _any_array(), max_size=4),
        meta=st.dictionaries(
            st.text(max_size=6),
            st.floats() | st.integers() | st.text(max_size=6) | st.none(),
            max_size=4,
        ),
    )
    def test_round_trip_is_byte_identical(self, arrays, meta):
        with tempfile.TemporaryDirectory() as root:
            cache = ArtifactCache(root)
            key = job_key("round-trip")
            cache.put(key, Artifact(arrays=arrays, meta=meta))
            loaded = cache.get(key)
        assert list(loaded.arrays) == list(arrays)
        for name, original in arrays.items():
            copy = loaded.arrays[name]
            assert copy.dtype.str == original.dtype.str
            assert copy.shape == original.shape
            assert copy.tobytes() == original.tobytes()
            assert copy.flags.writeable
        # NaN != NaN, so compare the canonical JSON (NaN/Infinity spelled out)
        assert json.dumps(loaded.meta, sort_keys=True) == json.dumps(meta, sort_keys=True)

    def test_put_rejects_object_arrays_before_touching_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        poisoned = Artifact(arrays={"x": np.array([{"a": 1}], dtype=object)})
        with pytest.raises(ValueError):
            cache.put(job_key("object"), poisoned)
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    def test_legacy_npz_files_are_counted_and_swept(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(job_key("legacy"), Artifact(arrays={"x": np.arange(4.0)}))
        clean_size = cache.size_bytes()
        legacy = cache.root / "cd" / ("cd" * 32 + ".npz")

        def plant():
            legacy.parent.mkdir(exist_ok=True)
            legacy.write_bytes(b"\0" * 1000)

        plant()
        assert cache.size_bytes() == clean_size + 1000
        assert len(cache) == 1, "a legacy file is not a live artifact"
        assert cache.evict(max_bytes=10**9) == 1
        assert not legacy.exists() and len(cache) == 1
        plant()
        assert cache.clear() == 2, "artifact + legacy file"
        assert not legacy.exists()

    def test_bytes_counter_moves_by_the_file_size(self, tmp_path):
        moved = obs.REGISTRY.counter("repro_cache_bytes_total", labels=("direction",))
        read_before = moved.value(direction="read")
        write_before = moved.value(direction="write")
        cache = ArtifactCache(tmp_path)
        key = job_key("bytes")
        path = cache.put(key, Artifact(arrays={"x": np.arange(8.0)}, meta={"n": 8}))
        size = path.stat().st_size
        assert moved.value(direction="write") == write_before + size
        assert moved.value(direction="read") == read_before
        assert cache.get(key) is not None
        assert moved.value(direction="read") == read_before + size
        assert moved.value(direction="write") == write_before + size


class TestCharacterizationCaching:
    def test_warm_run_skips_reference_solver(self, technology, tmp_path, monkeypatch):
        """A warm cache serves every sweep without constructing the solver."""
        plan = CharacterizationPlan.quick()
        engine = SweepEngine(cache=ArtifactCache(tmp_path))
        cold = characterize(technology, plan, engine=engine)

        class ExplodingSolver:
            def __init__(self, *args, **kwargs):
                raise AssertionError("reference solver touched on a warm cache run")

        import repro.core.characterization as characterization_module

        monkeypatch.setattr(characterization_module, "TransientSolver", ExplodingSolver)
        warm = characterize(technology, plan, engine=engine)
        np.testing.assert_array_equal(
            cold.base.bitline_voltage, warm.base.bitline_voltage
        )
        np.testing.assert_array_equal(
            cold.supply.bitline_voltage, warm.supply.bitline_voltage
        )
        np.testing.assert_array_equal(cold.mismatch.sigma, warm.mismatch.sigma)
        np.testing.assert_array_equal(
            cold.discharge_energy.energy, warm.discharge_energy.energy
        )
        assert engine.stats.cache_hits > 0

    def test_technology_change_misses_cache(self, technology, tmp_path):
        plan = CharacterizationPlan.quick()
        cache = ArtifactCache(tmp_path)
        characterize(technology, plan, engine=SweepEngine(cache=cache))
        writes_before = cache.stats.writes
        assert writes_before > 0
        characterize(
            technology.scaled(vth_nominal=0.36, name="shifted"),
            plan,
            engine=SweepEngine(cache=cache),
        )
        assert cache.stats.writes == 2 * writes_before, (
            "a different technology card must not reuse cached sweeps"
        )

    def test_injected_solver_disables_caching(self, technology, solver, tmp_path):
        plan = CharacterizationPlan.quick()
        cache = ArtifactCache(tmp_path)
        characterize(technology, plan, solver=solver, engine=SweepEngine(cache=cache))
        assert len(cache) == 0
        assert cache.stats.writes == 0


class TestFingerprintKeyTypes:
    def test_dict_key_type_collision_regression(self):
        """`{1: x}` and `{"1": x}` are distinct inputs and must not share a
        fingerprint (previously dict keys were stringified)."""
        assert fingerprint({1: "x"}) != fingerprint({"1": "x"})
        assert fingerprint({True: "x"}) != fingerprint({1: "x"})
        assert fingerprint({1.0: "x"}) != fingerprint({1: "x"})
        assert fingerprint({None: "x"}) != fingerprint({"None": "x"})

    def test_dict_key_order_still_canonical(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({2: "x", 10: "y"}) == fingerprint({10: "y", 2: "x"})

    def test_mixed_key_types_are_stable(self):
        mixed = {1: "a", "1": "b", 2.5: "c"}
        assert fingerprint(mixed) == fingerprint(dict(reversed(list(mixed.items()))))


class TestStrayTmpFiles:
    def _plant_stale_tmp(self, cache, age_seconds=7200.0, size=2048):
        shard = cache.root / "ab"
        shard.mkdir(parents=True, exist_ok=True)
        tmp = shard / "crashed-put.art.tmp"
        tmp.write_bytes(b"\0" * size)
        stale = time.time() - age_seconds
        os.utime(tmp, (stale, stale))
        return tmp

    def test_size_bytes_counts_stray_tmp_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(job_key("tmp-sweep", 0), Artifact(arrays={"x": np.arange(4.0)}))
        clean_size = cache.size_bytes()
        tmp = self._plant_stale_tmp(cache)
        assert cache.size_bytes() == clean_size + tmp.stat().st_size

    def test_clear_sweeps_stray_tmp_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(job_key("tmp-sweep", 1), Artifact(arrays={"x": np.arange(4.0)}))
        tmp = self._plant_stale_tmp(cache)
        assert cache.clear() == 2, "artifact + stray tmp file"
        assert not tmp.exists()
        assert cache.size_bytes() == 0

    def test_evict_sweeps_stale_tmp_but_not_fresh_ones(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stale = self._plant_stale_tmp(cache)
        fresh = cache.root / "ab" / "in-flight.art.tmp"
        fresh.write_bytes(b"\0" * 512)  # recent: could be an in-flight put
        cache.evict(max_bytes=10**9)
        assert not stale.exists()
        assert fresh.exists()

    def test_failed_put_cleans_its_tmp_file(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        _fail_artifact_writes(monkeypatch, OSError("disk full"))
        with pytest.raises(OSError):
            cache.put(job_key("fail-put"), Artifact(arrays={"x": np.arange(2.0)}))
        assert list(cache.root.glob("*/*.art.tmp")) == []


class TestCacheWriteFailure:
    def test_full_disk_degrades_to_uncached_results(self, tmp_path, monkeypatch):
        """A cache write that fails with ENOSPC costs the cache its artifact,
        never the sweep its results."""
        from repro.analysis.pvt_sweeps import mismatch_monte_carlo_sharded

        technology = tsmc65_like()
        panel = dict(samples=24, seed=11, shards=4)
        uncached = mismatch_monte_carlo_sharded(technology, engine=SweepEngine(), **panel)

        _fail_artifact_writes(monkeypatch, OSError(errno.ENOSPC, "No space left on device"))
        events = obs.REGISTRY.counter("repro_cache_events_total", labels=("event",))
        errors_before = events.value(event="write_error")
        cache = ArtifactCache(tmp_path / "cache")
        cached = mismatch_monte_carlo_sharded(
            technology, engine=SweepEngine(cache=cache), **panel
        )

        assert set(cached) == set(uncached)
        for name, value in uncached.items():
            assert cached[name].tobytes() == value.tobytes(), name
        assert events.value(event="write_error") == errors_before + 4
        assert list(cache.root.glob("*/*.art.tmp")) == []
        assert len(cache) == 0


class TestLruEviction:
    def _put(self, cache, tag, index, age_seconds):
        key = job_key(tag, index)
        path = cache.put(key, Artifact(arrays={"x": np.zeros(256)}))
        stamp = time.time() - age_seconds
        os.utime(path, (stamp, stamp))
        return key

    def test_evict_removes_least_recently_used_first(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        oldest = self._put(cache, "lru", 0, age_seconds=300)
        middle = self._put(cache, "lru", 1, age_seconds=200)
        newest = self._put(cache, "lru", 2, age_seconds=100)
        per_artifact = cache.size_bytes() // 3
        removed = cache.evict(max_bytes=2 * per_artifact)
        assert removed == 1
        assert not cache.has(oldest)
        assert cache.has(middle) and cache.has(newest)
        assert cache.stats.evictions == 1

    def test_get_bumps_recency(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        touched = self._put(cache, "bump", 0, age_seconds=300)
        untouched = self._put(cache, "bump", 1, age_seconds=200)
        assert cache.get(touched) is not None  # refreshes atime+mtime
        per_artifact = cache.size_bytes() // 2
        cache.evict(max_bytes=per_artifact)
        assert cache.has(touched), "a cache hit must protect against eviction"
        assert not cache.has(untouched)

    def test_put_auto_evicts_over_max_bytes(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=1)  # every put overflows
        first = self._put(cache, "auto", 0, age_seconds=100)
        second_key = job_key("auto", 1)
        cache.put(second_key, Artifact(arrays={"x": np.zeros(256)}))
        assert cache.has(second_key), "the artifact just written must survive"
        assert not cache.has(first)
        assert cache.stats.evictions == 1

    def test_max_bytes_enforced_after_put(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=6500)
        keys = []
        for index in range(8):
            keys.append(job_key("bound", index))
            path = cache.put(keys[-1], Artifact(arrays={"x": np.zeros(256)}))
            stamp = time.time() - (100 - index)  # strictly increasing recency
            os.utime(path, (stamp, stamp))
            assert cache.size_bytes() <= 6500
        assert cache.has(keys[-1])
        survivors = set(cache.keys())
        assert survivors == set(keys[-len(survivors):]), "eviction is LRU-ordered"

    def test_surviving_artifact_still_serves_warm_runs(self, tmp_path):
        """Eviction of cold artifacts must not invalidate surviving ones."""
        cache = ArtifactCache(tmp_path)
        evicted = self._put(cache, "warm", 0, age_seconds=300)
        survivor = self._put(cache, "warm", 1, age_seconds=100)
        per_artifact = cache.size_bytes() // 2
        cache.evict(max_bytes=per_artifact)
        executions = []

        def producer(value):
            executions.append(value)
            return np.zeros(256)

        engine = SweepEngine(cache=cache)
        job = jobs_module.Job(
            fn=producer,
            args=(1,),
            name="warm",
            key=survivor,
            encode=lambda result: Artifact(arrays={"x": result}),
            decode=lambda artifact: artifact.arrays["x"],
        )
        engine.run_one(job)
        assert executions == [], "surviving artifact must serve the warm run"
        assert not cache.has(evicted)

    def test_evict_without_limit_raises(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ValueError):
            cache.evict()

    def test_negative_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactCache(tmp_path, max_bytes=-1)

    def test_describe_reports_limit(self, tmp_path):
        assert "unbounded" in ArtifactCache(tmp_path).describe()
        assert "limit" in ArtifactCache(tmp_path, max_bytes=10**6).describe()
