"""Fuzz and conformance tests for the binary wire framing (repro.wire).

The binary-frame rules under test:

* a JSON header line carrying ``{"binary": N}`` is followed by exactly
  ``N`` raw payload bytes, attached under ``wire.PAYLOAD_KEY``;
* the declared length is validated against ``MAX_BINARY_BYTES`` *before*
  any payload byte is buffered;
* every malformed input — torn payloads, bad declared lengths, reserved
  keys inside the JSON line — raises :class:`ProtocolError` promptly
  instead of hanging the reader or growing its buffer;
* :func:`pack_arrays` / :func:`unpack_arrays` round-trip NumPy arrays
  bit-exactly and reject inconsistent specs.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire

#: Every read in this file is wrapped in a timeout: a reader that blocks on
#: malformed input is exactly the bug the suite exists to catch.
READ_TIMEOUT = 5.0


def _read_all(data: bytes, limit: int = wire.MAX_MESSAGE_BYTES):
    """Feed ``data`` + EOF into a fresh stream and read messages until EOF."""

    async def scenario():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        messages = []
        while True:
            message = await asyncio.wait_for(
                wire.read_message(reader), timeout=READ_TIMEOUT
            )
            if message is None:
                return messages
            messages.append(message)

    return asyncio.run(scenario())


def _read_one(data: bytes, limit: int = wire.MAX_MESSAGE_BYTES):
    return _read_all(data, limit=limit)[0]


class TestBinaryRoundTrip:
    def test_payload_attached_under_reserved_key(self):
        frame = wire.encode_binary({"op": "blob", "chunk": 3}, b"\x00\x01\xffdata")
        message = _read_one(frame)
        assert message["op"] == "blob"
        assert message["chunk"] == 3
        assert message[wire.BINARY_KEY] == 7
        assert message[wire.PAYLOAD_KEY] == b"\x00\x01\xffdata"

    def test_zero_length_payload(self):
        frame = wire.encode_binary({"op": "empty"}, b"")
        message = _read_one(frame)
        assert message[wire.PAYLOAD_KEY] == b""

    def test_binary_and_text_frames_interleave_on_one_stream(self):
        stream = (
            wire.encode_message({"op": "a"})
            + wire.encode_binary({"op": "b"}, b"xyz")
            + wire.encode_message({"op": "c"})
        )
        messages = _read_all(stream)
        assert [m["op"] for m in messages] == ["a", "b", "c"]
        assert messages[1][wire.PAYLOAD_KEY] == b"xyz"
        assert wire.PAYLOAD_KEY not in messages[0]

    def test_payload_bytes_are_opaque_even_when_they_look_like_json(self):
        """JSON lines inside a declared payload are payload, not frames."""
        payload = wire.encode_message({"op": "smuggled"}) * 3
        stream = wire.encode_binary({"op": "outer"}, payload) + wire.encode_message(
            {"op": "after"}
        )
        messages = _read_all(stream)
        assert [m["op"] for m in messages] == ["outer", "after"]
        assert messages[0][wire.PAYLOAD_KEY] == payload

    @given(payload=st.binary(max_size=4096), extra=st.integers(min_value=0, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_any_payload(self, payload, extra):
        tail = wire.encode_message({"op": "tail", "n": extra})
        messages = _read_all(wire.encode_binary({"op": "fuzz"}, payload) + tail)
        assert messages[0][wire.PAYLOAD_KEY] == payload
        assert messages[1]["n"] == extra


class TestMalformedFrames:
    def test_torn_payload_raises_promptly(self):
        frame = wire.encode_binary({"op": "torn"}, b"x" * 100)
        with pytest.raises(wire.ProtocolError, match="mid-payload"):
            _read_one(frame[:-40])

    def test_declared_longer_than_actual(self):
        header = wire.encode_message({wire.BINARY_KEY: 1000})
        with pytest.raises(wire.ProtocolError, match="mid-payload"):
            _read_one(header + b"only-a-few-bytes")

    def test_declared_above_bound_rejected_before_buffering(self):
        header = wire.encode_message({wire.BINARY_KEY: wire.MAX_BINARY_BYTES + 1})
        with pytest.raises(wire.ProtocolError, match="exceeds"):
            # No payload follows at all: the length alone must be rejected.
            _read_one(header)

    def test_absurd_declared_length_needs_no_memory(self):
        header = wire.encode_message({wire.BINARY_KEY: 10**18})
        with pytest.raises(wire.ProtocolError, match="exceeds"):
            _read_one(header)

    @pytest.mark.parametrize("declared", [-1, -(10**9), True, False, 1.5, "12", None, [4]])
    def test_bad_declared_length_types(self, declared):
        line = json.dumps({"op": "x", wire.BINARY_KEY: declared}).encode() + b"\n"
        with pytest.raises(wire.ProtocolError):
            _read_one(line)

    def test_reserved_payload_key_inside_line_rejected(self):
        line = json.dumps({"op": "x", wire.PAYLOAD_KEY: "spoof"}).encode() + b"\n"
        with pytest.raises(wire.ProtocolError, match="reserved"):
            _read_one(line)

    def test_encode_binary_rejects_reserved_keys(self):
        with pytest.raises(wire.ProtocolError):
            wire.encode_binary({wire.BINARY_KEY: 1}, b"")
        with pytest.raises(wire.ProtocolError):
            wire.encode_binary({wire.PAYLOAD_KEY: b""}, b"")

    def test_encode_binary_rejects_oversize_payload(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_BINARY_BYTES", 16)
        with pytest.raises(wire.ProtocolError, match="exceeds"):
            wire.encode_binary({"op": "big"}, b"x" * 17)

    @given(data=st.binary(max_size=2048))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes_never_hang(self, data):
        """Any byte stream either parses or raises ProtocolError — never hangs."""
        try:
            _read_all(data, limit=4096)
        except wire.ProtocolError:
            pass


class TestArrayCodec:
    @pytest.mark.parametrize(
        "dtype", ["<f8", "<f4", "<i8", "<i4", "<u2", "|u1", "<c16", "|b1"]
    )
    def test_round_trip_preserves_bytes_dtype_shape(self, dtype):
        rng = np.random.default_rng(11)
        arrays = [
            (rng.standard_normal((3, 4, 2)) * 100).astype(dtype),
            np.zeros(0, dtype=dtype),
            (rng.standard_normal(7) * 10).astype(dtype),
        ]
        specs, payload = wire.pack_arrays(arrays)
        restored = wire.unpack_arrays(specs, payload)
        assert len(restored) == len(arrays)
        for original, copy in zip(arrays, restored):
            assert copy.dtype == original.dtype
            assert copy.shape == original.shape
            assert copy.tobytes() == original.tobytes()

    def test_unpacked_arrays_are_zero_copy_views(self):
        array = np.arange(12, dtype=np.float64).reshape(3, 4)
        specs, payload = wire.pack_arrays([array])
        restored = wire.unpack_arrays(specs, payload)[0]
        assert restored.base is not None  # a view, not a copy
        assert not restored.flags.writeable

    def test_non_contiguous_input_is_packed_contiguously(self):
        array = np.arange(20, dtype=np.float64).reshape(4, 5)[:, ::2]
        specs, payload = wire.pack_arrays([array])
        restored = wire.unpack_arrays(specs, payload)[0]
        assert np.array_equal(restored, array)

    def test_zero_dimensional_arrays_stay_zero_dimensional(self):
        arrays = [np.array(2.5), np.array(True), np.array(7, dtype=">i8")]
        specs, payload = wire.pack_arrays(arrays)
        assert [spec["shape"] for spec in specs] == [[], [], []]
        for original, copy in zip(arrays, wire.unpack_arrays(specs, payload)):
            assert copy.shape == () and copy.dtype == original.dtype
            assert copy.tobytes() == original.tobytes()

    def test_rejects_non_arrays_and_object_dtypes(self):
        with pytest.raises(wire.ProtocolError):
            wire.pack_arrays([[1, 2, 3]])
        with pytest.raises(wire.ProtocolError):
            wire.pack_arrays([np.array([object()])])
        with pytest.raises(wire.ProtocolError):
            wire.unpack_arrays([{"dtype": "|O", "shape": [1]}], b"")

    def test_rejects_short_payload_and_trailing_bytes(self):
        specs, payload = wire.pack_arrays([np.arange(4, dtype=np.float64)])
        with pytest.raises(wire.ProtocolError, match="shorter"):
            wire.unpack_arrays(specs, payload[:-1])
        with pytest.raises(wire.ProtocolError, match="trailing"):
            wire.unpack_arrays(specs, payload + b"\x00")

    def test_rejects_malformed_specs(self):
        for spec in (
            "not-a-dict",
            {},
            {"dtype": "<f8"},
            {"dtype": "no-such-dtype", "shape": [1]},
            {"dtype": "<f8", "shape": [-1]},
            {"dtype": "<f8", "shape": "oops"},
        ):
            with pytest.raises(wire.ProtocolError):
                wire.unpack_arrays([spec], b"\x00" * 8)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_fuzzed_arrays_survive_a_full_wire_trip(self, seed, count):
        rng = np.random.default_rng(seed)
        dtypes = ["<f8", "<f4", "<i8", "<i2", "|u1"]
        arrays = []
        for _ in range(count):
            shape = tuple(int(n) for n in rng.integers(0, 5, size=int(rng.integers(1, 4))))
            dtype = dtypes[int(rng.integers(0, len(dtypes)))]
            arrays.append((rng.standard_normal(shape) * 50).astype(dtype))
        specs, payload = wire.pack_arrays(arrays)
        frame = wire.encode_binary({"op": "arrays", "arrays": specs}, payload)
        message = _read_one(frame)
        restored = wire.unpack_arrays(message["arrays"], message[wire.PAYLOAD_KEY])
        for original, copy in zip(arrays, restored):
            assert copy.dtype == original.dtype
            assert copy.shape == original.shape
            assert copy.tobytes() == original.tobytes()
