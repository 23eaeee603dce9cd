"""Property-based wire invariants (hypothesis).

Three contracts the ISSUE pins down:

* lossless codecs round-trip **bit-identically** (raw64 exactly;
  delta-varint after one trip onto its declared milliwatt grid);
* lossy codecs never exceed their **stated** per-sample bound;
* the frame parser **never raises**, whatever bytes arrive, and its
  sequence-gap accounting is exact for arbitrary drop patterns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.stream.ingest import SampleBatch
from repro.units import MILLIWATTS_PER_WATT
from repro.wire.codecs import (
    CODEC_NAMES,
    _varint_decode,
    _varint_encode,
    make_codec,
)
from repro.wire.framing import FrameParser, encode_frame
from repro.wire.session import WireReader, WireWriter

matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=8),
    ),
    elements=st.floats(min_value=0.0, max_value=1e6),
)


class TestCodecProperties:
    @given(matrices)
    def test_raw64_round_trip_is_bit_identical(self, watts):
        codec = make_codec("raw64")
        payload, bound = codec.encode(watts)
        decoded, _ = codec.decode(payload, *watts.shape)
        assert bound == 0.0
        assert decoded.tobytes() == watts.tobytes()

    @given(matrices, st.sampled_from(["delta-varint", "zlib(delta-varint)"]))
    def test_delta_varint_lands_exactly_on_the_milliwatt_grid(
        self, watts, spec
    ):
        codec = make_codec(spec)
        payload, bound = codec.encode(watts)
        decoded, _ = codec.decode(payload, *watts.shape)
        grid = np.rint(watts * MILLIWATTS_PER_WATT) / MILLIWATTS_PER_WATT
        np.testing.assert_array_equal(decoded, grid)
        assert np.abs(decoded - watts).max(initial=0.0) <= bound
        # Second trip is bit-identical: the grid is a fixed point.
        payload2, _ = codec.encode(decoded)
        decoded2, _ = codec.decode(payload2, *watts.shape)
        assert decoded2.tobytes() == decoded.tobytes()

    @given(matrices, st.sampled_from(["quant8", "quant12"]))
    def test_lossy_error_never_exceeds_the_stated_bound(self, watts, spec):
        codec = make_codec(spec)
        payload, bound = codec.encode(watts)
        decoded, dec_bound = codec.decode(payload, *watts.shape)
        assert dec_bound == bound
        # One ulp of slack for the affine reconstruction arithmetic.
        slack = 4.0 * np.spacing(np.abs(watts).max(initial=1.0))
        assert np.abs(decoded - watts).max(initial=0.0) <= bound + slack

    @given(matrices, st.sampled_from(CODEC_NAMES))
    def test_every_codec_encode_is_deterministic(self, watts, spec):
        a, bound_a = make_codec(spec).encode(watts)
        b, bound_b = make_codec(spec).encode(watts)
        assert a == b
        assert bound_a == bound_b


def _leb128_reference(data: bytes) -> list[int]:
    """Plain-Python LEB128: seven bits a byte, low group first."""
    values, value, shift = [], 0, 0
    for byte in data:
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            values.append(value)
            value, shift = 0, 0
    assert shift == 0, "dangling continuation byte"
    return values


#: A uint64 whose varint is exactly ``n`` bytes long, for n in 1..10.
def _of_varint_length(n: int):
    lo = 0 if n == 1 else 1 << (7 * (n - 1))
    hi = min((1 << (7 * n)) - 1, 2**64 - 1)
    return st.integers(min_value=lo, max_value=hi)


uint64_vectors = st.lists(
    st.one_of(
        st.integers(1, 10).flatmap(_of_varint_length),
        st.sampled_from([0, 127, 128, 2**63 - 1, 2**63, 2**64 - 1]),
    ),
    min_size=1,
    max_size=64,
)


class TestVarintDecoder:
    """The byte-slot gather decoder agrees with a plain LEB128 loop."""

    @given(uint64_vectors, st.integers(0, 9))
    def test_matches_the_reference_loop(self, values, floor):
        # ``floor`` lifts every value to at least ``floor + 1`` bytes,
        # so the shortest varint of a frame is not always one byte.
        if floor:
            values = [max(v, 1 << (7 * floor)) for v in values]
        vector = np.array(values, dtype=np.uint64)
        data = _varint_encode(vector)
        assert _leb128_reference(data) == values
        decoded = _varint_decode(np.frombuffer(data, np.uint8), len(values))
        assert decoded.dtype == np.uint64
        assert decoded.tolist() == values

    @given(uint64_vectors, st.integers(min_value=1, max_value=3))
    def test_value_count_mismatch_is_refused(self, values, off):
        data = np.frombuffer(
            _varint_encode(np.array(values, dtype=np.uint64)), np.uint8
        )
        for n_values in (len(values) + off, max(len(values) - off, 1)):
            if n_values != len(values):
                with pytest.raises(ValueError, match="expected"):
                    _varint_decode(data, n_values)

    @given(uint64_vectors, st.integers(min_value=0, max_value=0x7F))
    def test_an_eleven_byte_varint_is_refused(self, values, last):
        data = _varint_encode(np.array(values, dtype=np.uint64))
        data += b"\x80" * 10 + bytes([last])
        with pytest.raises(ValueError, match="longer than 10 bytes"):
            _varint_decode(np.frombuffer(data, np.uint8), len(values) + 1)


class TestParserNeverCrashes:
    @given(st.binary(max_size=600))
    def test_pure_garbage(self, data):
        parser = FrameParser()
        events = parser.feed(data) + parser.close()
        assert all(not e.ok for e in events)
        assert parser.bytes_fed == len(data)

    @given(
        st.binary(max_size=200),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=255),
            ),
            max_size=8,
        ),
        st.integers(min_value=1, max_value=97),
    )
    @settings(max_examples=60)
    def test_mutated_valid_stream(self, garbage, mutations, chunk):
        stream = bytearray(
            b"".join(
                encode_frame(
                    codec_id=1,
                    flags=0,
                    seq=i,
                    node_lo=0,
                    n_nodes=3,
                    n_ticks=2,
                    tick=2 * i,
                    payload=bytes(64),
                )
                for i in range(4)
            )
        )
        for pos, mask in mutations:
            stream[pos % len(stream)] ^= mask
        stream += garbage
        parser = FrameParser()
        events = []
        for i in range(0, len(stream), chunk):
            events.extend(parser.feed(bytes(stream[i : i + chunk])))
        events.extend(parser.close())
        # Conservation: every event is ok or corrupt, and if nothing
        # was mutated the four frames all survive.
        assert parser.frames_ok <= 4
        if not mutations and not garbage:
            assert parser.frames_ok == 4
            assert parser.garbage_bytes == 0


class TestSequenceGapAccounting:
    @given(
        st.sets(
            st.integers(min_value=0, max_value=9), max_size=9
        ),
        st.integers(min_value=1, max_value=101),
    )
    @settings(max_examples=60)
    def test_gap_detection_is_exact(self, dropped, chunk):
        n_frames, n_ticks, n_nodes = 10, 3, 4
        writer = WireWriter("raw64")
        frames = writer.write_all(
            [
                SampleBatch(
                    times=np.arange(i * n_ticks, (i + 1) * n_ticks) * 2.0,
                    watts=np.full((n_ticks, n_nodes), 100.0 + i),
                    node_ids=np.arange(n_nodes, dtype=np.int64),
                )
                for i in range(n_frames)
            ]
        )
        data = b"".join(
            f.data for f in frames if f.seq not in dropped
        )
        reader = WireReader(dt_s=2.0)
        batches = []
        for i in range(0, len(data), chunk):
            batches.extend(reader.feed(data[i : i + chunk]))
        batches.extend(reader.close())
        # Trailing drops are invisible to the reader (nothing follows
        # them); interior drops must be detected exactly.
        surviving = [i for i in range(n_frames) if i not in dropped]
        interior = {
            i for i in dropped if surviving and i < max(surviving, default=-1)
        }
        assert reader.frames_ok == len(surviving)
        assert reader.frames_missing == len(interior)
        assert reader.gap_ticks == n_ticks * len(interior)
        if surviving:
            watts = np.vstack([b.watts for b in batches])
            assert watts.shape[0] == n_ticks * (max(surviving) + 1)
            for i in range(max(surviving) + 1):
                rows = watts[i * n_ticks : (i + 1) * n_ticks]
                if i in dropped:
                    assert np.isnan(rows).all()
                else:
                    assert (rows == 100.0 + i).all()
        else:
            assert batches == []
