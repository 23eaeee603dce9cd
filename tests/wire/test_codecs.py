"""Codec registry, round-trip and stated-bound tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.units import MILLIWATTS_PER_WATT
from repro.wire.codecs import (
    CODEC_NAMES,
    ZlibCodec,
    _varint_decode,
    available_codecs,
    codec_for_frame,
    make_codec,
)
from repro.wire.framing import FLAG_ZLIB, encode_frame
from repro.wire.session import WireReader


@pytest.fixture()
def watts(rng) -> np.ndarray:
    """A plausible telemetry block: slow drift + small jitter."""
    n_ticks, n_nodes = 40, 6
    base = 1500.0 + 40.0 * rng.standard_normal(n_nodes)
    drift = np.linspace(0.0, 25.0, n_ticks)[:, None]
    return base[None, :] + drift + rng.normal(0.0, 3.0, (n_ticks, n_nodes))


class TestRegistry:
    def test_factory_knows_every_advertised_spec(self):
        for spec in available_codecs():
            codec = make_codec(spec)
            assert codec.name == spec

    def test_unknown_spec_is_a_loud_error(self):
        with pytest.raises(ValueError, match="unknown codec"):
            make_codec("gzip")

    def test_factory_passes_codec_instances_through(self):
        codec = make_codec("raw64")
        assert make_codec(codec) is codec

    def test_zlib_layers_do_not_stack(self):
        with pytest.raises(ValueError, match="stack"):
            ZlibCodec(make_codec("zlib(raw64)"))

    def test_codec_for_frame_reconstructs_the_composition(self):
        inner = make_codec("delta-varint")
        rebuilt = codec_for_frame(inner.codec_id, FLAG_ZLIB)
        assert rebuilt.name == "zlib(delta-varint)"
        assert codec_for_frame(inner.codec_id, 0).name == "delta-varint"

    def test_unregistered_id_raises_value_error(self):
        with pytest.raises(ValueError, match="unregistered"):
            codec_for_frame(200, 0)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "spec", ["raw64", "zlib(raw64)"]
    )
    def test_raw64_is_bit_identical(self, spec, watts):
        codec = make_codec(spec)
        payload, bound = codec.encode(watts)
        decoded, dec_bound = codec.decode(payload, *watts.shape)
        assert bound == dec_bound == 0.0
        assert decoded.tobytes() == watts.tobytes()

    @pytest.mark.parametrize(
        "spec", ["delta-varint", "zlib(delta-varint)"]
    )
    def test_delta_varint_is_lossless_on_the_milliwatt_grid(
        self, spec, watts
    ):
        codec = make_codec(spec)
        payload, bound = codec.encode(watts)
        decoded, _ = codec.decode(payload, *watts.shape)
        grid = np.rint(watts * MILLIWATTS_PER_WATT) / MILLIWATTS_PER_WATT
        np.testing.assert_array_equal(decoded, grid)
        assert np.abs(decoded - watts).max() <= bound
        # Re-encoding the decoded matrix round-trips bit-identically.
        payload2, _ = codec.encode(decoded)
        decoded2, _ = codec.decode(payload2, *watts.shape)
        assert decoded2.tobytes() == decoded.tobytes()

    @pytest.mark.parametrize("spec", ["quant8", "quant12"])
    def test_lossy_codecs_honour_their_stated_bound(self, spec, watts):
        codec = make_codec(spec)
        payload, bound = codec.encode(watts)
        decoded, dec_bound = codec.decode(payload, *watts.shape)
        assert dec_bound == bound  # bound recoverable from payload alone
        assert np.abs(decoded - watts).max() <= bound + 1e-12

    def test_quant12_is_tighter_than_quant8(self, watts):
        _, bound8 = make_codec("quant8").encode(watts)
        _, bound12 = make_codec("quant12").encode(watts)
        assert bound12 < bound8

    def test_constant_matrix_quantises_exactly(self):
        watts = np.full((5, 3), 321.5)
        for spec in CODEC_NAMES:
            codec = make_codec(spec)
            payload, bound = codec.encode(watts)
            decoded, _ = codec.decode(payload, 5, 3)
            np.testing.assert_allclose(decoded, watts, atol=max(bound, 0))

    def test_odd_sample_count_survives_quant12_pair_padding(self):
        watts = np.linspace(100.0, 200.0, 15).reshape(5, 3)
        codec = make_codec("quant12")
        payload, bound = codec.encode(watts)
        decoded, _ = codec.decode(payload, 5, 3)
        assert np.abs(decoded - watts).max() <= bound + 1e-12


class TestEncodeValidation:
    @pytest.mark.parametrize(
        "spec", ["delta-varint", "quant8", "quant12"]
    )
    def test_non_finite_samples_are_refused(self, spec):
        watts = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(ValueError, match="finite"):
            make_codec(spec).encode(watts)

    def test_one_dimensional_input_is_refused(self):
        with pytest.raises(ValueError, match="2-D"):
            make_codec("raw64").encode(np.arange(4.0))

    def test_milliwatt_grid_overflow_is_loud(self):
        watts = np.full((2, 2), 1e19)
        with pytest.raises(ValueError, match="overflow"):
            make_codec("delta-varint").encode(watts)


class TestDecodeValidation:
    @pytest.mark.parametrize("spec", CODEC_NAMES)
    def test_wrong_length_payload_raises_value_error(self, spec):
        codec = make_codec(spec)
        payload, _ = codec.encode(np.ones((4, 3)))
        with pytest.raises(ValueError):
            codec.decode(payload, 7, 5)

    def test_varint_trailing_bytes_are_rejected(self):
        codec = make_codec("delta-varint")
        payload, _ = codec.encode(np.ones((2, 2)))
        with pytest.raises(ValueError, match="trailing"):
            # A dangling continuation byte: value count still matches,
            # but the stream doesn't end on the last value.
            codec.decode(payload + b"\x80", 2, 2)

    @pytest.mark.parametrize(
        "varint", [b"\x80" * 9 + b"\x02", b"\xff" * 9 + b"\x7f"]
    )
    def test_varint_overflowing_64_bits_is_rejected(self, varint):
        # The 10th byte of a uint64 varint holds bit 63 alone; these
        # used to wrap silently to 0 and 2**64 - 1.
        with pytest.raises(ValueError, match="overflows 64 bits"):
            make_codec("delta-varint").decode(varint, 1, 1)

    def test_varint_reaching_bit_63_still_decodes(self):
        top = np.frombuffer(b"\xff" * 9 + b"\x01", dtype=np.uint8)
        assert _varint_decode(top, 1).tolist() == [2**64 - 1]

    def test_reader_books_an_overflowing_frame_as_undecodable(self):
        reader = WireReader(dt_s=1.0)
        payload = np.zeros(1, dtype="<f8").tobytes() + b"\x80" * 9 + b"\x02"
        data = encode_frame(
            codec_id=make_codec("delta-varint").codec_id, flags=0, seq=0,
            node_lo=0, n_nodes=1, n_ticks=1, tick=0, payload=payload,
        )
        (gap,) = reader.feed(data) + reader.close()
        assert np.isnan(gap.watts).all()  # the frame's rows, as a gap
        assert reader.frames_undecodable == 1
        assert reader.frames_ok == 0

    def test_quant_header_must_be_finite(self):
        codec = make_codec("quant8")
        payload, _ = codec.encode(np.ones((2, 2)))
        bad = np.array([np.nan, 1.0], dtype="<f8").tobytes() + payload[16:]
        with pytest.raises(ValueError, match="malformed"):
            codec.decode(bad, 2, 2)

    def test_zlib_garbage_is_a_value_error_not_a_crash(self):
        codec = make_codec("zlib(raw64)")
        with pytest.raises(ValueError, match="zlib layer"):
            codec.decode(b"not deflate data", 2, 2)
