"""Payload codecs for the telemetry wire format.

A codec turns the ``watts`` matrix of one
:class:`~repro.stream.ingest.SampleBatch` into payload bytes and back,
and *states its own per-sample error bound* — the number the
:class:`~repro.faults.quality.QualityReport` stamps into the data's
provenance.  Four base codecs, behind a registry/factory:

``raw64`` (id 1)
    IEEE-754 float64 passthrough.  Bit-identical; bound 0 W.
``delta-varint`` (id 2)
    Quantise to integer milliwatts, take per-node first differences
    along time, zigzag-map to unsigned, and pack as LEB128 varints.
    Lossless *at the declared milliwatt resolution*: the round trip
    returns exactly ``rint(watts·1000)/1000``, so the per-sample error
    is at most half a milliwatt and re-encoding the decoded matrix is
    bit-identical.  Both directions are vectorised (one numpy pass per
    varint byte position), which is what carries the ≥10 M samples/s
    benchmark floor: the decoder gathers byte slot ``k`` of every
    varint at ``start + k``, the starts read off the terminal bytes.
    It refuses a 10-byte varint that carries more than bit 63 (a
    value that would wrap past 2⁶⁴ − 1) like any other malformed
    payload.
``quant8`` / ``quant12`` (ids 3 / 4)
    Lossy truncating codecs: per-frame affine quantisation to 8- or
    12-bit codes between the frame's min and max.  The per-sample
    error is at most half the step, and the *actual* step is written
    into the payload, so the decoder recovers the exact bound that
    held for each frame.

``zlib`` composes as an outer layer over any base codec
(``zlib(delta-varint)``): the frame's :data:`~repro.wire.framing.FLAG_ZLIB`
flag records it, the error bound is the inner codec's.

Everything here is a pure function of the input matrix — no RNG, no
clock — so encode/decode is trivially deterministic.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.units import (
    MILLIWATTS_PER_WATT,
    milliwatts_to_watts,
    watts_to_milliwatts,
)

__all__ = [
    "Codec",
    "Raw64Codec",
    "DeltaVarintCodec",
    "Quant8Codec",
    "Quant12Codec",
    "ZlibCodec",
    "CODEC_NAMES",
    "available_codecs",
    "make_codec",
    "codec_for_frame",
]

#: Half a milliwatt, in watts: the delta-varint grid's worst rounding.
_HALF_MILLIWATT_W = 0.5 / MILLIWATTS_PER_WATT


def _grid_bound_w(grid: np.ndarray) -> float:
    """Advertised error bound for a milliwatt-grid integer matrix.

    Half a milliwatt is exact in real arithmetic, but the
    float64-computed ``|decoded - original|`` can overshoot it by an
    ulp when a sample sits exactly on a half-grid boundary (e.g.
    1.1425 W), so pad by a few ulps at the peak magnitude.  Derived
    from the quantised grid — which encode and decode both hold — so
    writer and reader advertise bit-identical bounds.
    """
    peak_w = float(milliwatts_to_watts(np.abs(grid).max(initial=0)))
    return _HALF_MILLIWATT_W + 4.0 * float(np.spacing(max(peak_w, 1.0)))

#: Longest possible varint for a 64-bit value (ceil(64/7) bytes).
_MAX_VARINT_LEN = 10


class Codec:
    """One payload codec: name, wire id, and its honesty contract.

    ``encode`` returns ``(payload, error_bound_w)`` where the bound is
    the largest possible per-sample deviation of the decoded matrix
    from the encoded one; ``decode`` returns ``(watts, error_bound_w)``
    recovering the same bound from the payload alone.  ``decode``
    raises :class:`ValueError` on malformed payloads — the session
    layer catches it and books the frame as undecodable.
    """

    name: str = ""
    codec_id: int = 0
    lossless: bool = False

    def encode(self, watts: np.ndarray) -> tuple[bytes, float]:
        """Encode a watts matrix; returns ``(payload, error_bound_w)``."""
        raise NotImplementedError  # pragma: no cover - abstract

    def decode(
        self, payload: bytes, n_ticks: int, n_nodes: int
    ) -> tuple[np.ndarray, float]:
        """Decode a payload; returns ``(watts, error_bound_w)``."""
        raise NotImplementedError  # pragma: no cover - abstract


def _as_matrix(watts: np.ndarray) -> np.ndarray:
    watts = np.asarray(watts, dtype=np.float64)
    if watts.ndim != 2:
        raise ValueError("watts must be 2-D (n_ticks, n_nodes)")
    return np.ascontiguousarray(watts)


def _expect_len(payload: bytes, n_bytes: int, what: str) -> None:
    if len(payload) != n_bytes:
        raise ValueError(
            f"{what}: expected {n_bytes} payload bytes, got {len(payload)}"
        )


class Raw64Codec(Codec):
    """IEEE-754 float64 passthrough — the bit-identical reference."""

    name = "raw64"
    codec_id = 1
    lossless = True

    def encode(self, watts: np.ndarray) -> tuple[bytes, float]:
        """Dump the float64 matrix verbatim; bound 0 W."""
        return _as_matrix(watts).tobytes(), 0.0

    def decode(
        self, payload: bytes, n_ticks: int, n_nodes: int
    ) -> tuple[np.ndarray, float]:
        """Reinterpret the payload as the original float64 matrix."""
        _expect_len(payload, n_ticks * n_nodes * 8, self.name)
        watts = np.frombuffer(payload, dtype="<f8").reshape(
            n_ticks, n_nodes
        )
        return watts.copy(), 0.0


def _zigzag(deltas: np.ndarray) -> np.ndarray:
    """Map signed int64 deltas to unsigned, small-magnitude-first."""
    return (
        np.left_shift(deltas, 1) ^ np.right_shift(deltas, 63)
    ).view(np.uint64)


def _unzigzag(codes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zigzag`."""
    half = np.right_shift(codes, np.uint64(1)).view(np.int64)
    sign = (codes & np.uint64(1)).view(np.int64)
    return half ^ -sign


def _varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 vector, one numpy pass per byte slot.

    Strategy: compute each value's varint length with early-exiting
    threshold passes (telemetry deltas are small, so usually two), lay
    all varints out in a fixed-width ``(n, max_len)`` byte matrix, and
    compact it with one boolean selection — row-major order is exactly
    the concatenated varint stream, with no per-value Python work.
    """
    n_values = values.size
    if n_values == 0:
        return b""
    lengths = np.ones(n_values, dtype=np.int8)
    high = values >= np.uint64(1) << np.uint64(7)
    k = 1
    while high.any():
        lengths += high
        k += 1
        if k >= _MAX_VARINT_LEN:
            break
        high = high & (values >= np.uint64(1) << np.uint64(7 * k))
    width = int(lengths.max())
    septets = np.empty((n_values, width), dtype=np.uint8)
    for k in range(width):
        col = (
            np.right_shift(values, np.uint64(7 * k)) & np.uint64(0x7F)
        ).astype(np.uint8)
        col |= (lengths > k + 1).astype(np.uint8) << 7
        septets[:, k] = col
    keep = np.arange(width, dtype=np.int8)[None, :] < lengths[:, None]
    return septets[keep].tobytes()


def _varint_decode(data: np.ndarray, n_values: int) -> np.ndarray:
    """Decode exactly ``n_values`` LEB128 varints; strict on layout.

    Refuses a payload whose terminal bytes do not count ``n_values``,
    one with bytes after the last varint, a varint longer than 10 bytes
    and a 10-byte varint whose last byte carries more than bit 63.

    Strategy: the terminal bytes (high bit clear) end the varints, so
    the byte after each end starts the next.  Byte slot ``k`` of every
    varint is then one gather at ``starts + k``, ORed in as is for the
    slots every varint has.  Beyond the shortest varint the gather
    runs over every value too (clipped at the payload's end) and the
    values too short to reach slot ``k`` get zero: a gather plus a
    zeroing costs a third of a scatter into just the longer values.
    No per-value Python work and no ``(n, width)`` scratch matrix.
    """
    if n_values == 0:
        if data.size:
            raise ValueError("varint payload has trailing bytes")
        return np.zeros(0, dtype=np.uint64)
    ends = np.flatnonzero(data < 0x80)
    if ends.size != n_values:
        raise ValueError(
            f"varint payload holds {ends.size} values, expected {n_values}"
        )
    if ends[-1] != data.size - 1:
        raise ValueError("varint payload has trailing bytes")
    starts = np.empty(n_values, dtype=np.intp)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    extra = ends - starts  # bytes past each varint's first
    width = int(extra.max()) + 1
    if width > _MAX_VARINT_LEN:
        raise ValueError("varint longer than 10 bytes")
    if width == _MAX_VARINT_LEN and (
        data[ends[extra == _MAX_VARINT_LEN - 1]] > 0x01
    ).any():
        # The 10th byte holds bit 63 only; anything more would wrap.
        raise ValueError("varint overflows 64 bits")
    septets = (data & 0x7F).astype(np.uint64)
    values = septets[starts]
    shortest = int(extra.min()) + 1
    for k in range(1, shortest):
        values |= septets[starts + k] << np.uint64(7 * k)
    for k in range(shortest, width):
        slot = septets.take(starts + k, mode="clip")
        slot[extra < k] = 0
        slot <<= np.uint64(7 * k)
        values |= slot
    return values


class DeltaVarintCodec(Codec):
    """Milliwatt quantisation + per-node zigzag delta + varint packing.

    Lossless at the declared milliwatt resolution: decode(encode(x))
    equals ``rint(x·1000)/1000`` exactly, so re-encoding the decoded
    matrix round-trips bit-identically and the per-sample error never
    exceeds half a milliwatt.
    """

    name = "delta-varint"
    codec_id = 2
    lossless = True

    #: Matrices whose milliwatt magnitudes exceed this cannot be
    #: delta-coded in int64 without overflow; refuse loudly instead.
    _MAX_ABS_MILLIWATTS = float(np.int64(1) << np.int64(61))

    def encode(self, watts: np.ndarray) -> tuple[bytes, float]:
        """Quantise to milliwatts, delta-code per node, varint-pack."""
        watts = _as_matrix(watts)
        if not np.all(np.isfinite(watts)):
            raise ValueError(
                "delta-varint requires finite samples (NaN travels as "
                "frame gaps, not payload values)"
            )
        milliwatt_grid = np.rint(watts_to_milliwatts(watts))
        if np.abs(milliwatt_grid).max(initial=0.0) > self._MAX_ABS_MILLIWATTS:
            raise ValueError("sample magnitude overflows the milliwatt grid")
        grid = milliwatt_grid.astype(np.int64)
        # Per-node first differences along time, node-major so each
        # node's (small) deltas are contiguous for the varint packer.
        column_major = grid.T
        deltas = np.empty_like(column_major)
        deltas[:, 0] = column_major[:, 0]
        deltas[:, 1:] = column_major[:, 1:] - column_major[:, :-1]
        return _varint_encode(_zigzag(deltas.ravel())), _grid_bound_w(grid)

    def decode(
        self, payload: bytes, n_ticks: int, n_nodes: int
    ) -> tuple[np.ndarray, float]:
        """Unpack varints and integrate deltas back to watts."""
        data = np.frombuffer(payload, dtype=np.uint8)
        deltas = _unzigzag(_varint_decode(data, n_ticks * n_nodes))
        grid = np.cumsum(
            deltas.reshape(n_nodes, n_ticks), axis=1, dtype=np.int64
        )
        # grid.T is a transpose view; force the (n_ticks, n_nodes)
        # result C-contiguous so batch kernels stay on the fast path.
        return (
            np.ascontiguousarray(milliwatts_to_watts(grid.T)),
            _grid_bound_w(grid),
        )


class _AffineQuantCodec(Codec):
    """Shared machinery for the lossy fixed-width truncating codecs.

    Payload: ``lo`` (f8), ``step`` (f8), then the packed codes.  The
    error bound is ``step/2`` — and because the step is *stored*, the
    decoder recovers the exact bound that held for the frame rather
    than a worst-case guess.
    """

    bits: int = 0

    @property
    def _levels(self) -> int:
        return (1 << self.bits) - 1

    def _pack(self, codes: np.ndarray) -> bytes:
        raise NotImplementedError  # pragma: no cover - abstract

    def _unpack(self, data: np.ndarray, n_codes: int) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - abstract

    def encode(self, watts: np.ndarray) -> tuple[bytes, float]:
        watts = _as_matrix(watts)
        if not np.all(np.isfinite(watts)):
            raise ValueError(
                f"{self.name} requires finite samples (NaN travels as "
                "frame gaps, not payload values)"
            )
        lo = float(watts.min()) if watts.size else 0.0
        hi = float(watts.max()) if watts.size else 0.0
        step = (hi - lo) / self._levels
        if step > 0.0:
            codes = np.rint((watts - lo) / step)
            codes = np.clip(codes, 0, self._levels).astype(np.uint32)
        else:
            codes = np.zeros(watts.shape, dtype=np.uint32)
        header = np.array([lo, step], dtype="<f8").tobytes()
        return header + self._pack(codes.ravel()), step / 2.0

    def decode(
        self, payload: bytes, n_ticks: int, n_nodes: int
    ) -> tuple[np.ndarray, float]:
        if len(payload) < 16:
            raise ValueError(f"{self.name}: payload too short for header")
        lo, step = np.frombuffer(payload[:16], dtype="<f8")
        if not (np.isfinite(lo) and np.isfinite(step) and step >= 0.0):
            raise ValueError(f"{self.name}: malformed quantisation header")
        data = np.frombuffer(payload[16:], dtype=np.uint8)
        codes = self._unpack(data, n_ticks * n_nodes)
        watts = lo + codes.astype(np.float64) * step
        return watts.reshape(n_ticks, n_nodes), float(step) / 2.0


class Quant8Codec(_AffineQuantCodec):
    """8-bit affine truncation: 1 byte per sample, bound = range/510."""

    name = "quant8"
    codec_id = 3
    bits = 8

    def _pack(self, codes: np.ndarray) -> bytes:
        return codes.astype(np.uint8).tobytes()

    def _unpack(self, data: np.ndarray, n_codes: int) -> np.ndarray:
        if data.size != n_codes:
            raise ValueError(
                f"quant8: expected {n_codes} codes, got {data.size}"
            )
        return data.astype(np.uint32)


class Quant12Codec(_AffineQuantCodec):
    """12-bit affine truncation: 3 bytes per sample pair."""

    name = "quant12"
    codec_id = 4
    bits = 12

    def _pack(self, codes: np.ndarray) -> bytes:
        if codes.size % 2:  # pad to a whole pair with a zero code
            codes = np.concatenate(
                [codes, np.zeros(1, dtype=codes.dtype)]
            )
        first = codes[0::2].astype(np.uint32)
        second = codes[1::2].astype(np.uint32)
        packed = np.empty(3 * first.size, dtype=np.uint8)
        packed[0::3] = first & 0xFF
        packed[1::3] = (first >> 8) | ((second & 0x0F) << 4)
        packed[2::3] = second >> 4
        return packed.tobytes()

    def _unpack(self, data: np.ndarray, n_codes: int) -> np.ndarray:
        n_pairs = (n_codes + 1) // 2
        if data.size != 3 * n_pairs:
            raise ValueError(
                f"quant12: expected {3 * n_pairs} bytes, got {data.size}"
            )
        b0 = data[0::3].astype(np.uint32)
        b1 = data[1::3].astype(np.uint32)
        b2 = data[2::3].astype(np.uint32)
        first = b0 | ((b1 & 0x0F) << 8)
        second = (b1 >> 4) | (b2 << 4)
        codes = np.empty(2 * n_pairs, dtype=np.uint32)
        codes[0::2] = first
        codes[1::2] = second
        return codes[:n_codes]


class ZlibCodec(Codec):
    """Composable outer layer: zlib over any base codec's payload.

    The error bound is the inner codec's — compression is lossless.
    The wire records the wrapping in the frame's flags
    (:data:`~repro.wire.framing.FLAG_ZLIB`), not in ``codec_id``, so a
    reader reconstructs exactly this composition.
    """

    def __init__(self, inner: Codec, level: int = 6) -> None:
        if isinstance(inner, ZlibCodec):
            raise ValueError("zlib layers do not stack")
        self.inner = inner
        self.level = int(level)
        self.name = f"zlib({inner.name})"
        self.codec_id = inner.codec_id
        self.lossless = inner.lossless

    def encode(self, watts: np.ndarray) -> tuple[bytes, float]:
        """Encode with the inner codec, then deflate the payload."""
        payload, bound_w = self.inner.encode(watts)
        return zlib.compress(payload, self.level), bound_w

    def decode(
        self, payload: bytes, n_ticks: int, n_nodes: int
    ) -> tuple[np.ndarray, float]:
        """Inflate the payload, then decode with the inner codec."""
        try:
            raw = zlib.decompress(payload)
        except zlib.error as exc:
            raise ValueError(f"zlib layer: {exc}") from exc
        return self.inner.decode(raw, n_ticks, n_nodes)


#: Base codec registry: name -> class.  ``zlib(...)`` composes via the
#: factory, it is not a base entry.
_BASE_CODECS: dict[str, type[Codec]] = {
    cls.name: cls
    for cls in (Raw64Codec, DeltaVarintCodec, Quant8Codec, Quant12Codec)
}

_CODECS_BY_ID: dict[int, type[Codec]] = {
    cls.codec_id: cls for cls in _BASE_CODECS.values()
}

#: Every spec the factory accepts, bases first.
CODEC_NAMES: tuple[str, ...] = tuple(_BASE_CODECS) + tuple(
    f"zlib({name})" for name in _BASE_CODECS
)


def available_codecs() -> tuple[str, ...]:
    """All codec specs :func:`make_codec` accepts."""
    return CODEC_NAMES


def make_codec(spec: str | Codec) -> Codec:
    """Factory: build a codec from a spec like ``"zlib(delta-varint)"``."""
    if isinstance(spec, Codec):
        return spec
    name = spec.strip()
    if name.startswith("zlib(") and name.endswith(")"):
        return ZlibCodec(make_codec(name[len("zlib("):-1]))
    try:
        return _BASE_CODECS[name]()
    except KeyError:
        raise ValueError(
            f"unknown codec {spec!r} (known: {', '.join(CODEC_NAMES)})"
        ) from None


def codec_for_frame(codec_id: int, flags: int) -> Codec:
    """Reconstruct the codec a frame header declares.

    Raises :class:`ValueError` for an unregistered id — the session
    layer books such frames as undecodable rather than crashing.
    """
    from repro.wire.framing import FLAG_ZLIB

    try:
        base = _CODECS_BY_ID[codec_id]()
    except KeyError:
        raise ValueError(f"unregistered codec id {codec_id}") from None
    if flags & FLAG_ZLIB:
        return ZlibCodec(base)
    return base
