"""Counter-based random numbers for reproducible parallel Monte Carlo.

The construction is a two-level SplitMix64: a 64-bit stream key is derived
from ``(seed, stream index)``, and draw ``j`` of that stream is the SplitMix64
finalizer applied at counter position ``j``.  Every draw is a pure function of
``(seed, stream, j)``, so the same replicate produces the same numbers no
matter how replicates are partitioned across workers.  This is the
counter-based design of Salmon et al., "Parallel random numbers: as easy as
1, 2, 3" (SC 2011), with SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) as
the bijection.

Uniforms are doubles in ``[0, 1)`` built from the top 53 bits of a word
``z``: ``u = (z >> 11) * 2^-53``.

Monte Carlo blocks never need the uniforms of the edge draws, only whether
each is below ``p``.  :func:`edge_draws` therefore compares the word ``z``
itself with ``T * 2^11``, where ``T = ceil(p * 2^53)``.  The tests agree
exactly.  First, ``u < p`` iff ``k < T`` for ``k = z >> 11``: ``k < 2^53``
converts to a double without rounding and scaling by ``2^-53`` is exact,
so ``u < p`` iff ``k < p * 2^53``; ``p * 2^53`` is itself exact, and for an
integer ``k`` that holds iff ``k < T``.  Second, ``floor(z / 2^11) < T``
iff ``z < T * 2^11``, so the shift is never computed.  For ``p < 1``,
``T <= 2^53 - 1`` and ``T * 2^11 <= 2^64 - 2^11`` fits a 64-bit word.  At
``p = 0`` no edge opens and at ``p = 1`` every edge does, whatever the
words; there the flags are constants and no edge word is mixed (the start
draws still are).  Otherwise the words are mixed in place over chunks of
about 512 KB, so that a chunk and its scratch fit together in a 2 MB
per-core L2 cache, and compared chunk by chunk.  The flags come
bit-packed along the streams, eight per byte, each chunk packed as it is
compared: a block allocates neither a float matrix, nor its transpose,
nor a whole boolean matrix.  A chunk holds whole rows while one row of
the block fits in it, and a slice of whole bytes of one row's streams
once a row is wider, so the working set stays the same however many
streams one call draws.  The rows can come out in any edge order the
caller needs: a row's counter position depends only on the edge it
holds, never on where the row sits.

Every realization of the package is drawn by :func:`edge_draws` or by
its two private parts, which write the counter position of an edge's draw
(:func:`_edge_offsets`) and the threshold (:func:`_threshold`) in one
place: :func:`_edge_flags` draws the packed flags of any set of stream
keys, and :func:`_pair_flags` draws single (stream, edge) words, the bits
``_edge_flags`` would give them.  The Monte Carlo kernel mixes each span's
keys and start draws once (:func:`_stream_keys`, :func:`_start_uniforms`),
reads the edges its sparse phase reaches through ``_pair_flags``, and
hands ``_edge_flags`` the keys of the replicates that phase left open and
no others; the dominance birth counts draw whole blocks through the same
``_edge_flags``.  :func:`_stream_keys`, :func:`_start_uniforms` and
:func:`_edge_flags` take optional output and scratch arrays, so the Monte
Carlo kernel draws into buffers it reuses; the only new array of a span's
size is the counter column that :func:`_stream_keys` multiplies.
:func:`stream_uniforms` and :func:`uniform_matrix` compute the same draws as
plain uniforms, one stream or a matrix of streams at a time; they are not
exported and serve as the reference that ``edge_draws`` is checked against.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["derive_key", "edge_draws"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0**-53
# Bytes of one chunk of mixed words in edge_draws; with its scratch twin,
# 1 MB of working set, small enough to stay in a 2 MB per-core L2 cache.
_CHUNK_BYTES = 1 << 19


def _mix64_scalar(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # z is uint64; unsigned ops wrap mod 2^64 as required
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """:func:`_mix64_array` overwriting ``z``, with ``tmp`` as scratch."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def _stream_keys(
    seed: int,
    first_stream: int,
    n_streams: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """``derive_key(seed, r)`` for ``r`` in ``first_stream .. + n_streams``.

    Mixed in place, into the uint64 ``out`` if given, with the front of the
    1-D uint64 ``scratch``, if given, as the mixing scratch.
    """
    base = np.uint64(_mix64_scalar(seed & _MASK))
    idx = np.arange(first_stream + 1, first_stream + n_streams + 1, dtype=np.uint64)
    keys = np.multiply(idx, np.uint64(_GOLDEN), out=idx if out is None else out)
    keys += base
    _mix64_inplace(keys, np.empty_like(keys) if scratch is None else scratch[:n_streams])
    return keys


def derive_key(seed: int, index: int) -> int:
    """Fold a stream index into a 64-bit key.

    Used for per-replicate streams, per-grid-point seeds, and any other
    place that needs an independent child stream of a master seed.
    """
    base = _mix64_scalar(seed & _MASK)
    return _mix64_scalar(base + _GOLDEN * (index + 1))


def stream_uniforms(key: int, start: int, count: int) -> np.ndarray:
    """``count`` uniforms of the stream with the given key, from draw ``start``."""
    c = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = _mix64_array(np.uint64(key & _MASK) + np.uint64(_GOLDEN) * c)
    return (z >> np.uint64(11)).astype(np.float64) * _U53


def uniform_matrix(seed: int, first_stream: int, n_streams: int, n_draws: int) -> np.ndarray:
    """Uniforms for ``n_streams`` consecutive streams, ``n_draws`` each.

    Row ``i`` holds draws ``0..n_draws-1`` of stream ``first_stream + i``
    derived from ``seed``; identical to calling :func:`stream_uniforms` on
    each ``derive_key(seed, r)`` but vectorized.
    """
    keys = _stream_keys(seed, first_stream, n_streams)
    c = np.arange(1, n_draws + 1, dtype=np.uint64)
    z = _mix64_array(keys[:, None] + np.uint64(_GOLDEN) * c[None, :])
    return (z >> np.uint64(11)).astype(np.float64) * _U53


def _threshold(p: float) -> np.uint64:
    """``ceil(p * 2^53) << 11``: a word below it is a uniform below ``p`` (``0 < p < 1``)."""
    return np.uint64(math.ceil(p * 2.0**53) << 11)


def _edge_offsets(edges: np.ndarray) -> np.ndarray:
    """The counter offsets of edges' draws: edge ``e`` is draw ``e + 1``, position ``e + 2``."""
    return np.uint64(_GOLDEN) * (np.asarray(edges, dtype=np.uint64) + np.uint64(2))


def _start_uniforms(
    keys: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Draw 0 of the streams with the given keys, as uniforms.

    The words are mixed in place in the float64 ``out``, if given, and
    turned into its uniforms there; ``scratch`` as in :func:`_stream_keys`.
    """
    u = np.empty(keys.size, dtype=np.float64) if out is None else out
    z = u.view(np.uint64)
    np.add(keys, np.uint64(_GOLDEN), out=z)
    _mix64_inplace(z, np.empty_like(z) if scratch is None else scratch[: keys.size])
    z >>= np.uint64(11)
    # element by element over the same bytes: each word is read before its double is written
    np.multiply(z, _U53, out=u)
    return u


def _pair_flags(keys: np.ndarray, edges: np.ndarray, p: float) -> np.ndarray:
    """Whether edge ``edges[i]`` is open in the stream with key ``keys[i]``, for ``0 < p < 1``.

    ``keys`` and ``edges`` broadcast together.  One word per pair, the word
    :func:`_edge_flags` draws for that stream and edge, so each flag equals
    its bit there.
    """
    z = _edge_offsets(edges) + keys
    _mix64_inplace(z, np.empty_like(z))
    return z < _threshold(p)


def _edge_flags(
    keys: np.ndarray,
    n_edges: int,
    p: float,
    order: np.ndarray | None = None,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Edge-major, bit-packed open flags of the streams with the given keys.

    Bit ``i % 8`` of row ``k``, byte ``i // 8`` says whether edge
    ``order[k]`` (edge ``k`` without an order) is open in stream
    ``keys[i]``; the padding bits of the last byte are 0.  See
    :func:`edge_draws`.  The flags go into the uint8 ``out`` if given.  A
    chunk's words and their mixing scratch take halves of the 1-D uint64
    ``scratch`` if given, so chunks shrink to fit it; new arrays otherwise.
    """
    n_streams = keys.size
    width = -(-n_streams // 8)
    open_edges = np.empty((n_edges, width), dtype=np.uint8) if out is None else out
    if p == 0.0 or p == 1.0:
        open_edges.fill(0xFF if p == 1.0 else 0)
        if n_streams % 8:  # padding bits stay 0, as packbits leaves them
            open_edges[:, -1] &= np.uint8((1 << n_streams % 8) - 1)
        return open_edges
    threshold = _threshold(p)
    chunk = _CHUNK_BYTES if scratch is None else min(_CHUNK_BYTES, scratch.nbytes // 2)
    # a chunk is whole rows of all streams while one row fits, else one
    # row of a slice of whole bytes of the streams
    cols = max(1, min(n_streams, chunk // 8))
    if cols < n_streams:
        cols = max(8, cols - cols % 8)
    rows = max(1, min(n_edges, chunk // (8 * cols)))
    size = rows * cols
    if scratch is None or scratch.size < 2 * size:
        scratch = np.empty(2 * size, dtype=np.uint64)
    z, tmp = scratch[:size], scratch[size : 2 * size]
    flags = tmp.view(bool)[:size]  # the mixing scratch is free once a chunk is mixed
    offsets = _edge_offsets(np.arange(n_edges) if order is None else order)
    for c0 in range(0, n_streams, cols):
        c1 = min(c0 + cols, n_streams)
        for lo in range(0, n_edges, rows):
            hi = min(lo + rows, n_edges)
            shape = (hi - lo, c1 - c0)
            size = shape[0] * shape[1]
            zc, tc, fc = (a[:size].reshape(shape) for a in (z, tmp, flags))
            np.add(offsets[lo:hi, None], keys[None, c0:c1], out=zc)
            _mix64_inplace(zc, tc)
            np.less(zc, threshold, out=fc)
            open_edges[lo:hi, c0 // 8 : -(-c1 // 8)] = np.packbits(
                fc, axis=1, bitorder="little"
            )
    return open_edges


def edge_draws(
    seed: int,
    first_stream: int,
    n_streams: int,
    n_edges: int,
    p: float,
    order: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Start uniforms and edge-major, bit-packed open flags of a block of streams.

    Returns ``(starts, open_edges)``: ``starts[i]`` is draw 0 of stream
    ``first_stream + i`` as a uniform, and bit ``i % 8`` of
    ``open_edges[e, i // 8]`` says whether its draw ``e + 1`` is below ``p``
    (``0 <= p <= 1``); the padding bits of the last byte are 0.
    Bit-identical to ``uniform_matrix(seed, first_stream, n_streams,
    n_edges + 1)`` followed by ``u[:, 0]`` and
    ``np.packbits((u[:, 1:] < p).T, axis=1, bitorder="little")``; see the
    module docstring.

    ``order``, a permutation of ``range(n_edges)``, sets the row order: row
    ``k`` then holds edge ``order[k]`` (draw ``order[k] + 1``), so
    ``edge_draws(..., order=order)[1][k]`` equals ``edge_draws(...)[1][order[k]]``
    bit for bit, without a permuted copy.
    """
    keys = _stream_keys(seed, first_stream, n_streams)
    return _start_uniforms(keys), _edge_flags(keys, n_edges, p, order)
