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
``z``: ``u = (z >> 11) * 2^-53``.  Draw 0 of a stream, at counter position
1, is its start uniform.

Edge flags take 16 bits each, four to a word: lane ``l`` of draw ``j >= 1``
(counter position ``j + 1``), bits ``16 l .. 16 l + 15``, belongs to edge
``4 (j - 1) + l``, so ``ceil(|E| / 4)`` words give a stream's edges.  Edge
``e``'s uniform is the 53-bit number whose top 16 bits are its lane and
whose low 37 bits are the top 37 bits of its tail word, at counter
position ``2^64 - 1 - e``, which no start or flag word uses; the edge is
open iff that uniform is below ``p``.  So P(open) is exactly ``T / 2^53``
for ``T = ceil(p * 2^53)``, the edges of a stream are independent, and
each edge is monotone in ``p``, as with one word per edge.  The tail word
is only mixed when the lane ties with ``T``'s top 16 bits, ``T >> 37``,
once in 2^16 lanes: below it the edge is open, above it closed, whatever
the tail (the lazy comparison of Knuth & Yao, 1976).  :func:`_threshold`
gives the lane limit and the tail limit ``(T mod 2^37) << 27``, below
which a tail word's top 37 bits are below ``T mod 2^37``.  Comparing
integers is exact: a 53-bit ``k`` converts to a double without rounding
and scaling by ``2^-53`` is exact, so ``k * 2^-53 < p`` iff ``k < p *
2^53``, itself exact, and for an integer ``k`` that holds iff ``k < T``.
For ``p < 1``, ``T <= 2^53 - 1``, so the lane limit fits 16 bits.  At
``p = 0`` no edge opens and at ``p = 1`` every edge does, whatever the
words; there the flags are constants and no edge word is mixed (the start
draws still are).

Otherwise the words are mixed in place over chunks of about 512 KB, so
that a chunk and its scratch fit together in a 2 MB per-core L2 cache,
and each chunk is compared as uint16 lanes (the lane order of a
little-endian word), packed, and regrouped from stream-major to
lane-major bits by four delta swaps (:func:`_unzip`) in the chunk's spent
scratch; each lane then is one edge's packed row.  The flags come
bit-packed along the streams, eight per byte: a block allocates neither a
float matrix, nor its transpose, nor a whole boolean matrix.  A chunk
holds whole word rows while one row of the block fits in it, and a slice
of whole bytes of one row's streams once a row is wider, so the working
set stays the same however many streams one call draws.  Tied lanes are
gathered over the chunks and decided by their tail words at the end.  A
row map puts each edge's row wherever the caller needs it: an edge's
word, lane and tail depend only on the edge, never on where its row sits.

Every realization of the package is drawn by :func:`edge_draws` or by
its private parts, which write the counter positions of an edge's words
(:func:`_word_offsets`, :func:`_tail_words`) and the thresholds
(:func:`_ticks`, :func:`_threshold`) in one place: :func:`_edge_flags`
draws the packed flags of any set of stream keys, :func:`_pair_flags`
draws single (stream, edge) words and lanes, the bits ``_edge_flags``
would give them, and :func:`_edge_grid` gives, for a sorted grid of up to
``_GRID_WINDOW`` points, the number of them at which each edge is open, as
``_edge_flags`` draws it at each point, from one mixing of the flag
words: a table of the 2^16 lane values (:func:`_grid_table`) gives each
lane's count, and a lane that ties with a point's lane limit is placed
among the thresholds by its 53-bit uniform, its tail word read.  The
Monte Carlo kernel mixes each span's keys and start draws once
(:func:`_stream_keys`, :func:`_start_uniforms`), reads the edges its
sparse phase reaches through ``_pair_flags``, and hands ``_edge_flags``
the keys of the replicates that phase left open and no others; a sweep
of several points draws the counts of each window of its grid through
``_edge_grid`` on each span whose generation 0 is dense (a Platonic
solid's, say); the dominance birth counts draw whole blocks through the
same ``_edge_flags``.  :func:`_stream_keys`, :func:`_start_uniforms` and
:func:`_edge_flags` take optional output and scratch arrays, so the Monte
Carlo kernel draws into buffers it reuses; the only new array of a
span's size is the counter column that :func:`_stream_keys` multiplies
(each chunk of a draw packs into a new array a sixteenth of its size).

:func:`stream_uniforms` computes plain uniforms of one stream:
:func:`percmoments.graphs.generate_random_regular` orders the stubs of
each pairing by them, on keys no replicate uses, so every random draw of
the package, graphs included, comes from these streams.  With
:func:`uniform_matrix`, a matrix of streams at a time and not exported, it
is also the reference for the start draws.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .errors import BadParameterError, _check_integer, _check_probability

__all__ = ["derive_key", "edge_draws", "stream_uniforms"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0**-53
# Edge flags per flag word: lane l, bits 16 l .. 16 l + 15, is one edge's.
_LANES = 4
# Bits of the edge's 53-bit uniform below its 16-bit lane, read from its
# tail word when the lane ties with the threshold's top 16 bits.
_TAIL_BITS = 37
# Most points of one _edge_grid: a count of them takes seven bits of a
# byte, below the bit that marks a tied lane in its table.
_GRID_WINDOW = 127
_TIED = 0x80
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


def _swap_mask(i: int, j: int) -> int:
    """The bit positions whose index has bit ``i`` set and bit ``j`` clear."""
    return sum(1 << b for b in range(64) if b >> i & 1 and not b >> j & 1)


# The delta swaps of _unzip: (shift, mask) exchanging bit-index bits i and j,
# for (0, 4), (0, 2), (1, 5), (1, 3), which rotate the index by two places.
_UNZIP = tuple(
    (np.uint64((1 << j) - (1 << i)), np.uint64(_swap_mask(i, j)))
    for i, j in ((0, 4), (0, 2), (1, 5), (1, 3))
)


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

    Used for per-replicate streams, the random graphs' stub orders, and any
    other place that needs an independent child stream of a master seed.
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


def _ticks(p: float) -> int:
    """``T = ceil(p * 2^53)``: an edge is open at ``p`` iff its 53-bit uniform is below it."""
    return math.ceil(p * 2.0**53)


def _threshold(p: float) -> tuple[np.uint16, np.uint64]:
    """The lane and tail limits of ``T = ceil(p * 2^53)``, for ``0 < p < 1``.

    An edge is open iff its lane is below ``T >> 37``, or equals it and its
    tail word is below ``(T mod 2^37) << 27`` (see the module docstring).
    """
    t = _ticks(p)
    tail = (t & ((1 << _TAIL_BITS) - 1)) << (64 - _TAIL_BITS)
    return np.uint16(t >> _TAIL_BITS), np.uint64(tail)


def _word_offsets(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The counter offsets of flag words: word ``w`` is draw ``w + 1``, position ``w + 2``.

    Into the uint64 ``out``, which may be ``words`` itself, if given.
    """
    offsets = np.add(np.asarray(words, dtype=np.uint64), np.uint64(2), out=out)
    offsets *= np.uint64(_GOLDEN)
    return offsets


def _tail_words(keys: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The tail word of edge ``edges[i]`` in stream ``keys[i]``.

    Edge ``e``'s tail word sits at counter position ``2^64 - 1 - e``, which
    no start or flag word of a stream uses.
    """
    c = np.uint64(_MASK) - np.asarray(edges, dtype=np.uint64)
    z = np.uint64(_GOLDEN) * c + keys
    _mix64_inplace(z, np.empty_like(z))
    return z


def _tail_flags(keys: np.ndarray, edges: np.ndarray, tail: np.uint64) -> np.ndarray:
    """Whether the tail word of edge ``edges[i]`` in stream ``keys[i]`` is below ``tail``."""
    return _tail_words(keys, edges) < tail


def _start_uniforms(
    keys: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Draw 0 of the streams with the given keys, as uniforms.

    The words are mixed in place in the float64 ``out``, if given, then
    shifted into ``scratch`` (as in :func:`_stream_keys`) and turned into
    uniforms in ``out``.  Turned in place, they would be copied anyway:
    numpy copies an input that overlaps its output with another dtype.
    """
    u = np.empty(keys.size, dtype=np.float64) if out is None else out
    z = u.view(np.uint64)
    tmp = np.empty_like(z) if scratch is None else scratch[: keys.size]
    np.add(keys, np.uint64(_GOLDEN), out=z)
    _mix64_inplace(z, tmp)
    np.right_shift(z, np.uint64(11), out=tmp)
    np.multiply(tmp, _U53, out=u)
    return u


def _pair_flags(keys: np.ndarray, edges: np.ndarray, p: float) -> np.ndarray:
    """Whether edge ``edges[i]`` is open in the stream with key ``keys[i]``, for ``0 < p < 1``.

    ``keys`` and ``edges`` broadcast together.  One word per pair, the word
    :func:`_edge_flags` draws for that stream and edge, and its lane, so
    each flag equals its bit there; a tied lane is decided by its tail
    word, as there.
    """
    edges = np.asarray(edges, dtype=np.uint64)
    words = edges >> np.uint64(2)
    z = _word_offsets(words, out=words)
    shape = np.broadcast_shapes(z.shape, np.shape(keys))
    z = np.add(z, keys, out=z if z.shape == shape else None)
    tmp = np.empty_like(z)
    _mix64_inplace(z, tmp)
    np.bitwise_and(edges, np.uint64(_LANES - 1), out=tmp)
    tmp <<= np.uint64(4)  # 16 times each edge's lane: the shift that brings it down
    np.right_shift(z, tmp, out=z)
    del tmp  # no more than two words per pair live at once, as with one word per edge
    lanes = z.astype(np.uint16)  # the low 16 bits: the edge's lane
    lane, tail = _threshold(p)
    flags = lanes < lane
    tied = lanes == lane
    if tied.any():
        ties = np.nonzero(tied)
        flags[ties] = _tail_flags(
            np.broadcast_to(keys, z.shape)[ties], np.broadcast_to(edges, z.shape)[ties], tail
        )
    return flags


def _true_indices(flags: np.ndarray) -> np.ndarray:
    """The indices of the true entries of the 1-D bool ``flags``, in order.

    One ``argmax`` scan per entry: tied lanes, some 2^-16 of a chunk's,
    cost a few of these scans, where ``flatnonzero`` counts and fills
    over the whole chunk.
    """
    found, at = [], 0
    while at < flags.size:
        k = at + int(flags[at:].argmax())
        if not flags[k]:
            break
        found.append(k)
        at = k + 1
    return np.array(found, dtype=np.intp)


def _unzip(x: np.ndarray, t: np.ndarray) -> None:
    """Regroup each packed uint64 word of ``x`` from stream-major to lane-major, in place.

    Bit ``4 s + l`` (stream ``s``, lane ``l``) moves to bit ``16 l + s``: a
    rotation of the six bits of the bit index by two places, made of four
    delta swaps with ``t`` as scratch.
    """
    for shift, mask in _UNZIP:
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t


def _mixed_chunks(
    keys: np.ndarray, n_words: int, scratch: np.ndarray | None
) -> Iterator[tuple[int, int, int, int, np.ndarray, np.ndarray]]:
    """Flag words ``0 .. n_words - 1`` of the streams ``keys``, mixed a chunk at a time.

    Yields ``(lo, hi, c0, c1, z, tmp)``: words ``[lo, hi)`` of streams
    ``[c0, c1)`` are mixed at the front of ``z`` as a ``(hi - lo, c1 -
    c0)`` matrix, and ``tmp``, their mixing scratch, is spent.  ``z`` and
    ``tmp`` are the halves of the 1-D uint64 ``scratch`` if given, so
    chunks shrink to fit it, and of a new array otherwise.  A chunk holds
    whole word rows of all streams while one row fits in it, and one word
    row of a slice of whole bytes of the streams once a row is wider.
    """
    n_streams = keys.size
    chunk = _CHUNK_BYTES if scratch is None else min(_CHUNK_BYTES, scratch.nbytes // 2)
    cols = max(1, min(n_streams, chunk // 8))
    if cols < n_streams:
        cols = max(8, cols - cols % 8)
    rows = max(1, min(n_words, chunk // (8 * cols)))
    size = rows * cols
    if scratch is None or scratch.size < 2 * size:
        scratch = np.empty(2 * size, dtype=np.uint64)
    z, tmp = scratch[:size], scratch[size : 2 * size]
    offsets = _word_offsets(np.arange(n_words))
    for c0 in range(0, n_streams, cols):
        c1 = min(c0 + cols, n_streams)
        for lo in range(0, n_words, rows):
            hi = min(lo + rows, n_words)
            shape = (hi - lo, c1 - c0)
            size = shape[0] * shape[1]
            zc = z[:size].reshape(shape)
            np.add(offsets[lo:hi, None], keys[None, c0:c1], out=zc)
            _mix64_inplace(zc, tmp[:size].reshape(shape))
            yield lo, hi, c0, c1, z, tmp


def _edge_flags(
    keys: np.ndarray,
    n_edges: int,
    p: float,
    row_of: np.ndarray | None = None,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Bit-packed open flags of the streams with the given keys, a row per edge.

    Bit ``i % 8`` of row ``row_of[e]`` (row ``e`` without a row map), byte
    ``i // 8`` says whether edge ``e`` is open in stream ``keys[i]``; the
    padding bits of the last byte are 0.  See :func:`edge_draws`.  The
    flags go into the uint8 ``out`` if given; rows the map does not name
    keep their bytes, but at ``p`` of 0 or 1.  A chunk's words and their
    mixing scratch take halves of the 1-D uint64 ``scratch`` if given, so
    chunks shrink to fit it; new arrays otherwise.

    Each chunk of words (:func:`_mixed_chunks`) is compared as uint16
    lanes, packed (bit ``4 s + l`` of a packed word: stream ``s``, lane
    ``l``) and unzipped into lane-major words (:func:`_unzip`) in the
    chunk's spent halves; lane ``l`` of word row ``w`` is then the packed
    row of edge ``4 w + l``, written to that edge's row.  Tied lanes are
    gathered over the chunks and decided by their tail words at the end.
    """
    n_streams = keys.size
    width = -(-n_streams // 8)
    open_edges = np.empty((n_edges, width), dtype=np.uint8) if out is None else out
    if p == 0.0 or p == 1.0:
        open_edges.fill(0xFF if p == 1.0 else 0)
        if n_streams % 8:  # padding bits stay 0, as packbits leaves them
            open_edges[:, -1] &= np.uint8((1 << n_streams % 8) - 1)
        return open_edges
    lane, tail = _threshold(p)
    if row_of is None:
        row_of = np.arange(n_edges)
    tied_edges, tied_streams = [], []
    for lo, hi, c0, c1, z, tmp in _mixed_chunks(keys, -(-n_edges // _LANES), scratch):
        nbytes, n16 = -(-(c1 - c0) // 8), -(-(c1 - c0) // 16)
        shape = (hi - lo, c1 - c0)
        size = shape[0] * shape[1]
        # lane l of word [w, s] at [w, 4 s + l]
        lanes = z[:size].reshape(shape).view(np.uint16)
        flags = tmp.view(bool)[: 4 * size].reshape(lanes.shape)
        np.less(lanes, lane, out=flags)
        packed = np.packbits(flags, axis=1, bitorder="little")
        np.equal(lanes, lane, out=flags)
        ties = _true_indices(flags.reshape(-1))
        if ties.size:
            w, rest = np.divmod(ties, 4 * shape[1])
            edge = _LANES * (lo + w) + (rest & (_LANES - 1))
            keep = edge < n_edges
            tied_edges.append(edge[keep])
            tied_streams.append(c0 + (rest[keep] >> 2))
        # the chunk's words and flags are spent: their halves take the
        # unzip, then the lane-major rows, [w, l] for edge 4 w + l
        x = z[: shape[0] * n16].reshape(shape[0], n16)
        x_bytes = x.view(np.uint8)
        x_bytes[:, : packed.shape[1]] = packed
        x_bytes[:, packed.shape[1] :] = 0
        _unzip(x, tmp[: x.size].reshape(x.shape))
        by_lane = tmp[: x.size].view(np.uint16).reshape(shape[0], _LANES, n16)
        np.copyto(by_lane, x.view(np.uint16).reshape(shape[0], n16, _LANES).transpose(0, 2, 1))
        dest = row_of[_LANES * lo : _LANES * hi]
        dest = dest[: n_edges - _LANES * lo]  # the last word may have lanes past the edges
        open_edges[dest, c0 // 8 : c0 // 8 + nbytes] = (
            by_lane.view(np.uint8).reshape(-1, 2 * n16)[: dest.size, :nbytes]
        )
    if tied_edges:
        edge, stream = np.concatenate(tied_edges), np.concatenate(tied_streams)
        opened = _tail_flags(keys[stream], edge, tail)
        edge, stream = edge[opened], stream[opened]
        bits = np.left_shift(1, stream & 7).astype(np.uint8)
        np.bitwise_or.at(open_edges, (row_of[edge], stream >> 3), bits)
    return open_edges


def _grid_table(ticks: list[int]) -> np.ndarray:
    """Per 16-bit lane value, the count of the sorted ``ticks`` at which it opens its edge.

    Entry ``v`` counts the ``T`` above ``v << 37``, those whose lane limit
    rounded up, ``ceil(T / 2^37)``, is above ``v``: whatever its tail word,
    an edge whose lane is ``v`` is open at those points and closed at the
    rest, unless some ``T`` lies strictly between ``v << 37`` and ``(v +
    1) << 37``, its lane limit ``v`` with a nonzero tail limit.  Then the
    tail word decides, and the entry also holds ``_TIED``.  ``p`` of 0 and
    1 (``T`` of 0 and ``2^53``) tie with no lane.  The counts fall in runs,
    filled a point at a time.
    """
    table = np.empty(1 << 16, dtype=np.uint8)
    below = 0
    for k, t in enumerate(ticks):
        above = -(-t >> _TAIL_BITS)
        table[below:above] = len(ticks) - k
        below = max(below, above)
    table[below:] = 0
    for t in ticks:
        if t & ((1 << _TAIL_BITS) - 1):
            table[t >> _TAIL_BITS] |= _TIED
    return table


def _edge_grid(
    keys: np.ndarray,
    n_edges: int,
    grid: list[float],
    row_of: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """How many points of the sorted ``grid`` open each edge in each stream ``keys[i]``.

    Column ``i`` of rows ``row_of[..., e]`` of the uint8 ``out`` gets the
    number of points at which edge ``e`` is open in stream ``keys[i]``, as
    :func:`_edge_flags` draws it: each edge is monotone in ``p``, so it is
    open at exactly the last that many points.  ``grid`` has at most
    ``_GRID_WINDOW`` points, so a count takes the bits below ``_TIED``.

    The flag words are mixed once, in chunks through the 1-D uint64
    ``scratch`` (:func:`_mixed_chunks`), and each lane is looked up in the
    :func:`_grid_table` of the grid's thresholds, 64 KB; the chunk's counts
    are regrouped edge-major in its spent words and written to both rows of
    each edge.  A lane the table marks tied is gathered with its value over
    the chunks, and its tail word gives its 53-bit uniform, which the
    thresholds place exactly at the end.
    """
    ticks = [_ticks(p) for p in grid]
    table = _grid_table(ticks)
    tied = []
    for lo, hi, c0, c1, z, tmp in _mixed_chunks(keys, -(-n_edges // _LANES), scratch):
        rows, cols = hi - lo, c1 - c0
        size = rows * cols
        # lane l of word [w, s] at [w, 4 s + l], its count likewise in tmp's front half
        lanes = z[:size].view(np.uint16)
        counts = tmp.view(np.uint8)[: lanes.size]
        # numpy takes the uint16 indices as intp words: half a chunk's bytes
        # of them at a time.  They are in range, and clip spares a copy.
        step = _CHUNK_BYTES // 16
        for i in range(0, lanes.size, step):
            np.take(table, lanes[i : i + step], out=counts[i : i + step], mode="clip")
        flags = tmp.view(bool)[lanes.size : 2 * lanes.size]
        np.greater_equal(counts, np.uint8(_TIED), out=flags)
        at = _true_indices(flags)
        if at.size:
            w, rest = np.divmod(at, _LANES * cols)
            edge = _LANES * (lo + w) + (rest & (_LANES - 1))
            keep = edge < n_edges
            tied.append((edge[keep], c0 + (rest[keep] >> 2), lanes[at[keep]]))
        # the lanes are spent: their words take the counts, [w, l, s] for edge 4 w + l
        by_edge = z.view(np.uint8)[: lanes.size].reshape(rows, _LANES, cols)
        np.copyto(by_edge, counts.reshape(rows, cols, _LANES).transpose(0, 2, 1))
        dest = row_of[..., _LANES * lo : _LANES * hi]
        dest = dest[..., : n_edges - _LANES * lo]  # the last word may have lanes past the edges
        out[dest, c0:c1] = by_edge.reshape(_LANES * rows, cols)[: dest.shape[-1]]
    if tied:
        edge, stream, lane = (np.concatenate(parts) for parts in zip(*tied))
        uniform = lane.astype(np.uint64) << np.uint64(_TAIL_BITS)
        uniform |= _tail_words(keys[stream], edge) >> np.uint64(64 - _TAIL_BITS)
        closed = np.searchsorted(np.array(ticks, dtype=np.uint64), uniform, side="right")
        out[row_of[..., edge], stream] = len(ticks) - closed
    return out


def edge_draws(
    seed: int, first_stream: int, n_streams: int, n_edges: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Start uniforms and edge-major, bit-packed open flags of a block of streams.

    Returns ``(starts, open_edges)``: ``starts[i]`` is draw 0 of stream
    ``first_stream + i`` as a uniform, and bit ``i % 8`` of
    ``open_edges[e, i // 8]`` says whether edge ``e`` is open in it: whether
    the edge's 53-bit uniform, lane ``e % 4`` of draw ``e // 4 + 1`` with
    its tail word below it, is below ``p`` (``0 <= p <= 1``); the padding
    bits of the last byte are 0.  See the module docstring.

    Every argument is checked before any draw: a non-integer count, seed or
    stream, a negative count, a stream outside ``[0, 2^64 - 2]`` (stream
    ``r`` mixes counter ``r + 1``) and ``p`` outside ``[0, 1]`` raise a
    ``BadParameterError``.
    """
    seed = _check_integer("seed", seed)
    first_stream = _check_integer("first_stream", first_stream)
    n_streams = _check_integer("n_streams", n_streams)
    n_edges = _check_integer("n_edges", n_edges)
    p = _check_probability(p)
    if n_streams < 0 or n_edges < 0:
        raise BadParameterError(
            f"n_streams and n_edges must be >= 0, got {n_streams} and {n_edges}"
        )
    if not 0 <= first_stream <= _MASK - 1 or first_stream + n_streams > _MASK:
        raise BadParameterError(
            f"streams {first_stream} .. {first_stream + n_streams - 1} are not "
            "all in [0, 2^64 - 2]"
        )
    keys = _stream_keys(seed, first_stream, n_streams)
    return _start_uniforms(keys), _edge_flags(keys, n_edges, p)
