import hashlib
import itertools
import math
import json
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from percmoments import (
    BoundParams,
    EdgeConfig,
    MomentPolynomial,
    TooManyEdgesError,
    best_bounds,
    cluster_of,
    connectivity_moments,
    estimate_moments,
    exact_moments,
    generate_builtin,
    generate_random_regular,
    moment_polynomial,
    pair_connectivity,
)
from percmoments import oracle
from percmoments.oracle import DEFAULT_EDGE_CAP, MAX_FRONTIER

SMALL = ("complete(2)", "complete(3)", "tetrahedron", "cube", "octahedron")


def test_k3_hand_enumeration(k3):
    pair = exact_moments(k3, 0.5)
    assert pair.first == pytest.approx(2.25, abs=1e-12)
    assert pair.second == pytest.approx(5.75, abs=1e-12)
    assert pair.kind == "exact"


def test_tetrahedron_hand_enumeration(tetrahedron):
    # 64-configuration enumeration done independently with exact rationals:
    # E(S) = 13/4, E(S^2) = 187/16 at p = 1/2
    pair = exact_moments(tetrahedron, 0.5)
    assert pair.first == pytest.approx(3.25, abs=1e-12)
    assert pair.second == pytest.approx(11.6875, abs=1e-12)


def test_k2_polynomial_counts(k2):
    poly = moment_polynomial(k2)
    assert poly.first_counts == (2, 4)
    assert poly.second_counts == (2, 8)
    assert poly.first_coeffs == (Fraction(1), Fraction(2))
    assert poly.second_coeffs == (Fraction(1), Fraction(4))
    pair = poly.evaluate(0.3)
    assert pair.first == pytest.approx(1.3, abs=1e-12)
    assert pair.second == pytest.approx(1.9, abs=1e-12)


@pytest.mark.parametrize("name", SMALL)
def test_polynomial_coefficient_invariants(name):
    g = generate_builtin(name)
    poly = moment_polynomial(g)
    n = g.n_vertices
    # all closed: every cluster is a singleton; all open: one giant cluster
    assert poly.first_coeffs[0] == 1
    assert poly.second_coeffs[0] == 1
    assert poly.first_coeffs[-1] == n
    assert poly.second_coeffs[-1] == n * n
    assert len(poly.first_counts) == g.n_edges + 1


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_three_routes_agree(name, p):
    g = generate_builtin(name)
    direct = exact_moments(g, p)
    conn = connectivity_moments(g, p)
    poly = moment_polynomial(g).evaluate(p)
    for other in (conn, poly):
        assert other.first == pytest.approx(direct.first, rel=1e-12)
        assert other.second == pytest.approx(direct.second, rel=1e-12)


@pytest.mark.parametrize("name", SMALL)
def test_enumeration_endpoints(name):
    g = generate_builtin(name)
    at0 = exact_moments(g, 0.0)
    assert (at0.first, at0.second) == (1.0, 1.0)
    at1 = exact_moments(g, 1.0)
    assert at1.first == pytest.approx(g.n_vertices, abs=1e-12)
    assert at1.second == pytest.approx(g.n_vertices**2, abs=1e-12)


def test_pair_connectivity_hand_values(k3):
    table = pair_connectivity(k3, 0.5)
    assert table.pair_probs[0, 1] == pytest.approx(0.625, abs=1e-12)
    assert table.pair_probs[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron"])
def test_pair_connectivity_symmetry(name):
    g = generate_builtin(name)
    table = pair_connectivity(g, 0.37)
    probs = table.pair_probs
    assert np.allclose(probs, probs.T, atol=1e-14)
    # vertex-transitive solids: expected cluster size independent of start
    row_sums = probs.sum(axis=1)
    assert np.allclose(row_sums, row_sums[0], atol=1e-12)


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("p", [0.1, 0.37, 0.9])
def test_connectivity_first_moment_matches_pair_table(name, p):
    # the per-vertex size sum and the pair table reduce the same
    # configurations differently: sum_y P(x <-> y) = E(S_x)
    g = generate_builtin(name)
    row_sums = pair_connectivity(g, p).pair_probs.sum(axis=1)
    assert connectivity_moments(g, p).first == pytest.approx(row_sums.mean(), rel=1e-12)


def test_connectivity_moments_memory_stays_small():
    # no (N, N, block) same-cluster tensor: one ring(20) call holds ~2 MB of
    # block state, and the tensor with its float64 cast would take ~15 MB
    ring = generate_builtin("ring(20)")
    connectivity_moments(ring, 0.4)
    tracemalloc.start()
    try:
        connectivity_moments(ring, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_exact_moments_memory_stays_small():
    # exact_moments is the frontier DP: ring(20)'s frontier holds at most
    # three vertices, and a call peaks at about 23 KB of allocations
    ring = generate_builtin("ring(20)")
    exact_moments(ring, 0.4)
    tracemalloc.start()
    try:
        exact_moments(ring, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_edge_cap_enforced(dodecahedron):
    # the 24-edge cap binds the two enumeration routes only; exact_moments
    # is the DP and answers the 30-edge dodecahedron
    for route in (connectivity_moments, pair_connectivity):
        with pytest.raises(TooManyEdgesError, match="enumeration cap"):
            route(dodecahedron, 0.5)
    assert exact_moments(dodecahedron, 0.5) == moment_polynomial(dodecahedron).evaluate(0.5)
    with pytest.raises(TooManyEdgesError, match="frontier width"):
        moment_polynomial(generate_builtin("complete(12)"))
    assert DEFAULT_EDGE_CAP == 24


def test_polynomial_json_round_trip(cube):
    poly = moment_polynomial(cube)
    payload = json.loads(json.dumps(poly.to_json_dict()))
    assert payload["n_vertices"] == 8
    assert payload["denominator"] == 8
    assert [int(c) for c in payload["first_counts"]] == list(poly.first_counts)
    assert [int(c) for c in payload["second_counts"]] == list(poly.second_counts)


def reference_counts(graph):
    """Per-m sums of sum_x S_x and sum_x S_x^2 over every configuration.

    Walks the configurations with ``itertools.product`` and finds clusters
    with the union-find ``cluster_of``, which shares no code with the
    enumeration kernel.  A cluster of size s adds s^2 and s^3.
    """
    first = [0] * (graph.n_edges + 1)
    second = [0] * (graph.n_edges + 1)
    for flags in itertools.product((False, True), repeat=graph.n_edges):
        config = EdgeConfig(flags, 0.5)
        m, seen = sum(flags), set()
        for x in range(graph.n_vertices):
            if x not in seen:
                members = cluster_of(graph, config, x).members
                seen |= members
                first[m] += len(members) ** 2
                second[m] += len(members) ** 3
    return tuple(first), tuple(second)


@pytest.mark.parametrize(
    "graph",
    [generate_builtin(name) for name in
     ("complete(3)", "tetrahedron", "cube", "octahedron", "ring(13)")]
    + [generate_random_regular(10, 3, seed) for seed in (1, 2)],
    ids=lambda g: g.label,
)
def test_polynomial_counts_match_union_find_reference(graph):
    # ring(13) and the 15-edge random graphs span several enumeration
    # blocks, so the block bases over the high edges are exercised too
    poly = moment_polynomial(graph)
    assert (poly.first_counts, poly.second_counts) == reference_counts(graph)


def rational_moments(poly, p):
    """E(S) and E(S^2) at the float ``p`` from the integer counts, in exact arithmetic."""
    p, m = Fraction(p), poly.n_edges
    weights = [p**k * (1 - p) ** (m - k) for k in range(m + 1)]
    return tuple(sum(w * c for w, c in zip(weights, counts)) / poly.n_vertices
                 for counts in (poly.first_counts, poly.second_counts))


def ulps_off(value, exact):
    """How many units in the last place ``value`` lies from the exact rational."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


def test_ring16_golden_values():
    # recorded before the enumeration kernel was rewritten; every output
    # must stay bit-identical.  conn.first was re-pinned when
    # connectivity_moments began summing S_x instead of pair probabilities,
    # which changes the order of its sum.  exact was re-pinned when
    # exact_moments became the DP's integer counts summed once in float64:
    # it is now correctly rounded, where the enumeration's block sums were
    # 1 and 3 ulps off
    ring = generate_builtin("ring(16)")
    exact = exact_moments(ring, 0.4)
    assert (exact.first.hex(), exact.second.hex()) == (
        "0x1.2aaa689d26b96p+1", "0x1.eaa638c1d54aap+2")
    first, second = rational_moments(moment_polynomial(ring), 0.4)
    assert (exact.first, exact.second) == (float(first), float(second))
    conn = connectivity_moments(ring, 0.4)
    assert (conn.first.hex(), conn.second.hex()) == (
        "0x1.2aaa689d26ba8p+1", "0x1.eaa638c1d54bbp+2")
    poly = moment_polynomial(ring)
    assert poly.first_counts == (
        16, 288, 2432, 12800, 47040, 128128, 267904, 439296, 572000, 594880,
        494208, 326144, 168896, 67200, 19840, 4096, 256)
    assert poly.second_counts == (
        16, 352, 3552, 22016, 94400, 298368, 722176, 1371136, 2072928,
        2516800, 2461888, 1936896, 1217216, 603008, 230400, 65536, 4096)


def test_ring20_and_pair_table_golden_values():
    # recorded before blocks were enumerated in groups with int8 state;
    # exact re-pinned when exact_moments became the DP: 1 and 2 ulps from
    # the exact rational, where the enumeration was 4 and 6 off
    ring = generate_builtin("ring(20)")
    exact = exact_moments(ring, 0.4)
    assert (exact.first.hex(), exact.second.hex()) == (
        "0x1.2aaaa89b55f33p+1", "0x1.eaaa7ef697e98p+2")
    first, second = rational_moments(moment_polynomial(ring), 0.4)
    assert ulps_off(exact.first, first) < 1.5 and ulps_off(exact.second, second) < 2.5
    conn = connectivity_moments(ring, 0.4)
    assert (conn.first.hex(), conn.second.hex()) == (
        "0x1.2aaaa89b55f2cp+1", "0x1.eaaa7ef697e98p+2")
    table = pair_connectivity(generate_builtin("ring(16)"), 0.37)
    assert hashlib.sha256(table.pair_probs.tobytes()).hexdigest() == (
        "0222638ff2354721acca9671441c3f631e3892bbf0d97e7cb55d8ab83bff1bfa")


def reference_block(graph, j, width):
    """Block j of the enumeration from scratch, as ``(n_open, labels, sizes, first, second)``.

    Column c is configuration j * width + c.  Labels come from relaxing
    the smallest vertex id over the open edges until nothing changes, and
    sizes from counting equal labels; no merge step is shared with
    :func:`oracle._open_edge`.
    """
    n = graph.n_vertices
    configs = j * width + np.arange(width)
    is_open = (configs >> np.arange(graph.n_edges)[:, None]) & 1 == 1
    labels = np.repeat(np.arange(n)[:, None], width, axis=1)
    changed = True
    while changed:
        changed = False
        for flags, (u, v) in zip(is_open, graph.edges):
            low = np.where(flags, np.minimum(labels[u], labels[v]), labels[[u, v]])
            changed |= not np.array_equal(low, labels[[u, v]])
            labels[[u, v]] = low
    sizes = (labels[:, None, :] == labels[None, :, :]).sum(axis=1)
    return is_open.sum(axis=0), labels, sizes, sizes.sum(axis=0), (sizes**2).sum(axis=0)


def routes(graph, p):
    exact, conn = exact_moments(graph, p), connectivity_moments(graph, p)
    return (exact.first, exact.second, conn.first, conn.second,
            pair_connectivity(graph, p).pair_probs.tobytes())


@pytest.mark.parametrize("per_group", [1, 3, 16], ids=["one", "partial last", "all in one"])
def test_group_layout_never_changes_a_block(per_group, monkeypatch):
    # ring(16) has 16 blocks: groups of 1, of 3 (the last holds one block)
    # and of all 16 must yield the same blocks in the same order
    ring = generate_builtin("ring(16)")
    expected = routes(ring, 0.37)
    # int8 labels and sizes of 16 vertices, and three int64 rows, per column
    monkeypatch.setattr(oracle, "_GROUP_BYTES", per_group * oracle._BLOCK * (2 * 16 + 3 * 8))
    assert oracle._group_blocks(16, oracle._BLOCK) == per_group
    blocks = 0
    for j, block in enumerate(oracle._config_blocks(ring)):
        assert block[1].dtype == block[2].dtype == np.int8
        for got, want in zip(block, reference_block(ring, j, oracle._BLOCK)):
            np.testing.assert_array_equal(got, want)
        blocks += 1
    assert blocks == 16
    assert routes(ring, 0.37) == expected


def test_int8_state_holds_every_enumerable_graph(monkeypatch):
    # labels and sizes are at most N <= 2 |E| <= 48 under the edge cap; a
    # graph past it is refused before any state exists, whatever its size
    # (numpy once refused ring(128)'s block starts with a ValueError).  The
    # cap binds the two enumeration routes only; exact_moments is the DP
    assert oracle._STATE_DTYPE == np.int8
    assert 2 * DEFAULT_EDGE_CAP <= np.iinfo(oracle._STATE_DTYPE).max
    monkeypatch.setattr(oracle, "_state", _no_state)
    for name in ("ring(128)", "ring(100)", f"ring({DEFAULT_EDGE_CAP + 1})"):
        graph = generate_builtin(name)
        with pytest.raises(TooManyEdgesError, match="enumeration cap"):
            next(oracle._config_blocks(graph))
        for route in (connectivity_moments, pair_connectivity):
            with pytest.raises(TooManyEdgesError, match="enumeration cap"):
                route(graph, 0.3)


def _no_state(*args):
    raise AssertionError("enumeration state allocated before the refusal")


def _state_bytes(n, m):
    """Bytes of the block starts and of one group of _config_blocks, for m edges on n vertices."""
    low, n_blocks, shared, n_group = oracle._layout(n, m)
    return ((n_blocks << shared) + (n_group << low)) * oracle._column_bytes(n)


def test_enumeration_state_at_the_edge_cap_is_small():
    # every graph the edge cap admits, N <= 2 |E| <= 48, holds at most
    # 1.41 MB of enumeration state, so no byte cap of its own is needed
    worst = max(_state_bytes(n, m) for m in range(1, DEFAULT_EDGE_CAP + 1)
                for n in range(2, 2 * m + 1))
    assert worst == _state_bytes(48, 24) == 1_474_560
    # an enumeration at the cap allocates that state, and the temporaries
    # of one merge over a group on top
    ring = generate_builtin(f"ring({DEFAULT_EDGE_CAP})")
    tracemalloc.start()
    try:
        next(oracle._config_blocks(ring))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _state_bytes(24, 24) <= peak < 2 * _state_bytes(24, 24)


def test_evaluate_past_float_range_is_exact():
    # binomial counts C(1100, k) reach ~2^1095 and overflow float64, while the
    # moments stay small: with K ~ Binomial(1100, p), E(K + 1) and E((K + 1)^2)
    m = 1100
    binom = [math.comb(m, k) for k in range(m + 1)]
    assert max(binom) >= 1 << 1023
    poly = MomentPolynomial(
        n_vertices=1, n_edges=m,
        first_counts=tuple((k + 1) * c for k, c in enumerate(binom)),
        second_counts=tuple((k + 1) ** 2 * c for k, c in enumerate(binom)),
    )
    for p in (0.0, 2.0**-40, 0.3, 0.5, 1.0 - 2.0**-53, 1.0):
        mean = m * Fraction(p)
        pair = poly.evaluate(p)
        assert pair.first == float(mean + 1)
        assert pair.second == float(mean * (1 - Fraction(p)) + (mean + 1) ** 2)


def test_evaluate_keeps_float_path_just_below_the_limit():
    # the largest counts still summed in float64 give the float64 answer
    counts = ((1 << 1023) - (1 << 970),) * 3
    poly = MomentPolynomial(n_vertices=2, n_edges=2, first_counts=counts, second_counts=counts)
    weights = np.array([0.7**2, 0.3 * 0.7, 0.3**2])
    assert poly.evaluate(0.3).first == float(weights @ np.array(counts, dtype=np.float64)) / 2


def enumeration_counts(graph):
    """Per-m counts from the binary-doubling enumeration that the other routes use."""
    first = np.zeros(graph.n_edges + 1, dtype=np.int64)
    second = np.zeros(graph.n_edges + 1, dtype=np.int64)
    for n_open, _, _, s1, s2 in oracle._config_blocks(graph):
        np.add.at(first, n_open, s1)
        np.add.at(second, n_open, s2)
    return tuple(int(c) for c in first), tuple(int(c) for c in second)


DP_GRAPHS = (
    [generate_builtin(name) for name in
     ("complete(2)", "complete(3)", "tetrahedron", "complete(5)", "cube", "octahedron",
      "ring(13)", "ring(20)", "complete(7)")]
    + [generate_random_regular(10, 3, seed) for seed in (1, 2)]
    + [generate_random_regular(14, 3, seed) for seed in range(1, 7)]
)


@pytest.mark.parametrize("graph", DP_GRAPHS, ids=lambda g: g.label)
def test_frontier_dp_matches_enumeration(graph):
    assert graph.n_edges <= 21
    poly = moment_polynomial(graph)
    assert (poly.first_counts, poly.second_counts) == enumeration_counts(graph)


@pytest.mark.parametrize(
    "graph",
    [generate_builtin(name) for name in ("tetrahedron", "cube", "octahedron", "ring(9)")]
    + [generate_random_regular(10, 3, 1)],
    ids=lambda g: g.label,
)
def test_frontier_counts_do_not_depend_on_edge_order(graph):
    expected = moment_polynomial(graph)
    rng = random.Random(graph.label)
    for _ in range(3):
        order = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges]
        rng.shuffle(order)
        counts = oracle._frontier_counts(graph, tuple(order))
        assert counts == (expected.first_counts, expected.second_counts)


def test_edge_order_widths():
    # the greedy order keeps every builtin solid under the cap; dense or
    # high-dimensional graphs pass it and are refused before any DP step
    widths = {name: oracle._edge_order(generate_builtin(name))[1] for name in
              ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron",
               "hypercube(4)", "ring(1000)", "complete(12)", "hypercube(10)")}
    assert widths["ring(1000)"] == 3
    assert max(widths[name] for name in ("tetrahedron", "cube", "octahedron", "dodecahedron",
                                         "icosahedron", "hypercube(4)")) <= MAX_FRONTIER
    assert widths["complete(12)"] > MAX_FRONTIER and widths["hypercube(10)"] > MAX_FRONTIER
    order, _ = oracle._edge_order(generate_builtin("dodecahedron"))
    assert sorted(tuple(sorted(e)) for e in order) == list(generate_builtin("dodecahedron").edges)


def ring_counts(n):
    """Closed-form counts of ring(n): first (k = 2) and second (k = 3).

    With m <= n - 2 open edges the open arcs are paths, and a start vertex
    lies on an arc of s vertices in N C(n - s - 1, m - s + 1) ways; n - 1
    open edges make one cluster in n ways, and n open edges in one.
    """
    first, second = [0] * (n + 1), [0] * (n + 1)
    for s in range(1, n):
        r, binom = n - s - 1, 1  # binom = C(r, j)
        for j in range(r + 1):
            first[s - 1 + j] += n * binom * s**2
            second[s - 1 + j] += n * binom * s**3
            binom = binom * (r - j) // (j + 1)
    first[n - 1:], second[n - 1:] = [n**3, n**2], [n**4, n**3]
    return tuple(first), tuple(second)


@pytest.mark.parametrize("n", [300, 1000])
def test_long_ring_counts_match_closed_form(n):
    # counts outgrow int64 here (ring(1000) needs 1009 bits): the object path
    poly = moment_polynomial(generate_builtin(f"ring({n})"))
    assert max(poly.first_counts).bit_length() > 63
    assert (poly.first_counts, poly.second_counts) == ring_counts(n)


@pytest.mark.parametrize("name", ["dodecahedron", "icosahedron"])
def test_dp_only_solids_against_bounds_and_simulation(name):
    graph = generate_builtin(name)
    poly = moment_polynomial(graph)
    for k in range(41):
        p = k * 0.025
        exact = poly.evaluate(p)
        bound = best_bounds(BoundParams(degree=graph.degree, n_vertices=graph.n_vertices, p=p))
        assert exact.first <= bound.first * (1 + 1e-12)
        assert exact.second <= bound.second * (1 + 1e-12)
    for p in (0.1, 0.35, 0.6):
        exact = poly.evaluate(p)
        est = estimate_moments(graph, p, 200_000, seed=12)
        assert abs(est.mean_s - exact.first) < 4 * est.se_s
        assert abs(est.mean_s2 - exact.second) < 4 * est.se_s2


def test_frontier_cap_is_checked_before_the_dp(monkeypatch):
    def no_work(*args):
        raise AssertionError("the DP started on a graph over the frontier cap")

    monkeypatch.setattr(oracle, "_frontier_counts", no_work)
    with pytest.raises(TooManyEdgesError, match=f"cap of {MAX_FRONTIER}"):
        moment_polynomial(generate_builtin("hypercube(10)"))


@pytest.mark.parametrize("n", [1172, 5000, 20_000])
def test_long_narrow_graphs_are_refused_before_the_dp(n, monkeypatch):
    # width 3 at every step, but |E| columns of ~|E|-bit counts: ring(1000)
    # takes seconds, and the work grows as |E|^3
    def no_work(*args):
        raise AssertionError("the DP started over its work cap")

    monkeypatch.setattr(oracle, "_frontier_counts", no_work)
    with pytest.raises(TooManyEdgesError, match=f"{n} edges would take an estimated"):
        moment_polynomial(generate_builtin(f"ring({n})"))


def test_very_long_graphs_are_refused_before_their_edges_are_ordered(monkeypatch):
    # ordering ring(2^20) took seconds before its work was estimated; every
    # step holds at least its edge's two endpoints, so |E| bounds the work
    def no_order(*args):
        raise AssertionError("the edges were ordered before the |E| bound refused them")

    monkeypatch.setattr(oracle, "_edge_order", no_order)
    with pytest.raises(TooManyEdgesError, match="20000 edges would take an estimated"):
        moment_polynomial(generate_builtin("ring(20000)"))
    monkeypatch.undo()

    class Accepted(Exception):
        pass

    def accepted(*args):
        raise Accepted

    # the bound never refuses what the full estimate accepts
    monkeypatch.setattr(oracle, "_frontier_counts", accepted)
    ring = generate_builtin("ring(1171)")
    assert 12 * 1172 * 1173 - 24 <= oracle._dp_work(ring, oracle._edge_order(ring)[0])
    with pytest.raises(Accepted):
        moment_polynomial(ring)


def test_work_cap_admits_the_longest_ring_and_the_widest_solids():
    ring = generate_builtin("ring(1171)")
    assert oracle._dp_work(ring, oracle._edge_order(ring)[0]) <= oracle.MAX_DP_WORK
    for name in ("dodecahedron", "icosahedron", "hypercube(4)", "complete(8)"):
        graph = generate_builtin(name)
        assert oracle._dp_work(graph, oracle._edge_order(graph)[0]) < oracle.MAX_DP_WORK / 10


def fits_the_dp(graph):
    """Whether the DP takes ``graph``: greedy width and estimated work within the caps."""
    order, width = oracle._edge_order(graph)
    return width <= MAX_FRONTIER and oracle._dp_work(graph, order) <= oracle.MAX_DP_WORK


@pytest.mark.parametrize(
    "n, d", [(16, 3), (12, 4), (10, 3), (12, 3), (14, 3), (9, 4), (10, 4), (11, 4)])
def test_greedy_order_fits_the_frontier_cap_on_small_random_graphs(n, d):
    # exact_moments once enumerated every graph of at most 24 edges and now
    # runs the DP, so the DP must take them all: every 3- and 4-regular
    # shape with N > 8 in these samples.  A graph with N <= 8 fits
    # MAX_FRONTIER = 8 whatever the order, as the frontier holds at most N
    assert n * d // 2 <= DEFAULT_EDGE_CAP
    assert all(fits_the_dp(generate_random_regular(n, d, seed)) for seed in range(1, 201))


def test_the_dp_takes_every_builtin_shape_the_enumeration_took():
    names = ([f"ring({n})" for n in range(3, DEFAULT_EDGE_CAP + 1)]
             + [f"complete({n})" for n in range(3, 8)] + ["hypercube(3)"])
    for name in names:
        graph = generate_builtin(name)
        assert graph.n_edges <= DEFAULT_EDGE_CAP and fits_the_dp(graph), name


@pytest.mark.parametrize(
    "name", ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron", "ring(24)",
             "complete(7)"])
def test_exact_moments_is_the_dp_evaluated_at_p(name):
    # bit for bit, on the 30-edge solids that the enumeration refused too
    graph = generate_builtin(name)
    poly = moment_polynomial(graph)
    for p in (0.0, 0.1, 0.35, 0.9, 1.0):
        assert exact_moments(graph, p) == poly.evaluate(p)


@pytest.mark.parametrize("n, d", [(12, 3), (16, 3), (10, 4)])
@pytest.mark.parametrize("seed", range(1, 6))
def test_exact_moments_agrees_with_the_enumeration_on_random_graphs(n, d, seed):
    # connectivity_moments shares no code with the DP: the one independent
    # check of exact_moments.  One p, as 24 edges take a second to enumerate
    graph = generate_random_regular(n, d, seed)
    exact, conn = exact_moments(graph, 0.35), connectivity_moments(graph, 0.35)
    assert exact.first == pytest.approx(conn.first, rel=1e-12)
    assert exact.second == pytest.approx(conn.second, rel=1e-12)


@pytest.mark.parametrize(
    "name, match", [("complete(12)", "frontier width"), ("ring(1172)", "would take an estimated")])
def test_exact_moments_refuses_before_any_dp_step(name, match, monkeypatch):
    def no_work(*args):
        raise AssertionError("the DP started on a graph over its caps")

    monkeypatch.setattr(oracle, "_frontier_counts", no_work)
    with pytest.raises(TooManyEdgesError, match=match):
        exact_moments(generate_builtin(name), 0.5)


def test_exact_moments_on_ring24_is_fast():
    # the enumeration of 2^24 configurations took 1.3 s; the DP takes ms
    ring = generate_builtin("ring(24)")
    start = time.perf_counter()
    exact_moments(ring, 0.4)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("p", [5e-324, 1e-300])
def test_evaluate_past_float_range_is_fast_at_tiny_p(p):
    # p = a / 2^1074 made the exact sum's integers ~1.2M bits long
    m = 1100
    binom = [math.comb(m, k) for k in range(m + 1)]
    poly = MomentPolynomial(
        n_vertices=1, n_edges=m,
        first_counts=tuple((k + 1) * c for k, c in enumerate(binom)),
        second_counts=tuple((k + 1) ** 2 * c for k, c in enumerate(binom)),
    )
    start = time.perf_counter()
    pair = poly.evaluate(p)
    assert time.perf_counter() - start < 0.5
    mean = m * Fraction(p)
    assert pair.first == float(mean + 1)
    assert pair.second == float(mean * (1 - Fraction(p)) + (mean + 1) ** 2)


def test_evaluate_sums_exactly_at_a_rounding_tie():
    # with p = 2^-1074 these counts make the moment 1 + 2^-53, halfway
    # between two floats: the fixed-point brackets round apart, and the
    # exact sum rounds the tie to even
    p = 5e-324
    counts = (4, 8 + 2**1023, 4 + 2**1023)
    bits = sum(counts).bit_length() + (2).bit_length() + 64
    low, high = oracle._bracket(counts, 1, 2**1074, bits)
    assert low / (4 << bits) == 1.0 and high / (4 << bits) == 1.0 + 2.0**-52
    poly = MomentPolynomial(n_vertices=4, n_edges=2, first_counts=counts, second_counts=counts)
    q = 1 - Fraction(p)
    exact = (counts[0] * q**2 + counts[1] * Fraction(p) * q + counts[2] * Fraction(p) ** 2) / 4
    assert exact == 1 + Fraction(1, 2**53)
    assert poly.evaluate(p).first == float(exact) == 1.0
