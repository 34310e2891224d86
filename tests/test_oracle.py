import itertools
import math
import json
from fractions import Fraction

import numpy as np
import pytest

from percmoments import (
    EdgeConfig,
    MomentPolynomial,
    TooManyEdgesError,
    cluster_of,
    connectivity_moments,
    exact_moments,
    generate_builtin,
    generate_random_regular,
    moment_polynomial,
    pair_connectivity,
)
from percmoments.oracle import DEFAULT_EDGE_CAP

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


def test_edge_cap_enforced(dodecahedron, k3, tetrahedron):
    with pytest.raises(TooManyEdgesError):
        exact_moments(dodecahedron, 0.5)
    with pytest.raises(TooManyEdgesError):
        moment_polynomial(dodecahedron)
    assert DEFAULT_EDGE_CAP == 24
    # explicit override tightens or loosens the cap
    assert exact_moments(k3, 0.5, max_edges=4).first == pytest.approx(2.25, abs=1e-12)
    with pytest.raises(TooManyEdgesError):
        exact_moments(tetrahedron, 0.5, max_edges=4)


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


def test_ring16_golden_values():
    # recorded before the enumeration kernel was rewritten; every output
    # must stay bit-identical
    ring = generate_builtin("ring(16)")
    exact = exact_moments(ring, 0.4)
    assert (exact.first.hex(), exact.second.hex()) == (
        "0x1.2aaa689d26b95p+1", "0x1.eaa638c1d54a7p+2")
    conn = connectivity_moments(ring, 0.4)
    assert (conn.first.hex(), conn.second.hex()) == (
        "0x1.2aaa689d26ba5p+1", "0x1.eaa638c1d54bbp+2")
    poly = moment_polynomial(ring)
    assert poly.first_counts == (
        16, 288, 2432, 12800, 47040, 128128, 267904, 439296, 572000, 594880,
        494208, 326144, 168896, 67200, 19840, 4096, 256)
    assert poly.second_counts == (
        16, 352, 3552, 22016, 94400, 298368, 722176, 1371136, 2072928,
        2516800, 2461888, 1936896, 1217216, 603008, 230400, 65536, 4096)


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
