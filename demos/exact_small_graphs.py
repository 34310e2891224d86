"""Exact cluster-size moments: the frontier DP and its enumeration cross-check.

``exact_moments`` and ``moment_polynomial`` are one engine, a frontier DP
that never lists configurations: it keeps exact integer counts per number
of open edges, so it reaches the 30-edge dodecahedron and icosahedron, and
all five Platonic solids are set against the closed-form bounds at the end.
Small graphs also admit a brute-force reference: enumerate all 2^|E|
open/closed edge patterns, weight each by p^m q^(|E|-m), and average
cluster sizes over the uniform start vertex. ``connectivity_moments`` and
``pair_connectivity`` do that, and share no code with the DP.
"""

from percmoments import (
    BoundParams,
    best_bounds,
    connectivity_moments,
    exact_moments,
    generate_builtin,
    moment_polynomial,
    pair_connectivity,
)
from percmoments.graphs import BUILTIN_NAMES


def main() -> None:
    k3 = generate_builtin("complete(3)")
    m = exact_moments(k3, 0.5)
    print(f"K3 at p=0.5: E(S) = {m.first}, E(S^2) = {m.second}")

    # exact_moments evaluates this integer-count polynomial: coefficient c_m
    # sums the sizes over (config, start) pairs with m open edges
    poly = moment_polynomial(k3)
    print(f"K3 first-moment counts by open-edge count m: {poly.first_counts}")
    print(f"K3 second-moment counts: {poly.second_counts}")
    print(f"evaluated at p=0.5: {poly.evaluate(0.5)}")

    # the enumeration reference: moments per start vertex, E(S) = mean_x
    # sum_y P(x <-> y) = mean_x E(S_x) and E(S^2) = mean_x E(S_x^2), both
    # from per-vertex sizes over all 2^|E| configurations
    cm = connectivity_moments(k3, 0.5)
    print(f"enumeration agrees: {cm}")
    table = pair_connectivity(k3, 0.5)
    print(f"P(0 <-> 1) on K3 at p=0.5: {table.pair_probs[0, 1]}")

    tetra = generate_builtin("tetrahedron")
    m = exact_moments(tetra, 0.5)
    print(f"\ntetrahedron at p=0.5: E(S) = {m.first}, E(S^2) = {m.second}")

    # the polynomial survives JSON round trips with exact integer counts
    blob = moment_polynomial(tetra).to_json_dict()
    print(f"tetrahedron polynomial: |E| = {blob['n_edges']}, "
          f"denominator = {blob['denominator']}, "
          f"first counts = {blob['first_counts']}")

    # every Platonic solid, exact against the combined closed-form bound
    p = 0.35
    print(f"\nPlatonic solids at p={p}: exact E(S), E(S^2) vs best bound")
    for name in BUILTIN_NAMES:
        g = generate_builtin(name)
        exact = exact_moments(g, p)
        bound = best_bounds(BoundParams(degree=g.degree, n_vertices=g.n_vertices, p=p))
        print(f"  {name:12s} |E|={g.n_edges:2d}  E(S) = {exact.first:.6f} <= {bound.first:.6f}"
              f"  E(S^2) = {exact.second:.6f} <= {bound.second:.6f}")


if __name__ == "__main__":
    main()
