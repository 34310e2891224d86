"""Exact cluster-size moments by configuration enumeration.

Small graphs admit a brute-force oracle: enumerate all 2^|E| open/closed
edge patterns, weight each by p^m q^(|E|-m), and average cluster sizes
over the uniform start vertex. The same enumeration also yields an exact
polynomial in p and a table of pairwise connection probabilities.
"""

from percmoments import (
    connectivity_moments,
    exact_moments,
    generate_builtin,
    moment_polynomial,
    pair_connectivity,
)


def main() -> None:
    k3 = generate_builtin("complete(3)")
    m = exact_moments(k3, 0.5)
    print(f"K3 at p=0.5: E(S) = {m.first}, E(S^2) = {m.second}")

    # integer-count polynomial: coefficients c_m count (config, start) pairs
    poly = moment_polynomial(k3)
    print(f"K3 first-moment counts by open-edge count m: {poly.first_counts}")
    print(f"K3 second-moment counts: {poly.second_counts}")
    print(f"evaluated at p=0.5: {poly.evaluate(0.5)}")

    # third route: moments from the pairwise connection probabilities
    # E(S) = mean_x sum_y P(x <-> y), E(S^2) = mean_x E(S_x^2) via per-vertex sizes
    cm = connectivity_moments(k3, 0.5)
    print(f"connectivity route agrees: {cm}")
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


if __name__ == "__main__":
    main()
