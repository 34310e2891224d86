"""Monte Carlo moment estimates against bounds and the exact oracle.

Sweeps the octahedron over a p grid with a fixed seed, printing the
estimated moments with standard errors next to the combined closed-form
bound and the exact value. Estimates are reproducible: replicate streams
come from a counter-based generator, so the numbers below are identical
for any worker count and across runs.
"""

from percmoments import estimate_moments, generate_builtin, sweep


def main() -> None:
    g = generate_builtin("octahedron")
    grid = [i / 10 for i in range(11)]
    result = sweep(g, grid, replicates=50_000, seed=7, include_oracle=True)

    print(f"graph: {result.graph_label}  N={result.n_vertices}  D={result.degree}  "
          f"reps={result.replicates}")
    print(f"{'p':>5} {'mean S':>9} {'se':>8} {'exact':>9} {'bound':>9} "
          f"{'mean S^2':>10} {'se':>8} {'exact':>9} {'bound':>9}")
    for row in result.rows:
        est = row.estimate
        print(f"{row.p:5.2f} {est.mean_s:9.4f} {est.se_s:8.5f} {row.exact.first:9.4f} "
              f"{row.combined.first:9.4f} {est.mean_s2:10.4f} {est.se_s2:8.5f} "
              f"{row.exact.second:9.4f} {row.combined.second:9.4f}")

    # bit-identical under parallelism: the moment sums are exact integers
    serial = estimate_moments(g, 0.35, 50_000, seed=7, workers=1)
    threaded = estimate_moments(g, 0.35, 50_000, seed=7, workers=8)
    print(f"\nworkers=1 and workers=8 agree exactly: {serial == threaded}")


if __name__ == "__main__":
    main()
