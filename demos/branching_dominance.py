"""Check that cluster generations are dominated by branching.

Generation sizes of the percolation birth process can never stochastically
exceed those of a branching process whose first generation is
Binomial(D, p) and whose later offspring are Binomial(D-1, p): revisited
vertices only remove children. This script samples the birth tails on the
cube, sets them against the branching process's exact tails (from its
probability generating function) and prints the comparison for the first
few generations.
"""

from percmoments import dominance_report, generate_builtin


def main() -> None:
    g = generate_builtin("cube")
    p = 0.4
    report = dominance_report(g, p, replicates=30_000, seed=3)
    print(f"graph: {g.label}  p={p}  replicates={report.replicates}")
    print(f"{'gen':>4} {'k':>3} {'P(Y>=k)':>9} {'P(X>=k)':>9} {'ok':>4}")
    for row in report.rows:
        if row.generation > 3 or row.k > 6:
            continue
        print(f"{row.generation:4d} {row.k:3d} {row.birth_tail:9.4f} "
              f"{row.branching_tail:9.4f} {str(row.within_tolerance):>5}")

    bad = report.violations()
    print(f"\nviolations beyond 3 standard errors: {len(bad)}")

    # generation 1 is the sharp case: both sides are Binomial(D, p), so the
    # sampled birth tail should match the exact one up to Monte Carlo noise
    gen1 = [r for r in report.rows if r.generation == 1]
    worst = max(abs(r.birth_tail - r.branching_tail) for r in gen1)
    print(f"largest generation-1 tail gap: {worst:.4f}")


if __name__ == "__main__":
    main()
