"""Layered growth of one open cluster.

Replays one Monte Carlo replicate on the dodecahedron (its start vertex
and edge configuration, exactly as a seeded run saw them) and grows the
cluster of the start vertex one generation at a time: generation n holds
the vertices at open-path distance n. The generation counts always sum
to the cluster size, which is the identity behind the moment bounds.
"""

from percmoments import cluster_of, generate_builtin, replicate_realization, run_birth_process


def main() -> None:
    g = generate_builtin("dodecahedron")
    p, seed, index = 0.45, 20, 7
    x, config = replicate_realization(g, p, seed, index)
    print(f"replicate {index} of seed {seed}")

    trace = run_birth_process(g, config, x)
    print(f"graph: {g.label}  p={p}  start vertex {trace.start_vertex}")
    for n, layer in enumerate(trace.layers):
        if n > 0 and not layer:
            break
        print(f"  generation {n}: count={trace.counts[n]:2d}  vertices={sorted(layer)}")
    print(f"total occupied: {trace.total}")

    # the layered view and plain connected-component search must agree
    flat = cluster_of(g, config, x)
    print(f"cluster_of size agrees: {flat.size == trace.total}")

    # per-particle offspring counts refine the generation totals: the
    # children born to generation n are exactly generation n + 1
    depth = max(n for n, c in enumerate(trace.counts) if c)
    births = [sum(trace.per_particle_offspring[n]) for n in range(depth)]
    print(f"offspring sums per generation: {births}")
    print(f"next-generation counts match: {births == list(trace.counts[1:depth + 1])}")


if __name__ == "__main__":
    main()
