import hashlib
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from percmoments import (
    BadIndexError,
    BadParameterError,
    GraphConstructionError,
    InfeasibleError,
    NotConnectedError,
    NotRegularError,
    NotSimpleError,
    RetryLimitError,
    build_from_edge_list,
    format_edge_file,
    generate_builtin,
    generate_random_regular,
    load_edge_file,
)
from percmoments import graphs
from percmoments.graphs import MAX_FAMILY_EDGES


def bfs_layer_sizes(graph, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    sizes = {}
    for d in dist.values():
        sizes[d] = sizes.get(d, 0) + 1
    return tuple(sizes[k] for k in sorted(sizes))


def girth(graph):
    best = None
    for s in range(graph.n_vertices):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cycle = dist[u] + dist[v] + 1
                    best = cycle if best is None else min(best, cycle)
    return best


@pytest.mark.parametrize(
    "name,n,d,m",
    [
        ("tetrahedron", 4, 3, 6),
        ("cube", 8, 3, 12),
        ("octahedron", 6, 4, 12),
        ("dodecahedron", 20, 3, 30),
        ("icosahedron", 12, 5, 30),
        ("ring(7)", 7, 2, 7),
        ("complete(5)", 5, 4, 10),
        ("hypercube(4)", 16, 4, 32),
    ],
)
def test_builtin_sizes(name, n, d, m):
    g = generate_builtin(name)
    assert (g.n_vertices, g.degree, g.n_edges) == (n, d, m)
    assert all(len(g.neighbors(v)) == d for v in range(n))


@pytest.mark.parametrize(
    "name,profile,g",
    [
        ("tetrahedron", (1, 3), 3),
        ("cube", (1, 3, 3, 1), 4),
        ("octahedron", (1, 4, 1), 3),
        ("dodecahedron", (1, 3, 6, 6, 3, 1), 5),
        ("icosahedron", (1, 5, 5, 1), 3),
    ],
)
def test_solid_geometry(name, profile, g):
    graph = generate_builtin(name)
    # vertex-transitive: same layer profile from every start
    profiles = {bfs_layer_sizes(graph, s) for s in range(graph.n_vertices)}
    assert profiles == {profile}
    assert girth(graph) == g


def test_octahedron_is_k6_minus_matching():
    g = generate_builtin("octahedron")
    missing = {(0, 1), (2, 3), (4, 5)}
    all_pairs = {(u, v) for u in range(6) for v in range(u + 1, 6)}
    assert set(g.edges) == all_pairs - missing


def test_cube_equals_hypercube_3():
    assert generate_builtin("cube").edges == generate_builtin("hypercube(3)").edges


def test_ring_and_complete_structure():
    ring = generate_builtin("ring(5)")
    assert set(ring.edges) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    k4 = generate_builtin("complete(4)")
    assert k4.n_edges == 6 and k4.degree == 3


@pytest.mark.parametrize(
    "bad",
    ["ring(2)", "complete(1)", "hypercube(0)", "icosahedron(3)", "prism", ""],
)
def test_builtin_name_rejections(bad):
    with pytest.raises(BadParameterError):
        generate_builtin(bad)


@pytest.mark.parametrize(
    "name",
    [
        f"ring({MAX_FAMILY_EDGES + 1})",
        "complete(1449)",  # 1449 * 1448 / 2 = 1049076 edges
        "hypercube(17)",  # 17 * 2^16 = 1114112 edges
        "hypercube(40)",
        "hypercube(9999999)",
        "ring(" + "9" * 5000 + ")",
    ],
    ids=lambda name: name if len(name) < 30 else "5000-digit ring",
)
def test_oversized_families_are_refused(name):
    with pytest.raises(BadParameterError, match=str(MAX_FAMILY_EDGES)):
        generate_builtin(name)


def test_builtin_names_are_case_insensitive():
    assert generate_builtin("Ring(5)").edges == generate_builtin("ring(5)").edges
    assert generate_builtin(" CUBE ").label == "cube"


def test_edge_list_validation():
    with pytest.raises(NotSimpleError):
        build_from_edge_list(3, [(0, 0), (1, 2), (0, 1)])
    with pytest.raises(NotSimpleError):
        build_from_edge_list(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(NotRegularError):
        build_from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(NotConnectedError):
        build_from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(BadIndexError):
        build_from_edge_list(3, [(0, 1), (1, 3), (0, 3)])
    with pytest.raises(BadParameterError):
        build_from_edge_list(1, [])


@pytest.mark.parametrize(
    "n, edges, error",
    [
        (3, [(0, 1.5), (1, 2), (0, 2)], BadIndexError),
        (3, [(0, 1), ("1", 2), (0, 2)], BadIndexError),
        (3, [(0, 1), (1, None), (0, 2)], BadIndexError),
        ("3", [(0, 1), (1, 2), (0, 2)], BadParameterError),
        (3.0, [(0, 1), (1, 2), (0, 2)], BadParameterError),
        (None, [(0, 1), (1, 2), (0, 2)], BadParameterError),
    ],
    ids=["float vertex", "str vertex", "None vertex", "str N", "float N", "None N"],
)
def test_edge_list_refuses_non_integers(n, edges, error):
    # int() once truncated the edge (0, 1.5) to (0, 1)
    with pytest.raises(error):
        build_from_edge_list(n, edges)


@pytest.mark.parametrize(
    "edges, error",
    [
        ([(0, 1, 2), (1, 2), (0, 2)], GraphConstructionError),
        ([(0, 1), 5, (0, 2)], GraphConstructionError),
        ([(0, 1), (1,), (0, 2)], GraphConstructionError),
        (None, BadParameterError),
        (5, BadParameterError),
    ],
    ids=["three ids", "int edge", "one id", "None edges", "int edges"],
)
def test_edge_list_refuses_malformed_edges(edges, error):
    # these once escaped as bare ValueError (unpacking) or TypeError
    with pytest.raises(error) as refusal:
        build_from_edge_list(3, edges)
    assert type(refusal.value) is error


def test_edge_file_with_more_vertices_than_edge_ends_is_refused(tmp_path):
    # every vertex of a D-regular graph with D >= 1 has an edge, so N <= 2|E|;
    # a per-vertex adjacency of N = 3 000 000 once took 1.7 s and 237 MB
    path = tmp_path / "sparse.edges"
    path.write_text(f"{10**6} 2\n0 1\n1 2\n2 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(NotRegularError):
            load_edge_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_edges_are_canonicalized():
    g = build_from_edge_list(3, [(2, 1), (1, 0), (2, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.neighbors(1) == (0, 2)


def test_neighbors_rejects_bad_vertex(k3):
    with pytest.raises(BadIndexError):
        k3.neighbors(3)
    with pytest.raises(BadIndexError):
        k3.neighbors(-1)


@pytest.mark.parametrize("vertex", ["1", None, 1.5, True, np.float64(1.0)],
                         ids=["str", "None", "float", "bool", "numpy float"])
def test_neighbors_rejects_non_integer_vertex(cube, vertex):
    with pytest.raises(BadIndexError, match="integer"):
        cube.neighbors(vertex)
    assert cube.neighbors(np.int64(1)) == cube.neighbors(1)


def test_edge_array_round_trip(cube):
    arr = cube.edge_array()
    assert arr.shape == (12, 2)
    assert arr.dtype == np.int64
    assert [tuple(row) for row in arr] == list(cube.edges)


@pytest.mark.parametrize("n,d", [(8, 3), (7, 4), (10, 3), (6, 5), (2, 1)])
def test_random_regular_is_valid(n, d):
    g = generate_random_regular(n, d, seed=0)
    assert g.n_vertices == n and g.degree == d
    assert all(len(g.neighbors(v)) == d for v in range(n))
    assert bfs_layer_sizes(g, 0) is not None  # reachable from 0
    assert sum(bfs_layer_sizes(g, 0)) == n


def test_random_regular_is_seeded():
    a = generate_random_regular(12, 3, seed=5)
    b = generate_random_regular(12, 3, seed=5)
    assert a.edges == b.edges
    c = generate_random_regular(12, 3, seed=6)
    assert a.edges != c.edges


def test_random_regular_complete_case():
    g = generate_random_regular(5, 4, seed=0)
    assert set(g.edges) == set(generate_builtin("complete(5)").edges)


@pytest.mark.parametrize(
    "args, match",
    [
        ((10, 3, -1), "seed must be >= 0"),
        ((10, 3, 1.5), "seed must be an integer"),
        ((10, 3, "a"), "seed must be an integer"),
        ((10, 3, None), "seed must be an integer"),
        (("10", 3, 1), "n_vertices must be an integer"),
        ((10, 3.0, 1), "degree must be an integer"),
        # numpy once raised a bare MemoryError for 7.28 TiB of stubs here
        ((10**12, 3, 0), f"more than {MAX_FAMILY_EDGES} edges"),
        ((MAX_FAMILY_EDGES + 1, 2, 0), f"more than {MAX_FAMILY_EDGES} edges"),
    ],
    ids=["negative seed", "float seed", "str seed", "None seed", "str N", "float D",
         "too many edges", "one edge past the cap"],
)
def test_random_regular_refuses_bad_arguments_before_any_draw(args, match, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a draw started before the arguments were refused")

    monkeypatch.setattr(graphs, "stream_uniforms", no_draw)
    with pytest.raises(BadParameterError, match=match):
        generate_random_regular(*args)


# sha256 of format_edge_file: random(1000,3,1) is the benchmark's seed-1 graph
GOLDEN_RANDOM_GRAPHS = [
    ((12, 3, 5), "53bbecbbae0add1ed2bd8a8605a519d5755e70c338d388e8190e15fb3af8d990"),
    ((1000, 3, 1), "e1c71b71f8101ef1f1a89d99bde584ab55982ece403ca65de9278354b45ba85c"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_RANDOM_GRAPHS,
                         ids=["random(12,3,5)", "random(1000,3,1)"])
def test_random_regular_edges_are_pinned(args, digest):
    # the pairings come from counter streams, so the graph is the same on
    # every numpy version
    g = generate_random_regular(*args)
    assert hashlib.sha256(format_edge_file(g).encode()).hexdigest() == digest


def test_random_regular_gives_up_after_the_attempt_cap(monkeypatch):
    # random(10,3,1) is the eighth pairing drawn for its seed
    monkeypatch.setattr(graphs, "_MAX_ATTEMPTS", 7)
    with pytest.raises(RetryLimitError, match="in 7 attempts"):
        generate_random_regular(10, 3, 1)
    monkeypatch.setattr(graphs, "_MAX_ATTEMPTS", 8)
    assert generate_random_regular(10, 3, 1).edges[:4] == ((0, 6), (0, 7), (0, 8), (1, 2))


_NO_NUMPY_RANDOM = """
import sys
import numpy
if "numpy.random" in sys.modules:
    print("numpy imports numpy.random itself")
    sys.exit(0)
import percmoments as pm
g = pm.generate_random_regular(1000, 3, 1)
pm.estimate_moments(g, 0.5, 500, seed=1)
pm.sweep(g, [0.3, 0.6], 500, seed=2)
pm.dominance_report(pm.generate_builtin("cube"), 0.4, 500, seed=3)
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


def test_package_never_imports_numpy_random():
    # one random-number scheme: graphs, replicates and the dominance report
    # all draw from the counter streams of percmoments.rng
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_RANDOM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if done.stdout.startswith("numpy imports"):
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("n,d", [(5, 3), (4, 4), (4, 0), (4, 1)])
def test_random_regular_infeasible(n, d):
    with pytest.raises(InfeasibleError):
        generate_random_regular(n, d, seed=0)


def test_edge_file_round_trip(tmp_path, tetrahedron):
    path = tmp_path / "tetra.edges"
    path.write_text(format_edge_file(tetrahedron))
    loaded = load_edge_file(path)
    assert loaded.edges == tetrahedron.edges
    assert loaded.label == "tetra"


def test_edge_file_tolerates_comments(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text("# a triangle\n3 2\n\n0 1\n1 2\n# last edge\n0 2\n")
    g = load_edge_file(path)
    assert g.n_vertices == 3 and g.degree == 2


def test_edge_file_rejects_degree_mismatch(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    with pytest.raises(BadParameterError):
        load_edge_file(path)
