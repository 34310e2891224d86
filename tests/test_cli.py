import csv
import hashlib
import io
import json
import shlex
import time
import tracemalloc
from pathlib import Path

import pytest

from percmoments import (
    cli,
    estimate_moments,
    exact_moments,
    format_edge_file,
    generate_builtin,
    moment_polynomial,
    montecarlo,
    oracle,
)
from percmoments.bounds import BoundParams, isolation_bounds
from percmoments.cli import (
    DOMINANCE_COLUMNS,
    MAX_GRID_STEPS,
    MOMENT_COLUMNS,
    CommandRequest,
    execute,
    main,
    parse_args,
    parse_p_grid,
)
from percmoments.errors import BadParameterError
from percmoments.montecarlo import MAX_REPLICATES, MAX_WORKERS


def run_cli(argv):
    buf = io.StringIO()
    code = execute(parse_args(argv), buf)
    return code, buf.getvalue()


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------- parsing


def test_parse_defaults():
    req = parse_args(["simulate", "--graph", "cube", "--p", "0.5"])
    assert req == CommandRequest(
        subcommand="simulate", graph_name="cube", p=0.5, replicates=100_000,
        seed=0, workers=1, output_format="csv",
    )


def test_dominance_refuses_workers_flag(capsys):
    # --workers only schedules Monte Carlo blocks; dominance has none to schedule
    with pytest.raises(SystemExit) as exc:
        main(["dominance", "--graph", "cube", "--p", "0.3", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert parse_args(["simulate", "--graph", "cube", "--p", "0.3", "--workers", "2"]).workers == 2


def test_parse_rejects_missing_and_conflicting_sources(tmp_path):
    with pytest.raises(SystemExit) as exc:
        parse_args(["bounds", "--p", "0.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        parse_args(["bounds", "--graph", "cube", "--edge-file", "x", "--p", "0.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        parse_args(["bounds", "--graph", "cube"])  # --p required
    with pytest.raises(SystemExit):
        parse_args(["frobnicate", "--graph", "cube"])


def test_parse_p_grid_inclusive_endpoints():
    assert parse_p_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert parse_p_grid("0.5:0.5:0.1") == (0.5,)
    grid = parse_p_grid("0:1:0.01")
    assert len(grid) == 101
    assert grid[0] == 0.0 and grid[-1] == 1.0


def test_parse_p_grid_clamps_overshoot():
    grid = parse_p_grid("0:1:0.3")
    assert grid[-1] == 1.0
    assert len(grid) == 5  # 0, 0.3, 0.6, 0.9, 1.0


@pytest.mark.parametrize("bad", ["0:1", "0:1:0", "0:1:-0.1", "0.5:0.2:0.1", "0:2:0.5", "a:b:c",
                                 "0:1:nan", "0:1:inf"])
def test_parse_p_grid_rejections(bad):
    with pytest.raises(BadParameterError):
        parse_p_grid(bad)


# ---------------------------------------------------------------- rows


def test_bounds_row_matches_closed_forms():
    code, out = run_cli(["bounds", "--graph", "tetrahedron", "--p", "0.5"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == MOMENT_COLUMNS
    row = dict(zip(header, rows[0]))
    assert row["graph"] == "tetrahedron"
    assert (row["N"], row["D"], row["p"]) == ("4", "3", "0.5")
    assert row["thm2_first"] == "3.625"
    assert row["thm2_second"] == "13.5625"
    assert float(row["thm1_first"]) == pytest.approx(5.5)
    assert row["best_first"] == "3.625"
    assert row["mean_s"] == "" and row["exact_first"] == ""


def test_oracle_row(k3):
    code, out = run_cli(["oracle", "--graph", "complete(3)", "--p", "0.5"])
    assert code == 0
    _, rows = read_csv(out)
    row = dict(zip(MOMENT_COLUMNS, rows[0]))
    exact = exact_moments(k3, 0.5)
    assert float(row["exact_first"]) == exact.first
    assert float(row["exact_second"]) == exact.second
    assert row["reps"] == "" and row["thm1_first"] == ""


@pytest.mark.parametrize(
    "name, p",
    [("tetrahedron", 0.5), ("cube", 0.3), ("octahedron", 0.7), ("dodecahedron", 0.35),
     ("icosahedron", 0.2), ("hypercube(4)", 0.45)],
)
def test_oracle_row_is_the_dp_evaluated_at_p(name, p, capsys):
    # every solid is answered, bit for bit the DP's float, and nothing on stderr
    code, out = run_cli(["oracle", "--graph", name, "--p", str(p), "--format", "json"])
    assert code == 0
    assert capsys.readouterr().err == ""
    (row,) = json.loads(out)
    exact = moment_polynomial(generate_builtin(name)).evaluate(p)
    assert (row["exact_first"], row["exact_second"]) == (exact.first, exact.second)


def test_oracle_row_is_one_exact_moments_call(monkeypatch):
    # the library and the CLI give exact values through one call
    calls = []

    def counted(graph, p):
        calls.append((graph.label, p))
        return exact_moments(graph, p)

    monkeypatch.setattr(cli, "exact_moments", counted)
    code, out = run_cli(["oracle", "--graph", "dodecahedron", "--p", "0.3", "--format", "json"])
    assert code == 0 and calls == [("dodecahedron", 0.3)]
    (row,) = json.loads(out)
    exact = exact_moments(generate_builtin("dodecahedron"), 0.3)
    assert (row["exact_first"], row["exact_second"]) == (exact.first, exact.second)


def test_simulate_row_round_trips_floats(cube):
    args = ["simulate", "--graph", "cube", "--p", "0.4", "--reps", "5000", "--seed", "3"]
    code, out = run_cli(args)
    assert code == 0
    _, rows = read_csv(out)
    row = dict(zip(MOMENT_COLUMNS, rows[0]))
    est = estimate_moments(cube, 0.4, 5000, 3)
    # repr round-trip: parsing the CSV cell recovers the exact float
    assert float(row["mean_s"]) == est.mean_s
    assert float(row["se_s"]) == est.se_s
    assert float(row["mean_s2"]) == est.mean_s2
    assert row["reps"] == "5000" and row["seed"] == "3"


def test_cli_output_is_byte_identical_across_runs():
    args = ["simulate", "--graph", "octahedron", "--p", "0.3", "--reps", "4000"]
    assert run_cli(args) == run_cli(args)


# (argv, exit code, sha256 of stdout): every subcommand in CSV and JSON, the
# polynomial dump, overflowing "inf" bound cells and a JSON error payload.
GOLDEN_STDOUT = [
    ("bounds --graph tetrahedron --p 0.5", 0,
     "ed48a6f37bfb2e942daaa55f6084153398c92f20c46c4a36110f5bef101339e7"),
    ("bounds --graph hypercube(10) --p 0.5", 0,
     "5fdce00a31632f466e5d1d3239a4944784fbe383e782fff5019dd02370265ad8"),
    ("bounds --graph hypercube(10) --p 0.5 --format json", 0,
     "9c266b4b60537c16742ff2af6d3951f70f8fcb1af9aeaff386fedfcd10054c35"),
    ("oracle --graph cube --p 0.3", 0,
     "cc01766b5f51ead2f8c441c039acac549b302dbc9b08e9c9b2ca25864d58acbb"),
    ("oracle --graph octahedron --p 0.7 --format json", 0,
     "f5d23b4859464187d4ef367336754914f10f86bd19f36f40bdae9081c93365b8"),
    ("oracle --graph cube --p 0.5 --polynomial --format json", 0,
     "bc36d83acd245e1ccadcd96029b9ef6e7f6779c3420b0e0850698a35b3a112c6"),
    ("oracle --graph complete(12) --p 0.5 --format json", 2,
     "099c025f3f460f920e84cd72fb3bdc47de198a2e237315202544cd328d17006a"),
    ("simulate --graph octahedron --p 0.3 --reps 3000 --seed 5", 0,
     "6699bd9b7b0288f572b5197e087944fa6c56d0d40f719969d8e6710a3a049bf0"),
    ("simulate --graph cube --p 0.6 --reps 2000 --workers 2 --format json", 0,
     "11bad97622a2beaf7de09c8914eb45a1a238568725365a1381c539ed1b625ee8"),
    ("sweep --graph tetrahedron --p-grid 0:1:0.25 --reps 2000 --oracle", 0,
     "c3d99f1a28ba64d9fccafab3158ca9b722bcea0d250b3245437ab599f592a64e"),
    ("sweep --graph cube --p-grid 0.2:0.4:0.2 --reps 1500 --seed 7 --format json", 0,
     "40dad771184cdfc87559b822ed122e3289b2b08564361a36592de8f72810bd2b"),
    ("dominance --graph complete(3) --p 0.5 --reps 2000", 0,
     "bd2d269a9976f04fd9b2ae3acdc1c73d5f40eba57a977a01ae47b93ffd8c7885"),
    ("dominance --graph cube --p 0.3 --reps 1500 --seed 2 --format json", 0,
     "4bfa2719cb8dc0b4b2da4a338181f02255daf47e397f248aab871b729c2b7700"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN_STDOUT, ids=[g[0] for g in GOLDEN_STDOUT])
def test_stdout_bytes_are_pinned(argv, code, digest):
    # recorded before the row builder was rewritten: any changed byte fails
    got_code, out = run_cli(argv.split())
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_rows_and_oracle_flag():
    args = [
        "sweep", "--graph", "tetrahedron", "--p-grid", "0:1:0.5",
        "--reps", "2000", "--oracle",
    ]
    code, out = run_cli(args)
    assert code == 0
    header, rows = read_csv(out)
    assert header == MOMENT_COLUMNS
    assert [dict(zip(header, r))["p"] for r in rows] == ["0.0", "0.5", "1.0"]
    for r in rows:
        row = dict(zip(header, r))
        assert row["exact_first"] != ""
        assert row["seed"] != ""
    code, out = run_cli(
        ["sweep", "--graph", "tetrahedron", "--p-grid", "0:1:0.5", "--reps", "2000"]
    )
    _, rows = read_csv(out)
    assert all(dict(zip(MOMENT_COLUMNS, r))["exact_first"] == "" for r in rows)


def test_sweep_rows_are_simulate_rows():
    # one stream set for the grid: each row is `simulate` at its p and the sweep's seed
    base = ["--graph", "octahedron", "--reps", "3000", "--seed", "4"]
    code, out = run_cli(["sweep", "--p-grid", "0.2:0.6:0.2"] + base)
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 3
    for cells in rows:
        row = dict(zip(MOMENT_COLUMNS, cells))
        _, (point,) = read_csv(run_cli(["simulate", "--p", row["p"]] + base)[1])
        point = dict(zip(MOMENT_COLUMNS, point))
        for column in ("seed", "mean_s", "se_s", "mean_s2", "se_s2"):
            assert row[column] == point[column], (row["p"], column)


def test_sweep_json_round_trip(tetrahedron):
    args = [
        "sweep", "--graph", "tetrahedron", "--p-grid", "0.2:0.4:0.2",
        "--reps", "3000", "--format", "json",
    ]
    code, out = run_cli(args)
    assert code == 0
    payload = json.loads(out)
    assert [row["p"] for row in payload] == [0.2, 0.4]
    est = estimate_moments(tetrahedron, 0.2, 3000, payload[0]["seed"])
    assert payload[0]["mean_s"] == est.mean_s
    assert payload[0]["exact_first"] is None
    iso = isolation_bounds(BoundParams(degree=3, n_vertices=4, p=0.2))
    assert payload[0]["thm2_first"] == iso.first


def test_dominance_table():
    code, out = run_cli(
        ["dominance", "--graph", "complete(3)", "--p", "0.5", "--reps", "3000"]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == DOMINANCE_COLUMNS
    parsed = [dict(zip(header, r)) for r in rows]
    assert {r["generation"] for r in parsed} == {"0", "1", "2"}
    assert all(r["within_tolerance"] in ("true", "false") for r in parsed)
    gen0 = [r for r in parsed if r["generation"] == "0"][0]
    assert gen0["birth_tail"] == "1.0" and gen0["branching_tail"] == "1.0"


def test_polynomial_dump(cube):
    code, out = run_cli(
        ["oracle", "--graph", "cube", "--p", "0.5", "--polynomial", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    poly = moment_polynomial(cube)
    assert payload["graph"] == "cube"
    assert [int(c) for c in payload["first_counts"]] == list(poly.first_counts)
    code, _ = run_cli(["oracle", "--graph", "cube", "--p", "0.5", "--polynomial"])
    assert code == 2  # csv cannot carry the coefficient lists


# ---------------------------------------------------------------- errors


def test_oracle_refuses_large_graph_with_json_error():
    code, out = run_cli(
        ["oracle", "--graph", "complete(12)", "--p", "0.5", "--format", "json"]
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "TooManyEdges"
    assert "frontier width" in payload["message"] and "66 edges" in payload["message"]


def test_oracle_checks_p_before_the_dp(monkeypatch):
    def no_work(*args):
        raise AssertionError("the DP started before p was refused")

    monkeypatch.setattr(oracle, "_frontier_counts", no_work)
    code, out = run_cli(["oracle", "--graph", "cube", "--p", "1.5", "--format", "json"])
    assert code == 2
    assert json.loads(out)["error"] == "BadProbability"


def test_polynomial_and_sweep_reach_the_dp_only_solids():
    # the frontier DP has no edge cap: the 30-edge solids get exact counts,
    # complete(12) is refused by width
    code, out = run_cli(["oracle", "--graph", "icosahedron", "--p", "0.5", "--polynomial",
                         "--format", "json"])
    assert code == 0
    assert [int(c) for c in json.loads(out)["second_counts"]][-1] == 12**3
    code, out = run_cli(["sweep", "--graph", "dodecahedron", "--p-grid", "0.3:0.3:0.1",
                         "--reps", "200", "--oracle"])
    assert code == 0
    header, rows = read_csv(out)
    assert float(rows[0][header.index("exact_first")]) > 1.0
    code, out = run_cli(["oracle", "--graph", "complete(12)", "--p", "0.5", "--polynomial",
                         "--format", "json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "TooManyEdges" and "frontier width" in payload["message"]


def test_unknown_graph_and_bad_p_exit_2():
    code, _ = run_cli(["bounds", "--graph", "heptagon", "--p", "0.5"])
    assert code == 2
    code, _ = run_cli(["bounds", "--graph", "cube", "--p", "1.5"])
    assert code == 2


@pytest.mark.parametrize(
    "fields",
    [
        dict(subcommand="bounds", graph_name="cube"),
        dict(subcommand="oracle", graph_name="cube"),
        dict(subcommand="simulate", graph_name="cube", replicates=100),
        dict(subcommand="dominance", graph_name="cube", replicates=100),
        dict(subcommand="sweep", graph_name="cube", replicates=100),
        dict(subcommand="bounds", p=0.3),
        dict(subcommand="bounds", graph_name="cube", p="0.3x"),
        dict(subcommand="frobnicate", graph_name="cube", p=0.3),
    ],
    ids=["bounds no p", "oracle no p", "simulate no p", "dominance no p", "sweep no grid",
         "no graph", "p not a number", "unknown subcommand"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_incomplete_requests_exit_2(fields, fmt, capsys):
    # requests built without parse_args are refused, never a traceback
    buf = io.StringIO()
    assert execute(CommandRequest(output_format=fmt, **fields), buf) == 2
    assert capsys.readouterr().err.startswith("percmoments: ")
    if fmt == "json":
        assert json.loads(buf.getvalue())["error"] in ("BadParameter", "BadProbability")
    else:
        assert buf.getvalue() == ""


@pytest.mark.parametrize(
    "fields",
    [
        dict(subcommand="simulate", replicates=None),
        dict(subcommand="simulate", replicates=100.5),
        dict(subcommand="simulate", seed=None),
        dict(subcommand="simulate", workers="2"),
        dict(subcommand="sweep", p_grid=(0.2, 0.4), replicates="10"),
        dict(subcommand="sweep", p_grid=(0.2, 0.4), seed=None),
        dict(subcommand="dominance", replicates="10"),
        dict(subcommand="dominance", seed=None),
    ],
    ids=["simulate None reps", "simulate float reps", "simulate None seed",
         "simulate str workers", "sweep str reps", "sweep None seed",
         "dominance str reps", "dominance None seed"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_integer_request_fields_exit_2(fields, fmt, capsys, monkeypatch):
    # refused before any block is drawn, never a traceback
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the request was refused")

    monkeypatch.setattr(montecarlo, "_edge_plan", no_work)
    monkeypatch.setattr("percmoments.coupling._birth_counts", no_work)
    request = CommandRequest(graph_name="cube", p=0.3, output_format=fmt, **fields)
    buf = io.StringIO()
    assert execute(request, buf) == 2
    assert capsys.readouterr().err.startswith("percmoments: ")
    if fmt == "json":
        assert json.loads(buf.getvalue())["error"] == "BadParameter"
    else:
        assert buf.getvalue() == ""


@pytest.mark.parametrize("fmt", ["xml", "CSV", "", None])
@pytest.mark.parametrize("subcommand", ["bounds", "simulate", "dominance"])
def test_unknown_output_format_exits_2(fmt, subcommand, capsys):
    request = CommandRequest(
        subcommand=subcommand, graph_name="cube", p=0.3, replicates=100, output_format=fmt
    )
    buf = io.StringIO()
    assert execute(request, buf) == 2
    assert capsys.readouterr().err.startswith("percmoments: output format")
    assert buf.getvalue() == ""


def test_missing_edge_file_exits_2(tmp_path):
    code, _ = run_cli(["bounds", "--edge-file", str(tmp_path / "nope.edges"), "--p", "0.5"])
    assert code == 2


def test_edge_file_source(tmp_path, octahedron):
    path = tmp_path / "octa.edges"
    path.write_text(format_edge_file(octahedron))
    code, out = run_cli(["oracle", "--edge-file", str(path), "--p", "0.5"])
    assert code == 0
    _, rows = read_csv(out)
    row = dict(zip(MOMENT_COLUMNS, rows[0]))
    assert row["graph"] == "octa"
    assert float(row["exact_first"]) == exact_moments(octahedron, 0.5).first


def test_output_file(tmp_path):
    target = tmp_path / "row.csv"
    code = main(
        ["bounds", "--graph", "cube", "--p", "0.25", "--output", str(target)]
    )
    assert code == 0
    header, rows = read_csv(target.read_text())
    assert header == MOMENT_COLUMNS and len(rows) == 1


def test_main_returns_codes():
    assert main(["bounds", "--graph", "cube", "--p", "0.5", "--output", "/dev/null"]) == 0
    assert main(["oracle", "--graph", "complete(12)", "--p", "0.5", "--output", "/dev/null"]) == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unwritable_output_exits_2_with_message(tmp_path, capsys, fmt):
    argv = ["bounds", "--graph", "cube", "--p", "0.5", "--format", fmt]
    for target in (tmp_path, tmp_path / "missing" / "row.csv"):
        code, out = run_cli(argv + ["--output", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("percmoments: cannot write --output") and "Traceback" not in err
        if fmt == "json":
            assert json.loads(out)["error"] == "BadParameter"
        else:
            assert out == ""


# ---------------------------------------------------------------- input robustness


@pytest.mark.parametrize("content", [b"4 3\n0 x\n", b"4 x\n0 1\n", b"4 3\n0 1\xff\n"],
                         ids=["edge token", "header token", "not utf-8"])
def test_malformed_edge_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "bad.edges"
    path.write_bytes(content)
    assert main(["bounds", "--edge-file", str(path), "--p", "0.5"]) == 2
    assert "bad.edges" in capsys.readouterr().err


def test_edge_file_with_more_vertices_than_edge_ends_exits_2(tmp_path, capsys):
    # 22 bytes that once built a million-vertex adjacency before the refusal
    path = tmp_path / "sparse.edges"
    path.write_text(f"{10**6} 2\n0 1\n1 2\n2 0\n")
    tracemalloc.start()
    try:
        code = main(["bounds", "--edge-file", str(path), "--p", "0.5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**20
    assert "some vertex has no edge" in capsys.readouterr().err


def test_supercritical_bounds_fall_back_to_isolation():
    # the branching terms overflow a double on hypercube(10) at p = 0.5
    code, out = run_cli(["bounds", "--graph", "hypercube(10)", "--p", "0.5"])
    assert code == 0
    _, rows = read_csv(out)
    row = dict(zip(MOMENT_COLUMNS, rows[0]))
    assert row["thm1_first"] == "inf" and row["thm1_second"] == "inf"
    iso = isolation_bounds(BoundParams(degree=10, n_vertices=1024, p=0.5))
    assert float(row["best_first"]) == iso.first
    assert float(row["best_second"]) == iso.second


def test_oversized_p_grid_is_refused_at_once(capsys):
    with pytest.raises(BadParameterError):
        parse_p_grid("0:1:1e-9")
    start = time.perf_counter()
    assert main(["sweep", "--graph", "cube", "--p-grid", "0:1:1e-9", "--reps", "10"]) == 2
    assert time.perf_counter() - start < 5.0
    assert "p grid" in capsys.readouterr().err
    assert len(parse_p_grid(f"0:1:{1 / MAX_GRID_STEPS}")) == MAX_GRID_STEPS + 1


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_json_output_is_strict():
    # overflowing branching bounds are the strings of their CSV cells, not Infinity
    code, out = run_cli(
        ["bounds", "--graph", "hypercube(10)", "--p", "0.5", "--format", "json"]
    )
    assert code == 0
    row = json.loads(out, parse_constant=_refuse_constant)[0]
    assert row["thm1_first"] == "inf" and row["thm1_second"] == "inf"
    iso = isolation_bounds(BoundParams(degree=10, n_vertices=1024, p=0.5))
    assert row["best_first"] == iso.first and row["best_second"] == iso.second


def test_oversized_dominance_is_refused_at_once(capsys):
    start = time.perf_counter()
    argv = ["dominance", "--graph", "dodecahedron", "--p", "0.3", "--reps", "1000000000"]
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    assert "cells" in capsys.readouterr().err


def test_oversized_dominance_table_exits_2(capsys, monkeypatch):
    # birth sizes stay below N, so a builtin graph small enough for a test
    # cannot reach the real row cap; the cube at p = 0.9 passes a cap of 10
    def no_rows(**fields):
        raise AssertionError("a row was built for a table over the cap")

    monkeypatch.setattr("percmoments.coupling.TailRow", no_rows)
    monkeypatch.setattr("percmoments.coupling.MAX_TAIL_ROWS", 10)
    assert main(["dominance", "--graph", "cube", "--p", "0.9", "--reps", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rows" in captured.err


def _no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was started")


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["simulate", "--p", "0.3", "--reps", str(MAX_REPLICATES + 1)], "replicates"),
        (["sweep", "--p-grid", "0:1:0.5", "--reps", str(MAX_REPLICATES // 2)], "grid points"),
        (["simulate", "--p", "0.3", "--reps", "1000", "--workers", str(MAX_WORKERS + 1)],
         "workers"),
        (["sweep", "--p-grid", "0:1:0.5", "--oracle", "--reps", "1000",
          "--workers", "1000000000"], "workers"),
    ],
)
def test_oversized_reps_and_workers_are_refused_at_once(argv, reason, capsys, monkeypatch):
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _no_pool)
    start = time.perf_counter()
    assert main(argv[:1] + ["--graph", "cube"] + argv[1:]) == 2
    assert time.perf_counter() - start < 5.0
    assert reason in capsys.readouterr().err


def readme_examples():
    """The argv of each ``percmoments`` line in the Examples block of README.md."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("percmoments ")]


def test_readme_has_an_example_per_subcommand():
    assert {argv[0] for argv in readme_examples()} == {
        "bounds", "oracle", "simulate", "sweep", "dominance"}


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_examples_run(argv, tmp_path, capsys):
    if "--output" in argv:
        at = argv.index("--output") + 1
        argv[at] = str(tmp_path / argv[at])
    else:
        argv += ["--output", str(tmp_path / "out")]
    assert main(argv) == 0, capsys.readouterr().err
    assert Path(argv[argv.index("--output") + 1]).read_text(encoding="utf-8")
