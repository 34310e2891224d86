"""Command line interface.

Subcommands::

    percmoments bounds    --graph NAME --p P            closed-form bounds
    percmoments oracle    --graph NAME --p P            exact moments (frontier DP)
    percmoments simulate  --graph NAME --p P            Monte Carlo estimate
    percmoments sweep     --graph NAME --p-grid A:B:C   bounds + estimates over a grid
    percmoments dominance --graph NAME --p P            birth vs branching tail table

Moment-producing subcommands share one fixed CSV schema (see
:data:`MOMENT_COLUMNS`), filled in one place, ``_moment_row``, from the
library's result objects; cells a subcommand does not produce are left
empty.  A dominance row is its run's graph and parameters followed by the
fields of one :class:`~percmoments.coupling.TailRow`.
``--format json`` emits the same rows as a JSON array with nulls instead of
empty cells and, since strict JSON has no infinity or nan, a non-finite
float as the string its CSV cell holds (``"inf"``, ``"-inf"``, ``"nan"``).
Floats are written with ``repr`` so they round-trip exactly.

Every exact value, the ``oracle`` row, ``--polynomial`` and ``sweep
--oracle`` alike, comes from the frontier DP of
:func:`~percmoments.oracle.moment_polynomial`.

Exit codes: 0 on success, 1 on runtime failures, 2 on usage errors or
refused preconditions (bad parameters, invalid graphs, exact work over the
DP's frontier-width or work cap, a builtin family or dominance run over its
size cap, a dominance table over its row cap or exact branching tails
over their work cap, ``--reps`` or ``--workers``
over their Monte Carlo caps, an ``--output`` path that cannot be written).
``--workers`` exists only where it schedules Monte Carlo blocks
(``simulate`` and ``sweep``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import TextIO

from .bounds import BoundParams, MomentPair, best_bounds, branching_bounds, isolation_bounds
from .coupling import dominance_report
from .errors import BadParameterError, PercmomentsError, RetryLimitError, _check_probability
from .graphs import Graph, generate_builtin, load_edge_file
from .montecarlo import MAX_REPLICATES, MAX_WORKERS, MomentEstimate, estimate_moments, sweep
from .oracle import moment_polynomial

__all__ = [
    "MOMENT_COLUMNS",
    "DOMINANCE_COLUMNS",
    "CommandRequest",
    "parse_args",
    "parse_p_grid",
    "execute",
    "main",
]

MOMENT_COLUMNS = [
    "graph",
    "N",
    "D",
    "p",
    "reps",
    "seed",
    "mean_s",
    "se_s",
    "mean_s2",
    "se_s2",
    "thm1_first",
    "thm1_second",
    "thm2_first",
    "thm2_second",
    "best_first",
    "best_second",
    "exact_first",
    "exact_second",
]

DOMINANCE_COLUMNS = [
    "graph",
    "N",
    "D",
    "p",
    "reps",
    "seed",
    "generation",
    "k",
    "birth_tail",
    "branching_tail",
    "birth_se",
    "branching_se",
    "within_tolerance",
]

_OUTPUT_FORMATS = ("csv", "json")
# Longest --p-grid accepted, in steps (a step of 1e-5 over [0, 1]).
MAX_GRID_STEPS = 100_000


@dataclass(frozen=True)
class CommandRequest:
    """Parsed command line, ready for :func:`execute`."""

    subcommand: str
    graph_name: str | None = None
    edge_file: str | None = None
    p: float | None = None
    p_grid: tuple[float, ...] | None = None
    replicates: int = 100_000
    seed: int = 0
    workers: int = 1
    output_format: str = "csv"
    output_path: str | None = None
    include_oracle: bool = False
    dump_polynomial: bool = False


def parse_p_grid(text: str) -> tuple[float, ...]:
    """Parse ``start:end:step`` into an inclusive grid of probabilities.

    The final point is clamped to ``end`` so rounding of repeated step
    addition never drops or overshoots the endpoint.  Grids of more than
    ``MAX_GRID_STEPS`` steps are refused before any point is built.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise BadParameterError(f"p grid must look like start:end:step, got {text!r}")
    try:
        start, end, step = (float(s) for s in parts)
    except ValueError:
        raise BadParameterError(f"p grid has non-numeric parts: {text!r}") from None
    if not 0.0 < step < math.inf:  # also refuses nan, which never ends the grid
        raise BadParameterError(f"p grid step must be positive and finite, got {step}")
    if not 0.0 <= start <= end <= 1.0:
        raise BadParameterError(
            f"p grid must satisfy 0 <= start <= end <= 1, got {start}..{end}"
        )
    if (end - start) / step > MAX_GRID_STEPS:
        raise BadParameterError(
            f"p grid {text!r} has more than {MAX_GRID_STEPS} steps"
        )
    points = []
    i = 0
    while True:
        value = start + i * step
        if value >= end - 1e-12:
            break
        points.append(value)
        i += 1
    points.append(end)
    return tuple(points)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="percmoments",
        description="Cluster-size moment bounds, oracles, and simulations "
        "for bond percolation on regular graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_command(name: str, summary: str, with_p: bool = True) -> argparse.ArgumentParser:
        # options left out stay out of the namespace: CommandRequest holds the defaults
        sp = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument(
            "--graph", dest="graph_name", metavar="GRAPH",
            help="builtin graph name: tetrahedron, cube, octahedron, "
            "dodecahedron, icosahedron, ring(N), complete(N), hypercube(D)",
        )
        src.add_argument("--edge-file", help="path to an edge-list file")
        if with_p:
            sp.add_argument("--p", type=float, required=True, help="edge probability")
        sp.add_argument(
            "--seed", type=int, help=f"base seed (default {CommandRequest.seed})"
        )
        sp.add_argument("--format", choices=_OUTPUT_FORMATS, dest="output_format")
        sp.add_argument(
            "--output", dest="output_path", metavar="OUTPUT",
            help="write to this file instead of stdout",
        )
        return sp

    def add_reps(sp: argparse.ArgumentParser, with_workers: bool = True) -> None:
        sp.add_argument(
            "--reps", type=int, dest="replicates", metavar="REPS",
            help=f"replicates (default {CommandRequest.replicates}, "
            f"at most {MAX_REPLICATES} per run)",
        )
        if with_workers:
            sp.add_argument(
                "--workers",
                type=int,
                help=f"worker threads (default {CommandRequest.workers}, "
                f"at most {MAX_WORKERS})",
            )

    add_command("bounds", "closed-form moment bounds at one p")

    sp = add_command("oracle", "exact moments by the frontier DP at one p")
    sp.add_argument(
        "--polynomial",
        action="store_true",
        dest="dump_polynomial",
        help="emit the exact moment polynomial as JSON instead of a row",
    )

    sp = add_command("simulate", "Monte Carlo moment estimate at one p")
    add_reps(sp)

    sp = add_command("sweep", "bounds and estimates over a p grid", with_p=False)
    sp.add_argument("--p-grid", required=True, help="probability grid as start:end:step")
    add_reps(sp)
    sp.add_argument(
        "--oracle",
        action="store_true",
        dest="include_oracle",
        help="also compute exact moments (graphs within the frontier-width cap only)",
    )

    sp = add_command(
        "dominance", "tail comparison of birth process vs branching envelope"
    )
    add_reps(sp, with_workers=False)

    return parser


def parse_args(argv: list[str] | None = None) -> CommandRequest:
    fields = vars(_build_parser().parse_args(argv))
    if "p_grid" in fields:
        fields["p_grid"] = parse_p_grid(fields["p_grid"])
    return CommandRequest(**fields)


def _resolve_graph(request: CommandRequest) -> Graph:
    if request.graph_name is not None:
        return generate_builtin(request.graph_name)
    if request.edge_file is None:
        raise BadParameterError("no graph given: name a builtin graph or an edge file")
    return load_edge_file(request.edge_file)


def _bounds(graph: Graph, p: float) -> tuple[MomentPair, MomentPair, MomentPair]:
    """The (branching, isolation, combined) bounds of ``graph`` at ``p``, in row order."""
    params = BoundParams(degree=graph.degree, n_vertices=graph.n_vertices, p=p)
    return branching_bounds(params), isolation_bounds(params), best_bounds(params)


def _moment_row(
    graph: Graph,
    p: float,
    bounds: tuple[MomentPair, ...] = (),
    est: MomentEstimate | None = None,
    exact: MomentPair | None = None,
) -> dict:
    """The :data:`MOMENT_COLUMNS` row of the results given; other cells stay None."""
    row = dict.fromkeys(MOMENT_COLUMNS)
    row.update(graph=graph.label, N=graph.n_vertices, D=graph.degree, p=p)
    if est is not None:
        row.update(
            reps=est.replicates, seed=est.seed, mean_s=est.mean_s, se_s=est.se_s,
            mean_s2=est.mean_s2, se_s2=est.se_s2,
        )
    for name, pair in zip(("thm1", "thm2", "best"), bounds):
        row[f"{name}_first"], row[f"{name}_second"] = pair.first, pair.second
    if exact is not None:
        row["exact_first"], row["exact_second"] = exact.first, exact.second
    return row


def _moment_rows(request: CommandRequest, graph: Graph) -> list[dict]:
    p = request.p
    if request.subcommand == "bounds":
        return [_moment_row(graph, p, _bounds(graph, p))]
    if request.subcommand == "oracle":
        p = _check_probability(p)  # before the DP, which may take seconds
        return [_moment_row(graph, p, exact=moment_polynomial(graph).evaluate(p))]
    if request.subcommand == "simulate":
        est = estimate_moments(graph, p, request.replicates, request.seed, request.workers)
        return [_moment_row(graph, p, _bounds(graph, p), est)]
    if request.subcommand != "sweep":
        raise BadParameterError(f"unknown subcommand {request.subcommand!r}")
    result = sweep(
        graph, request.p_grid or (), request.replicates, request.seed,
        include_oracle=request.include_oracle, workers=request.workers,
    )
    return [
        _moment_row(graph, r.p, (r.branching, r.isolation, r.combined), r.estimate, r.exact)
        for r in result.rows
    ]


def _dominance_rows(request: CommandRequest, graph: Graph) -> list[dict]:
    report = dominance_report(graph, request.p, request.replicates, request.seed)
    head = dict(
        graph=graph.label, N=graph.n_vertices, D=graph.degree,
        p=report.p, reps=report.replicates, seed=report.seed,
    )
    return [{**head, **vars(tail)} for tail in report.rows]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _write_rows(out: TextIO, rows: list[dict], columns: list[str], fmt: str) -> None:
    if fmt == "json":
        cells = [{col: _json_cell(value) for col, value in row.items()} for row in rows]
        out.write(json.dumps(cells, indent=2, allow_nan=False))
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[col]) for col in columns])


def execute(request: CommandRequest, out: TextIO | None = None) -> int:
    """Run one parsed command, writing rows to ``out`` (default stdout)."""
    stream = out if out is not None else sys.stdout
    try:
        if request.output_format not in _OUTPUT_FORMATS:
            raise BadParameterError(
                f"output format must be one of {', '.join(_OUTPUT_FORMATS)}, "
                f"got {request.output_format!r}"
            )
        graph = _resolve_graph(request)
        if request.subcommand == "oracle" and request.dump_polynomial:
            if request.output_format != "json":
                raise BadParameterError("--polynomial output is JSON only")
            poly = moment_polynomial(graph)
            payload = poly.to_json_dict()
            payload["graph"] = graph.label
            text = json.dumps(payload, indent=2) + "\n"
            _deliver(request, stream, text)
            return 0
        if request.subcommand == "dominance":
            rows, columns = _dominance_rows(request, graph), DOMINANCE_COLUMNS
        else:
            rows, columns = _moment_rows(request, graph), MOMENT_COLUMNS
        buffer = io.StringIO()
        _write_rows(buffer, rows, columns, request.output_format)
        _deliver(request, stream, buffer.getvalue())
    except PercmomentsError as exc:
        return _emit_error(request, stream, exc)
    except OSError as exc:
        print(f"percmoments: {exc}", file=sys.stderr)
        return 2
    return 0


def _deliver(request: CommandRequest, stream: TextIO, text: str) -> None:
    if request.output_path is None:
        stream.write(text)
        return
    try:
        with open(request.output_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise BadParameterError(
            f"cannot write --output {request.output_path!r}: {reason}"
        ) from None


def _emit_error(request: CommandRequest, stream: TextIO, exc: PercmomentsError) -> int:
    code = 1 if isinstance(exc, RetryLimitError) else 2
    print(f"percmoments: {exc}", file=sys.stderr)
    if request.output_format == "json":
        # always the stream, never --output: that file may be what failed
        payload = {"error": exc.name, "message": str(exc)}
        stream.write(json.dumps(payload, indent=2) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        request = parse_args(argv)
    except BadParameterError as exc:
        print(f"percmoments: {exc}", file=sys.stderr)
        return 2
    return execute(request)


if __name__ == "__main__":
    sys.exit(main())
