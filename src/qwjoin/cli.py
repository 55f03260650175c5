"""Command-line front end.

Subcommands: analyze (spectrum, supports, periodicity, pair certificates),
join (plain, self, and iterated joins), pst-search (parameter sweeps), and
bound-sweep (deviation of join entries from part entries). Exit codes: 0 on
success, 2 when an input violates a precondition, 3 when an internal
cross-check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from pathlib import Path

from .errors import InconsistencyError, IntegerOverflowError, NumericError, PreconditionError
from .graphio import AnalysisReport, load_graph, report_to_json
from .graphs import (
    WeightedGraph,
    family,
    is_connected,
    is_simple,
    parse_iterated_spec,
)
from .spectral import (
    eigenvalue_support,
    join_params,
    join_support,
    spectrum,
    strong_cospectral,
)
from .transfer import (
    APEXES,
    PSTCertificate,
    SymbolicTime,
    double_cone_pst,
    graph_periodic,
    iterated_join_analysis,
    join_period_ratio,
    join_pst,
    join_strong_cospectral,
    minimum_period,
    pst_certificate,
    self_join_analysis,
    threshold_transfer_search,
)
from .bounds import bound_sweep, equality_condition

_COMPACT_FAMILY = re.compile(r"^(O_loops|K_minus_e|CP|O|K|P|C|Q)(\d+)$")
# bound-sweep CSV rows formatted per slab: bounded memory, one repr per column
_CSV_SLAB_ROWS = 512


def _parse_graph_arg(text: str) -> WeightedGraph:
    """A graph argument: a JSON file path or a family spec like "K 4"."""
    if Path(text).is_file():
        return load_graph(text)
    tokens = text.replace(",", " ").split()
    if len(tokens) == 1:
        match = _COMPACT_FAMILY.match(tokens[0])
        if not match:
            raise ValueError(f"no such file and no such family: {text!r}")
        return family(match.group(1), int(match.group(2)))
    name, *params = tokens
    values = [float(p) if "." in p or "-" in p else int(p) for p in params]
    return family(name, *values)


def _fmt(value: float) -> str:
    """Ten significant digits, or from 1e10 on as many as the integer part has, up to 17.

    17 digits tell every two doubles apart, so distinct large values print
    apart: 40000000002 is not printed as 4e+10.
    """
    if abs(value) < 1e-9:
        value = 0.0
    digits = min(17, len(f"{abs(value):.0f}")) if 1e10 <= abs(value) < math.inf else 10
    return f"{value:.{digits}g}"


def format_time(t: SymbolicTime) -> str:
    head = "pi" if t.pi_numerator == 1 else f"{t.pi_numerator}*pi"
    tail = []
    if t.pi_denominator != 1:
        tail.append(str(t.pi_denominator))
    if t.sqrt_divisor != 1:
        tail.append(f"sqrt({t.sqrt_divisor})")
    if not tail:
        return head
    if len(tail) == 1:
        return f"{head}/{tail[0]}"
    return f"{head}/({'*'.join(tail)})"


def _describe_pst(cert: PSTCertificate) -> list[str]:
    lines = [f"perfect state transfer {cert.u} <-> {cert.v}: {cert.pst}"]
    if cert.pst and cert.time is not None:
        lines.append(
            f"  transfer time {format_time(cert.time)} = {_fmt(cert.time.value)}"
        )
    if cert.confirmation is not None:
        lines.append(f"  numeric transfer magnitude {_fmt(cert.confirmation)}")
    if cert.eigenvalue_class is not None:
        lines.append(f"  eigenvalue class: {cert.eigenvalue_class}")
    if cert.reason:
        lines.append(f"  reason: {cert.reason}")
    branch = cert.details.get("branch")
    if branch:
        lines.append(f"  branch: {branch}")
    return lines


def _cone_hint(graph: WeightedGraph, u: int, v: int, matrix: str) -> list[str]:
    """Probe joins with empty graphs of size 1..8 and summarize the hits."""
    hits = []
    for n in range(1, 9):
        try:
            cert = join_pst(graph, family("O", n), u, v, matrix=matrix)
        except (PreconditionError, ValueError):
            return ["cone probing skipped (join preconditions unmet)"]
        if cert.pst:
            hits.append((n, cert.time))
    if not hits:
        return ["no cone of size <= 8 creates transfer for this pair"]
    lines = [
        "cones with transfer: "
        + ", ".join(f"n={n} at {format_time(t)}" for n, t in hits)
    ]
    residues = {n % 4 for n, _ in hits}
    if len(residues) == 1:
        c = residues.pop()
        if all((n % 4 == c) == (n in {h for h, _ in hits}) for n in range(1, 9)):
            lines.append(f"  pattern over the probe: cone sizes n = {c} (mod 4)")
    return lines


def _check_pair(pair, order: int) -> tuple[int, int]:
    """--pair as two distinct vertices below order, checked before any output."""
    u, v = pair
    if u == v or not (0 <= u < order and 0 <= v < order):
        raise ValueError(
            f"--pair needs two distinct vertices in 0..{order - 1}, got {u} {v}"
        )
    return u, v


@contextlib.contextmanager
def _writing(path: str):
    """A text file open for writing; a path that cannot be written is a precondition failure."""
    try:
        with open(path, "w") as handle:
            yield handle
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _maybe_write(args, kind: str, payload) -> None:
    if getattr(args, "out", None):
        text = report_to_json(AnalysisReport(kind=kind, payload=payload))
        with _writing(args.out) as handle:
            handle.write(text + "\n")
        print(f"report written to {args.out}")


def cmd_analyze(args) -> int:
    graph = _parse_graph_arg(args.graph or args.family)
    if args.pair is not None:
        _check_pair(args.pair, graph.order)
    matrix = args.matrix
    decomp = spectrum(graph, matrix)
    print(
        f"graph: order {graph.order}, {len(graph.weights)} edges, "
        f"{len(graph.loop_weights)} loops, "
        f"{'connected' if is_connected(graph) else 'disconnected'}"
    )
    print(f"matrix: {matrix}")
    eigenvalues = ", ".join(
        f"{_fmt(lam)} (x{mult})"
        for lam, mult in zip(decomp.eigenvalues, decomp.multiplicities)
    )
    print(f"eigenvalues: {eigenvalues}")
    print(f"all vertices periodic: {graph_periodic(graph, matrix)}")
    payload: dict = {
        "graph": graph,
        "matrix": matrix,
        "eigenvalues": list(decomp.eigenvalues),
        "multiplicities": list(decomp.multiplicities),
        "vertices": [],
    }
    for u in range(graph.order):
        support = eigenvalue_support(decomp, u)
        cert = minimum_period(support, decomp, u)
        if cert.periodic and cert.symbolic is not None:
            period = f"periodic, minimum period {format_time(cert.symbolic)}"
        elif cert.periodic:
            period = "periodic"
        else:
            period = "not periodic"
        print(f"vertex {u}: support {[float(_fmt(s)) for s in support]}; {period}")
        payload["vertices"].append({"vertex": u, "support": support, "period": cert})
    if args.pair is not None:
        u, v = args.pair
        partition = strong_cospectral(decomp, u, v)
        if partition is None:
            print(f"pair ({u}, {v}): not strongly cospectral")
        else:
            print(
                f"pair ({u}, {v}): strongly cospectral, "
                f"plus {[float(_fmt(s)) for s in partition.plus]}, "
                f"minus {[float(_fmt(s)) for s in partition.minus]}"
            )
        cert = pst_certificate(decomp, u, v)
        for line in _describe_pst(cert):
            print(line)
        payload["pair"] = {"partition": partition, "pst": cert}
        if is_simple(graph):
            hint = _cone_hint(graph, u, v, matrix)
            for line in hint:
                print(line)
            payload["pair"]["cone_hint"] = hint
    _maybe_write(args, "analyze", payload)
    return 0


def cmd_join(args) -> int:
    matrix = args.matrix
    if args.iterated:
        spec = parse_iterated_spec(args.iterated)
        if args.part is None or not 1 <= args.part <= len(spec.parts):
            raise ValueError(f"an iterated join analysis needs --part in 1..{len(spec.parts)}")
        u, v = _check_pair(args.pair, spec.orders[args.part - 1])
        cert = iterated_join_analysis(spec, args.part, u, v, matrix=matrix)
        print(f"iterated plan: {args.iterated}")
        print(f"pair ({u}, {v}) inside part {args.part}")
        for line in _describe_pst(cert):
            print(line)
        _maybe_write(args, "join", {"plan": args.iterated, "part": args.part, "pst": cert})
        return 0
    x = _parse_graph_arg(args.left)
    if args.self_count:
        u, v = _check_pair(args.pair, x.order)
        cert = self_join_analysis(x, args.self_count, u, v, matrix=matrix)
        print(f"self join of a part of order {x.order}, {args.self_count} copies")
        for line in _describe_pst(cert):
            print(line)
        _maybe_write(
            args, "join", {"left": x, "copies": args.self_count, "pst": cert}
        )
        return 0
    y = _parse_graph_arg(args.right)
    u, v = _check_pair(args.pair, x.order + y.order)
    params = join_params(x, y, matrix)
    side, local = ("left", u) if u < params.m else ("right", u - params.m)
    # the ratio's precondition is checked before any output
    ratio = join_period_ratio(x, y, local, matrix=matrix, side=side) if args.ratio else None
    print(f"join: left order {params.m}, right order {params.n}, matrix {matrix}")
    if matrix == "adjacency":
        print(
            f"degrees {_fmt(params.k)} and {_fmt(params.ell)}; "
            f"fresh eigenvalues {_fmt(params.lam_plus)} and {_fmt(params.lam_minus)}"
        )
    support = join_support(x, y, local, matrix=matrix, side=side)
    print(f"vertex {u} join support: {[float(_fmt(s)) for s in support]}")
    partition = join_strong_cospectral(x, y, u, v, matrix=matrix)
    if partition is None:
        print(f"pair ({u}, {v}): not strongly cospectral in the join")
    else:
        print(
            f"pair ({u}, {v}): strongly cospectral, "
            f"plus {[float(_fmt(s)) for s in partition.plus]}, "
            f"minus {[float(_fmt(s)) for s in partition.minus]}"
        )
    cert = join_pst(x, y, u, v, matrix=matrix)
    for line in _describe_pst(cert):
        print(line)
    payload = {
        "left": x,
        "right": y,
        "matrix": matrix,
        "support": support,
        "partition": partition,
        "pst": cert,
    }
    if ratio is not None:
        root = "" if ratio.sqrt_divisor == 1 else f"/sqrt({ratio.sqrt_divisor})"
        print(
            f"period ratio (join over part): {ratio.ratio}{root} "
            f"= {_fmt(ratio.value)} [{ratio.case}]"
        )
        print(
            f"  part period {format_time(ratio.period_part)}, "
            f"join period {format_time(ratio.period_join)}"
        )
        payload["ratio"] = ratio
    _maybe_write(args, "join", payload)
    return 0


def cmd_pst_search(args) -> int:
    emitted = 0
    if args.mode == "double-cone":
        for n in range(args.n_min, args.n_max + 1):
            cert = double_cone_pst(family("O", n), matrix=args.matrix)
            hit = cert.pst
            if hit or args.all:
                line = {"mode": "double-cone", "n": n, "pst": hit}
                if hit and cert.time is not None:
                    line["time"] = [
                        cert.time.pi_numerator,
                        cert.time.pi_denominator,
                        cert.time.sqrt_divisor,
                    ]
                print(json.dumps(line, sort_keys=True))
                emitted += 1
    elif args.mode == "cp-join":
        for m in range(args.m_min, args.m_max + 1):
            if m % 2:
                continue
            base = family("CP", m)
            decomp = spectrum(base, args.matrix)
            antipodal = pst_certificate(decomp, 0, m // 2)
            cone = join_pst(base, APEXES, m, m + 1, matrix=args.matrix)
            if cone.pst or antipodal.pst or args.all:
                line = {
                    "mode": "cp-join",
                    "m": m,
                    "antipodal_pst": antipodal.pst,
                    "cone_pair_pst": cone.pst,
                }
                if cone.pst and cone.time is not None:
                    line["time"] = [
                        cone.time.pi_numerator,
                        cone.time.pi_denominator,
                        cone.time.sqrt_divisor,
                    ]
                print(json.dumps(line, sort_keys=True))
                emitted += 1
    else:
        if args.matrix != "laplacian":
            raise PreconditionError("the threshold search is provided for the Laplacian only")
        if args.all:
            raise ValueError("--all does not apply to the threshold search, which emits hits only")
        for hit in threshold_transfer_search(args.max_parts, args.max_size):
            print(json.dumps(hit, sort_keys=True))
            emitted += 1
    print(f"# {emitted} lines", file=sys.stderr)
    return 0


def cmd_bound_sweep(args) -> int:
    x = _parse_graph_arg(args.left)
    y = _parse_graph_arg(args.right)
    u, v = args.pair
    report = bound_sweep(
        x, y, u, v, matrix=args.matrix, t_max=args.t_max, samples=args.samples
    )
    print(f"pair ({u}, {v}) in the left part, matrix {args.matrix}")
    print(f"bound 2/m = {_fmt(report.bound)}")
    print(
        f"max |deviation| = {_fmt(report.max_abs_deviation)} "
        f"at t = {_fmt(report.argmax_time)}"
    )
    condition = equality_condition(x, y, args.matrix)
    if report.equality_possible is None:
        print("equality times: none on a lattice (offsets are not integers)")
    elif report.equality_possible:
        print(
            f"the bound is attained by the correction term at odd multiples "
            f"of t = {_fmt(condition['base_time'])}"
        )
    else:
        print("the bound is not attained (offset valuations differ)")
    if args.csv:
        columns = (
            report.times,
            report.join_magnitudes,
            report.part_magnitudes,
            report.deviation,
        )
        with _writing(args.csv) as handle:
            handle.write("t,mag_join,mag_base,F\n")
            for lo in range(0, len(report.times), _CSV_SLAB_ROWS):
                # the repr of a list of floats is their reprs joined by ", "
                texts = [
                    repr(col[lo : lo + _CSV_SLAB_ROWS].tolist())[1:-1].split(", ")
                    for col in columns
                ]
                handle.write("\n".join(map(",".join, zip(*texts))) + "\n")
        print(f"sweep written to {args.csv}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Parsing leaves no state in it: no action has a mutable default, and
    set_defaults stores only each subcommand's handler.
    """
    parser = argparse.ArgumentParser(
        prog="qwjoin",
        description="continuous-time quantum walk analysis on joins of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix(p):
        p.add_argument(
            "--matrix",
            choices=["laplacian", "adjacency"],
            default="laplacian",
            help="generator of the walk (default laplacian)",
        )

    p = sub.add_parser("analyze", help="spectrum, supports, and periodicity")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="path to a graph JSON file")
    source.add_argument("--family", help='family spec such as "K 4" or "CP6"')
    add_matrix(p)
    p.add_argument("--pair", nargs=2, type=int, metavar=("U", "V"))
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("join", help="analyze a join, self join, or iterated join")
    p.add_argument("--left", help="left part (file or family spec)")
    p.add_argument("--right", help="right part (file or family spec)")
    p.add_argument(
        "--self",
        dest="self_count",
        type=int,
        help="join this many copies of --left together",
    )
    p.add_argument(
        "--iterated",
        help='alternating plan such as "O2 v K2 u O1 v K3"',
    )
    p.add_argument("--part", type=int, help="1-based part index for --iterated")
    p.add_argument(
        "--pair",
        nargs=2,
        type=int,
        metavar=("U", "V"),
        required=True,
        help="join indices (part-local for --self and --iterated)",
    )
    add_matrix(p)
    p.add_argument("--ratio", action="store_true", help="also report the period ratio")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("pst-search", help="sweep families for transfer")
    p.add_argument(
        "--mode",
        choices=["double-cone", "cp-join", "threshold"],
        required=True,
    )
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--m-min", type=int, default=4)
    p.add_argument("--m-max", type=int, default=20)
    p.add_argument("--max-parts", type=int, default=4)
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--all", action="store_true", help="emit misses as well as hits")
    add_matrix(p)
    p.set_defaults(func=cmd_pst_search)

    p = sub.add_parser("bound-sweep", help="entry deviation of a join from its part")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--pair", nargs=2, type=int, metavar=("U", "V"), required=True)
    add_matrix(p)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--csv", help="write the full sweep as CSV")
    p.set_defaults(func=cmd_bound_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "join":
            modes = [
                bool(args.right),
                bool(args.self_count),
                bool(args.iterated),
            ]
            if sum(modes) != 1:
                raise ValueError(
                    "pick exactly one of --right, --self, or --iterated"
                )
            if (args.right or args.self_count) and not args.left:
                raise ValueError("--left is required for this mode")
            if args.iterated and args.left:
                raise ValueError("--left does not apply to --iterated")
            if args.part is not None and not args.iterated:
                raise ValueError("--part applies to --iterated only")
            if args.ratio and not args.right:
                raise ValueError("--ratio applies to a join with --right only")
        return args.func(args)
    except (PreconditionError, ValueError, IntegerOverflowError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (InconsistencyError, NumericError) as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
