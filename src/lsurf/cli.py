"""Command-line entry point.

Subcommands cover the residue-graph component table, reduction into the
bounded set S with certificate words, orbit-ball exploration and shape
classification, the growth-lemma property suites, and the Cheeger/Laplacian
utilities.  Identical (arguments, seed) produce byte-identical artifacts:
sampling is driven only by the seed and eigensolves use fixed start vectors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .lemmas import run_suites
from .modn import (
    ModNResourceError,
    component_table,
    components,
    multiplicativity_report,
)
from .reduce import orbit_class_bracket, reduce_point
from .schreier import (
    OTHER,
    ResourceCapError,
    build_G2,
    classify_component,
    expand_ball,
    tree_cheeger_profile,
)
from .spectral import (
    FiniteGraph,
    SpectralConvergenceError,
    cheeger_sandwich_check,
    dirichlet_mu0,
    graph_ball,
)
from .surface import InternalError, parse_point, surface

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

CSV_HEADER = f"# lsurf-csv v1 (lsurf {__version__})"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_surface_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surface", default="L8", help="selector like L8, L5-1, L17+1 (default L8)")


def _csv_table(rows: list[tuple], header: str) -> str:
    lines = [CSV_HEADER, header]
    lines += [",".join(str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_table_cn(args) -> int:
    table = component_table(args.max)
    _emit(_csv_table(table, "N,C_N"), args.csv)
    return EXIT_OK


def cmd_components(args) -> int:
    count, reps = components(args.N)
    lines = [f"C({args.N}) = {count}"]
    lines += [f"  component {i}: {rep}" for i, rep in enumerate(reps)]
    _emit("\n".join(lines) + "\n", args.csv)
    return EXIT_OK


def cmd_multiplicativity(args) -> int:
    rows = multiplicativity_report(args.max)
    out = {"schema": "lsurf-multiplicativity-v1", "max": args.max, "pairs": rows}
    _emit(json.dumps(out, indent=2), args.json)
    return EXIT_OK


def cmd_reduce(args) -> int:
    proto = surface(args.surface)
    P = parse_point(proto, args.point)
    result = reduce_point(P, check=True)
    print(f"word: {result.word}")
    print(f"output: {result.output}")
    print(f"steps: {result.steps}")
    if args.trace:
        for case, exp in result.trace:
            print(f"  case {case}" + (f" exponent {exp}" if exp is not None else ""))
    return EXIT_OK


def cmd_orbit_bracket(args) -> int:
    report = orbit_class_bracket(args.N)
    _emit(report.to_json(), args.json)
    return EXIT_OK


def cmd_explore(args) -> int:
    proto = surface(args.surface)
    P = parse_point(proto, args.point)
    if args.g2:
        ball = build_G2(P, radius=args.radius)
    else:
        gens = [("A", args.k), ("A", -args.k), ("B", args.l), ("B", -args.l)]
        ball = expand_ball(P, gens, args.radius)
    if args.dot is not None:
        _emit(ball.to_dot(), args.dot)
    payload = ball.to_json_dict()
    _emit(json.dumps(payload, indent=2), args.json)
    return EXIT_OK


def cmd_classify(args) -> int:
    proto = surface(args.surface)
    P = parse_point(proto, args.point)
    ball = build_G2(P, radius=args.radius)
    shape = classify_component(ball)
    out = {
        "schema": "lsurf-classify-v1",
        "surface": proto.name,
        "point": str(P),
        "radius": args.radius,
        "vertices": ball.order(),
        "kind": shape.kind,
        "violations": shape.violations,
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK if shape.kind != OTHER else EXIT_CHECK_FAILED


def cmd_verify_lemmas(args) -> int:
    proto = surface(args.surface)
    reports = run_suites(proto, seed=args.seed, samples=args.samples)
    print(f"# verify-lemmas on {proto.name}, seed {args.seed}, {args.samples} samples per suite")
    for rep in reports:
        print(rep.line())
    bad = [rep for rep in reports if not rep.ok]
    if bad:
        failure = {
            "schema": "lsurf-lemma-failures-v1",
            "surface": proto.name,
            "seed": args.seed,
            "failures": [
                {"suite": rep.name, "violations": rep.violations[:20]} for rep in bad
            ],
        }
        print(json.dumps(failure, indent=2))
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_tree_cheeger(args) -> int:
    profile = tree_cheeger_profile(args.k, args.n_max)
    rows = [(n + 1, str(c), f"{float(c):.12g}") for n, c in enumerate(profile)]
    _emit(_csv_table(rows, "n,c_exact,c_float"), args.csv)
    return EXIT_OK


def cmd_spectral(args) -> int:
    with open(args.graph, encoding="utf-8") as fh:
        data = json.load(fh)
    G = FiniteGraph.from_json_dict(data)
    root = args.root if args.root is not None else data.get("root", 0)
    support = graph_ball(G, root, args.support_radius)
    # the brute-force Cheeger minimum raises ValueError beyond 20 vertices,
    # before the sandwich check spends an eigensolve on mu0
    report = cheeger_sandwich_check(G, support) if args.sandwich else None
    mu0 = dirichlet_mu0(G, support) if report is None else report.mu0
    out = {
        "schema": "lsurf-spectral-v1",
        "vertices": G.n,
        "support_radius": args.support_radius,
        "support_size": len(support),
        "max_degree": G.max_degree,
        "dirichlet_mu0": f"{mu0:.12g}",
    }
    if report is not None:
        out["sandwich"] = report.describe()
    print(json.dumps(out, indent=2))
    return EXIT_OK if report is None or report.ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsurf",
        description="Exact orbit machinery for L-shaped genus-2 surfaces: "
        "generator actions, orbit balls, residue-graph components, reduction "
        "certificates, and Cheeger/Laplacian checks.",
    )
    parser.add_argument("--version", action="version", version=f"lsurf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table-cn", help="component counts C(N) of the residue graphs")
    p.add_argument("--max", type=int, default=28)
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(fn=cmd_table_cn)

    p = sub.add_parser("components", help="components of one residue graph, with representatives")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--csv", help="write output here instead of stdout")
    p.set_defaults(fn=cmd_components)

    p = sub.add_parser("multiplicativity", help="probe C(NM) = C(N)C(M) for coprime N, M")
    p.add_argument("--max", type=int, default=28)
    p.add_argument("--json", help="write JSON here instead of stdout")
    p.set_defaults(fn=cmd_multiplicativity)

    p = sub.add_parser("reduce", help="reduce a point into the bounded set S with a certificate word")
    _add_surface_arg(p)
    p.add_argument("--point", required=True, help='four rationals "x_r,x_i,y_r,y_i"')
    p.add_argument("--trace", action="store_true", help="print the per-step case trace")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("orbit-bracket", help="bracket the orbit count of denominator-N points")
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--json", help="write JSON here instead of stdout")
    p.set_defaults(fn=cmd_orbit_bracket)

    p = sub.add_parser("explore", help="BFS orbit ball around a point (optionally the pruned graph)")
    _add_surface_arg(p)
    p.add_argument("--point", required=True)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--g2", action="store_true", help="pruned graph with threshold exponents")
    p.add_argument("--k", type=int, default=1, help="vertical exponent when not --g2")
    p.add_argument("--l", type=int, default=1, help="horizontal exponent when not --g2")
    p.add_argument("--dot", help="also write a DOT file here")
    p.add_argument("--json", help="write the graph JSON here instead of stdout")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("classify", help="classify the pruned-graph ball: tree or root-looped tree")
    _add_surface_arg(p)
    p.add_argument("--point", required=True)
    p.add_argument("--radius", type=int, default=3)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify-lemmas", help="run the growth-lemma property suites")
    _add_surface_arg(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(fn=cmd_verify_lemmas)

    p = sub.add_parser("tree-cheeger", help="boundary-ratio profile of balls in the 2k-regular tree")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(fn=cmd_tree_cheeger)

    p = sub.add_parser("spectral", help="Dirichlet Laplacian bottom on a graph-JSON support ball")
    p.add_argument("--graph", required=True, help="graph JSON (same schema as explore output)")
    p.add_argument("--support-radius", type=int, default=3)
    p.add_argument("--root", type=int, help="root id (default: the JSON root)")
    p.add_argument("--sandwich", action="store_true", help="also brute-force the Cheeger bracket (support <= 20 vertices)")
    p.set_defaults(fn=cmd_spectral)

    return parser


def _merge_point_flag(argv: list[str]) -> list[str]:
    # "--point -141,100,1/2,0" would parse as an option; fold into --point=...
    out: list[str] = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--point" and i + 1 < len(argv):
            out.append(f"--point={argv[i + 1]}")
            skip = True
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_point_flag(sys.argv[1:] if argv is None else list(argv)))
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early: exit quietly, and flush into devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ModNResourceError, ResourceCapError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except SpectralConvergenceError as exc:
        print(f"eigensolver failure: {exc} (residual {exc.residual})", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
