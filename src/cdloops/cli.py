"""Command-line interface: one `cdl` binary with subcommands.

All results go to standard output as JSON (exact rationals as
{"num", "den", "decimal"}); diagnostics go to standard error.  Exit codes:
0 success, 1 failed verification checks or a closed stdout pipe, 2 invalid
input, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from fractions import Fraction

from .abstract_loop import parse_loop_table, serialize_loop_table, to_table
from .analytics import (
    DegreeReport,
    associativity_degree_brute,
    associativity_degree_closed,
    commutativity_degree_brute,
    commutativity_degree_closed,
    pc_limit_table,
    rank_census_brute,
    rank_census_closed,
)
from .budget import resolve_max_elements
from .cdloop import MAX_GENERATORS, CDLoop, as_product
from .central_product import CentralProduct, make_product
from .decompose import factor_compatibility, match_factors, recover_factors
from .errors import BudgetExceeded, DecompositionError, TableFormatError
from .scalars import ScalarGroup, make_scalar_group
from .verify import run_verify


def _rational_json(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": f"{float(value):.12g}",
    }


def _report_json(report: DegreeReport) -> dict:
    return {**dataclasses.asdict(report), "degree": _rational_json(report.degree)}


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _parse_gammas(z: ScalarGroup, text: str) -> tuple:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("expected a comma-separated list of scalars, got none")
    return tuple(z.parse(t) for t in tokens)


def _parse_factors(z: ScalarGroup, text: str) -> CentralProduct:
    chunks = [c for c in (chunk.strip() for chunk in text.split(";")) if c]
    if not chunks:
        raise ValueError("expected semicolon-separated gamma lists, got none")
    loops = [CDLoop(z, _parse_gammas(z, chunk)) for chunk in chunks]
    return make_product(z, loops)


# -- subcommand bodies ------------------------------------------------------------


def _cmd_build(args) -> int:
    z = make_scalar_group(args.z_order)
    loop = CDLoop(z, _parse_gammas(z, args.gammas))
    gens = range(1, loop.n + 1)
    squares = {
        f"l{i}": z.format(loop.mul(loop.generator(i), loop.generator(i)).scalar)
        for i in gens
    }
    commutators, associators = (
        [
            {key: [f"l{i}" for i in idx], "value": z.format(law(*map(loop.generator, idx)).scalar)}
            for idx in itertools.islice(itertools.combinations(gens, arity), 10)
        ]
        for key, law, arity in (("pair", loop.commutator, 2), ("triple", loop.associator, 3))
    )
    _emit(
        {
            "z_order": z.order,
            "n": loop.n,
            "gammas": [z.format(g) for g in loop.gammas],
            "order": loop.order,
            "generator_squares": squares,
            "sample_commutators": commutators,
            "sample_associators": associators,
        }
    )
    return 0


def _cmd_degrees(args) -> int:
    if args.n is not None and not 1 <= args.n <= MAX_GENERATORS:
        raise ValueError(f"--n must be in 1..{MAX_GENERATORS}, got {args.n}")
    if args.gammas or args.factors:
        A = as_product(_build_descriptor(args))
        if args.n not in (None, A.n):
            raise ValueError(f"--n is {args.n} but the descriptor has depth {A.n}")
    elif args.n is not None:
        A = CDLoop.all_minus_one(make_scalar_group(args.z_order), args.n).product
    else:
        raise ValueError("one of --n, --gammas or --factors is required")
    if args.kind == "commutativity":
        survey = commutativity_degree_brute
        closed = lambda: commutativity_degree_closed(A.m, A.n, A.z.order)
    else:
        # Associator exponents do not depend on the gammas (tests/test_coset_surveys.py::
        # test_associator_and_moufang_exponents_do_not_depend_on_the_gammas).
        if args.method != "brute" and A.m != 1:
            raise ValueError(
                "the closed associativity formula covers only a single loop; "
                "use --method brute for a product"
            )
        survey = associativity_degree_brute
        closed = lambda: associativity_degree_closed(A.n, A.z.order)
    brute = lambda: survey(A, args.max_elements)
    if args.method == "brute":
        _emit({"kind": args.kind, **_report_json(brute())})
    elif args.method == "closed":
        _emit({"kind": args.kind, **_report_json(closed())})
    else:
        b, c = brute(), closed()
        _emit(
            {
                "kind": args.kind,
                "brute": _report_json(b),
                "closed": _report_json(c),
                "agree": b.degree == c.degree,
            }
        )
    return 0


def _cmd_census(args) -> int:
    z = make_scalar_group(args.z_order)
    product = _parse_factors(z, args.factors)
    counts = rank_census_brute(product, args.max_elements)
    closed = rank_census_closed(product.m, product.n, z.order)
    _emit(
        {
            "m": product.m,
            "n": product.n,
            "z_order": z.order,
            "counts": counts,
            "closed_form": closed,
            "agree": counts == closed,
        }
    )
    return 0


def _cmd_limits(args) -> int:
    rows = pc_limit_table(
        args.mode, args.fixed, args.start, args.stop, args.max_elements
    )
    payload = {
        "mode": args.mode,
        "fixed": args.fixed,
        "rows": [
            {
                ("n" if args.mode == "grow_n" else "m"): value,
                "degree": _rational_json(degree),
            }
            for value, degree in rows
        ],
    }
    _emit(payload)
    return 0


def _build_descriptor(args):
    z = make_scalar_group(args.z_order)
    if args.factors and args.gammas:
        raise ValueError("give either --gammas or --factors, not both")
    if args.factors:
        return _parse_factors(z, args.factors)
    if args.gammas:
        return CDLoop(z, _parse_gammas(z, args.gammas))
    raise ValueError("one of --gammas or --factors is required")


def _cmd_export(args) -> int:
    loop = to_table(_build_descriptor(args), args.max_elements)
    text = serialize_loop_table(loop)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {loop.size}x{loop.size} table to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _read_text(path: str) -> str:
    # ASCII bytes are decoded once, with no newline translation (the parser
    # reads \r\n and \r as line breaks) and dropped before the parse.  Any
    # other file takes the text-mode read, so its text and messages stay.
    with open(path, "rb") as fh:
        data = fh.read()
    if data.isascii():
        return data.decode("ascii")
    with open(path) as fh:
        return fh.read()


def _read_table(path: str, max_elements: int | None):
    return parse_loop_table(_read_text(path), max_elements)


def _cmd_import(args) -> int:
    loop = _read_table(args.table, args.max_elements)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(serialize_loop_table(loop))
        print(f"wrote normalized table to {args.out}", file=sys.stderr)
        return 0
    _emit(
        {
            "size": loop.size,
            "identity": loop.identity,
            "center": loop.center(),
            "valid": True,
        }
    )
    return 0


def _cmd_decompose(args) -> int:
    dec = recover_factors(_read_table(args.table, args.max_elements), args.n)
    payload = {
        "n": dec.n,
        "m": dec.m,
        "z_size": dec.z_size,
        "center": dec.center,
        "rank_histogram": dec.rank_histogram(),
        "factors": dec.subsets,
    }
    if args.match_against:
        other = recover_factors(_read_table(args.match_against, args.max_elements), args.n)
        pairs = factor_compatibility(dec, other)
        sigma = match_factors(pairs) if dec.m == other.m else None
        payload["match"] = {"sigma": sigma, "pairs": pairs}
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    try:
        z_orders = tuple(int(t) for t in args.z_orders.split(",") if t.strip())
    except ValueError:
        raise ValueError(f"z_orders must be integers, got {args.z_orders!r}") from None
    report = run_verify(
        max_n=args.max_n,
        max_m=args.max_m,
        z_orders=z_orders,
        trials=args.trials,
        seed=args.seed,
        max_elements=args.max_elements,
    )
    print(report.render_text(), file=sys.stderr)
    _emit(
        {
            "checks": [dataclasses.asdict(c) for c in report.checks],
            "summary": {s: report.count(s) for s in ("pass", "fail", "skipped", "info")},
            "ok": report.ok,
        }
    )
    return 0 if report.ok else 1


# -- argument plumbing ----------------------------------------------------------


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdl",
        description="Exact computations in Cayley-Dickson loops and their central products",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-elements",
        type=int,
        default=None,
        help="enumeration budget (default 2^20; env CDL_MAX_ELEMENTS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common], help="summarize one loop")
    p.add_argument("--z-order", type=int, required=True)
    p.add_argument("--gammas", required=True, help="comma-separated scalars")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("degrees", parents=[common], help="commutativity/associativity degrees")
    p.add_argument("--kind", choices=("commutativity", "associativity"), required=True)
    p.add_argument("--z-order", type=int, default=2)
    p.add_argument("--factors", help="product: semicolon-separated gamma lists")
    p.add_argument("--n", type=int, help="doubling depth; alone, the all -1 loop")
    p.add_argument("--gammas", help="single loop: comma-separated scalars")
    p.add_argument("--method", choices=("brute", "closed", "both"), default="both")
    p.set_defaults(func=_cmd_degrees)

    p = sub.add_parser("census", parents=[common], help="element counts by rank")
    p.add_argument("--z-order", type=int, default=2)
    p.add_argument("--factors", required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("limits", parents=[common], help="degree trends along m or n")
    p.add_argument("--mode", choices=("grow_n", "grow_m"), required=True)
    p.add_argument("--fixed", type=int, required=True, help="the parameter held fixed")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--stop", type=int, required=True)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("export", parents=[common], help="write a loop-table v1 file")
    p.add_argument("--z-order", type=int, required=True)
    p.add_argument("--gammas", help="single loop: comma-separated scalars")
    p.add_argument("--factors", help="product: semicolon-separated gamma lists")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("import", parents=[common], help="validate a loop-table v1 file")
    p.add_argument("--table", required=True)
    p.add_argument("--out", help="re-serialize the normalized table to this path")
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("decompose", parents=[common], help="split a table into factors")
    p.add_argument("--table", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--match-against", help="second table to match factor-wise")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", parents=[common], help="run the cross-check suite")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-m", type=int, default=3)
    p.add_argument("--z-orders", default="2,4")
    p.add_argument("--trials", type=int, default=24)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=_cmd_verify)

    return parser


# Flags whose values may start with "-" (gamma lists like "-1,-1"); fused to
# --flag=value so argparse does not read the value as an option.
_VALUE_FLAGS = ("--gammas", "--factors")


def _fuse_dash_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_fuse_dash_values(list(argv)))
    try:
        # Also for subcommands that never charge the budget, like build.
        resolve_max_elements(args.max_elements)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (e.g. `cdl ... | head`).  Point stdout at
        # devnull so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TableFormatError, DecompositionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
