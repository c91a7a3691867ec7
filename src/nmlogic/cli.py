"""Command-line interface.

Every command prints exact rational text (never decimals) and is
deterministic: identical arguments produce byte-identical output.

Exit codes: 0 success or affirmative answer, 1 negative answer,
2 parse error, 3 semantic error or unwritable output, 4 element cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import filters as flt
from . import formula as fm
from . import models, valuations
from .chain import ChainValue, EvaluationError, NMChain, eval_chain, eval_standard
from .free_algebra import (
    DEFAULT_ELEMENT_CAP, ElementCapExceeded, FreeAlgebra, Variant, build, is_tautology,
    proves,
)


def _variant(text: str) -> Variant:
    return Variant.NM if text == "nm" else Variant.NM_MINUS


def _bindings(pairs: list[str]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for chunk in pairs:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            name, _, value = item.partition("=")
            if not name.startswith("x") or not name[1:].isdecimal() or not value:
                raise ValueError(f"malformed binding {item!r}, expected xN=VALUE")
            try:
                index = int(name[1:])
            except ValueError:  # more digits than int() converts
                raise ValueError(
                    f"malformed binding {name[:9]}...: variable index is too long"
                ) from None
            if index < 1:
                raise ValueError(f"variable index must be >= 1 in {item!r}")
            # Fraction would expand an exponent such as 1e-999999999 in full.
            if "e" in value.lower():
                raise ValueError(
                    f"exponent notation in {item!r}; write an integer, p/q or a plain decimal"
                )
            out[index] = Fraction(value)
    return out


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _cmd_eval(args) -> int:
    f = fm.parse(args.formula)
    env = _bindings(args.assign)
    if args.chain is not None:
        k = args.chain
        if k < 2:
            raise ValueError(f"chain size must be >= 2, got {k}")
        chain = NMChain(k)
        values: dict[int, ChainValue] = {}
        for var, frac in env.items():
            scaled = frac * (k - 1)
            if scaled.denominator != 1 or not 0 <= scaled <= k - 1:
                raise ValueError(f"x{var} = {frac} is not an element of the {k}-chain")
            values[var] = ChainValue(int(scaled), k)
        result = eval_chain(f, chain, values).as_fraction
    else:
        result = eval_standard(f, env)
    print(result)
    return 0


def _cmd_chi(args, idempotent: bool) -> int:
    f = fm.parse(args.formula)
    algebra = build(args.vars, _variant(args.variant), args.cap)
    char = valuations.idempotent_euler_char if idempotent else valuations.euler_char
    print(char(algebra, algebra.element_of(f)))
    return 0


def _cmd_count_models(args) -> int:
    f = fm.parse(args.formula)
    space = models.AssignmentSpace(args.values)
    print(models.count_models(f, args.vars, space))
    return 0


def _cmd_build(args) -> int:
    algebra = build(args.vars, _variant(args.variant), args.cap)
    print(f"{algebra.size} elements")
    return 0


def algebra_json(algebra: FreeAlgebra) -> str:
    return json.dumps(algebra.export(), sort_keys=True, separators=(",", ":")) + "\n"


def hasse_dot(algebra: FreeAlgebra) -> str:
    """Cover edges only, child -> parent; nodes carry 'id:count' labels."""
    table = valuations.weights(algebra, valuations.idempotent_euler_spec(algebra))
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for x in algebra.element_ids():
        label = valuations.idempotent_euler_char(algebra, x, table)
        lines.append(f'  {x} [label="{x}:{label}"];')
    for child, parent in algebra.covers():
        lines.append(f"  {child} -> {parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def forest_dot(algebra: FreeAlgebra) -> str:
    """Prime filter forest; edges run child -> parent, towards the roots."""
    forest = flt.forest(algebra)
    lines = ["digraph prime_filters {"]
    for i, filt in enumerate(forest.filters):
        lines.append(f'  {i} [label="gen={filt.generator}"];')
    for i, parent in enumerate(forest.parent):
        if parent is not None:
            lines.append(f"  {i} -> {parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_export(args) -> int:
    algebra = build(args.vars, _variant(args.variant), args.cap)
    text = algebra_json(algebra) if args.format == "json" else hasse_dot(algebra)
    _write(text, args.out)
    return 0


def _cmd_filters(args) -> int:
    algebra = build(args.vars, _variant(args.variant), args.cap)
    _write(forest_dot(algebra), args.out)
    return 0


def _answer(yes: bool) -> int:
    print("yes" if yes else "no")
    return 0 if yes else 1


def _cmd_tautology(args) -> int:
    f = fm.parse(args.formula)
    return _answer(is_tautology(args.vars, _variant(args.variant), f))


def _cmd_proves(args) -> int:
    premise, conclusion = fm.parse(args.formula), fm.parse(args.conclusion)
    return _answer(proves(args.vars, _variant(args.variant), premise, conclusion))


def _add_algebra_options(sub) -> None:
    sub.add_argument("--vars", type=int, required=True, help="number of generators")
    sub.add_argument("--variant", choices=["nm", "nm-"], default="nm")
    sub.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP,
                     help="abort if the closure exceeds this many elements")


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmlogic",
        description="Nilpotent minimum logic: evaluation, free algebras, "
                    "lattice valuations and model counting.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate a formula exactly")
    p.add_argument("formula")
    carrier = p.add_mutually_exclusive_group()
    carrier.add_argument("--chain", type=int, metavar="K",
                         help="evaluate on the K-element chain")
    carrier.add_argument("--standard", action="store_true",
                         help="evaluate on [0,1] (default)")
    p.add_argument("--assign", action="append", default=[], metavar="xN=Q",
                   help="variable binding: an integer, p/q or a plain decimal, "
                        "e.g. x1=1/2; repeatable")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("chi", help="classical characteristic of a formula")
    p.add_argument("formula")
    _add_algebra_options(p)
    p.set_defaults(func=lambda a: _cmd_chi(a, idempotent=False))

    p = subs.add_parser("chi-plus", help="idempotent characteristic of a formula")
    p.add_argument("formula")
    _add_algebra_options(p)
    p.set_defaults(func=lambda a: _cmd_chi(a, idempotent=True))

    p = subs.add_parser("count-models", help="count satisfying assignments")
    p.add_argument("formula")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--values", type=int, choices=[3, 2], default=3,
                   help="assignment values: 3 for {0,1/2,1}, 2 for {0,1}")
    p.set_defaults(func=_cmd_count_models)

    p = subs.add_parser("build", help="build a free algebra and report its size")
    _add_algebra_options(p)
    p.set_defaults(func=_cmd_build)

    p = subs.add_parser("export", help="write a free algebra as JSON or DOT")
    _add_algebra_options(p)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_export)

    p = subs.add_parser("filters", help="write the prime filter forest as DOT")
    _add_algebra_options(p)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_filters)

    p = subs.add_parser("tautology", help="decide whether a formula is a tautology")
    p.add_argument("formula")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--variant", choices=["nm", "nm-"], default="nm")
    p.set_defaults(func=_cmd_tautology)

    p = subs.add_parser("proves", help="decide local consequence between two formulas")
    p.add_argument("formula")
    p.add_argument("conclusion")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--variant", choices=["nm", "nm-"], default="nm")
    p.set_defaults(func=_cmd_proves)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except fm.ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except ElementCapExceeded as err:
        print(f"resource error: {err}", file=sys.stderr)
        return 4
    except (EvaluationError, ValueError, ZeroDivisionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
