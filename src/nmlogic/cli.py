"""Command-line interface.

Every command prints exact rational text (never decimals) and is
deterministic: identical arguments produce byte-identical output.
Handlers return their text and exit code; :func:`main` alone writes the
text, to stdout or to the ``--out`` path of ``export`` and ``filters``.

Arguments are parsed once: when ``argv[0]`` names a command, :func:`main`
hands the rest of ``argv`` straight to that command's own parser. The
top-level parser answers only a top-level ``-h`` and a missing or unknown
command, so a usage error prints the command's usage line
(``nmlogic chi: error: ...``).

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
from .chain import eval_standard
from .free_algebra import (
    DEFAULT_ELEMENT_CAP, ElementCapExceeded, FreeAlgebra, build, is_tautology, proves, truth_vector,
)


MAX_MESSAGE = 160  # UTF-8 bytes of an error message; only long echoed input makes one longer


def _clip(message: str) -> str:
    data, half = message.encode(), (MAX_MESSAGE - 5) // 2
    ends = data[:half].decode(errors="ignore"), data[-half:].decode(errors="ignore")
    return message if len(data) <= MAX_MESSAGE else " ... ".join(ends)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subparsers share this class: every usage error is clipped
        super().error(_clip(message))


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
            # Fraction would expand an exponent such as 1e-999999999 in full.
            if "e" in value.lower():
                raise ValueError(
                    f"exponent notation in {item!r}; write an integer, p/q or a plain decimal"
                )
            try:
                index, number = int(name[1:]), Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"malformed binding {item!r}: zero denominator") from None
            except ValueError as err:
                # Past int()'s digit limit, Python's message is advice to raise it.
                if "set_int_max_str_digits" not in str(err):
                    raise
                raise ValueError(f"malformed binding {name[:9]}=...: number too long") from None
            if index < 1:
                raise ValueError(f"variable index must be >= 1 in {item!r}")
            out[index] = number
    return out


def _algebra(args) -> FreeAlgebra:
    return build(args.vars, args.variant, args.cap)


def _answer(yes: bool) -> tuple[str, int]:
    return ("yes\n", 0) if yes else ("no\n", 1)


def _cmd_eval(args) -> tuple[str, int]:
    f = fm.parse(args.formula)
    env = _bindings(args.assign)
    if args.chain is not None:  # the K-chain is {0, 1/(K-1), ..., 1} inside [0, 1]
        if args.chain < 2:
            raise ValueError(f"chain size must be >= 2, got {args.chain}")
        for var, frac in env.items():
            if (frac * (args.chain - 1)).denominator != 1 or not 0 <= frac <= 1:
                raise ValueError(f"x{var} = {frac} is not an element of the {args.chain}-chain")
    return f"{eval_standard(f, env)}\n", 0


def _cmd_chi(args) -> tuple[str, int]:
    """``chi`` prints the classical characteristic, ``chi-plus`` the idempotent one."""
    # The formula's grid row names an unbound variable before the closure is built.
    vector = truth_vector(args.vars, args.variant, fm.parse(args.formula))
    algebra = _algebra(args)
    char = valuations.idempotent_euler_char if args.command == "chi-plus" else valuations.euler_char
    return f"{char(algebra, algebra.id_of_vector(vector))}\n", 0


def _cmd_count_models(args) -> tuple[str, int]:
    f = fm.parse(args.formula)
    return f"{models.count_models(f, args.vars, models.AssignmentSpace(args.values))}\n", 0


def _cmd_build(args) -> tuple[str, int]:
    return f"{_algebra(args).size} elements\n", 0


def _cmd_export(args) -> tuple[str, int]:
    algebra = _algebra(args)
    return (algebra_json(algebra) if args.format == "json" else hasse_dot(algebra)), 0


def _cmd_filters(args) -> tuple[str, int]:
    return forest_dot(_algebra(args)), 0


def _cmd_tautology(args) -> tuple[str, int]:
    f = fm.parse(args.formula)
    return _answer(is_tautology(args.vars, args.variant, f))


def _cmd_proves(args) -> tuple[str, int]:
    premise, conclusion = fm.parse(args.formula), fm.parse(args.conclusion)
    return _answer(proves(args.vars, args.variant, premise, conclusion))


def algebra_json(algebra: FreeAlgebra) -> str:
    return json.dumps(algebra.export(), sort_keys=True, separators=(",", ":")) + "\n"


def _digraph(name: str, labels, edges, *attributes: str) -> str:
    """A DOT digraph: graph attributes, labelled nodes, then ``a -> b`` edges."""
    lines = [f"digraph {name} {{", *(f"  {a};" for a in attributes)]
    lines += [f'  {node} [label="{label}"];' for node, label in labels]
    lines += [f"  {a} -> {b};" for a, b in edges]
    return "\n".join(lines + ["}"]) + "\n"


def hasse_dot(algebra: FreeAlgebra) -> str:
    """Cover edges only, child -> parent; nodes carry 'id:count' labels."""
    chi_plus = valuations.evaluate(algebra, valuations.idempotent_euler_spec(algebra))
    labels = [(x, f"{x}:{value}") for x, value in enumerate(chi_plus)]
    return _digraph("hasse", labels, algebra.covers(), "rankdir=BT")


def forest_dot(algebra: FreeAlgebra) -> str:
    """Prime filter forest; edges run child -> parent, towards the roots."""
    forest = flt.forest(algebra)
    labels = [(i, f"gen={filt.generator}") for i, filt in enumerate(forest.filters)]
    edges = [(i, parent) for i, parent in enumerate(forest.parent) if parent is not None]
    return _digraph("prime_filters", labels, edges)


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nmlogic",
        description="Nilpotent minimum logic: evaluation, free algebras, "
                    "lattice valuations and model counting.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for name, func, summary, *positionals in (
        ("eval", _cmd_eval, "evaluate a formula exactly", "formula"),
        ("chi", _cmd_chi, "classical characteristic of a formula", "formula"),
        ("chi-plus", _cmd_chi, "idempotent characteristic of a formula", "formula"),
        ("count-models", _cmd_count_models, "count satisfying assignments", "formula"),
        ("build", _cmd_build, "build a free algebra and report its size"),
        ("export", _cmd_export, "write a free algebra as JSON or DOT"),
        ("filters", _cmd_filters, "write the prime filter forest as DOT"),
        ("tautology", _cmd_tautology, "decide whether a formula is a tautology", "formula"),
        ("proves", _cmd_proves, "decide local consequence between two formulas",
         "formula", "conclusion"),
    ):
        sub[name] = subs.add_parser(name, help=summary)
        sub[name].set_defaults(func=func, command=name)
        for positional in positionals:
            sub[name].add_argument(positional)

    carrier = sub["eval"].add_mutually_exclusive_group()
    carrier.add_argument("--chain", type=int, metavar="K",
                         help="evaluate on the K-element chain")
    carrier.add_argument("--standard", action="store_true",
                         help="evaluate on [0,1] (default)")
    sub["eval"].add_argument("--assign", action="append", default=[], metavar="xN=Q",
                             help="variable binding: an integer, p/q or a plain decimal, "
                                  "e.g. x1=1/2; repeatable")
    algebra_commands = ("chi", "chi-plus", "build", "export", "filters")
    for name in algebra_commands + ("count-models", "tautology", "proves"):
        sub[name].add_argument("--vars", type=int, required=True,
                               help="number of generators")
        if name != "count-models":
            sub[name].add_argument("--variant", choices=["nm", "nm-"], default="nm")
    sub["count-models"].add_argument("--values", type=int, choices=[3, 2], default=3,
                                     help="assignment values: 3 for {0,1/2,1}, 2 for {0,1}")
    for name in algebra_commands:
        sub[name].add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP,
                               help="abort if the closure exceeds this many elements")
    sub["export"].add_argument("--format", choices=["json", "dot"], default="json")
    for name in ("export", "filters"):
        sub[name].add_argument("--out", help="output path (default: stdout)")
    parser.commands = subs.choices  # name -> that command's parser, for main's dispatch
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _make_parser()
    command = parser.commands.get(argv[0]) if argv else None
    try:
        args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        text, code = args.func(args)
        if getattr(args, "out", None) is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as handle:
                handle.write(text)
        return code
    except fm.ParseError as err:
        message, code = f"parse error: {err}", 2
    except ElementCapExceeded as err:
        message, code = f"resource error: {err}", 4
    except (ValueError, ZeroDivisionError, OSError) as err:
        message, code = f"error: {err}", 3
    print(_clip(message), file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
