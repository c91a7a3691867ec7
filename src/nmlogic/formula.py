"""Propositional syntax: formula trees, a parser, a printer and one walk.

Formulas are built over variables ``x1, x2, ...`` and the constants ``0``
(falsum) and ``1`` (verum).  The connectives, tightest binding first:

    a^2     self-fusion           (sugar for  a * a)
    ~a      involutive negation   (sugar for  a -> 0)
    a * b   strong conjunction (monoidal fusion)
    a & b   lattice conjunction
    a | b   lattice disjunction   (sugar, definable from & and ->)
    a -> b  residuated implication, right associative
    a <-> b bi-implication        (sugar for  (a -> b) * (b -> a))

Concrete grammar (EBNF), loosest binding first::

    formula := iff
    iff     := imp { "<->" imp }
    imp     := or [ "->" imp ]
    or      := and { "|" and }
    and     := strong { "&" strong }
    strong  := unary { "*" unary }
    unary   := "~" unary | postfix
    postfix := atom { "^2" }
    atom    := "0" | "1" | VAR | "(" formula ")"
    VAR     := "x" DIGITS            (index >= 1)

Whitespace is insignificant.  All binary connectives are left associative
except ``->``.  :func:`parse` does not recurse: it is one operator-precedence
loop with an explicit stack, driven by ``_BINARY``, the one table of the
binary connectives' symbols, levels and associativity, which the token
pattern and the printer read too.  Parsing, evaluation and printing are all
iterative, so nesting depth is limited by memory alone.

The sugar connectives (``|``, ``~``, ``1``, ``<->``, ``^2``) are kept as
explicit tree nodes.  :func:`program` compiles a formula in one walk into a
flat tuple of steps, one per distinct node, and keeps the programs of the
last few formulas it compiled, matched by identity and bounded in count and
bytes by :class:`nmlogic._recent.Recent`; :func:`evaluate`, the one
interpreter, runs that program in any algebra.  So evaluating one formula at
many points walks its tree once, even when a formula built on it (as
:func:`nmlogic.free_algebra.proves` builds ``phi^2 -> psi``) is compiled
in between.  :func:`desugar`, the rewrite into the core fragment
{Var, Bot, And, Strong, Implies}, is evaluation in the algebra of core
formulas.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random
from types import SimpleNamespace
from typing import Iterator, Mapping, Union

from ._recent import Recent


@dataclass(frozen=True)
class Var:
    """Propositional variable; indices are 1-based."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class Bot:
    """The constant falsum, written ``0``."""


@dataclass(frozen=True)
class Top:
    """The constant verum, written ``1`` (sugar for ``0 -> 0``)."""


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Strong:
    """Strong (monoidal) conjunction, written ``*``."""

    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class Square:
    """Self-fusion ``a^2``, sugar for ``a * a``."""

    child: "Formula"


Formula = Union[Var, Bot, Top, And, Or, Strong, Implies, Iff, Not, Square]

BOT = Bot()
TOP = Top()


class ParseError(ValueError):
    """Raised on malformed input; carries the offending position.

    ``position`` is a 0-based character offset into the source text and
    ``expected`` names the token classes that would have been accepted.
    """

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)


# Binary connectives, loosest first: the one table of their symbols,
# precedence levels and associativity, read by the token pattern, the parser
# and the printer.
_BINARY = {
    Iff: ("<->", 1, False),
    Implies: ("->", 2, True),
    Or: ("|", 3, False),
    And: ("&", 4, False),
    Strong: ("*", 5, False),
}
# The unary connectives and the atoms bind tighter than every binary one.
_LEVEL_NOT = 6
_LEVEL_SQUARE = 7
_LEVEL_ATOM = 8

# symbol -> (level, right associative, node class)
_INFIX = {symbol: (level, right, node) for node, (symbol, level, right) in _BINARY.items()}
# ")" and the end of input close every connective pending above the last "(".
_CLOSE = (1, False, None)

_CONSTANTS = {"0": BOT, "1": TOP}
# Each match is optional whitespace and then one token: a variable, a
# constant, a connective or parenthesis, any other character (an error) or
# the end of the text.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>x\d+)|(?P<symbol>"
    + "|".join(map(re.escape, ("~", "^2", "(", ")", *_CONSTANTS, *_INFIX)))
    + r")|(?P<bad>\S)|(?P<end>\Z))"
)

_ATOM_EXPECTED = ("'~'", "'0'", "'1'", "a variable 'xN'", "'('")


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula tree.

    Raises :class:`ParseError` on malformed input, reporting the character
    position and the expected token classes of the leftmost error.  One loop
    over the token matches keeps an operand stack and a stack of pending
    connectives, so any nesting depth parses.
    """
    operands: list[Formula] = []
    # (level, node class) of each pending "~" and binary connective; every
    # "(" and the start of input sit at level 0, below all of them.
    pending: list[tuple[int, type | None]] = [(0, None)]
    want_operand = True
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        kind, pos = m[group], m.start(group)
        # Lexical errors are reported whether or not an operand is wanted.
        if group == "var":
            try:
                index = int(kind[1:])
            except ValueError:  # more digits than int() converts
                raise ParseError("variable index is too long", pos) from None
            if index < 1:
                raise ParseError("variable index must be >= 1", pos)
            atom = Var(index)
        elif group == "bad":
            raise ParseError(f"unexpected character {kind!r}", pos)
        else:
            atom = _CONSTANTS.get(kind)
        if want_operand:
            if atom is not None:
                operands.append(atom)
                want_operand = False
            elif kind == "~":
                pending.append((_LEVEL_NOT, Not))
            elif kind == "(":
                pending.append((0, None))
            else:
                raise ParseError("expected a formula", pos, _ATOM_EXPECTED)
        elif kind == "^2":
            operands[-1] = Square(operands[-1])
        else:
            level, right_assoc, node = _INFIX.get(kind, _CLOSE)
            # Reduce what binds at least as tightly; a right associative
            # connective leaves its own kind pending.
            while pending[-1][0] >= level + right_assoc:
                op = pending.pop()[1]
                if op is Not:
                    operands[-1] = Not(operands[-1])
                else:
                    arg = operands.pop()
                    operands[-1] = op(operands[-1], arg)
            if node is not None:
                pending.append((level, node))
                want_operand = True
            elif len(pending) > 1:
                if kind != ")":
                    raise ParseError("unclosed parenthesis", pos, ("')'",))
                pending.pop()
            elif group == "end":
                # After trailing whitespace a second, empty end match follows.
                return operands[0]
            else:
                raise ParseError(
                    "trailing input", pos, ("a binary connective", "end of input")
                )


def format_formula(f: Formula) -> str:
    """Render ``f`` with the fewest parentheses that still reparse to ``f``;
    ``TypeError`` on a node that is not a formula."""
    out: list[str] = []
    # Text still to emit, or a (node, minimum level) still to render; last first.
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, minimum = item
        if isinstance(node, Var):
            level, parts = _LEVEL_ATOM, [f"x{node.index}"]
        elif isinstance(node, Bot):
            level, parts = _LEVEL_ATOM, ["0"]
        elif isinstance(node, Top):
            level, parts = _LEVEL_ATOM, ["1"]
        elif isinstance(node, Not):
            level, parts = _LEVEL_NOT, ["~", (node.child, _LEVEL_NOT)]
        elif isinstance(node, Square):
            level, parts = _LEVEL_SQUARE, [(node.child, _LEVEL_SQUARE), "^2"]
        elif type(node) in _BINARY:
            symbol, level, right_assoc = _BINARY[type(node)]
            # The side a connective associates to may hold its own level.
            left, right = (level + 1, level) if right_assoc else (level, level + 1)
            parts = [(node.left, left), f" {symbol} ", (node.right, right)]
        else:
            raise TypeError(f"not a formula node: {node!r}")
        if level < minimum:
            parts = ["(", *parts, ")"]
        stack += reversed(parts)
    return "".join(out)


class EvaluationError(ValueError):
    """An assignment is missing a binding or holds an out-of-range value."""


# The formulas compiled most recently and their programs, by ``id``: an entry
# holds its formula, so while it is kept no other object has that id.  They
# are matched by identity alone, as dataclass equality recurses.  A step
# weighs 256 bytes with its node (measured: 110 and 85), so a 10001-step
# program fits.
_PROGRAMS = Recent(entries=8, nbytes=1 << 22)
_STEP_BYTES = 256


def program(f: Formula) -> tuple:
    """``f`` compiled: one ``(node class, operand slot, operand slot)`` step
    per distinct node, children before parents, ``f`` last.

    A step's slots index earlier steps; ``Not`` and ``Square`` repeat their
    one slot, a ``Var`` step carries the variable index instead and the
    constants carry nothing.  The programs of the last eight formulas
    compiled are kept, within 4 MiB, so evaluating one formula many times
    walks it once, also when others are compiled in between.  Raises
    ``TypeError`` on a node that is not a formula.
    """
    held = _PROGRAMS.get(id(f))
    if held is not None:
        return held[1]
    slots: dict[int, int] = {}
    steps = []
    for node in subformulas(f):
        kind = type(node)
        if kind in _BINARY:
            step = (kind, slots[id(node.left)], slots[id(node.right)])
        elif kind is Not or kind is Square:
            step = (kind, slots[id(node.child)], slots[id(node.child)])
        elif kind is Var:
            step = (Var, node.index, None)
        elif kind is Bot or kind is Top:
            step = (kind, None, None)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        slots[id(node)] = len(steps)
        steps.append(step)
    code = tuple(steps)
    _PROGRAMS.add(id(f), (f, code), _STEP_BYTES * len(code))
    return code


def evaluate(f: Formula, algebra, env: Mapping[int, object]):
    """The value of ``f`` in ``algebra`` (bottom, top, neg, meet, join, tnorm,
    residuum) with ``x{i}`` bound to ``env[i]``: one loop over
    :func:`program`, one value per distinct node."""
    values: list = []
    push = values.append
    for kind, a, b in program(f):
        if kind is Var:
            try:
                push(env[a])
            except KeyError:
                raise EvaluationError(f"no binding for variable x{a}") from None
        elif kind is And:
            push(algebra.meet(values[a], values[b]))
        elif kind is Or:
            push(algebra.join(values[a], values[b]))
        elif kind is Strong or kind is Square:
            push(algebra.tnorm(values[a], values[b]))
        elif kind is Implies:
            push(algebra.residuum(values[a], values[b]))
        elif kind is Not:
            push(algebra.neg(values[a]))
        elif kind is Iff:
            left, right = values[a], values[b]
            push(algebra.tnorm(algebra.residuum(left, right), algebra.residuum(right, left)))
        elif kind is Bot:
            push(algebra.bottom)
        else:
            push(algebra.top)
    return values[-1]


# Evaluating in this algebra builds the defining term of each connective.
_CORE = SimpleNamespace(
    bottom=BOT, top=Implies(BOT, BOT), meet=And, tnorm=Strong, residuum=Implies,
    neg=lambda a: Implies(a, BOT),
    join=lambda a, b: And(Implies(Implies(a, b), b), Implies(Implies(b, a), a)),
)


def desugar(f: Formula) -> Formula:
    """Rewrite ``f`` into the core fragment {Var, Bot, And, Strong, Implies}.

    The rewrites are the standard definitions: ``~a = a -> 0``,
    ``1 = 0 -> 0``, ``a | b = ((a -> b) -> b) & ((b -> a) -> a)``,
    ``a <-> b = (a -> b) * (b -> a)`` and ``a^2 = a * a``.  Evaluation is
    preserved under every assignment.
    """
    return evaluate(f, _CORE, {i: Var(i) for i in variables(f)})


_EMIT = object()


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield each distinct node of ``f`` once, children before parents.

    Shared subtrees (formulas can be DAG-shaped) are visited a single time,
    so the traversal is linear in the number of distinct nodes.
    """
    seen: set[int] = set()
    # Nodes still to visit.  An expanded node waits under _EMIT, below its
    # children, and is yielded when the walk pops back down to it.
    stack: list = [f]
    while stack:
        node = stack.pop()
        if node is _EMIT:
            yield stack.pop()
        elif id(node) not in seen:
            seen.add(id(node))
            kind = type(node)
            if kind in _BINARY:
                stack += (node, _EMIT, node.right, node.left)
            elif kind is Not or kind is Square:
                stack += (node, _EMIT, node.child)
            else:
                yield node


def variables(f: Formula) -> set[int]:
    """The exact set of variable indices occurring in ``f``; ``TypeError``
    on a node that is not a formula, as :func:`program` raises."""
    return {index for kind, index, _ in program(f) if kind is Var}


_CONNECTIVES = (And, Or, Strong, Implies, Iff, Not, Square)


def random_formula(rng: Random, n: int, depth: int) -> Formula:
    """Draw a random formula over ``x1..xn`` of exactly the given depth.

    Connectives are chosen uniformly while depth remains; leaves are chosen
    uniformly among the variables and both constants.  Deterministic for a
    seeded ``rng``, which keeps generated test suites reproducible.
    """
    if depth <= 0:
        leaf = rng.randrange(n + 2)
        if leaf == 0:
            return BOT
        if leaf == 1:
            return TOP
        return Var(leaf - 1)
    kind = _CONNECTIVES[rng.randrange(len(_CONNECTIVES))]
    if kind in (Not, Square):
        return kind(random_formula(rng, n, depth - 1))
    return kind(random_formula(rng, n, depth - 1), random_formula(rng, n, depth - 1))
