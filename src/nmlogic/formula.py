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
flat tuple of steps, each made once, and is the one owner of the laws of
the constants and of repeated operands (``x & 1 = x``, ``x -> 0 = ~x``,
``x & x = x``, ...): every step they settle is folded away there, once for
every algebra, so no step is left with a constant operand, and a step that
a later fold left unread, such as the fusion of ``(x1 * x2) & 0``, is
dropped, so every step that remains is read.  A formula's program is stored
on the formula itself, written once into its instance ``__dict__`` as
:func:`functools.cached_property` does: formulas are immutable, so it cannot
go stale, and it lives as long as its formula.  :func:`evaluate`, the one
interpreter, binds the variables and runs the kept steps in any algebra, one
connective call each.  So evaluating one formula at many points walks its
tree once, whatever is compiled in between.  :func:`desugar`, the rewrite
into the core fragment {Var, Bot, And, Strong, Implies}, is evaluation in
the algebra of core formulas, so it writes out the folded program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random
from types import SimpleNamespace
from typing import Iterator, Mapping, NamedTuple, Union


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


# A step's opcode is the position of its connective in an algebra's
# ``connectives``, the tuple that evaluate reads (see with_connectives).
_MEET, _JOIN, _TNORM, _RESIDUUM, _NEG = range(5)
_OPCODES = {And: _MEET, Or: _JOIN, Strong: _TNORM, Implies: _RESIDUUM}
# Slot 0 holds bottom and slot 1 top: the unit and the absorbing slot of
# each lattice or monoid connective.
_UNITS = {_MEET: (1, 0), _JOIN: (0, 1), _TNORM: (1, 0)}


class Program(NamedTuple):
    """A formula compiled by :func:`program`.

    Slots 0 and 1 hold bottom and top, the next ones the ``variables`` in
    order, and each of the ``steps``, an ``(opcode, slot, slot)``, fills the
    slot after them; the formula's value is in slot ``result``.
    """

    variables: tuple[int, ...]
    steps: tuple[tuple[int, int, int], ...]
    result: int
    nodes: int  # distinct nodes of the formula as written


def _fold(steps: dict, op: int, a: int, b: int) -> int:
    """The slot of ``op`` on slots ``a`` and ``b``: an operand or a constant
    where the laws of the constants or of a repeated operand give one, else
    the step's own, made once in ``steps``, where step ``k`` has slot
    ``-1 - k`` until :func:`program` fixes it.

    The laws: ``x & 1 = x * 1 = x | 0 = x``, ``x & 0 = x * 0 = 0``,
    ``x | 1 = 1``, ``x & x = x | x = x``, ``0 -> x = x -> 1 = x -> x = 1``,
    ``1 -> x = x``, ``x -> 0 = ~x``, ``~0 = 1`` and ``~1 = 0``.  A negation
    repeats its one slot.
    """
    if op == _RESIDUUM:
        if a == 0 or b == 1 or a == b:
            return 1
        if a == 1:
            return b
        if b == 0:
            op, b = _NEG, a
    elif op == _NEG:
        if a == 0 or a == 1:
            return 1 - a
    else:
        unit, zero = _UNITS[op]
        if a == unit:
            return b
        if b == unit or (a == b and op != _TNORM):
            return a
        if a == zero or b == zero:
            return zero
    return steps.setdefault((op, a, b), -1 - len(steps))


def program(f: Formula) -> Program:
    """``f`` compiled in one walk, with every step that has a constant or a
    repeated operand folded away (see :func:`_fold`), and then every step
    that the result does not read dropped, in one pass back from it.

    Each variable takes one slot however often it occurs, and each step is
    made once, children before parents, also where equal subtrees are
    distinct objects, so ``x1 * x2 & x1 * x2`` folds too.  ``Square`` is a
    fusion of its child with itself and ``a <-> b`` is
    ``(a -> b) * (b -> a)``, each part folded.  The kept steps fill the
    slots after the variables', in order.  ``variables`` lists every
    variable of ``f``, also one read only by steps that fold away or are
    dropped, and ``nodes`` counts the nodes as written.  The program is
    stored on ``f``, so evaluating a formula many times walks it once.
    Raises ``TypeError`` on a node that is not a formula.
    """
    try:
        return f.__dict__["_program"]
    except (AttributeError, KeyError):  # not compiled yet, or not a formula
        pass
    slots: dict[int, int] = {}
    bound: dict[int, int] = {}  # variable index -> slot
    steps: dict[tuple, int] = {}  # step -> its slot, made at most once
    for node in subformulas(f):
        kind = type(node)
        if kind in _OPCODES:
            slot = _fold(steps, _OPCODES[kind], slots[id(node.left)], slots[id(node.right)])
        elif kind is Var:
            slot = bound.setdefault(node.index, len(bound) + 2)
        elif kind is Not:
            a = slots[id(node.child)]
            slot = _fold(steps, _NEG, a, a)
        elif kind is Square:
            a = slots[id(node.child)]
            slot = _fold(steps, _TNORM, a, a)
        elif kind is Iff:
            a, b = slots[id(node.left)], slots[id(node.right)]
            ab, ba = _fold(steps, _RESIDUUM, a, b), _fold(steps, _RESIDUUM, b, a)
            slot = _fold(steps, _TNORM, ab, ba)
        elif kind is Bot:
            slot = 0
        elif kind is Top:
            slot = 1
        else:
            raise TypeError(f"not a formula node: {node!r}")
        slots[id(node)] = slot
    # Walk back from the result to the steps it reads; a step only reads
    # earlier ones, so one reverse pass finds them all.
    read = {slot}
    for (_, a, b), own in reversed(steps.items()):
        if own in read:
            read.update((a, b))
    # The kept steps fill the slots after the variables', in order.
    kept: list[tuple[int, int, int]] = []
    moved: dict[int, int] = {}  # a kept step's slot -1 - k -> its final slot
    for (op, a, b), own in steps.items():
        if own in read:
            moved[own] = len(bound) + 2 + len(kept)
            kept.append((op, moved.get(a, a), moved.get(b, b)))
    code = Program(tuple(bound), tuple(kept), moved.get(slot, slot), len(slots))
    # Frozen dataclasses refuse setattr; equality, hash and repr read fields only.
    f.__dict__["_program"] = code
    return code


def with_connectives(algebra):
    """``algebra`` (bottom, top, neg, meet, join, tnorm, residuum) given
    ``connectives``, the tuple :func:`evaluate` reads: its meet, join,
    tnorm, residuum and negation in opcode order, made once where the
    algebra is made.  The negation ignores a second operand, as a negation
    step repeats its one slot.
    """
    neg = algebra.neg
    algebra.connectives = (
        algebra.meet, algebra.join, algebra.tnorm, algebra.residuum, lambda a, _: neg(a))
    return algebra


def evaluate(f: Formula, algebra, env: Mapping[int, object]):
    """The value of ``f`` in ``algebra``, one made by :func:`with_connectives`,
    with ``x{i}`` bound to ``env[i]``: every variable of ``f`` is bound, then
    each step of :func:`program` runs, one connective call each.

    An unbound variable raises :class:`EvaluationError`, also where the
    steps that read it fold away or are dropped.
    """
    code = program(f)
    values = [algebra.bottom, algebra.top]
    push = values.append
    try:
        for index in code.variables:
            push(env[index])
    except KeyError:
        raise EvaluationError(f"no binding for variable x{index}") from None
    ops = algebra.connectives
    for op, a, b in code.steps:
        push(ops[op](values[a], values[b]))
    return values[code.result]


# Evaluating in this algebra builds the defining term of each connective.
_CORE = with_connectives(SimpleNamespace(
    bottom=BOT, top=Implies(BOT, BOT), meet=And, tnorm=Strong, residuum=Implies,
    neg=lambda a: Implies(a, BOT),
    join=lambda a, b: And(Implies(Implies(a, b), b), Implies(Implies(b, a), a)),
))


def desugar(f: Formula) -> Formula:
    """Rewrite ``f`` into the core fragment {Var, Bot, And, Strong, Implies}.

    The result is the folded program of :func:`program` written out as a
    formula: the steps with a constant or repeated operand are gone, so
    ``x1 & 0`` becomes ``0``, and the rest use the standard definitions:
    ``~a = a -> 0``, ``1 = 0 -> 0``,
    ``a | b = ((a -> b) -> b) & ((b -> a) -> a)``,
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
    return set(program(f).variables)


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
