"""Finite nilpotent-minimum chains and exact formula evaluation.

A chain of size ``k`` has elements ``0 .. k-1`` standing for the rationals
``i/(k-1)``; all arithmetic is done on the integer indices, so every result
is exact and comparisons are cheap.  Negation reflects the index,
``~i = (k-1) - i``, which means a chain has a negation fixpoint exactly
when ``k`` is odd.  The fusion and the implication are

    x (*) y  =  min(x, y)   if x > ~y,  else bottom
    x -> y   =  top          if x <= y,  else max(~x, y)

The same two formulas, read over exact rationals in [0, 1], give the
standard algebra on the unit interval; :func:`eval_standard` evaluates
formulas there using :class:`fractions.Fraction`, never floats.

On index arrays both are branch-free masks, ``min(x, y) * (x > top - y)``
and ``top - min(x, top - y) * (x > y)``, as ``top - max(~x, y) = min(x, ~y)``;
every intermediate lies in ``0 .. top``, so with a Python int ``top`` they
are exact in the operands' own dtype (uint8 in closure and on grids).

On scalars the two formulas have one body, the namespace
``_index_algebra(top)`` over plain int indices, which each :class:`NMChain`
builds and keeps; the chain's connectives check that their operands belong
to the chain and return the chain's own :class:`ChainValue` of the result,
each made once per chain, and :func:`eval_chain` checks and unwraps the
assignment in one pass, evaluates on the bare indices and looks up only the
result.

A further algebra holds index arrays, one entry per grid point, under
``np.minimum``, ``np.maximum``, :func:`tnorm_block`, :func:`residuum_block`
and ``top - a``, which each chain makes on first use and :func:`eval_grid`
evaluates in.  None of the algebras tests for constant operands: all of
them go through :func:`nmlogic.formula.evaluate`, which runs each
formula's compiled :func:`nmlogic.formula.program`, and the compile has
already folded away every step with a constant or repeated operand and
dropped every step the result does not read (on the 2,000 ``grid_eval``
benchmark formulas of seed 61, 13,698 of the 44,740 steps as written are
kept), for the scalar, exact and grid routes at once.  So a grid connective
always gets arrays, and a negation is one ``top - a``.  The scalar algebra
and ``STANDARD`` stay the plain bodies the grid route is checked against.
Each algebra, and each :class:`NMChain`, holds the tuple of connectives
that :func:`nmlogic.formula.evaluate` reads, made once with it by
:func:`nmlogic.formula.with_connectives`.
:func:`grid_coordinates` owns the grid order and the index dtype (uint8 up
to 256 elements), and :func:`grid_points` refuses grids above
``MAX_GRID_POINTS`` before anything is allocated.

What no call changes is kept, not rebuilt per call, in two ``functools.lru_cache``
tables of 16 entries: the chains of :func:`shared_chain`'s most recent sizes (up
to five generators, formulas are evaluated on sizes 2 to 13 only) and the
read-only grids of at most ``_SHARED_GRID_BYTES`` (64 KiB) used most recently,
which hold every generic grid up to four generators.  A larger grid is made
afresh per call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterator, Mapping

import numpy as np

from .formula import EvaluationError, Formula, evaluate, with_connectives

# Reaches nm and nm- to five generators, {0, 1/2, 1} to twelve variables, {0, 1} to twenty.
MAX_GRID_POINTS = 1 << 20

_CHUNK = 4096

# The largest grid that grid_coordinates shares; the generic grids of up to
# four generators (58,564 and 40,000 bytes) fit.
_SHARED_GRID_BYTES = 1 << 16


@dataclass(frozen=True)
class ChainValue:
    """An element of the chain of size ``size``: the rational index/(size-1)."""

    index: int
    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"chain size must be >= 2, got {self.size}")
        if not 0 <= self.index <= self.size - 1:
            raise ValueError(f"index {self.index} outside chain of size {self.size}")

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.index, self.size - 1)

    def __repr__(self) -> str:
        return f"ChainValue({self.index}/{self.size - 1})"


class NMChain:
    """The nilpotent-minimum chain with ``size`` elements (``size >= 2``)."""

    def __init__(self, size: int):
        self.size = size
        self._values: dict[int, ChainValue] = {}
        self.bottom = self.value(0)  # raises ValueError for size < 2
        self.top = self.value(size - 1)
        self._ops = _index_algebra(size - 1)
        with_connectives(self)  # evaluate also runs in the chain itself

    @functools.cached_property
    def _grid_ops(self) -> SimpleNamespace:
        """The chain acting entrywise on index arrays in the grid's dtype, made
        on first use; its ``bottom`` and ``top`` are two scalars of that dtype.

        A compiled program has no step with a constant operand, so every
        connective here gets arrays and runs its kernel.
        """
        top = self.size - 1
        bottom, top_value = np.array((0, top), dtype=np.min_scalar_type(top))
        return with_connectives(SimpleNamespace(
            bottom=bottom, top=top_value, neg=functools.partial(np.subtract, top_value),
            meet=np.minimum, join=np.maximum, tnorm=functools.partial(tnorm_block, top),
            residuum=functools.partial(residuum_block, top),
        ))

    def __repr__(self) -> str:
        return f"NMChain({self.size})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NMChain) and other.size == self.size

    def __hash__(self) -> int:
        return hash(("NMChain", self.size))

    @property
    def fixpoint(self) -> ChainValue | None:
        """The unique self-negating element, present iff the size is odd."""
        if self.size % 2 == 1:
            return self.value((self.size - 1) // 2)
        return None

    def value(self, index: int) -> ChainValue:
        """The chain's own element of this index, made on first use;
        ``ValueError`` outside ``0..size-1``."""
        value = self._values.get(index)
        if value is None:
            value = self._values[index] = ChainValue(index, self.size)
        return value

    def values(self) -> list[ChainValue]:
        return [self.value(i) for i in range(self.size)]

    def _own(self, *xs: ChainValue) -> None:
        for x in xs:
            if x.size != self.size:
                raise ValueError(
                    f"value from chain of size {x.size} used in chain of size {self.size}"
                )

    def _lift(self, op, *xs: ChainValue) -> ChainValue:
        self._own(*xs)
        return self.value(op(*(x.index for x in xs)))

    def neg(self, x: ChainValue) -> ChainValue:
        return self._lift(self._ops.neg, x)

    def meet(self, x: ChainValue, y: ChainValue) -> ChainValue:
        return self._lift(self._ops.meet, x, y)

    def join(self, x: ChainValue, y: ChainValue) -> ChainValue:
        return self._lift(self._ops.join, x, y)

    def tnorm(self, x: ChainValue, y: ChainValue) -> ChainValue:
        """Fusion: min of the arguments when x exceeds ~y, else bottom."""
        return self._lift(self._ops.tnorm, x, y)

    def residuum(self, x: ChainValue, y: ChainValue) -> ChainValue:
        """Implication: top when x <= y, else max(~x, y)."""
        return self._lift(self._ops.residuum, x, y)


@functools.lru_cache(maxsize=16)
def shared_chain(size: int) -> NMChain:
    """An :class:`NMChain` of this size, shared with other callers asking for it
    recently; ``ValueError`` for a size below 2."""
    return NMChain(size)


def _index_algebra(top: int) -> SimpleNamespace:
    """The chain with top index ``top`` on plain int indices."""
    return with_connectives(SimpleNamespace(
        bottom=0, top=top, neg=lambda x: top - x, meet=min, join=max,
        tnorm=lambda x, y: min(x, y) if x + y > top else 0,
        residuum=lambda x, y: top if x <= y else max(top - x, y),
    ))


def grid_points(size: int, n: int) -> int:
    """The number of points of the ``n``-variable grid over a ``size``-chain.

    Raises ``ValueError`` for a negative ``n`` or a grid above
    ``MAX_GRID_POINTS``; nothing is allocated.
    """
    if n < 0:
        raise ValueError(f"variable count must be >= 0, got {n}")
    # Chains have size >= 2, so n at or above the bound's bit length is over
    # it; capping the exponent keeps a huge n from costing a huge power.
    if size ** min(n, MAX_GRID_POINTS.bit_length()) > MAX_GRID_POINTS:
        raise ValueError(
            f"the {n}-variable grid over a {size}-chain exceeds {MAX_GRID_POINTS} points"
        )
    return size**n


def grid_coordinates(size: int, n: int) -> np.ndarray:
    """Row ``i - 1`` holds ``x{i}`` at every point of the ``size``-chain grid.

    This is the one place the grid order is fixed: position ``j`` of a truth
    vector, of an exported vector and of a model enumeration is column
    ``j``, in lexicographic order with ``x1`` the most significant.  The
    array is read-only, and one of at most ``_SHARED_GRID_BYTES`` is shared
    with other callers.
    """
    points = grid_points(size, n)
    if points * n * np.min_scalar_type(size - 1).itemsize <= _SHARED_GRID_BYTES:
        return _grid(size, n)
    return _grid.__wrapped__(size, n)


@functools.lru_cache(maxsize=16)
def _grid(size: int, n: int) -> np.ndarray:
    grid = np.indices((size,) * n, dtype=np.min_scalar_type(size - 1)).reshape(n, size**n)
    grid.flags.writeable = False
    return grid


def sign_blocks(size: int, n: int) -> list[np.ndarray]:
    """The grid's columns split by sign pattern, each block in grid order.

    A point's sign pattern records, for each ``x{i}``, whether it lies below,
    at or above its negation ``~x{i}``.  Blocks follow their patterns in
    lexicographic order, ``x1`` most significant and below before at before
    above; "at" occurs only on odd chains.
    """
    signs = np.sign(2 * grid_coordinates(size, n).astype(np.int64) - (size - 1))
    block = np.unique(signs, axis=1, return_inverse=True)[1]
    return [np.flatnonzero(block == b) for b in range(block.max() + 1)]


def grid_assignments(chain: NMChain, n: int) -> Iterator[dict[int, ChainValue]]:
    """Every assignment of ``chain`` values to ``x1..xn``, in grid order,
    listed from the grid ``_CHUNK`` points at a time."""
    values = chain.values()
    grid = grid_coordinates(chain.size, n)
    points = (p for lo in range(0, grid.shape[1], _CHUNK) for p in grid[:, lo:lo + _CHUNK].T.tolist())
    return (dict(enumerate(map(values.__getitem__, p), 1)) for p in points)


def tnorm_block(top: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise fusion ``min(a, b) * (a > top - b)`` over the chain with top
    index ``top``, a Python int; ``top - b`` cannot wrap, as ``b <= top``."""
    return np.minimum(a, b) * (a > top - b)


def residuum_block(top: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise implication ``top - min(a, top - b) * (a > b)``, broadcasting
    as numpy does; the subtrahend lies in ``0 .. top``, so nothing wraps."""
    return top - np.minimum(a, top - b) * (a > b)


# The algebra on [0, 1] over exact rationals.  Its constants are made once:
# a connective returns them rather than building a new Fraction.
_ZERO, _ONE = Fraction(0), Fraction(1)
STANDARD = with_connectives(SimpleNamespace(
    bottom=_ZERO, top=_ONE, neg=lambda x: 1 - x, meet=min, join=max,
    tnorm=lambda x, y: min(x, y) if x + y > 1 else _ZERO,
    residuum=lambda x, y: _ONE if x <= y else max(1 - x, y),
))


def eval_grid(f: Formula, chain: NMChain, n: int) -> np.ndarray:
    """The index of ``f`` on ``chain`` at every grid point, ``_CHUNK`` points
    at a time, so memory stays at distinct nodes times chunk bytes.

    The result is always a fresh writable array: a chunk's value may be a
    constant scalar or a read-only grid row, where the formula folds to a
    constant or a variable, which the slice assignment broadcasts or copies.
    """
    points = grid_coordinates(chain.size, n)
    algebra = chain._grid_ops
    values = np.empty(points.shape[1], dtype=points.dtype)
    for lo in range(0, len(values), _CHUNK):
        env = dict(enumerate(points[:, lo:lo + _CHUNK], 1))
        values[lo:lo + _CHUNK] = evaluate(f, algebra, env)
    return values


def eval_chain(
    f: Formula, chain: NMChain, assignment: Mapping[int, ChainValue]
) -> ChainValue:
    """Evaluate ``f`` on ``chain`` under the given variable assignment.

    Sugar connectives are interpreted directly (disjunction as join,
    negation as index reflection, and so on), which agrees with evaluating
    the desugared formula; only the steps left after folding run.  The
    assignment is checked and unwrapped in one pass; evaluation runs on its
    bare indices and only the result becomes a :class:`ChainValue`.
    """
    size = chain.size
    env = {var: value.index for var, value in assignment.items() if value.size == size}
    if len(env) != len(assignment):
        chain._own(*assignment.values())
    return chain.value(evaluate(f, chain._ops, env))


def eval_standard(f: Formula, assignment: Mapping[int, Fraction]) -> Fraction:
    """Evaluate ``f`` over the unit interval with exact rational arithmetic."""
    env: dict[int, Fraction] = {}
    for var, value in assignment.items():
        if type(value) is not Fraction:
            value = Fraction(value)
        if not 0 <= value.numerator <= value.denominator:
            raise EvaluationError(f"x{var} = {value} lies outside [0, 1]")
        env[var] = value
    result = evaluate(f, STANDARD, env)
    assert isinstance(result, Fraction)
    return result
