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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .formula import (
    And, Bot, Formula, Iff, Implies, Not, Or, Square, Strong, Top, Var,
)


class EvaluationError(ValueError):
    """An assignment is missing a binding or holds an out-of-range value."""


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
        if size < 2:
            raise ValueError(f"chain size must be >= 2, got {size}")
        self.size = size
        self.bottom = ChainValue(0, size)
        self.top = ChainValue(size - 1, size)

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
            return ChainValue((self.size - 1) // 2, self.size)
        return None

    def value(self, index: int) -> ChainValue:
        return ChainValue(index, self.size)

    def values(self) -> list[ChainValue]:
        return [ChainValue(i, self.size) for i in range(self.size)]

    def _own(self, *xs: ChainValue) -> None:
        for x in xs:
            if x.size != self.size:
                raise ValueError(
                    f"value from chain of size {x.size} used in chain of size {self.size}"
                )

    def neg(self, x: ChainValue) -> ChainValue:
        self._own(x)
        return ChainValue(self.size - 1 - x.index, self.size)

    def meet(self, x: ChainValue, y: ChainValue) -> ChainValue:
        self._own(x, y)
        return x if x.index <= y.index else y

    def join(self, x: ChainValue, y: ChainValue) -> ChainValue:
        self._own(x, y)
        return x if x.index >= y.index else y

    def tnorm(self, x: ChainValue, y: ChainValue) -> ChainValue:
        """Fusion: min of the arguments when x exceeds ~y, else bottom."""
        self._own(x, y)
        if x.index + y.index > self.size - 1:
            return self.meet(x, y)
        return self.bottom

    def residuum(self, x: ChainValue, y: ChainValue) -> ChainValue:
        """Implication: top when x <= y, else max(~x, y)."""
        self._own(x, y)
        if x.index <= y.index:
            return self.top
        return ChainValue(max(self.size - 1 - x.index, y.index), self.size)


def grid_assignments(chain: NMChain, n: int) -> Iterator[dict[int, ChainValue]]:
    """Every assignment of ``chain`` values to ``x1..xn``, in lexicographic order.

    This is the one place the grid order is fixed: position ``i`` of a truth
    vector, of an exported vector and of a model enumeration is the ``i``-th
    assignment yielded here, with ``x1`` the most significant coordinate.
    """
    if n < 0:
        raise ValueError(f"variable count must be >= 0, got {n}")
    return (dict(enumerate(point, 1)) for point in itertools.product(chain.values(), repeat=n))


def tnorm_block(top: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise fusion of index arrays over the chain with top index ``top``."""
    return np.where(a.astype(np.int16) + b > top, np.minimum(a, b), 0).astype(a.dtype)


def residuum_block(top: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise implication of index arrays, broadcasting as numpy does."""
    return np.where(a <= b, top, np.maximum(top - a, b)).astype(a.dtype)


class _StandardAlgebra:
    """The algebra on [0, 1] over exact rationals; mirrors NMChain's surface."""

    bottom = Fraction(0)
    top = Fraction(1)

    @staticmethod
    def neg(x: Fraction) -> Fraction:
        return 1 - x

    @staticmethod
    def meet(x: Fraction, y: Fraction) -> Fraction:
        return min(x, y)

    @staticmethod
    def join(x: Fraction, y: Fraction) -> Fraction:
        return max(x, y)

    @staticmethod
    def tnorm(x: Fraction, y: Fraction) -> Fraction:
        return min(x, y) if x + y > 1 else Fraction(0)

    @staticmethod
    def residuum(x: Fraction, y: Fraction) -> Fraction:
        return Fraction(1) if x <= y else max(1 - x, y)


STANDARD = _StandardAlgebra()


def _evaluate(f: Formula, algebra, env: Mapping[int, object]):
    """Evaluate compositionally; memoised per node so shared subtrees cost once."""
    memo: dict[int, object] = {}

    def go(node: Formula):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Var):
            try:
                value = env[node.index]
            except KeyError:
                raise EvaluationError(f"no binding for variable x{node.index}") from None
        elif isinstance(node, Bot):
            value = algebra.bottom
        elif isinstance(node, Top):
            value = algebra.top
        elif isinstance(node, And):
            value = algebra.meet(go(node.left), go(node.right))
        elif isinstance(node, Or):
            value = algebra.join(go(node.left), go(node.right))
        elif isinstance(node, Strong):
            value = algebra.tnorm(go(node.left), go(node.right))
        elif isinstance(node, Implies):
            value = algebra.residuum(go(node.left), go(node.right))
        elif isinstance(node, Iff):
            left, right = go(node.left), go(node.right)
            value = algebra.tnorm(
                algebra.residuum(left, right), algebra.residuum(right, left)
            )
        elif isinstance(node, Not):
            value = algebra.neg(go(node.child))
        elif isinstance(node, Square):
            child = go(node.child)
            value = algebra.tnorm(child, child)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        memo[key] = value
        return value

    return go(f)


def eval_chain(
    f: Formula, chain: NMChain, assignment: Mapping[int, ChainValue]
) -> ChainValue:
    """Evaluate ``f`` on ``chain`` under the given variable assignment.

    Sugar connectives are interpreted directly (disjunction as join,
    negation as index reflection, and so on), which agrees with evaluating
    the desugared formula.
    """
    for value in assignment.values():
        chain._own(value)
    result = _evaluate(f, chain, assignment)
    assert isinstance(result, ChainValue)
    return result


def eval_standard(f: Formula, assignment: Mapping[int, Fraction]) -> Fraction:
    """Evaluate ``f`` over the unit interval with exact rational arithmetic."""
    env: dict[int, Fraction] = {}
    for var, value in assignment.items():
        value = Fraction(value)
        if not 0 <= value <= 1:
            raise EvaluationError(f"x{var} = {value} lies outside [0, 1]")
        env[var] = value
    result = _evaluate(f, STANDARD, env)
    assert isinstance(result, Fraction)
    return result
