"""Brute-force assignment semantics: enumerate and count satisfying assignments.

Assignments draw values from one of two carriers: the three-element chain
{0, 1/2, 1} or the two-element chain {0, 1}.  Evaluation stays scalar on
purpose, one :func:`nmlogic.chain.eval_chain` per grid point, so this route
is independent of the array evaluation, free-algebra and valuation
machinery it is used to cross-check.
"""

from __future__ import annotations

from enum import Enum

from .chain import ChainValue, NMChain, eval_chain, grid_assignments
from .formula import Formula


class AssignmentSpace(Enum):
    """Value carrier for assignments: THREE = {0, 1/2, 1}, TWO = {0, 1}."""

    THREE = 3
    TWO = 2

    @property
    def chain(self) -> NMChain:
        return NMChain(self.value)


def enumerate_models(
    f: Formula, n: int, space: AssignmentSpace
) -> list[dict[int, ChainValue]]:
    """Satisfying assignments over ``x1..xn``, in lexicographic order."""
    chain = space.chain
    return [env for env in grid_assignments(chain, n) if eval_chain(f, chain, env) == chain.top]


def count_models(f: Formula, n: int, space: AssignmentSpace) -> int:
    """Number of assignments over ``x1..xn`` that evaluate ``f`` to 1."""
    chain = space.chain
    return sum(eval_chain(f, chain, env) == chain.top for env in grid_assignments(chain, n))
