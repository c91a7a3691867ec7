"""Brute-force assignment semantics: enumerate and count satisfying assignments.

Assignments draw values from one of two carriers: the three-element chain
{0, 1/2, 1} or the two-element chain {0, 1}.  Evaluation stays scalar on
purpose, one :func:`nmlogic.chain.eval_chain` per grid point, so this route
is independent of the array evaluation, free-algebra and valuation
machinery it is used to cross-check.  The formula is compiled once by
:func:`nmlogic.formula.program`, and each point runs that program.  A
carrier is the :func:`nmlogic.chain.shared_chain` of its size, so its
values, and its grid up to 64 KiB, are made once, not per request.  Each
point binds the variables and runs the program's compiled steps, one
connective call each, so the cost is grid points times (steps + 1), and a
request above ``MAX_SCALAR_WORK`` is refused before the grid is built.
Enumerating and counting share that one pass; a count keeps no list of models.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

from .chain import ChainValue, NMChain, eval_chain, grid_assignments, grid_points, shared_chain
from .formula import Formula, program

# Grid points times (compiled steps + 1) allowed on the scalar route.  The
# worst accepted request, a formula of no steps over 2**16 points of {0, 1},
# takes well under a second.
MAX_SCALAR_WORK = 1 << 16


class AssignmentSpace(Enum):
    """Value carrier for assignments: THREE = {0, 1/2, 1}, TWO = {0, 1}."""

    THREE = 3
    TWO = 2

    @property
    def chain(self) -> NMChain:
        return shared_chain(self.value)


def _models(f: Formula, n: int, space: AssignmentSpace) -> Iterator[dict[int, ChainValue]]:
    """Satisfying assignments over ``x1..xn``, in lexicographic order, one at a
    time; ``ValueError`` above the scalar budget, before the grid is made."""
    chain = space.chain
    points, steps = grid_points(chain.size, n), len(program(f).steps)
    if points * (steps + 1) > MAX_SCALAR_WORK:
        raise ValueError(
            f"{points} points times {steps} compiled steps, plus one per point, "
            f"exceeds the scalar budget of {MAX_SCALAR_WORK}"
        )
    return (env for env in grid_assignments(chain, n) if eval_chain(f, chain, env) is chain.top)


def enumerate_models(
    f: Formula, n: int, space: AssignmentSpace
) -> list[dict[int, ChainValue]]:
    """Satisfying assignments over ``x1..xn``, in lexicographic order."""
    return list(_models(f, n, space))


def count_models(f: Formula, n: int, space: AssignmentSpace) -> int:
    """Number of assignments over ``x1..xn`` that evaluate ``f`` to 1."""
    return sum(1 for _ in _models(f, n, space))
