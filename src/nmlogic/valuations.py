"""Valuations on finite distributive lattices.

A valuation is a map ``v`` with ``v(x) + v(y) = v(x|y) + v(x&y)`` for all
pairs.  On a finite distributive lattice it is determined by its value at
bottom together with its values on the join-irreducible elements, and it
can be realised additively: give each join-irreducible ``g`` a weight
``w(g)`` so that

    v(x) = base + sum of w(g) over join-irreducibles g <= x.

Since a join-irreducible lies below ``x | y`` iff it lies below ``x`` or
below ``y``, this sum is automatically a valuation, and solving for the
weights along any linear extension of the join-irreducible order
reproduces the prescribed values.  :func:`evaluate` takes every element's
sum at once, as one integer product of the scaled weights with ``leq_matrix``.

Two concrete valuations matter here: the classical one assigning 1 to
every join-irreducible, and the variant assigning 1 only to the idempotent
join-irreducibles.  The latter, on a free algebra, counts the satisfying
assignments of a formula; see :mod:`nmlogic.models` for the independent
counting route.

Any object with a boolean ``leq_matrix`` (``[x, y]`` iff x <= y) and
``join_irreducible_ids`` can be valued; the idempotent variant also reads
``idempotent_ids``.  Every order question is a row or submatrix of
``leq_matrix``.  :class:`nmlogic.free_algebra.FreeAlgebra` provides all of
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class ValuationSpec:
    """Prescribed value at bottom plus one value per join-irreducible id."""

    base: Fraction
    ji_values: Mapping[int, Fraction]

    @classmethod
    def of(cls, base, ji_values: Mapping[int, object]) -> "ValuationSpec":
        return cls(Fraction(base), {g: Fraction(v) for g, v in ji_values.items()})


def _scaled(values: list[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the denominators of ``values``, and each value times it."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def weights(lattice, spec: ValuationSpec) -> dict[int, Fraction]:
    """Solve for the additive weights realising ``spec``, one per join-irreducible id.

    Join-irreducibles are processed in a linear extension of their order;
    each weight is what remains of the prescribed value after the base and
    all strictly smaller weights are accounted for.  The subtraction runs on
    integers, every value times the lcm of their denominators, and each
    weight is divided by it at the end.
    """
    jis = list(lattice.join_irreducible_ids)
    if set(spec.ji_values) != set(jis):
        raise ValueError(f"spec missing or stray at ids {sorted(set(jis) ^ set(spec.ji_values))}")
    below = lattice.leq_matrix[np.ix_(jis, jis)]
    np.fill_diagonal(below, False)
    lower = {g: list(compress(jis, column)) for g, column in zip(jis, below.T.tolist())}
    scale, (base, *scaled) = _scaled([spec.base, *(spec.ji_values[g] for g in jis)])
    prescribed = dict(zip(jis, scaled))
    table: dict[int, int] = {}
    for g in sorted(jis, key=lambda g: len(lower[g])):
        table[g] = prescribed[g] - sum((table[p] for p in lower[g]), base)
    return {g: Fraction(w, scale) for g, w in table.items()}


def evaluate(lattice, spec: ValuationSpec, table: Mapping | None = None) -> tuple:
    """Every element's value under ``spec``, in id order.

    Pass ``weights(lattice, spec)`` as ``table`` when it is already at hand.
    The values are ``int`` when the base and the weights are integral and
    exact ``Fraction`` otherwise.
    """
    if table is None:
        table = weights(lattice, spec)
    scale, (base, *row) = _scaled([spec.base, *table.values()])
    # Python ints once a sum could pass int64; the values stay exact either way.
    wide = abs(base) + sum(map(abs, row)) >= 2**63
    sums = np.array(row, dtype=object if wide else np.int64) @ lattice.leq_matrix[list(table)]
    return tuple(s if scale == 1 else Fraction(s, scale) for s in (sums + base).tolist())


def euler_spec(lattice) -> ValuationSpec:
    """Value 1 on every join-irreducible, 0 at bottom."""
    return ValuationSpec.of(0, {g: 1 for g in lattice.join_irreducible_ids})


def idempotent_euler_spec(lattice) -> ValuationSpec:
    """Value 1 on idempotent join-irreducibles only, 0 elsewhere and at bottom."""
    idempotent = set(lattice.idempotent_ids)
    return ValuationSpec.of(0, {g: int(g in idempotent) for g in lattice.join_irreducible_ids})


def euler_char(lattice, x: int, table: Mapping | None = None) -> int:
    """The classical characteristic of ``x``; always an integer."""
    value = evaluate(lattice, euler_spec(lattice), table)[x]
    assert isinstance(value, int)
    return value


def idempotent_euler_char(lattice, x: int) -> int:
    """The idempotent variant of the characteristic; always an integer."""
    value = evaluate(lattice, idempotent_euler_spec(lattice))[x]
    assert isinstance(value, int)
    return value


def chi_plus_by_counting(algebra, x: int) -> int:
    """Count the minimal idempotent join-irreducibles below ``x``.

    Independent route to the idempotent characteristic: no weights are
    solved, the minimal idempotent join-irreducibles are simply counted.
    The two routes agree on every element of a free algebra.
    """
    return int(algebra.leq_matrix[list(algebra.minimal_idempotent_ji_ids), x].sum())
