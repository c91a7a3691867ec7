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
reproduces the prescribed values.

Two concrete valuations matter here: the classical one assigning 1 to
every join-irreducible, and the variant assigning 1 only to the idempotent
join-irreducibles.  The latter, on a free algebra, counts the satisfying
assignments of a formula; see :mod:`nmlogic.models` for the independent
counting route.

Any object with a boolean ``leq_matrix`` (``[x, y]`` iff x <= y) and
``join_irreducible_ids`` can be valued; the idempotent variant also needs
``is_idempotent``.  Every order question is a row or submatrix of
``leq_matrix``.  :class:`nmlogic.free_algebra.FreeAlgebra` provides all of
them.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class WeightTable:
    """Solved weights, one per join-irreducible id."""

    base: Fraction
    by_id: Mapping[int, Fraction]

    def __getitem__(self, g: int) -> Fraction:
        return self.by_id[g]


def weights(lattice, spec: ValuationSpec) -> WeightTable:
    """Solve for the additive weights realising ``spec``.

    Join-irreducibles are processed in a linear extension of their order;
    each weight is what remains of the prescribed value after the base and
    all strictly smaller weights are accounted for.
    """
    jis = list(lattice.join_irreducible_ids)
    missing = [g for g in jis if g not in spec.ji_values]
    if missing:
        raise ValueError(f"spec is missing join-irreducibles {missing}")
    stray = [g for g in spec.ji_values if g not in jis]
    if stray:
        raise ValueError(f"spec values {stray} are not join-irreducibles")
    below = lattice.leq_matrix[np.ix_(jis, jis)]
    np.fill_diagonal(below, False)
    lower = {g: list(compress(jis, column)) for g, column in zip(jis, below.T.tolist())}
    table: dict[int, Fraction] = {}
    for g in sorted(jis, key=lambda g: len(lower[g])):
        table[g] = spec.ji_values[g] - sum((table[p] for p in lower[g]), spec.base)
    return WeightTable(spec.base, table)


def evaluate(lattice, spec: ValuationSpec | None, x: int,
             table: WeightTable | None = None) -> Fraction:
    """Value of element ``x`` under the valuation prescribed by ``spec``.

    Pass a precomputed ``table`` when valuing many elements; ``spec`` is then unread.
    """
    if table is None:
        table = weights(lattice, spec)
    jis = lattice.join_irreducible_ids
    hits = compress(jis, lattice.leq_matrix[list(jis), x].tolist())
    return sum((table.by_id[g] for g in hits), table.base)


def euler_spec(lattice) -> ValuationSpec:
    """Value 1 on every join-irreducible, 0 at bottom."""
    return ValuationSpec.of(0, {g: 1 for g in lattice.join_irreducible_ids})


def idempotent_euler_spec(lattice) -> ValuationSpec:
    """Value 1 on idempotent join-irreducibles only, 0 elsewhere and at bottom."""
    return ValuationSpec.of(
        0,
        {g: int(lattice.is_idempotent(g)) for g in lattice.join_irreducible_ids},
    )


def _characteristic(lattice, spec_of, x: int, table: WeightTable | None) -> int:
    """``x``'s value as an int; ``spec_of`` builds the spec only when no table is passed."""
    value = evaluate(lattice, spec_of(lattice) if table is None else None, x, table)
    assert value.denominator == 1
    return int(value)


def euler_char(lattice, x: int, table: WeightTable | None = None) -> int:
    """The classical characteristic of ``x``; always an integer."""
    return _characteristic(lattice, euler_spec, x, table)


def idempotent_euler_char(lattice, x: int, table: WeightTable | None = None) -> int:
    """The idempotent variant of the characteristic; always an integer."""
    return _characteristic(lattice, idempotent_euler_spec, x, table)


def chi_plus_by_counting(algebra, x: int) -> int:
    """Count the minimal idempotent join-irreducibles below ``x``.

    Independent route to the idempotent characteristic: no weights are
    solved, the minimal idempotent join-irreducibles are simply counted.
    The two routes agree on every element of a free algebra.
    """
    return int(algebra.leq_matrix[list(algebra.minimal_idempotent_ji_ids), x].sum())
