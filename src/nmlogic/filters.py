"""Filters, prime filters, their forest, and quotients by maximal filters.

A filter is a nonempty upper set closed under fusion; in a finite algebra
it is principal, generated by its minimum element.  A filter is prime when
it is proper and contains a disjunct of every disjunction it contains.
The prime filters are exactly the upper sets of the idempotent
join-irreducible elements, so they are enumerated from those generators
rather than from the power set.

Ordered by reverse inclusion the prime filters form a forest whose roots
are the inclusion-maximal filters, generated by the minimal idempotent
join-irreducibles, and is read from the covers of their order.  Quotienting
by a root collapses the algebra to a chain with two or three elements; three
happens exactly when the relevant subdirect factor has a negation fixpoint.
Every algebra is stored as a subdirect product of chains, one truth-vector
column per grid point, so a quotient reads one column: a maximal filter is
the positive set of some grid point's chain.  The two filter predicates stay
definitional scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .free_algebra import FreeAlgebra, _cover_matrix


@dataclass(frozen=True)
class Filter:
    """An upper set closed under fusion, with its minimum element."""

    elements: frozenset[int]
    generator: int


@dataclass(frozen=True)
class PrimeFilterForest:
    """Prime filters ordered by reverse inclusion.

    ``parent[i]`` is the index of the immediate ancestor of ``filters[i]``
    (the next filter towards the root, i.e. the next larger filter), or
    None for roots.
    """

    filters: tuple[Filter, ...]
    parent: tuple[int | None, ...]

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parent) if p is None)

    def ancestors(self, i: int) -> list[int]:
        chain = []
        while (i := self.parent[i]) is not None:
            chain.append(i)
        return chain


@dataclass(frozen=True)
class QuotientChain:
    """Congruence classes of a quotient, listed bottom class first."""

    classes: tuple[frozenset[int], ...]

    @property
    def size(self) -> int:
        return len(self.classes)


def principal_upset(algebra: FreeAlgebra, g: int) -> frozenset[int]:
    return frozenset(np.flatnonzero(algebra.leq_matrix[g]).tolist())


def is_filter(algebra: FreeAlgebra, elements: frozenset[int]) -> bool:
    """Definitional check: nonempty upper set closed under fusion."""
    if not elements:
        return False
    for x in elements:
        for y in algebra.element_ids():
            if algebra.leq(x, y) and y not in elements:
                return False
        for y in elements:
            if algebra.tnorm(x, y) not in elements:
                return False
    return True


def is_prime_filter(algebra: FreeAlgebra, elements: frozenset[int]) -> bool:
    """Definitional check: a proper filter containing a disjunct of every join."""
    if len(elements) == algebra.size or not is_filter(algebra, elements):
        return False
    for x in algebra.element_ids():
        for y in algebra.element_ids():
            if algebra.join(x, y) in elements:
                if x not in elements and y not in elements:
                    return False
    return True


def prime_filters(algebra: FreeAlgebra) -> list[Filter]:
    """All prime filters, each as the upper set of an idempotent join-irreducible,
    by ascending generator."""
    idempotent = set(algebra.idempotent_ids)
    return [Filter(principal_upset(algebra, g), g)
            for g in algebra.join_irreducible_ids if g in idempotent]


def forest(algebra: FreeAlgebra) -> PrimeFilterForest:
    """The prime filters under reverse inclusion, with parent links.

    Reverse inclusion of the upper sets is the element order of the
    generators, so the forest is read from its covers.  The generators below
    each one form a chain exactly when none has two lower covers, as two such
    covers are incomparable; a node's parent is its one lower cover.
    """
    filters = tuple(prime_filters(algebra))
    gens = [f.generator for f in filters]
    # lower[a, b]: gens[a] is a lower cover of gens[b].
    lower = _cover_matrix(algebra.leq_matrix[np.ix_(gens, gens)])
    if (lower.sum(axis=0) > 1).any():
        raise RuntimeError("prime filter order is not a forest")
    parent = tuple(int(column.argmax()) if column.any() else None for column in lower.T)
    return PrimeFilterForest(filters, parent)


def quotient_by_maximal(algebra: FreeAlgebra, filt: Filter) -> QuotientChain:
    """Collapse the algebra by the congruence of a maximal prime filter.

    Two elements are identified when their bi-implication lies in the
    filter.  A maximal filter is prime, so it contains the kernel of some
    grid projection and is the positive set of that point's chain; the
    quotient is that chain's own, by the sign of each value there (below,
    at or above the negation fixpoint), so it has two or three classes.
    ``ValueError`` for a non-maximal filter, a generator out of range
    included, or one that is not its generator's upper set, ``KeyError``
    for an unclosed algebra (closure is checked unless
    :func:`nmlogic.free_algebra.build` made the algebra), ``RuntimeError``
    if the filter is no point's positive set.
    """
    if filt.generator not in algebra.minimal_idempotent_ji_ids:
        raise ValueError("filter is not maximal")
    if principal_upset(algebra, filt.generator) != filt.elements:
        raise ValueError("filter elements do not match the generator's upper set")
    if not algebra._built:
        algebra.check_closed()

    top, vectors = algebra.chain.size - 1, algebra.vectors
    member = algebra.leq_matrix[filt.generator]
    points = np.flatnonzero(((vectors > top - vectors) == member[:, None]).all(axis=0))
    if not len(points):
        raise RuntimeError("the maximal filter is the positive set of no grid point")
    x = vectors[:, points[0]]
    signs = (x < top - x, x == top - x, x > top - x)
    return QuotientChain(tuple(frozenset(np.flatnonzero(s).tolist()) for s in signs if s.any()))
