"""Filters, prime filters, their forest, and quotients by maximal filters.

A filter is a nonempty upper set closed under fusion; in a finite algebra
it is principal, generated by its minimum element.  A filter is prime when
it is proper and contains a disjunct of every disjunction it contains.
The prime filters are exactly the upper sets of the idempotent
join-irreducible elements, so they are enumerated from those generators
rather than from the power set.

Ordered by reverse inclusion the prime filters form a forest whose roots
are the inclusion-maximal filters, generated by the minimal idempotent
join-irreducibles.  Quotienting by a root collapses the algebra to a chain
with two or three elements; three happens exactly when the relevant
subdirect factor has a negation fixpoint.  Quotients are array code over
:attr:`FreeAlgebra.operation_table`; the two filter predicates stay
definitional scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import residuum_block, tnorm_block
from .free_algebra import FreeAlgebra


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
    """All prime filters, each as the upper set of an idempotent join-irreducible."""
    return [Filter(principal_upset(algebra, g), g)
            for g in algebra.join_irreducible_ids if algebra.is_idempotent(g)]


def forest(algebra: FreeAlgebra) -> PrimeFilterForest:
    """The prime filters under reverse inclusion, with parent links.

    Reverse inclusion of the upper sets is the element order of the
    generators, so the forest is computed on generators.  The ancestors of
    every node are checked to form a chain: two generators strictly below a
    common generator must be comparable.  A node's parent is the largest
    generator strictly below its own.
    """
    filters = tuple(sorted(prime_filters(algebra), key=lambda f: f.generator))
    gens = [f.generator for f in filters]
    leq = algebra.leq_matrix[np.ix_(gens, gens)]
    below = leq & ~np.eye(len(gens), dtype=bool)  # below[a, b]: gens[a] < gens[b]
    strict = below.astype(np.float32)
    if (((strict @ strict.T) > 0) & ~leq & ~leq.T).any():
        raise RuntimeError("prime filter order is not a forest")
    # The generators strictly below one form a chain; its top has the most below it.
    score = np.where(below, below.sum(axis=0)[:, None], -1)
    parent = tuple(int(column.argmax()) if column.max() >= 0 else None for column in score.T)
    return PrimeFilterForest(filters, parent)


def quotient_by_maximal(algebra: FreeAlgebra, filt: Filter) -> QuotientChain:
    """Collapse the algebra by the congruence of a maximal prime filter.

    Two elements are identified when their bi-implication lies in the
    filter.  The classes always form a nilpotent-minimum chain with two or
    three elements; anything else signals a broken input and raises.
    Passing a non-maximal filter raises ``ValueError``.
    """
    if principal_upset(algebra, filt.generator) != filt.elements:
        raise ValueError("filter elements do not match the generator's upper set")
    if filt.generator not in algebra.minimal_idempotent_ji_ids:
        raise ValueError("filter is not maximal")

    ops = algebra.operation_table
    member = algebra.leq_matrix[filt.generator]
    imp = ops[:, :, 3]
    # x ~ y iff (x -> y) * (y -> x) lies in the filter; a class is named by
    # its smallest element.
    same = member[ops[imp, imp.T, 2]]
    reps, class_of = np.unique(same.argmax(axis=1), return_inverse=True)
    m = len(reps)
    if m not in (2, 3):
        raise RuntimeError(f"quotient by a maximal filter has {m} classes")

    # Class order: [x] <= [y] iff x -> y lands in the filter.  Rank 0 goes to
    # the class below the most classes, ties broken by class order.
    leq = member[imp[np.ix_(reps, reps)]]
    rank = np.argsort(np.argsort(-leq.sum(axis=1), kind="stable"), kind="stable")
    if (leq != (rank[:, None] <= rank[None, :])).any():
        raise RuntimeError("quotient classes are not totally ordered")

    # The congruence must respect all four operations, and the induced
    # operations must be the chain operations on {0..m-1}.
    r = rank[class_of]
    x, y = r[:, None], r[None, :]
    chain_ops = (np.minimum(x, y), np.maximum(x, y),
                 tnorm_block(m - 1, x, y), residuum_block(m - 1, x, y))
    if (r[ops] != np.stack(chain_ops, axis=2)).any():
        raise RuntimeError("quotient operations are not well defined")

    return QuotientChain(tuple(frozenset(np.flatnonzero(r == i).tolist()) for i in range(m)))
