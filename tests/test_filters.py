import numpy as np
import pytest
from test_free_algebra import boolean_nm2_export

from nmlogic import (
    Filter,
    FreeAlgebra,
    PrimeFilterForest,
    forest,
    is_filter,
    is_prime_filter,
    prime_filters,
    quotient_by_maximal,
)
from nmlogic.filters import principal_upset
from nmlogic.formula import Iff, Implies


def coordinates(nmm1):
    return {x: nmm1.vector(x)[1:3] for x in nmm1.element_ids()}


@pytest.mark.parametrize("fixture", ["nm1", "nmm1", "nm0", "nmm0"])
def test_generator_enumeration_matches_definitional_scan(fixture, request):
    algebra = request.getfixturevalue(fixture)
    # Every filter of a finite algebra is a principal upper set, so scanning
    # all of those with the definitional predicate is exhaustive.
    definitional = sorted(
        x
        for x in algebra.element_ids()
        if is_prime_filter(algebra, principal_upset(algebra, x))
    )
    assert sorted(f.generator for f in prime_filters(algebra)) == definitional


@pytest.mark.parametrize("fixture", ["nm1", "nmm1", "nm0"])
def test_prime_filters_are_principal_fusion_closed_upper_sets(fixture, request):
    algebra = request.getfixturevalue(fixture)
    # Neither the empty set nor {bottom}, closed under fusion but not upward, is a filter.
    assert not is_filter(algebra, frozenset())
    assert not is_filter(algebra, frozenset({algebra.bottom_id}))
    for filt in prime_filters(algebra):
        assert is_filter(algebra, filt.elements)
        assert is_prime_filter(algebra, filt.elements)
        assert min(filt.elements, key=lambda x: algebra.heights[x]) == filt.generator
        assert principal_upset(algebra, filt.generator) == filt.elements
        assert filt.generator in algebra.join_irreducible_ids
        assert algebra.is_idempotent(filt.generator)


def test_prime_filter_counts(nm1, nmm1, nm0):
    assert len(prime_filters(nm0)) == 1
    assert prime_filters(nm0)[0].elements == frozenset({nm0.top_id})
    assert len(prime_filters(nmm1)) == 4
    idem_ji = [g for g in nm1.join_irreducible_ids if nm1.is_idempotent(g)]
    assert sorted(f.generator for f in prime_filters(nm1)) == sorted(idem_ji)


def test_fixpoint_free_generators_in_grid_coordinates(nmm1):
    coords = coordinates(nmm1)
    gens = sorted(coords[f.generator] for f in prime_filters(nmm1))
    assert gens == [(0, 2), (0, 3), (2, 0), (3, 0)]


@pytest.mark.parametrize("fixture", ["nm1", "nmm1", "nm0", "nmm0"])
def test_forest_ancestors_are_chains(fixture, request):
    algebra = request.getfixturevalue(fixture)
    fst = forest(algebra)
    for i in range(len(fst.filters)):
        ancestors = fst.ancestors(i)
        gens = [fst.filters[j].generator for j in ancestors]
        for a in gens:
            for b in gens:
                assert algebra.leq(a, b) or algebra.leq(b, a)
        # Walking towards the root, the filters grow.
        sizes = [len(fst.filters[j].elements) for j in [i] + ancestors]
        assert sizes == sorted(sizes)
        # The parent is the largest generator strictly below this one.
        g = fst.filters[i].generator
        below = [f.generator for f in fst.filters
                 if f.generator != g and algebra.leq(f.generator, g)]
        if fst.parent[i] is None:
            assert below == []
        else:
            p = fst.filters[fst.parent[i]].generator
            assert p in below and all(algebra.leq(h, p) for h in below)


def _nm1_import(vectors):
    """An unvalidated one-generator nm import: bottom, top, then ``vectors``."""
    vectors = [[0] * 5, [4] * 5] + vectors
    data = {"n": 1, "variant": "nm", "chain_size": 5,
            "elements": [{"id": i, "vector": v} for i, v in enumerate(vectors)]}
    return FreeAlgebra.from_export(data, validate=False)


def test_forest_rejects_an_order_that_is_not_a_forest():
    # Two incomparable idempotent join-irreducibles, a and b, both lie
    # strictly below the idempotent join-irreducibles d and top.
    algebra = _nm1_import([[3, 0, 0, 0, 0], [0, 3, 0, 0, 0], [3, 3, 0, 0, 0],
                           [4, 3, 0, 0, 0]])
    assert [f.generator for f in prime_filters(algebra)] == [1, 2, 3, 5]
    with pytest.raises(RuntimeError, match="not a forest"):
        forest(algebra)


def test_forest_without_prime_filters_is_empty():
    # The join-irreducibles 2 and 3 are not idempotent; top joins 4 and 5.
    algebra = _nm1_import([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [4, 4, 4, 4, 3],
                           [4, 4, 4, 3, 4]])
    assert algebra.join_irreducible_ids == (2, 3)
    assert forest(algebra) == PrimeFilterForest((), ())


def test_forest_roots(nm1, nmm1, nm0, nmm0):
    assert len(forest(nm1).roots) == 3
    assert len(forest(nmm1).roots) == 2
    assert len(forest(nm0).roots) == 1
    assert len(forest(nmm0).roots) == 1
    for algebra in (nm1, nmm1, nm0, nmm0):
        fst = forest(algebra)
        root_gens = sorted(fst.filters[i].generator for i in fst.roots)
        assert root_gens == sorted(algebra.minimal_idempotent_ji_ids)


def test_fixpoint_free_forest_is_two_short_chains(nmm1):
    fst = forest(nmm1)
    assert len(fst.filters) == 4
    children = [i for i, p in enumerate(fst.parent) if p is not None]
    assert len(children) == 2
    for i in children:
        parent = fst.parent[i]
        assert fst.parent[parent] is None
        assert fst.filters[i].elements < fst.filters[parent].elements


def test_quotients_by_roots(nm1, nmm1, nm0):
    sizes = []
    fst = forest(nm1)
    for i in fst.roots:
        sizes.append(quotient_by_maximal(nm1, fst.filters[i]).size)
    assert sorted(sizes) == [2, 2, 3]

    fst = forest(nmm1)
    for i in fst.roots:
        assert quotient_by_maximal(nmm1, fst.filters[i]).size == 2

    fst = forest(nm0)
    (root,) = fst.roots
    quotient = quotient_by_maximal(nm0, fst.filters[root])
    assert quotient.size == 2
    assert quotient.classes == (frozenset({nm0.bottom_id}), frozenset({nm0.top_id}))


def test_quotient_classes_partition_and_order(nm1):
    fst = forest(nm1)
    for i in fst.roots:
        quotient = quotient_by_maximal(nm1, fst.filters[i])
        everything = [x for cls in quotient.classes for x in cls]
        assert sorted(everything) == list(nm1.element_ids())
        assert nm1.bottom_id in quotient.classes[0]
        assert nm1.top_id in quotient.classes[-1]


@pytest.mark.parametrize("fixture", ["nm1", "nmm1", "nm0", "nmm0"])
def test_quotients_match_formula_evaluation(fixture, request):
    # The congruence and the class order, recomputed with element_of (scalar
    # eval_chain) instead of the operation table.
    algebra = request.getfixturevalue(fixture)
    rep = algebra.representative_formula
    pairs = [(x, y) for x in algebra.element_ids() for y in algebra.element_ids()]
    iff = {(x, y): algebra.element_of(Iff(rep(x), rep(y))) for x, y in pairs}
    imp = {(x, y): algebra.element_of(Implies(rep(x), rep(y))) for x, y in pairs}
    fst = forest(algebra)
    for root in fst.roots:
        filt = fst.filters[root]
        classes = quotient_by_maximal(algebra, filt).classes
        rank = {x: i for i, cls in enumerate(classes) for x in cls}
        for x, y in pairs:
            assert (rank[x] == rank[y]) == (iff[x, y] in filt.elements)
            assert (rank[x] <= rank[y]) == (imp[x, y] in filt.elements)


def test_quotients_of_an_imported_boolean_algebra_match_its_operations():
    # Nine sign blocks, so nine maximal filters, each with a two-class
    # quotient; the congruence and the order are read off iff and residuum.
    algebra = FreeAlgebra.from_export(boolean_nm2_export())
    ids = algebra.element_ids()
    iff = np.array([[algebra.iff(x, y) for y in ids] for x in ids])
    imp = np.array([[algebra.residuum(x, y) for y in ids] for x in ids])
    fst = forest(algebra)
    assert len(fst.roots) == 9
    for root in fst.roots:
        filt = fst.filters[root]
        classes = quotient_by_maximal(algebra, filt).classes
        assert len(classes) == 2
        rank = np.empty(algebra.size, dtype=int)
        for i, cls in enumerate(classes):
            rank[list(cls)] = i
        member = np.isin(np.arange(algebra.size), list(filt.elements))
        assert (member[iff] == (rank[:, None] == rank[None, :])).all()
        assert (member[imp] == (rank[:, None] <= rank[None, :])).all()


def test_quotient_of_an_unclosed_import_raises_key_error():
    # The idempotent join-irreducible [4, 0, 0, 0, 0] generates the one
    # maximal filter, but its negation is missing.
    algebra = _nm1_import([[4, 0, 0, 0, 0]])
    assert algebra.minimal_idempotent_ji_ids == (2,)
    with pytest.raises(KeyError, match="not closed under imp"):
        quotient_by_maximal(algebra, Filter(principal_upset(algebra, 2), 2))


def test_quotient_rejects_non_maximal(nmm1):
    non_roots = [
        f for f in prime_filters(nmm1)
        if f.generator not in nmm1.minimal_idempotent_ji_ids
    ]
    with pytest.raises(ValueError):
        quotient_by_maximal(nmm1, non_roots[0])


def test_quotient_rejects_inconsistent_filter(nmm1):
    g = nmm1.minimal_idempotent_ji_ids[0]
    bogus = Filter(frozenset({nmm1.top_id}), g)
    with pytest.raises(ValueError):
        quotient_by_maximal(nmm1, bogus)
