from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from nmlogic import (
    ValuationSpec,
    Variant,
    chi_plus_by_counting,
    euler_char,
    euler_spec,
    evaluate,
    idempotent_euler_char,
    idempotent_euler_spec,
    parse,
    weights,
)
from nmlogic.chain import grid_coordinates as chain_grid


class StubLattice:
    """The valuation engine's lattice surface, ``leq_matrix``,
    ``join_irreducible_ids`` and ``idempotent_ids``, from cover pairs and the
    ids marked idempotent; join and meet for the tests."""

    def __init__(self, size, covers, idempotent=()):
        self._size = size
        self.idempotent_ids = tuple(idempotent)
        leq = np.eye(size, dtype=bool)
        for child, parent in covers:
            leq[child, parent] = True
        for _ in range(size):
            leq = leq | (leq @ leq)
        self.leq_matrix = leq
        counts = defaultdict(int)
        for child, parent in covers:
            counts[parent] += 1
        self.join_irreducible_ids = tuple(
            x for x in range(size) if x != 0 and counts[x] == 1
        )

    def element_ids(self):
        return range(self._size)

    def leq(self, x, y):
        return bool(self.leq_matrix[x, y])

    def join(self, x, y):
        uppers = [z for z in self.element_ids() if self.leq(x, z) and self.leq(y, z)]
        return min(uppers, key=lambda z: int(self.leq_matrix[:, z].sum()))

    def meet(self, x, y):
        lowers = [z for z in self.element_ids() if self.leq(z, x) and self.leq(z, y)]
        return max(lowers, key=lambda z: int(self.leq_matrix[:, z].sum()))


TWO_CHAIN = StubLattice(2, [(0, 1)], idempotent=[1])
# bottom 0; join-irreducibles 1, 2 and 4; 3 = 1 v 2; 4 covers only 3.
V_SHAPE = StubLattice(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], idempotent=[1, 4])
JI_CHAIN = StubLattice(3, [(0, 1), (1, 2)], idempotent=[2])


def test_weights_two_chain():
    table = weights(TWO_CHAIN, ValuationSpec.of(0, {1: 1}))
    assert table[1] == 1


def test_weights_v_shape():
    assert V_SHAPE.join_irreducible_ids == (1, 2, 4)
    table = weights(V_SHAPE, ValuationSpec.of(0, {1: 1, 2: 1, 4: 1}))
    assert (table[1], table[2], table[4]) == (1, 1, -1)


def test_weights_chain_of_join_irreducibles():
    table = weights(JI_CHAIN, ValuationSpec.of(0, {1: 1, 2: 1}))
    assert (table[1], table[2]) == (1, 0)


def test_weights_requires_exactly_the_join_irreducibles():
    # The message names only the ids that are missing or stray.
    with pytest.raises(ValueError, match=r"at ids \[2, 4\]$"):
        weights(V_SHAPE, ValuationSpec.of(0, {1: 1}))
    with pytest.raises(ValueError, match=r"at ids \[3\]$"):
        weights(V_SHAPE, ValuationSpec.of(0, {1: 1, 2: 1, 3: 1, 4: 1}))


def test_evaluate_agrees_with_spec_on_stub():
    spec = ValuationSpec.of(Fraction(1, 3), {1: Fraction(3, 2), 2: -1, 4: 7})
    values = evaluate(V_SHAPE, spec)
    table = weights(V_SHAPE, spec)
    assert values == evaluate(V_SHAPE, spec, table)
    # Each weight is its value less the base and the weights below it, as a Fraction.
    assert table == {1: Fraction(7, 6), 2: Fraction(-4, 3), 4: Fraction(41, 6)}
    assert all(type(w) is Fraction for w in table.values())
    assert values[0] == Fraction(1, 3)
    for g in V_SHAPE.join_irreducible_ids:
        assert values[g] == spec.ji_values[g]
    # Modularity across every pair, including the reducible elements.
    for x in V_SHAPE.element_ids():
        for y in V_SHAPE.element_ids():
            lhs = values[x] + values[y]
            rhs = values[V_SHAPE.join(x, y)] + values[V_SHAPE.meet(x, y)]
            assert lhs == rhs


def test_evaluate_is_exact_past_int64_and_with_thirds():
    # Element 3 = 1 v 2 sums to 2**63, one past int64.
    big = evaluate(V_SHAPE, ValuationSpec.of(0, {1: 2**62, 2: 2**62, 4: 2**62}))
    assert big == (0, 2**62, 2**62, 2**63, 2**62)
    assert all(type(v) is int for v in big)
    thirds = evaluate(V_SHAPE, ValuationSpec.of(Fraction(1, 3), {1: Fraction(2, 3), 2: 1,
                                                                 4: Fraction(-1, 3)}))
    assert thirds == tuple(Fraction(v, 3) for v in (1, 2, 3, 4, -1))
    assert all(type(v) is Fraction for v in thirds)


ALPHA = parse("(x1 <-> ~x1)^2 & x1")


def test_euler_char_examples(nm1):
    assert euler_char(nm1, nm1.bottom_id) == 0
    assert euler_char(nm1, nm1.element_of(ALPHA)) == 1
    assert euler_char(nm1, nm1.element_of(ALPHA), weights(nm1, euler_spec(nm1))) == 1
    values = evaluate(nm1, euler_spec(nm1))
    for g in nm1.join_irreducible_ids:
        assert values[g] == 1


def test_idempotent_euler_char_examples(nm1):
    assert idempotent_euler_char(nm1, nm1.top_id) == 3
    assert idempotent_euler_char(nm1, nm1.element_of(ALPHA)) == 0
    values = evaluate(nm1, idempotent_euler_spec(nm1))
    for g in nm1.join_irreducible_ids:
        expected = 1 if g in nm1.idempotent_ids else 0
        assert values[g] == expected


def test_characteristics_on_stub_lattices():
    # V_SHAPE's top 4 is join-irreducible above 3 = 1 v 2, so its classical
    # weight is -1; idempotent marks only 1 and 4 there.
    cases = [
        (TWO_CHAIN, [0, 1], [0, 1]),
        (V_SHAPE, [0, 1, 1, 2, 1], [0, 1, 0, 1, 1]),
        (JI_CHAIN, [0, 1, 1], [0, 0, 1]),
    ]
    for lattice, classical, idempotent in cases:
        assert [euler_char(lattice, x) for x in lattice.element_ids()] == classical
        assert [idempotent_euler_char(lattice, x) for x in lattice.element_ids()] == idempotent


def test_alpha_separates_the_two_valuations(nm1):
    a = nm1.element_of(ALPHA)
    assert a in nm1.join_irreducible_ids
    assert euler_char(nm1, a) == 1
    assert idempotent_euler_char(nm1, a) == 0
    assert max(nm1.vector(a)) < nm1.chain.size - 1


def grid_coordinates(nmm1):
    return {x: nmm1.vector(x)[1:3] for x in nmm1.element_ids()}


def test_product_grid_labels(nmm1):
    # On the 4x4 product grid the label of (i, j) is [i>=2] + [j>=2].
    values = evaluate(nmm1, idempotent_euler_spec(nmm1))
    for x, (i, j) in grid_coordinates(nmm1).items():
        assert values[x] == (i >= 2) + (j >= 2)


def test_rank_label_multisets(nmm1):
    values = evaluate(nmm1, idempotent_euler_spec(nmm1))
    by_rank = defaultdict(list)
    for x in nmm1.element_ids():
        by_rank[nmm1.heights[x]].append(values[x])
    assert {rank: sorted(labels) for rank, labels in by_rank.items()} == {
        0: [0],
        1: [0, 0],
        2: [0, 1, 1],
        3: [1, 1, 1, 1],
        4: [1, 1, 2],
        5: [2, 2],
        6: [2],
    }


@pytest.mark.parametrize("fixture", ["nm1", "nmm1", "nm0", "nmm0"])
def test_counting_route_agrees_with_weight_route(fixture, request):
    algebra = request.getfixturevalue(fixture)
    values = evaluate(algebra, idempotent_euler_spec(algebra))
    for x in algebra.element_ids():
        assert values[x] == chi_plus_by_counting(algebra, x)


def test_counting_examples(nm1, nmm1):
    assert chi_plus_by_counting(nm1, nm1.bottom_id) == 0
    assert chi_plus_by_counting(nm1, nm1.top_id) == 3
    centre = next(
        x for x, c in grid_coordinates(nmm1).items() if c == (1, 1)
    )
    assert chi_plus_by_counting(nmm1, centre) == 0


@pytest.mark.parametrize("fixture", ["nm1", "nmm1"])
def test_modularity_on_all_pairs(fixture, request):
    algebra = request.getfixturevalue(fixture)
    for spec in (euler_spec(algebra), idempotent_euler_spec(algebra)):
        values = evaluate(algebra, spec)
        for x in algebra.element_ids():
            for y in algebra.element_ids():
                lhs = values[x] + values[y]
                rhs = values[algebra.join(x, y)] + values[algebra.meet(x, y)]
                assert lhs == rhs


@pytest.mark.parametrize("fixture", ["nm1", "nmm1"])
def test_square_invariance(fixture, request):
    algebra = request.getfixturevalue(fixture)
    values = evaluate(algebra, idempotent_euler_spec(algebra))
    for x in algebra.element_ids():
        assert values[algebra.tnorm(x, x)] == values[x]


def test_valuation_of_formula_examples(nm1):
    values = evaluate(nm1, idempotent_euler_spec(nm1))
    assert values[nm1.element_of(parse("x1 | ~x1"))] == 2
    assert values[nm1.element_of(parse("0"))] == 0
    assert values[nm1.element_of(parse("x1"))] == 1


@pytest.mark.parametrize("fixture", ["nm0", "nmm0", "nm1", "nmm1"])
def test_idempotent_values_are_model_counts_read_off_the_vectors(fixture, request):
    # No order structure: count the {0, 1/2, 1}^n (nm- {0, 1}^n) grid points
    # where each element's truth vector is top.
    algebra = request.getfixturevalue(fixture)
    top = algebra.chain.size - 1
    allowed = [0, top // 2, top] if algebra.variant is Variant.NM else [0, top]
    models = np.isin(chain_grid(algebra.chain.size, algebra.n), allowed).all(axis=0)
    counts = (algebra.vectors[:, models] == top).sum(axis=1)
    assert evaluate(algebra, idempotent_euler_spec(algebra)) == tuple(counts.tolist())
