"""Acceptance suite: every exit criterion, one test and one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the line per
criterion on passing runs as well.
"""

import functools
import os
import time
from collections import defaultdict
from random import Random

import numpy as np

from nmlogic import (
    AssignmentSpace,
    ElementCapExceeded,
    NMChain,
    Variant,
    build,
    chi_plus_by_counting,
    count_models,
    eval_chain,
    euler_char,
    euler_spec,
    evaluate,
    forest,
    idempotent_euler_char,
    idempotent_euler_spec,
    parse,
    quotient_by_maximal,
    random_formula,
)

ALPHA = parse("(x1 <-> ~x1)^2 & x1")


def criterion(tag, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[{tag} FAIL] {title}")
                raise
            print(f"[{tag} PASS] {title}" + (f": {detail}" if detail else ""))

        return run

    return wrap


@criterion("c01", "cardinalities 48 / 16 / 2 / 2, each built in under a second")
def test_c01_cardinalities():
    expected = [
        (1, Variant.NM, 48),
        (1, Variant.NM_MINUS, 16),
        (0, Variant.NM, 2),
        (0, Variant.NM_MINUS, 2),
    ]
    for n, variant, size in expected:
        started = time.perf_counter()
        algebra = build(n, variant)
        elapsed = time.perf_counter() - started
        assert algebra.size == size, (n, variant, algebra.size)
        assert elapsed < 1.0, f"build({n}, {variant}) took {elapsed:.2f}s"


@criterion("c02", "rank-by-rank label multisets on the 16-element product grid")
def test_c02_product_grid_labels(nmm1):
    values = evaluate(nmm1, idempotent_euler_spec(nmm1))
    by_rank = defaultdict(list)
    for x in nmm1.element_ids():
        by_rank[nmm1.heights[x]].append(values[x])
    assert {rank: sorted(labels) for rank, labels in by_rank.items()} == {
        6: [2], 5: [2, 2], 4: [1, 1, 2], 3: [1, 1, 1, 1],
        2: [0, 1, 1], 1: [0, 0], 0: [0],
    }


@criterion("c03", "the join-irreducible counterexample separates the two valuations")
def test_c03_counterexample(nm1):
    a = nm1.element_of(ALPHA)
    assert euler_char(nm1, a) == 1
    assert idempotent_euler_char(nm1, a) == 0
    assert a in nm1.join_irreducible_ids
    assert max(nm1.vector(a)) < nm1.chain.size - 1


def _random_formulas(n, count, seed):
    rng = Random(seed)
    return [random_formula(rng, n, rng.randrange(6)) for _ in range(count)]


def _oracle_equivalence(algebra, space, seed):
    values = evaluate(algebra, idempotent_euler_spec(algebra))
    for x in algebra.element_ids():
        f = algebra.representative_formula(x)
        assert values[x] == count_models(f, algebra.n, space), f"element {x}"
    for f in _random_formulas(algebra.n, 200, seed):
        assert values[algebra.element_of(f)] == count_models(f, algebra.n, space)


@criterion("c04", "three-valued model count equals the idempotent characteristic "
                  "(48 elements + 200 random formulas, under 10 s)")
def test_c04_three_valued_equivalence(nm1):
    started = time.perf_counter()
    _oracle_equivalence(nm1, AssignmentSpace.THREE, seed=1001)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"{elapsed:.2f}s"


@criterion("c05", "two-valued model count equals the idempotent characteristic "
                  "(16 elements + 200 random formulas; top counts are 2^n and 3^n)")
def test_c05_two_valued_equivalence(nmm1, nm1, nm0, nmm0):
    _oracle_equivalence(nmm1, AssignmentSpace.TWO, seed=2002)
    assert idempotent_euler_char(nmm0, nmm0.top_id) == 1
    assert idempotent_euler_char(nmm1, nmm1.top_id) == 2
    assert idempotent_euler_char(nm0, nm0.top_id) == 1
    assert idempotent_euler_char(nm1, nm1.top_id) == 3


@criterion("c06", "the idempotent characteristic is invariant under self-fusion")
def test_c06_square_invariance(nm1, nmm1):
    for algebra in (nm1, nmm1):
        values = evaluate(algebra, idempotent_euler_spec(algebra))
        for x in algebra.element_ids():
            assert values[algebra.tnorm(x, x)] == values[x]


@criterion("c07", "weight route and minimal-generator counting agree everywhere")
def test_c07_two_path_agreement(nm1, nmm1):
    for algebra in (nm1, nmm1):
        values = evaluate(algebra, idempotent_euler_spec(algebra))
        for x in algebra.element_ids():
            assert values[x] == chi_plus_by_counting(algebra, x)


def _modularity(algebra):
    for spec in (euler_spec(algebra), idempotent_euler_spec(algebra)):
        values = np.array(evaluate(algebra, spec))
        n = algebra.size
        meet = np.zeros((n, n), dtype=np.int64)
        join = np.zeros((n, n), dtype=np.int64)
        for x in range(n):
            for y in range(n):
                meet[x, y] = algebra.meet(x, y)
                join[x, y] = algebra.join(x, y)
        xs = np.arange(n)
        lhs = values[xs][:, None] + values[xs][None, :]
        rhs = values[join] + values[meet]
        assert np.array_equal(lhs, rhs)


@criterion("c08", "both valuations are modular on all 48^2 and 16^2 pairs, under 5 s")
def test_c08_modularity(nm1, nmm1):
    started = time.perf_counter()
    _modularity(nm1)
    _modularity(nmm1)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"{elapsed:.2f}s"


@criterion("c09", "prime filters form a forest with 3 (resp. 2) roots")
def test_c09_forest(nm1, nmm1):
    for algebra, roots in ((nm1, 3), (nmm1, 2)):
        fst = forest(algebra)
        for i in range(len(fst.filters)):
            gens = [fst.filters[j].generator for j in fst.ancestors(i)]
            for a in gens:
                for b in gens:
                    assert algebra.leq(a, b) or algebra.leq(b, a)
        assert len(fst.roots) == roots


@criterion("c10", "every root quotient is a 2- or 3-chain; exactly one 3-chain "
                  "with a fixpoint, none without")
def test_c10_quotients(nm1, nmm1):
    fst = forest(nm1)
    sizes = sorted(quotient_by_maximal(nm1, fst.filters[i]).size for i in fst.roots)
    assert sizes == [2, 2, 3]
    fst = forest(nmm1)
    sizes = [quotient_by_maximal(nmm1, fst.filters[i]).size for i in fst.roots]
    assert sizes == [2, 2]


@criterion("c11", "chain laws hold exhaustively for sizes 2..9; the fixpoint-free "
                  "axiom holds pointwise exactly on even sizes, under 5 s")
def test_c11_chain_laws():
    started = time.perf_counter()
    axiom = parse("~(~x1^2)^2 <-> (~(~x1)^2)^2")
    for k in range(2, 10):
        chain = NMChain(k)
        values = chain.values()
        for x in values:
            assert chain.neg(chain.neg(x)) == x
            for y in values:
                r = chain.residuum(x, y)
                for z in values:
                    assert (chain.tnorm(x, z).index <= y.index) == (
                        z.index <= r.index
                    )
                assert chain.join(r, chain.residuum(y, x)) == chain.top
                fused = chain.tnorm(x, y)
                assert chain.join(
                    chain.neg(fused), chain.residuum(chain.meet(x, y), fused)
                ) == chain.top
        pointwise_top = all(
            eval_chain(axiom, chain, {1: x}) == chain.top for x in values
        )
        assert pointwise_top == (k % 2 == 0)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"{elapsed:.2f}s"


@criterion("c12", "two-generator stretch (conditional on cap and 5-minute budget)")
def test_c12_two_generator_stretch():
    cap = int(os.environ.get("NMLOGIC_STRETCH_CAP", "60000"))
    budget = 300.0
    started = time.perf_counter()
    try:
        algebra = build(2, Variant.NM, element_cap=cap)
    except ElementCapExceeded as err:
        return (
            f"skipped: closure exceeds the configured cap "
            f"(attained {err.attained} elements, cap {cap})"
        )
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        return f"built {algebra.size} elements but outside the {budget:.0f}s budget"

    # Derived artifact, never asserted against a published figure.
    size = algebra.size
    values = evaluate(algebra, idempotent_euler_spec(algebra))
    rng = Random(3003)
    sample = sorted(rng.sample(range(size), min(500, size)))
    for x in sample:
        assert values[x] == count_models(
            algebra.representative_formula(x), 2, AssignmentSpace.THREE
        )
        assert values[x] == values[algebra.tnorm(x, x)]
    for _ in range(200):
        f = random_formula(rng, 2, rng.randrange(8))
        assert values[algebra.element_of(f)] == count_models(f, 2, AssignmentSpace.THREE)
    for _ in range(500):
        x, y = rng.choice(sample), rng.choice(sample)
        assert values[x] + values[y] == values[algebra.join(x, y)] + values[algebra.meet(x, y)]
    return f"completed: derived size {size}, sampled checks pass"
