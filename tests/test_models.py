from random import Random

import pytest

from nmlogic import (
    AssignmentSpace,
    And,
    Not,
    Or,
    Var,
    count_models,
    enumerate_models,
    eval_chain,
    parse,
    random_formula,
)
from nmlogic import models
from nmlogic.models import MAX_SCALAR_WORK

THREE = AssignmentSpace.THREE
TWO = AssignmentSpace.TWO

ALPHA = parse("(x1 <-> ~x1)^2 & x1")


def test_count_examples():
    assert count_models(parse("1"), 2, THREE) == 9
    assert count_models(ALPHA, 1, THREE) == 0
    assert count_models(parse("x1 | ~x1"), 1, TWO) == 2
    assert count_models(parse("x1 | ~x1"), 1, THREE) == 2
    assert count_models(parse("0"), 1, THREE) == 0
    assert count_models(parse("1"), 0, THREE) == 1


def test_enumerate_examples():
    chain = THREE.chain
    assert enumerate_models(parse("x1"), 1, THREE) == [{1: chain.top}]
    found = enumerate_models(parse("x1 | ~x1"), 1, THREE)
    assert [env[1].index for env in found] == [0, 2]
    assert enumerate_models(parse("0"), 2, THREE) == []


def test_enumeration_is_lexicographic_and_consistent():
    f = parse("(x1 -> x2) & (x2 -> x1)")
    for space in (THREE, TWO):
        found = enumerate_models(f, 2, space)
        assert len(found) == count_models(f, 2, space)
        keys = [(env[1].index, env[2].index) for env in found]
        assert keys == sorted(keys)
        chain = space.chain
        for env in found:
            assert eval_chain(f, chain, env) == chain.top


def test_variable_out_of_range():
    with pytest.raises(ValueError):
        count_models(parse("x3"), 2, THREE)
    with pytest.raises(ValueError):
        enumerate_models(parse("x1"), 0, TWO)


def test_scalar_budget_counts_points_times_nodes():
    assert MAX_SCALAR_WORK == 256 * 256
    f = Var(1)
    for _ in range(255):
        f = Not(f)
    # 2**8 points times 256 nodes is exactly the budget; one node more is over.
    assert count_models(f, 8, TWO) == 128
    assert len(enumerate_models(f, 8, TWO)) == 128
    for call in (count_models, enumerate_models):
        with pytest.raises(ValueError, match="256 points times 257 formula nodes"):
            call(Not(f), 8, TWO)


def test_scalar_budget_is_checked_before_the_grid_is_built(monkeypatch):
    def unbuilt(chain, n):
        raise AssertionError("the grid was built before the budget check")

    monkeypatch.setattr(models, "grid_assignments", unbuilt)
    f = Var(1)
    for _ in range(58):
        f = Not(f)
    for call in (count_models, enumerate_models):
        with pytest.raises(ValueError, match="531441 points times 59 formula nodes"):
            call(f, 12, THREE)
        with pytest.raises(ValueError, match="1048576 points times 1 formula nodes"):
            call(Var(1), 20, TWO)
        with pytest.raises(ValueError, match="exceeds 1048576 points"):
            call(Var(1), 10**9, TWO)


def test_counting_is_modular_over_join_and_meet():
    rng = Random(4711)
    for _ in range(60):
        f = random_formula(rng, 2, rng.randrange(5))
        g = random_formula(rng, 2, rng.randrange(5))
        for space in (THREE, TWO):
            both = count_models(And(f, g), 2, space)
            either = count_models(Or(f, g), 2, space)
            assert count_models(f, 2, space) + count_models(g, 2, space) == both + either
