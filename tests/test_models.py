import itertools
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from nmlogic import (
    AssignmentSpace,
    And,
    Implies,
    Not,
    Or,
    Var,
    Variant,
    count_models,
    enumerate_models,
    eval_chain,
    eval_standard,
    is_tautology,
    parse,
    proves,
    random_formula,
    truth_vector,
)
from nmlogic import cli, free_algebra, models
from nmlogic.formula import program
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


def _negations(k, f):
    for _ in range(k):
        f = Not(f)
    return f


def test_scalar_budget_counts_points_times_steps_plus_one():
    assert MAX_SCALAR_WORK == 256 * 256
    # Each negation is one compiled step and x1 is none.  Each row is a
    # request at the budget's edge, its model count, and the request one
    # step or one variable over it.
    edges = (
        (Var(1), 16, TWO, 2**15, Var(1), 17, "131072 points times 0 compiled steps"),
        (_negations(21_844, Var(1)), 1, THREE, 1, _negations(21_845, Var(1)), 1,
         "3 points times 21845 compiled steps"),
    )
    for at, n, space, count, over, m, message in edges:
        assert count_models(at, n, space) == count
        assert len(enumerate_models(at, n, space)) == count
        for call in (count_models, enumerate_models):
            with pytest.raises(ValueError, match=message + ", plus one per point, exceeds"):
                call(over, m, space)


def test_count_keeps_no_list_of_models(monkeypatch):
    import tracemalloc

    # x1 over the 2**16 points of {0, 1}, the largest grid the budget admits:
    # a list of the 32768 models' assignment dicts would take over 20 MiB.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return eval_chain(*args)

    monkeypatch.setattr(models, "eval_chain", counted)
    tracemalloc.start()
    try:
        count = count_models(parse("x1"), 16, TWO)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 32768
    assert calls == 2**16
    assert peak < 4 * 2**20


def test_scalar_budget_reads_the_step_count_of_parsed_text(capsys):
    # 10924 copies of x1 joined by "&" are 21847 nodes but no step, as
    # x1 & x1 folds to x1, so the one model is counted.  A chain of 100 "<->"
    # over x1 and x2 is 201 nodes but 300 steps: 2**7 points of it are
    # within the budget, and 2**8 points are over it.
    conjunction = " & ".join(["x1"] * 10_924)
    chain = " <-> ".join(["x1", "x2"] * 50 + ["x1"])
    assert len(program(parse(chain)).steps) == 300
    for argv, code, out, err in (
        ([conjunction, "--vars", "1", "--values", "3"], 0, "1\n", ""),
        ([chain, "--vars", "7", "--values", "2"], 0, "64\n", ""),
        ([chain, "--vars", "8", "--values", "2"], 3, "",
         "256 points times 300 compiled steps, plus one per point, exceeds"),
    ):
        assert cli.main(["count-models", *argv]) == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert err in captured.err


def test_scalar_budget_is_checked_before_the_grid_is_built(monkeypatch):
    def unbuilt(chain, n):
        raise AssertionError("the grid was built before the budget check")

    monkeypatch.setattr(models, "grid_assignments", unbuilt)
    f = _negations(58, Var(1))
    for call in (count_models, enumerate_models):
        with pytest.raises(ValueError, match="531441 points times 58 compiled steps"):
            call(f, 12, THREE)
        with pytest.raises(ValueError, match="1048576 points times 0 compiled steps"):
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


@pytest.mark.parametrize("depth", [4, 5, 6, 7])
def test_three_variable_routes_agree_without_a_build(depth, monkeypatch):
    # The benchmark's grid_eval oracle: model counts, tautologies, local
    # deduction and exact [0, 1] values, each read off the generic truth
    # vectors of nm (9-chain) and nm- (8-chain) at three variables.
    def no_build(*args, **kwargs):
        raise AssertionError("no free algebra is built")

    monkeypatch.setattr(free_algebra, "build", no_build)
    grid = list(itertools.product(range(9), repeat=3))
    three = [j for j, p in enumerate(grid) if set(p) <= {0, 4, 8}]
    two = [j for j, p in enumerate(itertools.product(range(8), repeat=3)) if set(p) <= {0, 7}]
    rng = Random(f"three variables/{depth}")
    for _ in range(4):
        phi, psi = random_formula(rng, 3, depth), random_formula(rng, 3, depth)
        for f in (phi, Implies(phi, Or(phi, psi))):
            a = np.array(truth_vector(3, Variant.NM, f))
            b = np.array(truth_vector(3, Variant.NM_MINUS, f))
            assert count_models(f, 3, THREE) == (a[three] == 8).sum()
            assert count_models(f, 3, TWO) == (b[two] == 7).sum()
            assert is_tautology(3, Variant.NM, f) == (a == 8).all()
            assert is_tautology(3, Variant.NM_MINUS, f) == (b == 7).all()
            # f proves g iff f^2 <= g pointwise; f^2 is f above the midpoint, else 0.
            square = np.where(2 * a > 8, a, 0)
            for g in (psi, Or(f, psi)):
                c = np.array(truth_vector(3, Variant.NM, g))
                assert proves(3, Variant.NM, f, g) == (square <= c).all()
            for j in rng.sample(range(len(grid)), 12):
                point = {v + 1: Fraction(grid[j][v], 8) for v in range(3)}
                assert eval_standard(f, point) == Fraction(int(a[j]), 8)
