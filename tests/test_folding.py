"""Constant folding in the compiled program, checked against a plain tree walk.

:func:`nmlogic.formula.program` folds away every step with a constant or a
repeated operand, once for every algebra.  The reference here never reads a
program: it walks the formula as written, with an explicit stack, and applies
``NMChain``'s public connectives or ``STANDARD``'s functions at every node.
"""

import itertools
from fractions import Fraction
from random import Random

import pytest

from nmlogic import (
    And,
    AssignmentSpace,
    Bot,
    EvaluationError,
    Iff,
    Implies,
    NMChain,
    Not,
    Or,
    Square,
    Strong,
    Top,
    Var,
    Variant,
    count_models,
    desugar,
    eval_chain,
    eval_standard,
    generic_chain_size,
    parse,
    random_formula,
    truth_vector,
    variables,
)
from nmlogic.chain import STANDARD, eval_grid, grid_assignments, grid_coordinates, shared_chain
from nmlogic.formula import _NEG, _TNORM, program


def walk(f, algebra, env):
    """The value of ``f`` in ``algebra``, one connective call per node as written."""
    out = []
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        kind = type(node)
        if kind is Var:
            out.append(env[node.index])
        elif kind is Bot:
            out.append(algebra.bottom)
        elif kind is Top:
            out.append(algebra.top)
        elif not ready:
            stack.append((node, True))
            if kind in (Not, Square):
                stack.append((node.child, False))
            else:
                stack += [(node.right, False), (node.left, False)]
        elif kind is Not:
            out.append(algebra.neg(out.pop()))
        elif kind is Square:
            a = out.pop()
            out.append(algebra.tnorm(a, a))
        else:
            b, a = out.pop(), out.pop()
            if kind is And:
                out.append(algebra.meet(a, b))
            elif kind is Or:
                out.append(algebra.join(a, b))
            elif kind is Strong:
                out.append(algebra.tnorm(a, b))
            elif kind is Implies:
                out.append(algebra.residuum(a, b))
            else:
                assert kind is Iff
                out.append(algebra.tnorm(algebra.residuum(a, b), algebra.residuum(b, a)))
    [value] = out
    return value


def seeded_formulas(count=300):
    """Formulas over x1..xn, n <= 2, with 0 and 1 among the leaves."""
    rng = Random(29)
    for _ in range(count):
        n = rng.randint(0, 2)
        yield n, random_formula(rng, n, rng.randint(1, 5))


def has_constant_leaf(f):
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (Bot, Top)):
            return True
        stack += [getattr(node, name) for name in ("left", "right", "child") if hasattr(node, name)]
    return False


def test_every_route_agrees_with_the_plain_walk():
    checked = with_constants = 0
    for n, f in seeded_formulas():
        core = desugar(f)
        for k in range(2, 8):
            chain = NMChain(k)
            expected = [walk(f, chain, env) for env in grid_assignments(chain, n)]
            assert [eval_chain(f, chain, env) for env in grid_assignments(chain, n)] == expected
            assert [eval_chain(core, chain, env) for env in grid_assignments(chain, n)] == expected
            assert eval_grid(f, chain, n).tolist() == [value.index for value in expected]
            for point, value in zip(grid_coordinates(k, n).T.tolist(), expected):
                env = {i: Fraction(x, k - 1) for i, x in enumerate(point, 1)}
                assert eval_standard(f, env) == walk(f, STANDARD, env) == value.as_fraction
        for variant in Variant:
            chain = shared_chain(generic_chain_size(n, variant))
            assert truth_vector(n, variant, f) == tuple(
                walk(f, chain, env).index for env in grid_assignments(chain, n))
        checked += 1
        with_constants += has_constant_leaf(f)
    assert checked == 300 and with_constants >= 200


@pytest.mark.parametrize("text", [
    "x1 & 0", "0 & x1", "x1 & 1", "x1 | 0", "x1 | 1", "x1 * 1", "x1 * 0", "0 -> x1",
    "x1 -> 1", "1 -> x1", "x1 <-> 1", "1 <-> x1", "x1 & x1", "x1 | x1", "x1 -> x1",
    "x1 <-> x1", "~0", "~1", "1^2", "0^2",
])
def test_each_law_compiles_to_no_step(text):
    code = program(parse(text))
    assert code.steps == ()
    assert code.variables == tuple(sorted(variables(parse(text))))


@pytest.mark.parametrize("text", ["x1 -> 0", "x1 <-> 0", "0 <-> x1", "~x1", "~x1 & 1"])
def test_implication_into_bottom_compiles_to_one_negation(text):
    assert program(parse(text)).steps == ((_NEG, 2, 2),)


def test_equal_subtrees_compile_once_even_as_distinct_objects():
    # Both fusions are one step, so the meet has a repeated operand.
    f = parse("(x1 * x2) & (x1 * x2)")
    assert f.left is not f.right
    assert program(f).steps == ((_TNORM, 2, 3),)
    assert program(parse("~x1 | (x1 -> 0)")).steps == ((_NEG, 2, 2),)


def test_square_and_fusion_of_a_variable_with_itself_are_kept():
    # x * x is not x in NM, so only the constant laws fold a fusion.
    chain = NMChain(5)
    for text in ("x1^2", "x1 * x1"):
        assert len(program(parse(text)).steps) == 1
        assert [eval_chain(parse(text), chain, {1: x}).index for x in chain.values()] == [
            0, 0, 0, 3, 4]


def test_unbound_variables_still_fail_after_folding():
    f = parse("x3 & 0")
    assert variables(f) == {3}
    assert program(f).steps == ()
    chain = NMChain(3)
    with pytest.raises(EvaluationError, match="x3"):
        eval_chain(f, chain, {1: chain.top})
    with pytest.raises(EvaluationError, match="x3"):
        eval_grid(f, chain, 2)
    with pytest.raises(EvaluationError, match="x3"):
        truth_vector(2, Variant.NM, f)
    with pytest.raises(EvaluationError, match="x3"):
        eval_standard(f, {1: Fraction(1)})
    for space in AssignmentSpace:
        with pytest.raises(EvaluationError, match="x3"):
            count_models(f, 2, space)
    # Bound, it is the constant it folds to.
    assert count_models(f, 3, AssignmentSpace.THREE) == 0
    k = generic_chain_size(3, Variant.NM_MINUS)
    assert truth_vector(3, Variant.NM_MINUS, parse("x3 | 1")) == (k - 1,) * k**3


def test_an_unbound_variable_is_named_in_the_order_the_formula_binds():
    chain = NMChain(3)
    for text in ("x1 -> 1 & x7", "(x7 * 0) | x1"):
        with pytest.raises(EvaluationError, match="x7"):
            eval_chain(parse(text), chain, {1: chain.top})


def test_folding_keeps_every_chain_size_at_every_point_for_the_laws():
    # Each law at every point of sizes 2-7, against the walk.
    laws = [cls(a, b) for cls in (And, Or, Strong, Implies, Iff)
            for a, b in itertools.product(map(parse, ("0", "1", "x1", "~x1")), repeat=2)]
    laws += [cls(a) for cls in (Not, Square) for a in map(parse, ("0", "1", "x1"))]
    for k in range(2, 8):
        chain = NMChain(k)
        for f in laws:
            for x in chain.values():
                assert eval_chain(f, chain, {1: x}) == walk(f, chain, {1: x}), (k, f)
