from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmlogic import (
    BOT,
    TOP,
    And,
    Bot,
    Iff,
    Implies,
    NMChain,
    Not,
    Or,
    ParseError,
    Square,
    Strong,
    Top,
    Var,
    AssignmentSpace,
    EvaluationError,
    desugar,
    count_models,
    eval_chain,
    eval_standard,
    format_formula,
    parse,
    random_formula,
    variables,
)
from nmlogic.formula import _NEG, _RESIDUUM, _TNORM, Program, program, subformulas


def formulas(max_vars=3, max_leaves=25):
    leaves = st.one_of(
        st.builds(Var, st.integers(1, max_vars)), st.just(BOT), st.just(TOP)
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Strong, inner, inner),
            st.builds(Implies, inner, inner),
            st.builds(Iff, inner, inner),
            st.builds(Not, inner),
            st.builds(Square, inner),
        ),
        max_leaves=max_leaves,
    )


def shape(f):
    """The iterative post-order walk of ``f``; with each node's arity known, it
    fixes the tree.  Dataclass equality recurses, so deep trees compare this."""
    return [(type(node), getattr(node, "index", None)) for node in subformulas(f)]


def test_parse_examples():
    assert parse("x1 & ~x1") == And(Var(1), Not(Var(1)))
    assert parse("(x1 <-> ~x1)^2 & x1") == And(Square(Iff(Var(1), Not(Var(1)))), Var(1))
    assert parse("0") == BOT
    assert parse("1") == TOP
    assert parse("x12") == Var(12)


def test_parse_error_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse("x1 -> -> x2")
    assert err.value.position == 6
    assert any("variable" in token for token in err.value.expected)


def test_parse_rejects_variable_zero():
    with pytest.raises(ParseError):
        parse("x0")


def test_parse_rejects_trailing_and_garbage():
    for text, message, position, expected in (
        ("x1 x2", "trailing input", 3, ("a binary connective", "end of input")),
        ("(x1 -> x2", "unclosed parenthesis", 9, ("')'",)),
        ("(x1 x2)", "unclosed parenthesis", 4, ("')'",)),
        ("x1)", "trailing input", 2, ("a binary connective", "end of input")),
        ("", "expected a formula", 0, ("'~'", "'0'", "'1'", "a variable 'xN'", "'('")),
        ("x1 @ x2", "unexpected character '@'", 3, ()),
        ("x1 ^3", "unexpected character '^'", 3, ()),
        ("x1 & x" + "9" * 5000, "variable index is too long", 5, ()),
        # Of several errors the leftmost in the text is reported, lexical or not.
        ("x1 x2 @", "trailing input", 3, ("a binary connective", "end of input")),
        ("x1 & @ x0", "unexpected character '@'", 5, ()),
        ("x2x0", "variable index must be >= 1", 2, ()),
        # Whitespace, newlines included, before the end of the text.
        (" \n ", "expected a formula", 3, ("'~'", "'0'", "'1'", "a variable 'xN'", "'('")),
        ("x1 ->\n", "expected a formula", 6, ("'~'", "'0'", "'1'", "a variable 'xN'", "'('")),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value).startswith(f"{message} at position {position}")
        assert (err.value.position, err.value.expected) == (position, expected)
    for text in ("x1\n", "x1\t\n "):
        assert parse(text) == Var(1)


# Token pieces, some of them malformed, for generated parser input.
_PIECES = ["x1", "x2", "x0", "0", "1", "~", "(", ")", "^2", "*", "&", "|", "->", "<->",
           "^3", "@", " "]


def rebuilt(f):
    """``f`` made again from fresh node objects, which hold no program; each
    constant becomes one fresh node, shared as ``parse`` shares ``BOT`` and ``TOP``."""
    fresh = {}
    for node in subformulas(f):
        kind = type(node)
        if kind is Var:
            new = Var(node.index)
        elif kind in (Bot, Top):
            new = kind()
        elif kind in (Not, Square):
            new = kind(fresh[id(node.child)])
        else:
            new = kind(fresh[id(node.left)], fresh[id(node.right)])
        fresh[id(node)] = new
    return fresh[id(f)]


def assert_parse_compiled_as_the_walk(f):
    # A Program compares variables, steps and result.
    held = f.__dict__["_program"]
    assert held == program(rebuilt(f))
    assert program(f) is held


@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
def test_parse_returns_a_formula_or_raises_parse_error(text):
    try:
        f = parse(text)
    except ParseError:
        return
    assert_parse_compiled_as_the_walk(f)
    assert shape(parse(format_formula(f))) == shape(f)


def _random_texts(n):
    rng = Random(f"parse compiles/{n}")
    return [format_formula(random_formula(rng, n, depth)) for depth in range(8) for _ in range(4)]


@pytest.mark.parametrize("texts", [
    *(pytest.param(_random_texts(n), id=f"random-over-{n}-variables") for n in range(1, 6)),
    pytest.param(["0", "1", "0 & 0"], id="constants"),
    pytest.param([" & ".join(["x1"] * 5000)], id="5000-long-conjunction"),
    pytest.param(["(" * 5000 + "x1" + ")" * 5000], id="5000-deep-parentheses"),
])
def test_parse_leaves_the_program_the_walk_gives(texts):
    for text in texts:
        assert_parse_compiled_as_the_walk(parse(text))


def test_associativity():
    assert parse("x1 -> x2 -> x3") == Implies(Var(1), Implies(Var(2), Var(3)))
    assert parse("x1 & x2 & x3") == And(And(Var(1), Var(2)), Var(3))
    assert parse("x1 <-> x2 <-> x3") == Iff(Iff(Var(1), Var(2)), Var(3))


def test_precedence():
    assert parse("x1 | x2 & x3") == Or(Var(1), And(Var(2), Var(3)))
    assert parse("x1 & x2 * x3") == And(Var(1), Strong(Var(2), Var(3)))
    assert parse("~x1^2") == Not(Square(Var(1)))
    assert parse("~x1 * x2") == Strong(Not(Var(1)), Var(2))
    assert parse("x1 & x2 -> x3") == Implies(And(Var(1), Var(2)), Var(3))


def test_format_examples():
    assert format_formula(And(Var(1), Not(Var(1)))) == "x1 & ~x1"
    assert format_formula(Square(Var(1))) == "x1^2"
    assert format_formula(Implies(Implies(Var(1), Var(2)), Var(2))) == "(x1 -> x2) -> x2"
    assert format_formula(Square(Not(Var(1)))) == "(~x1)^2"
    assert format_formula(Implies(Var(1), Implies(Var(2), Var(2)))) == "x1 -> x2 -> x2"


@given(formulas())
def test_format_round_trips(f):
    assert parse(format_formula(f)) == f


def test_desugar_examples():
    assert desugar(Not(Var(1))) == Implies(Var(1), BOT)
    assert desugar(TOP) == Implies(BOT, BOT)
    a, b = Var(1), Var(2)
    assert desugar(Or(a, b)) == And(
        Implies(Implies(a, b), b), Implies(Implies(b, a), a)
    )
    assert desugar(Iff(a, b)) == Strong(Implies(a, b), Implies(b, a))
    assert desugar(Square(a)) == Strong(a, a)
    # The output is the folded program: x1 & 0 = 0 and x1 <-> 0 = ~x1.
    assert desugar(And(a, BOT)) == BOT
    assert desugar(Iff(a, BOT)) == Implies(a, BOT)


@given(formulas())
def test_desugar_emits_core_fragment_only(f):
    for node in subformulas(desugar(f)):
        assert isinstance(node, (Var, Bot, And, Strong, Implies))


@settings(max_examples=40, deadline=None)
@given(formulas(max_vars=2, max_leaves=12))
def test_desugar_preserves_evaluation(f):
    g = desugar(f)
    for k in (2, 3, 4, 5, 9):
        chain = NMChain(k)
        for i in range(k):
            for j in range(k):
                env = {1: chain.value(i), 2: chain.value(j)}
                assert eval_chain(f, chain, env) == eval_chain(g, chain, env)


def test_variables_examples():
    assert variables(BOT) == set()
    assert variables(parse("(x1 <-> ~x1)^2 & x1")) == {1}
    assert variables(Implies(Var(2), Var(5))) == {2, 5}


def test_variables_linear_on_shared_subtrees():
    # A tower of shared nodes is exponential as a tree; traversal must not be.
    node = Var(1)
    for _ in range(60):
        node = And(node, node)
    assert variables(node) == {1}


def test_var_index_validation():
    with pytest.raises(ValueError):
        Var(0)


def test_random_formula_reproducible_and_bounded():
    first = random_formula(Random(7), 2, 5)
    second = random_formula(Random(7), 2, 5)
    assert first == second

    def depth(f):
        if isinstance(f, (Var, Bot, Top)):
            return 0
        if isinstance(f, (Not, Square)):
            return 1 + depth(f.child)
        return 1 + max(depth(f.left), depth(f.right))

    rng = Random(99)
    for _ in range(50):
        f = random_formula(rng, 3, 4)
        assert depth(f) <= 4
        assert variables(f) <= {1, 2, 3}


def test_top_is_sugar_for_implication_from_bot():
    assert Top() == TOP
    assert desugar(TOP) == Implies(BOT, BOT)


def test_evaluate_rejects_a_node_that_is_not_a_formula():
    class V(Var):
        pass

    class A(And):
        pass

    chain = NMChain(3)
    good = Not(Var(1))
    # Every walk dispatches on the exact node type, so subclasses are refused too.
    for f in (And(Var(1), "x1"), Not(None), 1, None, V(1), A(Var(1), Var(2)), Not(V(1))):
        # A compiled formula in the memo does not let a bad one through.
        assert eval_chain(good, chain, {1: chain.top}) == chain.bottom
        with pytest.raises(TypeError):
            program(f)
        with pytest.raises(TypeError):
            eval_chain(f, chain, {1: chain.top})
        with pytest.raises(TypeError):
            desugar(f)
        with pytest.raises(TypeError):
            format_formula(f)
        with pytest.raises(TypeError):
            variables(f)
        assert eval_chain(good, chain, {1: chain.bottom}) == chain.top


def test_program_is_flat_and_shares_repeated_subtrees():
    x1, x2 = Var(1), Var(2)
    shared = Strong(x1, x2)
    code = program(Iff(Square(shared), Not(shared)))
    # x1 and x2 fill slots 2 and 3, and each step the next slot: the shared
    # fusion compiles once, into slot 4, and both its parents read it.
    assert code == Program(
        variables=(1, 2),
        steps=((_TNORM, 2, 3), (_TNORM, 4, 4), (_NEG, 4, 4),
               (_RESIDUUM, 5, 6), (_RESIDUUM, 6, 5), (_TNORM, 7, 8)),
        result=9,
    )
    assert program(TOP) == Program(variables=(), steps=(), result=1)


def test_a_shared_subtree_with_a_constant_operand_folds_once():
    shared = Strong(Var(1), BOT)
    # x1 * 0 = 0, so 0^2 = 0, ~0 = 1 and 0 <-> 1 = 0: no step is left, but
    # x1 is still bound.
    code = program(Iff(Square(shared), Not(shared)))
    assert code == Program(variables=(1,), steps=(), result=0)


def test_alternating_formulas_each_get_their_own_value():
    chain = NMChain(3)
    f, g = parse("x1 -> x2"), parse("x2 -> x1")
    env = {1: chain.top, 2: chain.value(1)}
    for h, expected in ((f, 1), (g, 2), (f, 1), (f, 1), (g, 2)):
        assert eval_chain(h, chain, env).index == expected
        assert eval_standard(h, {1: Fraction(1), 2: Fraction(1, 2)}) == Fraction(expected, 2)


def test_memo_matches_equal_deep_formulas_by_identity():
    # Two equal but distinct 5000-deep formulas: matching them with == would
    # recurse past the interpreter's limit.
    def deep(tail):
        f = Var(1)
        for _ in range(5000):
            f = And(f, tail)
        return f

    f, g = deep(Var(1)), deep(Not(Var(1)))
    f2, g2 = deep(Var(1)), deep(Not(Var(1)))
    chain = NMChain(3)
    for _ in range(2):
        for h, h2, vector, models in ((f, f2, [0, 1, 2], 1), (g, g2, [0, 1, 0], 0)):
            assert [eval_chain(h, chain, {1: x}).index for x in chain.values()] == vector
            assert count_models(h2, 1, AssignmentSpace.TWO) == models
            assert eval_chain(h2, chain, {1: chain.top}).index == vector[2]
            assert count_models(h, 1, AssignmentSpace.THREE) == models
    assert program(f) is program(f)


def test_program_survives_compiling_a_formula_built_on_it():
    # A formula built on phi, such as phi^2 -> psi, may be compiled between
    # two evaluations of phi; phi's program must still be the one compiled first.
    g, h = parse("(x1 -> x2) & ~x3"), parse("x2 | x3^2")
    code = program(g)
    program(Implies(Square(g), h))
    assert program(g) is code


def test_a_reused_id_never_gets_a_stale_program():
    # Each formula is dropped once compiled, so its id can come back at once;
    # shapes vary with i, so a program matched by a stale id would have the
    # wrong length or variable.
    ids = []
    for i in range(400):
        f = Var(i % 3 + 1)
        for _ in range(i % 5):
            f = Not(f)
        ids.append(id(f))
        negations = tuple((_NEG, slot, slot) for slot in range(2, 2 + i % 5))
        expected = Program((i % 3 + 1,), negations, 2 + i % 5)
        assert program(f) == expected
        del f
    assert len(set(ids)) < len(ids)


def test_a_held_formula_keeps_its_program_while_others_compile():
    f = parse("(x1 -> x2) & ~x3")
    code = program(f)
    for i in range(100):
        program(Strong(Var(i + 1), Not(Var(i + 2))))
    assert program(f) is code


def test_programs_of_dropped_formulas_are_released():
    import gc
    import tracemalloc

    program(Implies(Var(1), Not(Var(2))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20_000):
            program(Implies(Var(i + 1), Not(And(Var(i + 2), Var(i + 3)))))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024


def test_compiling_leaves_equality_hash_repr_printing_and_copies_unchanged():
    import copy

    text = "(x1 -> x2) & ~x3 | x1^2 <-> 1"
    f, g = parse(text), parse(text)
    before = (hash(f), repr(f), format_formula(f), copy.copy(f))
    code = program(f)
    assert f == g and g == f
    assert (hash(f), repr(f), format_formula(f)) == before[:3] == (hash(g), repr(g), text)
    assert copy.copy(f) == before[3] == f
    assert program(copy.copy(f)) == program(g) == code


def test_memoised_program_still_names_an_unbound_variable():
    chain = NMChain(3)
    f = parse("x1 & x12345")
    assert eval_chain(f, chain, {1: chain.top, 12345: chain.top}) == chain.top
    with pytest.raises(EvaluationError, match="x12345"):
        eval_chain(f, chain, {1: chain.top})
    with pytest.raises(EvaluationError, match="x12345"):
        eval_standard(f, {1: Fraction(1)})


def test_walks_handle_formulas_nested_5000_deep():
    from nmlogic import Variant, truth_vector

    conjunction, negation = Var(1), Var(1)
    for _ in range(5000):
        conjunction, negation = And(conjunction, Var(1)), Not(negation)
    chain = NMChain(5)
    for x in chain.values():
        assert eval_chain(conjunction, chain, {1: x}) == x
        assert eval_chain(negation, chain, {1: x}) == x
        assert eval_chain(desugar(negation), chain, {1: x}) == x
    core = desugar(negation)
    assert sum(isinstance(node, Implies) for node in subformulas(core)) == 5000
    assert truth_vector(1, Variant.NM, conjunction) == (0, 1, 2, 3, 4)
    assert truth_vector(1, Variant.NM, negation) == (0, 1, 2, 3, 4)
    assert shape(parse(format_formula(conjunction))) == shape(conjunction)
    assert format_formula(negation) == "~" * 5000 + "x1"
