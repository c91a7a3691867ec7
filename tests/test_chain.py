import functools
import itertools
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_formula import formulas
from test_free_algebra import TABLE_FORMS, use_table_form

from nmlogic import (
    TOP,
    And,
    Iff,
    Implies,
    Not,
    Or,
    Square,
    Strong,
    ChainValue,
    NMChain,
    Variant,
    build,
    eval_chain,
    eval_standard,
    generic_chain_size,
    parse,
    random_formula,
    truth_vector,
    variables,
)
from nmlogic import chain as chain_module
from nmlogic import free_algebra
from nmlogic.chain import (
    MAX_GRID_POINTS,
    STANDARD,
    EvaluationError,
    eval_grid,
    grid_assignments,
    grid_coordinates,
    grid_points,
    residuum_block,
    shared_chain,
    sign_blocks,
    tnorm_block,
)

CHAIN_SIZES = range(2, 10)


def standard_tnorm_table(k):
    # Oracle: the defining formula on [0,1], min{x,y} if x+y>1 else 0,
    # transported to indices via i/(k-1).
    table = {}
    for i in range(k):
        for j in range(k):
            x, y = Fraction(i, k - 1), Fraction(j, k - 1)
            value = min(x, y) if x + y > 1 else Fraction(0)
            table[i, j] = int(value * (k - 1))
    return table


@pytest.mark.parametrize("k", CHAIN_SIZES)
def test_tnorm_matches_standard_table(k):
    chain = NMChain(k)
    table = standard_tnorm_table(k)
    for i in range(k):
        for j in range(k):
            assert chain.tnorm(chain.value(i), chain.value(j)).index == table[i, j]


@pytest.mark.parametrize("k", CHAIN_SIZES)
def test_chain_connectives_match_standard_on_every_pair(k):
    # STANDARD is the independent Fraction body of the same connectives.
    chain = NMChain(k)
    assert chain.bottom.as_fraction == STANDARD.bottom
    assert chain.top.as_fraction == STANDARD.top
    for i in range(k):
        x = Fraction(i, k - 1)
        assert chain.neg(chain.value(i)).as_fraction == STANDARD.neg(x)
        for j in range(k):
            y = Fraction(j, k - 1)
            for op in ("meet", "join", "tnorm", "residuum"):
                via_chain = getattr(chain, op)(chain.value(i), chain.value(j))
                assert via_chain.as_fraction == getattr(STANDARD, op)(x, y), (op, i, j)


@pytest.mark.parametrize("k", CHAIN_SIZES)
def test_residuum_is_largest_compatible_factor(k):
    # Oracle: x -> y must be the largest z with x (*) z <= y.
    chain = NMChain(k)
    for x in chain.values():
        for y in chain.values():
            best = max(
                (z for z in chain.values() if chain.tnorm(x, z).index <= y.index),
                key=lambda z: z.index,
            )
            assert chain.residuum(x, y) == best


def test_tnorm_examples():
    three = NMChain(3)
    assert three.tnorm(three.value(1), three.value(1)) == three.bottom
    four = NMChain(4)
    assert four.tnorm(four.value(2), four.value(2)) == four.value(2)
    for k in CHAIN_SIZES:
        chain = NMChain(k)
        for x in chain.values():
            assert chain.tnorm(chain.top, x) == x


def test_residuum_examples():
    four = NMChain(4)
    assert four.residuum(four.value(2), four.value(1)) == four.value(1)
    three = NMChain(3)
    assert three.residuum(three.value(2), three.value(1)) == three.value(1)
    for x in four.values():
        assert four.residuum(x, x) == four.top


def test_neg_examples():
    five = NMChain(5)
    assert five.neg(five.value(1)) == five.value(3)
    three = NMChain(3)
    assert three.neg(three.value(1)) == three.value(1)
    for k in CHAIN_SIZES:
        chain = NMChain(k)
        for x in chain.values():
            assert chain.neg(chain.neg(x)) == x


def test_fixpoint_exists_iff_odd():
    for k in CHAIN_SIZES:
        chain = NMChain(k)
        if k % 2 == 1:
            f = chain.fixpoint
            assert f is not None and chain.neg(f) == f
            # The chain's own value, which negation and evaluation return.
            assert f is chain.value((k - 1) // 2) is chain.neg(f)
            assert eval_chain(parse("~x1"), chain, {1: f}) is f
        else:
            assert chain.fixpoint is None
            assert all(chain.neg(x) != x for x in chain.values())


@pytest.mark.parametrize("k", CHAIN_SIZES)
def test_residuation_prelinearity_wnm(k):
    chain = NMChain(k)
    values = chain.values()
    for x in values:
        for y in values:
            r = chain.residuum(x, y)
            for z in values:
                assert (chain.tnorm(x, z).index <= y.index) == (z.index <= r.index)
            assert chain.join(r, chain.residuum(y, x)) == chain.top
            fused = chain.tnorm(x, y)
            wnm = chain.join(
                chain.neg(fused), chain.residuum(chain.meet(x, y), fused)
            )
            assert wnm == chain.top


FIXPOINT_FREE_AXIOM = parse("~(~x1^2)^2 <-> (~(~x1)^2)^2")


@pytest.mark.parametrize("k", CHAIN_SIZES)
def test_fixpoint_free_axiom_separates_parities(k):
    chain = NMChain(k)
    results = [eval_chain(FIXPOINT_FREE_AXIOM, chain, {1: x}) for x in chain.values()]
    if k % 2 == 0:
        assert all(r == chain.top for r in results)
    else:
        # Fails at the fixpoint and only there, with value bottom.
        for x, r in zip(chain.values(), results):
            if x == chain.fixpoint:
                assert r == chain.bottom
            else:
                assert r == chain.top


def test_idempotents_of_four_chain():
    four = NMChain(4)
    idem = [x.index for x in four.values() if four.tnorm(x, x) == x]
    assert idem == [0, 2, 3]


ALPHA = parse("(x1 <-> ~x1)^2 & x1")


def test_eval_chain_examples():
    three = NMChain(3)
    assert eval_chain(ALPHA, three, {1: three.value(1)}) == three.value(1)
    assert eval_chain(ALPHA, three, {1: three.value(2)}) == three.bottom
    assert eval_chain(parse("0"), three, {}) == three.bottom


def test_eval_chain_missing_binding():
    with pytest.raises(EvaluationError):
        eval_chain(parse("x1"), NMChain(3), {})


def test_eval_chain_foreign_value_rejected():
    with pytest.raises(ValueError):
        eval_chain(parse("x1"), NMChain(3), {1: ChainValue(1, 4)})
    with pytest.raises(ValueError):
        eval_chain(parse("x1"), shared_chain(3), {1: shared_chain(4).value(1)})
    # A foreign value after an own one is named as the chain's connectives name it.
    three = shared_chain(3)
    with pytest.raises(ValueError, match="value from chain of size 4 used in chain of size 3"):
        eval_chain(parse("x1 & x2"), three, {1: three.top, 2: ChainValue(1, 4)})
    with pytest.raises(ValueError):
        NMChain(4).tnorm(ChainValue(1, 4), ChainValue(1, 5))


def test_chains_of_many_sizes_leave_nothing_behind():
    import tracemalloc

    # Each chain owns its scalar connectives; a cache keyed by chain size
    # would keep one namespace for every size ever built.
    f = parse("x1 -> ~x1")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(2, 5002):
            chain = NMChain(k)
            assert eval_chain(f, chain, {1: chain.top}) == chain.bottom
        del chain
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2**20


def test_eval_standard_examples():
    assert eval_standard(ALPHA, {1: Fraction(1, 2)}) == Fraction(1, 2)
    # At 3/4 the biconditional comes out at 1/4, its square collapses to 0,
    # and the final conjunct cannot raise it: exact value 0 (in particular < 1).
    assert eval_standard(ALPHA, {1: Fraction(3, 4)}) == 0
    assert eval_standard(parse("1"), {}) == 1
    # Values that are not Fractions yet are read exactly.
    for value, negation in ((1, 0), ("2/3", Fraction(1, 3)), (0.75, Fraction(1, 4))):
        for text, want in (("x1", 1 - negation), ("~x1", negation)):
            got = eval_standard(parse(text), {1: value})
            assert (type(got), got) == (Fraction, want)


def test_eval_standard_rejects_out_of_range():
    with pytest.raises(EvaluationError):
        eval_standard(parse("x1"), {1: Fraction(5, 4)})
    for value in (1.5, "-1/2"):
        with pytest.raises(EvaluationError, match="outside"):
            eval_standard(parse("x1"), {1: value})


def test_alpha_never_true_on_standard_samples():
    for denominator in range(1, 12):
        for numerator in range(denominator + 1):
            value = eval_standard(ALPHA, {1: Fraction(numerator, denominator)})
            assert value < 1


def test_chain_agrees_with_standard_on_chain_rationals():
    rng = Random(20240)
    for _ in range(30):
        f = random_formula(rng, 2, rng.randrange(6))
        for k in (2, 3, 5, 9):
            chain = NMChain(k)
            for i in range(k):
                for j in range(k):
                    via_chain = eval_chain(
                        f, chain, {1: chain.value(i), 2: chain.value(j)}
                    ).as_fraction
                    via_standard = eval_standard(
                        f, {1: Fraction(i, k - 1), 2: Fraction(j, k - 1)}
                    )
                    assert via_chain == via_standard


@pytest.mark.parametrize("k", CHAIN_SIZES)
def test_vector_kernels_match_scalar_ops(k):
    chain = NMChain(k)
    pairs = [(i, j) for i in range(k) for j in range(k)]
    a = np.array([i for i, _ in pairs], dtype=np.uint8)
    b = np.array([j for _, j in pairs], dtype=np.uint8)
    fused = tnorm_block(k - 1, a, b)
    implied = residuum_block(k - 1, a, b)
    for idx, (i, j) in enumerate(pairs):
        assert fused[idx] == chain.tnorm(chain.value(i), chain.value(j)).index
        assert implied[idx] == chain.residuum(chain.value(i), chain.value(j)).index


@st.composite
def operand_shapes(draw):
    """Equal shapes, numpy-broadcastable shapes, or a column against a row."""
    kind = draw(st.sampled_from(["equal", "broadcast", "outer"]))
    if kind == "equal":
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=6))
        return shape, shape
    if kind == "broadcast":
        return draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_side=6)).input_shapes
    size = draw(st.integers(1, 12))
    return (size, 1), (1, size)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.sampled_from([np.uint8, np.int64]), operand_shapes(), st.data())
def test_mask_kernels_match_scalar_ops_in_every_shape(top, dtype, shapes, data):
    # Closure and grids pass uint8; any integer dtype works, and the result
    # keeps it.
    chain = NMChain(top + 1)
    a, b = (data.draw(hnp.arrays(dtype, shape, elements=st.integers(0, top)))
            for shape in shapes)
    fused, implied = tnorm_block(top, a, b), residuum_block(top, a, b)
    assert fused.dtype == implied.dtype == dtype
    wide_a, wide_b = np.broadcast_arrays(a, b)
    assert fused.shape == implied.shape == wide_a.shape
    for idx in np.ndindex(wide_a.shape):
        x, y = chain.value(int(wide_a[idx])), chain.value(int(wide_b[idx]))
        assert fused[idx] == chain.tnorm(x, y).index
        assert implied[idx] == chain.residuum(x, y).index


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 9), st.integers(1, 6), st.data())
def test_table_keys_are_one_vector_wide(top, width, size, data):
    # A silent upcast would widen every key and break the id of each vector.
    snapshot = data.draw(hnp.arrays(np.uint8, (size, width), elements=st.integers(0, top)))
    rows, cols = np.divmod(np.arange(size * size), size)
    a, b = snapshot[rows], snapshot[cols]
    expected = np.stack((np.minimum(a, b), np.maximum(a, b),
                         tnorm_block(top, a, b), residuum_block(top, a, b)), axis=1)
    vectors = expected.reshape(-1, width).tolist()
    k = top + 1
    ops = functools.partial(free_algebra._connectives, top)
    # The factor route's layout: (pairs, 4, width) over (pairs, width, 4) memory.
    view = np.moveaxis(np.ascontiguousarray(np.moveaxis(expected, 1, 2)), 2, 1)
    assert width == 1 or not view.flags.c_contiguous
    for form in TABLE_FORMS:
        with pytest.MonkeyPatch.context() as patch:
            use_table_form(patch, form)
            table = free_algebra._Table([k] * width, size * size)
        [(_, _, results, keys)] = free_algebra._slabs(ops, snapshot, 0, table)
        # Result [p, op] is pair p under _OP_TAGS[op]; key 4p + op is its key.
        assert results.dtype == np.uint8 and results.shape == (size * size, 4, width)
        assert results.tolist() == expected.tolist() and results.flags.c_contiguous
        if k**width > form[1]:
            assert keys.dtype.kind == "V"
            assert keys.tolist() == [bytes(v) for v in vectors]  # trailing zeros kept
        else:
            assert keys.tolist() == [sum(x * k**j for j, x in enumerate(v)) for v in vectors]
        assert table.keys(view).tolist() == keys.tolist()
        # The distinct vectors but the last get ids from 5 on; the last has none.
        distinct = np.unique(results.reshape(-1, width), axis=0)
        table.add(table.keys(distinct[:-1]), 5)
        assert table.lookup(table.keys(distinct)).tolist() == [*range(5, 4 + len(distinct)), -1]


@pytest.mark.parametrize("size,n,sizes", [
    (6, 2, [9] * 4),
    (7, 2, [9, 3, 9, 3, 1, 3, 9, 3, 9]),
    (5, 1, [2, 1, 2]),
    (4, 1, [2, 2]),
    (5, 0, [1]),
    (7, 3, None),
])
def test_sign_blocks_split_the_grid_by_sign_pattern(size, n, sizes):
    # Each x_i lies below (-1), at (0) or above (1) its negation size-1-x_i.
    def pattern(point):
        return tuple((x > size - 1 - x) - (x < size - 1 - x) for x in point)

    blocks = sign_blocks(size, n)
    assert sizes is None or [len(b) for b in blocks] == sizes
    assert sorted(np.concatenate(blocks).tolist()) == list(range(size**n))
    points = list(itertools.product(range(size), repeat=n))
    patterns = []
    for block in blocks:
        assert block.tolist() == sorted(block.tolist())
        [signs] = {pattern(points[j]) for j in block.tolist()}
        patterns.append(signs)
    assert patterns == sorted(set(map(pattern, points)))


def test_chain_value_fraction_view():
    assert ChainValue(1, 3).as_fraction == Fraction(1, 2)
    assert ChainValue(3, 4).as_fraction == 1
    with pytest.raises(ValueError):
        ChainValue(4, 4)
    with pytest.raises(ValueError):
        ChainValue(0, 1)
    with pytest.raises(ValueError):
        NMChain(1)


def test_chains_and_values_print_and_hash_by_size():
    assert repr(ChainValue(1, 3)) == "ChainValue(1/2)"
    assert repr(NMChain(5)) == "NMChain(5)"
    assert hash(NMChain(5)) == hash(shared_chain(5))
    assert {NMChain(5): "five"}[shared_chain(5)] == "five"


def test_grid_assignments_order_and_edges():
    chain = NMChain(3)
    points = [(env[1].index, env[2].index) for env in grid_assignments(chain, 2)]
    assert points == [(i, j) for i in range(3) for j in range(3)]
    assert list(grid_assignments(chain, 0)) == [{}]
    with pytest.raises(ValueError):
        grid_assignments(chain, -1)


def test_grid_coordinates_follow_product_order_and_bound():
    for size in CHAIN_SIZES:
        for n in range(4):
            points = grid_coordinates(size, n)
            assert points.dtype == np.uint8
            assert [tuple(column) for column in points.T.tolist()] == list(
                itertools.product(range(size), repeat=n)
            )
    # The documented reach of the bound: nm and nm- to five generators,
    # {0, 1/2, 1} to twelve variables, {0, 1} to twenty.
    for variant in Variant:
        size = generic_chain_size(5, variant)
        assert grid_coordinates(size, 5).shape == (5, size**5)
        with pytest.raises(ValueError):
            grid_coordinates(generic_chain_size(6, variant), 6)
    assert MAX_GRID_POINTS == 2**20
    assert grid_coordinates(3, 12).shape == (12, 3**12)
    for size, n in ((3, 13), (2, 21), (2**20 + 1, 1), (27, 12), (3, 10**9)):
        with pytest.raises(ValueError):
            grid_coordinates(size, n)
    assert grid_coordinates(2**20, 1).shape == (1, 2**20)


def test_grids_are_shared_read_only_and_in_grid_order():
    # (32768, 1) is a uint16 grid of exactly the bound's 65,536 bytes, (32769, 1) two more.
    for size, n in ((9, 3), (8, 3), (3, 3), (2, 3), (3, 0), (300, 2), (2, 16), (32768, 1),
                    (32769, 1)):
        grid = grid_coordinates(size, n)
        assert grid.dtype == np.min_scalar_type(size - 1)
        assert np.array_equal(grid, np.indices((size,) * n, grid.dtype).reshape(n, size**n))
        # A grid over the shared bytes bound is made afresh, and read-only too.
        assert (grid_coordinates(size, n) is grid) == (
            grid.nbytes <= chain_module._SHARED_GRID_BYTES)
        with pytest.raises(ValueError, match="read-only"):
            grid[..., 0] = 1
    assert grid_coordinates(32768, 1).nbytes == chain_module._SHARED_GRID_BYTES == 65536
    assert shared_chain(9) is shared_chain(9) == NMChain(9)
    assert shared_chain(9).value(4) is shared_chain(9).value(4)


def test_shared_grids_chains_and_programs_stay_bounded():
    import gc
    import tracemalloc

    # The shared tables keep a few recent entries within their byte bounds:
    # not the 20 MiB grid, not one chain, grid or algebra per size, and not
    # the 1.9 MiB five-generator grid of either variant.
    f = parse("(x1 -> ~x1) & x1^2 | 1")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid_coordinates(2, 20)
        for k in range(2, 2002):
            eval_grid(f, NMChain(k), 1)
        for variant in Variant:
            for n in itertools.count():
                try:
                    grid_points(generic_chain_size(n, variant), n)
                except ValueError:
                    break
                truth_vector(n, variant, f if n else TOP)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2**20


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(0, 3), st.data())
def test_grid_evaluation_matches_scalar_at_every_point(k, n, data):
    f = data.draw(formulas(max_vars=max(n, 1)))
    chain = NMChain(k)
    # Small chunks split the grid into many pieces and leave a short last one.
    for chunk in (1, 7, chain_module._CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chain_module, "_CHUNK", chunk)
            if n == 0 and variables(f):
                with pytest.raises(EvaluationError):
                    eval_grid(f, chain, n)
                continue
            expected = [eval_chain(f, chain, env).index for env in grid_assignments(chain, n)]
            assert eval_grid(f, chain, n).tolist() == expected


@settings(max_examples=30, deadline=None)
@given(formulas(max_vars=1))
def test_grid_evaluation_past_256_elements(f):
    # grid_coordinates picks the index dtype: uint8 up to 256 elements, wider above.
    for k, dtype in ((256, np.uint8), (257, np.uint16), (300, np.uint16)):
        chain = NMChain(k)
        grid = eval_grid(f, chain, 1)
        assert grid.dtype == dtype
        assert grid.tolist() == [eval_chain(f, chain, env).index
                                 for env in grid_assignments(chain, 1)]


@pytest.mark.parametrize("n", range(3))
def test_grid_connectives_on_constant_operands_match_scalar(n):
    # Every connective with 0, 1, a variable or a negated variable on either
    # side, where the grid connectives return an operand or a constant as is.
    operands = [f for f in map(parse, ("0", "1", "x1", "~x1", "x2"))
                if max(variables(f), default=0) <= n]
    forms = [cls(a, b) for cls in (And, Or, Strong, Implies, Iff) for a in operands for b in operands]
    forms += [cls(a) for cls in (Not, Square) for a in operands]
    for k in CHAIN_SIZES:
        chain = NMChain(k)
        grid = grid_coordinates(k, n)
        expected = [[eval_chain(f, chain, env).index for env in grid_assignments(chain, n)]
                    for f in forms]
        for chunk in (1, 7, chain_module._CHUNK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(chain_module, "_CHUNK", chunk)
                for f, scalar in zip(forms, expected):
                    values = eval_grid(f, chain, n)
                    assert values.tolist() == scalar, (k, chunk, f)
                    assert values.shape == (grid.shape[1],) and values.dtype == grid.dtype
                    values[:] = k - 1 - values  # a fresh writable array, not the grid's rows
        assert np.array_equal(grid, np.indices((k,) * n, grid.dtype).reshape(n, k**n))


def test_grid_connectives_skip_the_kernels_on_constant_operands():
    calls = {"tnorm_block": 0, "residuum_block": 0}

    def counted(name):
        kernel = getattr(chain_module, name)

        def count(*args):
            calls[name] += 1
            return kernel(*args)
        return count

    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(chain_module, name, counted(name))
        for text in ("x1 -> 1", "(x1 * 0) | ~1"):
            # A new chain builds its grid connectives over the counted kernels.
            assert eval_grid(parse(text), NMChain(9), 2).size == 81
        assert calls == {"tnorm_block": 0, "residuum_block": 0}
        eval_grid(parse("(x1 * x2) -> x2"), NMChain(9), 2)
        assert calls == {"tnorm_block": 1, "residuum_block": 1}


def test_shared_chain_keeps_one_chain_per_size_for_the_sixteen_most_recent():
    assert shared_chain(9) is shared_chain(9)
    for variant in Variant:
        assert build(1, variant).chain is shared_chain(generic_chain_size(1, variant))
    # Sixteen sizes no other caller asks for are held at once; asking again
    # in the same order keeps 1000 the least recently used.
    sizes = range(1000, 1016)
    held = [shared_chain(k) for k in sizes]
    assert all(shared_chain(k) is chain for k, chain in zip(sizes, held))
    shared_chain(1016)  # the seventeenth distinct size
    assert shared_chain(1000) is not held[0]
    assert shared_chain(1000) == held[0]
