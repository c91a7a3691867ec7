import functools
import itertools
import math
import time
import warnings

import numpy as np
import pytest

from nmlogic import (
    ElementCapExceeded,
    FreeAlgebra,
    Variant,
    build,
    generic_chain_size,
    is_tautology,
    parse,
    proves,
    truth_vector,
)
from nmlogic import free_algebra
from nmlogic.chain import grid_coordinates, residuum_block, tnorm_block
from nmlogic.formula import BOT, TOP, And, Implies, Not, Or, Strong, Var

# The element table's code bounds (_DENSE_CODES, _HASHED_CODES) per form: as
# shipped, then 0 for the dense bound, which sends every int64-coded row to the
# hashed codes, then 0 for both, which sends every row to the bytes dict.
TABLE_FORMS = ((free_algebra._DENSE_CODES, free_algebra._HASHED_CODES),
               (0, free_algebra._HASHED_CODES), (0, 0))


def use_table_form(monkeypatch, form):
    monkeypatch.setattr(free_algebra, "_DENSE_CODES", form[0])
    monkeypatch.setattr(free_algebra, "_HASHED_CODES", form[1])


# A third seed on the two-generator grid, besides bottom and top, from x1, x2 and top.
TWO_GENERATOR_SEEDS = {
    "x1": lambda x1, x2, top: x1,
    "x2": lambda x1, x2, top: x2,
    "x1 & x2": lambda x1, x2, top: np.minimum(x1, x2),
    "x1 -> x2": lambda x1, x2, top: residuum_block(top, x1, x2),
    "x1 * x2": lambda x1, x2, top: tnorm_block(top, x1, x2),
}


def grid_seeds(n, k, generators):
    """Bottom, top and the first ``generators`` projections as vectors on the ``k``-grid."""
    grid = list(itertools.product(range(k), repeat=n))
    return [tuple([0] * len(grid)), tuple([k - 1] * len(grid)),
            *(tuple(g[i] for g in grid) for i in range(generators))]


def reference_closure(seeds, k):
    """Plain reimplementation of the documented closure order from the vectors ``seeds``.

    Rounds rescan every ordered pair of the elements known at the round
    start; pairs run in lexicographic id order and each pair tries meet,
    join, fusion, implication.  No incremental skipping, no numpy.
    """
    top = k - 1

    def tn(x, y):
        return min(x, y) if x + y > top else 0

    def im(x, y):
        return top if x <= y else max(top - x, y)

    vecs = []
    seen = {}

    def commit(v):
        if v not in seen:
            seen[v] = len(vecs)
            vecs.append(v)

    for seed in seeds:
        commit(seed)
    while True:
        current = len(vecs)
        for i in range(current):
            for j in range(current):
                a, b = vecs[i], vecs[j]
                commit(tuple(map(min, a, b)))
                commit(tuple(map(max, a, b)))
                commit(tuple(map(tn, a, b)))
                commit(tuple(map(im, a, b)))
        if len(vecs) == current:
            return vecs


def test_generic_chain_size():
    assert generic_chain_size(1, Variant.NM) == 5
    assert generic_chain_size(1, Variant.NM_MINUS) == 4
    assert generic_chain_size(2, Variant.NM) == 7
    assert generic_chain_size(0, Variant.NM_MINUS) == 2
    with pytest.raises(ValueError):
        generic_chain_size(-1, Variant.NM)


def test_variant_names_are_coerced():
    # A variant's name selects it as the member does; any other string is refused.
    assert build(1, "nm").size == 48 and build(1, "nm-").size == 16
    assert build(1, "nm").export() == build(1, Variant.NM).export()
    assert build(1, "nm-").variant is Variant.NM_MINUS
    assert len(truth_vector(1, "nm", Var(1))) == 5
    with pytest.raises(ValueError):
        build(1, "bogus")


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("variant", list(Variant))
def test_seeds_are_grid_rows(n, variant, monkeypatch):
    # With the closure loop stubbed out, build returns its seeds; the formula
    # route checks them.  At n = 2 they are rows of factor ids, which the real
    # factors, made and cached first, scatter back into vectors.
    k = generic_chain_size(n, variant)

    def seeds_only(seeds, ops, radices, element_cap):
        assert seeds.dtype == np.uint8 and len(radices) == seeds.shape[1]
        assert radices == ([k] * k**n if n < 2 else [len(v) for v in factors.vectors])
        return seeds, None, np.empty((0, 3), dtype=np.int32)

    factors = free_algebra._grid_factors(k, n) if n == 2 else None
    monkeypatch.setattr(free_algebra, "_close_rows", seeds_only)
    seeds = build(n, variant)
    formulas = [BOT, TOP, *map(Var, range(1, n + 1))]
    assert [seeds.vector(x) for x in seeds.element_ids()] == [
        truth_vector(n, variant, f) for f in formulas]
    assert seeds.provenance == (("bot",), ("top",), *(("var", v) for v in range(1, n + 1)))


def test_build_evaluates_no_formula(monkeypatch):
    calls = []
    for name in ("eval_grid", "truth_vector"):
        real = getattr(free_algebra, name)
        monkeypatch.setattr(free_algebra, name,
                            lambda *args, real=real: calls.append(args) or real(*args))
    for variant in Variant:
        build(1, variant)
    assert calls == []
    free_algebra.truth_vector(1, Variant.NM, Var(1))  # both patches count
    assert len(calls) == 2


def test_cardinalities(nm1, nmm1, nm0, nmm0):
    assert nm1.size == 48
    assert nmm1.size == 16
    assert nm0.size == 2
    assert nmm0.size == 2


def provenance_of(records, made):
    """``records`` then one (tag, row, col) tuple per closure triple, as build assembles them."""
    return (*records, *((free_algebra._OP_TAGS[op], row, col) for op, row, col in made.tolist()))


def replays(vectors, provenance, k):
    """Each closure element's recorded operation on its earlier operands gives its vector."""
    ops = dict(zip(free_algebra._OP_TAGS, (np.minimum, np.maximum, functools.partial(
        tnorm_block, k - 1), functools.partial(residuum_block, k - 1))))
    v = np.array(vectors)
    return all(max(args) < x and np.array_equal(ops[tag](v[args[0]], v[args[1]]), v[x])
               for x, (tag, *args) in enumerate(provenance) if tag in ops)


@pytest.mark.parametrize(
    "n,variant",
    [(0, Variant.NM), (0, Variant.NM_MINUS), (1, Variant.NM), (1, Variant.NM_MINUS),
     (2, Variant.NM), (2, Variant.NM_MINUS)],
)
def test_build_matches_reference_closure(n, variant, monkeypatch):
    # On a two-generator grid bottom, top and one more grid row g seed the
    # closure: a width-49 or width-36 table, past the dense bound, closing to
    # at most 48 vectors.  Both the direct _close and the factor route
    # _close_blocks must find them in the reference order with the same
    # provenance; for g = x1 that is the one-generator algebra's.
    k = generic_chain_size(n, variant)
    if n < 2:
        algebra = build(n, variant)
        cases = {"build": (grid_seeds(n, k, n), algebra.provenance)}
    else:
        x1, x2 = grid_coordinates(k, 2)
        bottom, top = grid_seeds(2, k, 0)
        cases = {name: ([bottom, top, tuple(g(x1, x2, k - 1).tolist())], None)
                 for name, g in TWO_GENERATOR_SEEDS.items()}
        cases["x1"] = (cases["x1"][0], build(1, variant).provenance)

    for seeds, provenance in cases.values():
        records = [("bot",), ("top",), ("var", 1)]
        seed_rows = np.array(seeds, dtype=np.uint8)
        expected = reference_closure(seeds, k)
        assert n < 2 or len(expected) <= 48
        for form in TABLE_FORMS:
            use_table_form(monkeypatch, form)
            monkeypatch.setattr(free_algebra, "_SLAB", 2048)
            factors = free_algebra._factors(seed_rows, k, n) if n == 2 else None
            # Small slabs split every round into many blocks and start the
            # incremental scan mid-slab; slab 7 also straddles the boundary
            # between old rows and new rows, and 2048 takes a whole round.
            for slab in (1, 3, 7, 2048):
                monkeypatch.setattr(free_algebra, "_SLAB", slab)
                if n < 2:
                    closed = build(n, variant)
                    routes = [(closed.vectors, closed.provenance)]
                else:
                    cap = free_algebra.DEFAULT_ELEMENT_CAP
                    direct, _, made = free_algebra._close(seed_rows, k, cap)
                    blocks, block_made = free_algebra._close_blocks(factors, cap)
                    routes = [(direct, provenance_of(records, made)),
                              (blocks, provenance_of(records, block_made))]
                for vectors, got in routes:
                    provenance = provenance or got
                    assert list(map(tuple, vectors.tolist())) == expected
                    assert got == provenance
        assert replays(expected, provenance, k)


@pytest.mark.parametrize("variant,size", [(Variant.NM, 48), (Variant.NM_MINUS, 16)])
def test_slabs_shrink_under_the_byte_bound(variant, size, monkeypatch):
    # The lowest bound that admits the complete closure of bottom, top and x1
    # on the two-generator grid, cap times width bytes, leaves room for one
    # pair a slab at 17 bytes an entry on nm- (16 rows) and two on nm (48).
    k = generic_chain_size(2, variant)
    seeds = grid_seeds(2, k, 1)
    expected = (reference_closure(seeds, k), build(1, variant).provenance)
    pairs = []
    real = free_algebra._slabs

    def counted(*args):
        for slab in real(*args):
            pairs.append(len(slab[0]))
            yield slab

    monkeypatch.setattr(free_algebra, "_slabs", counted)
    monkeypatch.setattr(free_algebra, "MAX_TABLE_BYTES", size * k**2)
    vectors, _, made = free_algebra._close(np.array(seeds, dtype=np.uint8), k, size)
    provenance = provenance_of([("bot",), ("top",), ("var", 1)], made)
    assert (list(map(tuple, vectors.tolist())), provenance) == expected
    assert max(pairs) == {Variant.NM: 2, Variant.NM_MINUS: 1}[variant]
    with pytest.raises(ValueError, match="MAX_TABLE_BYTES"):
        build(2, variant, size + 1)


@pytest.mark.parametrize("variant", list(Variant))
def test_wide_default_cap_builds_are_refused_before_allocating(variant):
    import tracemalloc

    # 100 000 vectors of width 14 641 or 10 000 would take over MAX_TABLE_BYTES;
    # a million generators' grid is over MAX_GRID_POINTS, and their seed
    # records alone would take tens of MiB.
    for n, message in ((4, "MAX_TABLE_BYTES"), (10**6, "exceeds")):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                build(n, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_table_is_dense_on_one_generator_grids():
    # Integer codes on every grid with at most one generator, with k**j the
    # code of the j-th unit vector and one id slot per code; bytes at two.
    for n, variant in itertools.product((0, 1, 2), Variant):
        k = generic_chain_size(n, variant)
        table = free_algebra._Table([k] * k**n)
        keys = table.keys(np.eye(k**n, dtype=np.uint8))
        assert (keys.dtype.kind == "V") == (n == 2)
        assert (table.lookup(keys) == -1).all()
        if n < 2:
            assert keys.tolist() == [k**j for j in range(k**n)]
            assert (table.lookup(np.arange(k ** (k**n))) == -1).all()
            with pytest.raises(IndexError):
                table.lookup(np.array([k ** (k**n)]))

    class Radix(int):
        def __rmul__(self, other):
            products.append(other * int(self))
            return products[-1]

    # A wide import gets a bytes table without multiplying out its 7**(2**20) codes.
    products = []
    table = free_algebra._Table([Radix(7)] * 2**20)
    assert table.keys(np.zeros((1, 2**20), dtype=np.uint8)).dtype.kind == "V"
    assert 0 < len(products) <= free_algebra._HASHED_CODES.bit_length()


@pytest.mark.parametrize("variant,sizes", [
    (Variant.NM_MINUS, [36] * 4),
    (Variant.NM, [36, 5, 36, 5, 3, 5, 36, 5, 36]),
])
def test_two_generator_factors(variant, sizes):
    # Blocks in sign-pattern order; below-below, below-at, below-above, ...
    # The product of the factor sizes is the size of the free algebra, so it
    # bounds the codes: dense for nm-, hashed for nm.
    k = generic_chain_size(2, variant)
    factors = free_algebra._grid_factors(k, 2)
    assert [len(v) for v in factors.vectors] == sizes
    assert math.prod(sizes) == {Variant.NM: 3_149_280_000, Variant.NM_MINUS: 1_679_616}[variant]
    assert isinstance(free_algebra._Table(sizes)._ids, np.ndarray) == (variant is Variant.NM_MINUS)
    for cols, vectors, table in zip(factors.blocks, factors.vectors, factors.tables):
        m = len(vectors)
        assert vectors.shape == (m, len(cols)) and (table[:m, :m] < m).all()
        assert (table[m:] == 0).all() and (table[:, m:] == 0).all()
    scattered = np.empty((len(factors.seeds), k * k), dtype=np.uint8)
    for cols, vectors, ids in zip(factors.blocks, factors.vectors, factors.seeds.T):
        scattered[:, cols] = vectors[ids]
    assert np.array_equal(scattered, free_algebra._grid_seeds(k, 2))


@pytest.mark.parametrize("variant", list(Variant))
def test_two_generator_cap_errors_match_the_direct_route(variant):
    # The factor route of build against the direct _close of the same seeds.
    k = generic_chain_size(2, variant)
    seeds = free_algebra._grid_seeds(k, 2)
    for cap in (1, 3, 4, 10, 35, 36, 37, 5000):
        errors = []
        for close in (lambda: build(2, variant, cap),
                      lambda: free_algebra._close(seeds, k, cap)):
            with pytest.raises(ElementCapExceeded) as err:
                close()
            errors.append((err.value.attained, err.value.cap, str(err.value)))
        assert errors[0] == errors[1] == (cap + 1, cap, str(ElementCapExceeded(cap + 1, cap)))


def test_code_map_matches_a_dict(monkeypatch):
    # Two first slots force collisions, and 3000 codes force several doublings.
    monkeypatch.setattr(free_algebra, "_HASH_SLOTS", 2)
    rng = np.random.default_rng(18)
    codes = np.unique(np.concatenate((rng.integers(0, 2**63 - 1, 3000, dtype=np.int64),
                                      [0, 1, 2**63 - 1])))
    rng.shuffle(codes)
    present, absent = np.array_split(codes, [2000])
    table, reference, slots = free_algebra._CodeMap(), {}, []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the uint64 hash product wraps by design
        assert table[codes].tolist() == [-1] * len(codes)
        for batch in np.array_split(present, [1, 2, 5, 40, 300, 1000]):
            ids = rng.permutation(len(batch)).astype(np.int32) + len(reference)
            table[batch] = ids
            reference.update(zip(batch.tolist(), ids.tolist()))
            slots.append(len(table._codes))
            assert table[codes].tolist() == [reference.get(c, -1) for c in codes.tolist()]
        held = np.flatnonzero(table._codes >= 0)
        assert (table._home(table._codes[held]) != held).any()  # some code left its home
    assert len(set(slots)) >= 4 and slots[-1] == 8192
    assert table[absent].tolist() == [-1] * len(absent)


def test_build_is_deterministic():
    first = build(1, Variant.NM)
    second = build(1, Variant.NM)
    assert np.array_equal(first.vectors, second.vectors)
    assert first.provenance == second.provenance
    assert first.covers() == second.covers()


def test_seed_ids(nm1, nm0):
    assert nm1.bottom_id == 0 and nm1.top_id == 1
    assert nm1.vector(2) == (0, 1, 2, 3, 4)  # the projection comes right after top
    assert nm1.provenance[:3] == (("bot",), ("top",), ("var", 1))
    assert nm0.provenance == (("bot",), ("top",))


def test_closure_soundness(nm1, nmm1, nm0):
    nm1.check_closed()
    nmm1.check_closed()
    nm0.check_closed()


def test_check_closed_rejects_non_closed_algebra(nm1, monkeypatch):
    data = nm1.export()
    messages = []
    for form in TABLE_FORMS:
        use_table_form(monkeypatch, form)
        partial = FreeAlgebra.from_export({**data, "elements": data["elements"][:3]},
                                          validate=False)
        with pytest.raises(KeyError, match="not closed under") as err:
            partial.check_closed()
        messages.append(str(err.value))
    assert len(set(messages)) == 1


@pytest.mark.parametrize("fixture", ["nmm1", "nm1"])
def test_operation_table_matches_closure_kernel(fixture, request, monkeypatch):
    # build and operation_table both walk _slabs and look its keys up in a
    # _Table; pin the result rows, the key of each on every table form, and
    # the table's layout at every slab size on every form against row-major pairs.
    algebra = request.getfixturevalue(fixture)
    size, width = algebra.vectors.shape
    k = algebra.chain.size
    rows, cols = np.divmod(np.arange(size * size), size)
    a, b = algebra.vectors[rows], algebra.vectors[cols]
    results = np.stack((np.minimum(a, b), np.maximum(a, b), tnorm_block(k - 1, a, b),
                        residuum_block(k - 1, a, b)), axis=1).reshape(-1, width)
    expected = np.reshape([algebra.id_of_vector(r) for r in results.tolist()], (size, size, 4))
    assert np.array_equal(algebra.operation_table, expected)
    ops = functools.partial(free_algebra._connectives, k - 1)
    for form in TABLE_FORMS:
        use_table_form(monkeypatch, form)
        keys = free_algebra._Table([k] * width).keys(results).tolist()
        if form[1]:
            assert keys == [sum(v * k**j for j, v in enumerate(r)) for r in results.tolist()]
        else:
            assert keys == [bytes(r) for r in results.tolist()]
        for slab in (1, 3, 7, 2048):
            monkeypatch.setattr(free_algebra, "_SLAB", slab)
            fresh = FreeAlgebra(algebra.n, algebra.variant, algebra.vectors, algebra.provenance)
            walked = list(free_algebra._slabs(ops, fresh.vectors, 0, fresh._table))
            assert np.array_equal(np.concatenate([w[2] for w in walked]), results)
            assert [key for w in walked for key in w[3].tolist()] == keys
            assert np.array_equal(fresh.operation_table, expected)


@pytest.mark.parametrize("fixture", ["nm0", "nmm1", "nm1"])
def test_operation_table_matches_formula_evaluation(fixture, request):
    # element_of evaluates with scalar eval_chain, independently of the table.
    algebra = request.getfixturevalue(fixture)
    rep = algebra.representative_formula
    ops = ((And, algebra.meet), (Or, algebra.join), (Strong, algebra.tnorm),
           (Implies, algebra.residuum))
    for x in algebra.element_ids():
        assert algebra.element_of(Not(rep(x))) == algebra.neg(x)
        for y in algebra.element_ids():
            for node, op in ops:
                assert algebra.element_of(node(rep(x), rep(y))) == op(x, y)


def _op_tables(algebra):
    n = algebra.size
    meet = np.zeros((n, n), dtype=np.int64)
    join = np.zeros((n, n), dtype=np.int64)
    for x in algebra.element_ids():
        for y in algebra.element_ids():
            meet[x, y] = algebra.meet(x, y)
            join[x, y] = algebra.join(x, y)
    return meet, join


@pytest.mark.parametrize("fixture", ["nm1", "nmm1", "nm0", "nmm0"])
def test_lattice_reduct_is_distributive(fixture, request):
    algebra = request.getfixturevalue(fixture)
    meet, join = _op_tables(algebra)
    n = algebra.size
    xs = np.arange(n)
    # x & (y | z) == (x & y) | (x & z) over the whole cube.
    lhs = meet[xs[:, None, None], join[None, :, :]]
    rhs = join[meet[xs][:, :, None], meet[xs][:, None, :]]
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("fixture", ["nm1", "nmm1", "nm0", "nmm0"])
def test_join_irreducibles_match_definitional_test(fixture, request):
    algebra = request.getfixturevalue(fixture)
    _, join = _op_tables(algebra)
    definitional = []
    for x in algebra.element_ids():
        if x == algebra.bottom_id:
            continue
        pairs = np.argwhere(join == x)
        if all(x in (int(y), int(z)) for y, z in pairs):
            definitional.append(x)
    assert definitional == list(algebra.join_irreducible_ids)


def test_bottom_and_top_are_idempotent(nm1):
    assert nm1.bottom_id in nm1.idempotent_ids
    assert nm1.top_id in nm1.idempotent_ids


def test_idempotent_flags_cover_every_element(nm1):
    flags = nm1.idempotent_flags
    assert len(flags) == nm1.size
    for x in nm1.element_ids():
        assert flags[x] == nm1.is_idempotent(x) == (nm1.tnorm(x, x) == x)


def test_negation_and_biimplication_on_elements(nm1):
    for x in nm1.element_ids():
        assert nm1.neg(nm1.neg(x)) == x
        assert nm1.neg(x) == nm1.residuum(x, nm1.bottom_id)
        assert nm1.iff(x, x) == nm1.top_id
    a, b = 2, nm1.neg(2)
    assert nm1.neg(nm1.join(a, b)) == nm1.meet(nm1.neg(a), nm1.neg(b))


@pytest.mark.parametrize("fixture", ["nm1", "nmm1"])
def test_non_idempotent_join_irreducibles_square_to_bottom(fixture, request):
    algebra = request.getfixturevalue(fixture)
    for g in algebra.join_irreducible_ids:
        if not algebra.is_idempotent(g):
            assert algebra.tnorm(g, g) == algebra.bottom_id


ALPHA = parse("(x1 <-> ~x1)^2 & x1")


def test_element_of_examples(nm1):
    assert nm1.element_of(TOP) == nm1.top_id
    a = nm1.element_of(ALPHA)
    assert a in nm1.join_irreducible_ids
    assert not nm1.is_idempotent(a)
    lhs = nm1.element_of(Or(Var(1), Not(Var(1))))
    rhs = nm1.element_of(Not(And(Var(1), Not(Var(1)))))
    assert lhs == rhs


def test_element_of_rejects_out_of_range_variable(nm1):
    with pytest.raises(ValueError):
        nm1.element_of(Var(2))


@pytest.mark.parametrize("fixture", ["nm0", "nmm0", "nm1", "nmm1"])
def test_heights_are_longest_cover_chains(fixture, request):
    algebra = request.getfixturevalue(fixture)
    cover = algebra.cover_matrix
    below_counts = algebra.leq_matrix.sum(axis=0)
    longest = [0] * algebra.size
    for x in sorted(algebra.element_ids(), key=lambda i: int(below_counts[i])):
        lower = np.flatnonzero(cover[:, x]).tolist()
        longest[x] = 1 + max((longest[c] for c in lower), default=-1)
    assert algebra.heights == tuple(longest)


def test_minimal_idempotent_jis(nm1, nmm1, nm0):
    assert len(nm1.minimal_idempotent_ji_ids) == 3
    assert len(nmm1.minimal_idempotent_ji_ids) == 2
    assert nm0.minimal_idempotent_ji_ids == (nm0.top_id,)


def test_product_of_two_four_chains(nmm1):
    # The two coordinates where the generator takes its interior values
    # give an order isomorphism onto the full 4x4 grid.
    generator = nmm1.element_of(Var(1))
    assert nmm1.vector(generator) == (0, 1, 2, 3)
    coords = {x: nmm1.vector(x)[1:3] for x in nmm1.element_ids()}
    assert sorted(coords.values()) == sorted(itertools.product(range(4), repeat=2))
    for x in nmm1.element_ids():
        for y in nmm1.element_ids():
            componentwise = all(a <= b for a, b in zip(coords[x], coords[y]))
            assert nmm1.leq(x, y) == componentwise
    # Heights then read off the grid as coordinate sums.
    for x in nmm1.element_ids():
        assert nmm1.heights[x] == sum(coords[x])


@pytest.mark.parametrize("fixture", ["nm1", "nmm1", "nm0"])
def test_representative_formulas_define_their_elements(fixture, request):
    algebra = request.getfixturevalue(fixture)
    for x in algebra.element_ids():
        assert algebra.element_of(algebra.representative_formula(x)) == x


def test_tautology_examples():
    assert is_tautology(1, Variant.NM, parse("(x1 -> x1) | (x1 -> x1)"))
    assert not is_tautology(1, Variant.NM, ALPHA)
    assert is_tautology(1, Variant.NM, parse("~~x1 -> x1"))
    assert not is_tautology(1, Variant.NM, parse("x1 | ~x1"))


def test_tautology_without_building():
    assert is_tautology(2, Variant.NM, parse("(x1 -> x2) | (x2 -> x1)"))
    assert not is_tautology(1, Variant.NM, parse("x1 | ~x1"))
    assert is_tautology(1, Variant.NM_MINUS, parse("~(~x1^2)^2 <-> (~(~x1)^2)^2"))
    assert not is_tautology(1, Variant.NM, parse("~(~x1^2)^2 <-> (~(~x1)^2)^2"))


def test_proves_examples():
    assert proves(1, Variant.NM, Var(1), Var(1))
    assert proves(1, Variant.NM, parse("x1 & ~x1"), parse("0"))
    assert not proves(1, Variant.NM, TOP, ALPHA)


def test_truth_vector_examples():
    assert truth_vector(1, Variant.NM, ALPHA) == (0, 0, 2, 0, 0)
    assert truth_vector(0, Variant.NM, TOP) == (2,)
    with pytest.raises(ValueError):
        truth_vector(1, Variant.NM, Var(2))


def test_truth_vector_memory_is_bounded_by_the_chunk():
    import tracemalloc

    f = Var(1)
    for i in range(300):
        f = (And, Or, Strong, Implies)[i % 4](f, Var(i % 5 + 1))
    # 601 distinct nodes on the 13**5-point grid: unchunked, the node
    # values alone would take 601 * 371293 bytes, over 200 MiB.
    tracemalloc.start()
    try:
        vector = truth_vector(5, Variant.NM, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(vector) == 13**5
    assert peak < 64 * 2**20


def test_truth_vector_grid_order_is_lexicographic():
    # x1 is the most significant coordinate, x2 the least.
    assert truth_vector(2, Variant.NM, Var(1)) == tuple(v for v in range(7) for _ in range(7))
    assert truth_vector(2, Variant.NM, Var(2)) == tuple(range(7)) * 7


def test_element_cap(monkeypatch):
    for form in TABLE_FORMS:
        use_table_form(monkeypatch, form)
        with pytest.raises(ElementCapExceeded) as err:
            build(1, Variant.NM, element_cap=10)
        assert err.value.cap == 10
        assert err.value.attained == 11
        assert "10" in str(err.value) and "11" in str(err.value)
        with pytest.raises(ValueError):
            build(1, Variant.NM, element_cap=0)
        # The cap is exact: the last element of the complete algebra hits it.
        assert build(1, Variant.NM, element_cap=48).size == 48
        with pytest.raises(ElementCapExceeded) as err:
            build(1, Variant.NM, element_cap=47)
        assert err.value.attained == 48


def test_large_imports_refuse_quadratic_tables():
    # 20 000 elements would need 6.4 GB for the operation table and about
    # 20 GB for the order comparison; both are refused before allocating.
    rng = np.random.default_rng(5)
    vectors = rng.integers(0, 7, size=(20_000, 49))
    vectors[0], vectors[1] = 0, 6
    assert len({row.tobytes() for row in vectors}) == 20_000
    elements = [{"id": i, "vector": row} for i, row in enumerate(vectors.tolist())]
    data = {"n": 2, "variant": "nm", "chain_size": 7, "elements": elements,
            "bottom": 0, "top": 1, "covers": [], "join_irreducible": [], "idempotent": []}
    algebra = FreeAlgebra.from_export(data, validate=False)
    assert algebra.size == 20_000
    for read in (lambda: algebra.meet(0, 1), algebra.check_closed,
                 lambda: algebra.leq(0, 1), algebra.covers):
        with pytest.raises(ValueError, match="MAX_TABLE_BYTES"):
            read()
    with pytest.raises(ValueError, match="MAX_TABLE_BYTES"):
        FreeAlgebra.from_export(data, validate=True)


def test_export_import_round_trip(nmm1):
    data = nmm1.export()
    clone = FreeAlgebra.from_export(data)
    assert np.array_equal(clone.vectors, nmm1.vectors)
    assert clone.covers() == nmm1.covers()
    assert clone.join_irreducible_ids == nmm1.join_irreducible_ids
    assert clone.idempotent_ids == nmm1.idempotent_ids
    clone.check_closed()
    with pytest.raises(ValueError):
        clone.representative_formula(0)


def _with_vector(data, value):
    """``data`` plus one extra element whose vector is all ``value``."""
    width = len(data["elements"][0]["vector"])
    extra = {"id": len(data["elements"]), "vector": [value] * width}
    return {**data, "elements": data["elements"] + [extra]}


def test_import_rejects_tampered_annotations(nmm1, nm0):
    data = nmm1.export()
    data["join_irreducible"] = data["join_irreducible"][:-1]
    with pytest.raises(ValueError):
        FreeAlgebra.from_export(data)
    # Malformed vectors are rejected whether or not annotations are checked.
    swapped = FreeAlgebra(0, Variant.NM, np.array([[2], [0]]), None).export()
    truncated = {**nm0.export(), "elements": nm0.export()["elements"][:1]}
    malformed = [_with_vector(nm0.export(), v) for v in (9, 300, -1)] + [swapped, truncated]
    for data in malformed:
        for validate in (True, False):
            with pytest.raises(ValueError):
                FreeAlgebra.from_export(data, validate=validate)


_NOT_VECTOR_SETS = {
    "off the chain": (1, [[0] * 5, [4] * 5, [7] * 5], "integers in 0..4"),
    "negative": (1, [[0] * 5, [4] * 5, [-1] * 5], "integers in 0..4"),
    "float": (1, [[0.5] * 5, [4] * 5], "integers in 0..4"),
    "one row": (1, [[0] * 5], "at least two vectors"),
    "too wide": (1, [[0] * 6, [4] * 6], "grid length 5\\*\\*1"),
    "flat": (1, [0, 4, 4, 4, 4], "at least two vectors"),
    "repeated": (1, [[0] * 5, [4] * 5, [0] * 5], "duplicate truth vectors"),
    "grid above the bound": (6, [[0], [14]], "exceeds 1048576 points"),
}


@pytest.mark.parametrize("n,vectors,message", _NOT_VECTOR_SETS.values(), ids=_NOT_VECTOR_SETS)
def test_constructor_refuses_what_is_not_a_vector_set(n, vectors, message):
    # A uint8 cast would index past the chain with 7 and read 0.5 as bottom.
    with pytest.raises(ValueError, match=message):
        FreeAlgebra(n, Variant.NM, vectors, None)


def test_import_rejects_repeated_vectors(nmm1):
    data = nmm1.export()
    repeated = {"id": nmm1.size, "vector": data["elements"][5]["vector"]}
    data["elements"] = data["elements"] + [repeated]
    for validate in (True, False):
        with pytest.raises(ValueError, match="duplicate truth vectors"):
            FreeAlgebra.from_export(data, validate=validate)


# Each mutation of an nm- one-generator export, and a piece of the message it is refused with.
_MALFORMED_DOCUMENTS = {
    "no elements": (lambda d: {k: v for k, v in d.items() if k != "elements"},
                    "lacks the field 'elements'"),
    "no covers": (lambda d: {k: v for k, v in d.items() if k != "covers"},
                  "lacks the field 'covers'"),
    "no bottom": (lambda d: {k: v for k, v in d.items() if k != "bottom"},
                  "lacks the field 'bottom'"),
    "elements 5": (lambda d: {**d, "elements": 5}, "malformed export document"),
    "string id": (lambda d: {**d, "elements": [{**e, "id": "3"} if e["id"] == 3 else e
                                               for e in d["elements"]]},
                  "malformed export document"),
    "covers of ints": (lambda d: {**d, "covers": [1, 2]}, "malformed export document"),
    "top-level list": (lambda d: [d], "malformed export document"),
    "fractional n": (lambda d: {**d, "n": 1.5}, "generator count must be an integer"),
    "huge n": (lambda d: {**d, "n": 10**6, "chain_size": 2 * 10**6 + 2},
               "exceeds 1048576 points"),
    # json.loads reads Infinity, and int() of it raises OverflowError.
    "infinite n": (lambda d: {**d, "n": float("inf")},
                   "malformed export document: cannot convert float infinity to integer"),
    "chain size": (lambda d: {**d, "chain_size": 5},
                   "chain size does not match generator count and variant"),
    "ids from 1": (lambda d: {**d, "elements": [{**e, "id": e["id"] + 1}
                                                for e in d["elements"]]},
                   "element ids must be 0..N-1"),
    "bottom and top swapped": (lambda d: {**d, "bottom": 1, "top": 0},
                               "bottom and top ids must be 0 and 1"),
    "a cover dropped": (lambda d: {**d, "covers": d["covers"][:-1]},
                        "stored covers disagree with the order"),
    "an idempotent dropped": (lambda d: {**d, "idempotent": d["idempotent"][:-1]},
                              "stored idempotency flags disagree"),
}


@pytest.mark.parametrize("mutate,message", _MALFORMED_DOCUMENTS.values(),
                         ids=_MALFORMED_DOCUMENTS)
def test_import_rejects_malformed_documents_with_value_error(nmm1, mutate, message):
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        FreeAlgebra.from_export(mutate(nmm1.export()))
    assert time.perf_counter() - start < 1.0
    assert message in str(err.value)
    assert "set_int_max_str_digits" not in str(err.value)


def test_import_rejects_a_set_that_is_not_a_lattice():
    # The stored annotations are recomputed from the vectors, so they agree;
    # the meet of the last two vectors is missing, and in the first four
    # the join of [1,0,0,0,0] and [0,1,0,0,0].
    vectors = np.array([[0] * 5, [4] * 5, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                        [4, 4, 4, 4, 3], [4, 4, 4, 3, 4]])
    for size, missing in ((6, "meet"), (4, "join")):
        data = FreeAlgebra(1, Variant.NM, vectors[:size], None).export()
        with pytest.raises(ValueError, match=f"not closed under {missing}"):
            FreeAlgebra.from_export(data)
        assert FreeAlgebra.from_export(data, validate=False).size == size


def test_import_rejects_a_lattice_that_is_not_closed():
    # A three-chain is closed under meet and join (and fusion: 3 * 3 = 3),
    # but 3 -> 0 is 1, which is missing.
    data = FreeAlgebra(1, Variant.NM, np.array([[0] * 5, [4] * 5, [3] * 5]), None).export()
    with pytest.raises(ValueError, match="^not closed under imp$"):
        FreeAlgebra.from_export(data)
    assert FreeAlgebra.from_export(data, validate=False).size == 3


def boolean_nm2_export():
    """The 512 Boolean elements of the n=2 nm algebra: 0 or top on each of
    the 9 sign blocks of the 7x7 grid (below, at or above the fixpoint 3 in
    each coordinate), bottom and top first.  Closed under all four
    operations."""
    a, b = np.divmod(np.arange(49), 7)
    block = 3 * (np.sign(a - 3) + 1) + np.sign(b - 3) + 1
    bits = (np.array([0, 511, *range(1, 511)])[:, None] >> np.arange(9)) & 1
    return FreeAlgebra(2, Variant.NM, 6 * bits[:, block], None).export()


def test_import_memory_is_bounded_by_the_tables():
    import tracemalloc

    data = boolean_nm2_export()
    # The operation table and the order comparison take (16 + 49) * 512**2
    # bytes, 16 MiB; a set of the N**2 pair keys would take over 30 MiB.
    tracemalloc.start()
    try:
        algebra = FreeAlgebra.from_export(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert algebra.size == 512
    assert peak < 24 * 2**20


def test_vector_access(nm1):
    assert nm1.vector(nm1.bottom_id) == (0, 0, 0, 0, 0)
    assert nm1.vector(nm1.top_id) == (4, 4, 4, 4, 4)
    assert nm1.id_of_vector((0, 1, 2, 3, 4)) == 2
    with pytest.raises(KeyError):
        nm1.id_of_vector((4, 0, 0, 0, 0))


_NOT_VECTORS = {"float": (0.5, 0, 0, 0, 0), "negative": (-1, 0, 0, 0, 0),
                "300": (300, 0, 0, 0, 0), "k": (5, 0, 0, 0, 0), "short": (0, 1, 2, 3),
                "ragged": ((0, 1), 2, 3, 4, 0), "scalar": 0}


@pytest.mark.parametrize("vector", _NOT_VECTORS.values(), ids=_NOT_VECTORS)
def test_id_of_vector_refuses_what_is_not_a_vector(nm1, vector):
    # A uint8 cast would read 0.5 as bottom and refuse 300 with OverflowError.
    with pytest.raises(KeyError, match="is not an element"):
        nm1.id_of_vector(vector)
