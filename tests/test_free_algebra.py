import functools
import itertools
import math
import random
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
from nmlogic.chain import grid_coordinates, residuum_block, sign_blocks, tnorm_block
from nmlogic.formula import (BOT, TOP, And, EvaluationError, Implies, Not, Or, Square, Strong,
                             Var, random_formula)

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
        table = free_algebra._Table([k] * k**n, k**n)
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
    table = free_algebra._Table([Radix(7)] * 2**20, 1)
    assert table.keys(np.zeros((1, 2**20), dtype=np.uint8)).dtype.kind == "V"
    assert 0 < len(products) <= free_algebra._HASHED_CODES.bit_length()


@pytest.mark.parametrize("variant,sizes", [
    (Variant.NM_MINUS, [36] * 4),
    (Variant.NM, [36, 5, 36, 5, 3, 5, 36, 5, 36]),
])
def test_two_generator_factors(variant, sizes, monkeypatch):
    # Blocks in sign-pattern order; below-below, below-at, below-above, ...
    # The product of the factor sizes is the size of the free algebra, so it
    # bounds the codes: dense for nm-, hashed for nm.
    k = generic_chain_size(2, variant)
    factors = free_algebra._grid_factors(k, 2)
    assert [len(v) for v in factors.vectors] == sizes
    assert math.prod(sizes) == {Variant.NM: 3_149_280_000, Variant.NM_MINUS: 1_679_616}[variant]
    dense = isinstance(free_algebra._Table(sizes, 1)._ids, np.ndarray)
    assert dense == (variant is Variant.NM_MINUS)
    for cols, vectors, table in zip(factors.blocks, factors.vectors, factors.tables):
        m = len(vectors)
        assert vectors.shape == (m, len(cols)) and (table[:m, :m] < m).all()
        assert (table[m:] == 0).all() and (table[:, m:] == 0).all()
    scattered = np.empty((len(factors.seeds), k * k), dtype=np.uint8)
    for cols, vectors, ids in zip(factors.blocks, factors.vectors, factors.seeds.T):
        scattered[:, cols] = vectors[ids]
    assert np.array_equal(scattered, free_algebra._grid_seeds(k, 2))
    # _gather's [p, op, b] is factor b's op on pair p, seen in the memory of the
    # tables' take, which is not C-contiguous; every table form keys it as its copy.
    rng = np.random.default_rng(21)
    a, b = (rng.integers(0, sizes, (500, len(sizes))).astype(factors.seeds.dtype)
            for _ in range(2))
    gathered = free_algebra._gather(factors.tables, a, b)
    expected = np.moveaxis(factors.tables[np.arange(len(sizes)), a, b], 1, 2)
    assert gathered.tolist() == expected.tolist() and not gathered.flags.c_contiguous
    for form in TABLE_FORMS:
        use_table_form(monkeypatch, form)
        table = free_algebra._Table(sizes, len(gathered))
        assert table.keys(gathered).tolist() == table.keys(expected.copy()).tolist()


def test_gather_index_fits_the_flat_table():
    # _gather indexes the flat (blocks * size * size, 4) factor tables in the
    # narrowest unsigned dtype that holds their last row: uint16 for the shapes
    # of both two-generator grids and for exactly 2**16 rows, uint32 for 60
    # synthetic blocks of 36-element factors, 77 760 rows, where a uint16 index
    # would wrap.  Every block and op against the int64 formula; the first pairs
    # reach every id of every block.
    rng = np.random.default_rng(22)
    for blocks, size in ((9, 36), (4, 36), (256, 16), (60, 36)):
        ids = np.min_scalar_type(size - 1)
        tables = rng.integers(0, size, (blocks, size, size, 4)).astype(ids)
        a, b = (rng.integers(0, size, (400, blocks)).astype(ids) for _ in range(2))
        a[:size, :], b[:size, :] = np.arange(size)[:, None], np.arange(size)[::-1, None]
        flat = a.astype(np.int64) * size + b + np.arange(blocks) * size * size
        expected = np.moveaxis(tables.reshape(-1, 4)[flat], 2, 1)
        assert free_algebra._gather(tables, a, b).tolist() == expected.tolist()


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
        # Four seeds past the cap are reported as such; a slab past it as cap + 1.
        attained = max(cap + 1, 4)
        assert errors[0] == errors[1] == (attained, cap, str(ElementCapExceeded(attained, cap)))


def test_code_map_matches_a_dict():
    # A 36-element factor closure, capped at _FACTOR_CAP, takes 4096 slots.
    k = generic_chain_size(2, Variant.NM)
    cols = free_algebra._grid_factors(k, 2).blocks[0]
    seeds = np.ascontiguousarray(np.unique(free_algebra._grid_seeds(k, 2)[:, cols], axis=0))
    factor, table, _ = free_algebra._close(seeds, k, free_algebra._FACTOR_CAP)
    assert len(factor) == 36 and isinstance(table._ids, free_algebra._CodeMap)
    assert len(table._ids._codes) == 4096

    # A map sized for the 2003 codes held, or more, takes the slots of its
    # capacity at construction and keeps them.  Codes whose home is the last
    # slot force probe runs that wrap to slot 0: three of them held, three or
    # more missing.
    rng = np.random.default_rng(18)
    drawn = np.unique(np.concatenate((rng.integers(0, 2**63 - 1, 3000, dtype=np.int64),
                                      [0, 1, 2**63 - 1])))
    spare = rng.integers(0, 2**63 - 1, 1_000_000, dtype=np.int64)
    for capacity in (2003, 5000):
        size = 1 << (4 * capacity - 1).bit_length()

        def homed_last(c):
            shift = np.uint64(65 - size.bit_length())
            return c[(c.view(np.uint64) * free_algebra._GOLDEN) >> shift == size - 1]

        last = homed_last(drawn)
        wrapping = np.setdiff1d(homed_last(spare), drawn)[:6]
        assert len(wrapping) == 6
        codes = np.setdiff1d(drawn, last)
        rng.shuffle(codes)
        present, absent = np.array_split(codes, [2000])
        present = np.concatenate((present, wrapping[:3]))
        absent = np.concatenate((absent, last, wrapping[3:]))
        codes = np.concatenate((present, absent))
        table, reference = free_algebra._CodeMap(capacity), {}
        slots = [len(table._codes)]
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
            home = table._home(table._codes[held])
            assert (home != held).any()  # some code left its home
            assert (home > held).any()  # and some probe run wrapped past the last slot
            # The one probe both operations share: a held code's slot holds it, a
            # missing code's slot is the empty one that ends its probe run.
            assert (table._codes[table._slots(present)] == present).all()
            assert (table._codes[table._slots(absent)] == -1).all()
            assert (table._codes[table._slots(wrapping)]
                    == np.concatenate((wrapping[:3], [-1] * 3))).all()
        assert slots == [size] * 8
        # Alone in a map, three codes homed at the last slot wrap to slots 0 and 1.
        wrapped = free_algebra._CodeMap(capacity)
        wrapped[wrapping[:3]] = np.arange(3, dtype=np.int32)
        assert np.flatnonzero(wrapped._codes >= 0).tolist() == [0, 1, size - 1]
        assert wrapped[wrapping].tolist() == [0, 1, 2, -1, -1, -1]
        assert sorted(wrapped._slots(wrapping[:3]).tolist()) == [0, 1, size - 1]
        assert wrapped._slots(wrapping[3:]).tolist() == [2, 2, 2]
        assert table._home(wrapping).tolist() == [size - 1] * 6
        assert table[wrapping].tolist() == [reference[c] for c in wrapping[:3].tolist()] + [-1] * 3
        assert table[absent].tolist() == [-1] * len(absent)


def test_hash_table_slots_count_against_the_byte_bound():
    import tracemalloc

    # Sized for the benchmark's nm cap, a map takes 2**19 slots (6 MiB) at
    # construction; sized for 5,000,000 codes it would take 2**25 slots at 12
    # bytes each, 384 MiB, and is refused before anything is allocated.
    codes = np.arange(1025, dtype=np.int64) * 7919
    ids = np.arange(1025, dtype=np.int32)
    sized = free_algebra._CodeMap(120_000)
    assert len(sized._codes) == 2**19
    sized[codes] = ids
    assert len(sized._codes) == 2**19 and sized[codes].tolist() == ids.tolist()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_TABLE_BYTES"):
            free_algebra._CodeMap(5_000_000)
        peak = tracemalloc.get_traced_memory()[1]
        with pytest.raises(ValueError, match="MAX_TABLE_BYTES"):
            build(2, Variant.NM, 5_000_000)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and build_peak < 2**23


def test_hash_table_is_refused_before_the_first_slab(monkeypatch):
    # nm's two-generator closure checks its hash table's bytes when it builds
    # the table, before it walks a single slab of pairs.
    k = generic_chain_size(2, Variant.NM)
    free_algebra._grid_factors(k, 2)
    walks = []
    real = free_algebra._slabs

    def counted(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(free_algebra, "_slabs", counted)
    with pytest.raises(ValueError, match="MAX_TABLE_BYTES"):
        build(2, Variant.NM, 5_000_000)
    assert walks == []


def test_factor_closures_take_4096_slots(monkeypatch):
    # Every 9-point sign-block factor of both two-generator grids closes in a
    # hash table of exactly 4096 slots; the 3- and 1-point factors are dense.
    slots = []
    real = free_algebra._CodeMap.__init__

    def sized(self, capacity):
        real(self, capacity)
        slots.append(len(self._codes))

    monkeypatch.setattr(free_algebra._CodeMap, "__init__", sized)
    for variant in Variant:
        k = generic_chain_size(2, variant)
        nine = sum(len(cols) == 9 for cols in sign_blocks(k, 2))
        before = len(slots)
        free_algebra._factors(free_algebra._grid_seeds(k, 2), k, 2)
        assert nine > 0 and slots[before:] == [4096] * nine


@pytest.mark.parametrize("form", TABLE_FORMS[1:], ids=["hashed", "bytes"])
def test_closure_through_a_growing_table(form, monkeypatch):
    # Bottom, top, x1 and x2 on two 9-point sign blocks of the nm- grid close to
    # the product of the blocks' 36-element factors: 1296 rows from 1296**2 pairs,
    # about 6.7 million candidates, past the hash table's first slot count.  The
    # direct route on vectors and the factor route must commit the same rows.  A
    # hashed table takes the slots of its cap at construction: with a cap of the
    # closure's size the slots its rows need, with a larger cap more; both caps
    # must commit the same rows and triples.
    k = generic_chain_size(2, Variant.NM_MINUS)
    factors = free_algebra._grid_factors(k, 2)
    two = [0, 1]
    assert [len(factors.blocks[b]) for b in two] == [9, 9]
    cols = np.concatenate([factors.blocks[b] for b in two])
    seeds = np.ascontiguousarray(free_algebra._grid_seeds(k, 2)[:, cols])
    pair = free_algebra._Factors([np.arange(9), np.arange(9, 18)],
                                 [factors.vectors[b] for b in two], factors.tables[two],
                                 factors.seeds[:, two])
    use_table_form(monkeypatch, form)
    closures = []
    caps = (36 * 36, 50_000) if form[1] else (2000,)
    for slab, cap in itertools.product((2048, 509), caps):
        monkeypatch.setattr(free_algebra, "_SLAB", slab)
        vectors, table, made = free_algebra._close(seeds, k, cap)
        closures.append((vectors, made))
        if form[1]:
            assert len(table._ids._codes) == {36 * 36: 8192, 50_000: 262_144}[cap]
        closures.append(free_algebra._close_blocks(pair, cap))
    vectors, made = closures[0]
    assert len(vectors) == 36 * 36 and len(np.unique(vectors, axis=0)) == 36 * 36
    for half in (vectors[:, :9], vectors[:, 9:]):
        assert len(np.unique(half, axis=0)) == 36
    for other, other_made in closures[1:]:
        assert np.array_equal(other, vectors) and np.array_equal(other_made, made)


def test_first_positions_match_unique():
    # The closure commits each missing key's first position in slab order; the
    # argsort route must agree with np.unique's on every kind of key it meets.
    rng = np.random.default_rng(61)
    rows = rng.integers(0, 3, size=(900, 6), dtype=np.uint8)
    slabs = {
        "int64 codes": [rng.integers(0, spread, size=size, dtype=np.int64)
                        for size in (2, 17, 300, 2048) for spread in (3, size, 2**62)],
        "bytes keys": [np.ascontiguousarray(rows[:size]).view(np.dtype((np.void, 6))).ravel()
                       for size in (2, 17, 300, 900)],
        "all equal": [np.full(size, 7, dtype=np.int64) for size in (1, 2, 50)]
                     + [np.zeros((40, 5), dtype=np.uint8).view(np.dtype((np.void, 5))).ravel()],
        "single key": [np.array([12345], dtype=np.int64),
                       np.zeros((1, 5), dtype=np.uint8).view(np.dtype((np.void, 5))).ravel()],
    }
    # One pair's four results can repeat a row: x op x is x for meet and join,
    # and bottom with anything meets and fuses to bottom.
    k = 5
    a = rng.integers(0, k, size=(64, 5), dtype=np.uint8)
    b = a.copy()
    b[::2] = rng.integers(0, k, size=(32, 5), dtype=np.uint8)
    a[::3] = 0
    results = free_algebra._connectives(k - 1, a, b)
    slabs["repeats across ops"] = [free_algebra._Table([k] * 5, 64).keys(results),
                                   free_algebra._Table([k] * 70, 64).keys(results.repeat(14, 2))]
    for kind, keys in slabs.items():
        for slab in keys:
            reference = np.sort(np.unique(slab, return_index=True)[1])
            assert np.array_equal(free_algebra._first_positions(slab), reference), kind
    assert slabs["bytes keys"][0].dtype.kind == "V"
    assert slabs["repeats across ops"][0].dtype == np.int64
    assert slabs["repeats across ops"][1].dtype.kind == "V"


@pytest.mark.parametrize("n,variant,width,size", [
    (0, Variant.NM, 1, 3), (1, Variant.NM, 5, 300), (2, Variant.NM, 49, 400)])
def test_leq_matrix_is_the_pointwise_order(n, variant, width, size, nm0, nmm0, nm1, nmm1,
                                           monkeypatch):
    # On every n <= 1 build and on random imported sets of each width, the order
    # is the all-columns comparison in blocks of any size, read-only, and
    # refused at the same sizes.
    k = generic_chain_size(n, variant)
    rng = np.random.default_rng(61 + width)
    rows = np.unique(rng.integers(0, k, size=(size, width)), axis=0)
    rows = rows[~((rows == 0).all(axis=1) | (rows == k - 1).all(axis=1))]
    vectors = np.vstack((np.zeros(width, dtype=int), np.full(width, k - 1), rows))
    elements = [{"id": i, "vector": v} for i, v in enumerate(vectors.tolist())]
    imported = FreeAlgebra.from_export(
        {"n": n, "variant": variant.value, "chain_size": k, "elements": elements},
        validate=False)
    for algebra in (nm0, nmm0, nm1, nmm1, imported):
        v = algebra.vectors
        leq = algebra.leq_matrix
        assert leq.dtype == bool and not leq.flags.writeable
        assert np.array_equal(leq, (v[:, None, :] <= v[None, :, :]).all(axis=2))
        with pytest.raises(ValueError):
            leq[0, 0] = False
        # One column a block, three columns a block, and one block.
        for columns in (1, 3, v.shape[1]):
            monkeypatch.setattr(free_algebra, "_ORDER_BLOCK_BYTES", columns * algebra.size**2)
            fresh = FreeAlgebra(algebra.n, algebra.variant, v, None)
            assert np.array_equal(fresh.leq_matrix, leq)
        monkeypatch.undo()
    need = width * imported.size**2
    for bound, refused in ((need, False), (need - 1, True)):
        monkeypatch.setattr(free_algebra, "MAX_TABLE_BYTES", bound)
        fresh = FreeAlgebra(n, variant, imported.vectors, None)
        if refused:
            with pytest.raises(ValueError, match="MAX_TABLE_BYTES"):
                fresh.leq_matrix
        else:
            assert np.array_equal(fresh.leq_matrix, imported.leq_matrix)


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
    # A closure round walks the untried pairs, old rows x new columns, then new
    # rows x all, in ceil(pairs / slab) slabs that straddle the boundary.
    algebra = request.getfixturevalue(fixture)
    size, width = algebra.vectors.shape
    k = algebra.chain.size
    rows, cols = np.divmod(np.arange(size * size), size)
    a, b = algebra.vectors[rows], algebra.vectors[cols]
    # results[p, op] is pair p under _OP_TAGS[op], and flat row 4p + op of the slab.
    results = np.stack((np.minimum(a, b), np.maximum(a, b), tnorm_block(k - 1, a, b),
                        residuum_block(k - 1, a, b)), axis=1)
    flat = results.reshape(-1, width).tolist()
    expected = np.reshape([algebra.id_of_vector(r) for r in flat], (size, size, 4))
    assert np.array_equal(algebra.operation_table, expected)
    ops = functools.partial(free_algebra._connectives, k - 1)
    for form in TABLE_FORMS:
        use_table_form(monkeypatch, form)
        keys = free_algebra._Table([k] * width, size).keys(results).tolist()
        if form[1]:
            assert keys == [sum(v * k**j for j, v in enumerate(r)) for r in flat]
        else:
            assert keys == [bytes(r) for r in flat]
        for slab in (1, 3, 7, 2048):
            monkeypatch.setattr(free_algebra, "_SLAB", slab)
            fresh = FreeAlgebra(algebra.n, algebra.variant, algebra.vectors, algebra.provenance)
            walked = list(free_algebra._slabs(ops, fresh.vectors, 0, fresh._table))
            assert all(w[2].shape == (len(w[0]), 4, width) for w in walked)
            assert np.array_equal(np.concatenate([w[2] for w in walked]), results)
            assert [key for w in walked for key in w[3].tolist()] == keys
            assert np.array_equal(fresh.operation_table, expected)
            for previous in (1, 2, size // 2, size - 1, size):
                untried = [*itertools.product(range(previous), range(previous, size)),
                           *itertools.product(range(previous, size), range(size))]
                walked = list(free_algebra._slabs(ops, fresh.vectors, previous, fresh._table))
                assert len(walked) == math.ceil(len(untried) / slab)
                assert [pair for w in walked for pair in zip(*w[0:2])] == untried
                pairs = [row * size + col for row, col in untried]
                assert np.array_equal(np.concatenate([w[2] for w in walked] or [results[:0]]),
                                      results[pairs])


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


def test_idempotent_ids_cover_every_element(nm1):
    ids = nm1.idempotent_ids
    assert list(ids) == sorted(set(ids)) and set(ids) <= set(nm1.element_ids())
    for x in nm1.element_ids():
        assert (x in ids) == (nm1.tnorm(x, x) == x)


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
        if g not in algebra.idempotent_ids:
            assert algebra.tnorm(g, g) == algebra.bottom_id


ALPHA = parse("(x1 <-> ~x1)^2 & x1")


def test_element_of_examples(nm1):
    assert nm1.element_of(TOP) == nm1.top_id
    a = nm1.element_of(ALPHA)
    assert a in nm1.join_irreducible_ids
    assert a not in nm1.idempotent_ids
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


def test_proves_is_the_tautology_of_the_square_implying_the_conclusion():
    # The pointwise order phi * phi <= psi against the walk of phi^2 -> psi;
    # variables up to x{n + 2} check that both name the same unbound one first.
    rng = random.Random(30)
    for n, variant, _ in itertools.product(range(4), Variant, range(40)):
        phi, psi = (random_formula(rng, n + rng.choice((0, 0, 0, 1, 2)), rng.randrange(4))
                    for _ in range(2))
        try:
            expected = is_tautology(n, variant, Implies(Square(phi), psi))
        except EvaluationError as error:
            with pytest.raises(EvaluationError) as raised:
                proves(n, variant, phi, psi)
            assert str(raised.value) == str(error)
        else:
            assert proves(n, variant, phi, psi) == expected


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
    # 299 kept steps on the 13**5-point grid: unchunked, the step values
    # alone would take 299 * 371293 bytes, over 100 MiB.
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


def test_closure_pairs_are_bounded(monkeypatch):
    # The benchmark's capped two-generator builds stop at their caps after
    # about 4.5e5 (nm) and 5.0e5 (nm-) pairs, far below the bound.
    for variant, cap in ((Variant.NM, 120_000), (Variant.NM_MINUS, 60_000)):
        with pytest.raises(ElementCapExceeded, match=f"cap {cap}"):
            build(2, variant, element_cap=cap)
    # A complete closure walks every ordered pair once, across all its rounds:
    # 48**2 for nm1 and 16**2 for nm-1.  The count runs over the rounds, so a
    # bound one pair short refuses the last slab.
    for form in TABLE_FORMS:
        use_table_form(monkeypatch, form)
        for variant, size in ((Variant.NM, 48), (Variant.NM_MINUS, 16)):
            monkeypatch.setattr(free_algebra, "MAX_CLOSURE_PAIRS", size**2)
            assert build(1, variant).size == size
            monkeypatch.setattr(free_algebra, "MAX_CLOSURE_PAIRS", size**2 - 1)
            with pytest.raises(ValueError, match=f"MAX_CLOSURE_PAIRS = {size**2 - 1} pairs"):
                build(1, variant)
    # On factor ids too, the bound comes before the cap.
    monkeypatch.setattr(free_algebra, "MAX_CLOSURE_PAIRS", 10_000)
    for variant in Variant:
        with pytest.raises(ValueError, match="MAX_CLOSURE_PAIRS = 10000 pairs"):
            build(2, variant, element_cap=60_000)


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
    # json.loads reads Infinity and NaN; neither is an integer.
    "infinite n": (lambda d: {**d, "n": float("inf")}, "generator count must be an integer"),
    "nan n": (lambda d: {**d, "n": float("nan")}, "generator count must be an integer"),
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
                              "stored idempotent ids disagree"),
    # JSON's true and 1.0 equal 1, but are not integers.
    "n true": (lambda d: {**d, "n": True}, "generator count must be an integer"),
    "chain size 4.0": (lambda d: {**d, "chain_size": 4.0},
                       "chain size does not match generator count and variant"),
    "bottom false": (lambda d: {**d, "bottom": False}, "bottom and top ids must be 0 and 1"),
    "top 1.0": (lambda d: {**d, "top": 1.0}, "bottom and top ids must be 0 and 1"),
    "id false": (lambda d: {**d, "elements": [{**e, "id": False} if e["id"] == 0 else e
                                              for e in d["elements"]]},
                 "element ids must be 0..N-1"),
    "id 1.0": (lambda d: {**d, "elements": [{**e, "id": 1.0} if e["id"] == 1 else e
                                            for e in d["elements"]]},
               "element ids must be 0..N-1"),
    "vector entry true": (lambda d: {**d, "elements": [
                              {**e, "vector": [True if v == 1 else v for v in e["vector"]]}
                              for e in d["elements"]]},
                          "vector entries must be integers in 0..3"),
    "cover id 1.0": (lambda d: {**d, "covers": [[a, float(b)] for a, b in d["covers"]]},
                     "stored covers disagree with the order"),
    "join-irreducible id 10.0": (lambda d: {**d, "join_irreducible": [
                                     float(x) if x == 10 else x for x in d["join_irreducible"]]},
                                 "stored join-irreducible ids disagree"),
    "idempotent id 1.0": (lambda d: {**d, "idempotent": [
                              1.0 if x == 1 else x for x in d["idempotent"]]},
                          "stored idempotent ids disagree"),
    # A long digit string is refused before int() reads it.
    "5000-digit n": (lambda d: {**d, "n": "1" * 5000}, "generator count must be an integer"),
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
    # The operation table takes 16 * 512**2 bytes, 4 MiB, and the order 2 *
    # 512**2 and a 1 MiB block of column comparisons, where comparing all 49
    # columns of every pair at once would take 12 MiB; a set of the N**2 pair
    # keys would take over 30 MiB.
    tracemalloc.start()
    try:
        algebra = FreeAlgebra.from_export(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert algebra.size == 512
    assert peak < 12 * 2**20


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
