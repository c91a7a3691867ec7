"""Free finitely generated algebras, built as closures of truth vectors.

An element of the free ``n``-generated algebra is represented by its truth
vector: the tuple of values the corresponding term takes at every point of
the assignment grid ``C^n``, where ``C`` is a finite chain large enough to
be generic for ``n`` generators (size ``2n+3`` with a negation fixpoint,
``2n+2`` without).  Positions follow the lexicographic grid order of
:func:`nmlogic.chain.grid_coordinates`.  Two terms are logically equivalent
exactly when their truth vectors coincide, so deduplicating vectors yields
one canonical element per equivalence class.

The build is a breadth-first fixed-point closure, under the four binary
operations, of the seeds bottom, top and the projections, which are grid
rows: the zero row, the top row and :func:`nmlogic.chain.grid_coordinates`.
Element ids follow discovery order, as if each round tried every pair of
the elements known at its start in lexicographic id order, each pair as
meet, join, fusion, implication.  A round skips the pairs of earlier
rounds, which only yield known vectors, and walks the rest as one flat
row-major range (old rows with new columns, then new rows with all
columns) in slabs of ``_SLAB`` pairs.  A slab takes its operand rows with
``take`` and writes its results into one (pairs, 4, width) array: ``[p,
op]`` is pair ``p`` under ``_OP_TAGS[op]``.  It commits the first
occurrence of each new key, found by one stable ``argsort`` of the missing
keys.  A one-generator build is four (nm-) or five (nm) rounds of one slab
each, so a slab keeps to few numpy calls.  One loop, :func:`_close_rows`,
runs it on rows of either kind: :func:`_close` on vectors and, at ``n =
2``, :func:`_close_blocks` on rows of factor ids; it returns the rows, their
table and an (op, row, col) triple per new row.  :func:`build` alone checks
the grid and byte bounds, before any closure runs, and turns the triples
into provenance.  Closure and :attr:`FreeAlgebra.operation_table`, which
walks every pair, share one pair walk, :func:`_slabs`.

At ``n = 2`` the grid splits into the sign blocks of
:func:`nmlogic.chain.sign_blocks`, and the closure's projection onto each
block is a small factor: 36 elements on a 9-point block, 5 on 3 points and
3 on 1 (cf. Aguzzoli and Gerla, *Normal forms and free algebras for some
extensions of MTL*, Fuzzy Sets and Systems, 2008).  Each factor is closed
once per grid by :func:`_close` and tabulates its four operations.  A vector
is named by its tuple of projections and the operations act on each block
alone, so the closure of those tuples, with results gathered from the
factor tables, finds the same ids in the same order as the closure of the
vectors; a complete one scatters its factor rows back into vectors.  Its
slab results stay in the memory of the tables' ``take``, (pairs, blocks, 4),
seen as (pairs, 4, blocks) without a copy, and the index of that ``take`` is
computed in the narrowest unsigned dtype that holds the flat tables' rows
(uint16 for both variants).

The element table, :class:`_Table`, maps each row to its id and alone knows
the key format; the closure and each algebra keep one.  A row's code is its
mixed-radix value, ``sum(v[j] * k**j)`` for a vector over a ``k``-chain.
Below ``_DENSE_CODES`` codes (every grid with at most one generator, and
nm-'s two-generator factor rows) a key is the code and the ids are one
int32 array indexed by code, -1 where no element has that code; below
``_HASHED_CODES``, where codes fit int64 (nm's factor rows), a key is the
code and the ids a vectorised open-addressing hash table, :class:`_CodeMap`,
whose lookups and inserts share one probe that settles most codes at their
home slot in one pass, and which is sized once for the closure's cap,
within ``MAX_TABLE_BYTES``, before the first pair; above that (vectors from
two generators on) a key is the row's bytes and the ids a dict.  Each way a
slab is looked up, deduplicated and added in a few array calls.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import formula as fm
from .chain import (eval_grid, grid_coordinates, grid_points, residuum_block, shared_chain,
                    sign_blocks, tnorm_block)

DEFAULT_ELEMENT_CAP = 100_000

# Bytes an N x N structure or a closure may allocate: operation_table takes 16
# per pair of elements; leq_matrix is checked at a vector width per pair, which
# keeps N below 2**14, as cover_matrix's float32 product needs to count exactly,
# though it takes 2 per pair and one block of columns; a closure's rows take a
# vector width per element up to its cap (its table keys as much again), a
# hashed element table 12 per slot, and one slab at most this.  Complete
# algebras stay far below it; imports and big caps need not.
MAX_TABLE_BYTES = 1 << 28

# Pairs a closure may walk in all its rounds: about 7 s of nm-'s two-generator
# closure and 26 s of nm's, on the hashed table (2 vCPUs).
MAX_CLOSURE_PAIRS = 1 << 26

_SLAB = 2048

# The element cap of a sign-block factor closure (at most 36 elements): 4096 hash slots.
_FACTOR_CAP = 1 << 10

# Bytes of one block of leq_matrix's column comparisons, when N**2 is below it.
_ORDER_BLOCK_BYTES = 1 << 20

# Rows with at most this many possible codes keep their element table as one
# dense int32 array indexed by code (8 MiB at the bound); rows with at most
# _HASHED_CODES, whose codes fit int64, a hash table of codes.
_DENSE_CODES = 1 << 21
_HASHED_CODES = 1 << 63

# The odd multiplier of a hash table's Fibonacci hash.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_OP_TAGS = ("meet", "join", "tnorm", "imp")

# Provenance tag -> the formula node it records.
_PROVENANCE_NODES = {"bot": lambda: fm.BOT, "top": lambda: fm.TOP, "var": fm.Var,
                     **dict(zip(_OP_TAGS, (fm.And, fm.Or, fm.Strong, fm.Implies)))}


class Variant(str, Enum):
    """Which equational class the free algebra lives in."""

    NM = "nm"
    NM_MINUS = "nm-"


def generic_chain_size(n: int, variant: Variant) -> int:
    """Size of the evaluation chain that is generic for ``n`` generators.

    ``2n+3`` leaves room for n generic values, their negations, both
    constants and the fixpoint; dropping the fixpoint gives ``2n+2``.
    """
    if n < 0:
        raise ValueError(f"generator count must be >= 0, got {n}")
    return 2 * n + 3 if Variant(variant) is Variant.NM else 2 * n + 2


class ElementCapExceeded(RuntimeError):
    """The closure grew past the configured element cap."""

    def __init__(self, attained: int, cap: int):
        self.attained = attained
        self.cap = cap
        super().__init__(
            f"closure reached {attained} elements with more pending (cap {cap})"
        )


def truth_vector(n: int, variant: Variant, f: fm.Formula) -> tuple[int, ...]:
    """Evaluate ``f`` at every point of the generic grid for ``n`` generators.

    This is the canonical representative of the equivalence class of ``f``
    and needs no closure, so it stays cheap even where the full free
    algebra is far too large to build.  A variable above ``x{n}`` has no
    binding and raises :class:`nmlogic.chain.EvaluationError`, a
    ``ValueError``, as does a grid above ``nmlogic.chain.MAX_GRID_POINTS``.
    """
    return tuple(eval_grid(f, shared_chain(generic_chain_size(n, variant)), n).tolist())


def is_tautology(n: int, variant: Variant, f: fm.Formula) -> bool:
    """True iff ``f`` evaluates to top under every generic grid assignment."""
    top = generic_chain_size(n, variant) - 1
    return bool((eval_grid(f, shared_chain(top + 1), n) == top).all())


def proves(n: int, variant: Variant, phi: fm.Formula, psi: fm.Formula) -> bool:
    """Local deduction: phi proves psi iff phi^2 -> psi is a tautology, that
    is iff phi * phi <= psi at every generic grid point.

    Each formula runs its own program; ``phi``'s unbound variable is named
    before ``psi``'s, as in the walk of ``phi^2 -> psi``.
    """
    chain = shared_chain(generic_chain_size(n, variant))
    a = eval_grid(phi, chain, n)
    return bool((tnorm_block(chain.size - 1, a, a) <= eval_grid(psi, chain, n)).all())


class _CodeMap:
    """Int32 ids of distinct int64 codes, read and written like a dense id array.

    A vectorised open-addressing table with linear probing: a code's probe
    sequence starts at its Fibonacci hash, the top bits of the uint64 product
    ``code * _GOLDEN``, which wraps by design.  The slots are allocated once,
    at construction: the least power of two that is at least four times
    ``capacity``, the most codes the map will hold, so it is never over a
    quarter full and probe runs stay short.  Slots take 12 bytes each; slots
    past ``MAX_TABLE_BYTES`` raise ``ValueError`` before anything is
    allocated, so a closure's map fails before its first pair.  A closure
    sizes its map by its element cap, a sign-block factor's by ``_FACTOR_CAP``.
    ``m[codes]`` is -1 where a code is missing; ``m[codes] = ids`` writes
    distinct missing codes each at its slot and probes again for those that
    lost a slot to another.  Both share one probe, :meth:`_slots`, which reads
    every code's home slot in one pass and probes on, a step for all of them
    at once, only for the codes whose home slot holds another code.
    """

    def __init__(self, capacity: int):
        size = 1 << (4 * capacity - 1).bit_length()
        _check_bytes(12 * size, f"hash table of {size} slots")
        self._codes = np.full(size, -1, dtype=np.int64)
        self._ids = np.empty(size, dtype=np.int32)
        self._shift, self._mask = np.uint64(65 - size.bit_length()), size - 1

    def _home(self, codes: np.ndarray) -> np.ndarray:
        return ((codes.view(np.uint64) * _GOLDEN) >> self._shift).astype(np.intp)

    def _slots(self, codes: np.ndarray) -> np.ndarray:
        """Each code's slot: the one holding it, else the empty slot ending its probe run."""
        slot = self._home(codes)
        held = self._codes[slot]
        todo = np.flatnonzero((held != codes) & (held >= 0))
        codes, at = codes[todo], slot[todo]
        while todo.size:
            slot[todo] = at = (at + 1) & self._mask
            held = self._codes[at]
            go = (held != codes) & (held >= 0)
            codes, todo, at = codes[go], todo[go], at[go]
        return slot

    def __getitem__(self, codes: np.ndarray) -> np.ndarray:
        slot = self._slots(codes)
        return np.where(self._codes[slot] == codes, self._ids[slot], -1)

    def __setitem__(self, codes: np.ndarray, ids: np.ndarray) -> None:
        while codes.size:
            slot = self._slots(codes)
            self._codes[slot] = codes
            # Of the codes claiming one empty slot, the one written last holds it.
            won = self._codes[slot] == codes
            self._ids[slot[won]] = ids[won]
            codes, ids = codes[~won], ids[~won]


class _Table:
    """The element table: the id of each row whose entry ``j`` lies in ``0..radices[j]-1``.

    It alone knows the key format.  Where the rows have at most
    ``_DENSE_CODES`` mixed-radix codes ``sum(row[j] * prod(radices[:j]))``, a
    key is the code and the ids are one int32 array indexed by code; where
    they have at most ``_HASHED_CODES`` and so fit int64, a key is the code
    and the ids a :class:`_CodeMap` sized for the ``capacity`` rows the
    table will hold at most.  Above that a key is a void view of the
    row's bytes, which keeps trailing zeros, and the ids are a dict from
    ``bytes``.  Every radix is at least 2, so 64 of them are over the int64
    bound; taking the product of at most 64 keeps a wide import from costing
    a huge number.
    """

    def __init__(self, radices: Sequence[int], capacity: int):
        self._void = np.dtype((np.void, len(radices)))
        codes = math.prod(radices[:64])
        if codes > _HASHED_CODES:
            self._weights, self._ids = None, {}
        else:
            self._weights = np.array([1, *radices[:-1]], dtype=np.int64).cumprod()
            self._ids = (np.full(codes, -1, dtype=np.int32) if codes <= _DENSE_CODES
                         else _CodeMap(capacity))

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """One flat array of keys, one per row on ``rows``' last axis, in C order.

        Codes contract that axis in the order its memory favours: ``rows @
        weights`` where the rows are contiguous (vector slabs), ``weights @``
        the swapped axes where the last axis is strided (the factor route's
        view of (pairs, blocks, 4) memory).  Bytes keys view each row whole,
        so they copy a strided view first.
        """
        if self._weights is None:
            return np.ascontiguousarray(rows).view(self._void).ravel()
        if rows.strides[-1] == rows.itemsize:
            return (rows @ self._weights).ravel()
        return (self._weights @ rows.swapaxes(-1, -2)).ravel()

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The id of each key, -1 where no element has it."""
        if self._weights is None:
            get = self._ids.get
            return np.array([get(key, -1) for key in keys.tolist()], dtype=np.int32)
        return self._ids[keys]

    def add(self, keys: np.ndarray, start: int) -> None:
        """Give the distinct new ``keys`` the ids ``start``, ``start + 1``, ..."""
        if self._weights is None:
            self._ids.update(zip(keys.tolist(), range(start, start + len(keys))))
        else:
            self._ids[keys] = np.arange(start, start + len(keys))


def _connectives(top: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Meet, join, fusion and implication of the row pairs ``a``, ``b`` over the
    chain with top index ``top``, on axis 1 in ``_OP_TAGS`` order.

    Each result is written straight into one (pairs, 4, width) array, as
    ``np.stack``'s per-operand wrapping costs more than the arithmetic on a
    one-generator slab.
    """
    out = np.empty((len(a), 4, a.shape[1]), dtype=a.dtype)
    np.minimum(a, b, out=out[:, 0])
    np.maximum(a, b, out=out[:, 1])
    out[:, 2] = tnorm_block(top, a, b)
    out[:, 3] = residuum_block(top, a, b)
    return out


def _slabs(ops, snapshot: np.ndarray, previous: int, table: _Table):
    """Yield rows, columns, result rows and their ``table`` keys per slab of
    at most ``_SLAB`` untried pairs.

    Untried pairs, row-major: old rows x new columns, then new rows x all.
    With ``previous = 0`` that is every pair in row-major order.  A slab's
    rows and columns are one ``divmod`` of its flat range per segment, so
    only a slab that straddles the two segments joins two pieces.  The
    operand rows are ``snapshot.take(rows, axis=0)``, much faster than
    fancy indexing on rows of a few bytes.  ``ops(a, b)`` stacks the four
    results of the row pairs as :func:`_connectives` does, so ``results[p,
    k]``, of shape (pairs, 4, width), is the slab's pair ``p`` under
    ``_OP_TAGS[k]`` and has key ``4p + k``.  A slab takes up to 17 bytes a
    pair per vector entry (tracemalloc, n = 5 closures), so wide grids take
    fewer pairs to stay within ``MAX_TABLE_BYTES``.
    """
    current, width = snapshot.shape
    new = current - previous
    old_pairs = previous * new
    total = old_pairs + new * current
    slab = max(1, min(_SLAB, MAX_TABLE_BYTES // (17 * width)))
    for lo in range(0, total, slab):
        hi = min(lo + slab, total)
        pieces = []
        if lo < old_pairs:
            rows, cols = np.divmod(np.arange(lo, min(hi, old_pairs)), new)
            pieces.append((rows, cols + previous))
        if hi > old_pairs:
            rows, cols = np.divmod(np.arange(max(lo, old_pairs) - old_pairs, hi - old_pairs),
                                   current)
            pieces.append((rows + previous, cols))
        rows, cols = pieces[0] if len(pieces) == 1 else map(np.concatenate, zip(*pieces))
        results = ops(snapshot.take(rows, axis=0), snapshot.take(cols, axis=0))
        yield rows, cols, results, table.keys(results)


def _pair_ids(ops, rows: np.ndarray, table: _Table) -> np.ndarray:
    """Int32 ids, shape (N, N, 4), of ``ops`` on every pair of the N ``rows``,
    looked up in ``table``; -1 where a result has no id."""
    ids = np.empty(4 * len(rows) ** 2, dtype=np.int32)
    lo = 0
    for *_, keys in _slabs(ops, rows, 0, table):
        ids[lo:lo + len(keys)] = table.lookup(keys)
        lo += len(keys)
    return ids.reshape(len(rows), len(rows), 4)


def _check_bytes(need: int, what: str) -> None:
    """``ValueError`` before the ``what`` allocates ``need`` bytes over ``MAX_TABLE_BYTES``."""
    if need > MAX_TABLE_BYTES:
        raise ValueError(f"the {what} needs {need} bytes, over MAX_TABLE_BYTES = {MAX_TABLE_BYTES}")


def _cover_matrix(leq: np.ndarray) -> np.ndarray:
    """cover[x, y] iff x < y with nothing strictly between, in the boolean order ``leq``."""
    lt = leq.copy()
    np.fill_diagonal(lt, False)
    # float32 goes to BLAS and counts exactly: N < 2**14 under MAX_TABLE_BYTES.
    strict = lt.astype(np.float32)
    return lt & ~((strict @ strict) > 0)


def _ints(values) -> bool:
    """Whether every value is an int proper: JSON's true and 1.0 equal 1, but are not."""
    return set(map(type, values)) <= {int}


def _cached(compute):
    """A read-only property keeping ``compute``'s value, never None, in ``self._cache``."""
    name = compute.__name__

    @functools.wraps(compute)
    def fget(self):
        value = self._cache.get(name)
        if value is None:
            value = self._cache[name] = compute(self)
        return value

    return property(fget)


class FreeAlgebra:
    """A closed, deduplicated and annotated algebra of truth vectors.

    Elements are referred to by their integer id (position in discovery
    order).  The bottom element always has id 0 and the top id 1; the
    projections follow, then everything the closure discovered.  All
    structure (order, covers, the join-irreducible and idempotent ids, and the
    operation table filled by :func:`build`'s pair walk) is derived from the
    vectors and cached lazily; instances are immutable and safe to share.

    The constructor alone checks a vector set: at least two distinct rows of
    grid width (``k**n``, within ``MAX_GRID_POINTS``) and integers in
    ``0..k-1``, else ``ValueError``; :meth:`check_closed` checks closure.
    """

    # True on build's results, which are closed by construction; read by
    # filters.quotient_by_maximal, which then skips its closure check.
    _built = False

    def __init__(
        self,
        n: int,
        variant: Variant,
        vectors: np.ndarray,
        provenance: tuple[tuple, ...] | None,
    ):
        self.n = n
        self.variant = Variant(variant)
        k = generic_chain_size(n, variant)
        self.chain = shared_chain(k)
        width = grid_points(k, n)
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or len(vectors) < 2 or vectors.shape[1] != width:
            raise ValueError(f"expected at least two vectors of grid length {k}**{n}")
        if vectors.dtype.kind not in "iu" or vectors.min() < 0 or vectors.max() > k - 1:
            raise ValueError(f"vector entries must be integers in 0..{k - 1}")
        vectors = np.ascontiguousarray(vectors, dtype=np.uint8)
        vectors.flags.writeable = False
        self.vectors = vectors
        self.provenance = provenance
        self.bottom_id = 0
        self.top_id = 1
        self._table = _Table([k] * width, len(vectors))
        keys = self._table.keys(vectors)
        self._table.add(keys, 0)
        if (self._table.lookup(keys) != np.arange(len(vectors))).any():
            raise ValueError("duplicate truth vectors")
        self._cache: dict[str, object] = {}

    # -- size and raw vectors ------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.vectors)

    def element_ids(self) -> range:
        return range(self.size)

    def vector(self, x: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.vectors[x])

    def id_of_vector(self, vector: Sequence[int]) -> int:
        """The id of the element with this truth vector; ``KeyError`` if there is none,
        as for anything but a width-long vector of integers in ``0..k-1``."""
        with contextlib.suppress(ValueError):  # ValueError: a ragged sequence
            v = np.asarray(vector)
            if v.shape == self.vectors.shape[1:] and v.dtype.kind in "iu":
                values = v.tolist()
                if 0 <= min(values) and max(values) <= self.chain.size - 1:
                    x = self._table.lookup(self._table.keys(v.astype(np.uint8))).item()
                    if x >= 0:
                        return x
        raise KeyError(f"vector {vector!r} is not an element")

    # -- operations ----------------------------------------------------------

    @_cached
    def operation_table(self) -> np.ndarray:
        """Read-only int32 result ids of shape (N, N, 4): ``[x, y, k]`` is x op_k y.

        The operations are meet, join, fusion and implication.  The table is
        filled from :func:`_slabs` over every pair, so temporaries are one
        slab's results and keys, looked up in the algebra's element table.
        ``KeyError`` naming the operations that leave the set if it is not
        closed; ``ValueError`` above ``MAX_TABLE_BYTES``.
        """
        _check_bytes(16 * self.size**2, f"operation table of {self.size} elements")
        table = _pair_ids(functools.partial(_connectives, self.chain.size - 1), self.vectors,
                          self._table)
        leaving = [tag for tag, out in zip(_OP_TAGS, (table < 0).any(axis=(0, 1))) if out]
        if leaving:
            raise KeyError(f"not closed under {', '.join(leaving)}")
        table.flags.writeable = False
        return table

    def meet(self, x: int, y: int) -> int:
        return int(self.operation_table[x, y, 0])

    def join(self, x: int, y: int) -> int:
        return int(self.operation_table[x, y, 1])

    def tnorm(self, x: int, y: int) -> int:
        return int(self.operation_table[x, y, 2])

    def residuum(self, x: int, y: int) -> int:
        return int(self.operation_table[x, y, 3])

    def neg(self, x: int) -> int:
        return self.residuum(x, self.bottom_id)

    def iff(self, x: int, y: int) -> int:
        return self.tnorm(self.residuum(x, y), self.residuum(y, x))

    # -- order structure -----------------------------------------------------

    @_cached
    def leq_matrix(self) -> np.ndarray:
        """Boolean matrix of the pointwise order: leq[x, y] iff x <= y.

        The grid columns are compared in blocks of ``_ORDER_BLOCK_BYTES //
        N**2`` of them, at least one, each reduced over the block's columns
        and ANDed into the result, so temporaries stay within the larger of
        that bound and N x N bytes.  A reduction over a short last axis, one
        per pair, would cost far more.  ``ValueError`` if a vector width per
        pair of elements would be over ``MAX_TABLE_BYTES``.
        """
        size = self.size
        _check_bytes(self.vectors.shape[1] * size**2, f"order matrix of {size} elements")
        columns = np.ascontiguousarray(self.vectors.T)
        step = max(1, _ORDER_BLOCK_BYTES // size**2)
        leq = np.ones((size, size), dtype=bool)
        for lo in range(0, len(columns), step):
            block = columns[lo:lo + step]
            leq &= (block[:, :, None] <= block[:, None, :]).all(axis=0)
        leq.flags.writeable = False
        return leq

    def leq(self, x: int, y: int) -> bool:
        return bool(self.leq_matrix[x, y])

    @_cached
    def cover_matrix(self) -> np.ndarray:
        """cover[x, y] iff y covers x: x < y with nothing strictly between."""
        cover = _cover_matrix(self.leq_matrix)
        cover.flags.writeable = False
        return cover

    def covers(self) -> list[tuple[int, int]]:
        """All cover pairs (child, parent), sorted."""
        return [tuple(pair) for pair in np.argwhere(self.cover_matrix).tolist()]

    @_cached
    def heights(self) -> tuple[int, ...]:
        """Length of the longest chain from bottom up to each element.

        In a finite distributive lattice every maximal chain from bottom to x
        has one step per join-irreducible below x (Birkhoff's representation
        theorem), so the height is that count.
        """
        below = self.leq_matrix[list(self.join_irreducible_ids)]
        return tuple(below.sum(axis=0).tolist())

    # -- annotations ---------------------------------------------------------

    @_cached
    def join_irreducible_ids(self) -> tuple[int, ...]:
        """Elements with exactly one lower cover, ascending; bottom has none."""
        return tuple(np.flatnonzero(self.cover_matrix.sum(axis=0) == 1).tolist())

    @_cached
    def idempotent_ids(self) -> tuple[int, ...]:
        """Elements fixed by fusion with themselves, ascending."""
        v = self.vectors
        fixed = (tnorm_block(self.chain.size - 1, v, v) == v).all(axis=1)
        return tuple(np.flatnonzero(fixed).tolist())

    @_cached
    def minimal_idempotent_ji_ids(self) -> tuple[int, ...]:
        """Idempotent join-irreducibles with no smaller idempotent join-irreducible."""
        gens = np.intersect1d(self.join_irreducible_ids, self.idempotent_ids)
        below = self.leq_matrix[np.ix_(gens, gens)]
        # Column g counts the generators below g, g included.
        return tuple(gens[below.sum(axis=0) == 1].tolist())

    # -- formulas ------------------------------------------------------------

    def element_of(self, f: fm.Formula) -> int:
        """The id of the equivalence class of ``f``.

        The formula's truth vector is always present because the algebra is
        closed.
        """
        return self.id_of_vector(truth_vector(self.n, self.variant, f))

    def representative_formula(self, x: int) -> fm.Formula:
        """A formula whose equivalence class is ``x``.

        Reconstructed from the closure provenance; subterms are shared, so
        the result is DAG-shaped and linear in the number of ancestors.
        Unavailable on imported algebras, which carry no provenance.
        """
        if self.provenance is None:
            raise ValueError("algebra was imported without provenance")
        cache = self._cache.setdefault("formulas", {})
        for i in range(x + 1):
            if i not in cache:
                tag, *args = self.provenance[i]
                if tag in _OP_TAGS:
                    args = [cache[j] for j in args]
                cache[i] = _PROVENANCE_NODES[tag](*args)
        return cache[x]

    # -- export / import -----------------------------------------------------

    def export(self) -> dict:
        """A JSON-ready description of the algebra and its annotations."""
        return {
            "n": self.n,
            "variant": self.variant.value,
            "chain_size": self.chain.size,
            "grid_order": "lex-by-index",
            "elements": [
                {"id": x, "vector": vector} for x, vector in enumerate(self.vectors.tolist())
            ],
            "bottom": self.bottom_id,
            "top": self.top_id,
            "covers": [list(pair) for pair in self.covers()],
            "join_irreducible": list(self.join_irreducible_ids),
            "idempotent": list(self.idempotent_ids),
        }

    @classmethod
    def from_export(cls, data: Mapping, validate: bool = True) -> "FreeAlgebra":
        """Rebuild an algebra from :meth:`export` output.

        The vectors always pass the constructor's checks; here the ids must
        be ``0..N-1``, ``n`` match ``chain_size`` and elements 0 and 1 be
        bottom and top.  With ``validate`` the set must be closed under the
        four operations, checked by :meth:`check_closed`, and the stored
        annotations are recomputed and compared.  Any mismatch raises
        ``ValueError``, as does a document that lacks a field or holds one of
        the wrong type.
        """
        try:
            variant = Variant(data["variant"])
            n = data["n"]
            if type(n) is not int:
                raise ValueError(f"generator count must be an integer, got {n!r:.40}")
            k = generic_chain_size(n, variant)
            if data["chain_size"] != k or type(data["chain_size"]) is not int:
                raise ValueError("chain size does not match generator count and variant")
            elements = sorted(data["elements"], key=lambda e: e["id"])
            ids = [e["id"] for e in elements]
            if ids != list(range(len(ids))) or not _ints(ids):
                raise ValueError("element ids must be 0..N-1")
            vectors = [e["vector"] for e in elements]
            algebra = cls(n, variant, vectors, provenance=None)
            if not _ints(itertools.chain.from_iterable(vectors)):
                raise ValueError(f"vector entries must be integers in 0..{k - 1}")
            if (algebra.vectors[0] != 0).any() or (algebra.vectors[1] != k - 1).any():
                raise ValueError("elements 0 and 1 must be bottom and top")
            if validate:
                bounds = data["bottom"], data["top"]
                if bounds != (0, 1) or not _ints(bounds):
                    raise ValueError("bottom and top ids must be 0 and 1")
                try:
                    algebra.check_closed()
                except KeyError as err:
                    raise ValueError(err.args[0]) from None
                covers = [list(p) for p in data["covers"]]
                if (covers != [list(p) for p in algebra.covers()]
                        or not _ints(itertools.chain.from_iterable(covers))):
                    raise ValueError("stored covers disagree with the order")
                stored = list(data["join_irreducible"])
                if list(algebra.join_irreducible_ids) != stored or not _ints(stored):
                    raise ValueError("stored join-irreducible ids disagree")
                stored = list(data["idempotent"])
                if list(algebra.idempotent_ids) != stored or not _ints(stored):
                    raise ValueError("stored idempotent ids disagree")
        except KeyError as err:
            raise ValueError(f"export document lacks the field {err}") from None
        except TypeError as err:
            raise ValueError(f"malformed export document: {err}") from None
        return algebra

    def check_closed(self) -> None:
        """Verify closure by building :attr:`operation_table`; ``KeyError`` if not closed."""
        self.operation_table


def build(
    n: int, variant: Variant, element_cap: int = DEFAULT_ELEMENT_CAP
) -> FreeAlgebra:
    """Construct the free ``n``-generated algebra of the given variant.

    A grid over ``MAX_GRID_POINTS``, or ``element_cap`` vectors over
    ``MAX_TABLE_BYTES``, raises ``ValueError`` first, before anything is
    allocated, as does a hashed table whose slots would pass it.  Then the
    grid rows of bottom, top and ``x1..xn`` seed :func:`_close`, or at ``n =
    2`` :func:`_close_blocks` over their sign-block factors, and their records
    and the closure's triples become provenance.  The result is identical
    across runs, slab sizes and table forms.  Past ``element_cap`` elements
    :class:`ElementCapExceeded` names the size attained; growth for three or
    more generators is explosive, so the cap is the intended way to probe it
    safely.  A closure that would walk over ``MAX_CLOSURE_PAIRS`` pairs, as
    a two-generator one does long before it completes, raises ``ValueError``.
    """
    if element_cap <= 0:
        raise ValueError(f"element cap must be positive, got {element_cap}")
    k = generic_chain_size(n, variant)
    width = grid_points(k, n)
    _check_bytes(element_cap * width, f"closure to {element_cap} vectors of width {width}")
    # One generator's grid is dense already, and from three on the factor codes overflow int64.
    if n == 2:
        vectors, made = _close_blocks(_grid_factors(k, n), element_cap)
    else:
        vectors, _, made = _close(_grid_seeds(k, n), k, element_cap)
    tags, rows, cols = made.T.tolist()
    provenance = (("bot",), ("top",), *(("var", v) for v in range(1, n + 1)),
                  *zip(map(_OP_TAGS.__getitem__, tags), rows, cols))
    algebra = FreeAlgebra(n, variant, vectors, provenance)
    algebra._built = True
    return algebra


def _grid_seeds(k: int, n: int) -> np.ndarray:
    """Bottom, top and ``x1..xn`` as uint8 rows of the ``n``-variable ``k``-chain grid."""
    grid = grid_coordinates(k, n)
    return np.vstack((np.full((2, grid.shape[1]), [[0], [k - 1]], dtype=np.uint8), grid))


def _close(seeds: np.ndarray, k: int, element_cap: int) -> tuple:
    """:func:`_close_rows` of the distinct uint8 rows ``seeds`` over a ``k``-chain."""
    return _close_rows(seeds, functools.partial(_connectives, k - 1), [k] * seeds.shape[1],
                       element_cap)


def _first_positions(keys: np.ndarray) -> np.ndarray:
    """Ascending positions of each distinct key's first occurrence in the non-empty
    ``keys``: ``np.sort(np.unique(keys, return_index=True)[1])`` in fewer calls.

    One stable ``argsort`` puts each key's first position first among its
    equals, and a sorted key starts a run where it differs from the one
    before it.  That test is the ``!=`` operator, as ``np.not_equal`` with
    ``out=`` has no loop for the void dtype of bytes keys.
    """
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    starts[1:] = ordered[1:] != ordered[:-1]
    positions = order[starts]
    positions.sort()
    return positions


def _close_rows(seeds: np.ndarray, ops, radices: Sequence[int], element_cap: int) -> tuple:
    """Rows, :class:`_Table` and new rows' int32 (op, row, col) triples of the closure under
    ``ops`` (as in :func:`_slabs`) of the distinct ``seeds``, entry ``j`` below ``radices[j]``.

    Per slab, the first position of each missing key in slab order is
    committed; :func:`_first_positions` finds it, as a slab can produce one
    new row twice and repeated fancy-index writes have no guaranteed order.
    A slab writes its ops, rows and columns straight into one (3, new rows)
    int32 block; the blocks are joined once the closure completes, so a
    capped build makes no tuple.  A slab that takes the pairs walked in all
    rounds past ``MAX_CLOSURE_PAIRS`` raises ``ValueError`` before any lookup.
    """
    if len(seeds) > element_cap:
        raise ElementCapExceeded(len(seeds), element_cap)
    table = _Table(radices, element_cap)
    table.add(table.keys(seeds), 0)
    snapshot, previous, walked, made = seeds, 0, 0, [np.empty((3, 0), dtype=np.int32)]
    while True:
        found = []
        count = len(snapshot)
        for rows, cols, results, keys in _slabs(ops, snapshot, previous, table):
            walked += len(rows)
            if walked > MAX_CLOSURE_PAIRS:
                raise ValueError(f"the closure would walk over MAX_CLOSURE_PAIRS = "
                                 f"{MAX_CLOSURE_PAIRS} pairs, at {count} elements")
            missing = (table.lookup(keys) < 0).nonzero()[0]
            if not missing.size:
                continue
            first = missing[_first_positions(keys[missing])]
            if count + len(first) > element_cap:
                raise ElementCapExceeded(element_cap + 1, element_cap)
            table.add(keys[first], count)
            count += len(first)
            pairs, op = np.divmod(first, 4)
            found.append(results[pairs, op])
            triples = np.empty((3, len(first)), dtype=np.int32)
            triples[0], triples[1], triples[2] = op, rows[pairs], cols[pairs]
            made.append(triples)
        if not found:
            return snapshot, table, np.concatenate(made, axis=1).T
        previous, snapshot = len(snapshot), np.concatenate([snapshot, *found])


class _Factors(NamedTuple):
    """A closure's sign-block factors; every array is read-only."""

    blocks: list[np.ndarray]   # the columns of each block, from chain.sign_blocks
    vectors: list[np.ndarray]  # each factor's elements on its block's columns
    tables: np.ndarray         # tables[b, x, y, op]: factor b's result ids, zero-padded
    seeds: np.ndarray          # the seeds as rows of factor ids, one column a block


def _factors(seeds: np.ndarray, k: int, n: int) -> _Factors:
    """The sign-block factors of the closure of the ``n``-variable grid rows ``seeds``.

    Factor ``b`` is the :func:`_close`, capped at ``_FACTOR_CAP``, of the seeds
    projected onto block ``b``'s columns, and its op table the :func:`_pair_ids`
    walk of its closure's table.
    """
    blocks = sign_blocks(k, n)
    ops = functools.partial(_connectives, k - 1)
    vectors, tables, seed_ids = [], [], []
    for cols in blocks:
        projected, inverse = np.unique(seeds[:, cols], axis=0, return_inverse=True)
        factor, table, _ = _close(projected, k, _FACTOR_CAP)
        vectors.append(factor)
        tables.append(_pair_ids(ops, factor, table))
        seed_ids.append(inverse)
    size = max(map(len, vectors))
    padded = np.zeros((len(blocks), size, size, 4), dtype=np.min_scalar_type(size - 1))
    for b, ids in enumerate(tables):
        padded[b, :len(ids), :len(ids)] = ids
    factors = _Factors(blocks, vectors, padded, np.stack(seed_ids, axis=1).astype(padded.dtype))
    for array in (*blocks, *vectors, padded, factors.seeds):
        array.flags.writeable = False
    return factors


@functools.cache
def _grid_factors(k: int, n: int) -> _Factors:
    """The sign-block factors of :func:`build`'s closure, made once per grid."""
    return _factors(_grid_seeds(k, n), k, n)


def _gather(tables: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_connectives` on rows of factor ids: each block's ids from its table.

    ``[p, op, b]`` is factor ``b``'s ``op`` on pair ``p``.  The tables' ``take``
    lays out (pairs, blocks, 4); the result is that memory seen as (pairs, 4,
    blocks), with no copy, which :meth:`_Table.keys` contracts as it lies.
    """
    blocks, size = tables.shape[:2]
    index = np.min_scalar_type(blocks * size * size - 1)
    pairs = a.astype(index)
    pairs *= size
    pairs += b
    pairs += np.arange(0, blocks * size * size, size * size, dtype=index)
    return np.moveaxis(tables.reshape(-1, 4).take(pairs, axis=0), 2, 1)


def _close_blocks(factors: _Factors, element_cap: int) -> tuple:
    """Vectors and triples of :func:`_close` of the seeds ``factors`` came from, on factor ids.

    A vector's projections onto its blocks name it and the operations act on
    each block alone, so this closure is that of the vectors renamed: the
    same pairs in the same order, the same ids, triples and cap errors.
    The codes of these rows are fewer than the factor sizes' product, where
    a vector's are ``k**width``.  A complete closure scatters each block's
    factor rows back into the vectors.
    """
    ids, _, made = _close_rows(factors.seeds, functools.partial(_gather, factors.tables),
                               [len(v) for v in factors.vectors], element_cap)
    vectors = np.empty((len(ids), sum(map(len, factors.blocks))), dtype=np.uint8)
    for cols, factor, column in zip(factors.blocks, factors.vectors, ids.T):
        vectors[:, cols] = factor[column]
    return vectors, made
