"""The three benchmark workloads and their correctness oracles.

Each workload is one closed-loop client.  Op ``i`` of a workload is fully
determined by the seed and ``i``, so two runs with the same seed send the
program the same inputs.  An op is split into ``prepare(i)``, the untimed
generation of its inputs; ``call(op)``, the timed request to the program;
and ``check(op, result)``, the untimed oracle that returns a description
of what is wrong, or None.  Oracles reach their answers by another route
than the one they check.  A round of ``round_ops`` ops is one full cycle of
the workload's mix.

All program calls go through module attributes (``fa.build``, ``cli.main``
and so on) so that the traced run can wrap them from outside.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from nmlogic import chain as ch
from nmlogic import cli
from nmlogic import filters as flt
from nmlogic import formula as fm
from nmlogic import free_algebra as fa
from nmlogic import models, valuations


def node_count(f: fm.Formula) -> int:
    """Distinct nodes of ``f``: the work size of one pointwise evaluation."""
    return sum(1 for _ in fm.subformulas(f))


class Closure:
    """Capped two-generator closures of both variants, one build per op.

    Loads ``free_algebra.build`` alone: its per-row commit loop and numpy
    block operations.  The caps are sized so that each build lasts about
    two seconds on the seed code; the two variants differ in duplicate
    rate, so a dedup change that helps one and hurts the other shows.
    """

    name = "closure"
    rate_name, rate_unit = "closure_elems_per_s", "elements/s"
    latency_prefix, latency_unit, latency_scale = "build_s", "s", 1.0
    round_ops = 2
    trace_ops = 4

    def __init__(self, seed: int, caps: dict | None = None):
        self.caps = caps or {fa.Variant.NM: 120_000, fa.Variant.NM_MINUS: 60_000}
        self.seed = seed

    def prepare(self, i: int) -> tuple[fa.Variant, int]:
        # Each round of two builds covers both variants, in a seeded order.
        order = Random(f"{self.seed}/round/{i // 2}").sample(list(self.caps), 2)
        variant = order[i % 2]
        return variant, self.caps[variant]

    def inputs(self, op) -> list[fm.Formula]:
        return []

    def warmup(self) -> None:
        for variant in self.caps:
            with contextlib.suppress(fa.ElementCapExceeded):
                fa.build(2, variant, element_cap=500)

    def call(self, op):
        variant, cap = op
        try:
            algebra = fa.build(2, variant, element_cap=cap)
        except fa.ElementCapExceeded as err:
            return err.attained, err.cap
        return algebra.size, None

    def work(self, op) -> int:
        return op[1]

    def check(self, op, result) -> str | None:
        attained, cap = result
        want = op[1]
        if cap != want or attained != want + 1:
            return f"capped build reported attained={attained} cap={cap}, want {want + 1}/{want}"
        return None

    def final_checks(self) -> list[str | None]:
        """The complete one-generator algebras: known sizes and closed."""
        outcomes = []
        for variant, size in ((fa.Variant.NM, 48), (fa.Variant.NM_MINUS, 16)):
            algebra = fa.build(1, variant)
            algebra.check_closed()
            outcomes.append(None if algebra.size == size else
                            f"{variant.value} one-generator algebra has {algebra.size} elements")
        return outcomes


# Depth slots cycle 4, 5, 6, 7; each slot draws until the distinct node
# count falls in its band, so every seed gets the same work profile while
# the connectives and variables vary.
_GRID_BANDS = {4: (12, 18), 5: (18, 26), 6: (26, 34), 7: (34, 44)}
_GRID_VARS = 3
_NM_K = fa.generic_chain_size(_GRID_VARS, fa.Variant.NM)
_NMM_K = fa.generic_chain_size(_GRID_VARS, fa.Variant.NM_MINUS)


def _grid_index(point, k: int) -> int:
    """Position of ``point`` in the lexicographic grid ``range(k)^n``."""
    index = 0
    for coordinate in point:
        index = index * k + coordinate
    return index


def _subgrid(values, k: int) -> np.ndarray:
    """Grid positions of the points whose coordinates all lie in ``values``."""
    return np.array([_grid_index(p, k) for p in itertools.product(values, repeat=_GRID_VARS)])


@dataclass(frozen=True)
class GridOp:
    index: int
    formula: fm.Formula
    conclusion: fm.Formula
    points: tuple


class GridEval:
    """Pointwise evaluation of random three-variable formulas, one formula per op.

    Loads the scalar evaluator (``chain.eval_chain`` through
    ``truth_vector``, ``is_tautology``, ``proves`` and ``count_models``);
    no free algebra is built, so a closure change leaves it unmoved.  Every
    op sends a new formula, so a cache of past answers gains nothing here.
    """

    name = "grid_eval"
    rate_name, rate_unit = "formulas_per_s", "formulas/s"
    latency_prefix, latency_unit, latency_scale = "formula_ms", "ms", 1000.0
    round_ops = 4
    trace_ops = 24

    def __init__(self, seed: int):
        self.seed = seed
        self._formulas: dict[int, fm.Formula] = {}
        self._vectors: dict[int, np.ndarray] = {}
        self._three = _subgrid([0, (_NM_K - 1) // 2, _NM_K - 1], _NM_K)
        self._two = _subgrid([0, _NMM_K - 1], _NMM_K)

    def _formula(self, i: int) -> fm.Formula:
        if i not in self._formulas:
            rng = Random(f"{self.seed}/formula/{i}")
            depth = 4 + i % 4
            lo, hi = _GRID_BANDS[depth]
            f = fm.random_formula(rng, _GRID_VARS, depth)
            while not lo <= node_count(f) <= hi:
                f = fm.random_formula(rng, _GRID_VARS, depth)
            self._formulas = {j: g for j, g in self._formulas.items() if j >= i - 1}
            self._formulas[i] = f
        return self._formulas[i]

    def prepare(self, i: int) -> GridOp:
        """Formula ``i``, proving formula ``i - 1``, at four rational grid points."""
        rng = Random(f"{self.seed}/points/{i}")
        points = tuple(tuple(rng.randrange(_NM_K) for _ in range(_GRID_VARS)) for _ in range(4))
        return GridOp(i, self._formula(i), self._formula(i - 1), points)

    def inputs(self, op: GridOp) -> list[fm.Formula]:
        return [op.formula, op.conclusion]

    def warmup(self) -> None:
        op = self.prepare(-1)
        self.check(op, self.call(op))

    def call(self, op: GridOp):
        g = fm.parse(fm.format_formula(op.formula))
        nm, nmm = fa.Variant.NM, fa.Variant.NM_MINUS
        return (
            g,
            fa.truth_vector(_GRID_VARS, nm, g),
            fa.truth_vector(_GRID_VARS, nmm, g),
            fa.is_tautology(_GRID_VARS, nm, g),
            fa.is_tautology(_GRID_VARS, nmm, g),
            fa.proves(_GRID_VARS, nm, g, op.conclusion),
            models.count_models(g, _GRID_VARS, models.AssignmentSpace.THREE),
            models.count_models(g, _GRID_VARS, models.AssignmentSpace.TWO),
            [
                ch.eval_standard(g, {v + 1: Fraction(p[v], _NM_K - 1) for v in range(_GRID_VARS)})
                for p in op.points
            ],
        )

    def work(self, op: GridOp) -> int:
        return 1

    def check(self, op: GridOp, result) -> str | None:
        g, tv_nm, tv_nmm, taut_nm, taut_nmm, proves, three, two, standard = result
        if g != op.formula:
            return "parse(format_formula(f)) differs from f"
        a, b = np.array(tv_nm), np.array(tv_nmm)
        if a.shape != (_NM_K ** _GRID_VARS,) or b.shape != (_NMM_K ** _GRID_VARS,):
            return f"truth vectors have shapes {a.shape} and {b.shape}"
        top, top_m = _NM_K - 1, _NMM_K - 1
        if taut_nm != bool((a == top).all()) or taut_nmm != bool((b == top_m).all()):
            return "is_tautology disagrees with the truth vector"
        if op.index - 1 in self._vectors:
            psi = self._vectors[op.index - 1]
        else:
            psi = np.array(fa.truth_vector(_GRID_VARS, fa.Variant.NM, op.conclusion))
        self._vectors = {op.index: a}
        # phi proves psi iff phi^2 <= psi pointwise; phi^2 is phi above the midpoint, else 0.
        square = np.where(2 * a > top, a, 0)
        if proves != bool((square <= psi).all()):
            return f"proves answered {proves}, the pointwise order says otherwise"
        if three != int((a[self._three] == top).sum()):
            return f"count_models THREE = {three}, the sub-grid of the nm vector says otherwise"
        if two != int((b[self._two] == top_m).sum()):
            return f"count_models TWO = {two}, the corners of the nm- vector say otherwise"
        for p, value in zip(op.points, standard):
            if value != Fraction(int(a[_grid_index(p, _NM_K)]), top):
                return f"eval_standard at {p} gave {value}, the chain says otherwise"
        return None

    def final_checks(self) -> list[str | None]:
        return []


@dataclass(frozen=True)
class Request:
    kind: str
    variant: str = "nm"
    formulas: tuple = ()
    argv: tuple = ()
    point: tuple = ()  # (index, chain size) of the value bound by eval requests
    paired: bool = False


def _algebra_args(variant: str) -> list[str]:
    return ["--vars", "1", "--variant", variant]


_DOT_NODE = re.compile(r'^\s+(\d+) \[label="([^"]*)"\];$')
_DOT_EDGE = re.compile(r"^\s+(\d+) -> (\d+);$")


def _dot(text: str) -> tuple[dict[int, str], set[tuple[int, int]]]:
    nodes, edges = {}, set()
    for line in text.splitlines():
        if m := _DOT_NODE.match(line):
            nodes[int(m.group(1))] = m.group(2)
        elif m := _DOT_EDGE.match(line):
            edges.add((int(m.group(1)), int(m.group(2))))
    return nodes, edges


class CliSession:
    """One-generator requests through ``cli.main``, called in-process.

    Every algebra command rebuilds a 48- or 16-element algebra and its
    annotations, so this loads per-call overhead, weight solving, the
    filter forest and export: the opposite end of ``build`` from
    ``closure``.  Each round of 120 requests has a fixed command mix in a
    seeded order, so every seed sends the same share of each command.
    """

    name = "cli_session"
    rate_name, rate_unit = "requests_per_s", "requests/s"
    latency_prefix, latency_unit, latency_scale = "request_ms", "ms", 1000.0
    round_ops = 120
    trace_ops = 720

    def __init__(self, seed: int):
        self.seed = seed
        self._rounds: dict[int, list[Request]] = {}
        self._printed: dict[int, str] = {}
        self.warm = {}
        for variant in (fa.Variant.NM, fa.Variant.NM_MINUS):
            algebra = fa.build(1, variant)
            algebra.covers()
            self.warm[variant.value] = (
                algebra,
                valuations.weights(algebra, valuations.euler_spec(algebra)),
                [g for g in algebra.join_irreducible_ids if g in set(algebra.idempotent_ids)],
            )
        # Stored export documents, re-imported by the library "import" requests.
        self.exports = {v: cli.algebra_json(a) for v, (a, _, _) in self.warm.items()}
        self.prepare(0)

    def _formula(self, rng: Random) -> fm.Formula:
        return fm.random_formula(rng, 1, rng.randint(2, 5))

    def _round(self, r: int) -> list[Request]:
        rng = Random(f"{self.seed}/round/{r}")
        units: list[list[Request]] = []
        for variant in ("nm", "nm-"):
            values = "3" if variant == "nm" else "2"
            for _ in range(7):
                f = self._formula(rng)
                text = fm.format_formula(f)
                units.append([
                    Request("chi-plus", variant, (f,), ("chi-plus", text, *_algebra_args(variant))),
                    Request("count-models", variant, (f,),
                            ("count-models", text, "--vars", "1", "--values", values), paired=True),
                ])
            for _ in range(5):
                f = self._formula(rng)
                units.append([Request("chi", variant, (f,),
                                      ("chi", fm.format_formula(f), *_algebra_args(variant)))])
            for kind, extra, count in (("build", (), 2), ("export-json", ("--format", "json"), 3),
                                       ("export-dot", ("--format", "dot"), 3), ("filters", (), 3)):
                command = kind.split("-")[0]
                units += [[Request(kind, variant, (), (command, *_algebra_args(variant), *extra))]
                          for _ in range(count)]
            for _ in range(7):
                f = self._formula(rng)
                if rng.random() < 0.5:
                    f = fm.Implies(f, fm.Or(f, self._formula(rng)))
                units.append([Request("tautology", variant, (f,),
                                      ("tautology", fm.format_formula(f), *_algebra_args(variant)))])
            for _ in range(7):
                phi, psi = self._formula(rng), self._formula(rng)
                if rng.random() < 0.5:
                    psi = fm.Or(phi, psi)
                units.append([Request("proves", variant, (phi, psi),
                                      ("proves", fm.format_formula(phi), fm.format_formula(psi),
                                       *_algebra_args(variant)))])
            units.append([Request("quotients", variant)])
            units.append([Request("import", variant)])
        for carrier in ("--chain", "--standard"):
            for _ in range(12):
                f = self._formula(rng)
                k = rng.randint(2, 9)
                index = rng.randrange(k)
                argv = ["eval", fm.format_formula(f)]
                argv += ["--chain", str(k)] if carrier == "--chain" else ["--standard"]
                argv += ["--assign", f"x1={Fraction(index, k - 1)}"]
                units.append([Request("eval" + carrier[1:], "nm", (f,), tuple(argv), (index, k))])
        for _ in range(4):
            f = self._formula(rng)
            variant = rng.choice(["nm", "nm-"])
            values = "3" if variant == "nm" else "2"
            units.append([Request("count-models", variant, (f,),
                                  ("count-models", fm.format_formula(f), "--vars", "1", "--values", values))])
        rng.shuffle(units)
        requests = [req for unit in units for req in unit]
        assert len(requests) == self.round_ops
        return requests

    def prepare(self, i: int) -> tuple[int, Request]:
        r = i // self.round_ops
        if r not in self._rounds:
            self._rounds = {r: self._round(r)}
        return i, self._rounds[r][i % self.round_ops]

    def inputs(self, op) -> list[fm.Formula]:
        return list(op[1].formulas)

    def warmup(self) -> None:
        for i in range(-10, 0):
            op = self.prepare(i)
            self.check(op, self.call(op))

    def call(self, op):
        req = op[1]
        if req.kind == "quotients":
            algebra = fa.build(1, fa.Variant(req.variant))
            forest = flt.forest(algebra)
            return [flt.quotient_by_maximal(algebra, forest.filters[r]) for r in forest.roots]
        if req.kind == "import":
            return fa.FreeAlgebra.from_export(json.loads(self.exports[req.variant]), validate=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
        return code, out.getvalue()

    def work(self, op) -> int:
        return 1

    def check(self, op, result) -> str | None:
        i, req = op
        algebra, euler_table, idem_jis = self.warm[req.variant]
        if req.kind == "quotients":
            return self._check_quotients(req, algebra, result)
        if req.kind == "import":
            if not np.array_equal(result.vectors, algebra.vectors):
                return "re-imported vectors differ from a fresh build"
            return None
        code, out = result
        expect_code, expect_out = 0, None
        if req.kind == "chi":
            expect_out = valuations.euler_char(algebra, algebra.element_of(req.formulas[0]), euler_table)
        elif req.kind == "chi-plus":
            expect_out = valuations.chi_plus_by_counting(algebra, algebra.element_of(req.formulas[0]))
            self._printed = {i: out}
        elif req.kind == "count-models":
            expect_out = self._count(req)
            # The headline identity, through the command line: chi-plus of
            # the formula printed the same as its model count.
            if req.paired and self._printed.get(i - 1) != out:
                return f"chi-plus printed {self._printed.get(i - 1)!r}, count-models {out!r}"
        elif req.kind in ("tautology", "proves"):
            if req.kind == "tautology":
                yes = algebra.element_of(req.formulas[0]) == algebra.top_id
            else:
                x, y = (algebra.element_of(f) for f in req.formulas)
                yes = algebra.leq(algebra.tnorm(x, x), y)
            expect_code, expect_out = (0, "yes") if yes else (1, "no")
        elif req.kind == "eval-chain":
            index, k = req.point
            expect_out = ch.eval_standard(req.formulas[0], {1: Fraction(index, k - 1)})
        elif req.kind == "eval-standard":
            index, k = req.point
            expect_out = ch.eval_chain(req.formulas[0], ch.NMChain(k),
                                       {1: ch.ChainValue(index, k)}).as_fraction
        elif req.kind == "build":
            expect_out = f"{algebra.size} elements"
        elif req.kind == "export-json":
            if code != 0:
                return f"export exited {code}"
            imported = fa.FreeAlgebra.from_export(json.loads(out), validate=True)
            if not np.array_equal(imported.vectors, algebra.vectors):
                return "exported vectors differ from a fresh build"
            return None
        elif req.kind == "export-dot":
            nodes, edges = _dot(out)
            want = {x: f"{x}:{valuations.chi_plus_by_counting(algebra, x)}" for x in algebra.element_ids()}
            if code != 0 or nodes != want or edges != set(algebra.covers()):
                return "Hasse diagram labels or cover edges are wrong"
            return None
        elif req.kind == "filters":
            nodes, edges = _dot(out)
            if code != 0 or nodes != {j: f"gen={g}" for j, g in enumerate(idem_jis)}:
                return "prime filter forest nodes are wrong"
            roots = len(idem_jis) - len(edges)
            if roots != len(algebra.minimal_idempotent_ji_ids) or not all(
                    algebra.leq(idem_jis[p], idem_jis[c]) and p != c for c, p in edges):
                return "prime filter forest edges are wrong"
            return None
        if code != expect_code or out != f"{expect_out}\n":
            return f"{' '.join(req.argv)}: got ({code}, {out!r}), want ({expect_code}, {expect_out!r})"
        return None

    def _count(self, req: Request) -> int:
        """Models over {0,1/2,1} (or {0,1}) read off the warm algebra's truth vector."""
        algebra = self.warm[req.variant][0]
        vector = algebra.vector(algebra.element_of(req.formulas[0]))
        top = len(vector) - 1
        picks = (0, top // 2, top) if req.variant == "nm" else (0, top)
        return sum(vector[p] == top for p in picks)

    @staticmethod
    def _check_quotients(req: Request, algebra, quotients) -> str | None:
        if len(quotients) != len(algebra.minimal_idempotent_ji_ids):
            return f"{len(quotients)} quotients for {len(algebra.minimal_idempotent_ji_ids)} maximal filters"
        for q in quotients:
            members = sorted(x for c in q.classes for x in c)
            if members != list(algebra.element_ids()) or q.size not in (2, 3):
                return "quotient classes do not partition the algebra into 2 or 3 classes"
            if algebra.bottom_id not in q.classes[0] or algebra.top_id not in q.classes[-1]:
                return "quotient classes are not ordered bottom to top"
        sizes = sorted(q.size for q in quotients)
        if (req.variant == "nm-") != (sizes[-1] == 2):
            return f"quotient sizes {sizes} contradict the negation fixpoint of {req.variant}"
        return None

    def final_checks(self) -> list[str | None]:
        return []


WORKLOADS = {w.name: w for w in (Closure, GridEval, CliSession)}
