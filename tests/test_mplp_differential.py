"""Differential tests: the batched cold solve against the brute-force one.

``repro.core.mplp`` solves the small systems of a hyperplane
arrangement in ``s``-space in batched integer arithmetic.  The oracles
below are the original implementation, kept verbatim: one exact
``Fraction`` solve per subset of the facets of D, then one exact LP per
piece.  Every comparison is on the full piece tuples,
``source_zeta``/``source_s`` and order included.  The prune's exact
screen is checked verdict by verdict against the reference LP, and the
enumeration's lemma structure by structure against the reference
vertices.  A nest too deep for the oracles is pinned by a golden.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core import mplp
from repro.core.canonical import canonicalize
from repro.core.fraction_lp import solve_lp
from repro.core.loopnest import ArrayRef, LoopNest
from repro.core.mplp import AffinePiece, parametric_tile_exponent
from repro.library.problems import catalog
from repro.obs.trace import trace_scope
from repro.util.linalg import SingularMatrixError, solve_square

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Reference oracles: the brute-force enumerator and the all-LP prune.


def _reference_facets(nest: LoopNest) -> list[tuple[list[Fraction], Fraction]]:
    d, n = nest.depth, nest.num_arrays
    dim = d + n
    facets: list[tuple[list[Fraction], Fraction]] = []
    for i in range(d):
        row = [_ZERO] * dim
        row[i] = _ONE
        for j in nest.arrays_containing(i):
            row[d + j] = _ONE
        facets.append((row, _ONE))
    for v in range(dim):
        row = [_ZERO] * dim
        row[v] = _ONE
        facets.append((row, _ZERO))
    return facets


def _reference_dual_vertices(nest: LoopNest) -> list:
    d = nest.depth
    dim = d + nest.num_arrays
    facets = _reference_facets(nest)
    vertices = []
    seen: set[tuple[Fraction, ...]] = set()
    for combo in combinations(range(len(facets)), dim):
        A = [facets[idx][0] for idx in combo]
        b = [facets[idx][1] for idx in combo]
        try:
            x = solve_square(A, b)
        except SingularMatrixError:
            continue
        key = tuple(x)
        if key in seen:
            continue
        ok = True
        for row, rhs in facets:
            total = sum((r * xv for r, xv in zip(row, x) if r != 0), start=_ZERO)
            if total < rhs:
                ok = False
                break
        if not ok:
            continue
        seen.add(key)
        vertices.append((tuple(x[:d]), tuple(x[d:])))
    return vertices


def _reference_is_essential(piece_idx: int, pieces: list, d: int, big=Fraction(64)) -> bool:
    """Is the piece strictly minimal somewhere on ``[0, big]^d`` (``big=None``: the orthant)?"""
    piece = pieces[piece_idx]
    c = [_ZERO] * d + [-_ONE]
    A_ub, b_ub = [], []
    for k, other in enumerate(pieces):
        if k == piece_idx:
            continue
        A_ub.append([pc - oc for pc, oc in zip(piece.coeffs, other.coeffs)] + [_ONE])
        b_ub.append(other.constant - piece.constant)
    bounds = [(0, big)] * d + [(None, None)]
    sol = solve_lp(c, A_ub, b_ub, bounds=bounds, sense="min")
    if sol.status == "unbounded" or not sol.is_optimal:
        return True
    return -sol.objective > 0


def _reference_pieces(vertices: list, d: int, prune: bool) -> list:
    unique: dict[tuple, AffinePiece] = {}
    for zeta, s in vertices:
        piece = AffinePiece(
            constant=sum(s, start=_ZERO), coeffs=zeta, source_zeta=zeta, source_s=s
        )
        unique.setdefault((piece.constant, piece.coeffs), piece)
    pieces = list(unique.values())
    if prune and len(pieces) > 1:
        essential = [
            p for idx, p in enumerate(pieces) if _reference_is_essential(idx, pieces, d)
        ]
        if essential:
            pieces = essential
    pieces.sort(key=lambda p: (p.constant, p.coeffs))
    return pieces


def _structure(supports: tuple[tuple[int, ...], ...], depth: int) -> LoopNest:
    return LoopNest(
        name="structure",
        loops=tuple(f"x{i}" for i in range(depth)),
        bounds=(2,) * depth,
        arrays=tuple(ArrayRef(f"A{j}", s, is_output=(j == 0)) for j, s in enumerate(supports)),
    )


@lru_cache(maxsize=None)
def _oracle(supports: tuple[tuple[int, ...], ...], depth: int):
    """(vertices, unpruned pieces, pruned pieces) of the reference solve."""
    vertices = _reference_dual_vertices(_structure(supports, depth))
    return (
        vertices,
        _reference_pieces(vertices, depth, prune=False),
        _reference_pieces(vertices, depth, prune=True),
    )


def _as_tuples(pieces) -> list:
    return [(p.constant, p.coeffs, p.source_zeta, p.source_s) for p in pieces]


def assert_matches_oracle(nest: LoopNest) -> None:
    supports = tuple(tuple(a.support) for a in nest.arrays)
    vertices, full, pruned = _oracle(supports, nest.depth)
    assert mplp._dual_vertices(nest) == vertices
    assert _as_tuples(parametric_tile_exponent(nest, prune=False).pieces) == _as_tuples(full)
    assert _as_tuples(parametric_tile_exponent(nest).pieces) == _as_tuples(pruned)


# ---------------------------------------------------------------------------
# Structures under test.


def _catalog_structures() -> dict[str, LoopNest]:
    """One canonical nest per distinct catalog structure."""
    out: dict[str, LoopNest] = {}
    seen: set[str] = set()
    for name, nest in catalog().items():
        form = canonicalize(nest).form
        if form.key() not in seen:
            seen.add(form.key())
            out[name] = form.to_nest()
    return out


def _random_structures(count: int = 60) -> list[LoopNest]:
    """Seeded random structures, cycling (depth, arrays) (4,5), (5,4), (6,4)."""
    rng = random.Random("mplp-differential")
    classes = ((4, 5), (5, 4), (6, 4))
    out = []
    for k in range(count):
        depth, arrays = classes[k % len(classes)]
        while True:
            supports = tuple(
                tuple(sorted(rng.sample(range(depth), rng.randint(0, depth))))
                for _ in range(arrays)
            )
            if len(set().union(*supports)) == depth:
                break
        out.append(_structure(supports, depth))
    return out


CATALOG = _catalog_structures()
RANDOM = _random_structures()
#: The deepest structure under test: depth 8, 6 arrays.
DEEP_NEST = LoopNest(
    name="deep",
    loops=tuple(f"x{i}" for i in range(8)),
    bounds=(96, 80, 72, 64, 56, 48, 40, 36),
    arrays=tuple(
        ArrayRef(f"A{j}", s, is_output=(j == 0))
        for j, s in enumerate(
            ((0, 1, 2, 4, 5, 6, 7), (2, 4), (1, 3, 5), (0, 2, 6), (0, 1, 6, 7), (4, 5))
        )
    ),
)


@st.composite
def structures(draw, max_depth: int = 6, max_dim: int = 9) -> LoopNest:
    """Random structures of depth <= 6 with at most ``max_dim`` variables."""
    depth = draw(st.integers(1, max_depth))
    arrays = draw(st.integers(1, max(1, min(4, max_dim - depth))))
    supports = [
        sorted(draw(st.sets(st.integers(0, depth - 1), max_size=depth)))
        for _ in range(arrays)
    ]
    for loop in set(range(depth)).difference(*supports):
        supports[draw(st.integers(0, arrays - 1))].append(loop)
    return _structure(tuple(tuple(sorted(s)) for s in supports), depth)


class TestAgainstOracle:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_structure(self, name):
        assert_matches_oracle(CATALOG[name])

    @pytest.mark.parametrize("index", range(len(RANDOM)))
    def test_random_structure(self, index):
        assert_matches_oracle(RANDOM[index])

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(nest=structures())
    def test_hypothesis_structure(self, nest):
        assert_matches_oracle(nest)

    def test_degenerate_vertex_from_many_subsets(self):
        # Every array spans every loop: at zeta = 0, s = e_0 all d
        # covering rows, all zeta >= 0 and s_1.. >= 0 rows are tight,
        # 2d + n - 1 facets for d + n variables, so many bases name the
        # same vertex and only the first may be kept.
        depth, arrays = 4, 3
        nest = _structure(tuple(tuple(range(depth)) for _ in range(arrays)), depth)
        assert_matches_oracle(nest)
        vertex = (_ZERO,) * depth + (_ONE,) + (_ZERO,) * (arrays - 1)
        facets = _reference_facets(nest)
        bases = 0
        for combo in combinations(range(len(facets)), depth + arrays):
            try:
                x = solve_square([facets[k][0] for k in combo], [facets[k][1] for k in combo])
            except SingularMatrixError:
                continue
            bases += tuple(x) == vertex
        assert bases >= 10
        assert (vertex[:depth], vertex[depth:]) in mplp._dual_vertices(nest)


def assert_pieces_serve_the_orthant(nest: LoopNest) -> None:
    """The served pieces are the reference prune's over all of ``beta >= 0``."""
    supports = tuple(tuple(a.support) for a in nest.arrays)
    full = _oracle(supports, nest.depth)[1]
    if len(full) < 2:
        return
    essential = [
        p for idx, p in enumerate(full) if _reference_is_essential(idx, full, nest.depth, big=None)
    ]
    assert _as_tuples(parametric_tile_exponent(nest).pieces) == _as_tuples(essential)


class TestPrunedPiecesServeTheOrthant:
    """Pieces minimal only at large ``beta`` do not exist: the box prune is exact."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_structure(self, name):
        assert_pieces_serve_the_orthant(CATALOG[name])

    @pytest.mark.parametrize("index", range(len(RANDOM)))
    def test_random_structure(self, index):
        assert_pieces_serve_the_orthant(RANDOM[index])


@lru_cache(maxsize=None)
def _reference_verdicts(supports: tuple[tuple[int, ...], ...], depth: int) -> tuple[bool, ...]:
    """``_reference_is_essential`` of every unpruned oracle piece."""
    full = _oracle(supports, depth)[1]
    return tuple(_reference_is_essential(idx, full, depth) for idx in range(len(full)))


def assert_screen_matches_oracle(nest: LoopNest) -> None:
    """Every decided screen verdict is the reference LP's verdict."""
    supports = tuple(tuple(a.support) for a in nest.arrays)
    full = _oracle(supports, nest.depth)[1]
    if len(full) < 2:
        return
    verdicts = mplp._screen(full, nest.depth).tolist()
    for verdict, essential in zip(verdicts, _reference_verdicts(supports, nest.depth)):
        if verdict:
            assert (verdict > 0) == essential


class TestScreenAgainstOracle:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_structure(self, name):
        assert_screen_matches_oracle(CATALOG[name])

    @pytest.mark.parametrize("index", range(len(RANDOM)))
    def test_random_structure(self, index):
        assert_screen_matches_oracle(RANDOM[index])

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(nest=structures())
    def test_hypothesis_structure(self, nest):
        assert_screen_matches_oracle(nest)

    def test_catalog_needs_no_lp(self):
        for nest in CATALOG.values():
            pieces = list(parametric_tile_exponent(nest, prune=False).pieces)
            if len(pieces) > 1:
                assert mplp._screen(pieces, nest.depth).all()

    def test_python_integer_path_agrees(self, monkeypatch):
        pieces = {
            name: list(parametric_tile_exponent(nest, prune=False).pieces)
            for name, nest in CATALOG.items()
        }
        depth = {name: nest.depth for name, nest in CATALOG.items()}
        expected = {name: mplp._screen(p, depth[name]).tolist() for name, p in pieces.items()}
        monkeypatch.setattr(mplp, "_INT64_DEPTH", 0)
        for name, p in pieces.items():
            assert mplp._scaled_pieces(p, depth[name]).dtype == object
            assert mplp._screen(p, depth[name]).tolist() == expected[name]


_LEMMA_STRUCTURES = {
    **{f"catalog-{name}": nest for name, nest in CATALOG.items()},
    **{f"random-6x4-{k}": nest for k, nest in enumerate(RANDOM[2::3][:10])},
}


@pytest.mark.parametrize("name", sorted(_LEMMA_STRUCTURES))
def test_arrangement_vertices_lift_to_the_dual_vertices(name):
    # The enumeration's lemma, checked with the reference solver: the
    # s >= 0 solutions of the n x n systems of the arrangement
    # {R_i s = 1} u {s_j = 0}, lifted by zeta_i = max(0, 1 - R_i s),
    # are exactly the vertices of D.
    nest = _LEMMA_STRUCTURES[name]
    d, n = nest.depth, nest.num_arrays
    covering = [row[d:] for row, _ in _reference_facets(nest)[:d]]
    hyperplanes = [(row, _ONE) for row in covering]
    hyperplanes += [([_ONE if k == j else _ZERO for k in range(n)], _ZERO) for j in range(n)]
    lifted = set()
    for combo in combinations(range(d + n), n):
        try:
            s = solve_square([hyperplanes[k][0] for k in combo], [hyperplanes[k][1] for k in combo])
        except SingularMatrixError:
            continue
        if min(s, default=_ZERO) >= 0:
            zeta = tuple(max(_ZERO, 1 - sum(r * v for r, v in zip(row, s))) for row in covering)
            lifted.add((zeta, tuple(s)))
    supports = tuple(tuple(a.support) for a in nest.arrays)
    assert lifted == set(_oracle(supports, d)[0])


# ---------------------------------------------------------------------------
# Arithmetic paths and the prune's LP hook.


def test_python_integer_path_matches_the_oracle(monkeypatch):
    # Nests deeper than _INT64_DEPTH eliminate in Python integers; force
    # that path on a small nest.
    monkeypatch.setattr(mplp, "_INT64_DEPTH", 0)
    nest = CATALOG["mttkrp"]
    assert mplp._hyperplanes(nest).dtype == object
    assert_matches_oracle(nest)


def test_solve_bases_drops_singular_systems_and_keeps_order():
    # [A | b] per system: regular, singular, regular after a row swap.
    systems = np.array([[[2, 1, 3], [1, 1, 2]], [[1, 1, 1], [1, 1, 1]], [[0, 1, 5], [1, 0, 7]]])
    index, den, num = mplp._solve_bases(systems)
    assert index.tolist() == [0, 2]
    solutions = [[Fraction(int(v), int(q)) for v in row] for row, q in zip(num, den)]
    assert solutions == [[1, 1], [7, 5]]
    assert (den > 0).all()


def test_prune_solves_its_lps_through_the_module_global(monkeypatch):
    # Profilers wrap repro.core.mplp.solve_lp to time the prune.  The
    # screen decides 2*beta (lowest at 0) and 3/10 + beta/2 (lowest at 1
    # and 64); 1/8 + beta, lowest only on (1/8, 7/20), needs the LP.
    calls = []

    def counting_solve_lp(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    def piece(constant, coeff):
        return AffinePiece(
            constant=Fraction(constant), coeffs=(Fraction(coeff),),
            source_zeta=(Fraction(coeff),), source_s=(),
        )

    pieces = [piece(0, 2), piece(Fraction(1, 8), 1), piece(Fraction(3, 10), Fraction(1, 2))]
    monkeypatch.setattr(mplp, "solve_lp", counting_solve_lp)
    assert mplp._screen(pieces, 1).tolist() == [1, 0, 1]
    kept = mplp._essential_pieces(pieces, 1)
    assert len(calls) == 1
    assert kept == [p for idx, p in enumerate(pieces) if _reference_is_essential(idx, pieces, 1)]
    assert kept == pieces


# ---------------------------------------------------------------------------
# Memory trims, deadline responsiveness and the serving path's imports.


def test_zero_and_one_coordinates_are_interned():
    pvf = parametric_tile_exponent(CATALOG["tucker_core"], prune=False)
    values = [v for p in pvf.pieces for v in (p.constant, *p.source_zeta, *p.source_s)]
    assert all(v is mplp._ZERO for v in values if v == 0)
    assert all(v is mplp._ONE for v in values if v == 1)


def test_traced_solve_checkpoints_once_per_chunk():
    nest = CATALOG["tucker_core"]
    systems = math.comb(nest.depth + nest.num_arrays, nest.num_arrays)
    with trace_scope() as trace:
        parametric_tile_exponent(nest)
    assert trace.stage_counts["mplp-enumeration"] >= math.ceil(systems / mplp._CHUNK)


def test_traced_solve_ticks_the_prune():
    with trace_scope() as trace:
        parametric_tile_exponent(CATALOG["tucker_core"])
    assert trace.stage_counts["mplp-prune"] >= 1


@pytest.mark.parametrize("nest", [CATALOG["tucker_core"], DEEP_NEST], ids=["tucker_core", "deep"])
def test_enumeration_solves_one_system_per_choice_of_n_hyperplanes(monkeypatch, nest):
    solved = []
    solve_bases = mplp._solve_bases

    def counting_solve_bases(m):
        solved.append(len(m))
        return solve_bases(m)

    monkeypatch.setattr(mplp, "_solve_bases", counting_solve_bases)
    mplp._dual_vertices(nest)
    assert sum(solved) == math.comb(nest.depth + nest.num_arrays, nest.num_arrays)


def test_deep_nest_matches_its_golden():
    # Too deep for the brute-force oracles in tier-1 time: the golden
    # pins the output of the facet-subset sweep the enumeration replaced.
    golden = json.loads((Path(__file__).parent / "golden" / "mplp_deep_nest.json").read_text())
    assert [list(a.support) for a in DEEP_NEST.arrays] == golden["supports"]

    def fractions(values):
        return tuple(Fraction(v) for v in values)

    def pieces(rows):
        return [(Fraction(c), *map(fractions, rest)) for c, *rest in rows]

    vertices = [(fractions(zeta), fractions(s)) for zeta, s in golden["vertices"]]
    assert mplp._dual_vertices(DEEP_NEST) == vertices
    assert _as_tuples(parametric_tile_exponent(DEEP_NEST, prune=False).pieces) == pieces(
        golden["unpruned_pieces"]
    )
    assert _as_tuples(parametric_tile_exponent(DEEP_NEST).pieces) == pieces(golden["pieces"])


def test_deep_cold_nest_honours_a_1ms_deadline():
    started = time.perf_counter()
    result = Session().analyze(DEEP_NEST, 65536, deadline_ms=1)
    # The full solve takes tens of ms; a chunk between checkpoints, ~3 ms.
    assert time.perf_counter() - started < 1.0
    assert result.kind == "error"
    assert result.payload["status"] == 504
    assert result.payload["detail"]["reason"] == "deadline_exceeded"
    assert result.payload["detail"]["deadline_ms"] == 1


_NO_SCIPY_SCRIPT = """
import json, sys, threading, urllib.request
from repro.serve import make_server
server = make_server(port=0)
threading.Thread(target=server.serve_forever, daemon=True).start()
body = json.dumps({"problem": "mttkrp", "sizes": [60, 50, 40, 30], "cache_words": 4096})
request = urllib.request.Request(
    f"http://127.0.0.1:{server.server_address[1]}/v1/analyze", data=body.encode(),
    headers={"Content-Type": "application/json"}, method="POST")
with urllib.request.urlopen(request, timeout=60) as resp:
    answer = json.load(resp)
server.shutdown()
assert answer["kind"] == "analyze" and answer["meta"]["cache_hit"] is False, answer
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_serving_a_cold_analyze_imports_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
