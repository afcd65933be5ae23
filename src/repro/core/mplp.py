"""Multiparametric analysis: the exact piecewise-linear value function.

The paper's discussion (§7) observes that for a fixed loop *structure*
the optimal tile cardinality is ``M**f(beta_1..beta_d)`` for a
piecewise-linear ``f``, computable by feeding LP (5.1) to a
multiparametric LP solver [BBM03].  This module computes ``f`` *exactly*
without a general mpLP package by exploiting a structural fact:

The dual (5.5/5.6) of the tiling LP has feasible region::

    D = { (zeta, s) >= 0 : zeta_i + sum_{j in R_i} s_j >= 1  for all i }

which does **not** depend on ``beta``.  By strong duality::

    f(beta) = min_{(zeta, s) in vert(D)}  [ sum_j s_j + sum_i beta_i zeta_i ]

so ``f`` is the lower envelope of finitely many *affine* functions of
``beta``, one per vertex of ``D``.  One cold solve per canonical
structure therefore serves every later query for it.  The solve:

* enumerates ``vert(D)`` (:func:`_dual_vertices`).  At a vertex
  ``zeta_i = max(0, 1 - sum_{j in R_i} s_j)``, so the vertices are the
  ``s >= 0`` vertices of an arrangement of ``d + n`` hyperplanes in
  ``s``-space.  All ``C(d + n, n)`` of its ``n x n`` systems are solved
  exactly in integers by fraction-free elimination, in numpy blocks;
  feasibility and deduplication are integer tests too, and ``Fraction``
  coordinates are built only for the distinct vertices;
* prunes pieces that are nowhere strictly minimal
  (:func:`_essential_pieces`).  An exact integer screen
  (:func:`_screen`) drops pieces another piece dominates coefficient
  by coefficient and keeps pieces strictly lowest at a point of the
  grid ``{0, 1, 64}^d``; only the pieces it leaves undecided cost an
  exact LP (:func:`_is_essential`).  It returns a
  :class:`PiecewiseValueFunction`.

The solve uses no floating point, BLAS or LAPACK, so the serving process
pays no memory for their code.

For matmul this reproduces §6.1's closed form: pieces
``3/2``, ``1 + beta_1``, ``1 + beta_2``, ``1 + beta_3``,
``beta_1 + beta_2``, ..., ``beta_1 + beta_2 + beta_3`` — and the
derived communication expression ``max(L1 L2 L3 / sqrt(M), L2 L3,
L1 L3, L1 L2, ...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice, product
from typing import Sequence

import numpy as np

from ..util.deadline import checkpoint
from ..util.rationals import format_affine, pow_fraction
from .fraction_lp import solve_lp
from .loopnest import LoopNest

__all__ = ["AffinePiece", "PiecewiseValueFunction", "parametric_tile_exponent"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class AffinePiece:
    """One affine piece ``constant + sum_i coeffs[i] * beta_i``.

    ``source`` records the dual vertex ``(zeta, s)`` that generated the
    piece (``coeffs == zeta``, ``constant == sum(s)``), which doubles as
    an exact optimality certificate for the regions where the piece is
    active.
    """

    constant: Fraction
    coeffs: tuple[Fraction, ...]
    source_zeta: tuple[Fraction, ...]
    source_s: tuple[Fraction, ...]

    def evaluate(self, betas: Sequence[Fraction]) -> Fraction:
        if len(betas) != len(self.coeffs):
            raise ValueError("beta vector has wrong length")
        return self.constant + sum(
            (c * Fraction(b) for c, b in zip(self.coeffs, betas)), start=_ZERO
        )

    def render(self, names: Sequence[str]) -> str:
        return format_affine(self.constant, self.coeffs, names)


@dataclass(frozen=True)
class PiecewiseValueFunction:
    """``f(beta) = min_pieces (constant + <coeffs, beta>)`` — exact mpLP output.

    ``pieces`` contains only *essential* pieces: each is uniquely
    minimal somewhere on the open orthant ``beta > 0`` (unless
    ``pruned=False`` was requested).
    """

    nest: LoopNest
    pieces: tuple[AffinePiece, ...]
    pruned: bool

    def evaluate(self, betas: Sequence[Fraction]) -> Fraction:
        """``f(beta)`` — equals the tiling-LP optimum at that beta."""
        return min(p.evaluate(betas) for p in self.pieces)

    def argmin(self, betas: Sequence[Fraction]) -> AffinePiece:
        """The (first) piece attaining the minimum at ``beta``."""
        return min(self.pieces, key=lambda p: p.evaluate(betas))

    def tile_size(self, cache_words: int, betas: Sequence[Fraction]) -> float:
        """``M**f(beta)``: the optimal tile cardinality."""
        return pow_fraction(cache_words, self.evaluate(betas))

    def communication_pieces(self) -> tuple[AffinePiece, ...]:
        """Pieces of the *communication* exponent ``g = sum(beta) + 1 - f``.

        ``comm >= M**g(beta)``; because ``f`` is a min, ``g`` is a max of
        affine pieces — §6.1's ``max(L1L2L3/sqrt M, L1L2, ...)`` shape.
        """
        d = self.nest.depth
        out = []
        for p in self.pieces:
            out.append(
                AffinePiece(
                    constant=_ONE - p.constant,
                    coeffs=tuple(_ONE - c for c in p.coeffs),
                    source_zeta=p.source_zeta,
                    source_s=p.source_s,
                )
            )
        return tuple(out)

    def region_inequalities(
        self, piece: AffinePiece
    ) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
        """The polyhedral region where ``piece`` is minimal.

        Returns inequalities ``const + <coeffs, beta> >= 0`` (one per
        other piece, i.e. ``other(beta) - piece(beta) >= 0``); together
        with ``beta >= 0`` they cut out the piece's critical region in
        the multiparametric-programming sense [BBM03].
        """
        region = []
        for other in self.pieces:
            if other is piece:
                continue
            region.append(
                (
                    other.constant - piece.constant,
                    tuple(oc - pc for oc, pc in zip(other.coeffs, piece.coeffs)),
                )
            )
        return region

    def render(self) -> str:
        names = [f"b({nm})" for nm in self.nest.loops]
        body = ", ".join(p.render(names) for p in self.pieces)
        return f"f(beta) = min({body})"


#: Systems of the enumeration solved per numpy block, and grid points
#: evaluated per block of the prune's screen; also the granularity of
#: the ``mplp-enumeration`` and ``mplp-prune`` deadline checkpoints.
#: A block of ``n x (n + 1)`` systems is the whole elimination scratch
#: that stays in the malloc arena of every handler thread solving one.
_CHUNK = 512
#: Deepest nest whose systems are eliminated in int64.  Every entry is
#: a minor of a 0/1 system whose rows past its covering ones are unit
#: rows; expanding along those leaves a 0/1 minor of at most
#: ``min(d, n)`` covering rows, and even a product of two
#: Hadamard-bounded ones of that size stays below 2**63.  Deeper nests
#: use Python integers (numpy object arrays), in the prune's screen too.
_INT64_DEPTH = 20


def _hyperplanes(nest: LoopNest) -> np.ndarray:
    """The arrangement in ``s``-space as integer rows ``[H | h]`` of
    ``H s = h``.

    Rows: ``sum_{j in R_i} s_j = 1`` (d covering hyperplanes, one per
    loop), then ``s_j = 0`` (n coordinate hyperplanes).
    """
    d, n = nest.depth, nest.num_arrays
    rows = np.zeros((d + n, n + 1), dtype=np.int64 if d <= _INT64_DEPTH else object)
    for i in range(d):
        rows[i, n] = 1
        for j in nest.arrays_containing(i):
            rows[i, j] = 1
    for j in range(n):
        rows[d + j, j] = 1
    return rows


def _solve_bases(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact batched solve of integer systems ``m[k] = [A_k | b_k]``, in place.

    Fraction-free (Bareiss) elimination with row pivoting: every entry
    stays an integer minor of the system, and every division is exact.
    Returns ``(index, den, num)`` for the nonsingular systems only, in
    input order, with ``x = num / den`` and ``den > 0``; by Cramer's rule
    ``den = |det A|`` makes ``num`` integral.
    """
    size = m.shape[1]
    index = np.arange(len(m))
    prev = np.ones(len(m), dtype=m.dtype)
    for k in range(size):
        nonzero = m[:, k:, k] != 0
        regular = nonzero.any(axis=1)
        if not regular.all():
            m, index, prev, nonzero = m[regular], index[regular], prev[regular], nonzero[regular]
        pivot = k + nonzero.argmax(axis=1)
        swap = np.flatnonzero(pivot != k)
        m[swap, k], m[swap, pivot[swap]] = m[swap, pivot[swap]], m[swap, k]
        lead = m[:, k, k]
        rest = m[:, k + 1:, k + 1:]
        cross = m[:, k + 1:, k:k + 1] * m[:, k:k + 1, k + 1:]
        rest *= lead[:, None, None]
        rest -= cross
        rest //= prev[:, None, None]
        prev = lead
    # Back substitution, scaled by den = the last pivot = +-det.
    den = prev
    num = np.zeros((len(m), size), dtype=m.dtype)
    for i in range(size - 1, -1, -1):
        acc = den * m[:, i, size] - (m[:, i, i + 1:size] * num[:, i + 1:]).sum(axis=1)
        num[:, i] = acc // m[:, i, i]
    num[den < 0] *= -1
    return index, np.abs(den), num


def _intern(value: Fraction) -> Fraction:
    """``value``, with 0 and 1 replaced by the shared ``_ZERO``/``_ONE``."""
    return _ZERO if value == 0 else _ONE if value == 1 else value


def _dual_vertices(nest: LoopNest) -> list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Enumerate the vertices of the beta-independent dual polyhedron D.

    ``zeta_i`` appears only in ``zeta_i >= 0`` and covering row ``i``, so
    at a vertex ``zeta_i = max(0, 1 - R_i s)``: otherwise it could move
    both ways.  Hence ``(zeta, s)`` is a vertex of D exactly when
    ``s >= 0`` is a vertex of the arrangement of :func:`_hyperplanes`.
    Every choice of ``n`` of its ``d + n`` hyperplanes is solved exactly
    in integers, ``_CHUNK`` systems at a time (:func:`_solve_bases`);
    the ``s >= 0`` solutions dedupe on the gcd-normalised key
    ``(*num, den)``, and ``zeta`` follows in integers.

    Vertices come back in the order of a sweep over the facets of D:
    each at the first choice of ``d + n`` facets, in ``combinations``
    order, that yields it.  That choice is the lexicographically first
    basis of the facets tight at the vertex, so (linear independence
    being a matroid) the greedy one in facet order: every tight
    covering row, ``zeta_i >= 0`` wherever ``R_i s > 1``, then the
    facets ``zeta_i >= 0`` and ``s_j >= 0`` that stand for the first
    system of hyperplanes yielding ``s``.  Vertices sort on that tuple.
    """
    d, n = nest.depth, nest.num_arrays
    rows = _hyperplanes(nest)
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    bases = combinations(range(d + n), n)
    while True:
        chunk = np.array(list(islice(bases, _CHUNK)), dtype=np.intp)
        if not len(chunk):
            break
        index, den, num = _solve_bases(rows[chunk])
        feasible = (num >= 0).all(axis=1)
        index, den, num = index[feasible], den[feasible], num[feasible]
        gcd = np.gcd(np.gcd.reduce(num, axis=1), den)
        keys = np.column_stack([num // gcd[:, None], den // gcd]).tolist()
        for key, basis in zip(map(tuple, keys), chunk[index].tolist()):
            first.setdefault(key, basis)
        checkpoint("mplp-enumeration")
    covering = [nest.arrays_containing(i) for i in range(d)]
    vertices = []
    for key, basis in first.items():
        num, den = key[:-1], key[-1]
        load = [sum(num[j] for j in arrays) for arrays in covering]
        # Facet d + b of D (zeta_i >= 0, then s_j >= 0) stands for
        # hyperplane b of the arrangement.
        facets = [i for i in range(d) if load[i] <= den] + sorted(
            {d + i for i in range(d) if load[i] > den}.union(d + b for b in basis)
        )
        zeta = tuple(_intern(Fraction(max(0, den - v), den)) for v in load)
        s = tuple(_intern(Fraction(v, den)) for v in num)
        vertices.append((facets, zeta, s))
    vertices.sort(key=lambda v: v[0])
    return [(zeta, s) for _, zeta, s in vertices]


def _scaled_pieces(pieces: list[AffinePiece], d: int) -> np.ndarray:
    """``(constant, *coeffs)`` of every piece times the lcm of all their
    denominators: an integer matrix, int64 when every value on the grid
    ``{0, 1, 64}^d`` fits (and the nest is at most ``_INT64_DEPTH``
    deep), Python integers otherwise."""
    scale = math.lcm(*(v.denominator for p in pieces for v in (p.constant, *p.coeffs)))
    scaled = [
        [v.numerator * (scale // v.denominator) for v in (p.constant, *p.coeffs)]
        for p in pieces
    ]
    fits = max(map(abs, chain.from_iterable(scaled))) * (1 + 64 * d) < 2**63
    return np.array(scaled, dtype=np.int64 if fits and d <= _INT64_DEPTH else object)


def _screen(pieces: list[AffinePiece], d: int) -> np.ndarray:
    """LP-free verdicts on the essentiality of every piece, exactly.

    Returns one verdict per piece: ``-1`` if another piece is ``<=`` it in
    the constant and in every coefficient (so it is never strictly
    minimal on ``beta >= 0``), ``+1`` if it is strictly below every other
    piece at some point of ``{0, 1, 64}^d`` (a point of
    :func:`_is_essential`'s box where its ``delta`` is positive), and 0
    when neither test decides.  Pieces must be distinct.  Values are
    compared exactly, in integers (:func:`_scaled_pieces`), ``_CHUNK``
    grid points at a time; the grid stops early once every piece is
    decided.
    """
    weights = _scaled_pieces(pieces, d)
    below = (weights[None, :, :] <= weights[:, None, :]).all(axis=2)
    np.fill_diagonal(below, False)
    verdict = np.where(below.any(axis=1), -1, 0).astype(np.int8)
    grid = product((0, 1, 64), repeat=d)
    while not verdict.all():
        points = np.array([(1, *g) for g in islice(grid, _CHUNK)], dtype=weights.dtype)
        if not len(points):
            break
        values = weights @ points.T
        lowest = values.min(axis=0)
        unique = (values == lowest).sum(axis=0) == 1
        verdict[values.argmin(axis=0)[unique]] = 1
        checkpoint("mplp-prune")
    return verdict


def _is_essential(piece_idx: int, pieces: list[AffinePiece], d: int) -> bool:
    """Exact test: is piece strictly minimal somewhere on ``beta >= 0``?

    LP over (beta, delta): maximise delta subject to
    ``other(beta) - piece(beta) >= delta`` for every other piece and
    ``beta >= 0``.  The piece is essential iff the optimum is positive
    (an unbounded LP also certifies essentiality).  The box
    ``beta <= BIG`` keeps the LP bounded without changing the answer.
    In LP (5.1) every array containing loop ``i`` caps ``lambda_i`` at
    1, so ``f`` depends on ``beta_i`` only through ``min(beta_i, 1)``
    (a loop no array contains adds ``beta_i`` to every piece alike, so
    its ``beta_i`` can be set to 0).
    Where ``beta_i > 1``, ``f`` is flat in ``beta_i``, so every piece
    minimal there has ``zeta_i = 0``.  Moving each such ``beta_i`` into
    ``(1, 2]`` therefore keeps a strictly minimal piece strictly
    minimal: a piece tied with it at the new point would be minimal
    there, hence flat in the moved coordinates, hence tied at the old
    point too.  A piece strictly minimal anywhere on ``beta >= 0`` is
    thus strictly minimal somewhere in ``[0, 2]^d``, inside the box.
    """
    BIG = Fraction(64)
    piece = pieces[piece_idx]
    c = [_ZERO] * d + [-_ONE]  # minimise -delta
    A_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    for k, other in enumerate(pieces):
        if k == piece_idx:
            continue
        # piece(beta) + delta <= other(beta)
        row = [pc - oc for pc, oc in zip(piece.coeffs, other.coeffs)] + [_ONE]
        A_ub.append(row)
        b_ub.append(other.constant - piece.constant)
    bounds = [(0, BIG)] * d + [(None, None)]
    sol = solve_lp(c, A_ub, b_ub, bounds=bounds, sense="min")
    if sol.status == "unbounded":  # pragma: no cover - delta is capped via rows
        return True
    if not sol.is_optimal:  # pragma: no cover - defensive
        return True
    delta = -sol.objective
    return delta > 0


def _essential_pieces(pieces: list[AffinePiece], d: int) -> list[AffinePiece]:
    """The pieces of ``pieces`` (distinct) that are strictly minimal
    somewhere on ``[0, 64]^d``, in input order.  These are exactly the
    pieces strictly minimal somewhere on the whole orthant ``beta >= 0``
    (see :func:`_is_essential`), so their lower envelope is ``f`` at
    every ``beta >= 0``.

    :func:`_screen` decides almost every piece; each undecided one costs
    one exact LP (:func:`_is_essential`) against the full list, through
    the module-global ``solve_lp`` that profilers patch to time the
    prune.
    """
    verdict = _screen(pieces, d)
    return [
        p
        for idx, (p, v) in enumerate(zip(pieces, verdict.tolist()))
        if v > 0 or (v == 0 and _is_essential(idx, pieces, d))
    ]


def parametric_tile_exponent(nest: LoopNest, prune: bool = True) -> PiecewiseValueFunction:
    """Compute the exact piecewise-linear tile-size exponent ``f(beta)``.

    Parameters
    ----------
    nest:
        Only the *structure* (supports) matters; the bounds stored in
        the nest are ignored — ``beta`` is the free parameter.
    prune:
        Drop pieces that are nowhere uniquely minimal on the orthant
        (exact integer screen, then an LP for undecided pieces).  Disable
        to inspect the full vertex set of the dual polyhedron.
    """
    raw = _dual_vertices(nest)
    pieces = [
        AffinePiece(
            constant=_intern(sum(s, start=_ZERO)),
            coeffs=zeta,
            source_zeta=zeta,
            source_s=s,
        )
        for zeta, s in raw
    ]
    # Deduplicate pieces that share (constant, coeffs) but come from
    # different dual vertices (degeneracy).
    unique: dict[tuple, AffinePiece] = {}
    for p in pieces:
        unique.setdefault((p.constant, p.coeffs), p)
    pieces = list(unique.values())
    if prune and len(pieces) > 1:
        essential = _essential_pieces(pieces, nest.depth)
        if essential:  # pragma: no branch - at least one piece always survives
            pieces = essential
    pieces.sort(key=lambda p: (p.constant, p.coeffs))
    return PiecewiseValueFunction(nest=nest, pieces=tuple(pieces), pruned=prune)
