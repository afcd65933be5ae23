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

* enumerates ``vert(D)`` (:func:`_dual_vertices`): every choice of
  ``d + n`` of the ``2d + n`` facets is a candidate basis.  Candidates
  are drawn in numpy blocks; a combinatorial prefilter drops those
  whose free variables cannot give a nonsingular, feasible basis, and
  the survivors are solved exactly in integers by fraction-free
  elimination, each on the small block its covering rows leave free;
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

    def evaluate_with_piece(self, betas: Sequence[Fraction]) -> tuple[Fraction, int]:
        """``(f(beta), index of the attaining piece)`` in one pass.

        The plan cache keys its per-piece primal maps on the returned
        index, so both values are needed together on every lookup.
        """
        best_value: Fraction | None = None
        best_idx = 0
        for idx, piece in enumerate(self.pieces):
            value = piece.evaluate(betas)
            if best_value is None or value < best_value:
                best_value, best_idx = value, idx
        assert best_value is not None
        return best_value, best_idx

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


#: Facet subsets drawn and prefiltered per numpy block, and grid points
#: evaluated per block of the prune's screen; also the granularity of
#: the ``mplp-enumeration`` and ``mplp-prune`` deadline checkpoints.
#: Only the prefilter's survivors of a block (15-23% on average on
#: random nests of depth 4-6) are eliminated, which bounds the elimination scratch that stays
#: in the malloc arena of every handler thread solving a block.
_CHUNK = 512
#: Deepest nest whose bases are eliminated in int64: the entries are
#: minors of a 0/1 matrix of at most this size, and even a product of
#: two Hadamard-bounded ones stays below 2**63.  Deeper nests use Python
#: integers (numpy object arrays), in the prune's screen too.
_INT64_DEPTH = 20


def _facets(nest: LoopNest) -> tuple[np.ndarray, np.ndarray]:
    """Facets of D as integer rows ``F x >= rhs``.

    Variables: ``zeta_0..zeta_{d-1}, s_0..s_{n-1}`` (dimension d+n).
    Rows: ``zeta_i + sum_{j in R_i} s_j >= 1`` (d covering rows, one per
    loop), then nonnegativity (d+n unit rows).
    """
    d, n = nest.depth, nest.num_arrays
    dim = d + n
    dtype = np.int64 if d <= _INT64_DEPTH else object
    rows = np.zeros((d + dim, dim), dtype=dtype)
    for i in range(d):
        rows[i, i] = 1
        for j in nest.arrays_containing(i):
            rows[i, d + j] = 1
    for v in range(dim):
        rows[d + v, v] = 1
    rhs = np.zeros(d + dim, dtype=dtype)
    rhs[:d] = 1
    return rows, rhs


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

    A vertex is a feasible point where some d+n linearly-independent
    facets (see :func:`_facets`) are tight.  Every facet subset is a
    candidate basis; vertices come back in the order of the first
    subset (in ``combinations`` order) that yields them.  Arrays with
    empty support never appear in covering rows, so their ``s_j`` is 0
    at every vertex (tight nonnegativity is the only option).

    Subsets are drawn ``_CHUNK`` at a time, :func:`_prefilter` drops
    those that cannot be a basis before any arithmetic, and the
    survivors are solved exactly in integers (:func:`_block_vertices`).
    Deduplication is on the gcd-normalised key ``(num, den)``, and
    ``Fraction`` coordinates are built only for distinct vertices.
    """
    d = nest.depth
    rows, rhs = _facets(nest)
    dim = rows.shape[1]
    cover = rows[:d] != 0
    vertices: list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    subsets = combinations(range(rows.shape[0]), dim)
    while True:
        chunk = np.array(list(islice(subsets, _CHUNK)), dtype=np.intp)
        if not len(chunk):
            break
        tight = np.zeros((len(chunk), d + dim), dtype=bool)
        np.put_along_axis(tight, chunk, True, axis=1)
        useful = _prefilter(tight, cover)
        if useful.any():
            for key in _block_vertices(chunk[useful], tight[useful], rows, rhs):
                if key in seen:
                    continue
                seen.add(key)
                point = tuple(_intern(Fraction(v, key[-1])) for v in key[:-1])
                vertices.append((point[:d], point[d:]))
        checkpoint("mplp-enumeration")
    return vertices


def _block_vertices(
    chunk: np.ndarray, tight: np.ndarray, rows: np.ndarray, rhs: np.ndarray
) -> list[tuple[int, ...]]:
    """The feasible points of a block of facet subsets, as gcd-normalised
    integer keys ``(*num, den)`` in subset order (singular subsets give
    none).

    A subset of k covering rows fixes the d+n-k variables of its unit
    rows at 0, so its system reduces to the k x k block of the covering
    rows on the free variables, padded to d x d with identity rows, and
    is solved exactly in integers (:func:`_solve_bases`).  Feasibility
    ``F num >= den rhs`` is an integer test too.
    """
    d = len(rows) - rows.shape[1]
    # Subsets are sorted, so their k covering rows (indices < d) come
    # first; put the k free variables first too (False sorts before
    # True).  Positions past k are padding: point them at row 0, then
    # overwrite them with identity rows and columns.
    live = chunk[:, :d] < d
    cols = np.argsort(tight[:, d:], axis=1, kind="stable")[:, :d]
    system = np.empty((len(chunk), d, d + 1), dtype=rows.dtype)
    block = system[:, :, :d]
    block[...] = rows[np.where(live, chunk[:, :d], 0)[:, :, None], cols[:, None, :]]
    block[~live[:, :, None] | ~live[:, None, :]] = 0
    padded, position = np.nonzero(~live)
    block[padded, position, position] = 1
    system[:, :, d] = live
    index, den, sub = _solve_bases(system)
    num = np.zeros((len(index), rows.shape[1]), dtype=rows.dtype)
    np.put_along_axis(num, cols[index], sub, axis=1)
    feasible = np.all(num @ rows.T >= den[:, None] * rhs, axis=1)
    den, num = den[feasible], num[feasible]
    gcd = np.gcd(np.gcd.reduce(num, axis=1), den)
    return list(map(tuple, np.column_stack([num // gcd[:, None], den // gcd]).tolist()))


def _prefilter(tight: np.ndarray, cover: np.ndarray) -> np.ndarray:
    """Which facet subsets can be a feasible, nonsingular basis.

    ``tight[k]`` marks the facets of subset k (covering rows first, then
    one unit row per variable) and ``cover`` is the 0/1 pattern of the
    covering rows, as booleans.  A variable is free when its unit row is
    not in the subset.  A subset survives only if every covering row
    contains a free variable (else the row is 0 at the point:
    infeasible, or singular if the row is tight) and every free variable
    lies in a tight covering row (else its column of the system is 0).
    Two boolean matrix products per block; dropped subsets yield no
    vertex, so filtering changes no output.
    """
    d = len(cover)
    free = ~tight[:, d:]
    return (free @ cover.T).all(axis=1) & (tight[:, :d] @ cover | ~free).all(axis=1)


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
    decided.  Its ``3**d`` points are always fewer than the
    ``C(2d + n, d + n)`` bases the enumeration visits.
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
    (an unbounded LP also certifies essentiality).  We additionally cap
    ``beta <= BIG`` to keep the LP bounded without affecting the sign
    of the answer (pieces differing only beyond astronomically large
    beta have no modelling value: ``beta_i <= 64`` covers every cache
    size ``M >= 2`` and bound ``L_i <= 2**64``).
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
    somewhere on ``[0, 64]^d``, in input order.

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
