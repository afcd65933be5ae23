"""Families of optimal tilings (the §6.1 alpha-parameterisation).

The tiling LP (5.1) frequently has a degenerate optimum: a whole face
of the feasible polytope attains the optimal exponent.  §6.1 exhibits
this for matmul with a small ``L3``: every convex combination::

    lambda_1 = a/2 + (1-a)(1-beta_3)
    lambda_2 = a/2 + (1-a) beta_3
    lambda_3 = beta_3                     for a in [0, 1]

is optimal, letting implementers pick tiles aligned to cache lines or
vector widths *without* sacrificing communication optimality.

This module enumerates the optimal face exactly: every vertex of the
feasible polytope attaining the LP optimum (rational basis
enumeration), plus an interpolation helper producing arbitrary convex
combinations — the general-``d`` version of the paper's alpha family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from ..util.linalg import SingularMatrixError, solve_square
from ..util.rationals import pow_fraction
from .loopnest import LoopNest
from .tiling import TileShape, build_tiling_lp

__all__ = ["OptimalTileFamily", "optimal_tile_family"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class OptimalTileFamily:
    """The optimal face of the tiling LP, as its vertex set.

    Every point of ``conv(vertices)`` is an optimal log-space tile
    shape; :meth:`interpolate` materialises one.  For §6.1's matmul the
    two extreme members are ``(1 - b3, b3, b3)`` and
    ``(1/2, 1/2, b3)`` and :meth:`interpolate` with weights
    ``(1-a, a)`` reproduces the paper's family exactly.
    """

    nest: LoopNest
    cache_words: int
    betas: tuple[Fraction, ...]
    exponent: Fraction
    vertices: tuple[tuple[Fraction, ...], ...]

    @property
    def is_unique(self) -> bool:
        """Whether the LP optimum is a single vertex (no freedom)."""
        return len(self.vertices) == 1

    def interpolate(self, weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Convex combination of the optimal vertices (exact).

        ``weights`` must be nonnegative and sum to 1; the result is an
        optimal log-space shape ``lambda``.
        """
        w = [Fraction(x) for x in weights]
        if len(w) != len(self.vertices):
            raise ValueError(f"need {len(self.vertices)} weights, got {len(w)}")
        if any(x < 0 for x in w) or sum(w) != 1:
            raise ValueError("weights must be nonnegative and sum to 1")
        d = self.nest.depth
        out = [_ZERO] * d
        for weight, vertex in zip(w, self.vertices):
            for i in range(d):
                out[i] += weight * vertex[i]
        return tuple(out)

    def tile_at(self, weights: Sequence[Fraction]) -> TileShape:
        """Integer tile (floored) at a convex combination of the face."""
        lambdas = self.interpolate(weights)
        blocks = tuple(
            max(1, min(L, int(pow_fraction(self.cache_words, lam))))
            for lam, L in zip(lambdas, self.nest.bounds)
        )
        return TileShape(nest=self.nest, blocks=blocks)

    def contains(self, lambdas: Sequence[Fraction], tol: Fraction = _ZERO) -> bool:
        """Whether a log-space shape is feasible and attains the optimum."""
        lam = [Fraction(x) for x in lambdas]
        if len(lam) != self.nest.depth:
            return False
        if any(x < -tol for x in lam):
            return False
        if any(x > b + tol for x, b in zip(lam, self.betas)):
            return False
        for arr in self.nest.arrays:
            if sum((lam[i] for i in arr.support), start=_ZERO) > 1 + tol:
                return False
        return sum(lam, start=_ZERO) == self.exponent

    def describe(self) -> str:
        verts = "; ".join(
            "(" + ", ".join(str(v) for v in vertex) + ")" for vertex in self.vertices
        )
        return f"{self.nest.name}: k_hat={self.exponent}, optimal vertices: {verts}"


def optimal_tile_family(
    nest: LoopNest,
    cache_words: int,
    betas: Sequence[Fraction] | None = None,
) -> OptimalTileFamily:
    """Enumerate every vertex of the tiling LP's optimal face.

    The LP lives in dimension ``d`` with constraint set: ``n`` capacity
    rows, ``d`` upper bounds ``lambda_i <= beta_i`` and ``d``
    nonnegativity rows.  A vertex of the optimal face is a feasible
    point with ``d`` linearly independent tight rows whose objective
    equals the LP optimum; we enumerate all d-subsets exactly
    (``C(n + 2d, d)`` candidates — trivial for real nests).
    """
    if betas is None:
        betas = nest.betas(cache_words)
    betas = tuple(Fraction(b) for b in betas)
    lp = build_tiling_lp(nest, cache_words, betas=betas)
    report = lp.solve()
    if not report.is_optimal:  # pragma: no cover - always feasible/bounded
        raise RuntimeError(f"tiling LP unexpectedly {report.status}")
    optimum: Fraction = report.objective
    d = nest.depth

    rows: list[tuple[list[Fraction], Fraction]] = []  # a.lambda == rhs when tight
    for arr in nest.arrays:
        if not arr.support:
            continue
        row = [_ZERO] * d
        for i in arr.support:
            row[i] = _ONE
        rows.append((row, _ONE))
    for i in range(d):
        row = [_ZERO] * d
        row[i] = _ONE
        rows.append((row, betas[i]))
    for i in range(d):
        row = [_ZERO] * d
        row[i] = _ONE
        rows.append((row, _ZERO))

    vertices: list[tuple[Fraction, ...]] = []
    seen: set[tuple[Fraction, ...]] = set()
    for combo in combinations(range(len(rows)), d):
        A = [rows[idx][0] for idx in combo]
        b = [rows[idx][1] for idx in combo]
        try:
            x = solve_square(A, b)
        except SingularMatrixError:
            continue
        key = tuple(x)
        if key in seen:
            continue
        if sum(x, start=_ZERO) != optimum:
            continue
        # Full feasibility.
        if any(v < 0 for v in x) or any(v > bb for v, bb in zip(x, betas)):
            continue
        feasible = True
        for arr in nest.arrays:
            if sum((x[i] for i in arr.support), start=_ZERO) > 1:
                feasible = False
                break
        if not feasible:
            continue
        seen.add(key)
        vertices.append(key)

    vertices.sort()
    if not vertices:  # pragma: no cover - the LP vertex itself always qualifies
        raise RuntimeError("no optimal vertices found; enumeration bug")
    return OptimalTileFamily(
        nest=nest,
        cache_words=cache_words,
        betas=betas,
        exponent=optimum,
        vertices=tuple(vertices),
    )
