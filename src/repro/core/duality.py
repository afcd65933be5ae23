"""Theorem 3: exact primal/dual tightness certificates (paper §5).

The dual of the tiling LP (5.1), written out in eq. 5.5/5.6, has one
variable ``zeta_i`` per loop (pricing the ``lambda_i <= beta_i`` rows)
and one variable ``s_j`` per array (pricing the capacity rows)::

    min  sum_i beta_i zeta_i + sum_j s_j
    s.t. zeta_i + sum_{j in R_i} s_j >= 1     for each loop i
         zeta, s >= 0

Theorem 3 states its optimum — which is precisely the strongest
Theorem-2 upper-bound exponent — equals the primal tiling-LP optimum,
certifying that the constructed rectangle *attains* the lower bound.

This module constructs the dual explicitly, solves both sides with the
exact rational simplex, and verifies strong duality and complementary
slackness with zero tolerance.  :func:`theorem3_certificate` is used
directly by the test-suite (golden + property-based) and by the
``bench_duality`` experiment (E9).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bounds import build_subset_lp
from .hbl import svar
from .loopnest import LoopNest
from .lp import LinearProgram
from .tiling import build_tiling_lp, lvar

__all__ = ["DualSolution", "Theorem3Certificate", "build_dual_lp", "theorem3_certificate"]


def _zvar(i: int, nest: LoopNest) -> str:
    return f"zeta[{nest.loops[i]}]"


def build_dual_lp(
    nest: LoopNest, cache_words: int, betas: Sequence[Fraction] | None = None
) -> LinearProgram:
    """The explicit dual (5.5/5.6) of the tiling LP.

    Identical to :func:`repro.core.bounds.build_subset_lp` with
    ``Q = range(d)``; constructed here from the dual transformation for
    independent validation of that identity.
    """
    if betas is None:
        betas = nest.betas(cache_words)
    return build_subset_lp(nest, betas, range(nest.depth))


@dataclass(frozen=True)
class DualSolution:
    """Optimal dual multipliers.

    ``zeta[i]`` prices the loop-bound row ``lambda_i <= beta_i``;
    ``s[j]`` prices the array-capacity row of array ``j``.
    """

    zeta: tuple[Fraction, ...]
    s: tuple[Fraction, ...]
    objective: Fraction


@dataclass(frozen=True)
class Theorem3Certificate:
    """Exact evidence that the tiling attains the lower bound.

    Attributes
    ----------
    primal_value, dual_value:
        Optimal objectives of LP (5.1) and its dual; Theorem 3 asserts
        they are equal (checked exactly — :attr:`tight` is their
        equality).
    lambdas:
        Optimal primal vertex (tile side exponents).
    dual:
        Optimal dual multipliers.
    complementary_slackness:
        Whether every (primal slack, dual multiplier) and every
        (dual slack, primal variable) pair has a zero member — the KKT
        conditions at exact arithmetic.
    """

    nest: LoopNest
    cache_words: int
    betas: tuple[Fraction, ...]
    primal_value: Fraction
    dual_value: Fraction
    lambdas: tuple[Fraction, ...]
    dual: DualSolution
    complementary_slackness: bool

    @property
    def tight(self) -> bool:
        return self.primal_value == self.dual_value

    def summary(self) -> str:
        status = "TIGHT" if self.tight else "GAP"
        return (
            f"{self.nest.name}: primal={self.primal_value} dual={self.dual_value} "
            f"[{status}] cs={'ok' if self.complementary_slackness else 'VIOLATED'}"
        )


def theorem3_certificate(
    nest: LoopNest,
    cache_words: int,
    betas: Sequence[Fraction] | None = None,
) -> Theorem3Certificate:
    """Solve primal and dual exactly and verify Theorem 3 for ``nest``."""
    if betas is None:
        betas = nest.betas(cache_words)
    betas = tuple(Fraction(b) for b in betas)

    primal = build_tiling_lp(nest, cache_words, betas=betas)
    primal_report = primal.solve()
    dual = build_dual_lp(nest, cache_words, betas=betas)
    dual_report = dual.solve()
    if not (primal_report.is_optimal and dual_report.is_optimal):  # pragma: no cover
        raise RuntimeError("tiling LP or its dual failed to solve")

    lambdas = tuple(primal_report.values[lvar(i, nest)] for i in range(nest.depth))
    zeta = tuple(dual_report.values[_zvar(i, nest)] for i in range(nest.depth))
    s = tuple(dual_report.values[svar(j, nest)] for j in range(nest.num_arrays))

    cs_ok = _complementary_slackness(nest, betas, lambdas, zeta, s)
    return Theorem3Certificate(
        nest=nest,
        cache_words=cache_words,
        betas=betas,
        primal_value=primal_report.objective,
        dual_value=dual_report.objective,
        lambdas=lambdas,
        dual=DualSolution(zeta=zeta, s=s, objective=dual_report.objective),
        complementary_slackness=cs_ok,
    )


def _complementary_slackness(
    nest: LoopNest,
    betas: tuple[Fraction, ...],
    lambdas: tuple[Fraction, ...],
    zeta: tuple[Fraction, ...],
    s: tuple[Fraction, ...],
) -> bool:
    """Exact KKT complementarity between optimal primal/dual vertices.

    Primal rows: capacity per array (multiplier ``s_j``), loop bounds
    (multiplier ``zeta_i``).  Dual rows: covering per loop (slack
    complementary to ``lambda_i``).

    Note: with degenerate optima, independently-solved primal and dual
    vertices may fail pairwise complementarity even though both are
    optimal; callers treat this flag as diagnostic, while *strong
    duality* (the Theorem-3 claim itself) is exact equality of
    objectives.
    """
    # s_j > 0  =>  capacity row tight.
    for j, arr in enumerate(nest.arrays):
        if s[j] > 0:
            if sum((lambdas[i] for i in arr.support), start=Fraction(0)) != 1:
                return False
    # zeta_i > 0  =>  lambda_i == beta_i.
    for i in range(nest.depth):
        if zeta[i] > 0 and lambdas[i] != betas[i]:
            return False
    # lambda_i > 0  =>  covering row tight: zeta_i + sum_{j in R_i} s_j == 1.
    for i in range(nest.depth):
        if lambdas[i] > 0:
            total = zeta[i] + sum((s[j] for j in nest.arrays_containing(i)), start=Fraction(0))
            if total != 1:
                return False
    return True
