"""Arbitrary-bound communication lower bounds (paper §4, Theorem 2).

Theorem 2 gives, for every subset ``Q`` of loops treated as *small* and
every ``s_hat`` feasible for the row-deleted HBL LP, a tile-size upper
bound ``M**k`` with::

    k = sum_j s_hat_j + sum_{i in Q, rowsum_i <= 1} beta_i * (1 - rowsum_i)
    rowsum_i = sum_{j in R_i} s_hat_j,   beta_i = log_M L_i

Minimising ``k`` over the feasible ``s_hat`` for a fixed ``Q`` is itself
a linear program (introduce ``zeta_i >= max(0, 1 - rowsum_i)``); that LP
is exactly the dual (eq. 5.5/5.6) of the tiling LP restricted to ``Q``.
Two structural facts implemented and tested here:

* **Monotonicity** — enlarging ``Q`` replaces hard covering rows by
  penalty terms that vanish wherever the row was satisfied, so
  ``k_LP(Q)`` is non-increasing in ``Q`` and the strongest bound is
  attained at ``Q = all loops``.
* **Theorem 3** — ``k_LP(all loops)`` equals the optimum of the tiling
  LP (5.1); see :mod:`repro.core.duality`.

The module also packages the §6-style *communication* bounds derived
from the tile-size exponent, including the rigorous Hong–Kung phase
bound and the read-once/write-once footprint floor that repairs the
§6.3 small-problem caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..util.rationals import pow_fraction
from ..util.subsets import all_subsets
from .hbl import HBLSolution, solve_hbl, svar
from .loopnest import LoopNest
from .lp import LinearProgram
from .tiling import check_cache_words

__all__ = [
    "subset_exponent",
    "subset_exponent_literal",
    "subset_scan",
    "tile_exponent",
    "CommunicationLowerBound",
    "communication_lower_bound",
    "lower_bound_from_k_hat",
]


def _zvar(i: int, nest: LoopNest) -> str:
    return f"zeta[{nest.loops[i]}]"


def build_subset_lp(
    nest: LoopNest, betas: Sequence[Fraction], Q: Iterable[int]
) -> LinearProgram:
    """LP computing the tightest Theorem-2 exponent for small-set ``Q``.

    ``min  sum_j s_j + sum_{i in Q} beta_i zeta_i`` subject to
    ``zeta_i + rowsum_i >= 1`` for ``i in Q`` and ``rowsum_i >= 1`` for
    ``i not in Q`` — i.e. the dual (5.5/5.6) with the β-weighted columns
    restricted to ``Q``.
    """
    Qset = set(Q)
    bad = [i for i in Qset if not 0 <= i < nest.depth]
    if bad:
        raise ValueError(f"loop positions {bad} out of range")
    lp = LinearProgram(sense="min")
    for j in range(nest.num_arrays):
        lp.add_variable(svar(j, nest), lo=0)
    for i in sorted(Qset):
        lp.add_variable(_zvar(i, nest), lo=0)
    objective: dict[str, Fraction] = {svar(j, nest): Fraction(1) for j in range(nest.num_arrays)}
    for i in sorted(Qset):
        objective[_zvar(i, nest)] = Fraction(betas[i])
    lp.set_objective(objective)
    for i in range(nest.depth):
        coeffs = {svar(j, nest): 1 for j in nest.arrays_containing(i)}
        if i in Qset:
            coeffs[_zvar(i, nest)] = 1
        lp.add_constraint(f"cover[{nest.loops[i]}]", coeffs, ">=", 1)
    return lp


def subset_exponent(
    nest: LoopNest,
    cache_words: int,
    Q: Iterable[int],
    betas: Sequence[Fraction] | None = None,
) -> Fraction:
    """Tightest Theorem-2 tile-size exponent for the small-set ``Q``."""
    if betas is None:
        betas = nest.betas(cache_words)
    report = build_subset_lp(nest, betas, Q).solve()
    if not report.is_optimal:  # pragma: no cover - always feasible & bounded
        raise RuntimeError(f"subset LP unexpectedly {report.status}")
    return report.objective


def subset_exponent_literal(
    nest: LoopNest,
    cache_words: int,
    Q: Iterable[int],
    betas: Sequence[Fraction] | None = None,
) -> tuple[Fraction, HBLSolution]:
    """Paper-literal Theorem-2 evaluation for ``Q``.

    Solves the *row-deleted* HBL LP (min ``sum s_hat``), then plugs the
    returned vertex into the Theorem-2 expression.  This matches the
    paper's statement ("where ``s_hat_{Q,i}`` is the solution to the HBL
    LP with the rows indexed by elements of Q removed") but depends on
    which optimal vertex the solver returns; :func:`subset_exponent` is
    the authoritative (tightest) value.  Returns ``(k, hbl_solution)``.
    """
    if betas is None:
        betas = nest.betas(cache_words)
    Qset = sorted(set(Q))
    sliced = solve_hbl(nest, exclude=Qset)
    k = sliced.k
    for i in Qset:
        rowsum = sliced.row_sum(i)
        if rowsum <= 1:
            k += Fraction(betas[i]) * (1 - rowsum)
    return k, sliced


def subset_scan(
    nest: LoopNest,
    cache_words: int,
    betas: Sequence[Fraction] | None = None,
) -> dict[tuple[int, ...], Fraction]:
    """Theorem-2 exponent for *every* subset ``Q`` (2^d LP solves).

    Exponential in ``d`` — intended for analysis, benchmarking, and the
    monotonicity property tests; :func:`tile_exponent` gives the final
    answer with a single LP.
    """
    if betas is None:
        betas = nest.betas(cache_words)
    return {
        Q: subset_exponent(nest, cache_words, Q, betas=betas)
        for Q in all_subsets(nest.depth)
    }


def tile_exponent(
    nest: LoopNest,
    cache_words: int,
    betas: Sequence[Fraction] | None = None,
) -> Fraction:
    """The strongest (smallest) Theorem-2 exponent ``k_hat``.

    Equal to ``subset_exponent`` at ``Q = range(d)`` by monotonicity,
    and to the tiling-LP optimum by Theorem 3.
    """
    return subset_exponent(nest, cache_words, range(nest.depth), betas=betas)


@dataclass(frozen=True)
class CommunicationLowerBound:
    """All components of the arbitrary-bound communication lower bound.

    Attributes
    ----------
    nest, cache_words:
        Problem instance.
    k_hat:
        Optimal tile-size exponent (Theorem 2/3), ``log_M`` of the max
        feasible tile cardinality.
    tile_size:
        ``M ** k_hat`` (float; exact when representable).
    hbl_words:
        The paper's headline expression ``prod L_i * M**(1 - k_hat)``.
        §6.3's caveat: when the whole problem fits in cache this
        evaluates to ``M`` and can *overestimate* the true cost — use
        :attr:`value` for a bound that is always valid.
    hong_kung_words:
        Rigorous phase-argument bound
        ``max(0, (ceil(prod L / M**k_hat) - 1) * M)``.
    footprint_words:
        Read-once/write-once floor: every distinct array element moves
        at least once, so traffic >= total footprint.
    """

    nest: LoopNest
    cache_words: int
    k_hat: Fraction
    tile_size: float
    hbl_words: float
    hong_kung_words: int
    footprint_words: int

    @property
    def value(self) -> float:
        """The best always-valid lower bound among the components."""
        return max(float(self.hong_kung_words), float(self.footprint_words))

    @property
    def paper_value(self) -> float:
        """§6-style expression (max of HBL term and footprint floor).

        Matches the closed forms of §6.1 (``max(L1L2L3/sqrt(M), L1L2,
        L2L3, L1L3)``) on their validity domain; can exceed the true
        cost only in the everything-fits-in-cache regime flagged by
        :meth:`fits_in_cache`.
        """
        return max(self.hbl_words, float(self.footprint_words))

    def fits_in_cache(self) -> bool:
        """§6.3 caveat predicate: does the entire footprint fit in cache?"""
        return self.footprint_words <= self.cache_words

    def summary(self) -> str:
        return (
            f"{self.nest.name}: M={self.cache_words} k_hat={self.k_hat} "
            f"tile<= {self.tile_size:.6g} words>= {self.value:.6g} "
            f"(hbl {self.hbl_words:.6g}, hong-kung {self.hong_kung_words}, "
            f"footprint {self.footprint_words})"
        )


def lower_bound_from_k_hat(
    nest: LoopNest, cache_words: int, k_hat: Fraction
) -> CommunicationLowerBound:
    """Assemble the full lower bound from a known optimal exponent.

    Pure arithmetic — no LP solve.  Used by
    :func:`communication_lower_bound` after its LP solve, and by the
    plan cache (:mod:`repro.plan`), which obtains ``k_hat`` from a
    warm-started dual simplex instead.
    """
    tile_size = pow_fraction(cache_words, k_hat)
    ops = nest.num_operations
    hbl_words = ops * pow_fraction(cache_words, Fraction(1) - k_hat)
    num_tiles = max(1, math.ceil(ops / tile_size - 1e-12))
    hong_kung = max(0, (num_tiles - 1) * cache_words)
    return CommunicationLowerBound(
        nest=nest,
        cache_words=cache_words,
        k_hat=k_hat,
        tile_size=tile_size,
        hbl_words=hbl_words,
        hong_kung_words=hong_kung,
        footprint_words=nest.total_footprint(),
    )


def communication_lower_bound(
    nest: LoopNest,
    cache_words: int,
    betas: Sequence[Fraction] | None = None,
) -> CommunicationLowerBound:
    """Compute the full arbitrary-bound lower bound for ``nest``."""
    if cache_words < 1:
        raise ValueError("cache_words must be >= 1")
    check_cache_words(cache_words)
    k_hat = tile_exponent(nest, cache_words, betas=betas)
    return lower_bound_from_k_hat(nest, cache_words, k_hat)
