"""The Hölder–Brascamp–Lieb linear program (paper eq. 3.1/3.2).

For a projective nest the infinite subgroup-indexed Brascamp–Lieb
constraint family collapses (Theorem 6.6 of [CDK+13], quoted in §3) to
one constraint per loop index::

    min  sum_j s_j
    s.t. sum_{j : loop i in supp(phi_j)} s_j  >=  1     for each loop i
         s_j >= 0

The optimum ``k_HBL`` bounds the cardinality of any cache-feasible tile
by ``M**k_HBL`` in the large-bound regime and yields the classical
communication lower bound ``prod_i L_i / M**(k_HBL - 1)``.

Section 4 needs *row-deleted* variants of the same LP — the HBL LP of a
"slice" where the loops in a set ``Q`` are held fixed — which
:func:`build_hbl_lp` supports through the ``exclude`` parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .loopnest import LoopNest
from .lp import LinearProgram, SolveReport

__all__ = ["HBLSolution", "build_hbl_lp", "solve_hbl", "svar"]


def svar(j: int, nest: LoopNest) -> str:
    """LP variable name for the HBL exponent of array ``j``."""
    return f"s[{nest.arrays[j].name}]"


@dataclass(frozen=True)
class HBLSolution:
    """Solution of (a row-deleted variant of) the HBL LP.

    Attributes
    ----------
    nest:
        The analysed loop nest.
    excluded:
        Loop positions whose constraint rows were deleted (the paper's
        set ``Q`` of small loops; empty for the classic §3 LP).
    s:
        Optimal exponents, one per array, in nest array order.
    k:
        The optimum ``sum_j s_j`` — the tile-size exponent.
    """

    nest: LoopNest
    excluded: tuple[int, ...]
    s: tuple[Fraction, ...]
    k: Fraction

    def tile_size_bound(self, cache_words: int) -> float:
        """``M**k`` — the §3 upper bound on tile cardinality."""
        from ..util.rationals import pow_fraction

        return pow_fraction(cache_words, self.k)

    def communication_lower_bound(self, cache_words: int) -> float:
        """``prod_i L_i * M**(1 - k)`` — the §3 communication bound.

        Only meaningful for the full LP (``excluded == ()``) in the
        large-bound regime; §4's machinery supersedes it otherwise.
        """
        from ..util.rationals import pow_fraction

        return self.nest.num_operations * pow_fraction(cache_words, Fraction(1) - self.k)

    def row_sum(self, loop: int) -> Fraction:
        """``sum_{j in R_loop} s_j`` — the quantity Theorem 2 compares to 1."""
        return sum(
            (self.s[j] for j in self.nest.arrays_containing(loop)),
            start=Fraction(0),
        )


def build_hbl_lp(nest: LoopNest, exclude: Iterable[int] = ()) -> LinearProgram:
    """Construct the (row-deleted) HBL LP for ``nest``.

    ``exclude`` lists loop positions whose covering constraints are
    dropped — the paper's deletion of the rows indexed by ``Q`` from
    the constraint matrix of eq. 3.2 (see eq. 4.7 and eq. 5.3).
    """
    excluded = set(exclude)
    bad = [i for i in excluded if not 0 <= i < nest.depth]
    if bad:
        raise ValueError(f"excluded loop positions {bad} out of range for depth {nest.depth}")
    lp = LinearProgram(sense="min")
    for j in range(nest.num_arrays):
        lp.add_variable(svar(j, nest), lo=0)
    for i in range(nest.depth):
        if i in excluded:
            continue
        covering = nest.arrays_containing(i)
        # Non-empty by the LoopNest invariant that every loop appears in
        # at least one support.
        lp.add_constraint(
            f"cover[{nest.loops[i]}]",
            {svar(j, nest): 1 for j in covering},
            ">=",
            1,
        )
    lp.set_objective({svar(j, nest): 1 for j in range(nest.num_arrays)})
    return lp


def solve_hbl(nest: LoopNest, exclude: Iterable[int] = ()) -> HBLSolution:
    """Solve the (row-deleted) HBL LP exactly and package the result.

    With all rows deleted the LP is unconstrained and the optimum is the
    zero vector (``k = 0``), matching the degenerate slice case.
    """
    excluded = tuple(sorted(set(exclude)))
    lp = build_hbl_lp(nest, excluded)
    report: SolveReport = lp.solve()
    if not report.is_optimal:  # pragma: no cover - the HBL LP is always feasible/bounded
        raise RuntimeError(f"HBL LP unexpectedly {report.status} for {nest.name}")
    s = tuple(report.values[svar(j, nest)] for j in range(nest.num_arrays))
    return HBLSolution(nest=nest, excluded=excluded, s=s, k=report.objective)
