"""The lexicographically smallest optimal tile of LP (5.1), by dual simplex.

LP (5.1) — ``max sum(lambda)`` subject to ``sum_{i in row} lambda_i <= 1``
per array and ``0 <= lambda_i <= beta_i`` — often has many optimal
vertices.  The served one is fixed by a rule: among the optimal
``lambda``, the smallest ``lambda_1``, then the smallest ``lambda_2``,
and so on (in the order of the loops given).  That point is the unique
optimum of the perturbed objective ``sum(lambda) - sum_k eps**k lambda_k``
for every small enough ``eps > 0``, so costs here are vectors over
``(1, eps, ..., eps**d)`` compared lexicographically.

The routine is a bounded-variable dual simplex on those costs:

* The slack basis, with every ``lambda_i`` nonbasic at its upper bound
  ``beta_i``, is dual feasible (every reduced cost is ``-1 + eps**i``).
* ``det(B) * B^-1 [A | I | 1]`` and the reduced costs never involve
  ``beta``: they are integers kept fraction-free (Edmonds' integer
  pivoting, the common denominator being ``|det B|``).  ``beta`` enters
  only the basic values ``x_B = B^-1 1 - sum_{i at upper} T_i beta_i``,
  computed in integers over a common denominator of the betas.
* Every nonbasic reduced cost is lexicographically nonzero (a nonbasic
  ``lambda_k`` has ``eps**k`` part 1; a nonbasic slack a nonzero
  ``lambda`` row), so the dual is nondegenerate: each pivot strictly
  improves the dual objective, no basis repeats, and the optimum is
  unique.  Every basis visited is lex-dual feasible, so *any* of them
  is a valid warm start at any ``beta``: a start changes the number of
  pivots, never the answer.

Leaving row: the lowest-index infeasible basic variable (loops before
slacks).  Entering column: the lexicographic minimum of the ratio test.

A final basis also carries the dual (5.5/5.6) at ``beta``: the row-0
reduced costs give ``s_r = costs[0][d + r] / det`` for each array row
and ``zeta_i = -costs[0][i] / det`` for each ``lambda_i`` at its upper
bound (0 otherwise).  :meth:`Vertex.certified` checks both against the
LP's own rows, in integers over ``det * den`` — primal and dual
feasible with equal objectives — so an answer never rests on the
tableau being right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple, Sequence

from ..util.deadline import checkpoint

__all__ = ["Basis", "Point", "Vertex", "lex_min_vertex", "point", "slack_basis", "vertex_at"]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Basis:
    """One lex-dual-feasible basis of LP (5.1) on a fixed structure.

    Variables ``0 .. d-1`` are the loops' ``lambda``, ``d + r`` the slack
    of row ``r``.  ``tableau[r]`` is ``det * (B^-1 [A | I | 1])[r]`` (the
    right-hand side last), ``costs[k][j]`` the ``eps**k`` part of column
    ``j``'s reduced cost times ``det`` (minimisation form).  Nothing here
    depends on ``beta``.
    """

    depth: int
    basic: tuple[int, ...]
    at_upper: tuple[bool, ...]
    det: int
    tableau: tuple[tuple[int, ...], ...]
    costs: tuple[tuple[int, ...], ...]

    @cached_property
    def upper_terms(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Per row, ``(rhs, ((j, T_rj) for each loop j at its upper bound if T_rj))``:
        all that ``x_B`` at a ``beta`` reads of the tableau."""
        upper = [j for j in range(self.depth) if self.at_upper[j]]
        return tuple(
            (line[-1], tuple((j, line[j]) for j in upper if line[j])) for line in self.tableau
        )

    @cached_property
    def dual_numerators(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(det * zeta, det * s)`` from the row-0 reduced costs, ``s`` per nonempty row."""
        reduced = self.costs[0]
        zeta = tuple(-reduced[i] if up else 0 for i, up in enumerate(self.at_upper))
        return zeta, reduced[self.depth :]


class Point(NamedTuple):
    """``beta`` over one common denominator: ``beta_i == nums[i] / den``."""

    betas: tuple[Fraction, ...]
    den: int
    nums: tuple[int, ...]


def point(betas: Sequence[Fraction]) -> Point:
    den = lcm(*(b.denominator for b in betas))
    return Point(tuple(betas), den, tuple(b.numerator * (den // b.denominator) for b in betas))


class Vertex(NamedTuple):
    """A basis primal feasible at ``at``; ``values[r]`` is ``det * den * x_B[r]``."""

    basis: Basis
    at: Point
    values: list[int]

    def lambdas(self) -> tuple[Fraction, ...]:
        basis, betas = self.basis, self.at.betas
        scale = basis.det * self.at.den
        out = [betas[j] if basis.at_upper[j] else _ZERO for j in range(basis.depth)]
        for var, value in zip(basis.basic, self.values):
            if var < basis.depth:
                out[var] = Fraction(value, scale)
        return tuple(out)

    def certified(self, rows: Sequence[Sequence[int]]) -> Fraction | None:
        """``sum(lambda)`` if the vertex and the basis's dual certify each other.

        ``rows`` are the LP's array supports (empty ones included, as in
        :func:`slack_basis`).  Checks, in integers: ``0 <= lambda <=
        beta``, every row sum ``<= 1``, the dual's feasibility
        (:func:`_dual_feasible`), and ``sum(s) + sum(beta * zeta) ==
        sum(lambda)``.  Weak duality then makes both optimal.  None if
        any check fails.
        """
        basis, (_, den, nums) = self.basis, self.at
        det = basis.det
        scale = det * den
        lam = [det * n if up else 0 for n, up in zip(nums, basis.at_upper)]
        for var, value in zip(basis.basic, self.values):
            if var < basis.depth:
                lam[var] = value
        for value, num in zip(lam, nums):
            if value < 0 or value > det * num:
                return None
        for row in rows:
            used = 0
            for i in row:
                used += lam[i]
            if used > scale:
                return None
        if not _dual_feasible(basis, rows):
            return None
        zeta, s = basis.dual_numerators
        dual = den * sum(s)
        for z, num in zip(zeta, nums):
            if z:
                dual += z * num
        total = sum(lam)
        if dual != total:
            return None
        return Fraction(total, scale)

    def dual(self, rows: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
        """``(zeta, s)`` read off the basis, ``s`` with one entry per row (0 if empty)."""
        det = self.basis.det
        zeta, s = self.basis.dual_numerators
        slacks = iter(s)
        return (
            tuple(Fraction(z, det) for z in zeta),
            tuple(Fraction(next(slacks), det) if row else _ZERO for row in rows),
        )


def _dual_feasible(basis: Basis, rows: Sequence[Sequence[int]]) -> bool:
    """``s, zeta >= 0`` and every covering row ``zeta_i + sum_{r contains i} s_r >= 1``.

    Neither the basis nor ``rows`` depends on ``beta``, so a passed check
    is remembered on the basis, keyed by the rows it was made against.
    """
    if basis.__dict__.get("_dual_rows") == rows:
        return True
    zeta, s = basis.dual_numerators
    cover = list(zeta)
    slacks = iter(s)
    for row in rows:
        if row:
            s_r = next(slacks)
            for i in row:
                cover[i] += s_r
    if min(zeta) < 0 or min(s, default=0) < 0 or min(cover) < basis.det:
        return False
    basis.__dict__["_dual_rows"] = rows
    return True


def slack_basis(depth: int, rows: Sequence[Sequence[int]]) -> Basis:
    """Every slack basic, every ``lambda_i`` at its upper bound."""
    rows = [row for row in rows if row]
    m = len(rows)
    tableau = []
    for r, row in enumerate(rows):
        line = [0] * (depth + m + 1)
        for i in row:
            line[i] = 1
        line[depth + r] = 1
        line[-1] = 1
        tableau.append(tuple(line))
    # min -sum(lambda) + sum_k eps**k lambda_k: row 0 is the objective,
    # row k the eps**k perturbation of lambda_{k-1}.
    costs = [tuple(-1 if j < depth else 0 for j in range(depth + m))]
    for k in range(depth):
        costs.append(tuple(1 if j == k else 0 for j in range(depth + m)))
    return Basis(
        depth=depth,
        basic=tuple(depth + r for r in range(m)),
        at_upper=(True,) * depth,
        det=1,
        tableau=tuple(tableau),
        costs=tuple(costs),
    )


def _basic_values(basis: Basis, den: int, nums: tuple[int, ...]) -> list[int]:
    """``det * den * x_B``, row by row, in integers."""
    out = []
    for rhs, terms in basis.upper_terms:
        value = rhs * den
        for j, coeff in terms:
            value -= coeff * nums[j]
        out.append(value)
    return out


def _infeasible_row(basis: Basis, values: list[int], nums: tuple[int, ...]) -> int | None:
    """Row of the lowest-index basic variable outside its bounds, if any."""
    best_row, best_var = None, None
    for r, (var, value) in enumerate(zip(basis.basic, values)):
        if value < 0 or (var < basis.depth and value > basis.det * nums[var]):
            if best_var is None or var < best_var:
                best_row, best_var = r, var
    return best_row


def vertex_at(basis: Basis, at: Point) -> Vertex | None:
    """The basis's vertex at ``beta`` if it is primal feasible there, else None.

    A feasible lex-dual-feasible basis is optimal for the perturbed
    costs, so its vertex is the lexicographically smallest optimum.
    """
    values = _basic_values(basis, at.den, at.nums)
    if _infeasible_row(basis, values, at.nums) is not None:
        return None
    return Vertex(basis, at, values)


def _pivot(basis: Basis, row: int, col: int, leaves_upper: bool) -> Basis:
    """Fraction-free pivot on ``(row, col)``; the leaving variable goes to a bound."""
    det, tableau, costs = basis.det, basis.tableau, basis.costs
    pivot_line = tableau[row]
    p = pivot_line[col]
    sign = 1 if p > 0 else -1

    def eliminate(line: tuple[int, ...]) -> tuple[int, ...]:
        # Exact: every entry stays det(B) times an entry of B^-1 [A | I | 1].
        factor = line[col]
        if not factor and p == det:  # common on 0/1 rows: nothing changes
            return line
        return tuple(sign * (v * p - factor * w) // det for v, w in zip(line, pivot_line))

    new_tableau = tuple(
        tuple(sign * v for v in line) if r == row else eliminate(line)
        for r, line in enumerate(tableau)
    )
    new_costs = tuple(eliminate(line) for line in costs)  # zip drops the rhs
    leaving = basis.basic[row]
    at_upper = list(basis.at_upper)
    if col < basis.depth:
        at_upper[col] = False
    if leaving < basis.depth:
        at_upper[leaving] = leaves_upper
    return Basis(
        depth=basis.depth,
        basic=basis.basic[:row] + (col,) + basis.basic[row + 1 :],
        at_upper=tuple(at_upper),
        det=sign * p,
        tableau=new_tableau,
        costs=new_costs,
    )


def _entering(basis: Basis, row: int, below: bool) -> int:
    """Lexicographic minimum of the dual ratio test on ``row``."""
    line = basis.tableau[row]
    costs = basis.costs
    depth = basis.depth
    leaving = basis.basic[row]
    best, best_alpha, best_sign = -1, 0, 0
    for j in range(len(line) - 1):
        alpha = line[j]
        if not alpha or j == leaving:  # other basic columns are 0 here
            continue
        upper = j < depth and basis.at_upper[j]
        # Leaving below its lower bound, x_r must rise: raise a variable
        # at lower with alpha < 0, or lower one at upper with alpha > 0.
        if below == ((alpha < 0) == upper):
            continue
        sign = -1 if upper else 1  # sign * reduced cost is lex >= 0
        if best < 0:
            best, best_alpha, best_sign = j, abs(alpha), sign
            continue
        a_abs = abs(alpha)
        for cost in costs:
            lhs = sign * cost[j] * best_alpha
            rhs = best_sign * cost[best] * a_abs
            if lhs != rhs:
                if lhs < rhs:
                    best, best_alpha, best_sign = j, a_abs, sign
                break
    if best < 0:  # pragma: no cover - LP (5.1) is feasible (lambda = 0)
        raise RuntimeError("dual simplex found LP (5.1) infeasible")
    return best


def lex_min_vertex(start: Basis, at: Point) -> Vertex:
    """The lex-min optimal vertex at ``beta`` and its final basis, pivoting from ``start``."""
    den, nums = at.den, at.nums
    basis = start
    while True:
        values = _basic_values(basis, den, nums)
        row = _infeasible_row(basis, values, nums)
        if row is None:
            return Vertex(basis, at, values)
        checkpoint("lp-pivot")
        below = values[row] < 0
        col = _entering(basis, row, below)
        basis = _pivot(basis, row, col, leaves_upper=not below)
