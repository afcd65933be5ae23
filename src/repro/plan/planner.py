"""The plan cache: canonical structure -> parametric exponents, exactly.

Design
------
``solve_tiling`` spends essentially all of its time in the exact
rational simplex.  But the LP's *structure* (LP 5.1) depends only on
the nest's projection pattern; the bounds and cache size enter through
``beta_i = log_M L_i``.  The paper's §7 observation — the optimum is a
piecewise-linear function ``f(beta)``, the lower envelope of one affine
piece per vertex of the beta-independent dual polyhedron — makes the
expensive part *cacheable*: solve the multiparametric LP once per
canonical structure, then answer every query on that structure by
evaluating finitely many affine pieces.

Recovering the *primal* solution (the ``lambda_i`` the integer tile is
built from) reuses a second multiparametric fact: within one piece's
critical region the optimal vertex is an affine function of ``beta``.
The planner derives that affine map lazily — from the tight-constraint
set of one exact LP solve the first time a piece is hit — and guards
every reuse with an exact feasibility + strong-duality check (primal
feasible and objective equal to the dual value certifies optimality).
A failed guard falls back to the exact LP, so warm answers are *always*
certified optimal; the guard never trusts the cache.

Everything is exact Fraction arithmetic except a float pre-pass that
shortlists candidate minimal pieces (error ~1e-13 against a 1e-7
acceptance margin, then settled exactly).
"""

from __future__ import annotations

import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from ..core.bounds import CommunicationLowerBound, lower_bound_from_k_hat
from ..core.canonical import CanonicalForm, Canonicalization, canonicalize
from ..core.duality import (
    DualSolution,
    Theorem3Certificate,
    _complementary_slackness,
    theorem3_certificate,
)
from ..core.hierarchy import MemoryHierarchy
from ..core.integer import nested_integer_repair
from ..core.loopnest import LoopNest
from ..core.mplp import AffinePiece, PiecewiseValueFunction, parametric_tile_exponent
from ..core.tiling import (
    BUDGETS,
    TileShape,
    TilingSolution,
    build_tiling_lp,
    integer_repair,
    lvar,
)
from ..obs.trace import span as _span
from ..util import deadline as _deadline
from ..util.rationals import log_ratio, pow_fraction
from ..util.sharedstore import SharedPlanStore

__all__ = ["TilePlan", "HierarchyPlan", "Planner", "PlannerStats"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: The mpLP prune (:func:`repro.core.mplp.parametric_tile_exponent`)
#: certifies the piece set only on ``beta_i <= 64`` — i.e. every bound
#: up to ``M**64``.  Queries beyond that (practically unreachable) skip
#: the cache and solve the LP directly.
_BETA_CAP = Fraction(64)

#: Float shortlist margin: piece values are O(100) at most, so float
#: evaluation error is ~1e-12; any piece within this margin of the float
#: minimum is re-evaluated exactly.
_FLOAT_MARGIN = 1e-7

#: Optimal-basis maps remembered per piece (multiple bases meet inside
#: one critical region's closure; a short MRU list absorbs the churn).
_MAPS_PER_PIECE = 8

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TilePlan:
    """A served plan: optimal tile + exponent + lower bound + provenance.

    ``exponent``/``lambdas`` match :class:`~repro.core.tiling.TilingSolution`
    semantics exactly (w.r.t. the effective cache when
    ``budget="aggregate"``); when the LP has multiple optimal vertices
    the plan may pick a different one than the simplex would, but the
    exponent and the guard-certified optimality are identical.
    """

    nest: LoopNest
    cache_words: int
    budget: str
    canonical_key: str
    exponent: Fraction
    lambdas: tuple[Fraction, ...]
    fractional_blocks: tuple[float, ...]
    tile: TileShape
    lower_bound: CommunicationLowerBound | None
    cache_hit: bool

    def tiling_solution(self) -> TilingSolution:
        """Adapter to the :func:`solve_tiling` result type."""
        return TilingSolution(
            nest=self.nest,
            cache_words=self.cache_words,
            budget=self.budget,
            lambdas=self.lambdas,
            exponent=self.exponent,
            fractional_blocks=self.fractional_blocks,
            tile=self.tile,
        )

    def to_json(self) -> dict:
        """JSON-line payload for the batch CLI; lossless (see :meth:`from_json`).

        Fractions are serialized as ``"p/q"`` strings; ``arrays``,
        ``lambdas`` and ``fractional_blocks`` carry everything needed to
        reconstruct the plan exactly.
        """
        out: dict = {
            **self.nest.to_json(),
            "cache_words": self.cache_words,
            "budget": self.budget,
            "canonical_key": self.canonical_key,
            "k_hat": str(self.exponent),
            "k_hat_float": float(self.exponent),
            "lambdas": [str(lam) for lam in self.lambdas],
            "fractional_blocks": list(self.fractional_blocks),
            "tile": list(self.tile.blocks),
            "tile_volume": self.tile.volume,
            "num_tiles": self.tile.num_tiles,
            "cache_hit": self.cache_hit,
        }
        if self.lower_bound is not None:
            out["lower_bound_words"] = self.lower_bound.value
            out["lower_bound_k_hat"] = str(self.lower_bound.k_hat)
        return out

    @classmethod
    def from_json(cls, blob: dict) -> "TilePlan":
        """Exact inverse of :meth:`to_json`.

        The lower bound is reassembled from its exponent with
        :func:`~repro.core.bounds.lower_bound_from_k_hat` (pure,
        deterministic arithmetic), so the round trip is lossless.
        """
        nest = LoopNest.from_json(blob)  # ignores the non-nest keys
        cache_words = int(blob["cache_words"])
        lower_bound = None
        if "lower_bound_k_hat" in blob:
            lower_bound = lower_bound_from_k_hat(
                nest, cache_words, Fraction(blob["lower_bound_k_hat"])
            )
        return cls(
            nest=nest,
            cache_words=cache_words,
            budget=str(blob["budget"]),
            canonical_key=str(blob["canonical_key"]),
            exponent=Fraction(blob["k_hat"]),
            lambdas=tuple(Fraction(lam) for lam in blob["lambdas"]),
            fractional_blocks=tuple(float(b) for b in blob["fractional_blocks"]),
            tile=TileShape(nest=nest, blocks=tuple(int(b) for b in blob["tile"])),
            lower_bound=lower_bound,
            # Result payloads move cache_hit to the envelope meta; accept
            # both spellings so those payloads reconstruct too.
            cache_hit=bool(blob.get("cache_hit", False)),
        )


@dataclass(frozen=True)
class HierarchyPlan:
    """Nested per-level plans for one (nest, capacity stack) query.

    ``levels`` holds one :class:`TilePlan` per hierarchy level, innermost
    (smallest capacity) first, with the tiles repaired *jointly* by
    :func:`~repro.core.integer.nested_integer_repair` so the hierarchy
    invariant holds: ``levels[l].tile.blocks[i] <=
    levels[l+1].tile.blocks[i]`` for every loop ``i``.  Every level's
    exponent, lambdas and lower bound carry the exact same semantics as
    a single-level :meth:`Planner.plan` answer at that capacity — a
    one-level hierarchy *is* that answer, tile included.
    """

    nest: LoopNest
    capacities: tuple[int, ...]
    budget: str
    canonical_key: str
    levels: tuple[TilePlan, ...]
    cache_hit: bool

    @property
    def innermost(self) -> TilePlan:
        return self.levels[0]

    def tiles(self) -> tuple[tuple[int, ...], ...]:
        """Per-level integer blocks, innermost first."""
        return tuple(level.tile.blocks for level in self.levels)

    def to_json(self) -> dict:
        """Lossless wire form (one analyze-shaped payload per level)."""
        return {
            "nest": self.nest.to_json(),
            "capacities": list(self.capacities),
            "budget": self.budget,
            "canonical_key": self.canonical_key,
            "levels": [level.to_json() for level in self.levels],
            "cache_hit": self.cache_hit,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "HierarchyPlan":
        return cls(
            nest=LoopNest.from_json(blob["nest"]),
            capacities=tuple(int(c) for c in blob["capacities"]),
            budget=str(blob["budget"]),
            canonical_key=str(blob["canonical_key"]),
            levels=tuple(TilePlan.from_json(dict(entry)) for entry in blob["levels"]),
            cache_hit=bool(blob.get("cache_hit", False)),
        )


@dataclass
class PlannerStats:
    """Counters exposed for benchmarks and cache-effectiveness tests."""

    queries: int = 0
    structure_hits: int = 0
    structure_solves: int = 0
    primal_map_hits: int = 0
    primal_lp_solves: int = 0
    evictions: int = 0
    #: Structures adopted from a cross-process shared store instead of solved.
    shared_hits: int = 0
    #: Callers that waited on another thread's in-flight solve of the same key.
    coalesced: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _PrimalMap:
    """``lambda(beta) = constant + matrix @ beta`` (exact, canonical order)."""

    constant: tuple[Fraction, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def apply(self, betas: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(
            c + sum((m * b for m, b in zip(row, betas) if m), start=_ZERO)
            for c, row in zip(self.constant, self.matrix)
        )


@dataclass
class _StructurePlan:
    """Everything cached for one canonical structure."""

    form: CanonicalForm
    pvf: PiecewiseValueFunction
    float_pieces: list[tuple[float, tuple[float, ...]]] = field(default_factory=list)
    #: piece index -> candidate primal maps, most recently successful
    #: first.  A piece can meet several optimal bases across its region
    #: (and on region boundaries), so a short list beats a single slot.
    primal_maps: dict[int, list[_PrimalMap]] = field(default_factory=dict)
    nest: LoopNest = None  # canonical nest (generic names, dummy bounds)

    def __post_init__(self) -> None:
        if self.nest is None:
            self.nest = self.pvf.nest
        self.float_pieces = [
            (float(p.constant), tuple(float(c) for c in p.coeffs))
            for p in self.pvf.pieces
        ]


def _piece_to_json(piece: AffinePiece) -> dict:
    return {
        "c": str(piece.constant),
        "zeta": [str(z) for z in piece.source_zeta],
        "s": [str(s) for s in piece.source_s],
    }


def _piece_from_json(blob: dict) -> AffinePiece:
    zeta = tuple(Fraction(z) for z in blob["zeta"])
    return AffinePiece(
        constant=Fraction(blob["c"]),
        coeffs=zeta,
        source_zeta=zeta,
        source_s=tuple(Fraction(s) for s in blob["s"]),
    )


def _solve_affine_system(
    a_rows: list[list[Fraction]],
    b_rows: list[list[Fraction]],
    n_unknowns: int,
) -> list[list[Fraction]] | None:
    """Solve ``A x = B(beta)`` for affine unknowns by Gauss-Jordan.

    ``b_rows[i]`` is the affine vector ``(const, coeff_beta_0, ...)`` of
    equation i's right-hand side.  Returns one affine vector per
    unknown, or None when the system does not determine all unknowns
    (degenerate optimum that is not a simple vertex — callers then skip
    map caching and keep using the exact LP).
    """
    m = len(a_rows)
    a = [row[:] for row in a_rows]
    b = [row[:] for row in b_rows]
    for col in range(n_unknowns):
        pivot_row = next((i for i in range(col, m) if a[i][col] != 0), None)
        if pivot_row is None:
            return None
        a[col], a[pivot_row] = a[pivot_row], a[col]
        b[col], b[pivot_row] = b[pivot_row], b[col]
        pivot = a[col][col]
        if pivot != 1:
            a[col] = [v / pivot for v in a[col]]
            b[col] = [v / pivot for v in b[col]]
        for i in range(m):
            if i != col and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [v - factor * w for v, w in zip(a[i], a[col])]
                b[i] = [v - factor * w for v, w in zip(b[i], b[col])]
    return b[:n_unknowns]


def _derive_primal_map(
    rows: Sequence[tuple[int, ...]],
    depth: int,
    lambdas: Sequence[Fraction],
    betas: Sequence[Fraction],
) -> _PrimalMap | None:
    """Affine map reproducing the vertex ``lambdas`` from its tight set.

    Classifies each coordinate as pinned-at-zero, pinned-at-beta, or
    free; free coordinates are solved from the tight array constraints.
    The map is only a *candidate* — every later application is verified
    exactly before use.
    """
    at_zero = [lambdas[i] == 0 for i in range(depth)]
    at_beta = [not at_zero[i] and lambdas[i] == betas[i] for i in range(depth)]
    free = [i for i in range(depth) if not at_zero[i] and not at_beta[i]]
    constant = [_ZERO] * depth
    matrix = [[_ZERO] * depth for _ in range(depth)]
    for i in range(depth):
        if at_beta[i]:
            matrix[i][i] = _ONE
    if free:
        tight = [row for row in rows if row and sum((lambdas[i] for i in row), start=_ZERO) == 1]
        a_rows = [[_ONE if i in row else _ZERO for i in free] for row in tight]
        b_rows = []
        for row in tight:
            affine = [_ONE] + [_ZERO] * depth
            for i in row:
                if at_beta[i]:
                    affine[1 + i] -= _ONE
            b_rows.append(affine)
        solved = _solve_affine_system(a_rows, b_rows, len(free))
        if solved is None:
            return None
        for pos, i in enumerate(free):
            constant[i] = solved[pos][0]
            matrix[i] = solved[pos][1:]
    return _PrimalMap(constant=tuple(constant), matrix=tuple(tuple(r) for r in matrix))


class Planner:
    """LRU-cached, optionally persistent, exact tiling-plan service.

    Parameters
    ----------
    capacity:
        Maximum number of canonical structures kept in memory (least
        recently used evicted first).
    shared_store:
        Optional :class:`~repro.util.sharedstore.SharedPlanStore` (or a
        directory path for one) — the planner's only persistence.
        Structure misses consult the store before solving, and each
        fresh solve is written back as it completes, so concurrent
        planner processes and later runs warm each other.  Primal maps
        are derived data and are not persisted.
    """

    def __init__(
        self,
        capacity: int = 128,
        shared_store: SharedPlanStore | str | os.PathLike | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        if shared_store is not None and not isinstance(shared_store, SharedPlanStore):
            shared_store = SharedPlanStore(shared_store)
        self.shared_store = shared_store
        self.stats = PlannerStats()
        self._structures: OrderedDict[str, _StructurePlan] = OrderedDict()
        self._canon_memo: dict[tuple, Canonicalization] = {}
        # Beta memo: sweeps repeat the same (bound, cache) pairs, and a
        # repeat then skips log_ratio's float approximation of an
        # inexact log (tens of µs; the exactness test itself is one
        # divisibility check).  pow_fraction carries its own lru_cache,
        # so fractional-block evaluation needs no twin here.
        self._log_memo: dict[tuple[int, int], Fraction] = {}
        self._lock = threading.RLock()
        # In-flight structure solves, for coalescing: canonical key ->
        # Event set when the leading solver finishes (or fails).
        self._solving: dict[str, threading.Event] = {}

    # -- canonicalization (memoised per raw structure) ----------------------

    def canonicalization(self, nest: LoopNest) -> Canonicalization:
        """Memoised :func:`repro.core.canonical.canonicalize`."""
        memo_key = (nest.depth, tuple(arr.support for arr in nest.arrays))
        canon = self._canon_memo.get(memo_key)
        if canon is None:
            canon = canonicalize(nest)
            with self._lock:
                if len(self._canon_memo) < 1 << 16:
                    self._canon_memo[memo_key] = canon
        return canon

    def _betas(self, bounds: Sequence[int], base: int) -> list[Fraction]:
        memo = self._log_memo
        out = []
        for bound in bounds:
            key = (bound, base)
            value = memo.get(key)
            if value is None:
                value = log_ratio(bound, base)
                if len(memo) < 1 << 16:
                    memo[key] = value
            out.append(value)
        return out

    # -- structure cache ----------------------------------------------------

    def cached_keys(self) -> list[str]:
        with self._lock:
            return list(self._structures)

    def _adopt_shared(self, key: str) -> bool:
        """Pull one structure from the shared store into the LRU, if present there."""
        if self.shared_store is None:
            return False
        pieces_json = self.shared_store.get(key)
        if pieces_json is None:
            return False
        try:
            form = CanonicalForm.from_key(key)
            pieces = tuple(
                sorted(
                    (_piece_from_json(blob) for blob in pieces_json),
                    key=lambda p: (p.constant, p.coeffs),
                )
            )
            pvf = PiecewiseValueFunction(nest=form.to_nest(), pieces=pieces, pruned=True)
        except Exception:
            # A poisoned entry must degrade to a fresh solve, never an
            # unstructured failure; invalidation stats live in the store.
            _log.warning("discarding malformed shared-store entry %r", key)
            return False
        with self._lock:
            self._structures[key] = _StructurePlan(form=form, pvf=pvf)
            self._structures.move_to_end(key)
            self._evict()
            self.stats.shared_hits += 1
        return True

    def _evict(self) -> None:
        while len(self._structures) > self.capacity:
            self._structures.popitem(last=False)
            self.stats.evictions += 1

    def _structure(self, canon: Canonicalization) -> tuple[_StructurePlan, bool]:
        """The structure for ``canon``, coalescing concurrent misses.

        Exactly one thread per canonical key runs the multiparametric
        solve; concurrent callers for the same key wait on the leader's
        event (respecting their own deadlines) and then re-read the
        cache.  If the leader fails, its event is still set and one
        waiter takes over as the new leader.
        """
        key = canon.form.key()
        waited = False
        while True:
            with _span("plan-cache-probe"), self._lock:
                cached = self._structures.get(key)
                if cached is not None:
                    self._structures.move_to_end(key)
                    self.stats.structure_hits += 1
                    return cached, True
                event = self._solving.get(key)
                if event is None:
                    self._solving[key] = event = threading.Event()
                    break  # this thread leads the solve
                if not waited:
                    waited = True
                    self.stats.coalesced += 1
            while not event.wait(0.02):
                _deadline.checkpoint("structure-coalesce")
        try:
            if self._adopt_shared(key):
                with self._lock:
                    plan = self._structures.get(key)
                if plan is not None:
                    return plan, True
            # Solve outside the lock: multiparametric solves are the slow part.
            pvf = parametric_tile_exponent(canon.form.to_nest())
            plan = _StructurePlan(form=canon.form, pvf=pvf)
            with self._lock:
                self.stats.structure_solves += 1
                self._structures[key] = plan
                self._structures.move_to_end(key)
                self._evict()
            if self.shared_store is not None:
                self.shared_store.put(key, [_piece_to_json(p) for p in pvf.pieces])
            return plan, False
        finally:
            with self._lock:
                self._solving.pop(key, None)
            event.set()

    # -- exact piecewise evaluation -----------------------------------------

    def _evaluate(
        self, structure: _StructurePlan, betas: Sequence[Fraction]
    ) -> tuple[Fraction, int]:
        """Exact ``(f(beta), argmin piece index)`` with a float shortlist."""
        floats = [float(b) for b in betas]
        best_float = None
        values = []
        for const, coeffs in structure.float_pieces:
            value = const + sum(c * b for c, b in zip(coeffs, floats))
            values.append(value)
            if best_float is None or value < best_float:
                best_float = value
        threshold = best_float + _FLOAT_MARGIN * (1.0 + abs(best_float))
        best_exact: Fraction | None = None
        best_idx = 0
        for idx, value in enumerate(values):
            if value <= threshold:
                piece = structure.pvf.pieces[idx]
                exact = piece.constant
                for coeff, beta in zip(piece.coeffs, betas):
                    if coeff == 1:
                        exact += beta
                    elif coeff:
                        exact += coeff * beta
                if best_exact is None or exact < best_exact:
                    best_exact, best_idx = exact, idx
        assert best_exact is not None
        return best_exact, best_idx

    def _lp_solve(
        self, structure: _StructurePlan, betas: Sequence[Fraction]
    ) -> tuple[Fraction, tuple[Fraction, ...]]:
        """Authoritative exact LP solve on the canonical structure."""
        with self._lock:
            self.stats.primal_lp_solves += 1
        nest = structure.nest
        lp = build_tiling_lp(nest, cache_words=2, betas=list(betas))
        report = lp.solve(backend="exact")
        if not report.is_optimal:  # pragma: no cover - LP always feasible/bounded
            raise RuntimeError(f"tiling LP unexpectedly {report.status}")
        lambdas = tuple(report.values[lvar(i, nest)] for i in range(nest.depth))
        return report.objective, lambdas

    def _verified(
        self,
        structure: _StructurePlan,
        betas: Sequence[Fraction],
        lambdas: Sequence[Fraction],
        value: Fraction,
    ) -> bool:
        """Exact optimality certificate: feasible + objective == dual value."""
        total = _ZERO
        for lam, beta in zip(lambdas, betas):
            if lam < 0 or lam > beta:
                return False
            total += lam
        if total != value:
            return False
        for row in structure.form.rows:
            if row and sum((lambdas[i] for i in row), start=_ZERO) > 1:
                return False
        return True

    def _value_at(self, structure: _StructurePlan, betas: Sequence[Fraction]) -> Fraction:
        """Exact ``f(beta)`` only — honouring the ``_BETA_CAP`` guard."""
        if any(b > _BETA_CAP for b in betas):
            value, _ = self._lp_solve(structure, betas)
            return value
        value, _ = self._evaluate(structure, betas)
        return value

    def _solve_canonical(
        self, structure: _StructurePlan, betas: Sequence[Fraction]
    ) -> tuple[Fraction, tuple[Fraction, ...]]:
        """Exact optimum + vertex at ``betas``, via cache or LP fallback."""
        if any(b > _BETA_CAP for b in betas):
            # Outside the certified domain of the pruned piece set.
            return self._lp_solve(structure, betas)
        value, piece_idx = self._evaluate(structure, betas)
        return self._primal_for_piece(structure, betas, value, piece_idx)

    def _primal_for_piece(
        self,
        structure: _StructurePlan,
        betas: Sequence[Fraction],
        value: Fraction,
        piece_idx: int,
    ) -> tuple[Fraction, tuple[Fraction, ...]]:
        """Guarded primal recovery for a known minimizing piece."""
        maps = structure.primal_maps.get(piece_idx, ())
        for pos, cached_map in enumerate(maps):
            lambdas = cached_map.apply(betas)
            if self._verified(structure, betas, lambdas, value):
                with self._lock:
                    if pos:
                        maps.insert(0, maps.pop(pos))
                    self.stats.primal_map_hits += 1
                return value, lambdas
        value_lp, lambdas = self._lp_solve(structure, betas)
        candidate = _derive_primal_map(structure.form.rows, structure.form.depth, lambdas, betas)
        if candidate is not None and self._verified(
            structure, betas, candidate.apply(betas), value_lp
        ):
            with self._lock:
                maps = structure.primal_maps.setdefault(piece_idx, [])
                if candidate not in maps:
                    maps.insert(0, candidate)
                    del maps[_MAPS_PER_PIECE:]
        return value_lp, lambdas

    # -- the service entry points -------------------------------------------

    def plan(
        self,
        nest: LoopNest,
        cache_words: int,
        budget: str = "per-array",
        include_bound: bool = True,
    ) -> TilePlan:
        """Optimal tile + exponent (+ lower bound) for one query.

        Mirrors :func:`solve_tiling`'s budget semantics; the lower bound
        is always the paper-model (per-array) bound at the full cache
        size, matching :func:`repro.analyze`.
        """
        if cache_words < 2:
            raise ValueError("planning needs cache_words >= 2")
        if budget not in BUDGETS:
            raise ValueError(f"unknown budget {budget!r}; expected one of {BUDGETS}")
        if budget == "aggregate" and cache_words < nest.num_arrays:
            raise ValueError(
                f"aggregate budget needs cache_words >= {nest.num_arrays} "
                f"(one word per array), got {cache_words}"
            )
        with self._lock:
            self.stats.queries += 1
        canon = self.canonicalization(nest)
        structure, hit = self._structure(canon)
        depth = nest.depth
        effective_m = (
            cache_words if budget == "per-array" else max(1, cache_words // nest.num_arrays)
        )
        full_betas: list[Fraction] | None = None
        if effective_m < 2:
            # Degenerate effective cache: unit tile (see solve_tiling).
            exponent = _ZERO
            lambdas = tuple(_ZERO for _ in range(depth))
            fractional = tuple(1.0 for _ in range(depth))
            tile = TileShape(nest=nest, blocks=tuple(1 for _ in range(depth)))
        else:
            betas = self._betas(nest.bounds, effective_m)
            if effective_m == cache_words:
                full_betas = betas
            canon_betas = canon.to_canonical(tuple(betas))
            exponent, canon_lambdas = self._solve_canonical(structure, canon_betas)
            lambdas = canon.from_canonical(canon_lambdas)
            fractional = tuple(pow_fraction(effective_m, lam) for lam in lambdas)
            tile = integer_repair(nest, fractional, cache_words, budget)
        lower_bound = None
        if include_bound:
            if full_betas is not None:
                k_hat = exponent
            else:
                betas = self._betas(nest.bounds, cache_words)
                k_hat = self._value_at(structure, canon.to_canonical(tuple(betas)))
            lower_bound = lower_bound_from_k_hat(nest, cache_words, k_hat)
        return TilePlan(
            nest=nest,
            cache_words=cache_words,
            budget=budget,
            canonical_key=canon.form.key(),
            exponent=exponent,
            lambdas=lambdas,
            fractional_blocks=fractional,
            tile=tile,
            lower_bound=lower_bound,
            cache_hit=hit,
        )

    def exponent(self, nest: LoopNest, cache_words: int) -> Fraction:
        """The exact per-array exponent ``k_hat`` at ``cache_words`` alone.

        One piece evaluation of ``f(beta)`` on the cached structure:
        no primal recovery, no integer repair, no LP on a warm
        structure.  Equal to :func:`repro.core.bounds.tile_exponent`.
        """
        if cache_words < 2:
            raise ValueError("planning needs cache_words >= 2")
        with self._lock:
            self.stats.queries += 1
        canon = self.canonicalization(nest)
        structure, _ = self._structure(canon)
        betas = self._betas(nest.bounds, cache_words)
        return self._value_at(structure, canon.to_canonical(tuple(betas)))

    def plan_hierarchy(
        self,
        nest: LoopNest,
        hierarchy: "MemoryHierarchy | Sequence[int]",
        budget: str = "per-array",
        include_bound: bool = True,
    ) -> HierarchyPlan:
        """Nested plans for a whole memory hierarchy, one cache walk.

        Every level shares the nest's canonical structure, so the stack
        costs one multiparametric solve *ever* (the first level of the
        first query on a cold structure) and one cached piece evaluation
        per level afterwards — structurally identical nests at different
        capacity stacks are warm hits.  Tiles are repaired jointly by
        :func:`~repro.core.integer.nested_integer_repair`, so level-l
        blocks never exceed level-(l+1) blocks; everything else about
        each level (exponent, lambdas, lower bound) is exactly the
        single-level :meth:`plan` answer at that capacity.
        """
        if not isinstance(hierarchy, MemoryHierarchy):
            hierarchy = MemoryHierarchy(capacities=tuple(int(c) for c in hierarchy))
        capacities = hierarchy.capacities
        if budget == "aggregate" and capacities[0] < nest.num_arrays:
            raise ValueError(
                f"aggregate budget needs the innermost level >= {nest.num_arrays} "
                f"words (one per array), got {capacities[0]}"
            )
        plans = [
            self.plan(nest, capacity, budget, include_bound=include_bound)
            for capacity in capacities
        ]
        tiles = nested_integer_repair(
            nest, [plan.fractional_blocks for plan in plans], capacities, budget
        )
        levels = tuple(replace(plan, tile=tile) for plan, tile in zip(plans, tiles))
        return HierarchyPlan(
            nest=nest,
            capacities=capacities,
            budget=budget,
            canonical_key=plans[0].canonical_key,
            levels=levels,
            cache_hit=plans[0].cache_hit,
        )

    def certificate(self, nest: LoopNest, cache_words: int) -> Theorem3Certificate:
        """Cache-served Theorem-3 certificate — no LP solve on a warm hit.

        Every cached piece *is* a vertex ``(zeta, s)`` of the
        beta-independent dual polyhedron (see :mod:`repro.core.mplp`), so
        the minimizing piece at ``beta`` doubles as the optimal dual
        multipliers there; the primal vertex comes from the same
        guarded primal-map machinery :meth:`plan` uses.  The result is
        exactly what :func:`repro.core.duality.theorem3_certificate`
        would compute — strong duality holds by construction — at cache
        cost instead of two exact simplex runs.
        """
        if cache_words < 2:
            raise ValueError("certificates need cache_words >= 2")
        betas = tuple(self._betas(nest.bounds, cache_words))
        if any(b > _BETA_CAP for b in betas):
            # Outside the certified domain of the pruned piece set.
            return theorem3_certificate(nest, cache_words, betas=betas)
        canon = self.canonicalization(nest)
        structure, _ = self._structure(canon)
        canon_betas = canon.to_canonical(betas)
        value, piece_idx = self._evaluate(structure, canon_betas)
        value, canon_lambdas = self._primal_for_piece(structure, canon_betas, value, piece_idx)
        piece = structure.pvf.pieces[piece_idx]
        lambdas = canon.from_canonical(canon_lambdas)
        zeta = canon.from_canonical(piece.source_zeta)
        s = [_ZERO] * nest.num_arrays
        for row, orig in enumerate(canon.array_order):
            s[orig] = piece.source_s[row]
        s = tuple(s)
        return Theorem3Certificate(
            nest=nest,
            cache_words=cache_words,
            betas=betas,
            primal_value=value,
            dual_value=value,
            lambdas=lambdas,
            dual=DualSolution(zeta=zeta, s=s, objective=value),
            complementary_slackness=_complementary_slackness(nest, betas, lambdas, zeta, s),
        )
