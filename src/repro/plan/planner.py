"""The plan cache: canonical structure -> warm dual-simplex bases, exactly.

Design
------
``solve_tiling`` spends essentially all of its time in the exact
rational simplex.  But the LP's *structure* (LP 5.1) depends only on
the nest's projection pattern; the bounds and cache size enter through
``beta_i = log_M L_i``.  :mod:`repro.core.lexdual` solves LP (5.1) with
a bounded-variable dual simplex whose tableau never involves ``beta``,
so any basis it ever reached on a structure is a valid start for any
later ``beta`` on it.  The planner keeps, per canonical structure, a
short most-recently-used list of final bases and nothing else.

A query tries each cached basis: one that is primal feasible at
``beta`` answers with no pivot and moves to the front; otherwise the
routine pivots from the front basis, or from the slack basis on a cold
structure.  The served vertex follows one rule — the lexicographically
smallest optimal ``lambda`` in canonical loop order — and every basis
is lex-dual feasible with a unique lexicographic optimum, so the cache
changes speed only, never the answer.  The exponent ``f(beta)`` is
``sum(lambda)``.

Every answer is certified, not trusted: the final basis's reduced costs
give a dual ``(zeta, s)``, and :meth:`repro.core.lexdual.Vertex.certified`
checks, in integers, that the vertex and that dual are feasible against
the canonical rows with equal objectives.  A cached basis that fails is
dropped and the query re-solves from the slack basis.

A certificate's dual must not depend on what the planner saw before: a
primal-degenerate vertex has several optimal bases, hence several
duals.  :meth:`Planner.certificate` therefore serves the dual of the
final basis of a run started at the slack basis, which depends on
``beta`` alone.  The piecewise closed form of paper §7
(:func:`~repro.core.mplp.parametric_tile_exponent`) is not on this path;
the CLI's ``--piecewise`` mode and the library still compute it.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from ..core import lexdual
from ..core.bounds import CommunicationLowerBound, lower_bound_from_k_hat
from ..core.canonical import Canonicalization, canonicalize
from ..core.duality import DualSolution, Theorem3Certificate, _complementary_slackness
from ..core.hierarchy import MemoryHierarchy
from ..core.integer import nested_integer_repair
from ..core.loopnest import LoopNest
from ..core.mplp import parametric_tile_exponent  # noqa: F401  (perfbench patches it here)
from ..core.tiling import (
    BUDGETS,
    MAX_CACHE_WORDS,
    TileShape,
    TilingSolution,
    integer_repair,
)
from ..obs.trace import span as _span
from ..util import deadline as _deadline
from ..util.rationals import log_ratio, pow_fraction

__all__ = ["TilePlan", "HierarchyPlan", "Planner", "PlannerStats"]

_ZERO = Fraction(0)

#: Final dual-simplex bases remembered per structure, most recently
#: served first (different ``beta`` regions meet different optimal
#: bases; a short list absorbs the churn).
_BASES_PER_STRUCTURE = 8

_log = logging.getLogger(__name__)

#: (certified vertex, its exponent ``sum(lambda)``) at one ``beta``.
_Answer = tuple[lexdual.Vertex, Fraction]


@dataclass(frozen=True)
class TilePlan:
    """A served plan: optimal tile + exponent + lower bound + provenance.

    ``exponent``/``lambdas`` match :class:`~repro.core.tiling.TilingSolution`
    semantics exactly (w.r.t. the effective cache when
    ``budget="aggregate"``).  When LP (5.1) has several optimal
    vertices, ``lambdas`` is the lexicographically smallest optimum in
    canonical loop order (:mod:`repro.core.lexdual`), whatever queries
    the planner answered before; the simplex behind
    :func:`~repro.core.tiling.solve_tiling` may pick another vertex of
    the same exponent.
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
    """Counters exposed for benchmarks and cache-effectiveness tests.

    Every query probes the structure cache once: ``queries ==
    structure_hits + structure_solves``, where a solve is the slack-start
    dual simplex run on a structure not in the cache.
    """

    queries: int = 0
    structure_hits: int = 0
    structure_solves: int = 0
    #: Answers from a cached basis already primal feasible at ``beta``.
    primal_map_hits: int = 0
    #: Dual simplex runs (each pivots from a cached or the slack basis).
    primal_lp_solves: int = 0
    evictions: int = 0
    #: Callers that waited on another thread's in-flight solve of the same key.
    coalesced: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Planner:
    """LRU-cached exact tiling-plan service.

    Parameters
    ----------
    capacity:
        Maximum number of canonical structures kept in memory (least
        recently used evicted first).
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = PlannerStats()
        #: canonical key -> final bases, most recently served first.
        self._structures: OrderedDict[str, list[lexdual.Basis]] = OrderedDict()
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

    def _point(self, canon: Canonicalization, bounds: Sequence[int], base: int) -> lexdual.Point:
        """Canonical ``beta`` at cache size ``base``."""
        memo = self._log_memo
        betas = []
        for bound in bounds:
            key = (bound, base)
            value = memo.get(key)
            if value is None:
                value = log_ratio(bound, base)
                if len(memo) < 1 << 16:
                    memo[key] = value
            betas.append(value)
        return lexdual.point(canon.to_canonical(tuple(betas)))

    # -- structure cache ----------------------------------------------------

    def cached_keys(self) -> list[str]:
        with self._lock:
            return list(self._structures)

    def cache_sizes(self) -> dict[str, int]:
        """Entries held by each in-memory cache (for the metrics gauges)."""
        with self._lock:
            return {
                "structures": len(self._structures),
                "bases": sum(len(bases) for bases in self._structures.values()),
                "canon_memo": len(self._canon_memo),
                "log_memo": len(self._log_memo),
            }

    def _evict(self) -> None:
        while len(self._structures) > self.capacity:
            self._structures.popitem(last=False)
            self.stats.evictions += 1

    def _solve(
        self, canon: Canonicalization, start: lexdual.Basis | None, at: lexdual.Point
    ) -> _Answer:
        """Pivot from ``start`` (None: the slack basis) and certify the vertex.

        A failed certificate from a cached start re-solves from the
        slack basis; one from the slack basis is a bug and raises.
        """
        with self._lock:
            self.stats.primal_lp_solves += 1
        form = canon.form
        vertex = lexdual.lex_min_vertex(start or lexdual.slack_basis(form.depth, form.rows), at)
        value = vertex.certified(form.rows)
        if value is not None:
            return vertex, value
        if start is None:
            raise RuntimeError(f"LP (5.1) certificate failed on {form.key()} from the slack basis")
        _log.warning("certificate failed on %s; re-solving from the slack basis", form.key())
        return self._solve(canon, None, at)

    def _vertex(
        self,
        canon: Canonicalization,
        bases: list[lexdual.Basis],
        at: lexdual.Point,
        slack_dual: bool = False,
    ) -> _Answer:
        """The certified lex-min vertex at ``at`` from a structure's bases.

        ``slack_dual`` skips the cached bases and pivots from the slack
        basis, whose final basis's dual depends on ``beta`` alone.
        """
        if not slack_dual:
            rows = canon.form.rows
            for basis in tuple(bases):
                vertex = lexdual.vertex_at(basis, at)
                if vertex is None:
                    continue
                value = vertex.certified(rows)
                with self._lock:
                    if value is None:
                        _log.warning("dropping a cached basis that failed its certificate")
                        _drop(bases, basis)
                        continue
                    _to_front(bases, basis)
                    self.stats.primal_map_hits += 1
                return vertex, value
        start = None if slack_dual or not bases else bases[0]
        vertex, value = self._solve(canon, start, at)
        with self._lock:
            _to_front(bases, vertex.basis)
        return vertex, value

    def _lookup(
        self,
        nest: LoopNest,
        cache_words: int,
        slack_dual: bool = False,
        answer_words: int | None = None,
    ) -> tuple[Canonicalization, list[lexdual.Basis], bool, _Answer]:
        """One query: ``(canon, bases, cache hit, answer at answer_words)``.

        ``answer_words`` (default ``cache_words``) is the cache size the
        caller serves, which an aggregate budget makes smaller.  Counts the query and probes the structure cache once.  Exactly
        one thread per cold canonical key runs the slack-start solve and
        installs the structure; concurrent callers for the same key wait
        on the leader's event (respecting their own deadlines) and then
        answer from the cache.  If the leader fails, its event is still
        set and one waiter takes over as the new leader.
        """
        if cache_words < 2:
            raise ValueError("planning needs cache_words >= 2")
        if cache_words > MAX_CACHE_WORDS:
            raise ValueError(
                f"cache_words is about 2**{cache_words.bit_length() - 1}, "
                "more than a float can hold (~1.8e308)"
            )
        with self._lock:
            self.stats.queries += 1
        canon = self.canonicalization(nest)
        at = self._point(canon, nest.bounds, answer_words or cache_words)
        key = canon.form.key()
        waited = False
        while True:
            with _span("plan-cache-probe"), self._lock:
                bases = self._structures.get(key)
                if bases is not None:
                    self._structures.move_to_end(key)
                    self.stats.structure_hits += 1
                    break
                event = self._solving.get(key)
                if event is None:
                    self._solving[key] = event = threading.Event()
                    break  # this thread leads the solve
                if not waited:
                    waited = True
                    self.stats.coalesced += 1
            while not event.wait(0.02):
                _deadline.checkpoint("structure-coalesce")
        if bases is not None:
            return canon, bases, True, self._vertex(canon, bases, at, slack_dual)
        try:
            answer = self._solve(canon, None, at)
            bases = [answer[0].basis]
            with self._lock:
                self.stats.structure_solves += 1
                self._structures[key] = bases
                self._evict()
            return canon, bases, False, answer
        finally:
            with self._lock:
                self._solving.pop(key, None)
            event.set()

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
        if budget not in BUDGETS:
            raise ValueError(f"unknown budget {budget!r}; expected one of {BUDGETS}")
        if budget == "aggregate" and cache_words < nest.num_arrays:
            raise ValueError(
                f"aggregate budget needs cache_words >= {nest.num_arrays} "
                f"(one word per array), got {cache_words}"
            )
        effective_m = cache_words
        if budget == "aggregate":
            effective_m = cache_words // nest.num_arrays
        # The first answer is at the served size, unless the bound needs
        # the full one (or the effective cache is degenerate).
        first = effective_m if effective_m >= 2 and not include_bound else cache_words
        canon, bases, hit, answer = self._lookup(nest, cache_words, answer_words=first)
        lower_bound = None
        if include_bound:  # then ``answer`` is at the full size
            lower_bound = lower_bound_from_k_hat(nest, cache_words, answer[1])
        if effective_m != first:
            answer = None
            if effective_m >= 2:
                answer = self._vertex(canon, bases, self._point(canon, nest.bounds, effective_m))
        depth = nest.depth
        if answer is None:
            # Degenerate effective cache: unit tile (see solve_tiling).
            exponent = _ZERO
            lambdas = tuple(_ZERO for _ in range(depth))
            fractional = tuple(1.0 for _ in range(depth))
            tile = TileShape(nest=nest, blocks=tuple(1 for _ in range(depth)))
        else:
            vertex, exponent = answer
            lambdas = canon.from_canonical(vertex.lambdas())
            fractional = tuple(pow_fraction(effective_m, lam) for lam in lambdas)
            tile = integer_repair(nest, fractional, cache_words, budget)
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

        ``sum(lambda)`` of the certified vertex, with no integer repair
        or bound.  Equal to :func:`repro.core.bounds.tile_exponent`.
        """
        return self._lookup(nest, cache_words)[3][1]

    def plan_hierarchy(
        self,
        nest: LoopNest,
        hierarchy: "MemoryHierarchy | Sequence[int]",
        budget: str = "per-array",
        include_bound: bool = True,
    ) -> HierarchyPlan:
        """Nested plans for a whole memory hierarchy, one cache walk.

        Every level shares the nest's canonical structure, so the stack
        probes one structure and each level answers from its cached
        bases.  Tiles are repaired jointly by
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
        """Theorem-3 certificate read off one dual simplex run — no mpLP solve.

        The primal vertex is the certified lex-min vertex :meth:`plan`
        serves; the dual ``(zeta, s)`` is the one the reduced costs of the
        final basis of a run started at the slack basis give, so it
        depends on ``beta`` alone, never on the queries answered before.
        The exponent is what :func:`repro.core.duality.theorem3_certificate`
        certifies, with strong duality checked in integers.
        """
        canon, _, _, (vertex, value) = self._lookup(nest, cache_words, slack_dual=True)
        rows = canon.form.rows
        canon_zeta, canon_s = vertex.dual(rows)
        betas = canon.from_canonical(vertex.at.betas)
        lambdas = canon.from_canonical(vertex.lambdas())
        zeta = canon.from_canonical(canon_zeta)
        s = [_ZERO] * nest.num_arrays
        for row, orig in enumerate(canon.array_order):
            s[orig] = canon_s[row]
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


def _to_front(bases: list[lexdual.Basis], basis: lexdual.Basis) -> None:
    """Move ``basis`` to the front of ``bases``, adding it if absent.

    Found by identity first (a cached basis that answered); a new basis
    equal to a cached one (a slack-start run, or two threads pivoting
    on the same region) moves that one instead of taking a second slot.
    """
    for k, cached in enumerate(bases):
        if cached is basis:
            break
    else:
        try:
            k = bases.index(basis)
        except ValueError:
            bases.insert(0, basis)
            del bases[_BASES_PER_STRUCTURE:]
            return
    if k:
        bases.insert(0, bases.pop(k))


def _drop(bases: list[lexdual.Basis], basis: lexdual.Basis) -> None:
    for k, cached in enumerate(bases):
        if cached is basis:
            del bases[k]
            return
