"""Program planning: every band through one shared :class:`Planner`.

:func:`plan_program` is the frontend's executable semantics — the thing
``Session.program`` / ``/v1/program`` / ``repro-tile program`` serve:

1. split the program into maximal perfect projective bands
   (:func:`repro.frontend.bands.split_bands`);
2. plan each band through the *same* planner, so structurally identical
   bands (a pipeline of matmul-shaped updates, the levels of a V-cycle)
   cost one structure solve ever — the rest are warm
   canonical-structure hits;
3. optionally certify each band (Theorem 3) and autotune its integer
   tile with the trace simulator in the loop;
4. aggregate: the program's communication lower bound is the sum of its
   bands' bounds (each band's traffic is separately unavoidable —
   statements in different bands share no perfect nest).

Steps 2–3 are :func:`plan_bands`.  ``Session.program`` runs it on the
bands a :class:`~repro.api.ProgramRequest` split when it validated, so
a served program is split once.

The report payload is a pure function of the request: per-band
``cache_hit`` is popped into envelope meta (like every other kind), and
the payload's ``structure_sharing`` block is *deterministic* — derived
from canonical-key collisions **within** this program, not from live
planner counters — so the same request yields byte-identical payloads
across surfaces, processes and cache temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.trace import span as _span
from ..plan.planner import Planner, TilePlan
from ..tune.result import TuneReport
from ..tune.tuner import tune_tile
from .bands import Band, split_bands
from .program import Program

__all__ = ["BandPlan", "ProgramReport", "plan_bands", "plan_program"]


@dataclass(frozen=True)
class BandPlan:
    """One band's served answer: plan (+ optional certificate / tuning)."""

    band: Band
    plan: TilePlan
    #: Theorem-3 certificate payload (None unless requested).
    certificate: dict | None
    #: Autotuning report (None unless a tune budget was given).
    tuned: TuneReport | None
    #: Earliest band index with the same canonical structure, or None.
    shared_with: int | None

    def to_json(self) -> dict:
        plan_json = self.plan.to_json()
        plan_json.pop("cache_hit", None)
        tuned_json = None
        if self.tuned is not None:
            tuned_json = self.tuned.to_json()
            # The tune report's embedded plan repeats the band nest the
            # "plan" block already carries; keep only the tuned tile.
            tuned_json.pop("plan", None)
            tuned_json["tile"] = list(self.tuned.tuned_blocks)
        return {
            "band": self.band.index,
            "name": self.band.nest.name,
            "statements": list(self.band.statement_indices),
            "halo": {name: list(extents) for name, extents in self.band.halo},
            "renames": {alias: source for alias, source in self.band.renames},
            "plan": plan_json,
            "certificate": self.certificate,
            "tuned": tuned_json,
            "structure_shared_with_band": self.shared_with,
        }


@dataclass(frozen=True)
class ProgramReport:
    """A whole program served: per-band plans + program-level aggregates."""

    program: Program
    cache_words: int
    budget: str
    tune_budget: int
    bands: tuple[BandPlan, ...]

    @property
    def cache_hit(self) -> bool:
        """True iff *every* band was a warm canonical-structure hit."""
        return all(bp.plan.cache_hit for bp in self.bands)

    @property
    def aggregate_lower_bound_words(self) -> float:
        """Sum of per-band Theorem bounds — a valid program lower bound."""
        return sum(
            bp.plan.lower_bound.value
            for bp in self.bands
            if bp.plan.lower_bound is not None
        )

    def structure_sharing(self) -> dict:
        """Deterministic intra-program structure reuse (payload-safe)."""
        keys = [bp.plan.canonical_key for bp in self.bands]
        return {
            "unique_structures": len(set(keys)),
            "cross_band_structure_hits": len(keys) - len(set(keys)),
        }

    def summary(self) -> str:
        sharing = self.structure_sharing()
        return (
            f"{self.program.name}: {len(self.program.statements)} statements -> "
            f"{len(self.bands)} bands, M={self.cache_words}, "
            f"aggregate bound {self.aggregate_lower_bound_words:.1f} words, "
            f"{sharing['cross_band_structure_hits']} intra-program structure hits"
        )

    def to_json(self) -> dict:
        return {
            "program": self.program.to_json(),
            "cache_words": self.cache_words,
            "budget": self.budget,
            "tune_budget": self.tune_budget,
            "num_statements": len(self.program.statements),
            "num_bands": len(self.bands),
            "bands": [bp.to_json() for bp in self.bands],
            "aggregate_lower_bound_words": self.aggregate_lower_bound_words,
            "structure_sharing": self.structure_sharing(),
        }


def plan_program(
    program: Program,
    cache_words: int,
    *,
    budget: str = "per-array",
    certificate: bool = False,
    tune_budget: int = 0,
    strategy: str = "exhaustive",
    radius: int = 1,
    planner: Planner | None = None,
    workers: int | None = None,
    events: dict | None = None,
) -> ProgramReport:
    """Split, plan, and optionally certify/tune every band of ``program``.

    ``planner`` shares a session's plan cache and defaults to the
    process-wide :func:`repro.api.default_session`'s planner, so
    program bands warm (and are warmed by) every single-nest query that
    came before.  The bands go through :func:`plan_bands`.
    """
    if planner is None:
        from ..api.session import default_session

        planner = default_session().planner
    return ProgramReport(
        program=program,
        cache_words=cache_words,
        budget=budget,
        tune_budget=tune_budget,
        bands=plan_bands(
            split_bands(program),
            cache_words,
            budget=budget,
            certificate=certificate,
            tune_budget=tune_budget,
            strategy=strategy,
            radius=radius,
            planner=planner,
            workers=workers,
            events=events,
        ),
    )


def plan_bands(
    bands: tuple[Band, ...],
    cache_words: int,
    *,
    budget: str,
    certificate: bool,
    tune_budget: int,
    strategy: str,
    radius: int,
    planner: Planner,
    workers: int | None,
    events: dict | None,
) -> tuple[BandPlan, ...]:
    """Plan, and optionally certify/tune, each of a program's ``bands``.

    Every band goes through the one ``planner``.  ``tune_budget > 0``
    runs :func:`~repro.tune.tune_tile` per band
    (``strategy``/``radius``/``workers``/``events`` pass through); the
    analytic plan block is unchanged either way — tuning only adds the
    ``tuned`` sub-report.
    """
    first_with_key: dict[str, int] = {}
    band_plans: list[BandPlan] = []
    for band in bands:
        with _span("band-plan"):
            plan = planner.plan(band.nest, cache_words, budget, include_bound=True)
            cert_payload = None
            if certificate:
                from ..api.session import Session

                cert_payload = Session._certificate_payload(
                    planner.certificate(band.nest, cache_words)
                )
            tuned = None
            if tune_budget > 0:
                tuned = tune_tile(
                    band.nest,
                    cache_words,
                    budget=budget,
                    strategy=strategy,
                    max_evaluations=tune_budget,
                    radius=radius,
                    planner=planner,
                    workers=workers,
                    events=events,
                )
        shared_with = first_with_key.get(plan.canonical_key)
        if shared_with is None:
            first_with_key[plan.canonical_key] = band.index
        band_plans.append(
            BandPlan(
                band=band,
                plan=plan,
                certificate=cert_payload,
                tuned=tuned,
                shared_with=shared_with,
            )
        )
    return tuple(band_plans)
