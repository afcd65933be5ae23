"""repro — communication-optimal tilings for projective nested loops.

A full reproduction of Dinh & Demmel, *Communication-Optimal Tilings
for Projective Nested Loops with Arbitrary Bounds* (SPAA 2020,
arXiv:2003.00119): the HBL lower-bound machinery (§3), the
arbitrary-bound Theorem-2 bounds (§4), the matching tiling construction
and Theorem-3 tightness certificates (§5), the worked examples (§6) as
a problem catalog, the multiparametric piecewise-linear value function
(§7), a cache/traffic simulation substrate validating the bounds, a
numpy execution backend, and the multiprocessor extension (§7) —
behind the unified service façade of :mod:`repro.api`.

Quickstart
----------
>>> import repro
>>> session = repro.api.Session()
>>> nest = repro.parse_nest("C[i,k] += A[i,j] * B[j,k]",
...                         bounds={"i": 1024, "j": 1024, "k": 16})
>>> result = session.analyze(nest, cache_words=2**16)
>>> result.kind, result.schema_version
('analyze', 1)
>>> result.fraction("k_hat")
Fraction(5, 4)
>>> session.analyze(nest, cache_words=2**14).cache_hit   # same structure: warm
True
>>> repro.api.Result.from_json(result.to_json()) == result   # lossless envelope
True

The flat helpers remain for one-off use — ``repro.analyze`` routes
through a process-wide default :class:`repro.api.Session`, so repeated
analyses of structurally identical nests hit the plan cache.
"""

from dataclasses import dataclass

from .core import (
    AffinePiece,
    ArrayRef,
    CommunicationLowerBound,
    HBLSolution,
    HierarchicalTiling,
    LinearProgram,
    LoopNest,
    LoopNestError,
    MemoryHierarchy,
    OptimalTileFamily,
    ParseError,
    PiecewiseValueFunction,
    Theorem3Certificate,
    TileShape,
    TilingSolution,
    best_integer_tile,
    best_rectangle,
    best_subset,
    canonical_key,
    canonicalize,
    communication_lower_bound,
    optimal_tile_family,
    parametric_tile_exponent,
    parse_nest,
    solve_hbl,
    solve_hierarchical_tiling,
    solve_tiling,
    subset_exponent,
    subset_scan,
    theorem3_certificate,
    tile_exponent,
    verify_analysis,
)
from .library import catalog
from .machine import MachineModel, MissCurve, TrafficReport, miss_curve
from .parallel import distributed_lower_bound, optimal_grid, simulate_grid
from .plan import Planner, TilePlan
from .simulate import (
    best_order_traffic,
    generate_trace_batched,
    nest_miss_curve,
    run_trace_simulation,
    simulate_tiled_traffic,
    simulate_untiled_traffic,
)

__version__ = "1.2.0"


@dataclass(frozen=True)
class Analysis:
    """One-call bundle: bound + tiling + tightness certificate."""

    nest: LoopNest
    cache_words: int
    lower_bound: CommunicationLowerBound
    tiling: TilingSolution
    certificate: Theorem3Certificate

    def summary(self) -> str:
        lines = [
            self.nest.describe(),
            self.lower_bound.summary(),
            self.tiling.summary(),
            self.certificate.summary(),
        ]
        return "\n".join(lines)


# The façade imports Analysis, so it must load after the definition.
from . import api  # noqa: E402
from . import tune  # noqa: E402
from .api import (  # noqa: E402
    AnalyzeRequest,
    DistributedRequest,
    Result,
    Session,
    SimulateRequest,
    SweepRequest,
    TuneRequest,
    default_session,
)
from .tune import TuneReport, tune_tile  # noqa: E402


def analyze(nest: LoopNest, cache_words: int, budget: str = "per-array") -> Analysis:
    """Run the full §4/§5 pipeline on a nest: bound, tiling, certificate.

    Routed through the process-wide default :class:`repro.api.Session`:
    the first analysis of a projection pattern pays one multiparametric
    solve, every later analysis of the same structure — any bounds, any
    cache size — is answered from the plan cache, exactly.
    """
    return default_session().analysis(nest, cache_words, budget=budget)


__all__ = [
    "__version__",
    "api",
    "Session",
    "Result",
    "AnalyzeRequest",
    "SimulateRequest",
    "SweepRequest",
    "TuneRequest",
    "DistributedRequest",
    "default_session",
    "tune",
    "TuneReport",
    "tune_tile",
    "Analysis",
    "analyze",
    "LoopNest",
    "ArrayRef",
    "LoopNestError",
    "ParseError",
    "parse_nest",
    "LinearProgram",
    "HBLSolution",
    "solve_hbl",
    "CommunicationLowerBound",
    "communication_lower_bound",
    "subset_exponent",
    "subset_scan",
    "tile_exponent",
    "TileShape",
    "TilingSolution",
    "solve_tiling",
    "Theorem3Certificate",
    "theorem3_certificate",
    "OptimalTileFamily",
    "optimal_tile_family",
    "AffinePiece",
    "PiecewiseValueFunction",
    "parametric_tile_exponent",
    "best_rectangle",
    "best_subset",
    "MemoryHierarchy",
    "HierarchicalTiling",
    "solve_hierarchical_tiling",
    "best_integer_tile",
    "verify_analysis",
    "catalog",
    "MachineModel",
    "TrafficReport",
    "MissCurve",
    "miss_curve",
    "nest_miss_curve",
    "generate_trace_batched",
    "simulate_tiled_traffic",
    "simulate_untiled_traffic",
    "best_order_traffic",
    "run_trace_simulation",
    "optimal_grid",
    "simulate_grid",
    "distributed_lower_bound",
    "canonicalize",
    "canonical_key",
    "Planner",
    "TilePlan",
]
