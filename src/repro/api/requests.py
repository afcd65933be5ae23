"""Typed request schema of the façade (schema v1).

Seven request dataclasses cover the service surface:

* :class:`AnalyzeRequest` — bound + optimal tile (+ certificate) for
  one (nest, cache) query; the unit ``Session.batch`` fans over.
* :class:`SimulateRequest` — trace-driven cache simulation of a tiled
  (or untiled) execution.
* :class:`SweepRequest` — a cartesian grid of analyze queries
  (sizes x cache sizes), expanded server-side.
* :class:`TuneRequest` — simulation-in-the-loop integer tile
  autotuning with a lower-bound optimality certificate.
* :class:`HierarchyRequest` — nested tilings for a whole memory
  hierarchy, certified per boundary, with an optional tune budget.
* :class:`ProgramRequest` — a whole program (statement sequence or an
  einsum string) split into perfect projective bands and planned
  through one shared plan cache.
* :class:`DistributedRequest` — processor-grid traffic vs the
  memory-dependent distributed lower bound.

Each is frozen and validates itself on construction, raising
:class:`~repro.api.wire.RequestError` with a JSON-safe message: a
request object that exists is valid, and no later layer checks it
again.  Each round-trips losslessly through ``to_json``/``from_json``;
``from_json`` additionally accepts the nest shorthands of the batch CLI
(``problem``/``sizes``, ``statement``/``bounds``) so HTTP callers never
have to spell out supports by hand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

from ..core.loopnest import LoopNest
from ..core.tiling import BUDGETS, check_cache_words
from ..frontend.bands import Band, split_bands
from ..frontend.einsum import FrontendError, parse_einsum
from ..frontend.program import Program, parse_program
from ..library.problems import CATALOG_BUILDERS
from ..simulate.trace import MAX_TRACE_ACCESSES, trace_length
from ..tune.search import STRATEGIES
from .wire import RequestError, nest_from_json

__all__ = [
    "AnalyzeRequest",
    "SimulateRequest",
    "SweepRequest",
    "TuneRequest",
    "HierarchyRequest",
    "ProgramRequest",
    "DistributedRequest",
]

#: Distinct tiles one tune request may simulate (evaluation budget cap).
MAX_TUNE_EVALUATIONS = 4096

_POLICIES = ("lru", "belady", "direct")

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def _build_request(where: str, build):
    """Run a request constructor, mapping raw failures to RequestError."""
    try:
        return build()
    except KeyError as exc:
        raise RequestError(f"{where}: missing {exc.args[0]!r}") from exc
    except RequestError:
        raise
    except (TypeError, ValueError) as exc:
        raise RequestError(f"{where}: {exc}") from exc


def _check_size(name: str, value: int) -> None:
    """A cache or memory size: at least 2 words, at most ``MAX_CACHE_WORDS``."""
    _require(value >= 2, f"{name} must be >= 2, got {value}")
    try:
        check_cache_words(value, name)
    except ValueError as exc:
        raise RequestError(str(exc)) from None


def _check_budget(budget: str) -> None:
    _require(budget in BUDGETS, f"unknown budget {budget!r}; expected one of {BUDGETS}")


def _check_aggregate(budget: str, cache_words: int, nest: LoopNest, of: str = "") -> None:
    """The aggregate budget needs at least one word per array."""
    if budget == "aggregate":
        _require(
            cache_words >= nest.num_arrays,
            f"aggregate budget needs cache_words >= {nest.num_arrays} "
            f"(one word per array{of}), got {cache_words}",
        )


def _check_strategy(strategy: str) -> None:
    _require(
        strategy in STRATEGIES,
        f"unknown strategy {strategy!r}; expected one of {STRATEGIES}",
    )


def _check_trace(nest: LoopNest, verb: str, of: str = "") -> None:
    """Simulating ``nest`` walks its whole trace; refuse one past the guard."""
    accesses = trace_length(nest)
    _require(
        accesses <= MAX_TRACE_ACCESSES,
        f"trace of {accesses} accesses{of} exceeds the {MAX_TRACE_ACCESSES} guard; "
        f"{verb} a smaller instance",
    )


@dataclass(frozen=True)
class AnalyzeRequest:
    """One §4/§5 query: lower bound + certified optimal tile.

    ``certificate=True`` additionally attaches the Theorem-3
    primal/dual certificate (served from the plan cache — no extra LP
    solve on a warm structure).  Like the lower bound, the certificate
    always concerns the paper-model per-array LP at the full cache
    size, regardless of ``budget`` (its payload says so explicitly).
    """

    nest: LoopNest
    cache_words: int
    budget: str = "per-array"
    certificate: bool = False

    def __post_init__(self) -> None:
        _check_size("cache_words", self.cache_words)
        _check_budget(self.budget)
        _check_aggregate(self.budget, self.cache_words, self.nest)

    def to_json(self) -> dict:
        return {
            "nest": self.nest.to_json(),
            "cache_words": self.cache_words,
            "budget": self.budget,
            "certificate": self.certificate,
        }

    @classmethod
    def from_json(cls, blob: Mapping, where: str = "analyze request") -> "AnalyzeRequest":
        def build():
            return cls(
                nest=nest_from_json(blob, where),
                cache_words=int(blob["cache_words"]),
                budget=str(blob.get("budget", "per-array")),
                certificate=bool(blob.get("certificate", False)),
            )

        return _build_request(where, build)


@dataclass(frozen=True)
class SimulateRequest:
    """Word-accurate cache simulation of a (tiled) execution.

    ``tile=None`` plans the communication-optimal tile first (through
    the session's plan cache) and simulates that; an explicit block
    tuple simulates exactly those blocks.  ``line_words=None`` defers to
    the session's ``line_words`` default (1 = paper model).
    ``policy="lru"`` with the batched engine is the fast path;
    ``belady``/``direct`` keep their reference cores.
    """

    nest: LoopNest
    cache_words: int
    tile: tuple[int, ...] | None = None
    line_words: int | None = None
    policy: str = "lru"
    budget: str = "aggregate"

    def __post_init__(self) -> None:
        _check_size("cache_words", self.cache_words)
        _check_budget(self.budget)
        _require(
            self.policy in _POLICIES, f"unknown policy {self.policy!r}; expected {_POLICIES}"
        )
        if self.line_words is not None:
            _require(
                1 <= self.line_words <= self.cache_words,
                f"line_words must be in [1, cache_words], got {self.line_words}",
            )
        if self.tile is not None:
            _require(
                len(self.tile) == self.nest.depth,
                f"tile must have {self.nest.depth} blocks, got {len(self.tile)}",
            )
            for b, bound in zip(self.tile, self.nest.bounds):
                _require(1 <= b <= bound, f"tile blocks must satisfy 1 <= b <= L, got {self.tile}")
        _check_trace(self.nest, "simulate")

    def to_json(self) -> dict:
        return {
            "nest": self.nest.to_json(),
            "cache_words": self.cache_words,
            "tile": list(self.tile) if self.tile is not None else None,
            "line_words": self.line_words,
            "policy": self.policy,
            "budget": self.budget,
        }

    @classmethod
    def from_json(cls, blob: Mapping, where: str = "simulate request") -> "SimulateRequest":
        def build():
            tile = blob.get("tile")
            line_words = blob.get("line_words")
            return cls(
                nest=nest_from_json(blob, where),
                cache_words=int(blob["cache_words"]),
                tile=tuple(int(b) for b in tile) if tile is not None else None,
                line_words=int(line_words) if line_words is not None else None,
                policy=str(blob.get("policy", "lru")),
                budget=str(blob.get("budget", "aggregate")),
            )

        return _build_request(where, build)


@dataclass(frozen=True)
class SweepRequest:
    """A grid of analyze queries: catalog sizes (or statement bounds)
    crossed with cache sizes, row-major with cache size innermost —
    the service twin of ``repro-tile --sweep``.

    Exactly one of ``problem``/``statement`` must be given.  For a
    catalog ``problem``, ``size_axes`` lists candidate values per
    constructor argument; for a ``statement``, ``bound_axes`` maps loop
    names to candidate bounds.
    """

    cache_sizes: tuple[int, ...]
    problem: str | None = None
    size_axes: tuple[tuple[int, ...], ...] | None = None
    statement: str | None = None
    bound_axes: tuple[tuple[str, tuple[int, ...]], ...] | None = None
    budget: str = "per-array"
    certificate: bool = False

    def __post_init__(self) -> None:
        _check_budget(self.budget)
        _require(bool(self.cache_sizes), "sweep needs at least one cache size")
        for m in self.cache_sizes:
            _check_size("cache sizes", m)
        if (self.problem is None) == (self.statement is None):
            raise RequestError("sweep needs exactly one of 'problem' or 'statement'")
        if self.problem is not None:
            _require(
                self.problem in CATALOG_BUILDERS,
                f"unknown problem {self.problem!r}; "
                f"choices: {', '.join(sorted(CATALOG_BUILDERS))}",
            )
            _require(bool(self.size_axes), "a problem sweep needs 'size_axes'")
            _require(self.bound_axes is None, "a problem sweep takes 'size_axes' only")
        else:
            _require(bool(self.bound_axes), "a statement sweep needs 'bound_axes'")
            _require(self.size_axes is None, "a statement sweep takes 'bound_axes' only")
        for axis in self._axes():
            _require(bool(axis), "every sweep axis needs at least one value")

    def _axes(self) -> list[tuple[int, ...]]:
        if self.problem is not None:
            return list(self.size_axes)
        return [choices for _, choices in self.bound_axes]

    def grid_size(self) -> int:
        """How many requests :meth:`expand` yields, counted from the axes."""
        return len(self.cache_sizes) * math.prod(len(axis) for axis in self._axes())

    def expand(self) -> list[AnalyzeRequest]:
        """Materialise the grid as ordered :class:`AnalyzeRequest` items."""
        nests: list[LoopNest] = []
        if self.problem is not None:
            builder, _ = CATALOG_BUILDERS[self.problem]
            for sizes in itertools.product(*self.size_axes):
                nests.append(builder(*sizes))
        else:
            names = [name for name, _ in self.bound_axes]
            for combo in itertools.product(*(choices for _, choices in self.bound_axes)):
                nests.append(
                    nest_from_json(
                        {"statement": self.statement, "bounds": dict(zip(names, combo))},
                        "sweep statement",
                    )
                )
        return [
            AnalyzeRequest(
                nest=nest, cache_words=int(m), budget=self.budget, certificate=self.certificate
            )
            for nest in nests
            for m in self.cache_sizes
        ]

    def to_json(self) -> dict:
        out: dict = {
            "cache_sizes": list(self.cache_sizes),
            "budget": self.budget,
            "certificate": self.certificate,
        }
        if self.problem is not None:
            out["problem"] = self.problem
            out["size_axes"] = [list(axis) for axis in self.size_axes]
        if self.statement is not None:
            out["statement"] = self.statement
            out["bound_axes"] = {name: list(choices) for name, choices in self.bound_axes}
        return out

    @classmethod
    def from_json(cls, blob: Mapping, where: str = "sweep request") -> "SweepRequest":
        def build():
            size_axes = blob.get("size_axes")
            bound_axes = blob.get("bound_axes")
            _require(
                bound_axes is None or isinstance(bound_axes, Mapping),
                f"{where}: 'bound_axes' must map loop names to lists of bounds",
            )
            return cls(
                cache_sizes=tuple(int(m) for m in blob["cache_sizes"]),
                problem=str(blob["problem"]) if "problem" in blob else None,
                size_axes=(
                    tuple(tuple(int(v) for v in axis) for axis in size_axes)
                    if size_axes is not None
                    else None
                ),
                statement=str(blob["statement"]) if "statement" in blob else None,
                bound_axes=(
                    tuple(
                        (str(name), tuple(int(v) for v in choices))
                        for name, choices in bound_axes.items()
                    )
                    if bound_axes is not None
                    else None
                ),
                budget=str(blob.get("budget", "per-array")),
                certificate=bool(blob.get("certificate", False)),
            )

        return _build_request(where, build)


@dataclass(frozen=True)
class TuneRequest:
    """Simulation-in-the-loop integer tile autotuning (``/v1/tune``).

    Seeds a budgeted search at the analytically-rounded Theorem-3
    optimum and scores candidate tiles with the one-pass trace
    simulator; the report certifies the winner against the Theorem
    lower bound (``certificate_ratio = measured / bound``) and carries
    a capacity→best-tile Pareto front.  ``capacities=None`` prices the
    default power-of-two axis up to ``cache_words``.  Deterministic:
    the same request yields the same payload on every surface.
    """

    nest: LoopNest
    cache_words: int
    budget: str = "aggregate"
    strategy: str = "exhaustive"
    max_evaluations: int = 64
    radius: int = 1
    capacities: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_size("cache_words", self.cache_words)
        _check_budget(self.budget)
        _check_aggregate(self.budget, self.cache_words, self.nest)
        _check_strategy(self.strategy)
        _require(
            1 <= self.max_evaluations <= MAX_TUNE_EVALUATIONS,
            f"max_evaluations must be in [1, {MAX_TUNE_EVALUATIONS}], "
            f"got {self.max_evaluations}",
        )
        _require(0 <= self.radius <= 8, f"radius must be in [0, 8], got {self.radius}")
        if self.capacities is not None:
            _require(bool(self.capacities), "capacities must be omitted or non-empty")
            for c in self.capacities:
                _check_size("capacities", c)
        # Tuning simulates max_evaluations traces; guard each like simulate.
        _check_trace(self.nest, "tune")

    def to_json(self) -> dict:
        return {
            "nest": self.nest.to_json(),
            "cache_words": self.cache_words,
            "budget": self.budget,
            "strategy": self.strategy,
            "max_evaluations": self.max_evaluations,
            "radius": self.radius,
            "capacities": list(self.capacities) if self.capacities is not None else None,
        }

    @classmethod
    def from_json(cls, blob: Mapping, where: str = "tune request") -> "TuneRequest":
        def build():
            capacities = blob.get("capacities")
            return cls(
                nest=nest_from_json(blob, where),
                cache_words=int(blob["cache_words"]),
                budget=str(blob.get("budget", "aggregate")),
                strategy=str(blob.get("strategy", "exhaustive")),
                max_evaluations=int(blob.get("max_evaluations", 64)),
                radius=int(blob.get("radius", 1)),
                capacities=(
                    tuple(int(c) for c in capacities) if capacities is not None else None
                ),
            )

        return _build_request(where, build)


@dataclass(frozen=True)
class HierarchyRequest:
    """Multi-level hierarchy query (``/v1/hierarchy``).

    Plans nested communication-optimal integer tilings for a stack of
    strictly increasing cache ``capacities`` (innermost first), measures
    the innermost tile walk's traffic across *every* boundary from one
    trace pass, and certifies each boundary against its Theorem bound.
    ``tune_budget > 0`` additionally searches innermost tiles (capped
    componentwise by the next level's tile, so the hierarchy never
    un-nests) minimising the total boundary traffic; ``0`` serves the
    analytic nested plan, measured once.  Deterministic: the same
    request yields the same payload on every surface.
    """

    nest: LoopNest
    capacities: tuple[int, ...]
    budget: str = "aggregate"
    tune_budget: int = 0
    strategy: str = "exhaustive"
    radius: int = 1

    def __post_init__(self) -> None:
        _require(bool(self.capacities), "hierarchy needs at least one capacity")
        for c in self.capacities:
            _check_size("capacities", c)
        _require(
            all(a < b for a, b in zip(self.capacities, self.capacities[1:])),
            f"capacities must be strictly increasing, got {list(self.capacities)}",
        )
        _check_budget(self.budget)
        if self.budget == "aggregate":
            _require(
                self.capacities[0] >= self.nest.num_arrays,
                f"aggregate budget needs the innermost level >= "
                f"{self.nest.num_arrays} words (one per array), got {self.capacities[0]}",
            )
        _check_strategy(self.strategy)
        _require(
            0 <= self.tune_budget <= MAX_TUNE_EVALUATIONS,
            f"tune_budget must be in [0, {MAX_TUNE_EVALUATIONS}], "
            f"got {self.tune_budget}",
        )
        _require(0 <= self.radius <= 8, f"radius must be in [0, 8], got {self.radius}")
        # Every boundary is priced from a measured trace; guard its length.
        _check_trace(self.nest, "analyze")

    def to_json(self) -> dict:
        return {
            "nest": self.nest.to_json(),
            "capacities": list(self.capacities),
            "budget": self.budget,
            "tune_budget": self.tune_budget,
            "strategy": self.strategy,
            "radius": self.radius,
        }

    @classmethod
    def from_json(cls, blob: Mapping, where: str = "hierarchy request") -> "HierarchyRequest":
        def build():
            return cls(
                nest=nest_from_json(blob, where),
                capacities=tuple(int(c) for c in blob["capacities"]),
                budget=str(blob.get("budget", "aggregate")),
                tune_budget=int(blob.get("tune_budget", 0)),
                strategy=str(blob.get("strategy", "exhaustive")),
                radius=int(blob.get("radius", 1)),
            )

        return _build_request(where, build)


@dataclass(frozen=True)
class ProgramRequest:
    """Whole-program ingestion query (``/v1/program``).

    Splits the program into maximal perfect projective bands (see
    :mod:`repro.frontend`), plans every band through the session's one
    shared plan cache, and reports per-band plans (+ optional Theorem-3
    certificates and tuning) plus the aggregate traffic lower bound.
    ``from_json`` accepts three spellings: a nested ``program`` object,
    inline ``statements``/``bounds``, or an ``einsum`` string with
    ``sizes`` (expanded to its single-statement program).  Deterministic:
    the same request yields the same payload on every surface.

    ``bands`` holds the program's bands as validation split them, so
    the session plans them without splitting the program again.
    """

    program: Program
    cache_words: int
    budget: str = "per-array"
    certificate: bool = False
    tune_budget: int = 0
    strategy: str = "exhaustive"
    radius: int = 1
    bands: tuple[Band, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_size("cache_words", self.cache_words)
        _check_budget(self.budget)
        _check_strategy(self.strategy)
        _require(
            0 <= self.tune_budget <= MAX_TUNE_EVALUATIONS,
            f"tune_budget must be in [0, {MAX_TUNE_EVALUATIONS}], got {self.tune_budget}",
        )
        _require(0 <= self.radius <= 8, f"radius must be in [0, 8], got {self.radius}")
        try:
            bands = split_bands(self.program)
        except FrontendError as exc:
            raise RequestError(str(exc)) from exc
        object.__setattr__(self, "bands", bands)
        for band in bands:
            _check_aggregate(self.budget, self.cache_words, band.nest, f" of {band.nest.name}")
            if self.tune_budget > 0:
                # Tuning simulates traces per band; guard each like tune.
                _check_trace(band.nest, "tune", f" for {band.nest.name}")

    def to_json(self) -> dict:
        return {
            "program": self.program.to_json(),
            "cache_words": self.cache_words,
            "budget": self.budget,
            "certificate": self.certificate,
            "tune_budget": self.tune_budget,
            "strategy": self.strategy,
            "radius": self.radius,
        }

    @classmethod
    def from_json(cls, blob: Mapping, where: str = "program request") -> "ProgramRequest":
        def build():
            if "program" in blob:
                program = Program.from_json(blob["program"], where)
            elif "einsum" in blob:
                sizes = blob.get("sizes")
                _require(
                    isinstance(sizes, Mapping),
                    f"{where}: an einsum spec needs 'sizes' (index -> extent)",
                )
                operands = blob.get("operands")
                spec = parse_einsum(
                    str(blob["einsum"]),
                    operands=tuple(str(n) for n in operands) if operands else None,
                    output=str(blob["output"]) if "output" in blob else None,
                )
                program = parse_program(
                    [spec.statement()],
                    {str(k): int(v) for k, v in sizes.items()},
                    name=str(blob.get("name", "einsum")),
                )
            elif "statements" in blob:
                program = Program.from_json(blob, where)
            else:
                raise RequestError(
                    f"{where}: needs one of 'program', 'statements' or 'einsum'"
                )
            return cls(
                program=program,
                cache_words=int(blob["cache_words"]),
                budget=str(blob.get("budget", "per-array")),
                certificate=bool(blob.get("certificate", False)),
                tune_budget=int(blob.get("tune_budget", 0)),
                strategy=str(blob.get("strategy", "exhaustive")),
                radius=int(blob.get("radius", 1)),
            )

        return _build_request(where, build)


@dataclass(frozen=True)
class DistributedRequest:
    """§7 multiprocessor query: grid traffic vs the distributed bound.

    ``grid=None`` searches for the optimal processor grid over the
    factorizations of ``processors``.
    """

    nest: LoopNest
    processors: int
    memory_words: int
    grid: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _require(self.processors >= 1, f"processors must be >= 1, got {self.processors}")
        _check_size("memory_words", self.memory_words)
        if self.grid is not None:
            _require(
                len(self.grid) == self.nest.depth,
                f"grid must have {self.nest.depth} factors, got {len(self.grid)}",
            )
            for g in self.grid:
                _require(g >= 1, f"grid factors must be >= 1, got {self.grid}")

    def to_json(self) -> dict:
        return {
            "nest": self.nest.to_json(),
            "processors": self.processors,
            "memory_words": self.memory_words,
            "grid": list(self.grid) if self.grid is not None else None,
        }

    @classmethod
    def from_json(cls, blob: Mapping, where: str = "distributed request") -> "DistributedRequest":
        def build():
            grid = blob.get("grid")
            return cls(
                nest=nest_from_json(blob, where),
                processors=int(blob["processors"]),
                memory_words=int(blob["memory_words"]),
                grid=tuple(int(g) for g in grid) if grid is not None else None,
            )

        return _build_request(where, build)
