"""Command-line front end: the compiler-pass use case of §7.

Examples
--------
Analyse a statement (bound + optimal tile + tightness certificate)::

    repro-tile "C[i,k] += A[i,j] * B[j,k]" --bounds i=1024,j=1024,k=16 -M 65536

Analyse a catalog problem and print the piecewise closed form::

    repro-tile --problem matmul --sizes 1024,1024,16 -M 65536 --piecewise

Simulate the derived tiling's traffic against the lower bound::

    repro-tile --problem nbody --sizes 4096,4096 -M 4096 --simulate

Serve a batch of queries through the plan cache (one JSON line each)::

    repro-tile --batch requests.json

Sweep a problem over size and cache grids (``:`` separates choices)::

    repro-tile --problem matmul --sizes 256:4096,512,16:64 -M 4096:65536 --sweep

Autotune the integer tile with the simulator in the loop (one Result
JSON line; ``--smoke`` clamps the budget for CI)::

    repro-tile tune --problem matmul --sizes 24,24,24 -M 128 --workers 0

Plan (and optionally tune) a nested tiling for a whole memory
hierarchy, certified per boundary (one Result JSON line)::

    repro-tile hierarchy --problem matmul --sizes 24,24,24 \
        --capacities 48:192:768 --tune 16 --workers 0

Ingest a whole program — einsum string, inline statements (``;``
separated, stencil offsets allowed) or a JSON program file — split it
into perfect projective bands and plan every band through one plan
cache (one Result JSON line, kind ``program``)::

    repro-tile program --einsum "ik,kj->ij" --sizes i=512,k=512,j=512 -M 4096
    repro-tile program "S[i,j] = A[i,j]; C[i,k] += S[i,j] * W[j,k]" \
        --bounds i=64,j=64,k=64 -M 4096
    repro-tile program --file program.json -M 4096 --tune 16 --workers 0

Run the JSON service (see :mod:`repro.serve`)::

    repro-tile serve --port 8787

Inspect the metrics registry — this process's, a Session's summary, or
a running server's ``/v1/metrics`` scrape (see :mod:`repro.obs`)::

    repro-tile stats
    repro-tile stats --json
    repro-tile stats --url http://127.0.0.1:8787

Every mode routes through one :class:`repro.api.Session`, the same
façade the library, the benchmarks and the HTTP service share.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .api import (
    AnalyzeRequest,
    HierarchyRequest,
    ProgramRequest,
    RequestError,
    Session,
    SweepRequest,
    TuneRequest,
)
from .api import default_session as _session
from .api.kinds import REQUEST_KINDS
from .core.loopnest import LoopNest, LoopNestError
from .core.mplp import parametric_tile_exponent
from .core.parser import ParseError, parse_nest
from .library.problems import CATALOG_BUILDERS, build_problem
from .machine.model import MachineModel
from .simulate.executor import best_order_traffic, simulate_untiled_traffic

__all__ = [
    "main",
    "build_arg_parser",
    "build_serve_parser",
    "build_stats_parser",
    "build_tune_parser",
    "build_hierarchy_parser",
    "build_program_parser",
]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tile",
        description="Communication lower bounds and optimal tilings for projective loop nests",
    )
    parser.add_argument(
        "statement",
        nargs="?",
        help='loop-nest statement, e.g. "C[i,k] += A[i,j] * B[j,k]"',
    )
    parser.add_argument(
        "--bounds",
        help="comma-separated loop bounds, e.g. i=1024,j=1024,k=16 "
        "(with --sweep, each value may be a :-separated list)",
    )
    parser.add_argument(
        "--problem",
        choices=sorted(CATALOG_BUILDERS),
        help="use a catalog problem instead of a statement",
    )
    parser.add_argument(
        "--sizes",
        help="comma-separated sizes for the catalog problem "
        "(with --sweep, each size may be a :-separated list)",
    )
    parser.add_argument(
        "-M",
        "--cache-words",
        help="fast-memory capacity in words (with --sweep, a :-separated list)",
    )
    parser.add_argument(
        "--budget",
        choices=("per-array", "aggregate"),
        default="per-array",
        help="memory-budget convention (paper model vs practical cache)",
    )
    parser.add_argument(
        "--piecewise",
        action="store_true",
        help="also print the exact piecewise-linear tile exponent f(beta)",
    )
    parser.add_argument(
        "--simulate",
        action="store_true",
        help="also simulate tiled vs untiled traffic in the machine model",
    )
    batch = parser.add_argument_group("batch planning (JSON-lines output)")
    batch.add_argument(
        "--batch",
        metavar="FILE",
        help="serve a JSON file of plan requests through the plan cache",
    )
    batch.add_argument(
        "--sweep",
        action="store_true",
        help="cross-product the :-separated --sizes/--bounds and -M lists",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tile serve",
        description="Serve /v1/{health,metrics,"
        + ",".join(row.kind for row in REQUEST_KINDS)
        + "} as JSON over HTTP",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8787, help="TCP port (default 8787; 0 = ephemeral)"
    )
    parser.add_argument(
        "--response-cache",
        type=int,
        default=None,
        metavar="N",
        help="full-request response cache entries; verbatim repeats are "
        "answered without touching the solver (default 1024; 0 = off)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logging"
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="bound on concurrently-processed POSTs; excess load is shed "
        "with a structured 429 (default 64)",
    )
    parser.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="deadline applied to requests that do not carry their own "
        "deadline_ms (default: none)",
    )
    parser.add_argument(
        "--slow-request-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log a structured slow-request line (with the span tree) for "
        "requests slower than this (default 1000; 0 = off)",
    )
    return parser


def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tile stats",
        description="Inspect the observability registry: scrape a running "
        "server's /v1/metrics, or render this process's own registry",
    )
    parser.add_argument(
        "--url",
        metavar="URL",
        help="server base URL (e.g. http://127.0.0.1:8787); scrapes "
        "/v1/metrics and prints the Prometheus text verbatim",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print Session.metrics() as JSON (registry summary + planner "
        "stats) instead of Prometheus text",
    )
    return parser


def _add_nest_arguments(parser: argparse.ArgumentParser) -> None:
    """The statement/--problem nest spelling shared by the subcommands."""
    parser.add_argument(
        "statement",
        nargs="?",
        help='loop-nest statement, e.g. "C[i,k] += A[i,j] * B[j,k]"',
    )
    parser.add_argument(
        "--bounds", help="comma-separated loop bounds, e.g. i=24,j=24,k=24"
    )
    parser.add_argument(
        "--problem",
        choices=sorted(CATALOG_BUILDERS),
        help="use a catalog problem instead of a statement",
    )
    parser.add_argument("--sizes", help="comma-separated sizes for the catalog problem")


def _add_search_arguments(parser: argparse.ArgumentParser, smoke_help: str) -> None:
    """The tuning-search knobs shared by ``tune`` and ``hierarchy``."""
    parser.add_argument(
        "--strategy",
        choices=("exhaustive", "coordinate", "random"),
        default="exhaustive",
        help="search strategy (default exhaustive)",
    )
    parser.add_argument(
        "--radius",
        type=int,
        default=1,
        help="lattice neighbourhood radius around the analytic seed (default 1)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for candidate evaluation (default: auto; 0 = serial)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="cooperative deadline for the whole run; on expiry the emitted "
        "Result is a structured 504 error envelope and the exit code is 3",
    )
    parser.add_argument("--smoke", action="store_true", help=smoke_help)


def build_tune_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tile tune",
        description="Autotune the integer tile with the trace simulator in the loop; "
        "emits one schema-v1 Result JSON line (kind 'tune')",
    )
    _add_nest_arguments(parser)
    parser.add_argument(
        "-M", "--cache-words", help="fast-memory capacity in words", required=False
    )
    parser.add_argument(
        "--budget",
        choices=("per-array", "aggregate"),
        default="aggregate",
        help="memory-budget convention for candidate feasibility (default aggregate)",
    )
    parser.add_argument(
        "--max-evals",
        type=int,
        default=64,
        help="evaluation budget: distinct tiles simulated (default 64)",
    )
    parser.add_argument(
        "--capacities",
        help="':'-separated Pareto capacities (default: powers of two up to -M)",
    )
    _add_search_arguments(
        parser, smoke_help="CI smoke mode: clamp the evaluation budget to 8 tiles"
    )
    return parser


def build_hierarchy_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tile hierarchy",
        description="Plan (and optionally tune) a nested tiling for a whole memory "
        "hierarchy, certified per boundary; emits one schema-v1 Result JSON line "
        "(kind 'hierarchy')",
    )
    _add_nest_arguments(parser)
    parser.add_argument(
        "--capacities",
        required=True,
        help="':'-separated strictly increasing cache capacities in words, "
        "innermost first, e.g. 48:192:768",
    )
    parser.add_argument(
        "--budget",
        choices=("per-array", "aggregate"),
        default="aggregate",
        help="memory-budget convention per level (default aggregate)",
    )
    parser.add_argument(
        "--tune",
        type=int,
        default=0,
        metavar="N",
        help="evaluation budget for innermost-tile tuning "
        "(default 0 = serve the analytic nested plan)",
    )
    _add_search_arguments(
        parser, smoke_help="CI smoke mode: clamp the tune budget to 8 tiles"
    )
    return parser


def build_program_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tile program",
        description="Ingest a whole program (einsum string, inline statements, or a "
        "JSON program file), split it into perfect projective bands, and plan every "
        "band through one shared plan cache; emits one schema-v1 Result JSON line "
        "(kind 'program')",
    )
    parser.add_argument(
        "statements",
        nargs="?",
        help="inline ';'-separated update statements (stencil offsets allowed), "
        'e.g. "S[i,j] = A[i,j]; C[i,k] += S[i,j] * W[j,k]"',
    )
    parser.add_argument(
        "--bounds", help="comma-separated loop bounds for inline statements, e.g. i=64,j=64,k=64"
    )
    parser.add_argument(
        "--file",
        metavar="FILE",
        help='JSON program file: {"name": ..., "bounds": {...}, "statements": [...]}',
    )
    parser.add_argument(
        "--einsum", metavar="SPEC", help="einsum spec, e.g. 'ik,kj->ij' (explicit output)"
    )
    parser.add_argument(
        "--sizes",
        help="comma-separated einsum index extents, e.g. i=512,k=512,j=512",
    )
    parser.add_argument(
        "--operands", help="comma-separated operand array names for --einsum (default A,B,...)"
    )
    parser.add_argument("--output", help="output array name for --einsum (default Out)")
    parser.add_argument("--name", default=None, help="program name (defaults per spelling)")
    parser.add_argument("-M", "--cache-words", help="fast-memory capacity in words")
    parser.add_argument(
        "--budget",
        choices=("per-array", "aggregate"),
        default="per-array",
        help="memory-budget convention per band (default per-array)",
    )
    parser.add_argument(
        "--certificate",
        action="store_true",
        help="attach a Theorem-3 tightness certificate per band",
    )
    parser.add_argument(
        "--tune",
        type=int,
        default=0,
        metavar="N",
        help="per-band evaluation budget for tile tuning "
        "(default 0 = serve the analytic plans)",
    )
    _add_search_arguments(
        parser, smoke_help="CI smoke mode: clamp the per-band tune budget to 8 tiles"
    )
    return parser


def _program_from_args(args, parser: argparse.ArgumentParser) -> dict:
    """The request blob for one of the three program spellings."""
    spellings = [bool(args.file), bool(args.einsum), bool(args.statements)]
    if sum(spellings) != 1:
        parser.error("give exactly one of --file, --einsum, or inline statements")
    if args.file:
        with open(args.file) as handle:
            program = json.load(handle)
        if isinstance(program, dict) and args.name:
            program = {**program, "name": args.name}
        return {"program": program}
    if args.einsum:
        if not args.sizes:
            parser.error("--sizes is required with --einsum (e.g. i=512,k=512,j=512)")
        blob: dict = {"einsum": args.einsum, "sizes": _parse_bounds(args.sizes)}
        if args.operands:
            blob["operands"] = [n.strip() for n in args.operands.split(",")]
        if args.output:
            blob["output"] = args.output
        if args.name:
            blob["name"] = args.name
        return blob
    if not args.bounds:
        parser.error("--bounds is required with inline statements")
    return {
        "program": {
            "name": args.name or "program",
            "bounds": _parse_bounds(args.bounds),
            "statements": [s for s in args.statements.split(";") if s.strip()],
        }
    }


#: What a malformed invocation raises once argparse has accepted it
#: (frontend errors are ValueErrors).
_USAGE_ERRORS = (ParseError, LoopNestError, RequestError, OSError,
                 json.JSONDecodeError, TypeError, ValueError)


def _run_kind(kind: str, args, build, **kwargs) -> int:
    """Run ``build()``'s request through ``Session.<kind>``.

    Prints one Result JSON line per answer.  Exit code 0 when
    every answer is ok, 2 on a usage error (message on stderr), 3 when
    an answer is an error envelope such as an expired deadline: still
    valid Result JSON on stdout, but scripts can tell it apart.
    """
    try:
        request = build()
        # Only tune, hierarchy and program take --workers (candidate evaluation).
        session = Session(workers=getattr(args, "workers", None))
        answer = getattr(session, kind)(request, **kwargs)
        results = answer if isinstance(answer, list) else [answer]
        for result in results:
            print(result.to_json_str())
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(result.ok for result in results) else 3


def _run_program(argv: Sequence[str]) -> int:
    """One program request through a Session; one Result JSON line."""
    parser = build_program_parser()
    args = parser.parse_args(list(argv))
    cache_words = _single_cache_words(args, parser)

    def build() -> ProgramRequest:
        blob = _program_from_args(args, parser)
        blob.update(
            cache_words=cache_words,
            budget=args.budget,
            certificate=args.certificate,
            tune_budget=min(args.tune, 8) if args.smoke else args.tune,
            strategy=args.strategy,
            radius=args.radius,
        )
        return ProgramRequest.from_json(blob, "program")

    return _run_kind("program", args, build, deadline_ms=args.deadline_ms)


def _nest_from_args(args, parser: argparse.ArgumentParser) -> LoopNest:
    """The shared statement/--problem nest spelling of the subcommands."""
    if args.problem:
        try:
            sizes = tuple(int(s) for s in args.sizes.split(",")) if args.sizes else None
            return build_problem(args.problem, sizes)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad --sizes for problem: {exc}") from None
    if args.statement:
        if not args.bounds:
            parser.error("--bounds is required with a statement")
        return parse_nest(args.statement, _parse_bounds(args.bounds))
    parser.error("give a statement or --problem")
    raise AssertionError("unreachable")  # pragma: no cover


def _run_hierarchy(argv: Sequence[str]) -> int:
    """One hierarchy request through a Session; one Result JSON line."""
    parser = build_hierarchy_parser()
    args = parser.parse_args(list(argv))

    def build() -> HierarchyRequest:
        return HierarchyRequest(
            nest=_nest_from_args(args, parser),
            capacities=tuple(_parse_choices(args.capacities, "--capacities")),
            budget=args.budget,
            tune_budget=min(args.tune, 8) if args.smoke else args.tune,
            strategy=args.strategy,
            radius=args.radius,
        )

    return _run_kind("hierarchy", args, build, deadline_ms=args.deadline_ms)


def _run_tune(argv: Sequence[str]) -> int:
    """One tune request through a Session; one Result JSON line."""
    parser = build_tune_parser()
    args = parser.parse_args(list(argv))
    cache_words = _single_cache_words(args, parser)

    def build() -> TuneRequest:
        return TuneRequest(
            nest=_nest_from_args(args, parser),
            cache_words=cache_words,
            budget=args.budget,
            strategy=args.strategy,
            max_evaluations=min(args.max_evals, 8) if args.smoke else args.max_evals,
            radius=args.radius,
            capacities=(
                tuple(_parse_choices(args.capacities, "--capacities"))
                if args.capacities
                else None
            ),
        )

    return _run_kind("tune", args, build, deadline_ms=args.deadline_ms)


def _parse_bounds(blob: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for piece in blob.split(","):
        if "=" not in piece:
            raise ParseError(f"bad bounds entry {piece!r}; expected name=value")
        name, _, value = piece.partition("=")
        try:
            out[name.strip()] = int(value)
        except ValueError:
            raise ParseError(f"bad bound value in {piece!r}") from None
    return out


def _parse_choices(blob: str, what: str) -> list[int]:
    """A ``:``-separated list of positive integers (sweep axes)."""
    try:
        values = [int(v) for v in blob.split(":")]
    except ValueError:
        raise ParseError(f"bad {what} value {blob!r}; expected ints separated by ':'") from None
    if not values:
        raise ParseError(f"empty {what} list")
    return values


def _single_cache_words(args, parser: argparse.ArgumentParser) -> int:
    if args.cache_words is None:
        parser.error("-M/--cache-words is required")
    try:
        return int(args.cache_words)
    except ValueError:
        parser.error(f"bad -M value {args.cache_words!r}")
    raise AssertionError("unreachable")  # pragma: no cover


def _batch_requests_from_file(path: str) -> list[AnalyzeRequest]:
    """Parse a request file: a JSON list (or ``{"requests": [...]}``).

    Entries use the schema-v1 request spellings of
    :meth:`repro.api.AnalyzeRequest.from_json` — ``problem``/``sizes``,
    ``statement``/``bounds``, or an inline ``nest`` object.
    """
    with open(path) as handle:
        blob = json.load(handle)
    if isinstance(blob, dict):
        blob = blob.get("requests")
    if not isinstance(blob, list):
        raise ParseError(f"{path}: expected a JSON list of requests")
    requests = []
    for idx, entry in enumerate(blob):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}[{idx}]: expected an object")
        if "statement" in entry and "name" not in entry:
            entry = {**entry, "name": f"request{idx}"}
        requests.append(AnalyzeRequest.from_json(entry, f"{path}[{idx}]"))
    return requests


def _sweep_from_args(args, parser: argparse.ArgumentParser) -> SweepRequest:
    """The ``--sweep`` grid: ``:``-separated choices per size or bound, and -M."""
    if args.cache_words is None:
        parser.error("-M/--cache-words is required with --sweep")
    cache_sizes = tuple(_parse_choices(args.cache_words, "-M"))
    if args.problem:
        if not args.sizes:
            parser.error("--sweep needs explicit --sizes axes")
        size_axes = tuple(
            tuple(_parse_choices(axis, "--sizes")) for axis in args.sizes.split(",")
        )
        return SweepRequest(
            cache_sizes=cache_sizes, problem=args.problem, size_axes=size_axes,
            budget=args.budget,
        )
    if not args.statement:
        parser.error("--sweep needs a statement or --problem")
    if not args.bounds:
        parser.error("--bounds is required with a statement")
    bound_axes: dict[str, tuple[int, ...]] = {}
    for piece in args.bounds.split(","):
        if "=" not in piece:
            raise ParseError(f"bad bounds entry {piece!r}; expected name=values")
        name, _, value = piece.partition("=")
        bound_axes[name.strip()] = tuple(_parse_choices(value, "--bounds"))
    return SweepRequest(
        cache_sizes=cache_sizes, statement=args.statement,
        bound_axes=tuple(bound_axes.items()), budget=args.budget,
    )


def _run_stats(argv: Sequence[str]) -> int:
    """Observability surface: scrape a server or render the local registry."""
    args = build_stats_parser().parse_args(list(argv))
    if args.url:
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/") + "/v1/metrics"
        try:
            with urllib.request.urlopen(url, timeout=10.0) as response:
                sys.stdout.write(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.json:
        print(json.dumps(_session().metrics(), indent=2, sort_keys=True))
        return 0
    from .obs import global_registry, render_registry

    sys.stdout.write(render_registry(global_registry()))
    return 0


def _run_serve(argv: Sequence[str]) -> int:
    from .serve import serve  # deferred: keep plain CLI start cheap

    args = build_serve_parser().parse_args(list(argv))
    session = Session()
    try:
        from .serve import (
            DEFAULT_MAX_INFLIGHT,
            DEFAULT_RESPONSE_CACHE,
            DEFAULT_SLOW_REQUEST_MS,
        )

        if args.slow_request_ms is None:
            slow_request_ms: float | None = DEFAULT_SLOW_REQUEST_MS
        else:
            # 0 (or negative) disables the slow-request log entirely.
            slow_request_ms = args.slow_request_ms if args.slow_request_ms > 0 else None
        return serve(
            host=args.host,
            port=args.port,
            session=session,
            verbose=not args.quiet,
            max_inflight=args.max_inflight if args.max_inflight else DEFAULT_MAX_INFLIGHT,
            default_deadline_ms=args.default_deadline_ms,
            response_cache=(
                DEFAULT_RESPONSE_CACHE
                if args.response_cache is None
                else args.response_cache
            ),
            slow_request_ms=slow_request_ms,
        )
    except (OSError, ValueError) as exc:
        # Bind failures (port in use, bad host) and bad admission/deadline
        # settings follow the CLI contract.
        print(f"error: {exc}", file=sys.stderr)
        return 2


_SUBCOMMANDS = {
    "serve": _run_serve,
    "stats": _run_stats,
    "tune": _run_tune,
    "hierarchy": _run_hierarchy,
    "program": _run_program,
}


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    subcommand = _SUBCOMMANDS.get(argv[0]) if argv else None
    if subcommand is not None:
        return subcommand(argv[1:])

    parser = build_arg_parser()
    args = parser.parse_args(argv)

    if args.batch:
        if args.statement or args.problem or args.sweep:
            parser.error("--batch takes its queries from the file; "
                         "drop the statement/--problem/--sweep arguments")
        return _run_kind("batch", args, lambda: _batch_requests_from_file(args.batch))
    if args.sweep:
        return _run_kind("sweep", args, lambda: _sweep_from_args(args, parser))

    cache_words = _single_cache_words(args, parser)
    try:
        nest = _nest_from_args(args, parser)
        # Building the request validates -M and --budget.
        AnalyzeRequest(nest=nest, cache_words=cache_words, budget=args.budget)
        analysis = _session().analysis(nest, cache_words, budget=args.budget)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(analysis.summary())

    if args.piecewise:
        print(parametric_tile_exponent(nest).render())

    if args.simulate:
        machine = MachineModel(cache_words=cache_words)
        tiled = best_order_traffic(nest, analysis.tiling.tile, machine=machine)
        naive = simulate_untiled_traffic(nest, machine=machine)
        bound = analysis.lower_bound.value
        print(f"simulated tiled traffic : {tiled.total_words} words "
              f"(ratio to bound {tiled.ratio_to(bound):.2f})")
        print(f"simulated naive traffic : {naive.total_words} words "
              f"(ratio to bound {naive.ratio_to(bound):.2f})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
