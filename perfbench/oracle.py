"""Correctness oracle, applied from outside the server.

Every response must carry the expected status and a schema-v1 envelope
of the expected kind.  A seeded sample is re-derived on the independent
slow path in this process:

* analyze, and every band of a program: ``k_hat`` and
  ``lower_bound_k_hat`` equal the exact exponents of
  :func:`repro.solve_tiling` (the rational simplex, no plan cache);
* tune and hierarchy: every certificate ratio is at least 1 and the
  tuned traffic is no higher than the seed's;
* simulate: the totals equal ``run_trace_simulation(engine="reference")``
  on the served tile.
"""

from __future__ import annotations

import json
import random

from repro import solve_tiling
from repro.api.requests import ProgramRequest
from repro.api.wire import nest_from_json
from repro.core.tiling import TileShape
from repro.frontend.bands import split_bands
from repro.machine.model import MachineModel
from repro.simulate.trace_sim import run_trace_simulation


class WrongAnswer(Exception):
    pass


def envelope(kind: str, status: int, body: bytes) -> dict:
    """The parsed envelope of a 200 answer of ``kind``, or WrongAnswer."""
    if status != 200:
        raise WrongAnswer(f"{kind}: HTTP {status}: {body[:200]!r}")
    try:
        blob = json.loads(body)
    except ValueError as exc:
        raise WrongAnswer(f"{kind}: body is not JSON ({exc})") from exc
    if blob.get("schema_version") != 1 or blob.get("kind") != kind:
        raise WrongAnswer(f"{kind}: bad envelope {str(blob)[:200]}")
    if not isinstance(blob.get("payload"), dict) or not isinstance(blob.get("meta"), dict):
        raise WrongAnswer(f"{kind}: envelope without payload/meta objects")
    return blob


def _exponents(nest, cache_words: int, budget: str) -> tuple[str, str]:
    k_hat = solve_tiling(nest, cache_words, budget=budget).exponent
    bound = k_hat if budget == "per-array" else solve_tiling(nest, cache_words).exponent
    return str(k_hat), str(bound)


def _check_plan(where: str, plan: dict, nest, cache_words: int, budget: str) -> None:
    want = _exponents(nest, cache_words, budget)
    got = (plan.get("k_hat"), plan.get("lower_bound_k_hat"))
    if got != want:
        raise WrongAnswer(f"{where}: (k_hat, lower_bound_k_hat) {got} != exact {want}")


def check_analyze(request: dict, payload: dict) -> None:
    nest = nest_from_json(request)
    _check_plan("analyze", payload, nest, request["cache_words"],
                request.get("budget", "per-array"))


def check_program(request: dict, payload: dict) -> None:
    parsed = ProgramRequest.from_json(request)
    bands = split_bands(parsed.program)
    if payload.get("num_bands") != len(bands) or len(payload.get("bands", ())) != len(bands):
        raise WrongAnswer(f"program: {payload.get('num_bands')} bands served, {len(bands)} exist")
    for band, served in zip(bands, payload["bands"]):
        _check_plan(f"program band {band.index}", served["plan"], band.nest,
                    parsed.cache_words, parsed.budget)


def check_tune(request: dict, payload: dict) -> None:
    if payload["tuned"]["certificate_ratio"] < 1:
        raise WrongAnswer(f"tune: certificate ratio {payload['tuned']['certificate_ratio']} < 1")
    if payload["tuned"]["traffic_words"] > payload["seed"]["traffic_words"]:
        raise WrongAnswer("tune: tuned traffic exceeds the seed's")


def check_hierarchy(request: dict, payload: dict) -> None:
    for boundary in payload["boundaries"]:
        if boundary["certificate_ratio"] < 1:
            raise WrongAnswer(f"hierarchy: boundary ratio {boundary['certificate_ratio']} < 1")
    if payload["tuned"]["total_traffic_words"] > payload["seed"]["total_traffic_words"]:
        raise WrongAnswer("hierarchy: tuned traffic exceeds the seed's")


def check_simulate(request: dict, payload: dict) -> None:
    nest = nest_from_json(request)
    report = run_trace_simulation(
        nest,
        MachineModel(cache_words=request["cache_words"], line_words=payload["line_words"]),
        tile=TileShape(nest=nest, blocks=tuple(payload["tile"])),
        policy=payload["policy"],
        engine="reference",
    )
    want = [report.total_words, report.loads, report.stores,
            [[a.name, a.loads, a.stores] for a in report.per_array]]
    got = [payload["total_words"], payload["loads"], payload["stores"],
           [[a["name"], a["loads"], a["stores"]] for a in payload["per_array"]]]
    if got != want:
        raise WrongAnswer(f"simulate: served {got[:3]} != reference {want[:3]}")


def check_distributed(request: dict, payload: dict) -> None:
    if payload["memory_words"] != request["memory_words"] or payload["processors"] < 1:
        raise WrongAnswer("distributed: payload does not answer the request")


#: kind -> (slow-path check, responses checked per run; None = all)
CHECKS = {
    "analyze": (check_analyze, 20),
    "program": (check_program, 10),
    "distributed": (check_distributed, None),
    "tune": (check_tune, None),
    "hierarchy": (check_hierarchy, None),
    "simulate": (check_simulate, 3),
}


def verify(seed: int, answered: list[tuple[str, bytes, int, bytes]]) -> list[str]:
    """Check ``(kind, request_body, status, response_body)`` rows.

    Every row gets the envelope check; a seeded sample per kind (all of
    it for the cheap invariant checks) gets the slow-path check.
    Returns one message per wrong answer.
    """
    rng = random.Random(f"oracle/{seed}")
    problems = []
    by_kind: dict[str, list] = {}
    for kind, request, status, response in answered:
        try:
            blob = envelope(kind, status, response)
        except WrongAnswer as exc:
            problems.append(str(exc))
            continue
        by_kind.setdefault(kind, []).append((json.loads(request), blob["payload"]))
    for kind, rows in sorted(by_kind.items()):
        check, cap = CHECKS[kind]
        for request, payload in rng.sample(rows, len(rows) if cap is None else min(cap, len(rows))):
            try:
                check(request, payload)
            except WrongAnswer as exc:
                problems.append(str(exc))
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"{kind}: malformed payload ({type(exc).__name__}: {exc})")
    return problems
