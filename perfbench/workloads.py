"""Seeded request generators for the four workloads.

Every generator is a pure function of its seed: it yields ``(kind,
route, body_bytes)`` with bodies as compact, key-sorted JSON, so the same
seed gives byte-identical traffic.  The server only ever sees the bytes.
Request kinds follow fixed rounds (``_pattern``), so the seed picks the
bodies but not the mix.

* ``warm_novel``  — distinct analyze/program/distributed bodies over
  catalog problems whose structures set-up has warmed.
* ``warm_repeat`` — a Zipf-skewed draw from a fixed pool of analyze and
  program bodies that fits the server's response cache.
* ``cold_storm``  — one never-seen canonical structure per step, walked
  by two connections with different bounds and cache sizes.
* ``tune_sim``    — distinct tune/simulate/hierarchy bodies on small nests.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

from repro import canonical_key
from repro.core.loopnest import ArrayRef, LoopNest
from repro.library.problems import build_problem
from repro.simulate.trace import trace_length

ROUTES = {
    "analyze": "/v1/analyze",
    "program": "/v1/program",
    "distributed": "/v1/distributed",
    "simulate": "/v1/simulate",
    "tune": "/v1/tune",
    "hierarchy": "/v1/hierarchy",
}

#: The server's default response-cache capacity (``repro-tile serve``).
RESPONSE_CACHE_ENTRIES = 1024
REPEAT_POOL_SIZE = 512


def encode(blob: dict) -> bytes:
    return json.dumps(blob, sort_keys=True, separators=(",", ":")).encode()


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    """A log-uniform size in [lo, hi + 1] that is never a power of two.

    Cache sizes are powers of two, so a power-of-two extent has an exact
    rational log and exponents with small denominators follow; for large
    caches ``repro.util.rationals.pow_fraction`` then overflows a float
    and the server answers 500 (a server defect the benchmark steps
    around rather than measures).
    """
    value = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
    return value + 1 if value & (value - 1) == 0 else value


def _cache_words(rng: random.Random, lo_exp: int = 8, hi_exp: int = 20) -> int:
    return 1 << rng.randint(lo_exp, hi_exp)


# -- catalog problems -----------------------------------------------------------

#: Problem -> number of sizes.  Set-up solves every structure cold, so
#: the slowest ones are left out: tucker_core (6.5 s), and contraction
#: and pointwise_conv (depth 5, like attention_scores, which stays).
ANALYZE_PROBLEMS = {
    "matmul": 3, "matvec": 2, "outer_product": 2, "dot_product": 1, "nbody": 2,
    "fully_connected": 3, "mttkrp": 4, "ttm": 4, "batched_matmul": 4,
    "join_aggregate": 2, "syrk": 2, "attention_scores": 5, "einsum_mttkrp": 4,
    "jacobi1d_time": 2, "jacobi2d": 3, "heat3d": 4,
}
DISTRIBUTED_PROBLEMS = ["matmul", "nbody", "mttkrp", "batched_matmul", "syrk", "fully_connected"]

EINSUMS = [
    "ik,kj->ij", "ijk,jr,kr->ir", "bij,bjk->bik", "ij,j->i", "bhsd,bhtd->bhst",
    "ik,jk->ij", "i,j->ij", "abc,cd->abd",
]

#: Multi-statement programs (2-4 statements); "stencil" carries offsets.
PROGRAMS = {
    "share": ["C[i,j] += A[i,k] * B[k,j]", "V[i] = C[i,j] + U[j]", "D[i,j] += C[i,k] * E[k,j]"],
    "mlp": ["H[b,j] += X[b,i] * W[i,j]", "O[b,k] += H[b,j] * V[j,k]"],
    "stencil": [
        "A[t,i,j] = A[t-1,i-1,j] + A[t-1,i+1,j] + A[t-1,i,j-1] + A[t-1,i,j+1] + F[i,j]",
        "E[t] += A[t,i,j] * A[t,i,j]",
    ],
    "attention": ["S[b,s,t] += Q[b,s,d] * K[b,t,d]", "O[b,s,e] += S[b,s,t] * V[b,t,e]"],
    "chain": [
        "T[i,j] += A[i,k] * B[k,j]", "U[i,j] = T[i,j] + C[i,j]",
        "R[i] += U[i,j] * x[j]", "y[i] = R[i] + z[i]",
    ],
}
PROGRAM_LOOPS = {
    "share": "ijk", "mlp": "bijk", "stencil": "tij", "attention": "bdest", "chain": "ijk",
}


def _sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    return [_log_uniform(rng, lo, hi) for _ in range(count)]


def analyze_body(rng: random.Random, problem: str | None = None) -> dict:
    problem = problem or rng.choice(sorted(ANALYZE_PROBLEMS))
    return {
        "problem": problem,
        "sizes": _sizes(rng, ANALYZE_PROBLEMS[problem], 8, 4096),
        "cache_words": _cache_words(rng),
        "budget": rng.choice(["per-array", "aggregate"]),
        "certificate": rng.random() < 0.1,
    }


def einsum_body(rng: random.Random, spec: str | None = None) -> dict:
    spec = spec or rng.choice(EINSUMS)
    indices = sorted(set(spec.replace(",", "").replace("->", "")))
    return {
        "einsum": spec,
        "sizes": {idx: _log_uniform(rng, 8, 2048) for idx in indices},
        "cache_words": _cache_words(rng),
    }


def statements_body(rng: random.Random, name: str | None = None) -> dict:
    name = name or rng.choice(sorted(PROGRAMS))
    return {
        "program": {
            "name": name,
            "bounds": {loop: _log_uniform(rng, 8, 2048) for loop in PROGRAM_LOOPS[name]},
            "statements": PROGRAMS[name],
        },
        "cache_words": _cache_words(rng),
        "budget": rng.choice(["per-array", "aggregate"]),
    }


def program_body(rng: random.Random) -> dict:
    return einsum_body(rng) if rng.random() < 0.5 else statements_body(rng)


def distributed_body(rng: random.Random) -> dict:
    problem = rng.choice(DISTRIBUTED_PROBLEMS)
    return {
        "problem": problem,
        "sizes": _sizes(rng, ANALYZE_PROBLEMS[problem], 64, 4096),
        "processors": 1 << rng.randint(1, 6),
        "memory_words": _cache_words(rng, 10, 20),
    }


def _pattern(shares: dict[str, int]) -> list[str]:
    """One round of request kinds: each kind ``shares[kind]`` times,
    spread evenly (smooth weighted round-robin), so every stretch of a
    window holds the kinds in close to their stated shares."""
    current = dict.fromkeys(shares, 0)
    total = sum(shares.values())
    order = []
    for _ in range(total):
        for kind, weight in shares.items():
            current[kind] += weight
        best = max(current, key=lambda kind: current[kind])
        current[best] -= total
        order.append(best)
    return order


def _distinct_pattern(shares: dict[str, int], draw, seen: set):
    """Distinct bodies whose kinds repeat ``_pattern(shares)``;
    ``draw(kind)`` makes one body of the kind."""
    for kind in itertools.cycle(_pattern(shares)):
        while True:
            raw = encode(draw(kind))
            if raw not in seen:
                seen.add(raw)
                yield kind, ROUTES[kind], raw
                break


#: Kinds per round of warm_novel traffic: the ~70/20/10 analyze/program/
#: distributed mix the workload is defined by.
NOVEL_SHARES = {"analyze": 7, "program": 2, "distributed": 1}
_NOVEL_BODY = {"analyze": analyze_body, "program": program_body, "distributed": distributed_body}


def warm_novel_setup(seed: int, seen: set, sample: int = 200) -> list:
    """Every catalog structure and program template once, then a sample."""
    rng = random.Random(f"warm_novel/setup/{seed}")
    fixed = [("analyze", analyze_body(rng, problem)) for problem in sorted(ANALYZE_PROBLEMS)]
    fixed += [("program", einsum_body(rng, spec)) for spec in EINSUMS]
    fixed += [("program", statements_body(rng, name)) for name in sorted(PROGRAMS)]
    out = []
    for kind, body in fixed:
        raw = encode(body)
        seen.add(raw)
        out.append((kind, ROUTES[kind], raw))
    out += itertools.islice(warm_novel_stream(seed, seen, rng), sample)
    return out


def warm_novel_stream(seed: int, seen: set, rng: random.Random | None = None):
    rng = rng or random.Random(f"warm_novel/timed/{seed}")
    return _distinct_pattern(NOVEL_SHARES, lambda kind: _NOVEL_BODY[kind](rng), seen)


# -- warm_repeat ------------------------------------------------------------------

#: The pool keeps warm_novel's analyze:program ratio (7:2); distributed
#: bodies are left out, as the workload is defined over analyze and program.
REPEAT_SHARES = {"analyze": NOVEL_SHARES["analyze"], "program": NOVEL_SHARES["program"]}
#: Zipf's law in its classic form (weight 1/rank).  Every pool body is in
#: the response cache, so the exponent decides no hit or miss; it only
#: sets how often the hottest bodies repeat.
ZIPF_EXPONENT = 1.0


def repeat_pool(seed: int) -> list:
    """<= 512 distinct analyze and program bodies in REPEAT_SHARES."""
    rng = random.Random(f"warm_repeat/pool/{seed}")
    draw = {"analyze": analyze_body, "program": program_body}
    stream = _distinct_pattern(REPEAT_SHARES, lambda kind: draw[kind](rng), set())
    return list(itertools.islice(stream, REPEAT_POOL_SIZE))


def zipf_indices(seed: int, size: int, exponent: float = ZIPF_EXPONENT):
    """Endless Zipf-skewed pool indices (rank 0 is the hottest body)."""
    rng = random.Random(f"warm_repeat/zipf/{seed}")
    weights = list(itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(size)))
    population = list(range(size))
    while True:
        yield from rng.choices(population, cum_weights=weights, k=4096)


# -- tune_sim -------------------------------------------------------------------

#: Small nests, as the repository's own tuning benchmarks size them
#: (``benchmarks/bench_tune.py`` and ``bench_hierarchy_service.py``): their
#: catalog cases span nbody 40x40 (4 800 trace accesses) to matmul 24^3
#: (41 472).  Sizes are redrawn until the trace length falls in that span.
TUNE_PROBLEMS = {
    "matmul": 3, "mttkrp": 4, "syrk": 2, "nbody": 2, "batched_matmul": 4,
    "jacobi2d": 3, "matvec": 2, "fully_connected": 3,
}
TRACE_RANGE = (4_800, 41_472)
#: A small budget is at most the 8 tiles the CLI's ``--smoke`` mode clamps
#: ``tune`` and ``hierarchy`` to; the seed tile plus at least one more.
BUDGET_RANGE = (2, 8)
#: Kinds per round of tune_sim traffic, so that each kind takes about a
#: third of the server's time: a kind's count is the slowest kind's p50
#: over its own, rounded.  With the medians of ten seeds' p50s on this
#: generator on a 2-core x86 VM (simulate 2.9 ms, tune 17.6 ms,
#: hierarchy 28.3 ms) that is 9.7, 1.6 and 1 -> 10, 2, 1.
TUNE_SIM_SHARES = {"simulate": 10, "tune": 2, "hierarchy": 1}
#: Successive bodies of one kind walk these trace-length bins (log-spaced
#: over TRACE_RANGE) and the budgets in turn, 4 x 7 = 28 combinations, so
#: every window holds the same spread of work whatever the seed; the
#: seed picks the problem, the sizes inside the bin and the caches.
TRACE_BINS = 4


def _trace_bin(slot: int) -> tuple[float, float]:
    lo, hi = TRACE_RANGE
    step = (hi / lo) ** (1 / TRACE_BINS)
    index = slot % TRACE_BINS
    return lo * step ** index, lo * step ** (index + 1)


def _small_nest(rng: random.Random, problem: str | None, trace_bin) -> tuple[str, list]:
    problem = problem or rng.choice(sorted(TUNE_PROBLEMS))
    while True:
        sizes = _sizes(rng, TUNE_PROBLEMS[problem], 4, 256)
        if trace_bin[0] <= trace_length(build_problem(problem, sizes)) <= trace_bin[1]:
            return problem, sizes


def tune_sim_body(rng: random.Random, kind: str, slot: int, problem: str | None = None) -> dict:
    """Body ``slot`` of ``kind``.  Cache sizes follow the same benchmarks:
    32-256 words for one level; two levels 16-64 words apart by 4x or 8x."""
    problem, sizes = _small_nest(rng, problem, _trace_bin(slot))
    budget = BUDGET_RANGE[0] + slot % (BUDGET_RANGE[1] - BUDGET_RANGE[0] + 1)
    if kind == "simulate":
        return {"problem": problem, "sizes": sizes, "cache_words": _cache_words(rng, 5, 8)}
    if kind == "tune":
        return {"problem": problem, "sizes": sizes, "cache_words": _cache_words(rng, 5, 8),
                "max_evaluations": budget}
    inner = _cache_words(rng, 4, 6)
    return {"problem": problem, "sizes": sizes,
            "capacities": [inner, inner << rng.randint(2, 3)], "tune_budget": budget}


def tune_sim_setup(seed: int, seen: set, sample: int = 24) -> list:
    """Each problem once per kind (warms structures), then a sample."""
    rng = random.Random(f"tune_sim/setup/{seed}")
    out = []
    for slot, problem in enumerate(sorted(TUNE_PROBLEMS)):
        for kind in TUNE_SIM_SHARES:
            raw = encode(tune_sim_body(rng, kind, slot, problem))
            seen.add(raw)
            out.append((kind, ROUTES[kind], raw))
    out += itertools.islice(tune_sim_stream(seed, seen, rng), sample)
    return out


def tune_sim_stream(seed: int, seen: set, rng: random.Random | None = None):
    rng = rng or random.Random(f"tune_sim/timed/{seed}")
    slots = dict.fromkeys(TUNE_SIM_SHARES, 0)

    def draw(kind: str) -> dict:
        slots[kind] += 1
        return tune_sim_body(rng, kind, slots[kind])

    return _distinct_pattern(TUNE_SIM_SHARES, draw, seen)


# -- cold_storm -----------------------------------------------------------------

#: One round of (depth, arrays) classes; the timed sequence repeats it.
#: A round takes about a third of a 15 s window today, so any window
#: holds every class about equally often, and a faster solver times more
#: rounds of the same mix rather than other classes.  The costly class
#: sits between the two cheap ones, so a window cut anywhere in a round
#: is off its share by under one structure.  Each class must hold
#: COLD_HEADROOM x (structures per window) / 3 unseen structures, about
#: 300: counting scalar arrays, (4, 5) has 863, (5, 4) 716 and (6, 4)
#: thousands, while every depth-3 class, (4, 3), (4, 4), (5, 3), (6, 2)
#: and (6, 3) have under 230 and are left out.  (5, 5) and (6, 5) have
#: enough but would lengthen the round by 1.8 s and 6.5 s.
COLD_ROUND = ((4, 5), (6, 4), (5, 4))
#: Median cold solve seconds per class on a 2-core x86 VM, measured before
#: any solver speed-up; used only to size the headroom check below.
COLD_SOLVE_S = {(4, 5): 0.30, (6, 4): 4.0, (5, 4): 0.82}
#: The sequence must last this many times longer than today's server needs.
COLD_HEADROOM = 100
COLD_WARMUP_STRUCTURES = 2


def cold_steps_needed(seconds: float) -> int:
    """Structures a run would consume if solves were COLD_HEADROOM x faster."""
    round_s = sum(COLD_SOLVE_S[cls] for cls in COLD_ROUND)
    return math.ceil(COLD_HEADROOM * seconds / round_s * len(COLD_ROUND))


def _random_supports(rng: random.Random, depth: int, arrays: int) -> list[tuple[int, ...]]:
    while True:
        supports = [
            tuple(sorted(rng.sample(range(depth), rng.randint(0, depth)))) for _ in range(arrays)
        ]
        if len(set().union(*supports)) == depth:
            return supports


class ClassExhausted(RuntimeError):
    pass


@dataclass(frozen=True)
class ColdStructure:
    depth: int
    supports: tuple[tuple[int, ...], ...]
    key: str = ""

    def nest(self, bounds) -> LoopNest:
        return LoopNest(
            name="storm",
            loops=tuple(f"x{i}" for i in range(self.depth)),
            bounds=tuple(bounds),
            arrays=tuple(
                ArrayRef(f"A{j}", support, is_output=(j == 0))
                for j, support in enumerate(self.supports)
            ),
        )


def _draw_unseen(rng: random.Random, depth: int, arrays: int, seen: set[str]) -> ColdStructure:
    """A structure of the class whose canonical key is not yet in ``seen``."""
    for _attempt in range(2000):
        supports = tuple(_random_supports(rng, depth, arrays))
        key = canonical_key(ColdStructure(depth, supports).nest((2,) * depth))
        if key not in seen:
            seen.add(key)
            return ColdStructure(depth, supports, key)
    raise ClassExhausted(f"class (depth {depth}, arrays {arrays}) ran dry after {len(seen)} keys")


def cold_structures(count: int) -> tuple[list[ColdStructure], list[ColdStructure]]:
    """(``count`` timed structures, set-up structures), all keys distinct.

    Set-up uses a cheap class outside the round; the timed sequence
    repeats COLD_ROUND.  The structures do not depend on the run's seed:
    solve times differ by up to 2x within a class and a run solves only
    about ten structures, so drawing them per seed would let the seed,
    not the code, set the figures.  The seed picks bounds and cache sizes
    (``cold_streams``).  Raises :class:`ClassExhausted` when a class
    cannot supply another unseen structure.
    """
    rng = random.Random("cold_storm/structures")
    seen: set[str] = set()
    setup = [_draw_unseen(rng, 4, 4, seen) for _ in range(COLD_WARMUP_STRUCTURES)]
    timed = [_draw_unseen(rng, *COLD_ROUND[step % len(COLD_ROUND)], seen) for step in range(count)]
    return timed, setup


def cold_body(rng: random.Random, structure: ColdStructure) -> bytes:
    bounds = [_log_uniform(rng, 16, 4096) for _ in range(structure.depth)]
    return encode({
        "nest": structure.nest(bounds).to_json(),
        "cache_words": _cache_words(rng),
        "budget": rng.choice(["per-array", "aggregate"]),
    })


def cold_streams(seed: int, structures: list[ColdStructure], connections: int = 2,
                 label: str = "bodies") -> list[list]:
    """Per connection, the same structure sequence with its own bounds."""
    streams = []
    for conn in range(connections):
        rng = random.Random(f"cold_storm/{label}/{seed}/{conn}")
        streams.append([("analyze", "/v1/analyze", cold_body(rng, s)) for s in structures])
    return streams
