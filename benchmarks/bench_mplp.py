"""E10: §7's multiparametric claim — exact piecewise-linear f(beta).

Regenerates the closed forms for the catalog problems, counts pieces,
verifies the piecewise function against the LP on a beta grid, and
times the dual-vertex enumeration.

A last leg (not gated) times the cold ``parametric_tile_exponent`` of
the deepest structures, tucker_core and a depth-8 nest with 6 arrays,
best of several runs, and writes ``benchmarks/results/BENCH_mplp.json``.
"""

import json
import math
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from repro.core.bounds import tile_exponent
from repro.core.loopnest import ArrayRef, LoopNest
from repro.core.mplp import _dual_vertices, parametric_tile_exponent
from repro.library.problems import (
    matmul,
    matvec,
    mttkrp,
    nbody,
    pointwise_conv,
    tensor_contraction,
    ttm,
    tucker_core,
)

RESULTS = Path(__file__).parent / "results"

STRUCTURES = {
    "matmul": matmul(4, 4, 4),
    "matvec": matvec(4, 4),
    "nbody": nbody(4, 4),
    "contraction_2_1_2": tensor_contraction((4, 4), (4,), (4, 4)),
    "mttkrp": mttkrp(4, 4, 4, 4),
    "ttm": ttm(4, 4, 4, 4),
    "pointwise_conv": pointwise_conv(4, 4, 4, 4, 4),
}

# Known piece counts for the §6 problems (derived in the paper / by hand).
EXPECTED_PIECES = {
    "matmul": 5,  # 3/2, 1+b1, 1+b2, 1+b3, b1+b2+b3
    "matvec": 2,  # 1, b1+b2
    "nbody": 4,  # 2, 1+b1, 1+b2, b1+b2
}


@pytest.mark.parametrize("name", list(STRUCTURES), ids=str)
def test_e10_piece_enumeration(benchmark, table, name):
    nest = STRUCTURES[name]
    pvf = benchmark(lambda: parametric_tile_exponent(nest))
    t = table(f"e10_pieces_{name}", ["piece"])
    names = [f"b({nm})" for nm in nest.loops]
    for p in pvf.pieces:
        t.add(p.render(names))
    if name in EXPECTED_PIECES:
        assert len(pvf.pieces) == EXPECTED_PIECES[name], pvf.render()


@pytest.mark.parametrize("name", ["matmul", "nbody", "mttkrp"], ids=str)
def test_e10_grid_agreement(benchmark, table, name):
    """f(beta) == tiling-LP optimum on a dense rational beta grid."""
    nest = STRUCTURES[name]
    pvf = parametric_tile_exponent(nest)
    M = 2**12
    d = nest.depth
    grid_points = []
    for mask in range(3**d):
        betas = []
        m = mask
        for _ in range(d):
            betas.append([F(1, 6), F(1, 2), F(4, 3)][m % 3])
            m //= 3
        grid_points.append(betas)

    def check_all():
        mismatches = 0
        for betas in grid_points:
            if pvf.evaluate(betas) != tile_exponent(nest, M, betas=betas):
                mismatches += 1
        return mismatches

    mismatches = benchmark(check_all)
    assert mismatches == 0
    t = table(f"e10_grid_{name}", ["grid points", "mismatches"])
    t.add(len(grid_points), mismatches)


def test_e10_region_structure_matmul(benchmark, table):
    """The critical regions of §6.1: where each piece is active."""
    pvf = parametric_tile_exponent(STRUCTURES["matmul"])

    def regions():
        return {
            p.render(["b1", "b2", "b3"]): pvf.region_inequalities(p)
            for p in pvf.pieces
        }

    regs = benchmark(regions)
    t = table("e10_matmul_regions", ["active piece", "#region inequalities"])
    for name, ineqs in regs.items():
        t.add(name, len(ineqs))
    # The 1 + b3 piece's region must contain the inequality b3 <= 1/2
    # (vs the 3/2 piece) — the paper's regime boundary.
    piece = next(p for p in pvf.pieces if p.coeffs == (0, 0, 1))
    region = pvf.region_inequalities(piece)
    assert (F(1, 2), (F(0), F(0), F(-1))) in region


_DEEP_SUPPORTS = ((0, 1, 2, 4, 5, 6, 7), (2, 4), (1, 3, 5), (0, 2, 6), (0, 1, 6, 7), (4, 5))
COLD_STRUCTURES = {
    "tucker_core": tucker_core(4, 4, 4, 4, 4, 4),
    "deep_8x6": LoopNest(
        name="deep_8x6",
        loops=tuple(f"x{i}" for i in range(8)),
        bounds=(4,) * 8,
        arrays=tuple(
            ArrayRef(f"A{j}", s, is_output=(j == 0)) for j, s in enumerate(_DEEP_SUPPORTS)
        ),
    ),
}


def _best_ms(fn, runs: int) -> float:
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(1e3 * best, 2)


def test_e10_cold_solve_deep_structures(table, smoke):
    """Cold enumeration and whole solve of the deepest structures (not gated)."""
    runs = 1 if smoke else 7
    columns = ["depth", "arrays", "systems", "vertices", "pieces", "enumerate ms", "solve ms"]
    t = table("e10_cold_deep", ["structure", *columns])
    payload = {"experiment": "mplp_cold_deep", "runs": runs, "structures": {}}
    for name, nest in COLD_STRUCTURES.items():
        d, n = nest.depth, nest.num_arrays
        row = {
            "depth": d,
            "arrays": n,
            "systems": math.comb(d + n, n),
            "vertices": len(_dual_vertices(nest)),
            "pieces": len(parametric_tile_exponent(nest).pieces),
            "enumerate_ms": _best_ms(lambda: _dual_vertices(nest), runs),
            "solve_ms": _best_ms(lambda: parametric_tile_exponent(nest), runs),
        }
        payload["structures"][name] = row
        t.add(name, *row.values())
    if not smoke:
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / "BENCH_mplp.json").write_text(json.dumps(payload, indent=2) + "\n")
