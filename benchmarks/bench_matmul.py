"""E1-E5: the §6.1 matmul/matvec walk-through, regenerated end to end.

Each test reproduces one artefact of §6.1 exactly (rational golden
values) and benchmarks the pipeline that computes it.
"""

from fractions import Fraction as F

import pytest

from repro.core.alpha_family import optimal_tile_family
from repro.core.bounds import (
    communication_lower_bound,
    subset_exponent_literal,
)
from repro.core.closed_forms import matmul_comm_lower_bound
from repro.core.hbl import solve_hbl
from repro.core.mplp import parametric_tile_exponent
from repro.core.tiling import solve_tiling
from repro.library.problems import matmul

#: These are solver benchmarks: ``solve_tiling`` keeps the rational
#: simplex in the timed loop (no plan cache).
M = 2**16


def test_e1_large_bound_lp(benchmark, table):
    """E1: HBL LP optimum 3/2, s = (1/2,1/2,1/2), sqrt(M)-cube tile."""
    nest = matmul(2**12, 2**12, 2**12)
    sol = benchmark(lambda: solve_hbl(nest))
    assert sol.k == F(3, 2)
    assert sol.s == (F(1, 2), F(1, 2), F(1, 2))
    tiling = solve_tiling(nest, M)
    assert tiling.tile.blocks == (256, 256, 256)

    t = table("e1_matmul_large", ["quantity", "paper", "measured"])
    t.add("k_HBL", "3/2", sol.k)
    t.add("s", "(1/2,1/2,1/2)", sol.s)
    t.add("tile", "sqrt(M)^3 = 256^3", tiling.tile.blocks)
    t.add("comm bound", "L^3/sqrt(M)", f"{communication_lower_bound(nest, M).hbl_words:.4g}")


def test_e2_small_l3_lower_bound(benchmark, table):
    """E2: row-deleted LP gives s_hat = (0,1,0); bound max(M, M L3) -> L1 L2."""
    nest = matmul(2**12, 2**12, 2**4)

    def pipeline():
        lit, sliced = subset_exponent_literal(nest, M, [2])
        lb = communication_lower_bound(nest, M)
        return lit, sliced, lb

    lit, sliced, lb = benchmark(pipeline)
    assert sliced.s == (0, 1, 0)  # the paper's s_hat
    assert lit == 1 + F(4, 16)  # max(1, 1 + beta3)
    assert lb.hbl_words == float(2**24)  # L1 * L2

    t = table("e2_matmul_small_l3", ["quantity", "paper", "measured"])
    t.add("s_hat (Q={x3})", "(0,1,0)", sliced.s)
    t.add("tile exponent", "1 + beta3", lit)
    t.add("comm bound", "L1*L2 = 2^24", int(lb.hbl_words))


@pytest.mark.parametrize(
    "L3_exp,expected_k",
    [
        (16, F(3, 2)),
        (10, F(3, 2)),
        (8, F(3, 2)),
        (6, F(11, 8)),
        (4, F(5, 4)),
        (1, F(17, 16)),
        (0, F(1)),
    ],
)
def test_e3_tiling_regimes(benchmark, table, L3_exp, expected_k):
    """E3: LP (6.3) case split at beta3 = 1/2: k = min(3/2, 1 + beta3)."""
    nest = matmul(2**12, 2**12, 2**L3_exp)
    sol = benchmark(lambda: solve_tiling(nest, M))
    assert sol.exponent == expected_k

    t = table(f"e3_tiling_l3_2pow{L3_exp}", ["L3", "beta3", "paper k", "measured k", "tile"])
    beta3 = F(L3_exp, 16)
    paper_k = min(F(3, 2), 1 + beta3)
    t.add(2**L3_exp, beta3, paper_k, sol.exponent, sol.tile.blocks)
    assert sol.exponent == paper_k


def test_e4_alpha_family(benchmark, table):
    """E4: the alpha-parameterised family of optimal tiles (beta3 <= 1/2)."""
    nest = matmul(2**16, 2**16, 2**4)  # beta1 = beta2 = 1 -> paper's regime

    fam = benchmark(lambda: optimal_tile_family(nest, M))
    assert fam.exponent == F(5, 4)
    b3 = F(1, 4)
    t = table("e4_alpha_family", ["alpha", "lambda(alpha)", "in optimal face"])
    for alpha in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
        lam = (
            alpha / 2 + (1 - alpha) * (1 - b3),
            alpha / 2 + (1 - alpha) * b3,
            b3,
        )
        ok = fam.contains(lam)
        t.add(alpha, lam, ok)
        assert ok, alpha


def test_e5_closed_form_sweep(benchmark, table):
    """E5: max(L1L2L3/sqrt M, L1L2, L2L3, L1L3 [, M]) == general machinery."""
    sweeps = [
        (2**12, 2**12, 2**12),
        (2**12, 2**12, 2**8),
        (2**12, 2**12, 2**4),
        (2**12, 2**12, 1),
        (2**12, 2**6, 2**3),
        (2**6, 2**6, 2**6),
        (2**4, 2**4, 2**4),
    ]

    def sweep():
        return [
            (dims, communication_lower_bound(matmul(*dims), M).hbl_words)
            for dims in sweeps
        ]

    results = benchmark(sweep)
    t = table("e5_matmul_closed_form", ["L1", "L2", "L3", "closed form", "general", "match"])
    for dims, general in results:
        closed = matmul_comm_lower_bound(*dims, M)
        match = abs(general - closed) <= 1e-9 * closed
        t.add(*dims, f"{closed:.6g}", f"{general:.6g}", match)
        assert match, dims


def test_e5_piecewise_closed_form(benchmark, table):
    """E5b: the exact §6.1 piece list from the multiparametric machinery."""
    nest = matmul(4, 4, 4)
    pvf = benchmark(lambda: parametric_tile_exponent(nest))
    pieces = {(p.constant, p.coeffs) for p in pvf.pieces}
    expected = {
        (F(3, 2), (F(0), F(0), F(0))),
        (F(1), (F(1), F(0), F(0))),
        (F(1), (F(0), F(1), F(0))),
        (F(1), (F(0), F(0), F(1))),
        (F(0), (F(1), F(1), F(1))),
    }
    assert pieces == expected
    t = table("e5_matmul_pieces", ["piece (tile exponent)", "communication term"])
    names = ["b1", "b2", "b3"]
    for p, c in zip(pvf.pieces, pvf.communication_pieces()):
        t.add(p.render(names), c.render(names))
