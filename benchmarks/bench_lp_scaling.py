"""E13: the "efficiently computable" claim — pipeline cost vs d and n.

The paper emphasises that for projective nests the HBL constraint list
collapses to d rows (§3), so bounds and tilings come from *small* LPs.
This bench times the full pipeline as depth and array count grow, and
the exponential-in-d subset scan for contrast (the thing Theorem 3
makes unnecessary).
"""

import pytest

from repro.core.bounds import subset_scan, tile_exponent
from repro.core.duality import theorem3_certificate
from repro.core.loopnest import ArrayRef, LoopNest
from repro.core.tiling import solve_tiling


def _chain_nest(d: int) -> LoopNest:
    """Depth-d chain contraction: array j touches loops (j, j+1)."""
    arrays = [ArrayRef("Out", (0, d - 1), is_output=True)]
    for j in range(d - 1):
        arrays.append(ArrayRef(f"A{j}", (j, j + 1)))
    return LoopNest(
        name=f"chain{d}",
        loops=tuple(f"x{i}" for i in range(d)),
        bounds=tuple(2**6 for _ in range(d)),
        arrays=tuple(arrays),
    )


def _star_nest(n: int) -> LoopNest:
    """n arrays sharing loop 0, each owning one private loop."""
    arrays = [ArrayRef("Hub", (0,), is_output=True)]
    for j in range(n):
        arrays.append(ArrayRef(f"S{j}", (0, j + 1)))
    return LoopNest(
        name=f"star{n}",
        loops=tuple(f"x{i}" for i in range(n + 1)),
        bounds=tuple(2**6 for _ in range(n + 1)),
        arrays=tuple(arrays),
    )


M = 2**12


@pytest.mark.parametrize("d", [3, 5, 7, 9], ids=lambda d: f"d{d}")
def test_e13_pipeline_vs_depth(benchmark, d, table):
    nest = _chain_nest(d)

    def pipeline():
        sol = solve_tiling(nest, M)
        cert = theorem3_certificate(nest, M)
        return sol, cert

    sol, cert = benchmark(pipeline)
    assert cert.tight
    t = table(f"e13_depth_{d}", ["d", "n", "k_hat", "tight"])
    t.add(nest.depth, nest.num_arrays, sol.exponent, cert.tight)


@pytest.mark.parametrize("n", [2, 4, 8, 12], ids=lambda n: f"n{n}")
def test_e13_pipeline_vs_arrays(benchmark, n, table):
    nest = _star_nest(n)

    def pipeline():
        sol = solve_tiling(nest, M)
        cert = theorem3_certificate(nest, M)
        return sol, cert

    sol, cert = benchmark(pipeline)
    assert cert.tight
    t = table(f"e13_arrays_{n}", ["d", "n", "k_hat", "tight"])
    t.add(nest.depth, nest.num_arrays, sol.exponent, cert.tight)


@pytest.mark.parametrize("d", [3, 5, 7], ids=lambda d: f"d{d}")
def test_e13_subset_scan_exponential(benchmark, d, table):
    """The 2^d Theorem-2 enumeration the single LP replaces."""
    nest = _chain_nest(d)
    scan = benchmark(lambda: subset_scan(nest, M))
    assert len(scan) == 2**d
    full = tile_exponent(nest, M)
    assert min(scan.values()) == full
    t = table(f"e13_scan_{d}", ["d", "subsets", "min == LP"])
    t.add(d, len(scan), min(scan.values()) == full)
