"""Closed forms of §6 vs the general LP machinery."""

from fractions import Fraction as F

import pytest

from repro.core.bounds import communication_lower_bound, tile_exponent
from repro.core.closed_forms import (
    contraction_comm_lower_bound,
    contraction_tile_exponent,
    matmul_comm_lower_bound,
    matmul_optimal_blocks,
    matmul_tile_exponent,
    nbody_comm_lower_bound,
    nbody_max_tile_size,
)
from repro.library.problems import matmul, nbody, tensor_contraction


MATMUL_SWEEP = [
    (2**10, 2**10, 2**10),
    (2**10, 2**10, 2**8),
    (2**10, 2**10, 2**4),
    (2**10, 2**4, 2**4),
    (2**4, 2**4, 2**4),
    (2**10, 2**10, 1),
    (2**12, 2**2, 2**7),
]


class TestMatmul:
    M = 2**16

    @pytest.mark.parametrize("dims", MATMUL_SWEEP)
    def test_exponent_matches_lp(self, dims):
        assert matmul_tile_exponent(*dims, self.M) == tile_exponent(matmul(*dims), self.M)

    @pytest.mark.parametrize("dims", MATMUL_SWEEP)
    def test_comm_matches_general_bound(self, dims):
        closed = matmul_comm_lower_bound(*dims, self.M)
        general = communication_lower_bound(matmul(*dims), self.M).hbl_words
        # The closed form takes the max with the array-size terms, which
        # the general machinery produces through the same exponent.
        assert general == pytest.approx(closed, rel=1e-9)

    def test_blocks_large(self):
        assert matmul_optimal_blocks(2**10, 2**10, 2**10, 2**16) == (256.0, 256.0, 256.0)

    def test_blocks_small_l3(self):
        b = matmul_optimal_blocks(2**10, 2**10, 2**4, 2**16)
        assert b[2] == 16.0
        assert max(b) == 2**16 / 16  # M / L3

    def test_matvec_bound_is_matrix_size(self):
        # §6.1: L3=1 -> comm = L1 L2.
        assert matmul_comm_lower_bound(2**10, 2**10, 1, 2**16) == float(2**20)


class TestContraction:
    M = 2**16

    @pytest.mark.parametrize(
        "groups",
        [
            ((2**5, 2**5), (2**5,), (2**5, 2**5)),
            ((2**8,), (2**2,), (2**8,)),
            ((2**2, 2**2), (2**8,), (2**2,)),
            ((2**10,), (2**10,), (2**2,)),
        ],
    )
    def test_gamma_reduction_matches_lp(self, groups):
        left, shared, right = groups
        nest = tensor_contraction(left, shared, right)
        assert contraction_tile_exponent(left, shared, right, self.M) == tile_exponent(
            nest, self.M
        )
        assert contraction_comm_lower_bound(left, shared, right, self.M) == pytest.approx(
            communication_lower_bound(nest, self.M).hbl_words, rel=1e-9
        )

    def test_paper_statement_form(self):
        # §6.2: optimum is min(3/2, 1 + min(group beta sums)) when a
        # single group is small.
        left, shared, right = (2**10,), (2**10,), (2**4,)
        k = contraction_tile_exponent(left, shared, right, self.M)
        assert k == 1 + F(4, 16)


class TestNbody:
    def test_tile_size_cases(self):
        M = 2**8
        assert nbody_max_tile_size(2**10, 2**10, M) == M * M  # both large
        assert nbody_max_tile_size(2**4, 2**10, M) == 2**4 * M  # L1 small
        assert nbody_max_tile_size(2**10, 2**4, M) == 2**4 * M  # L2 small
        assert nbody_max_tile_size(2**3, 2**4, M) == 2**7  # everything fits

    def test_tile_size_matches_lp(self):
        M = 2**8
        for dims in [(2**10, 2**10), (2**4, 2**10), (2**3, 2**4)]:
            nest = nbody(*dims)
            k = tile_exponent(nest, M)
            from repro.util.rationals import pow_fraction

            assert pow_fraction(M, k) == float(nbody_max_tile_size(*dims, M))

    def test_comm_cases(self):
        M = 2**8
        # Both large: (L1 L2 / M^2) tiles, M words each -> L1 L2 / M.
        assert nbody_comm_lower_bound(2**10, 2**10, M) == 2**20 / M
        # L1 small: tile = L1*M, (L2/M) tiles -> comm = L2 words.
        assert nbody_comm_lower_bound(2**4, 2**10, M) == float(2**10)
        # Fits in cache: formula says M words (the §6.3 caveat).
        assert nbody_comm_lower_bound(2**3, 2**4, M) == float(M)

    def test_comm_matches_general_machinery(self):
        M = 2**8
        for dims in [(2**10, 2**10), (2**4, 2**10), (2**3, 2**4), (2**6, 2**2)]:
            lb = communication_lower_bound(nbody(*dims), M)
            assert lb.hbl_words == pytest.approx(
                nbody_comm_lower_bound(*dims, M), rel=1e-12
            ), dims

    def test_caveat_flagged_by_general_machinery(self):
        lb = communication_lower_bound(nbody(2**3, 2**4), 2**8)
        assert lb.fits_in_cache()
        assert lb.value == lb.footprint_words < 2**8
