"""Tests for the loop-nest IR (repro.core.loopnest)."""

from fractions import Fraction as F

import pytest

from repro.core.loopnest import ArrayRef, LoopNest, LoopNestError
from repro.library.problems import matmul, pointwise_conv


class TestArrayRef:
    def test_valid(self):
        a = ArrayRef("A", (0, 2))
        assert a.contains(0) and not a.contains(1)
        assert a.project((7, 8, 9)) == (7, 9)

    def test_empty_support_ok(self):
        a = ArrayRef("scalar", ())
        assert a.project((1, 2)) == ()

    def test_unsorted_support_rejected(self):
        with pytest.raises(LoopNestError):
            ArrayRef("A", (2, 0))

    def test_duplicate_support_rejected(self):
        with pytest.raises(LoopNestError):
            ArrayRef("A", (1, 1))

    def test_negative_support_rejected(self):
        with pytest.raises(LoopNestError):
            ArrayRef("A", (-1, 0))

    def test_empty_name_rejected(self):
        with pytest.raises(LoopNestError):
            ArrayRef("", (0,))


class TestLoopNestValidation:
    def test_matmul_valid(self):
        mm = matmul(4, 5, 6)
        assert mm.depth == 3
        assert mm.num_arrays == 3
        assert mm.num_operations == 120

    def test_bounds_length_mismatch(self):
        with pytest.raises(LoopNestError):
            LoopNest("bad", ("i", "j"), (4,), (ArrayRef("A", (0,)),))

    def test_duplicate_loops(self):
        with pytest.raises(LoopNestError):
            LoopNest("bad", ("i", "i"), (4, 4), (ArrayRef("A", (0, 1)),))

    def test_zero_bound(self):
        with pytest.raises(LoopNestError):
            LoopNest("bad", ("i",), (0,), (ArrayRef("A", (0,)),))

    def test_no_arrays(self):
        with pytest.raises(LoopNestError):
            LoopNest("bad", ("i",), (4,), ())

    def test_duplicate_array_names(self):
        with pytest.raises(LoopNestError):
            LoopNest(
                "bad", ("i",), (4,), (ArrayRef("A", (0,)), ArrayRef("A", (0,)))
            )

    def test_support_out_of_range(self):
        with pytest.raises(LoopNestError):
            LoopNest("bad", ("i",), (4,), (ArrayRef("A", (0, 1)),))

    def test_iteration_count_must_fit_a_float(self):
        assert matmul(10**305, 40, 1).num_operations == 4 * 10**306
        with pytest.raises(LoopNestError, match="more than a float can hold"):
            matmul(10**307, 40, 1)

    def test_uncovered_loop_rejected(self):
        # Loop j appears in no support -> paper's w.l.o.g. assumption violated.
        with pytest.raises(LoopNestError, match="appear in no array"):
            LoopNest("bad", ("i", "j"), (4, 4), (ArrayRef("A", (0,)),))


class TestDerivedStructure:
    def test_support_matrix(self):
        mm = matmul(4, 4, 4)
        assert mm.support_matrix() == [[1, 0, 1], [1, 1, 0], [0, 1, 1]]

    def test_arrays_containing(self):
        mm = matmul(4, 4, 4)
        # Loop x2 (pos 1) appears in A (idx 1) and B (idx 2).
        assert mm.arrays_containing(1) == (1, 2)

    def test_array_sizes(self):
        mm = matmul(4, 5, 6)
        assert mm.array_size(0) == 24  # C: 4*6
        assert mm.array_size(1) == 20  # A: 4*5
        assert mm.array_size(2) == 30  # B: 5*6
        assert mm.total_footprint() == 74

    def test_betas_exact_for_powers(self):
        mm = matmul(2**8, 2**8, 2**4)
        assert mm.betas(2**16) == [F(1, 2), F(1, 2), F(1, 4)]

    def test_loop_position_and_array_lookup(self):
        mm = matmul(4, 4, 4)
        assert mm.loop_position("x2") == 1
        assert mm.array("B").support == (1, 2)
        with pytest.raises(LoopNestError):
            mm.loop_position("zz")
        with pytest.raises(LoopNestError):
            mm.array("zz")


class TestTransforms:
    def test_with_bounds_sequence(self):
        mm = matmul(4, 4, 4).with_bounds([8, 9, 10])
        assert mm.bounds == (8, 9, 10)

    def test_with_bounds_mapping(self):
        mm = matmul(4, 4, 4).with_bounds({"x3": 1})
        assert mm.bounds == (4, 4, 1)

    def test_permuted_roundtrip(self):
        mm = matmul(4, 5, 6)
        p = mm.permuted([2, 0, 1])
        assert p.loops == ("x3", "x1", "x2")
        assert p.bounds == (6, 4, 5)
        # A had support (x1, x2) = positions (0,1); now positions (1,2).
        assert p.array("A").support == (1, 2)

    def test_permuted_invalid(self):
        with pytest.raises(LoopNestError):
            matmul(4, 4, 4).permuted([0, 0, 1])

    def test_restricted_slices(self):
        mm = matmul(4, 5, 6).restricted({2: 0})
        assert mm.bounds == (4, 5, 1)
        with pytest.raises(LoopNestError):
            matmul(4, 4, 4).restricted({9: 0})


class TestIteration:
    def test_iteration_points_count(self):
        mm = matmul(2, 3, 2)
        pts = list(mm.iteration_points())
        assert len(pts) == 12
        assert pts[0] == (0, 0, 0)
        assert pts[-1] == (1, 2, 1)
        assert len(set(pts)) == 12

    def test_iteration_guard(self):
        big = matmul(1024, 1024, 1024)
        with pytest.raises(LoopNestError):
            next(big.iteration_points())

    def test_touched_elements(self):
        mm = matmul(2, 2, 2)
        pts = [(0, 0, 0), (0, 1, 0), (1, 0, 0)]
        # C = phi(x1, x3): projections are (0,0), (0,0), (1,0).
        assert mm.touched_elements(0, pts) == {(0, 0), (1, 0)}

    def test_describe_mentions_everything(self):
        text = pointwise_conv(2, 3, 4, 5, 6).describe()
        for token in ("pointwise_conv", "b<=2", "c<=3", "Out", "Image", "Filter"):
            assert token in text
