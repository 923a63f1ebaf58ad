"""Tests for the exponential path segmentation (Eq. 5)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.decomposition.segments import decompose_path_edges


class TestBasics:
    def test_zero_length(self):
        assert decompose_path_edges(0) == []

    def test_one_edge(self):
        segs = decompose_path_edges(1)
        assert len(segs) == 1
        assert (segs[0].start, segs[0].stop) == (0, 1)

    def test_two_edges(self):
        segs = decompose_path_edges(2)
        assert segs[-1].stop == 2

    def test_negative_raises(self):
        with pytest.raises(ParameterError):
            decompose_path_edges(-1)

    def test_eight_edges_halving(self):
        segs = decompose_path_edges(8)
        # first segment covers ~half: ceil(8/2) = 4 edges
        assert segs[0].num_edges == 4
        assert segs[-1].stop == 8

    def test_segment_count_log(self):
        for length in (4, 16, 100, 1000):
            segs = decompose_path_edges(length)
            assert len(segs) <= math.floor(math.log2(length)) + 1


class TestTiling:
    @pytest.mark.parametrize("length", [1, 2, 3, 5, 7, 8, 13, 64, 100, 257])
    def test_segments_tile_path(self, length):
        segs = decompose_path_edges(length)
        covered = []
        for seg in segs:
            covered.extend(range(seg.start, seg.stop))
        assert covered == list(range(length))

    @pytest.mark.parametrize("length", [1, 3, 9, 33, 121])
    def test_indices_sequential(self, length):
        segs = decompose_path_edges(length)
        assert [s.index for s in segs] == list(range(1, len(segs) + 1))


class TestEq5Invariants:
    @pytest.mark.parametrize("length", [8, 16, 50, 128, 999])
    def test_first_half_rule(self, length):
        """Segment j covers roughly the first half of the remaining path."""
        segs = decompose_path_edges(length)
        for seg in segs[:-1]:  # the final segment absorbs the tail
            remaining = length - seg.start
            assert seg.num_edges >= remaining // 2
            assert seg.num_edges <= remaining // 2 + 1

    @pytest.mark.parametrize("length", [8, 16, 50, 128, 999])
    def test_suffix_at_least_half_of_segment(self, length):
        """Eq. 5 right inequality: sum of later segments >= |pi_j|/2 - O(1)."""
        segs = decompose_path_edges(length)
        for i, seg in enumerate(segs[:-1]):
            suffix = sum(s.num_edges for s in segs[i + 1 :])
            assert suffix >= seg.num_edges // 2 - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5000))
def test_tiling_property(length):
    segs = decompose_path_edges(length)
    assert segs[0].start == 0
    assert segs[-1].stop == length
    for a, b in zip(segs, segs[1:]):
        assert a.stop == b.start
        assert a.num_edges >= b.num_edges - 1  # non-increasing (tail slack)
