"""Tests for :mod:`repro.core.interleave` (grouping and interleaving)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interleave import PAD_INDEX, GroupLayout
from repro.core.signature import shared_layout
from repro.errors import ProtectionError


class TestConstruction:
    def test_basic_counts(self):
        layout = GroupLayout(num_weights=128, group_size=16, use_interleave=False)
        assert layout.num_groups == 8
        assert layout.padded_size == 128

    def test_padding_when_not_divisible(self):
        layout = GroupLayout(num_weights=100, group_size=16, use_interleave=False)
        assert layout.num_groups == 7
        assert layout.padded_size == 112

    @pytest.mark.parametrize("num_weights", [0, -5])
    def test_invalid_num_weights(self, num_weights):
        with pytest.raises(ProtectionError):
            GroupLayout(num_weights=num_weights, group_size=8, use_interleave=False)

    def test_invalid_group_size(self):
        with pytest.raises(ProtectionError):
            GroupLayout(num_weights=16, group_size=1, use_interleave=False)

    def test_group_size_larger_than_layer(self):
        layout = GroupLayout(num_weights=10, group_size=64, use_interleave=True)
        assert layout.num_groups == 1
        assert layout.members_of(0).size == 10

    def test_shared_layout_is_immutable(self):
        """Every store and geometry of a shape holds one layout object, so
        an assignment would regroup them all: it must raise instead."""
        layout = shared_layout(1000, 16, True, 3)
        other_holder = shared_layout(1000, 16, True, 3)
        assert other_holder is layout
        for field, value in [
            ("group_size", 8),
            ("num_weights", 10),
            ("use_interleave", False),
            ("interleave_offset", 0),
            ("num_groups", 125),
            ("padded_size", 1000),
        ]:
            with pytest.raises((dataclasses.FrozenInstanceError, AttributeError)):
                setattr(layout, field, value)
        assert other_holder.group_size == 16
        assert other_holder.num_groups == 63
        assert other_holder.groups.shape == (63, 16)

    def test_describe_keys(self):
        layout = GroupLayout(num_weights=64, group_size=8, use_interleave=True)
        description = layout.describe()
        assert description["num_weights"] == 64
        assert description["num_groups"] == 8
        assert description["interleaved"] == 1


class TestContiguousLayout:
    def test_groups_are_contiguous_blocks(self):
        layout = GroupLayout(num_weights=32, group_size=8, use_interleave=False)
        np.testing.assert_array_equal(layout.members_of(0), np.arange(0, 8))
        np.testing.assert_array_equal(layout.members_of(3), np.arange(24, 32))

    def test_group_of_matches_blocks(self):
        layout = GroupLayout(num_weights=32, group_size=8, use_interleave=False)
        assert layout.group_of(0) == 0
        assert layout.group_of(7) == 0
        assert layout.group_of(8) == 1
        assert layout.group_of(31) == 3


class TestInterleavedLayout:
    def test_members_are_spread_apart(self):
        """Interleaved group members are never adjacent in memory.

        With the t-interleave the gap between consecutive members is either
        ``num_groups + t`` or (when the rotation wraps) ``t``, so it is always
        at least the offset ``t`` and most gaps span a whole row of
        ``num_groups`` indices.
        """
        layout = GroupLayout(num_weights=128, group_size=8, use_interleave=True)
        for group_index in range(layout.num_groups):
            members = np.sort(layout.members_of(group_index))
            gaps = np.diff(members)
            assert gaps.min() >= layout.interleave_offset
            assert gaps.max() >= layout.num_groups

    def test_basic_interleave_matches_fig3(self):
        """With t = 0, N = 16 groups of N_W = 8: group 0 holds 0, 16, 32, ..."""
        layout = GroupLayout(
            num_weights=128, group_size=8, use_interleave=True, interleave_offset=0
        )
        np.testing.assert_array_equal(np.sort(layout.members_of(0)), np.arange(0, 128, 16))

    def test_offset_rotates_rows(self):
        """With t = 3, consecutive rows of the index matrix are rotated by 3."""
        layout = GroupLayout(
            num_weights=64, group_size=8, use_interleave=True, interleave_offset=3
        )
        # Index 0 (row 0, column 0) is in group 0; index 8 (row 1, column 0)
        # is in group (0 - 3) mod 8 = 5.
        assert layout.group_of(0) == 0
        assert layout.group_of(8) == 5

    def test_single_group_degenerates_to_contiguous(self):
        layout = GroupLayout(num_weights=16, group_size=16, use_interleave=True)
        np.testing.assert_array_equal(np.sort(layout.members_of(0)), np.arange(16))


class TestPartitionInvariants:
    @pytest.mark.parametrize("use_interleave", [False, True])
    @pytest.mark.parametrize("num_weights,group_size", [(64, 8), (100, 16), (37, 5), (513, 32)])
    def test_groups_form_a_partition(self, num_weights, group_size, use_interleave):
        layout = GroupLayout(
            num_weights=num_weights, group_size=group_size, use_interleave=use_interleave
        )
        all_members = np.concatenate(
            [layout.members_of(g) for g in range(layout.num_groups)]
        )
        assert all_members.size == num_weights
        np.testing.assert_array_equal(np.sort(all_members), np.arange(num_weights))

    @pytest.mark.parametrize("use_interleave", [False, True])
    def test_group_of_consistent_with_members_of(self, use_interleave):
        layout = GroupLayout(num_weights=90, group_size=16, use_interleave=use_interleave)
        for group_index in range(layout.num_groups):
            for member in layout.members_of(group_index):
                assert layout.group_of(int(member)) == group_index

    def test_groups_matrix_pads_with_sentinel(self):
        layout = GroupLayout(num_weights=20, group_size=8, use_interleave=False)
        groups = layout.groups
        assert groups.shape == (3, 8)
        assert (groups == PAD_INDEX).sum() == 4

    def test_groups_property_returns_copy(self):
        layout = GroupLayout(num_weights=16, group_size=4, use_interleave=False)
        groups = layout.groups
        groups[:] = -99
        assert (layout.groups != -99).any()


class TestGatherScatter:
    def test_gather_places_values_by_group(self):
        layout = GroupLayout(num_weights=16, group_size=4, use_interleave=False)
        values = np.arange(16, dtype=np.int64)
        gathered = layout.gather(values)
        np.testing.assert_array_equal(gathered[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(gathered[3], [12, 13, 14, 15])

    def test_gather_pads_with_zeros(self):
        layout = GroupLayout(num_weights=6, group_size=4, use_interleave=False)
        gathered = layout.gather(np.ones(6, dtype=np.int64))
        assert gathered.shape == (2, 4)
        assert gathered.sum() == 6  # the two padded slots contribute nothing

    def test_gather_rejects_wrong_shape(self):
        layout = GroupLayout(num_weights=8, group_size=4, use_interleave=False)
        with pytest.raises(ProtectionError):
            layout.gather(np.ones(9))

    def test_member_indices_cover_exactly_the_flagged_groups(self):
        layout = GroupLayout(num_weights=64, group_size=8, use_interleave=True)
        members = layout.member_indices(np.array([2, 5]))
        mask = np.zeros(64, dtype=bool)
        mask[members] = True
        expected = np.zeros(64, dtype=bool)
        expected[layout.members_of(2)] = True
        expected[layout.members_of(5)] = True
        np.testing.assert_array_equal(mask, expected)
        assert members.size == 16

    def test_member_indices_accepts_scalar(self):
        layout = GroupLayout(num_weights=32, group_size=8, use_interleave=False)
        members = layout.member_indices(np.int64(1))
        assert members.size == 8

    def test_member_indices_empty(self):
        layout = GroupLayout(num_weights=32, group_size=8, use_interleave=False)
        assert layout.member_indices(np.empty(0, dtype=np.int64)).size == 0

    def test_out_of_range_queries_raise(self):
        layout = GroupLayout(num_weights=32, group_size=8, use_interleave=False)
        with pytest.raises(ProtectionError):
            layout.group_of(32)
        with pytest.raises(ProtectionError):
            layout.group_of(-1)
        with pytest.raises(ProtectionError):
            layout.members_of(4)
        with pytest.raises(ProtectionError):
            layout.member_indices(np.array([0, 4]))
        with pytest.raises(ProtectionError):
            layout.member_indices(np.array([-1]))


class TestPropertyBased:
    @given(
        num_weights=st.integers(min_value=2, max_value=400),
        group_size=st.integers(min_value=2, max_value=64),
        use_interleave=st.booleans(),
        offset=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, num_weights, group_size, use_interleave, offset):
        layout = GroupLayout(
            num_weights=num_weights,
            group_size=group_size,
            use_interleave=use_interleave,
            interleave_offset=offset,
        )
        seen = np.concatenate([layout.members_of(g) for g in range(layout.num_groups)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(num_weights))
        # Every group has at most group_size members and at least one
        # (padding-only groups are impossible because padding is < group_size per group).
        sizes = [layout.members_of(g).size for g in range(layout.num_groups)]
        assert max(sizes) <= group_size
        assert sum(sizes) == num_weights

    @given(
        num_weights=st.integers(min_value=4, max_value=300),
        group_size=st.integers(min_value=2, max_value=32),
        use_interleave=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_gather_preserves_total_sum(self, num_weights, group_size, use_interleave):
        layout = GroupLayout(
            num_weights=num_weights, group_size=group_size, use_interleave=use_interleave
        )
        values = np.arange(1, num_weights + 1, dtype=np.int64)
        assert layout.gather(values).sum() == values.sum()


class TestSlotShiftDetection:
    """Fuse-time rotated-arange detection (:meth:`GroupLayout.slot_shifts`)."""

    def test_non_interleaved_is_never_structured(self):
        layout = GroupLayout(num_weights=128, group_size=8, use_interleave=False)
        assert layout.slot_shifts() is None

    def test_zero_offset_is_never_structured(self):
        # t = 0 interleaves (column = group id, no rotation) gather each
        # slot as a plain contiguous block; the analytic hint would be all
        # zeros, which the detector declines — the general gather already
        # serves an unrotated block at full speed.
        layout = GroupLayout(
            num_weights=128, group_size=8, use_interleave=True, interleave_offset=0
        )
        assert layout.slot_shifts() is None

    def test_single_group_is_never_structured(self):
        layout = GroupLayout(num_weights=12, group_size=16, use_interleave=True)
        assert layout.num_groups == 1
        assert layout.slot_shifts() is None

    def test_offset_multiple_of_num_groups_is_zero_rotation(self):
        # 64 weights / group size 8 -> 8 groups; t = 16 rotates by
        # 16 mod 8 = 0 per row, i.e. not at all.
        layout = GroupLayout(
            num_weights=64, group_size=8, use_interleave=True, interleave_offset=16
        )
        assert layout.slot_shifts() is None

    @settings(max_examples=80, deadline=None)
    @given(
        num_weights=st.integers(min_value=8, max_value=2048),
        group_size=st.integers(min_value=2, max_value=64),
        offset=st.integers(min_value=0, max_value=17),
    )
    def test_claimed_shifts_reproduce_the_index_matrix(
        self, num_weights, group_size, offset
    ):
        """Any claimed shift vector must be *provably* the layer's layout.

        This includes offsets that share a factor with ``num_groups``
        (t = 3 with 21 groups, say): coprimality changes which groups the
        rotation cycles through, but each slot row is still a contiguous
        block rotated by ``(r * t) mod N`` — exactly what the band path's
        strided views need — so such layouts are claimed, not declined.
        """
        layout = GroupLayout(
            num_weights=num_weights,
            group_size=group_size,
            use_interleave=True,
            interleave_offset=offset,
        )
        shifts = layout.slot_shifts()
        if layout.num_groups == 1 or offset % layout.num_groups == 0:
            assert shifts is None
            return
        assert shifts is not None
        assert shifts.shape == (group_size,)
        n = layout.num_groups
        expected = (
            np.arange(group_size, dtype=np.int64)[:, None] * n
            + (np.arange(n, dtype=np.int64)[None, :] + shifts[:, None]) % n
        ).T
        matrix = layout.groups
        valid = matrix != PAD_INDEX
        np.testing.assert_array_equal(matrix[valid], expected[valid])


def _reference_layout(num_weights, group_size, use_interleave, offset):
    """The argsort construction the closed form replaced: per-weight group
    ids, and the (num_groups, group_size) matrix their stable sort gives."""
    num_groups = -(-num_weights // group_size)
    indices = np.arange(num_groups * group_size, dtype=np.int64)
    if not use_interleave or num_groups == 1:
        group_of = indices // group_size
    else:
        rows, columns = indices // num_groups, indices % num_groups
        group_of = (columns - rows * offset) % num_groups
    groups = np.argsort(group_of, kind="stable").reshape(num_groups, group_size)
    return group_of[:num_weights], np.where(groups < num_weights, groups, PAD_INDEX)


class TestClosedFormAgainstReference:
    """Every query of the closed-form layout against the argsort reference,
    over every layer size 1..70, five group sizes, both layouts and offsets
    0, 1, 3, ``N`` and ``N + 3``."""

    @pytest.mark.parametrize("use_interleave", [False, True])
    @pytest.mark.parametrize("group_size", [2, 3, 4, 8, 16])
    def test_every_query_matches_the_reference(self, group_size, use_interleave):
        rng = np.random.default_rng(group_size)
        for num_weights in range(1, 71):
            num_groups = -(-num_weights // group_size)
            values = rng.integers(-128, 128, size=num_weights).astype(np.int8)
            for offset in sorted({0, 1, 3, num_groups, num_groups + 3}):
                layout = GroupLayout(num_weights, group_size, use_interleave, offset)
                group_of, groups = _reference_layout(
                    num_weights, group_size, use_interleave, offset
                )
                case = (num_weights, offset)
                assert layout.num_groups == num_groups, case
                assert layout.padded_size == num_groups * group_size, case
                np.testing.assert_array_equal(layout.groups, groups, err_msg=str(case))
                assert [layout.group_of(index) for index in range(num_weights)] == (
                    group_of.tolist()
                ), case
                for group in range(num_groups):
                    members = groups[group]
                    np.testing.assert_array_equal(
                        layout.members_of(group), members[members != PAD_INDEX]
                    )
                picked = rng.integers(0, num_groups, size=3)
                expected = groups[np.unique(picked)].reshape(-1)
                np.testing.assert_array_equal(
                    layout.member_indices(picked), expected[expected != PAD_INDEX]
                )
                gathered = np.where(groups != PAD_INDEX, values[groups], 0)
                for dtype in (np.int8, np.int64):
                    full = layout.gather(values, dtype=dtype)
                    assert full.dtype == dtype
                    np.testing.assert_array_equal(full, gathered)
                    np.testing.assert_array_equal(
                        layout.gather_rows(values, picked, dtype=dtype), gathered[picked]
                    )
                shifts = layout.slot_shifts()
                if not use_interleave or num_groups == 1 or offset % num_groups == 0:
                    assert shifts is None, case
                    continue
                np.testing.assert_array_equal(
                    shifts, np.arange(group_size) * offset % num_groups
                )
                rotated = (
                    np.arange(group_size)[None, :] * num_groups
                    + (np.arange(num_groups)[:, None] + shifts[None, :]) % num_groups
                )
                valid = groups != PAD_INDEX
                np.testing.assert_array_equal(groups[valid], rotated[valid])
