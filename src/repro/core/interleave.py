"""Grouping and interleaving of a layer's weights for checksum computation.

Two layouts are supported (Fig. 3 of the paper):

* **contiguous** (``use_interleave=False``): group ``j`` holds weights
  ``[j*G, (j+1)*G)`` — the natural memory order.
* **t-interleave** (``use_interleave=True``): with ``N_p`` groups, weight
  ``i`` belongs to group ``((i mod N_p) - (i // N_p) * t) mod N_p``.  With
  ``t = 0`` this is the basic interleave of Fig. 3(a) (group = ``i mod
  N_p``, i.e. members are ``N_p`` locations apart); the paper uses an
  additional offset ``t = 3`` so consecutive rows are rotated against each
  other, which is Fig. 3(b).

Layers whose weight count is not divisible by ``G`` are padded with
virtual zero weights (the paper does the same); padded slots never map
back to real weights during recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ProtectionError

PAD_INDEX = -1


@dataclass(frozen=True)
class GroupLayout:
    """The mapping between original weight indices and checksum groups.

    A closed form with no per-weight array.  Frozen: equal-shaped layers
    share one layout (:func:`~repro.core.signature.shared_layout`).
    """

    num_weights: int
    group_size: int
    use_interleave: bool
    interleave_offset: int = 3

    def __post_init__(self) -> None:
        if self.num_weights <= 0:
            raise ProtectionError(f"num_weights must be positive, got {self.num_weights}")
        if self.group_size < 2:
            raise ProtectionError(f"group_size must be >= 2, got {self.group_size}")

    @cached_property
    def num_groups(self) -> int:
        return -(-self.num_weights // self.group_size)

    @cached_property
    def padded_size(self) -> int:
        return self.num_groups * self.group_size

    @cached_property
    def _slot_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Write-locked ``(G, 1)`` columns: group 0's member at slot ``r``
        and the end of its row, ``(r + 1) * N``; int32 when the layer fits."""
        slots = np.arange(self.group_size, dtype=np.int64)[:, None]
        n = self.num_groups
        first = slots * n + slots * self.interleave_offset % n if self.use_interleave else slots
        dtype = np.int32 if self.padded_size <= np.iinfo(np.int32).max else np.int64
        bounds = (first.astype(dtype), ((slots + 1) * n).astype(dtype))
        for bound in bounds:
            bound.setflags(write=False)
        return bounds

    # -- the closed form -------------------------------------------------------
    def slot_indices(self, group_indices: np.ndarray) -> np.ndarray:
        """``(k, group_size)`` original indices of the given groups' slots.

        Contiguous group ``g`` holds ``g * G + r`` at slot ``r``;
        t-interleaved group ``g`` holds ``r * N + (g + r * t) mod N``, its
        one member in each row of ``N = num_groups`` weights.  Padded slots
        read :data:`PAD_INDEX`.  Every index query, and the scan kernel's
        structure proof, goes through this method.
        """
        first, stop = self._slot_bounds
        groups = np.asarray(group_indices).astype(first.dtype, copy=False)
        # Built slot-major, so every ufunc streams along the long group axis.
        if self.use_interleave:
            indices = first + groups
            # g + s_r < 2N, so "mod N" is one conditional subtraction.
            np.subtract(indices, self.num_groups, out=indices, where=indices >= stop)
        else:
            indices = first + groups * self.group_size
        if self.padded_size > self.num_weights:
            indices[indices >= self.num_weights] = PAD_INDEX
        return indices.T

    # -- queries --------------------------------------------------------------
    @property
    def groups(self) -> np.ndarray:
        """The (num_groups, group_size) index matrix, computed afresh."""
        return self.slot_indices(np.arange(self.num_groups))

    def group_of(self, flat_index: int) -> int:
        """Group id of an original weight index."""
        if not 0 <= flat_index < self.num_weights:
            raise ProtectionError(
                f"flat_index {flat_index} out of range for layer of {self.num_weights} weights"
            )
        flat_index = int(flat_index)
        if not self.use_interleave:
            return flat_index // self.group_size
        n = self.num_groups
        return (flat_index % n - (flat_index // n) * self.interleave_offset) % n

    def members_of(self, group_index: int) -> np.ndarray:
        """Original weight indices belonging to ``group_index`` (padding removed)."""
        if not 0 <= group_index < self.num_groups:
            raise ProtectionError(
                f"group_index {group_index} out of range ({self.num_groups} groups)"
            )
        return self.member_indices(np.array([group_index]))

    def gather(self, flat_values: np.ndarray, dtype=np.int64) -> np.ndarray:
        """Arrange ``flat_values`` into the (num_groups, group_size) layout.

        Padded slots are filled with zeros, which is neutral for the
        addition checksum.  ``dtype`` selects the gathered dtype; the
        default promotes to int64 (the historical behaviour), while the
        narrow-accumulation checksum path gathers int8 weights as int8 and
        defers widening to the accumulator.
        """
        return self.gather_rows(flat_values, np.arange(self.num_groups), dtype)

    def gather_rows(
        self, flat_values: np.ndarray, group_indices: np.ndarray, dtype=np.int64
    ) -> np.ndarray:
        """:meth:`gather` restricted to a subset of group rows.

        This is the amortized-scan fast path: the cost is proportional to
        ``len(group_indices) * group_size`` rather than to the layer size,
        so verifying a slice of a layer's groups does not pay for the rest.
        """
        flat_values = np.asarray(flat_values)
        if flat_values.shape != (self.num_weights,):
            raise ProtectionError(
                f"Expected a flat array of {self.num_weights} values, got shape {flat_values.shape}"
            )
        group_indices = np.atleast_1d(np.asarray(group_indices, dtype=np.int64))
        if group_indices.size and not (
            0 <= group_indices.min() and group_indices.max() < self.num_groups
        ):
            raise ProtectionError(
                f"group indices out of range ({self.num_groups} groups)"
            )
        rows = self.slot_indices(group_indices)
        # A padded slot's PAD_INDEX (-1) reads the last weight; zero it after.
        gathered = flat_values.take(rows).astype(dtype, copy=False)
        if self.padded_size > self.num_weights:
            gathered[rows == PAD_INDEX] = 0
        return gathered

    def member_indices(self, group_indices: np.ndarray) -> np.ndarray:
        """Original weight indices of all members of the given groups.

        Used by the recovery step: every weight whose group is flagged is
        zeroed (or reloaded).  Padding slots are excluded and a group listed
        twice contributes its members once.  The cost is proportional to
        ``len(group_indices) * group_size``, not to the layer size.
        """
        group_indices = np.unique(np.asarray(group_indices, dtype=np.int64))
        if group_indices.size and not (
            0 <= group_indices[0] and group_indices[-1] < self.num_groups
        ):
            raise ProtectionError(
                f"group indices out of range ({self.num_groups} groups)"
            )
        members = self.slot_indices(group_indices).reshape(-1)
        return members[members != PAD_INDEX]

    def slot_shifts(self) -> Optional[np.ndarray]:
        """Per-slot rotations ``s_r = (r * t) % N`` of an interleaved layout.

        Slot ``r``'s members over all groups are the block ``[r * N, (r +
        1) * N)`` rotated left by ``s_r``, so for each wrap count ``m = (r *
        t + g) // N`` they form a uniform-strided view of the weights at
        ``r * (N + t) + g - m * N``: what the scan kernel's band path
        (:class:`~repro.core.signature.PlaneStructure`) sums without a
        gather.  ``None`` for the layouts it deliberately leaves to the
        general gather: contiguous ones, and interleaves with no rotation
        (``t % N == 0``, which includes a single group).  Offsets sharing a
        factor with ``N`` are still proper rotations and are claimed.
        """
        if not self.use_interleave or self.interleave_offset % self.num_groups == 0:
            return None
        return (
            np.arange(self.group_size, dtype=np.int64) * self.interleave_offset
        ) % self.num_groups

    def describe(self) -> Dict[str, int]:
        """Small summary used by reports and tests."""
        return {
            "num_weights": self.num_weights,
            "group_size": self.group_size,
            "num_groups": self.num_groups,
            "padded_size": self.padded_size,
            "interleaved": int(self.use_interleave),
        }
