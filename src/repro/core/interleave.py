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
from typing import Dict, Optional

import numpy as np

from repro.errors import ProtectionError

PAD_INDEX = -1


@dataclass
class GroupLayout:
    """The mapping between original weight indices and checksum groups."""

    num_weights: int
    group_size: int
    use_interleave: bool
    interleave_offset: int = 3

    def __post_init__(self) -> None:
        if self.num_weights <= 0:
            raise ProtectionError(f"num_weights must be positive, got {self.num_weights}")
        if self.group_size < 2:
            raise ProtectionError(f"group_size must be >= 2, got {self.group_size}")
        self.num_groups = int(np.ceil(self.num_weights / self.group_size))
        self.padded_size = self.num_groups * self.group_size
        self._group_of_index = self._build_group_assignment()
        self._groups = self._build_groups()
        # Equal-shaped layers share one layout (see SignatureStore), so its
        # maps are write-locked: a stray in-place write would otherwise
        # regroup every store holding it.
        self._group_of_index.setflags(write=False)
        self._groups.setflags(write=False)

    # -- construction --------------------------------------------------------
    def _build_group_assignment(self) -> np.ndarray:
        indices = np.arange(self.padded_size, dtype=np.int64)
        if not self.use_interleave or self.num_groups == 1:
            return indices // self.group_size
        rows = indices // self.num_groups
        columns = indices % self.num_groups
        return (columns - rows * self.interleave_offset) % self.num_groups

    def _build_groups(self) -> np.ndarray:
        """(num_groups, group_size) matrix of original indices (PAD_INDEX for padding).

        Every block of ``num_groups`` consecutive indices assigns exactly one
        member to each group (the t-interleave is a per-row rotation), so a
        stable sort by group id yields exactly ``group_size`` members per
        group and the reshape below is well-defined.
        """
        order = np.argsort(self._group_of_index, kind="stable")
        groups = order.reshape(self.num_groups, self.group_size)
        return np.where(groups < self.num_weights, groups, PAD_INDEX)

    # -- queries --------------------------------------------------------------
    @property
    def groups(self) -> np.ndarray:
        """Copy of the (num_groups, group_size) index matrix."""
        return self._groups.copy()

    @property
    def index_matrix(self) -> np.ndarray:
        """The write-locked (num_groups, group_size) index matrix itself.

        :attr:`groups` without the copy, for callers that only read it
        (the scan kernel builds its geometry from it).
        """
        return self._groups

    def group_of(self, flat_index: int) -> int:
        """Group id of an original weight index."""
        if not 0 <= flat_index < self.num_weights:
            raise ProtectionError(
                f"flat_index {flat_index} out of range for layer of {self.num_weights} weights"
            )
        return int(self._group_of_index[flat_index])

    def members_of(self, group_index: int) -> np.ndarray:
        """Original weight indices belonging to ``group_index`` (padding removed)."""
        if not 0 <= group_index < self.num_groups:
            raise ProtectionError(
                f"group_index {group_index} out of range ({self.num_groups} groups)"
            )
        members = self._groups[group_index]
        return members[members != PAD_INDEX].copy()

    def gather(self, flat_values: np.ndarray, dtype=np.int64) -> np.ndarray:
        """Arrange ``flat_values`` into the (num_groups, group_size) layout.

        Padded slots are filled with zeros, which is neutral for the
        addition checksum.  ``dtype`` selects the gathered dtype; the
        default promotes to int64 (the historical behaviour), while the
        narrow-accumulation checksum path gathers int8 weights as int8 and
        defers widening to the accumulator.
        """
        flat_values = np.asarray(flat_values)
        if flat_values.shape != (self.num_weights,):
            raise ProtectionError(
                f"Expected a flat array of {self.num_weights} values, got shape {flat_values.shape}"
            )
        gathered = np.zeros((self.num_groups, self.group_size), dtype=dtype)
        valid = self._groups != PAD_INDEX
        gathered[valid] = flat_values[self._groups[valid]]
        return gathered

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
        rows = self._groups[group_indices]
        valid = rows != PAD_INDEX
        gathered = np.zeros(rows.shape, dtype=dtype)
        gathered[valid] = flat_values[rows[valid]]
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
        members = self._groups[group_indices].reshape(-1)
        return members[members != PAD_INDEX]

    def slot_shifts(self) -> Optional[np.ndarray]:
        """Per-slot rotations of the rotated-arange gather structure, if any.

        For a t-interleaved layout, group ``g``'s member at slot ``r`` sits
        at original index ``r * N + (g + s_r) % N`` with ``N = num_groups``
        and ``s_r = (r * t) % N`` — i.e. slot ``r``'s gather column over all
        groups is the contiguous block ``[r * N, (r + 1) * N)`` rotated left
        by ``s_r``.  Equivalently, slot ``r`` of group ``g`` sits at
        ``r * (N + t) + g - m * N`` with ``m = (r * t + g) // N``: for each
        wrap count ``m`` a uniform-strided view of the weights.  That is
        what lets the scan kernel replace the fancy gather with einsums over
        strided views (:class:`~repro.core.signature.PlaneStructure`).

        Returns the ``(group_size,)`` int64 shift vector, or ``None`` for
        layouts the detector deliberately does not claim and the kernel
        serves through the general gather instead: contiguous layouts (slot
        columns are stride-``G`` sequences, not rotations), single-group
        layouts (one group per slot row — nothing a strided view would
        batch), and zero-rotation interleaves (``t % N == 0``: every shift
        collapses to 0 — the detector is deliberately conservative and only
        claims proper rotations, so degenerate edge cases ride the
        always-correct general gather instead of a special branch).
        Offsets *not coprime*
        with ``N`` are still proper rotations (``s_r`` just cycles through
        ``gcd(t, N)``-step values) and are claimed — real layer sizes are
        routinely divisible by the paper's ``t = 3``.
        """
        if not self.use_interleave or self.num_groups == 1:
            return None
        if self.interleave_offset % self.num_groups == 0:
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
