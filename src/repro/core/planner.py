"""Verification planners: the shard-selection layer of the scheduler.

The :class:`~repro.core.scheduler.ScanScheduler` delegates *which shards
a pass scans* to one :class:`VerificationPlanner` per scheduler, chosen by
its :class:`~repro.core.scheduler.ScanPolicy`, so a policy keeps its own
state (a round-robin cursor, per-shard flip-rate estimates, an epoch
permutation) out of the scan bookkeeping.  Three planners cover the four
policies: ``FULL`` is :class:`RoundRobinPlanner` with every shard in the
slice (``shards_per_pass = num_shards``).

The planner contract is deliberately small:

* :meth:`VerificationPlanner.order` — given a read-only
  :class:`ShardView` per shard, return **all** shard indices in
  scan-preference order (most urgent first) without mutating any state.  The
  scheduler truncates that order to the slice the pass can afford
  (``shards_per_pass``, further narrowed by a latency budget when one is set).
* :meth:`VerificationPlanner.committed` — feedback after the scheduler
  actually scanned a slice: which shards ran and how many flagged groups each
  produced.  This is where the cursor and epoch advance and
  :class:`PriorityExposurePlanner`'s flip-rate EWMA updates.

Keeping ``order`` pure means :meth:`ScanScheduler.plan` stays side-effect
free, and the budget truncation composes with every policy.

Starvation bound
----------------
:class:`PriorityExposurePlanner` ranks shards by ``exposure + flip_bias``
where ``flip_bias`` is **strictly less than 1**.  Exposure counts are
integers, so a shard can only be overtaken by shards whose exposure is at
least as large — the bias reorders *ties* (revisiting flip-prone shards
sooner) but can never invert a strict exposure ordering.  The scheduler's
round-robin rotation bound (``worst_case_lag_passes``) therefore survives
flip-rate tuning; ``tests/test_planner.py`` property-tests this under
injected flips.

Predictability vs. the bound
----------------------------
A *strictly sliding* starvation bound of ``B = ceil(n / slice)`` passes
forces a cyclic schedule: once every shard's next scan has a hard deadline
exactly ``B`` passes after its last one, the only order satisfying all
deadlines is a repeat of the previous rotation.  A schedule-aware attacker
(:mod:`repro.attacks.adaptive`) exploits exactly that determinism — it
observes which shards each pass scanned and fires into the shard whose
next scan is furthest away, turning the *bound* into the *guaranteed*
detection latency.  :class:`JitteredPlanner` trades the sliding bound for
a rotation-aligned one: every *epoch* of ``B`` passes covers all shards in
a fresh seeded random permutation, so consecutive scans of one shard are
at most ``2B - 1`` passes apart (late in one epoch, early in the next is
the best an attacker can rely on; the worst case is early then late).
Planners declare that relaxation via :attr:`rotation_lag_multiplier`,
which the scheduler folds into ``worst_case_lag_passes``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import ProtectionError


class ShardView(NamedTuple):
    """Read-only state of one shard, as planners see it.

    A ``NamedTuple`` rather than a dataclass: the scheduler materializes one
    view per shard per committed pass, and on a large fleet that creation
    cost is on the engine's hot tick path.
    """

    index: int
    num_groups: int
    exposure_passes: int
    times_scanned: int
    times_flagged: int


class VerificationPlanner(ABC):
    """Orders shards for scanning; sees feedback after every committed pass."""

    #: Planners whose :meth:`order` reads per-pass shard state (exposure,
    #: flip counts) keep this True.  State-blind planners (cyclic orders use
    #: only the shard *count*) set it False, letting the scheduler hand
    #: :meth:`order` a static view tuple instead of refreshing every view
    #: each pass — a measurable saving on the fleet engine's tick path.
    uses_shard_state: bool = True

    #: Factor the scheduler multiplies into ``worst_case_lag_passes``.
    #: Cyclic planners guarantee a scan within one rotation (1); planners
    #: that randomize the order inside rotation-aligned epochs
    #: (:class:`JitteredPlanner`) guarantee it within two (2) — the price
    #: of being unpredictable to a schedule-aware attacker.
    rotation_lag_multiplier: int = 1

    @abstractmethod
    def order(self, shards: Sequence[ShardView]) -> List[int]:
        """All shard indices, most scan-worthy first.  Must not mutate state.

        The returned indices are built-in ``int``s — plans flow into scan
        results and event details (persisted as JSON), so no NumPy scalars
        may leak out of a planner.
        """

    def committed(
        self, shard_indices: Sequence[int], flagged_counts: Mapping[int, int]
    ) -> None:
        """The scheduler scanned ``shard_indices``; ``flagged_counts`` maps
        each scanned shard to the number of flagged groups it produced."""

    def reset(self) -> None:
        """Clear rotation-cursor state ahead of a fresh rotation.

        Called by :meth:`~repro.core.scheduler.ScanScheduler.restart` when
        the engine's REPROTECTING step has re-signed the store in place and
        the scheduler starts its rotation over.  Only *positional* state
        should clear; *learned* statistics (e.g. per-shard flip rates)
        survive on purpose — the shard that was just attacked stays a
        priority in the fresh rotation.
        """

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the planner's mutable state.

        What :mod:`repro.telemetry.store` persists across service restarts:
        positional cursors *and* learned statistics, so a restored planner
        resumes exactly where the saved one stopped (same next slice, same
        flip-rate priorities).  Stateless planners return ``{}``.
        """
        return {}

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state_dict` (same type)."""


class RoundRobinPlanner(VerificationPlanner):
    """Cyclic order; a rotation takes exactly ``ceil(n / slice)`` passes."""

    uses_shard_state = False  # order depends only on the shard count

    def __init__(self) -> None:
        self._cursor = 0

    def order(self, shards: Sequence[ShardView]) -> List[int]:
        count = len(shards)
        return [(self._cursor + offset) % count for offset in range(count)]

    def committed(
        self, shard_indices: Sequence[int], flagged_counts: Mapping[int, int]
    ) -> None:
        self._cursor += len(shard_indices)
        # Normalization is deferred to order(), which knows the shard count;
        # keep the raw count bounded anyway so it cannot grow without limit.
        if shard_indices:
            self._cursor %= 10**9

    def reset(self) -> None:
        self._cursor = 0

    def state_dict(self) -> Dict[str, object]:
        return {"cursor": int(self._cursor)}

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        self._cursor = int(state.get("cursor", 0))


class PriorityExposurePlanner(VerificationPlanner):
    """Longest-unscanned first, with flip-rate-tuned tie-breaking.

    Priority of a shard is ``exposure + flip_bias`` where ``flip_bias`` is
    ``flip_bias_weight × rate / (1 + rate)`` and ``rate`` is an EWMA of "did
    this shard flag anything when scanned".  ``flip_bias_weight < 1`` keeps
    the bias sub-integer, so it only reorders exposure ties (see the module
    docstring for why that preserves the starvation bound).  Remaining ties
    fall back to lifetime flag counts, then the shard index — matching the
    PR 1 behaviour when no flips have been observed.
    """

    def __init__(self, flip_bias_weight: float = 0.99, ewma_alpha: float = 0.5) -> None:
        if not 0 <= flip_bias_weight < 1:
            raise ProtectionError(
                f"flip_bias_weight must be in [0, 1) to preserve the "
                f"starvation bound, got {flip_bias_weight}"
            )
        if not 0 < ewma_alpha <= 1:
            raise ProtectionError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.flip_bias_weight = float(flip_bias_weight)
        self.ewma_alpha = float(ewma_alpha)
        self._flip_rate: dict = {}

    def flip_rate(self, shard_index: int) -> float:
        """Current EWMA flip rate of one shard (0 until it flags something)."""
        return self._flip_rate.get(shard_index, 0.0)

    def _bias(self, shard_index: int) -> float:
        rate = self.flip_rate(shard_index)
        return self.flip_bias_weight * rate / (1.0 + rate)

    def order(self, shards: Sequence[ShardView]) -> List[int]:
        return [
            shard.index
            for shard in sorted(
                shards,
                key=lambda shard: (
                    -(shard.exposure_passes + self._bias(shard.index)),
                    -shard.times_flagged,
                    shard.index,
                ),
            )
        ]

    def committed(
        self, shard_indices: Sequence[int], flagged_counts: Mapping[int, int]
    ) -> None:
        for index in shard_indices:
            # Callers may hand numpy index arrays; normalize to built-in int
            # keys so the EWMA dict stays plain data (JSON/pickle friendly).
            index = int(index)
            observed = 1.0 if flagged_counts.get(index, 0) > 0 else 0.0
            rate = self._flip_rate.get(index, 0.0)
            self._flip_rate[index] = rate + self.ewma_alpha * (observed - rate)

    def state_dict(self) -> Dict[str, object]:
        # JSON object keys are strings; load_state_dict converts them back.
        return {
            "flip_rate": {
                str(index): float(rate) for index, rate in self._flip_rate.items()
            }
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        rates = state.get("flip_rate", {})
        self._flip_rate = {
            int(index): float(rate) for index, rate in dict(rates).items()
        }


class JitteredPlanner(VerificationPlanner):
    """Seeded-random epoch permutations: unpredictable yet starvation-free.

    Defense counter-move to the schedule-aware adversaries of
    :mod:`repro.attacks.adaptive`.  The deterministic rotations of
    :class:`RoundRobinPlanner` (and, under no flips, of
    :class:`PriorityExposurePlanner`) let an attacker who merely *observes*
    which shards each pass scanned predict the next scan of every shard and
    fire into the maximum-staleness window — achieving the worst-case
    detection latency on every salvo.

    This planner instead partitions time into **epochs** of one rotation
    each: at the start of every epoch it draws a fresh uniform permutation
    of all shards from ``default_rng([seed, epoch])`` and serves the epoch
    from it.  Every epoch covers every shard (the rotation-aligned
    starvation bound), but *where* in the next epoch a given shard lands is
    uniform — an attacker targeting the just-scanned shard now waits a
    uniformly random fraction of a rotation, the same expectation a blind
    random attacker gets.  The worst-case gap between two scans of one
    shard is ``2B - 1`` passes (scanned first in one epoch, last in the
    next), declared via ``rotation_lag_multiplier = 2``.

    Epoch-boundary passes may straddle two epochs; the straddling slice is
    drawn from the *next* epoch's permutation (skipping shards still owed by
    the current one), and the shards it consumes are excluded from the next
    epoch via ``carryover`` — both epochs still cover every shard.  The seed
    survives :meth:`reset`; only the epoch position clears — and the epoch
    counter *advances*, so a rebuilt rotation never replays an
    already-observed permutation.
    """

    uses_shard_state = False  # epoch permutations ignore per-pass exposure
    rotation_lag_multiplier = 2

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._epoch = 0
        #: Shards the current epoch still owes (``None`` = epoch not started;
        #: materialized lazily by :meth:`order`, which is the first caller
        #: that knows the shard count).
        self._remaining: Optional[List[int]] = None
        #: Shards a boundary-straddling pass already consumed out of the
        #: *next* epoch; excluded when that epoch materializes.
        self._carryover: List[int] = []

    def _epoch_order(self, epoch: int, count: int) -> List[int]:
        keys = np.random.default_rng([self.seed, epoch]).random(count)
        return sorted(range(count), key=lambda index: (-keys[index], index))

    def order(self, shards: Sequence[ShardView]) -> List[int]:
        count = len(shards)
        if self._remaining is None:
            # Lazy epoch materialization — idempotent (repeated calls see the
            # same remaining list until a commit), so planning stays replayable.
            self._remaining = [
                index
                for index in self._epoch_order(self._epoch, count)
                if index not in self._carryover
            ]
            self._carryover = []
        remaining = [index for index in self._remaining if index < count]
        owed = set(remaining)
        preview = [
            index
            for index in self._epoch_order(self._epoch + 1, count)
            if index not in owed
        ]
        return remaining + preview

    def committed(
        self, shard_indices: Sequence[int], flagged_counts: Mapping[int, int]
    ) -> None:
        if not shard_indices:
            return
        if self._remaining is None:
            # Commit before any order() (never the scheduler's sequence, but
            # reachable through direct planner use): charge the fresh epoch.
            self._carryover.extend(int(index) for index in shard_indices)
            return
        overflow: List[int] = []
        for index in shard_indices:
            if index in self._remaining:
                self._remaining.remove(index)
            else:
                overflow.append(int(index))
        if not self._remaining:
            self._epoch += 1
            self._remaining = None
            self._carryover = overflow

    def reset(self) -> None:
        # Positional state only — the seed survives.  The epoch counter
        # advances past every permutation the old rotation may have
        # revealed, so a reprotected model resumes unpredictable.
        self._epoch += 1
        self._remaining = None
        self._carryover = []

    # -- persistence -------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "seed": int(self.seed),
            "epoch": int(self._epoch),
            "remaining": (
                None
                if self._remaining is None
                else [int(index) for index in self._remaining]
            ),
            "carryover": [int(index) for index in self._carryover],
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        self.seed = int(state.get("seed", self.seed))
        self._epoch = int(state.get("epoch", 0))
        remaining = state.get("remaining")
        self._remaining = (
            None if remaining is None else [int(index) for index in remaining]
        )
        # Older snapshots also carry the fields of a since-removed
        # flip-rate bias; the uniform permutations never read them.
        self._carryover = [int(index) for index in state.get("carryover", [])]
