"""Schedule-aware adversaries: attackers that adapt to the scan rotation.

The scripted adversaries of :mod:`repro.attacks.scripted` answer *what* to
flip and *when* in wall-clock terms, but they are blind to the defense: a
random MSB flip lands in a uniformly random shard of the victim's
:class:`~repro.core.scheduler.ScanScheduler`, so its expected detection
latency is about half a rotation.  This module models the stronger —
and, for a deterministic rotation, strictly worse — threat the paper's
guarantees must survive: an attacker that *observes* the scan schedule and
times its flips into the maximum-staleness window.

Observation model (Kerckhoffs): the attacker knows the defense's
configuration — shard count, shards per pass, the signature-group memory
layout (which rows live in which shard) — and can observe *which shards
each tick scanned* (e.g. through the DRAM row-activation side channel a
rowhammer attacker already has).  It does **not** know the defender's
secret signature key or, for the jittered defense, the planner's RNG seed.
Three escalating adversaries:

* :class:`RotationTracker` — learns each shard's scan period from the
  observed gaps and fires into the shard whose predicted next scan is
  furthest away.  Against a fixed round-robin rotation the prediction is
  exact, so every salvo achieves the worst-case detection latency (the
  full rotation bound) — measurably worse than the random attacker's
  half-rotation expectation.
* :class:`BudgetAwareAttacker` — additionally watches for the engine's
  ``budget_exhausted`` signal (observable as ticks in which the victim's
  scan slice stays empty) and strikes right after a starved tick, when
  exposure backlogs are growing and the stalest shard is even staler.
* :class:`OracleAttacker` — the calibration upper bound: it is handed the
  true planner state and simulates the scheduler forward, so it picks the
  provably last-scanned shard even under the jittered defense.  No
  realizable attacker does better; the gap between the oracle and the
  tracker under :class:`~repro.core.planner.JitteredPlanner` is exactly
  what the jitter bought.

The counter-move lives in :class:`~repro.core.planner.JitteredPlanner`:
seeded-random epoch permutations keep every shard's next scan uniform over
the next epoch, collapsing the tracker's edge back to the random
attacker's expectation while the rotation-aligned starvation bound (two
rotations, ``rotation_lag_multiplier``) keeps worst-case latency finite.
Each permutation depends on the seed and the epoch alone — the planner
learns nothing from where flips were caught — so no salvo can steer the
schedule later salvos face.
``experiments/campaign.py`` runs the full adversary × cadence × defense
matrix and ``results/campaign_matrix.json`` pins the measured margins.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

import numpy as np

from repro.attacks.bitflip import apply_bit_flips, make_bit_flip
from repro.attacks.profiles import AttackProfile, BitFlip
from repro.attacks.scripted import AttackCadence, ScriptedAdversary
from repro.errors import AttackError
from repro.nn.module import Module
from repro.quant.bitops import MSB_POSITION


def flips_into_shard(
    model: Module,
    scheduler,
    shard_index: int,
    num_flips: int,
    rng: np.random.Generator,
    bit_position: int = MSB_POSITION,
) -> List[BitFlip]:
    """Build ``num_flips`` bit flips aimed at one scheduler shard.

    Uses only layout knowledge the threat model grants the attacker: the
    shard's global signature rows and the group → weight-member mapping.
    Flip targets are drawn with ``rng`` over the shard's groups and their
    members, so repeated salvos spread across the shard.
    """
    if num_flips < 1:
        raise AttackError(f"num_flips must be >= 1, got {num_flips}")
    store = scheduler.store
    rows = scheduler.shard_rows(shard_index)
    groups_by_layer = scheduler.fused.rows_to_layer_groups(rows)
    candidates = [
        (layer_name, int(group))
        for layer_name in sorted(groups_by_layer)
        for group in groups_by_layer[layer_name]
    ]
    if not candidates:
        raise AttackError(f"shard {shard_index} maps to no signature groups")
    layers = {name: dict(_quantized(model))[name] for name in groups_by_layer}
    flips: List[BitFlip] = []
    picks = rng.integers(0, len(candidates), size=num_flips)
    for pick in picks:
        layer_name, group = candidates[int(pick)]
        members = store.layer(layer_name).layout.members_of(group)
        member = int(members[int(rng.integers(0, len(members)))])
        flips.append(
            make_bit_flip(
                layer_name, layers[layer_name].qweight, member, bit_position
            )
        )
    return flips


def _quantized(model: Module):
    from repro.quant.layers import quantized_layers

    return quantized_layers(model)


class AdaptiveAdversary(ScriptedAdversary):
    """Base class: a scripted cadence plus schedule observations.

    Adaptive adversaries need a live handle on the victim — the
    :class:`~repro.core.fleet.ManagedModel` — whose scheduler is read on
    every salvo (a re-sign restarts its rotation in place).
    Construction stays engine-free (``build_adversary`` parity with the
    scripted kinds); the campaign runner calls :meth:`bind` after the
    fleet exists and feeds :meth:`observe_scan` /
    :meth:`observe_event` from each tick's outcomes.
    """

    kind = "adaptive"

    def __init__(
        self, cadence: AttackCadence, num_flips: int = 4, seed: int = 0
    ) -> None:
        super().__init__(cadence, seed=seed)
        if num_flips < 1:
            raise AttackError(f"num_flips must be >= 1, got {num_flips}")
        self.num_flips = int(num_flips)
        self._managed = None
        self._tick = 0
        #: Last observed tick each shard was scanned at (the side channel).
        self._last_scanned: Dict[int, int] = {}
        #: Observed gaps between consecutive scans of each shard.
        self._gaps: Dict[int, List[int]] = {}

    # -- wiring ------------------------------------------------------------------
    def bind(self, managed) -> "AdaptiveAdversary":
        """Point the adversary at its victim (call once, post-registration)."""
        self._managed = managed
        return self

    @property
    def managed(self):
        if self._managed is None:
            raise AttackError(
                f"{type(self).__name__} must be bind()-bound to a managed "
                "model before it can observe or attack"
            )
        return self._managed

    @property
    def scheduler(self):
        """The victim's scheduler (a re-sign restarts its rotation in place)."""
        return self.managed.scheduler

    @property
    def max_fire_delay_ticks(self) -> int:
        """Worst-case ticks this adversary defers salvos past its cadence.

        Campaign drivers add this to the serving window so a deferred
        salvo still has the full detection lag of coverage; most adaptive
        adversaries fire exactly on cadence (zero).
        """
        return 0

    # -- the side channel --------------------------------------------------------
    def observe_scan(self, tick: int, shard_indices: List[int]) -> None:
        """Record which shards the victim's tick ``tick`` scanned."""
        for shard in shard_indices:
            shard = int(shard)
            last = self._last_scanned.get(shard)
            if last is not None and tick > last:
                self._gaps.setdefault(shard, []).append(tick - last)
            self._last_scanned[shard] = tick

    def observe_event(self, event) -> None:
        """Engine lifecycle events (subclasses pick what they care about)."""

    # -- targeting ---------------------------------------------------------------
    def maybe_attack(
        self, model: Module, tick: int, model_name: str = ""
    ) -> Optional[AttackProfile]:
        self._tick = int(tick)
        return super().maybe_attack(model, tick, model_name)

    def _period(self, shard: int) -> int:
        """Estimated scan period of one shard (observed, else structural)."""
        gaps = self._gaps.get(shard)
        if gaps:
            return int(np.median(gaps))
        scheduler = self.scheduler
        return -(-scheduler.num_shards // scheduler.shards_per_pass)

    def _stalest_shard(self) -> int:
        """Shard whose *predicted next scan* is furthest in the future."""
        scheduler = self.scheduler
        if not self._last_scanned:
            return scheduler.num_shards - 1
        known = {
            shard: last
            for shard, last in self._last_scanned.items()
            if shard < scheduler.num_shards
        }
        never_seen = [
            shard
            for shard in range(scheduler.num_shards)
            if shard not in known
        ]
        if not known:
            return scheduler.num_shards - 1
        # A shard never observed scanned may be scanned any time — a known
        # just-scanned shard is the safer maximum-staleness bet.
        if never_seen and len(known) < scheduler.num_shards // 2:
            return never_seen[0]
        return max(
            known,
            key=lambda shard: (known[shard] + self._period(shard), known[shard], -shard),
        )

    def _mount(
        self, model: Module, shard: int, salvo_seed: int, model_name: str
    ) -> AttackProfile:
        rng = np.random.default_rng(salvo_seed)
        flips = flips_into_shard(
            model, self.scheduler, shard, self.num_flips, rng
        )
        apply_bit_flips(model, flips)
        return AttackProfile(
            flips=flips,
            model_name=model_name,
            attack_name=f"{self.kind}@shard{shard}",
            seed=salvo_seed,
        )


class RotationTracker(AdaptiveAdversary):
    """Learns the rotation from scan timing; fires into maximum staleness.

    Against :class:`~repro.core.planner.RoundRobinPlanner` the just-scanned
    shard is exactly one full rotation from its next scan, so the tracker's
    detection latency equals the worst-case bound on every salvo.  Against
    :class:`~repro.core.planner.JitteredPlanner` the prediction carries no
    information — the targeted shard's next scan is uniform over the next
    epoch — and the tracker falls back to the random attacker's expectation.
    """

    kind = "rotation"

    def attack(self, model: Module, salvo_seed: int, model_name: str) -> AttackProfile:
        return self._mount(model, self._stalest_shard(), salvo_seed, model_name)


class BudgetAwareAttacker(AdaptiveAdversary):
    """Strikes right after the engine starved the victim's scan budget.

    A tick whose budget share cannot afford even one shard scans nothing
    (the engine emits ``budget_exhausted``); every shard's exposure grows
    and the stalest shard gets one pass staler.  This attacker holds its
    salvos until it sees such a tick — its cadence's ``start_tick`` arms
    it, starvation triggers it — and then fires into the stalest shard.
    ``patience`` caps the wait: an armed salvo launches unconditionally
    ``patience`` ticks after arming, so a well-funded defense still gets
    attacked (and measured) rather than never.
    """

    kind = "budget"

    def __init__(
        self,
        cadence: AttackCadence,
        num_flips: int = 4,
        patience: int = 4,
        seed: int = 0,
    ) -> None:
        super().__init__(cadence, num_flips=num_flips, seed=seed)
        if patience < 0:
            raise AttackError(f"patience must be >= 0, got {patience}")
        self.patience = int(patience)
        self._starved_ticks: List[int] = []
        self._armed_since: Optional[int] = None

    @property
    def max_fire_delay_ticks(self) -> int:
        """Every salvo may wait ``patience`` ticks armed before launching,
        and a deferred salvo pushes the arming of the next one out with it."""
        return self.cadence.salvos * (self.patience + 1)

    def observe_event(self, event) -> None:
        from repro.core.fleet import FleetEventType

        if (
            event.type is FleetEventType.BUDGET_EXHAUSTED
            and self._managed is not None
            and event.model == self.managed.name
        ):
            self._starved_ticks.append(int(event.tick))

    def maybe_attack(
        self, model: Module, tick: int, model_name: str = ""
    ) -> Optional[AttackProfile]:
        self._tick = int(tick)
        if self._next_salvo >= self.cadence.salvos or tick < self.cadence.start_tick:
            return None
        if self._armed_since is None:
            self._armed_since = tick
        starved_just_now = bool(self._starved_ticks) and self._starved_ticks[-1] >= tick
        out_of_patience = tick - self._armed_since >= self.patience
        if not (starved_just_now or out_of_patience):
            return None
        profile = self.attack(model, self.seed + self._next_salvo, model_name)
        self._next_salvo += 1
        self._armed_since = None
        return profile

    def attack(self, model: Module, salvo_seed: int, model_name: str) -> AttackProfile:
        return self._mount(model, self._stalest_shard(), salvo_seed, model_name)


class OracleAttacker(AdaptiveAdversary):
    """Upper-bound calibration: given the true planner state, not a guess.

    Deep-copies the victim's scheduler (planner, epoch/RNG position,
    exposure counters and all) and simulates it forward to compute, for
    every shard, the exact pass at which it is next scanned — then flips
    into the one scanned last.  This is the best any attacker could do
    with *total* schedule knowledge, so its measured latency calibrates
    the worst case of each defense: one rotation for fixed orders, just
    under two rotations for the jittered planner.  Both stay within the
    scheduler's declared ``worst_case_lag_passes`` — the bound the matrix
    gate enforces per cell.
    """

    kind = "oracle"

    def _last_scanned_shard(self) -> int:
        clone = copy.deepcopy(self.scheduler)
        first_scan: Dict[int, int] = {}
        horizon = 2 * clone.worst_case_lag_passes + 2
        for simulated_pass in range(1, horizon + 1):
            selection = clone.plan()
            clone.apply_scan(selection, np.empty(0, dtype=np.int64))
            for shard in selection:
                first_scan.setdefault(int(shard), simulated_pass)
            if len(first_scan) == clone.num_shards:
                break
        if not first_scan:
            return 0
        return max(first_scan, key=lambda shard: (first_scan[shard], shard))

    def attack(self, model: Module, salvo_seed: int, model_name: str) -> AttackProfile:
        return self._mount(model, self._last_scanned_shard(), salvo_seed, model_name)
