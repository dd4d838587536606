"""Scan cost model: pricing a verification slice in seconds.

The paper's deployment constraint is *time* — checking must hide inside the
inference loop at 1–5 % overhead (Tables IV/V) — while the scheduler's knobs
are structural (``num_shards``, ``shards_per_pass``).  A :class:`ScanCostModel`
bridges the two: it prices "verify ``g`` signature groups" in seconds, so

* a :class:`~repro.core.scheduler.ScanScheduler` can size shards adaptively
  from a latency budget (:meth:`ScanScheduler.from_budget`),
* the :class:`~repro.core.fleet.VerificationEngine` can split one fleet-wide
  budget across registered models, and
* :mod:`repro.memsim.timing` can re-price Table IV for amortized checking
  (``results/table4_amortized.json``).

One class covers both prices a caller wants, told apart by ``alpha``:

* ``alpha = 0`` — a fixed price.  :meth:`ScanCostModel.from_radar_config`
  seeds it with the :class:`~repro.memsim.timing.TimingModel` per-group
  price (``group_size`` × per-weight checksum cycles, which depend on
  whether the interleaved gather breaks unit-stride access, plus the
  per-group binarize/compare cycles, divided by the platform frequency).
  The price carries the narrow-accumulation discount
  (``TimingConfig.narrow_accumulation_speedup`` on the per-weight term).
  :meth:`~ScanCostModel.observe` leaves it untouched, so budgets and
  campaigns priced with it are deterministic.  This is the engine's and
  the scheduler's default.
* ``alpha > 0`` — a learned price: an exponentially-weighted moving
  average of observed wall-clock seconds per group, seeded with the same
  analytic price, for hosts where the calibration constants do not apply.
  :data:`MEASURED_ALPHA` is the weight budgeted
  :class:`~repro.core.runtime.ProtectedInference` and ``--state-dir`` use.

The import of :mod:`repro.memsim.timing` happens lazily inside
:meth:`ScanCostModel.from_radar_config` so that ``repro.core`` keeps its
documented one-directional boundary with the memory simulator at module
import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.core.config import RadarConfig
from repro.errors import ProtectionError

if TYPE_CHECKING:  # lazy at run time; see module docstring
    from repro.memsim.timing import TimingConfig

#: EWMA weight of a learned price (each observation moves it 20 % of the way).
MEASURED_ALPHA = 0.2


def _check_alpha(alpha: float, what: str = "alpha") -> float:
    if not 0 <= alpha <= 1:
        raise ProtectionError(f"{what} must be in [0, 1], got {alpha}")
    return float(alpha)


class ScanCostModel:
    """Seconds-per-group pricing, fixed (``alpha = 0``) or learned (EWMA).

    A learned price folds every observed ``(groups, elapsed)`` pair in with
    weight ``alpha``, so it tracks the actual host instead of the calibrated
    Cortex-M platform.  :meth:`observe` is what
    :meth:`~repro.core.scheduler.ScanScheduler.apply_scan` calls after a
    timed pass; a fixed price returns from it at once.
    """

    def __init__(self, seconds_per_group: float, alpha: float = 0.0) -> None:
        if not seconds_per_group > 0:
            raise ProtectionError(
                f"seconds_per_group must be positive, got {seconds_per_group}"
            )
        self.seconds_per_group = float(seconds_per_group)
        self.alpha = _check_alpha(alpha)
        self.observations = 0

    @classmethod
    def from_radar_config(
        cls,
        radar_config: RadarConfig,
        timing_config: Optional["TimingConfig"] = None,
        alpha: float = 0.0,
    ) -> "ScanCostModel":
        """Price a group with :meth:`~repro.memsim.timing.TimingModel.scan_seconds_per_group`
        (the fixed price, or a learned price's prior)."""
        from repro.memsim.timing import TimingModel

        timing = TimingModel(timing_config)
        return cls(timing.scan_seconds_per_group(radar_config), alpha=alpha)

    def observe(self, num_groups: int, elapsed_s: float) -> None:
        """Fold one timed pass into a learned price (a fixed price ignores it)."""
        if not self.alpha or num_groups < 1:
            return  # fixed, or an empty pass with no per-group information
        if elapsed_s < 0:
            raise ProtectionError(f"elapsed_s must be >= 0, got {elapsed_s}")
        if elapsed_s == 0:
            return  # too short for the clock: a zero sample would zero the price
        sample = elapsed_s / num_groups
        self.seconds_per_group += self.alpha * (sample - self.seconds_per_group)
        self.observations += 1

    def pass_cost_s(self, num_groups: int) -> float:
        """Seconds to recompute and compare ``num_groups`` signatures."""
        if num_groups < 0:
            raise ProtectionError(f"num_groups must be >= 0, got {num_groups}")
        return num_groups * self.seconds_per_group

    def groups_within(self, budget_s: float) -> int:
        """Largest group count whose :meth:`pass_cost_s` fits in ``budget_s``."""
        if budget_s < 0:
            raise ProtectionError(f"budget_s must be >= 0, got {budget_s}")
        return int(budget_s / self.seconds_per_group)

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable calibration snapshot (what a restart must keep).

        A learned EWMA *is* the calibration: persisting ``seconds_per_group``,
        ``alpha`` and the observation count lets :mod:`repro.telemetry.store`
        restore it without re-observing a single pass, so a restarted
        service prices budgets from the learned host speed immediately.
        """
        return {
            "seconds_per_group": float(self.seconds_per_group),
            "alpha": float(self.alpha),
            "observations": int(self.observations),
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`, in place."""
        seconds = float(state["seconds_per_group"])
        if not seconds > 0:
            raise ProtectionError(
                f"persisted seconds_per_group must be positive, got {seconds}"
            )
        alpha = _check_alpha(float(state.get("alpha", self.alpha)), "persisted alpha")
        self.seconds_per_group = seconds
        self.alpha = alpha
        self.observations = int(state.get("observations", 0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScanCostModel(seconds_per_group={self.seconds_per_group:.3e}, "
            f"alpha={self.alpha}, observations={self.observations})"
        )


@dataclass(frozen=True)
class BudgetPlan:
    """How a latency budget translates into a shard rotation.

    Produced by :func:`plan_rotation`; consumed by
    :meth:`~repro.core.scheduler.ScanScheduler.from_budget`.  The central
    guarantee — property-tested in ``tests/test_cost.py`` — is that
    ``per_pass_cost_s <= budget_s``: no planned pass is priced above the
    budget it was sized for.
    """

    budget_s: float
    total_groups: int
    groups_per_pass: int
    num_shards: int
    per_pass_cost_s: float
    rotation_passes: int


def plan_rotation(
    total_groups: int, budget_s: float, cost_model: ScanCostModel
) -> BudgetPlan:
    """Size a shard rotation so every pass is priced within ``budget_s``.

    Raises :class:`~repro.errors.ProtectionError` when the budget cannot
    cover even a single group — a plan that silently overruns its budget
    would defeat the point of having one.
    """
    if total_groups < 1:
        raise ProtectionError(f"total_groups must be >= 1, got {total_groups}")
    if not budget_s > 0:
        raise ProtectionError(f"budget_s must be positive, got {budget_s}")
    affordable = cost_model.groups_within(budget_s)
    if affordable < 1:
        raise ProtectionError(
            f"budget of {budget_s * 1e3:.6g} ms cannot cover a single group "
            f"(one group costs {cost_model.pass_cost_s(1) * 1e3:.6g} ms); "
            "raise the budget or use a cheaper cost model"
        )
    groups_per_pass = min(affordable, total_groups)
    num_shards = math.ceil(total_groups / groups_per_pass)
    # np.array_split gives shards of at most ceil(total/num_shards) groups,
    # which never exceeds groups_per_pass, so the largest shard stays affordable.
    largest_shard = math.ceil(total_groups / num_shards)
    return BudgetPlan(
        budget_s=float(budget_s),
        total_groups=int(total_groups),
        groups_per_pass=int(groups_per_pass),
        num_shards=int(num_shards),
        per_pass_cost_s=cost_model.pass_cost_s(largest_shard),
        rotation_passes=int(num_shards),
    )
