"""Protected inference runtime.

The paper embeds signature checking in the layer-by-layer weight streaming
of the inference computation (that is what the gem5 experiment times):
each layer is verified, and its flagged groups zeroed, before the compute
uses its weights.  The full-check mode here does the same at the layer
granularity the NumPy substrate has.  A helper thread, one per runtime,
verifies the layers in store order with the scan kernel while the forward
runs, and dequantizes each clean layer's weights right after verifying
them.  Each quantized layer's first weight read in the forward waits on
its own layer's verdict, recovers that layer's flagged groups on the
request thread, and then computes with the verified weights.  NumPy's
kernel and dequantize calls release the GIL, so the check runs on a
second core and the forward waits only when it overtakes the verifier.
The cycle-accurate cost of checking inside the weight streaming loop is
modelled separately by :mod:`repro.memsim.timing`.

The amortized and budgeted modes check one scheduler slice before the
forward instead.  Budgeted checking self-calibrates: in budgeted mode the
default cost model is a learned :class:`~repro.core.cost.ScanCostModel`
seeded with the analytic price, every check's wall-clock is folded back
into it, and — unless an explicit ``check_every`` overrides it — the check
cadence is re-derived from the calibrated price after each check, so the
amortized per-batch overhead tracks ``budget_s`` on the *actual* host
rather than on the calibrated Cortex-M platform.
"""

from __future__ import annotations

import functools
import math
import queue
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import RadarConfig
from repro.core.cost import MEASURED_ALPHA, ScanCostModel
from repro.core.detector import DetectionReport
from repro.core.protector import ModelProtector
from repro.core.recovery import (
    RecoveryPolicy,
    RecoveryReport,
    recover_groups,
    require_golden_weights,
)
from repro.core.scheduler import ScanPolicy, ScanScheduler
from repro.core.signature import FusedSignatures, SignatureStore
from repro.errors import ProtectionError
from repro.nn.module import Module, no_grad
from repro.quant.layers import quantized_layers
from repro.quant.quantizer import dequantize


@dataclass
class InferenceOutcome:
    """Result of one protected forward pass."""

    logits: np.ndarray
    attack_detected: bool
    flagged_groups: int
    recovered_weights: int

    @property
    def predictions(self) -> np.ndarray:
        return self.logits.argmax(axis=1)


@dataclass
class RuntimeLog:
    """Accumulated statistics over the lifetime of a ProtectedInference object."""

    batches: int = 0
    checks: int = 0
    detections: int = 0
    flagged_groups: int = 0
    recovered_weights: int = 0
    #: Seconds of checking work: detection plus recovery.  In full-check
    #: mode this is the helper thread's busy time (kernel and the prefetch
    #: dequantize, off the request thread) plus gate-time recovery.
    check_seconds: float = 0.0
    #: Seconds the forward blocked waiting for layer verdicts: the check's
    #: added inference time (the paper's Table IV overhead).  Always 0
    #: outside full-check mode, whose checks run before the forward.
    check_wait_seconds: float = 0.0
    events: List[str] = field(default_factory=list)


class ProtectedInference:
    """Wraps a quantized model with RADAR checking on every forward pass.

    Three checking modes are supported:

    * **full** (``num_shards=None``, the default): every check verifies the
      whole model layer by layer beside the forward, as in the paper's
      gem5 experiment: a helper thread verifies each layer ahead of the
      forward, and each layer's first weight read waits for its verdict
      and recovers its flagged groups (see the module docstring);
    * **amortized** (``num_shards=N``): each check verifies one slice of the
      model's signature groups via a :class:`~repro.core.scheduler.ScanScheduler`,
      bounding per-batch latency while the whole model is still verified
      within one rotation (at most ``scheduler.worst_case_lag_passes`` checks);
    * **budgeted** (``budget_s=B``): the slice is sized from a per-batch
      latency budget instead of a shard count — the scheduler derives its
      shards so no check is priced above ``B`` seconds under ``cost_model``
      (a self-calibrating, learned :class:`~repro.core.cost.ScanCostModel`
      seeded with the analytic price, by default).  Combine with
      ``num_shards`` to keep a fixed structure and merely cap its per-pass
      cost.

    ``check_every`` picks the cadence:

    * an explicit ``int`` fixes it (one check every N batches, as before);
    * ``None`` (the default) auto-tunes it in budgeted mode — the cadence is
      ``ceil(slice_cost / budget_s)`` under the *calibrated* cost model, so
      checking never exceeds an amortized ``budget_s`` per batch, and each
      check may spend the budget the skipped batches saved up.  The cadence
      is re-derived after every check as the measured price drifts.  A
      ``budget_s`` too small for even one signature group — which
      :meth:`ScanScheduler.from_budget` rejects outright — is made feasible
      by falling back to the finest possible rotation (one group per shard)
      and stretching the cadence instead.  Without a budget, ``None`` means
      every batch.
    """

    def __init__(
        self,
        model: Module,
        config: Optional[RadarConfig] = None,
        policy: RecoveryPolicy = RecoveryPolicy.ZERO,
        check_every: Optional[int] = None,
        num_shards: Optional[int] = None,
        scan_policy: ScanPolicy = ScanPolicy.ROUND_ROBIN,
        shards_per_pass: int = 1,
        budget_s: Optional[float] = None,
        cost_model: Optional[ScanCostModel] = None,
    ) -> None:
        if check_every is not None and check_every < 1:
            raise ProtectionError("check_every must be >= 1")
        if budget_s is not None and not budget_s > 0:
            raise ProtectionError(f"budget_s must be positive, got {budget_s}")
        self.model = model
        self.policy = policy
        self.budget_s = budget_s
        #: Whether the cadence follows the calibrated cost model (no explicit
        #: ``check_every`` and a budget to derive it from).
        self.auto_cadence = check_every is None and budget_s is not None
        self.protector = ModelProtector(config)
        self.protector.protect(model)
        if budget_s is not None and cost_model is None:
            # Self-calibrating default: analytic prior, measured updates.
            cost_model = ScanCostModel.from_radar_config(
                self.protector.config, alpha=MEASURED_ALPHA
            )
        self.cost_model = cost_model
        self.scheduler: Optional[ScanScheduler] = None
        if budget_s is not None and num_shards is None:
            try:
                self.scheduler = self.protector.scheduler_for_budget(
                    budget_s, cost_model=cost_model, policy=scan_policy
                )
            except ProtectionError:
                if not self.auto_cadence:
                    raise
                # Budget below one group's price: use the finest rotation the
                # store allows and let the cadence stretch to afford it.
                self.scheduler = self.protector.scheduler(
                    num_shards=self.protector.store.total_groups(),
                    policy=scan_policy,
                    cost_model=cost_model,
                )
        elif num_shards is not None:
            self.scheduler = self.protector.scheduler(
                num_shards=num_shards,
                policy=scan_policy,
                shards_per_pass=shards_per_pass,
                budget_s=budget_s,
                cost_model=cost_model,
            )
        self.check_every = (
            check_every if check_every is not None else self._derived_cadence()
        )
        # Adopt the wrapped model into the fused view's zero-copy weight
        # plane, exactly as the fleet engine does for registered models: the
        # inline check path (scheduler slices and fused full scans alike)
        # then gathers straight from the buffers attacks and recovery
        # mutate, with no per-check weight copies.
        #: ``{name: quantized layer}`` of the wrapped model: the layers the
        #: streamed check gates and recovery writes, without a tree walk.
        self._layers: Dict[str, Module] = dict(quantized_layers(model))
        self.protector.store.fused().adopt(self._layers)
        self.log = RuntimeLog()
        self._since_last_check = 0
        # The helper thread's job queue, created on the first full check.
        self._jobs: Optional[queue.SimpleQueue] = None

    def _derived_cadence(self) -> int:
        """Batches per check so amortized checking stays within ``budget_s``."""
        if not self.auto_cadence or self.scheduler is None or self.cost_model is None:
            return 1
        slice_cost = self.cost_model.pass_cost_s(self.scheduler.largest_shard_groups)
        return max(1, math.ceil(slice_cost / self.budget_s))

    def _retune_cadence(self) -> None:
        cadence = self._derived_cadence()
        if cadence != self.check_every:
            self.log.events.append(
                f"batch {self.log.batches}: check cadence retuned "
                f"{self.check_every} -> {cadence} "
                f"(calibrated slice cost vs {self.budget_s * 1e3:.4g} ms budget)"
            )
            self.check_every = cadence

    def _check(self) -> Tuple[bool, int, int]:
        """One amortized detection + recovery round, before the forward."""
        started = time.perf_counter()
        # In auto-cadence mode each check may spend what the skipped
        # batches saved up; the scheduler observes the measured wall-clock
        # into the cost model itself (apply_scan).
        pass_budget = self.check_every * self.budget_s if self.auto_cadence else None
        detection = self.scheduler.step(self.model, budget_s=pass_budget).report
        recovery = self.protector.recover(
            self.model, detection, policy=self.policy, layer_map=self._layers
        )
        return self._record_check(time.perf_counter() - started, detection, recovery)

    def _streamed_forward(
        self, images: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[bool, int, int]]:
        """The forward with the full check streamed beside it, layer by layer."""
        require_golden_weights(self.policy, self.protector.golden_weights)
        store = self.protector.store
        fused = store.fused()
        stream = _LayerStream(
            fused,
            fused.prepared_plane(self._layers),
            [self._layers[name] for name in fused.layer_names],
            store,
            RecoveryReport(policy=self.policy),
            self.protector.golden_weights,
        )
        # The helper verifies the first layer while that layer's conv
        # unfolds its input: a conv builds its columns before it reads its
        # weights.
        self._verifier_jobs().put(stream)
        for position, layer in enumerate(stream.layers):
            layer.weight_source = functools.partial(stream.weight, position)
        try:
            logits = self.model(images)
        finally:
            for layer in stream.layers:
                layer.weight_source = None
            detection, recovery = stream.finish()
            self.log.check_wait_seconds += stream.wait_s
            if self.cost_model is not None:
                self.cost_model.observe(
                    fused.total_groups, stream.kernel_s + stream.recovery_s
                )
            verdict = self._record_check(
                stream.busy_s + stream.recovery_s, detection, recovery
            )
        return logits, verdict

    def _verifier_jobs(self) -> queue.SimpleQueue:
        """The helper thread's job queue, starting the thread on first use.

        The thread holds no reference to this runtime, and a finalizer
        sends it the stop sentinel when the runtime is collected.
        """
        if self._jobs is None:
            jobs: queue.SimpleQueue = queue.SimpleQueue()
            threading.Thread(
                target=_run_jobs, args=(jobs,), name="radar-verifier", daemon=True
            ).start()
            weakref.finalize(self, jobs.put, None)
            self._jobs = jobs
        return self._jobs

    def _record_check(
        self, elapsed: float, detection: DetectionReport, recovery: RecoveryReport
    ) -> Tuple[bool, int, int]:
        self.log.checks += 1
        self.log.check_seconds += elapsed
        if self.auto_cadence:
            self._retune_cadence()
        flagged = detection.num_flagged_groups
        recovered = recovery.zeroed_weights + recovery.reloaded_weights
        return detection.attack_detected, flagged, recovered

    def forward(self, images: np.ndarray) -> InferenceOutcome:
        """Run one protected inference batch.

        The model runs under :func:`~repro.nn.module.no_grad`: the forward
        computes its logits and keeps no backward caches.
        """
        verdict = (False, 0, 0)
        self._since_last_check += 1
        self.model.eval()
        with no_grad():
            if self._since_last_check < self.check_every:
                logits = self.model(images)
            else:
                self._since_last_check = 0
                if self.scheduler is None:
                    logits, verdict = self._streamed_forward(images)
                else:
                    verdict = self._check()
                    logits = self.model(images)
        attack_detected, flagged, recovered = verdict
        if attack_detected:
            self.log.detections += 1
            self.log.events.append(
                f"batch {self.log.batches}: {flagged} flagged groups, "
                f"{recovered} weights recovered"
            )
        self.log.batches += 1
        self.log.flagged_groups += flagged
        self.log.recovered_weights += recovered
        return InferenceOutcome(
            logits=logits,
            attack_detected=attack_detected,
            flagged_groups=flagged,
            recovered_weights=recovered,
        )

    __call__ = forward

    # -- calibration persistence -------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable calibration snapshot.

        What a restart must keep is exactly what this runtime *learned*:
        a learned cost model's EWMA price (a fixed price is configuration,
        not calibration) and the cadence it settled on.  Everything else —
        signatures, scheduler structure — is rebuilt from the model and
        config at construction time.
        """
        state: Dict[str, object] = {
            "auto_cadence": bool(self.auto_cadence),
            "check_every": int(self.check_every),
            "budget_s": self.budget_s,
        }
        if self.cost_model is not None and self.cost_model.alpha:
            state["cost_model"] = self.cost_model.state_dict()
        return state

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot into this runtime.

        The cost-model calibration is loaded first; in auto-cadence mode
        the cadence is then *re-derived* from the restored price (not
        copied verbatim), so a snapshot taken under a different budget
        still yields a consistent cadence for this runtime's budget.
        """
        persisted = state.get("cost_model")
        if persisted is not None and self.cost_model is not None:
            self.cost_model.load_state_dict(persisted)
        if self.auto_cadence:
            self._retune_cadence()
        else:
            check_every = int(state.get("check_every", self.check_every))
            if check_every < 1:
                raise ProtectionError(
                    f"persisted check_every must be >= 1, got {check_every}"
                )
            self.check_every = check_every

    def storage_overhead_kb(self) -> float:
        """Secure-storage footprint of the signatures."""
        return self.protector.storage_overhead_kb()

    @property
    def structured(self) -> bool:
        """Whether every layer of the inline check may run on the band path.

        True when fuse-time detection proved every protected layer's
        rotated-arange structure (:class:`~repro.core.signature.PlaneStructure`),
        so wide enough layers sum over strided views of the weight plane;
        False means at least one layer's checks ride the general gather.
        Either way results are bit-identical — this only reports which
        engine serves the per-batch check cost.
        """
        return bool(self.protector.store.fused().structured)


def _run_jobs(jobs: queue.SimpleQueue) -> None:
    """The helper thread: run each submitted call's check until ``None`` arrives."""
    while True:
        job = jobs.get()
        if job is None:
            return
        job.run()
        del job  # hold no call's weights while idle


class _LayerStream:
    """One call's layer-streamed check, shared by the helper and request threads.

    :meth:`run` (helper thread) verifies the fused view's layers in store
    order with the scan kernel and dequantizes each clean layer right after
    its verdict.  :meth:`weight` (request thread, a layer's
    ``weight_source``) waits for that layer's verdict, recovers its flagged
    groups, and hands the forward its weights.  :meth:`finish` settles the
    layers the forward never read.  The helper never writes weights, and
    recovery writes only layers whose verdict is in.
    """

    def __init__(
        self,
        fused: FusedSignatures,
        plane: np.ndarray,
        layers: List[Module],
        store: SignatureStore,
        recovery: RecoveryReport,
        golden_weights: Optional[Dict[str, np.ndarray]],
    ) -> None:
        self.fused = fused
        self.plane = plane
        #: The protected layers, in store order.
        self.layers = layers
        self.store = store
        self.recovery = recovery
        self.golden_weights = golden_weights
        count = len(layers)
        #: Per layer: flagged local group indices, and the weights
        #: dequantized after a clean verdict until the forward takes them.
        self.flagged: List[np.ndarray] = [_NO_GROUPS] * count
        self.prefetched: List[Optional[np.ndarray]] = [None] * count
        self.settled = [False] * count
        #: Layers with a verdict (a prefix of store order), under ``_progress``.
        self.verified = 0
        self.error: Optional[BaseException] = None
        self._progress = threading.Condition()
        #: Seconds in the kernel, in verification overall (kernel plus
        #: prefetch dequantize), in gate-time recovery, and blocked on verdicts.
        self.kernel_s = 0.0
        self.busy_s = 0.0
        self.recovery_s = 0.0
        self.wait_s = 0.0

    def verify(self, position: int) -> None:
        """Verify layer ``position`` (the next in store order) and publish its verdict.

        A clean layer's weights are dequantized here, right after its
        verdict, so the forward does not have to.
        """
        layer = self.layers[position]
        start, end = self.fused.row_range(self.fused.layer_names[position])
        began = time.perf_counter()
        rows = self.fused.verify_rows(self.plane, np.arange(start, end, dtype=np.int64))
        scanned = time.perf_counter()
        if rows.size:
            self.flagged[position] = rows - start
        else:
            self.prefetched[position] = dequantize(layer.qweight, layer.quant_params)
        self.kernel_s += scanned - began
        self.busy_s += time.perf_counter() - began
        with self._progress:
            self.verified = position + 1
            self._progress.notify_all()

    def run(self) -> None:
        """Helper thread: verify the remaining layers, never raising."""
        try:
            for position in range(len(self.layers)):
                self.verify(position)
        except BaseException as error:  # re-raised on the request thread
            self.error = error
        finally:
            with self._progress:
                self.verified = len(self.layers)
                self._progress.notify_all()

    def weight(self, position: int) -> np.ndarray:
        """Request thread: the verified weights of layer ``position``."""
        if not self.settled[position]:
            self._settle(position)
        weight, self.prefetched[position] = self.prefetched[position], None
        if weight is None:
            layer = self.layers[position]
            weight = dequantize(layer.qweight, layer.quant_params)
        return weight

    def finish(self) -> Tuple[DetectionReport, RecoveryReport]:
        """Request thread: join the helper, drop unread weights, settle the rest."""
        self._wait(lambda: self.verified == len(self.layers))
        self.prefetched = [None] * len(self.layers)
        for position, settled in enumerate(self.settled):
            if not settled:
                self._settle(position)
        self.recovery.elapsed_s = self.recovery_s
        detection = DetectionReport(
            flagged_groups=dict(zip(self.fused.layer_names, self.flagged))
        )
        return detection, self.recovery

    def _settle(self, position: int) -> None:
        if self.verified <= position:
            self._wait(lambda: self.verified > position)
        if self.error is not None:
            raise self.error
        flagged = self.flagged[position]
        if flagged.size:
            began = time.perf_counter()
            name = self.fused.layer_names[position]
            recover_groups(
                self.recovery,
                name,
                self.layers[position],
                self.store,
                flagged,
                self.golden_weights,
            )
            self.recovery_s += time.perf_counter() - began
        self.settled[position] = True

    def _wait(self, ready: Callable[[], bool]) -> None:
        began = time.perf_counter()
        with self._progress:
            self._progress.wait_for(ready)
        self.wait_s += time.perf_counter() - began


_NO_GROUPS = np.empty(0, dtype=np.int64)
