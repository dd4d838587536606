"""Golden signature storage (the secure on-chip memory of the paper).

A :class:`SignatureStore` holds, for every protected layer, its
:class:`~repro.core.interleave.GroupLayout`, its secret
:class:`~repro.core.masking.SecretKey` and the golden signatures computed
from the clean weights.  The store also accounts for its own size, which is
the paper's storage-overhead metric (2 bits per group; 5.6 KB for
ResNet-18 at ``G = 512``, 8.2 KB for ResNet-20 at ``G = 8``).

The store's per-layer recomputation (:meth:`SignatureStore.current_signatures`,
:meth:`SignatureStore.mismatched_rows`) is the one bit-identity oracle.
The run-time side of this module is the **zero-copy scan kernel**,
:func:`stacked_mismatched_rows`, over the fused views of
:class:`FusedSignatures`: all layers fused at store-build time into one
contiguous int8 weight plane with a single global gather-index matrix and a
single int8 sign mask, so verifying any set of global rows is one int8
gather plus one narrow-accumulation ``einsum`` — no per-layer Python loop,
no ``searchsorted`` routing, no materialized product matrix, and (for
engine-adopted models) no weight copies at all.  Every verification path —
one model, an engine bucket (:class:`StackedVerifier`), a worker process —
is a thin caller of that one kernel.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - e.g. WASM / stripped builds
    shared_memory = None  # type: ignore[assignment]

from repro.core.checksum import (
    accumulator_dtype,
    compute_signatures,
    signature_shift_mask,
)
from repro.core.config import RadarConfig
from repro.core.interleave import PAD_INDEX, GroupLayout
from repro.core.masking import SecretKey
from repro.errors import ProtectionError
from repro.nn.module import Module
from repro.quant.layers import quantized_layers


@dataclass
class LayerSignatures:
    """Per-layer protection state."""

    layer_name: str
    layout: GroupLayout
    key: Optional[SecretKey]
    golden: np.ndarray  # uint8, one packed signature per group

    @property
    def num_groups(self) -> int:
        return self.layout.num_groups


class SignatureStore:
    """Golden signatures for all quantized layers of one model."""

    def __init__(self, config: RadarConfig) -> None:
        self.config = config
        self._layers: Dict[str, LayerSignatures] = {}
        self._fused: Optional["FusedSignatures"] = None

    # -- construction ---------------------------------------------------------
    def build(self, model: Module) -> "SignatureStore":
        """Compute golden signatures from the model's current (clean) weights."""
        layers = quantized_layers(model)
        if not layers:
            raise ProtectionError("Model has no quantized layers to protect")
        self._layers.clear()
        self._fused = None
        for name, layer in layers:
            if not layer.is_quantized:
                raise ProtectionError(
                    f"Layer {name!r} is not quantized; call quantize_model before protecting"
                )
            self._layers[name] = self._build_layer(name, layer.qweight)
        return self

    def _build_layer(self, name: str, qweight: np.ndarray) -> LayerSignatures:
        config = self.config
        layout = GroupLayout(
            num_weights=int(qweight.size),
            group_size=config.group_size,
            use_interleave=config.use_interleave,
            interleave_offset=config.interleave_offset,
        )
        key = (
            SecretKey.generate(config.key_bits, config.secret_seed, name)
            if config.use_masking
            else None
        )
        golden = compute_signatures(
            qweight.reshape(-1), layout, key, config.signature_bits
        )
        return LayerSignatures(layer_name=name, layout=layout, key=key, golden=golden)

    # -- access ---------------------------------------------------------------
    def __contains__(self, layer_name: str) -> bool:
        return layer_name in self._layers

    def __iter__(self) -> Iterator[LayerSignatures]:
        return iter(self._layers.values())

    def __len__(self) -> int:
        return len(self._layers)

    def layer(self, layer_name: str) -> LayerSignatures:
        if layer_name not in self._layers:
            raise ProtectionError(f"Layer {layer_name!r} is not protected by this store")
        return self._layers[layer_name]

    def layer_names(self) -> List[str]:
        return list(self._layers)

    # -- run-time recomputation: the bit-identity oracle ---------------------
    def row_starts(self) -> np.ndarray:
        """Global row numbering: layer ``i`` owns rows ``[starts[i], starts[i+1])``.

        Row ``r`` is group ``r - starts[i]`` of its owning layer, layers in
        store order; every scan path names groups by these global rows.
        """
        starts = np.zeros(len(self._layers) + 1, dtype=np.int64)
        starts[1:] = np.cumsum([entry.num_groups for entry in self._layers.values()])
        return starts

    def current_signatures(
        self, model: Module, rows: Optional[np.ndarray] = None
    ) -> Dict[str, np.ndarray]:
        """Recompute signatures from the model's current (possibly corrupted) weights.

        The paper's check, layer by layer through
        :func:`~repro.core.checksum.compute_signatures` — the same code that
        computed the goldens, with no fusion, no structure detection and no
        stacking.  This is the one bit-identity reference every scan path is
        tested against.  ``rows`` restricts it to the given global rows
        (:meth:`row_starts`): each layer then maps to the signatures of its
        listed groups, in row order.
        """
        layer_map = dict(quantized_layers(model))
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            starts = self.row_starts()
            owner = np.searchsorted(starts, rows, side="right") - 1
        signatures = {}
        for position, (name, entry) in enumerate(self._layers.items()):
            if name not in layer_map:
                raise ProtectionError(f"Protected layer {name!r} missing from model")
            groups = None if rows is None else rows[owner == position] - starts[position]
            signatures[name] = compute_signatures(
                layer_map[name].qweight.reshape(-1),
                entry.layout,
                entry.key,
                self.config.signature_bits,
                groups=groups,
            )
        return signatures

    def mismatched_rows(
        self, model: Module, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Global rows (among ``rows``, in order) whose signature differs from golden.

        The oracle's verdict in the scan kernel's terms: what
        :meth:`FusedSignatures.mismatched_rows` must return, computed by
        :meth:`current_signatures`.
        """
        total = self.total_groups()
        rows = (
            np.arange(total, dtype=np.int64)
            if rows is None
            else np.asarray(rows, dtype=np.int64)
        )
        if rows.size and not (0 <= rows.min() and rows.max() < total):
            raise ProtectionError(f"global rows out of range ({total} groups)")
        current = self.current_signatures(model, rows)
        starts = self.row_starts()
        owner = np.searchsorted(starts, rows, side="right") - 1
        mismatch = np.zeros(rows.size, dtype=bool)
        for position, entry in enumerate(self._layers.values()):
            where = owner == position
            golden = entry.golden[rows[where] - starts[position]]
            mismatch[where] = current[entry.layer_name] != golden
        return rows[mismatch]

    def fused(self) -> "FusedSignatures":
        """Cached vectorized view over all layers (rebuilt by :meth:`build`)."""
        if self._fused is None:
            self._fused = FusedSignatures(self)
        return self._fused

    # -- storage accounting ----------------------------------------------------
    def total_groups(self) -> int:
        return sum(entry.num_groups for entry in self._layers.values())

    def storage_bits(self, include_keys: bool = False) -> int:
        """Bits of secure storage needed for the golden signatures.

        ``include_keys=True`` adds the per-layer secret keys (``N_k`` bits
        each) to the count; the paper reports signature storage only, since
        the keys are negligible (16 bits per layer).
        """
        bits = self.total_groups() * self.config.signature_bits
        if include_keys and self.config.use_masking:
            bits += len(self._layers) * self.config.key_bits
        return bits

    def storage_bytes(self, include_keys: bool = False) -> float:
        return self.storage_bits(include_keys) / 8.0

    def storage_kilobytes(self, include_keys: bool = False) -> float:
        return self.storage_bytes(include_keys) / 1024.0

    def describe(self) -> Dict[str, float]:
        """Summary used by reports."""
        return {
            "layers": len(self._layers),
            "groups": self.total_groups(),
            "signature_bits": self.config.signature_bits,
            "storage_kb": self.storage_kilobytes(),
        }


class ScanScratch:
    """Grow-only, named scratch buffers for the scan kernel.

    Every kernel pass needs the same few workspaces (gathered weights, row
    indices, sums); allocating them per pass would dominate small slices.
    A :class:`ScanScratch` hands out views of flat grow-only buffers keyed
    by ``(name, dtype)``, so steady-state passes allocate nothing.  One
    instance must not be shared across threads — the fleet engine owns one
    per batch bucket, each :class:`FusedSignatures` one for its own scans.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, np.dtype], np.ndarray] = {}

    def take(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous ``shape``-d view of the named buffer (grown if needed)."""
        dtype = np.dtype(dtype)
        # math.prod, not np.prod: this runs a few times per scan and the
        # ufunc dispatch on a tiny shape tuple costs more than the whole
        # buffer lookup.
        size = math.prod(shape) if shape else 1
        buffer = self._buffers.get((name, dtype))
        if buffer is None or buffer.size < size:
            buffer = np.empty(max(size, 1), dtype=dtype)
            self._buffers[(name, dtype)] = buffer
        return buffer[:size].reshape(shape)


#: Cache-blocking budget for the stacked kernel: the per-tile gathered
#: stack and sign stack (2 int8 bytes per model per slot per column) are
#: sized to stay resident in a typical per-core L2 slice while the einsum
#: that immediately consumes them re-reads every byte.
STACKED_TILE_BYTES = 1 << 20

#: Tiles never shrink below this many columns — past that point the extra
#: per-tile NumPy dispatch costs more than the cache locality buys.
MIN_STACKED_TILE_COLUMNS = 256

#: Crossover between the block-slice gather and the general fancy gather,
#: in columns per covered layer.  Measured on the ResNet-20 G=8 plane: the
#: general ``np.take`` costs ~1.1 ns per gathered element but streams the
#: int64 index matrix (8 bytes per element vs 1 weight byte), while the
#: block path costs ~2 slice copies per slot row per layer regardless of
#: width — they break even when a range covers roughly this many columns
#: per layer it touches.
STRUCTURED_MIN_COLUMNS_PER_LAYER = 512


def _stacked_tile_width(num_models: int, group_size: int, width: int) -> int:
    """Columns per cache-blocked stacked tile (the whole width if it fits).

    A stack of one is never tiled: measured on ResNet-18 at ``G = 512``,
    the per-tile block-gather dispatch cost more than the cache locality
    bought.
    """
    if num_models == 1:
        return int(width)
    per_column = 2 * num_models * group_size
    tile = STACKED_TILE_BYTES // max(per_column, 1)
    if tile < MIN_STACKED_TILE_COLUMNS:
        tile = MIN_STACKED_TILE_COLUMNS
    return int(tile) if tile < width else int(width)


class PlaneStructureSpec(NamedTuple):
    """Plain-data rotated-arange structure of one published plane.

    The picklable half of :class:`PlaneStructure`, carried inside a
    :class:`SharedPlaneSpec` so worker processes run the block-slice gather
    without re-deriving (or trusting) anything: per-layer global row
    bounds, plane offsets, and the per-slot rotation shifts (``None`` for
    layers the fuse-time detector demoted to the general gather).
    """

    row_starts: Tuple[int, ...]
    weight_offsets: Tuple[int, ...]
    shifts: Tuple[Optional[Tuple[int, ...]], ...]


class PlaneStructure:
    """Executable rotated-arange structure of one fused weight plane.

    Built at fuse time by :class:`FusedSignatures` after *numerically
    verifying* each layer's analytic
    :meth:`~repro.core.interleave.GroupLayout.slot_shifts` hint against the
    layer's actual index matrix (see :func:`_verified_slot_shifts`), and
    shipped to scan workers as a :class:`PlaneStructureSpec`.

    :meth:`gather_block` replaces the kernel's fancy ``np.take`` gather for
    any contiguous global-row range: on a structured layer, slot row ``r``
    of the slot-major gather matrix reads the plane block
    ``[base + r*N, base + (r+1)*N)`` rotated left by ``s_r``, so a
    contiguous range of ``L`` groups moves as at most two contiguous slice
    copies per slot row instead of ``L`` random accesses per slot row.
    Copies are clamped to the layer's real weights; the skipped positions
    are exactly the padded slots, whose sign mask is 0, so whatever scratch
    garbage they leave behind is multiplied away by the einsum —
    bit-identical to the general gather by construction, with no
    out-of-bounds read possible.  Unstructured layers inside the range fall
    back to the general ``np.take`` on their column sub-block.
    """

    def __init__(self, row_starts, weight_offsets, shifts) -> None:
        self.row_starts: List[int] = [int(value) for value in row_starts]
        self.weight_offsets: List[int] = [int(value) for value in weight_offsets]
        self.shifts: List[Optional[List[int]]] = [
            None if layer is None else [int(value) for value in layer]
            for layer in shifts
        ]
        self.structured_layers = sum(
            1 for layer in self.shifts if layer is not None
        )

    @property
    def num_layers(self) -> int:
        return len(self.shifts)

    @property
    def any_structured(self) -> bool:
        """Whether :meth:`gather_block` beats the general gather at all."""
        return self.structured_layers > 0

    @property
    def fully_structured(self) -> bool:
        """Whether every layer's gather runs on the block-slice path."""
        return self.structured_layers == self.num_layers

    def spec(self) -> PlaneStructureSpec:
        """Plain-tuple form for shared-memory publication (picklable)."""
        return PlaneStructureSpec(
            row_starts=tuple(self.row_starts),
            weight_offsets=tuple(self.weight_offsets),
            shifts=tuple(
                None if layer is None else tuple(layer) for layer in self.shifts
            ),
        )

    @classmethod
    def from_spec(cls, spec: PlaneStructureSpec) -> "PlaneStructure":
        return cls(spec.row_starts, spec.weight_offsets, spec.shifts)

    def gather_block(
        self,
        plane: np.ndarray,
        kernel_indices: np.ndarray,
        out: np.ndarray,
        start: int,
        stop: int,
    ) -> None:
        """Fill ``out[:, :stop - start]`` with the gathered plane values of
        global rows ``[start, stop)`` (the slot-major kernel layout).

        Narrow ranges are served by one general ``np.take`` instead: block
        copies cost a fixed ~2 slice assignments per slot row per covered
        layer, while the fancy gather scales with the column count (plus
        int64 index-matrix traffic, which is what makes it lose on wide
        ranges), so below ``STRUCTURED_MIN_COLUMNS_PER_LAYER`` columns per
        covered layer the general gather is the faster engine.  Both fill
        ``out`` with identical bytes.
        """
        row_starts = self.row_starts
        first_layer = bisect.bisect_right(row_starts, start) - 1
        if first_layer < 0:
            first_layer = 0
        covered = bisect.bisect_left(row_starts, stop, lo=first_layer + 1) - first_layer
        if stop - start < covered * STRUCTURED_MIN_COLUMNS_PER_LAYER:
            np.take(plane, kernel_indices[:, start:stop], out=out, mode="clip")
            return
        for position in range(max(first_layer, 0), self.num_layers):
            col0 = row_starts[position]
            if col0 >= stop:
                break
            col1 = row_starts[position + 1]
            lo = start if start > col0 else col0
            hi = stop if stop < col1 else col1
            if hi <= lo:
                continue
            dest0 = lo - start
            shifts = self.shifts[position]
            if shifts is None:
                np.take(
                    plane,
                    kernel_indices[:, lo:hi],
                    out=out[:, dest0 : dest0 + (hi - lo)],
                    mode="clip",
                )
                continue
            base = self.weight_offsets[position]
            limit = self.weight_offsets[position + 1]
            n = col1 - col0
            g0 = lo - col0
            span = hi - lo
            for r, shift in enumerate(shifts):
                row_base = base + r * n
                s = g0 + shift
                if s >= n:
                    s -= n
                dest = out[r]
                first = n - s
                if first > span:
                    first = span
                src0 = row_base + s
                src1 = src0 + first
                if src1 > limit:
                    src1 = limit
                if src1 > src0:
                    dest[dest0 : dest0 + src1 - src0] = plane[src0:src1]
                remainder = span - first
                if remainder > 0:
                    src1 = row_base + remainder
                    if src1 > limit:
                        src1 = limit
                    if src1 > row_base:
                        wrap = dest0 + first
                        dest[wrap : wrap + src1 - row_base] = plane[row_base:src1]


def _verified_slot_shifts(
    layout: GroupLayout, indices: np.ndarray, sign_mask: np.ndarray
) -> Optional[np.ndarray]:
    """The layout's rotated-arange shifts, proven against its index matrix.

    The analytic :meth:`~repro.core.interleave.GroupLayout.slot_shifts`
    hint is re-derived from layout *parameters*; the kernel must not trust
    it blindly — a foreign or subclassed layout could change the assignment
    while keeping the flags.  This verifies, entry by entry over the
    non-padded slots, that the layer's actual ``(num_groups, group_size)``
    index matrix equals ``r * N + (g + s_r) % N``; any disagreement demotes
    the layer to the general gather (returns ``None``).
    """
    hint = layout.slot_shifts()
    if hint is None:
        return None
    num_groups, group_size = indices.shape
    g = np.arange(num_groups, dtype=np.int64)[:, None]
    r = np.arange(group_size, dtype=np.int64)[None, :]
    expected = r * num_groups + (g + hint[None, :]) % num_groups
    valid = sign_mask != 0
    if not np.array_equal(indices[valid], expected[valid]):
        return None
    return hint


def _checked_start(rows: np.ndarray, size: int, total: int) -> Optional[int]:
    """``rows[0]`` when ``rows`` is a contiguous ascending range, else None.

    Also rejects rows outside ``[0, total)``; a contiguous range needs only
    its two ends checked.
    """
    if size == 0:
        return None
    start = int(rows[0])
    if int(rows[size - 1]) - start + 1 == size and (
        size == 1 or bool((rows[1:] - rows[:-1] == 1).all())
    ):
        if start < 0 or start + size > total:
            raise ProtectionError(f"global rows out of range ({total} groups)")
        return start
    if not (0 <= rows.min() and rows.max() < total):
        raise ProtectionError(f"global rows out of range ({total} groups)")
    return None


#: Shared zero-length flagged-rows array for clean passes.  Write-locked so
#: an accidental in-place mutation of a shared result raises instead of
#: silently corrupting every aliasing holder.
_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_ROWS.setflags(write=False)

#: Memoized result of :func:`shared_memory_available` (None = not probed yet).
_SHM_AVAILABLE: Optional[bool] = None

#: Monotonic counter folded into segment names so repeated publishes (and
#: generation bumps) of one process never collide.
_SEGMENT_COUNTER = itertools.count()


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` actually works here.

    Probes by creating (and immediately destroying) a one-byte segment the
    first time it is called: importability alone is not enough — sandboxed
    platforms may expose the module but refuse ``shm_open``.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        if shared_memory is None:
            _SHM_AVAILABLE = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=1)
            except (OSError, ValueError):  # pragma: no cover - platform-specific
                _SHM_AVAILABLE = False
            else:
                probe.close()
                try:
                    probe.unlink()
                except (OSError, FileNotFoundError):  # pragma: no cover
                    pass
                _SHM_AVAILABLE = True
    return _SHM_AVAILABLE


def _segment_name(suffix: str) -> str:
    """A collision-free shm segment name, short enough for every platform.

    macOS caps POSIX shm names at 31 characters, so the name packs the pid
    and a process-wide counter in hex rather than anything descriptive.
    """
    return f"radar{os.getpid():x}x{next(_SEGMENT_COUNTER):x}{suffix}"


class SharedSegmentSpec(NamedTuple):
    """Plain-data handle to one shm segment: everything attach needs."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


class SharedPlaneSpec(NamedTuple):
    """Picklable descriptor of one model's published scan-kernel arrays.

    This is what the coordinator ships to worker processes: segment names
    (which embed nothing model-specific — the ``model``/``generation``
    fields carry identity), array geometry, and the two kernel parameters
    (``group_size``, ``signature_bits``) a worker needs to rebuild the
    accumulator dtype and binarization without importing any model code.
    The ``generation`` counter implements the republish protocol: a re-sign
    bumps it, workers compare it against their cached attachment and
    re-attach by (new) segment name when stale.

    ``structure`` carries the fuse-time rotated-arange detection verdict
    (:class:`PlaneStructureSpec`) so workers run the block-slice gather on
    exactly the layers the coordinator proved structured, without
    re-deriving — or being able to disagree with — the classification.
    """

    model: str
    generation: int
    group_size: int
    signature_bits: int
    total_groups: int
    total_weights: int
    plane: SharedSegmentSpec
    indices: SharedSegmentSpec
    signs: SharedSegmentSpec
    golden: SharedSegmentSpec
    structure: Optional[PlaneStructureSpec] = None


class AttachedModelPlane:
    """A worker-side, read-only attachment to one published model plane.

    Maps the four segments named by a :class:`SharedPlaneSpec` and exposes
    them as non-writeable NumPy arrays.  Workers never write the plane —
    mutation (attack injection, recovery, re-adoption) is coordinator
    business, and marking the views read-only turns an accidental write
    into a loud ``ValueError`` instead of silent cross-process corruption.

    Resource-tracker note: Python 3.11's ``SharedMemory`` registers
    *attachments* with the resource tracker as if they were owned segments
    (``track=False`` arrives only in 3.13).  Pool workers are children of
    the coordinator and share its tracker process (both fork and spawn
    inherit the tracker fd), where registration is a set — the attach-side
    register is an idempotent re-add of the coordinator's own entry, and
    the coordinator's ``unlink`` clears it exactly once.  Attachments must
    therefore *not* unregister themselves: doing so would steal the
    coordinator's registration and make its later unlink warn.  This class
    is correspondingly only safe to use from processes sharing the
    publisher's resource tracker (the pool's workers, or the publishing
    process itself).
    """

    def __init__(self, spec: SharedPlaneSpec) -> None:
        if shared_memory is None:  # pragma: no cover - import-gated platforms
            raise ProtectionError("multiprocessing.shared_memory is unavailable")
        self.spec = spec
        self._segments: List["shared_memory.SharedMemory"] = []
        #: Rebuilt once per attachment (not per scan) so every task over
        #: this plane reuses the executable structure metadata.
        self.structure = (
            None if spec.structure is None else PlaneStructure.from_spec(spec.structure)
        )
        try:
            self.plane = self._attach(spec.plane)
            self.indices = self._attach(spec.indices)
            self.signs = self._attach(spec.signs)
            self.golden = self._attach(spec.golden)
        except BaseException:
            self.close()
            raise

    def _attach(self, segment_spec: SharedSegmentSpec) -> np.ndarray:
        segment = shared_memory.SharedMemory(name=segment_spec.name)
        self._segments.append(segment)
        array: np.ndarray = np.ndarray(
            segment_spec.shape, dtype=np.dtype(segment_spec.dtype), buffer=segment.buf
        )
        array.flags.writeable = False
        return array

    @property
    def generation(self) -> int:
        return self.spec.generation

    def close(self) -> None:
        """Drop the array views and unmap the segments (never unlinks)."""
        self.plane = self.indices = self.signs = self.golden = None
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except (BufferError, ValueError):  # pragma: no cover - stray view
                pass


class FusedSignatures:
    """Zero-copy scan kernel: vectorized recomputation across all layers.

    A :class:`SignatureStore` recomputes signatures layer by layer, each
    time re-gathering the layer's full weight tensor.  This view instead
    fuses, once per store build, everything recomputation needs into three
    global arrays under one **global row** numbering (row ``r`` is group
    ``r - row_start`` of its owning layer):

    * an int8 **weight plane** — all layers' flat weights, concatenated;
    * one **gather-index matrix** ``(total_groups, group_size)`` into that
      plane (padding redirected to an in-layer slot);
    * one int8 **sign mask** of the same shape — ``+1``/``-1`` from the
      secret masking key, ``0`` on padded slots — so masking and padding
      cost nothing beyond the multiply already fused into the sum.

    Verifying any row set is then a stack of one through the scan kernel
    (:func:`stacked_mismatched_rows`): one int8 gather plus one masked-sum
    ``einsum`` accumulated in int32 (int64 only when ``group_size * 128``
    could overflow — never at paper scales), with all workspaces reused
    from a :class:`ScanScratch` across passes.  Both matrices are stored
    slot-major (``group_size × total_groups``) so the einsum reduces over
    the short axis and streams rows contiguously.  There is no per-layer
    Python loop, no per-row ``searchsorted`` dispatch, and no materialized
    ``gathered * mask`` product matrix.

    Weights reach the plane one of two ways:

    * **Adopted (zero-copy)** — :meth:`adopt` copies a model's weights into
      the plane once and rebinds each layer's ``qweight`` to a view of it;
      from then on attacks and recovery mutate the plane directly and a
      scan performs *no* weight copies (the fleet engine adopts every
      registered model).  A layer whose ``qweight`` is later replaced
      wholesale (``set_qweight``) is transparently re-adopted.
    * **Copied (compatibility)** — un-adopted models get their covered
      layers memcpy'd into the plane per pass: still int8-narrow and still
      free of the per-layer gather loop.

    The bit-identity reference for every verdict is the store's per-layer
    checksum path (:meth:`SignatureStore.mismatched_rows`), which is also
    the baseline of ``benchmarks/test_bench_scan_kernel.py``.
    """

    def __init__(self, store: SignatureStore) -> None:
        if len(store) == 0:
            raise ProtectionError("Signature store is empty; call store.build(model) first")
        self.config = store.config
        entries = list(store)
        self.layer_names: List[str] = [entry.layer_name for entry in entries]
        self._positions: Dict[str, int] = {
            name: position for position, name in enumerate(self.layer_names)
        }
        group_size = self.config.group_size
        self._indices: List[np.ndarray] = []
        self._sign_masks: List[np.ndarray] = []
        self._num_weights: List[int] = []
        for entry in entries:
            groups = entry.layout.groups
            valid = groups != PAD_INDEX
            signs = (
                entry.key.signs(group_size)
                if entry.key is not None
                else np.ones(group_size, dtype=np.int64)
            )
            mask = np.where(valid, signs[None, :], 0).astype(np.int8)
            self._indices.append(np.where(valid, groups, 0))
            self._sign_masks.append(mask)
            self._num_weights.append(entry.layout.num_weights)
        row_starts = store.row_starts()
        self._row_starts = row_starts
        self.golden = np.concatenate([entry.golden for entry in entries]).astype(np.uint8)
        self.total_groups = int(row_starts[-1])
        # Shared empty per-layer arrays for the clean-scan fast path of
        # rows_to_layer_groups (never mutated; reports treat them read-only).
        self._empty_groups: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=np.int64) for name in self.layer_names
        }
        self._structure_key: Optional[Tuple] = None
        self._kernel_key: Tuple[int, int] = (
            self.config.group_size,
            self.config.signature_bits,
        )

        # -- fused kernel state (built lazily by _ensure_kernel: callers that
        # only translate rows never pay for the global matrices or the
        # weight plane) ----------------------------------------------------------
        offsets = np.zeros(len(entries) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(self._num_weights)
        self._weight_offsets = offsets
        self.total_weights = int(offsets[-1])
        # Rotated-arange structure, detected (and proven) once at fuse
        # time: layers whose verified shifts are None fall back to the
        # general gather inside gather_block.
        self._structure = PlaneStructure(
            row_starts,
            offsets,
            [
                _verified_slot_shifts(
                    entry.layout, self._indices[position], self._sign_masks[position]
                )
                for position, entry in enumerate(entries)
            ],
        )
        self._scratch = ScanScratch()
        self._kernel_indices: Optional[np.ndarray] = None
        self._kernel_signs: Optional[np.ndarray] = None
        self._plane: Optional[np.ndarray] = None
        self._all_rows: Optional[np.ndarray] = None
        # Adoption state: the layer objects whose qweight buffers are views
        # of the plane, and those views themselves (identity-checked per
        # scan; see _prepare_plane).
        self._adopted = False
        self._plane_layers: List[Optional[Module]] = [None] * len(entries)
        self._plane_sources: List[Optional[np.ndarray]] = [None] * len(entries)
        # Scans of a *foreign* model while adopted must not write into the
        # adopted model's plane; they get their own lazily allocated one.
        self._foreign_plane: Optional[np.ndarray] = None
        # {name: layer} of the last scanned model, keyed by model identity
        # (see _layer_map): the module-tree walk is pure dispatch overhead
        # on the steady-state scan path.
        self._cached_layer_model: Optional[Module] = None
        self._cached_layer_map: Optional[Dict[str, Module]] = None
        # Shared-memory publication state (see share/unshare): the live
        # SharedMemory handles keyed like the spec fields, and the plain-data
        # spec workers attach from.
        self._shared_segments: Optional[Dict[str, object]] = None
        self._shared_spec: Optional[SharedPlaneSpec] = None
        # Optional crash-hygiene ledger (duck-typed: record/discard) the
        # publish/destroy paths notify, so a restarted coordinator can
        # reap segments a killed predecessor never unlinked.
        self._segment_registrar = None
        #: Weight bytes copied into a plane (adoption, stale re-adoption,
        #: un-adopted per-pass refresh).  The zero-copy acceptance evidence:
        #: in adopted steady state this counter does not move across scans.
        self.plane_copy_bytes = 0

    def _ensure_kernel(self) -> None:
        """Build the global kernel arrays on first kernel use (idempotent).

        Per-layer local indices already send pad slots to 0, so shifting by
        the layer offset keeps every index (pads included) inside its own
        layer's plane segment.  The global matrices are stored TRANSPOSED —
        ``(group_size, total_groups)``, slot-major — so the masked-sum
        einsum reduces over the short slot axis while streaming contiguously
        along the row axis (SIMD-friendly: ~2x the row-major reduction), and
        a row slice is one ``axis=1`` take.
        """
        if self._kernel_indices is not None:
            return
        index_dtype = (
            np.int32 if self.total_weights <= np.iinfo(np.int32).max else np.int64
        )
        self._kernel_indices = np.ascontiguousarray(
            np.concatenate(
                [
                    local + self._weight_offsets[position]
                    for position, local in enumerate(self._indices)
                ]
            ).T
        ).astype(index_dtype)
        self._kernel_signs = np.ascontiguousarray(
            np.concatenate(self._sign_masks).T
        )
        self._plane = np.empty(self.total_weights, dtype=np.int8)
        # The row slice of a full scan.
        self._all_rows = np.arange(self.total_groups, dtype=np.int64)

    @property
    def adopted(self) -> bool:
        """Whether a model's weight buffers currently live inside the plane."""
        return self._adopted

    @property
    def structure(self) -> PlaneStructure:
        """The fuse-time rotated-arange detection verdict for this plane."""
        return self._structure

    @property
    def structured(self) -> bool:
        """True when every layer's gather runs on the block-slice path."""
        return self._structure.fully_structured

    def structure_key(self) -> Tuple:
        """Hashable fingerprint of everything that determines this view's
        gather indices, sign masks and row numbering.

        Two stores with equal structure keys — same :class:`RadarConfig`
        grouping/masking parameters over the same layer names and weight
        counts — produce *identical* ``GroupLayout`` index matrices and
        secret-key sign masks (both are deterministic functions of these
        fields), so one row slice can be verified for all of them through
        the kernel's shared index/sign broadcast (``homogeneous`` in
        :func:`stacked_mismatched_rows`).  Golden signatures are NOT
        part of the key: they depend on each model's weights and stay
        per-view.
        """
        if self._structure_key is None:
            config = self.config
            self._structure_key = (
                config.group_size,
                config.signature_bits,
                config.use_interleave,
                config.interleave_offset,
                config.use_masking,
                config.key_bits,
                config.secret_seed,
                tuple(self.layer_names),
                tuple(self._num_weights),
            )
        return self._structure_key

    def kernel_key(self) -> Tuple[int, int]:
        """The coarser fingerprint bucketed stacking coalesces on.

        Views whose ``(group_size, signature_bits)`` match gather rows of
        the same width and binarize them identically, so their slices can
        share one padded stacked pass even when layer names, weight counts
        or masking keys differ (heterogeneous fleets); see
        :class:`StackedVerifier`.
        """
        return self._kernel_key

    # -- row bookkeeping -------------------------------------------------------
    def row_range(self, layer_name: str) -> Tuple[int, int]:
        """``[start, end)`` global row range of one layer's groups."""
        position = self._position_of(layer_name)
        return int(self._row_starts[position]), int(self._row_starts[position + 1])

    def _position_of(self, layer_name: str) -> int:
        position = self._positions.get(layer_name)
        if position is None:
            raise ProtectionError(
                f"Layer {layer_name!r} is not protected by this store"
            )
        return position

    def _layer_flat(self, layer_map: Mapping[str, Module], position: int) -> np.ndarray:
        name = self.layer_names[position]
        if name not in layer_map:
            raise ProtectionError(f"Protected layer {name!r} missing from model")
        flat = layer_map[name].qweight.reshape(-1)
        if flat.size != self._num_weights[position]:
            raise ProtectionError(
                f"Layer {name!r} has {flat.size} weights, expected {self._num_weights[position]}"
            )
        return flat

    # -- plane management ------------------------------------------------------
    def adopt(self, layer_map: Mapping[str, Module]) -> None:
        """Move a model's int8 weights into the kernel plane (zero-copy scans).

        Copies each layer's current weights into its plane segment and
        rebinds the layer's ``qweight`` to a view of that segment, so every
        later in-place mutation (attacks, recovery) lands directly in the
        plane and scans gather without copying anything.  Layers whose
        buffer is replaced wholesale later (``set_qweight``, re-quantize)
        are re-adopted transparently on the next scan.

        A model previously adopted by another view with identical geometry
        (the re-sign path: same layers, same weight counts) already keeps
        its buffers in one conforming plane — that plane is adopted as-is,
        with no copy and no rebinding, so weight references taken before a
        re-protect stay valid.
        """
        self._ensure_kernel()
        for position in range(len(self.layer_names)):
            name = self.layer_names[position]
            if name not in layer_map:
                raise ProtectionError(f"Protected layer {name!r} missing from model")
        alias = self._plane_alias(layer_map)
        if alias is not None:
            self._plane = alias
            for position, name in enumerate(self.layer_names):
                layer = layer_map[name]
                self._plane_layers[position] = layer
                self._plane_sources[position] = layer.qweight
        else:
            for position, name in enumerate(self.layer_names):
                self._adopt_layer(position, layer_map[name])
        self._adopted = True
        # A re-adoption replaces the plane registry, so a memoized map from
        # the previously adopted model must not keep taking the fast sweep.
        self._cached_layer_model = None
        self._cached_layer_map = None

    def _plane_alias(self, layer_map: Mapping[str, Module]) -> Optional[np.ndarray]:
        """An existing buffer the layers' weights already form a plane in.

        Returns the one int8 array every layer's ``qweight`` is a
        contiguous view of, laid out exactly at this view's offsets —
        or ``None`` when the buffers are independent and adoption must
        copy-and-rebind.
        """
        owner: Optional[np.ndarray] = None
        owner_address = 0
        for position, name in enumerate(self.layer_names):
            qweight = layer_map[name].qweight
            if (
                qweight is None
                or qweight.dtype != np.int8
                or not qweight.flags["C_CONTIGUOUS"]
                or qweight.size != self._num_weights[position]
            ):
                return None
            # Walk to the owning ndarray.  Stop as soon as the next base is
            # not an ndarray: a shm-backed plane's base is the segment's
            # memoryview, and the plane array itself is the owner we want.
            base = qweight
            while isinstance(base.base, np.ndarray):
                base = base.base
            if base is qweight:
                return None
            if owner is None:
                if (
                    base.dtype != np.int8
                    or base.ndim != 1
                    or not base.flags["C_CONTIGUOUS"]
                    or base.size != self.total_weights
                ):
                    return None
                owner = base
                owner_address = owner.__array_interface__["data"][0]
            elif base is not owner:
                return None
            address = qweight.__array_interface__["data"][0]
            if address != owner_address + int(self._weight_offsets[position]):
                return None
        return owner

    def _adopt_layer(self, position: int, layer: Module) -> None:
        flat = layer.qweight.reshape(-1)
        # Adoption rebinds the layer's buffer, so a bad dtype here would not
        # just miscompute one scan — it would silently truncate the weights
        # into the int8 plane and corrupt the model.  Fail loudly instead.
        if flat.dtype != np.int8:
            raise ProtectionError(
                f"Layer {self.layer_names[position]!r} qweight has dtype "
                f"{flat.dtype}; only int8 weights can be adopted into the plane"
            )
        if flat.size != self._num_weights[position]:
            raise ProtectionError(
                f"Layer {self.layer_names[position]!r} has {flat.size} weights, "
                f"expected {self._num_weights[position]}"
            )
        start, end = self._weight_offsets[position], self._weight_offsets[position + 1]
        segment = self._plane[start:end]
        segment[:] = flat
        self.plane_copy_bytes += int(flat.size)
        layer.qweight = segment.reshape(layer.qweight.shape)
        self._plane_layers[position] = layer
        self._plane_sources[position] = layer.qweight

    def _covered_positions(self, rows: Optional[np.ndarray]) -> Sequence[int]:
        """Layers whose plane segment a row slice reads (all, for a full scan).

        The layers spanned by the slice's lowest and highest row: exact for
        the contiguous slices schedulers plan, a superset for scattered
        rows.  Out-of-range rows land on the first or last layer and reach
        the kernel, which rejects them.
        """
        if rows is None:
            return range(len(self.layer_names))
        rows = np.asarray(rows)
        if rows.size == 0:
            return ()
        first, last = np.searchsorted(
            self._row_starts[1:-1], (rows.min(), rows.max()), side="right"
        )
        return range(int(first), int(last) + 1)

    def _prepare_plane(
        self, layer_map: Mapping[str, Module], rows: Optional[np.ndarray]
    ) -> np.ndarray:
        """The plane the kernel should gather from, refreshed as needed.

        Adopted steady state: every layer's ``qweight`` *is* its plane
        segment, so this is a pure identity sweep — zero copies.  A layer
        whose buffer was swapped out is re-adopted in place; a scan of a
        different model entirely falls back to memcpy-ing its covered
        layers into a separate foreign plane (the adopted model's weights
        live in the main plane and must not be overwritten).
        """
        self._ensure_kernel()
        if self._adopted:
            stale: List[int] = []
            foreign = False
            if layer_map is self._cached_layer_map:
                # The memoized map's layers were proven identical to the
                # plane registry when cached (_layer_map), so only buffer
                # staleness can change between scans — skip the name
                # lookups and identity sweep.
                for position, layer in enumerate(self._plane_layers):
                    if layer.qweight is not self._plane_sources[position]:
                        stale.append(position)
            else:
                for position, name in enumerate(self.layer_names):
                    if name not in layer_map:
                        raise ProtectionError(
                            f"Protected layer {name!r} missing from model"
                        )
                    layer = layer_map[name]
                    if layer is self._plane_layers[position]:
                        if layer.qweight is not self._plane_sources[position]:
                            stale.append(position)
                    else:
                        foreign = True
                        break
            if not foreign:
                for position in stale:
                    self._adopt_layer(
                        position, layer_map[self.layer_names[position]]
                    )
                return self._plane
            if self._foreign_plane is None:
                self._foreign_plane = np.empty(self.total_weights, dtype=np.int8)
            plane = self._foreign_plane
        else:
            plane = self._plane
        for position in self._covered_positions(rows):
            flat = self._layer_flat(layer_map, position)
            start = self._weight_offsets[position]
            plane[start : start + flat.size] = flat
            self.plane_copy_bytes += int(flat.size)
        return plane

    # -- shared-memory publication ---------------------------------------------
    @property
    def shared_spec(self) -> Optional[SharedPlaneSpec]:
        """The spec workers attach from, or ``None`` while unpublished."""
        return self._shared_spec

    def share(
        self, model: str, generation: int, registrar=None
    ) -> SharedPlaneSpec:
        """Publish the kernel arrays into ``multiprocessing.shared_memory``.

        Allocates one named segment per kernel array (weight plane, gather
        indices, sign mask, golden signatures), copies the current contents
        in, and rebinds this view — including every adopted layer's
        ``qweight`` — onto the segment-backed arrays.  From then on the
        coordinator's in-place mutations (attack injection, recovery) land
        directly in shared memory and are visible to attached workers with
        no further copies; scans stay zero-copy exactly as before, just on
        a different backing allocation.

        ``generation`` is recorded in the returned spec; the caller owns
        the counter and bumps it when a re-sign republishes (segment names
        are fresh each publish, so a stale worker attaching by old name
        fails fast rather than reading a re-signed plane).
        """
        if not shared_memory_available():
            raise ProtectionError(
                "multiprocessing.shared_memory is unavailable on this platform"
            )
        if self._shared_segments is not None:
            return self._shared_spec
        self._ensure_kernel()
        arrays = {
            "plane": self._plane,
            "indices": self._kernel_indices,
            "signs": self._kernel_signs,
            "golden": self.golden,
        }
        segments: Dict[str, object] = {}
        shared_arrays: Dict[str, np.ndarray] = {}
        specs: Dict[str, SharedSegmentSpec] = {}
        try:
            for key, array in arrays.items():
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes), name=_segment_name(key[0])
                )
                segments[key] = segment
                shared = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                shared[...] = array
                shared_arrays[key] = shared
                specs[key] = SharedSegmentSpec(
                    name=segment.name, shape=tuple(array.shape), dtype=array.dtype.str
                )
        except (OSError, ValueError) as error:
            for key in list(shared_arrays):
                del shared_arrays[key]
            for segment in segments.values():
                try:
                    segment.close()
                    segment.unlink()
                except (OSError, FileNotFoundError):  # pragma: no cover
                    pass
            raise ProtectionError(
                f"could not publish shared-memory plane: {error}"
            ) from error
        self._plane = shared_arrays["plane"]
        self._kernel_indices = shared_arrays["indices"]
        self._kernel_signs = shared_arrays["signs"]
        self.golden = shared_arrays["golden"]
        if self._adopted:
            self._rebind_layers()
        self._shared_segments = segments
        self._shared_spec = SharedPlaneSpec(
            model=model,
            generation=int(generation),
            group_size=int(self.config.group_size),
            signature_bits=int(self.config.signature_bits),
            total_groups=self.total_groups,
            total_weights=self.total_weights,
            plane=specs["plane"],
            indices=specs["indices"],
            signs=specs["signs"],
            golden=specs["golden"],
            structure=self._structure.spec(),
        )
        # Record the published names *after* the segments exist: a crash
        # between publish and record leaks at most this one generation,
        # which the OS-level registry reap on the next restart cannot see —
        # whereas recording first could reap live segments.
        self._segment_registrar = registrar
        if registrar is not None:
            registrar.record(
                model,
                int(generation),
                [spec.name for spec in specs.values()],
            )
        return self._shared_spec

    def _rebind_layers(self) -> None:
        """Point every adopted layer's ``qweight`` at the current plane."""
        for position, layer in enumerate(self._plane_layers):
            if layer is None:
                continue
            start = self._weight_offsets[position]
            end = self._weight_offsets[position + 1]
            segment = self._plane[start:end]
            layer.qweight = segment.reshape(layer.qweight.shape)
            self._plane_sources[position] = layer.qweight

    def unshare(self) -> None:
        """Move the kernel arrays back to private memory, destroy the segments.

        The graceful-teardown path (engine ``close``): plane contents are
        preserved — adopted layers are rebound onto a fresh heap plane so
        the model stays fully usable — and only then are the segments
        unmapped and unlinked.  Idempotent.
        """
        if self._shared_segments is None:
            return
        self._plane = np.array(self._plane)
        self._kernel_indices = np.array(self._kernel_indices)
        self._kernel_signs = np.array(self._kernel_signs)
        self.golden = np.array(self.golden)
        if self._adopted:
            self._rebind_layers()
        self._destroy_segments()

    def release_shared(self) -> None:
        """Destroy the segments without preserving the plane (discard path).

        For a view being replaced after a re-sign: the successor view has
        already re-homed the layers' weights onto its own plane, so this
        view just drops its segment-backed arrays (golden is copied out —
        reports may still reference it) and unlinks.  The kernel arrays
        rebuild lazily if the view is ever scanned again.
        """
        if self._shared_segments is None:
            return
        self.golden = np.array(self.golden)
        self._plane = None
        self._kernel_indices = None
        self._kernel_signs = None
        self._adopted = False
        self._plane_layers = [None] * len(self.layer_names)
        self._plane_sources = [None] * len(self.layer_names)
        self._foreign_plane = None
        self._cached_layer_model = None
        self._cached_layer_map = None
        self._destroy_segments()

    def _destroy_segments(self) -> None:
        segments, self._shared_segments = self._shared_segments, None
        spec, self._shared_spec = self._shared_spec, None
        registrar, self._segment_registrar = self._segment_registrar, None
        if registrar is not None and spec is not None:
            # Graceful teardown owns its segments; drop the ledger entry so
            # a later reap never races a name the OS already recycled.  The
            # generation guard matters on re-sign: the successor records its
            # fresh names under the same model *before* this old view is
            # destroyed, and that entry must survive.
            registrar.discard(spec.model, generation=spec.generation)
        for segment in segments.values():
            # Unlink before close: unlinking works with live mappings, and
            # doing it first guarantees the name is gone even if a stray
            # external view makes close() raise.
            try:
                segment.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
            try:
                segment.close()
            except (BufferError, ValueError):  # pragma: no cover - stray view
                pass

    # -- verification ----------------------------------------------------------
    def _layer_map(self, model: Module) -> Dict[str, Module]:
        """``{name: quantized layer}`` for ``model``, memoized for adoption.

        Walking the module tree dominated small sliced scans (~80 µs of a
        ~200 µs pass on ResNet-20), and the steady state scans the same
        model object every tick.  Only the *adopted* model is memoized: its
        layers are already pinned by the plane registry, so the memo adds
        no lifetime (transient foreign models stay collectable), and buffer
        staleness is still caught per scan — :meth:`_prepare_plane`
        compares every layer's ``qweight`` against the registry.  A model
        whose layer *attributes* are rebound to brand-new layer objects
        must be re-adopted, the same contract the fleet engine's
        ``ManagedModel.layer_map`` cache already imposes.
        """
        if model is self._cached_layer_model:
            return self._cached_layer_map
        layer_map = dict(quantized_layers(model))
        if self._adopted and all(
            layer_map.get(name) is layer
            for name, layer in zip(self.layer_names, self._plane_layers)
        ):
            self._cached_layer_model = model
            self._cached_layer_map = layer_map
        return layer_map

    def mismatched_rows(
        self, model: Module, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Global rows (among ``rows``) whose current signature differs from golden.

        ``rows=None`` verifies every group.  A stack of one through
        :func:`stacked_mismatched_rows`, on this view's own scratch: the
        single-model path of :class:`~repro.core.runtime.ProtectedInference`
        and :meth:`~repro.core.scheduler.ScanScheduler.step`.
        """
        layer_map = self._layer_map(model)
        plane = self._prepare_plane(layer_map, rows)
        return stacked_mismatched_rows(
            [plane],
            [self._kernel_indices],
            [self._kernel_signs],
            [self.golden],
            [self._all_rows if rows is None else rows],
            self.config.group_size,
            self.config.signature_bits,
            self._scratch,
            True,
            [self._structure],
        )[0]

    def rows_to_layer_groups(self, rows: np.ndarray) -> Dict[str, np.ndarray]:
        """Translate global rows into per-layer group indices (all layers present).

        Layers with no listed row map to an empty array, matching the shape
        of a full :class:`~repro.core.detector.DetectionReport`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            # Clean scans dominate a healthy fleet's ticks; skip the per-layer
            # unique/compare work and hand out the shared empty arrays.
            return dict(self._empty_groups)
        result: Dict[str, np.ndarray] = {}
        for position, name in enumerate(self.layer_names):
            start, end = self._row_starts[position], self._row_starts[position + 1]
            inside = rows[(rows >= start) & (rows < end)]
            result[name] = np.unique(inside - start).astype(np.int64)
        return result


def split_by_padding_waste(
    sizes: Sequence[int], max_waste: float
) -> List[List[int]]:
    """Partition slice sizes so no padded stack wastes more than ``max_waste``.

    Bucketed padded stacking pads every model's row count to the bucket
    maximum, so a bucket mixing one huge slice with several tiny ones does
    almost all of its gather/einsum work on zero-signed padding.  This
    helper is the **width-disparity guard**: given the per-slice row counts
    of one kernel bucket, it returns index groups (into ``sizes``) such
    that every slice in a group satisfies

        size >= (1 - max_waste) * max(sizes in group)

    i.e. no slice's padded column is more than ``max_waste`` padding.  That
    per-column bound implies the group's aggregate padding-waste ratio
    ``1 - sum(sizes) / (width * len(group))`` stays at or below
    ``max_waste`` too (it is the mean of the per-column wastes).  Groups
    are cut over the sizes in descending order, so similarly sized slices
    stay coalesced (keeping the dispatch-amortization win) and a dwarfing
    slice is split off alone rather than dragging one near-threshold small
    slice along with it.

    ``max_waste`` must lie in ``[0, 1)``; ``0`` coalesces only exactly
    equal sizes, values near ``1`` effectively disable the guard.  Every
    input index appears in exactly one returned group, and a single-slice
    group is always acceptable (its waste is zero by definition).
    """
    if not 0 <= max_waste < 1:
        raise ProtectionError(f"max_waste must be in [0, 1), got {max_waste}")
    if sizes and len(set(sizes)) <= 1:
        # Equal sizes (the homogeneous fleet steady state) can never split.
        return [list(range(len(sizes)))]
    order = sorted(range(len(sizes)), key=lambda index: -int(sizes[index]))
    groups: List[List[int]] = []
    current: List[int] = []
    width = 0
    for index in order:
        size = int(sizes[index])
        if not current:
            current, width = [index], size
        elif size >= (1.0 - max_waste) * width:
            current.append(index)
        else:
            groups.append(current)
            current, width = [index], size
    if current:
        groups.append(current)
    return groups


def _stacked_sums(
    planes: Sequence[np.ndarray],
    indices_list: Sequence[np.ndarray],
    signs_list: Sequence[np.ndarray],
    rows_list: Sequence[np.ndarray],
    sizes: Sequence[int],
    starts: Sequence[Optional[int]],
    width: int,
    group_size: int,
    accum: np.dtype,
    scratch: ScanScratch,
    homogeneous: bool,
    structures: Sequence[Optional[PlaneStructure]],
) -> np.ndarray:
    """The stacked gather + einsum core of :func:`stacked_mismatched_rows`.

    ``starts[i]`` is the first row of model *i*'s slice when that slice is
    one contiguous ascending run, else ``None``.

    The width axis is processed in cache-blocked tiles
    (:func:`_stacked_tile_width`): the per-tile gathered stack and sign
    stack stay L2-resident while the einsum that immediately consumes them
    re-reads every byte, instead of streaming a whole padded bucket through
    cache twice.  Within each tile, a model whose rows are one contiguous
    run routes through :meth:`PlaneStructure.gather_block` when its plane
    has verified rotated-arange structure, serves plain index/sign *views*
    when contiguous but unstructured, and falls back to the general padded
    ``np.take`` for arbitrary row sets — all three produce identical int8
    gathers, so the integer sums are exact regardless of path.

    Returns the ``(num_models, width)`` sums view into ``scratch``.
    """
    num_models = len(planes)
    tile = _stacked_tile_width(num_models, group_size, width)
    sums = scratch.take("stacked-sums", (num_models, width), accum)
    if homogeneous:
        rows0 = rows_list[0]
        start0 = starts[0]
        indices0 = indices_list[0]
        signs0 = signs_list[0]
        for w0 in range(0, width, tile):
            w1 = w0 + tile
            if w1 > width:
                w1 = width
            span = w1 - w0
            stacked = scratch.take("stacked", (num_models, group_size, span), np.int8)
            if start0 is not None:
                lo = start0 + w0
                hi = start0 + w1
                signs = signs0[:, lo:hi]
                if span < STRUCTURED_MIN_COLUMNS_PER_LAYER:
                    # Narrow tiles (the budgeted fleet's per-tick slices)
                    # can never clear gather_block's per-layer column
                    # threshold — skip the per-model chooser and serve one
                    # shared index view to plain takes, the pre-blocking
                    # shape of this loop.
                    block = indices0[:, lo:hi]
                    for index in range(num_models):
                        # ndarray.take skips the np.take wrapper dispatch;
                        # at fleet scale the wrapper alone is a visible
                        # share of a narrow pass.
                        planes[index].take(block, out=stacked[index], mode="clip")
                else:
                    block = indices0[:, lo:hi]
                    for index in range(num_models):
                        structure = structures[index]
                        if structure is not None and structure.any_structured:
                            structure.gather_block(
                                planes[index],
                                indices_list[index],
                                stacked[index],
                                lo,
                                hi,
                            )
                        else:
                            planes[index].take(
                                block, out=stacked[index], mode="clip"
                            )
            else:
                block = rows0[w0:w1]
                indices = scratch.take("row-indices", (group_size, span), indices0.dtype)
                np.take(indices0, block, axis=1, out=indices)
                signs = scratch.take("row-signs", (group_size, span), np.int8)
                np.take(signs0, block, axis=1, out=signs)
                for index in range(num_models):
                    planes[index].take(indices, out=stacked[index], mode="clip")
            np.einsum(
                "kgr,gr->kr", stacked, signs, dtype=accum, out=sums[:, w0:w1]
            )
        return sums
    for w0 in range(0, width, tile):
        w1 = w0 + tile
        if w1 > width:
            w1 = width
        span = w1 - w0
        stacked = scratch.take("stacked", (num_models, group_size, span), np.int8)
        signs = scratch.take("stacked-signs", (num_models, group_size, span), np.int8)
        for index in range(num_models):
            # A model shorter than the bucket width contributes garbage
            # columns past ``valid``; zeroed signs null them exactly, so no
            # padded gather is ever performed (the legacy path padded the
            # row list with row 0 and gathered it anyway).
            valid = sizes[index] - w0
            if valid <= 0:
                signs[index].fill(0)
                continue
            if valid > span:
                valid = span
            start = starts[index]
            if start is not None:
                lo = start + w0
                hi = lo + valid
                # Same narrow-span bypass as the homogeneous loop: below the
                # per-layer column threshold the chooser always falls back.
                structure = (
                    structures[index]
                    if valid >= STRUCTURED_MIN_COLUMNS_PER_LAYER
                    else None
                )
                if structure is not None and structure.any_structured:
                    structure.gather_block(
                        planes[index],
                        indices_list[index],
                        stacked[index][:, :valid],
                        lo,
                        hi,
                    )
                else:
                    planes[index].take(
                        indices_list[index][:, lo:hi],
                        out=stacked[index][:, :valid],
                        mode="clip",
                    )
                np.copyto(signs[index][:, :valid], signs_list[index][:, lo:hi])
            else:
                block = rows_list[index][w0 : w0 + valid]
                indices = scratch.take(
                    "bucket-indices", (group_size, valid), indices_list[index].dtype
                )
                np.take(indices_list[index], block, axis=1, out=indices)
                np.take(signs_list[index], block, axis=1, out=signs[index][:, :valid])
                np.take(
                    planes[index], indices, out=stacked[index][:, :valid], mode="clip"
                )
            if valid < span:
                signs[index][:, valid:] = 0
        np.einsum("kgr,kgr->kr", stacked, signs, dtype=accum, out=sums[:, w0:w1])
    return sums


def batched_mismatched_rows(
    views: Sequence[FusedSignatures],
    layer_maps: Sequence[Mapping[str, Module]],
    rows: Sequence[np.ndarray],
    scratch: Optional[ScanScratch] = None,
) -> List[np.ndarray]:
    """Verify per-model row slices of several models in one stacked pass.

    ``views[i]`` is model *i*'s fused view, ``layer_maps[i]`` its
    ``{layer_name: quantized layer}`` mapping and ``rows[i]`` its global
    row slice.  Views only need matching
    :meth:`FusedSignatures.kernel_key` (``group_size``,
    ``signature_bits``): row counts are padded to the longest slice with
    zero sign rows, so models of *different* architectures share one
    gather + einsum + binarize + compare.  A one-shot
    :class:`StackedVerifier`; returns one flagged-row array per model,
    identical to ``views[i].mismatched_rows(model_i, rows[i])``.
    """
    return StackedVerifier(views, layer_maps).verify(rows, scratch)


class StackedVerifier:
    """:func:`stacked_mismatched_rows` over a fixed bucket of fused views.

    The fleet engine re-verifies the *same* views with the same layer maps
    every tick; only the row slices change.  Construction validates the
    kernel keys, builds every view's kernel arrays and, when the goldens
    share one length, prestacks them into one ``(num_models, total_groups)``
    matrix so a homogeneous contiguous slice compares against a *view* of
    it in one vectorized pass.  Goldens are never rewritten in place (a
    re-sign builds a new view), so the stack stays valid; the engine
    rebuilds the verifier when bucket *membership* changes, which it
    detects by view identity.
    """

    def __init__(
        self,
        views: Sequence["FusedSignatures"],
        layer_maps: Sequence[Mapping[str, Module]],
    ) -> None:
        if not views:
            raise ProtectionError("StackedVerifier needs at least one view")
        if len(views) != len(layer_maps):
            raise ProtectionError(
                f"got {len(views)} views but {len(layer_maps)} layer maps"
            )
        kernel_key = views[0].kernel_key()
        for view in views[1:]:
            if view.kernel_key() != kernel_key:
                raise ProtectionError(
                    "bucketed stacking needs matching (group_size, "
                    "signature_bits) kernel keys"
                )
        for view in views:
            view._ensure_kernel()
        self.views = list(views)
        self.layer_maps = list(layer_maps)
        self._structures = [view._structure for view in views]
        goldens = [view.golden for view in views]
        self._goldens = (
            np.stack(goldens) if len({golden.size for golden in goldens}) == 1 else goldens
        )

    def verify(
        self,
        rows_list: Sequence[np.ndarray],
        scratch: Optional[ScanScratch] = None,
        homogeneous: bool = False,
    ) -> List[np.ndarray]:
        """Flagged-row arrays for one tick's per-model row slices.

        ``homogeneous`` is the caller's promise that every view shares one
        structure key and every slice the same rows (see
        :func:`stacked_mismatched_rows`).
        """
        views = self.views
        if len(rows_list) != len(views):
            raise ProtectionError(
                f"got {len(views)} views but {len(rows_list)} row arrays"
            )
        config = views[0].config
        return stacked_mismatched_rows(
            [
                view._prepare_plane(layer_map, rows)
                for view, layer_map, rows in zip(views, self.layer_maps, rows_list)
            ],
            # Read per call: share/unshare rebind a view's kernel arrays.
            [view._kernel_indices for view in views],
            [view._kernel_signs for view in views],
            self._goldens,
            rows_list,
            config.group_size,
            config.signature_bits,
            scratch,
            homogeneous,
            self._structures,
        )


def stacked_mismatched_rows(
    planes: Sequence[np.ndarray],
    indices_list: Sequence[np.ndarray],
    signs_list: Sequence[np.ndarray],
    goldens: Sequence[np.ndarray],
    rows_list: Sequence[np.ndarray],
    group_size: int,
    signature_bits: int,
    scratch: Optional[ScanScratch] = None,
    homogeneous: bool = False,
    structures: Optional[Sequence[Optional[object]]] = None,
) -> List[np.ndarray]:
    """The scan kernel: flagged global rows of a stack of models.

    Every verification path ends here — the single-model view
    (:meth:`FusedSignatures.mismatched_rows`, a stack of one), the
    engine's buckets (:class:`StackedVerifier`) and the worker processes,
    which hold no ``Module`` objects and no :class:`FusedSignatures`, just
    each model's weight plane, slot-major gather-index and sign matrices
    and golden signatures (published :class:`SharedPlaneSpec` segments).
    Model *i*'s rows ``rows_list[i]`` are gathered from ``planes[i]``,
    summed under the sign mask by a cache-blocked narrow-accumulation
    einsum (:func:`_stacked_sums`), binarized and compared with
    ``goldens[i]``; the result lists the mismatching rows in slice order.

    ``homogeneous=True`` is a caller-supplied promise that every model
    shares one structure key *and* one row slice (the engine knows; the
    kernel cannot cheaply verify), enabling the shared index/sign
    broadcast; a 2-D ``goldens`` array then compares the whole stack at
    once.  ``structures`` optionally carries each model's rotated-arange
    structure — a :class:`PlaneStructure`, a picklable
    :class:`PlaneStructureSpec`, or ``None`` — so contiguous slices gather
    by block copies.  Contiguous slices also compare against a view of
    their golden rows.  Neither flag changes a verdict: integer sums are
    exact on every path.
    """
    num_models = len(planes)
    if not (
        num_models == len(indices_list) == len(signs_list) == len(goldens) == len(rows_list)
    ):
        raise ProtectionError("stacked_mismatched_rows arguments disagree on model count")
    if num_models == 0:
        return []
    if structures is None:
        structure_list: List[Optional[PlaneStructure]] = [None] * num_models
    else:
        if len(structures) != num_models:
            raise ProtectionError(
                f"got {num_models} planes but {len(structures)} structures"
            )
        structure_list = [
            PlaneStructure.from_spec(item)
            if isinstance(item, PlaneStructureSpec)
            else item
            for item in structures
        ]
    rows_list = [np.asarray(rows, dtype=np.int64) for rows in rows_list]
    sizes = [int(rows.size) for rows in rows_list]
    width = max(sizes)
    if width == 0:
        return [_EMPTY_ROWS] * num_models
    checked = 1 if homogeneous else num_models
    starts = [
        _checked_start(rows_list[index], sizes[index], goldens[index].size)
        for index in range(checked)
    ]
    if homogeneous:
        starts *= num_models
    sums = _stacked_sums(
        planes,
        indices_list,
        signs_list,
        rows_list,
        sizes,
        starts,
        width,
        group_size,
        accumulator_dtype(group_size),
        scratch if scratch is not None else ScanScratch(),
        homogeneous,
        structure_list,
    )
    shift, mask = signature_shift_mask(signature_bits)
    np.right_shift(sums, shift, out=sums)
    np.bitwise_and(sums, mask, out=sums)
    if homogeneous and isinstance(goldens, np.ndarray):
        rows0, start = rows_list[0], starts[0]
        golden = goldens[:, start : start + width] if start is not None else goldens[:, rows0]
        mismatch = sums != golden
        if not mismatch.any():
            return [_EMPTY_ROWS] * num_models
        return [rows0[row_mismatch] for row_mismatch in mismatch]
    flagged: List[np.ndarray] = []
    for index in range(num_models):
        size, start, rows = sizes[index], starts[index], rows_list[index]
        golden = goldens[index]
        golden = golden[start : start + size] if start is not None else golden[rows]
        mismatch = sums[index, :size] != golden
        flagged.append(rows[mismatch] if mismatch.any() else _EMPTY_ROWS)
    return flagged


def flip_group_index(store: SignatureStore, layer_name: str, flat_index: int) -> Tuple[str, int]:
    """The ``(layer, group)`` a given weight index belongs to under the store's layout."""
    entry = store.layer(layer_name)
    return layer_name, entry.layout.group_of(flat_index)
