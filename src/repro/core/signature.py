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
:class:`FusedSignatures`: all layers fused into one contiguous int8 weight
plane.  Verifying a wide contiguous range of an interleaved plane is a
few int16 ``einsum`` calls per layer over strided views of the plane
itself (:class:`PlaneStructure`); any other row set is one int8 gather
plus one int16 ``einsum``, with no per-group Python loop and (for
engine-adopted models) no weight copy.  Every verification path — one
model, an engine bucket (:class:`StackedVerifier`) — is a thin caller of
that one kernel.

**Geometry per shape, state per model.**  The gather columns, the layer
offsets and the band structure depend only on the layers' layouts, secret
keys and group size, never on the weights.  They live in a write-locked
:class:`KernelGeometry` that :func:`kernel_geometry` builds once per plane
shape and shares, holding gather columns only where a gather reads them;
layouts are closed forms with no per-weight arrays, shared the same way
(:func:`shared_layout`).  A view itself holds only its goldens (the
store's buffer, which a re-sign rewrites in place), its plane and the
adoption registry, so a fleet of equal-shaped models — or a model
protected again over new weights — pays for its geometry once.
"""

from __future__ import annotations

import bisect
import math
import threading
import weakref
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

from repro.core.checksum import compute_signatures, signature_shift_mask
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


#: Live layouts by their parameters.  Weak values: a layout lives as long as
#: a store or a kernel geometry holds it, and the memo never pins one.
_LAYOUTS: "weakref.WeakValueDictionary[Tuple, GroupLayout]" = (
    weakref.WeakValueDictionary()
)


def shared_layout(
    num_weights: int, group_size: int, use_interleave: bool, interleave_offset: int
) -> GroupLayout:
    """The one live :class:`GroupLayout` with these parameters (built on a miss).

    A layout is a pure function of its parameters and frozen, so
    equal-shaped layers share one — across the models of
    a fleet and within a model (ResNets repeat their conv shapes) — and
    views over them share one :class:`KernelGeometry`.  Two threads racing
    on a miss may each build one; either is correct.
    """
    key = (num_weights, group_size, use_interleave, interleave_offset)
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS.setdefault(
            key,
            GroupLayout(
                num_weights=num_weights,
                group_size=group_size,
                use_interleave=use_interleave,
                interleave_offset=interleave_offset,
            ),
        )
    return layout


class SignatureStore:
    """Golden signatures for all quantized layers of one model.

    Every layer's goldens are views of one ``uint8`` buffer
    (:attr:`golden`, in global-row order), which the store's
    :class:`FusedSignatures` view reads as its own goldens: an in-place
    re-sign (:meth:`resign`) updates the oracle and the kernel in one write.
    """

    def __init__(self, config: RadarConfig) -> None:
        self.config = config
        self._layers: Dict[str, LayerSignatures] = {}
        self._fused: Optional["FusedSignatures"] = None
        self.golden = np.empty(0, dtype=np.uint8)

    # -- construction ---------------------------------------------------------
    def build(self, model: Module) -> "SignatureStore":
        """Compute golden signatures from the model's current (clean) weights.

        Derives each layer's layout and secret key; :meth:`resign` then
        fills every golden.
        """
        layers = quantized_layers(model)
        if not layers:
            raise ProtectionError("Model has no quantized layers to protect")
        for name, layer in layers:
            if not layer.is_quantized:
                raise ProtectionError(
                    f"Layer {name!r} is not quantized; call quantize_model before protecting"
                )
        config = self.config
        entries = [
            LayerSignatures(
                layer_name=name,
                layout=shared_layout(
                    int(layer.qweight.size),
                    config.group_size,
                    config.use_interleave,
                    config.interleave_offset,
                ),
                key=(
                    SecretKey.generate(config.key_bits, config.secret_seed, name)
                    if config.use_masking
                    else None
                ),
                golden=np.empty(0, dtype=np.uint8),
            )
            for name, layer in layers
        ]
        self.golden = np.empty(
            sum(entry.num_groups for entry in entries), dtype=np.uint8
        )
        self._layers.clear()
        self._fused = None
        start = 0
        for entry in entries:
            entry.golden = self.golden[start : start + entry.num_groups]
            start += entry.num_groups
            self._layers[entry.layer_name] = entry
        self.resign(dict(layers))
        return self

    def resign(
        self,
        layer_map: Mapping[str, Module],
        groups: Optional[Mapping[str, np.ndarray]] = None,
    ) -> int:
        """Rewrite goldens in place from the layers' current weights.

        ``groups`` maps layer names to the group indices to re-sign (a
        :class:`~repro.core.detector.DetectionReport`'s ``flagged_groups``
        fits); layers it does not list keep their goldens.  ``None``
        re-signs every group of every layer.  Each layer's stored layout
        and key are reused, so no key is derived again, and the writes land
        in :attr:`golden`, which the fused view shares.  Returns the number
        of groups rewritten.
        """
        bits = self.config.signature_bits
        resigned = 0
        for name, entry in self._layers.items():
            listed = None
            if groups is not None:
                listed = groups.get(name)
                if listed is None or len(listed) == 0:
                    continue
                listed = np.asarray(listed, dtype=np.int64)
            if name not in layer_map:
                raise ProtectionError(f"Protected layer {name!r} missing from model")
            flat = layer_map[name].qweight.reshape(-1)
            if flat.size != entry.layout.num_weights:
                raise ProtectionError(
                    f"Layer {name!r} has {flat.size} weights, expected "
                    f"{entry.layout.num_weights}; protect the model again to "
                    "sign a new shape"
                )
            signatures = compute_signatures(flat, entry.layout, entry.key, bits, groups=listed)
            if listed is None:
                entry.golden[:] = signatures
            else:
                entry.golden[listed] = signatures
            resigned += signatures.size
        return resigned

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


#: Cache-blocking budget for the general-gather stacked kernel: the
#: per-tile gathered stack and sign stack (2 int8 bytes per model per slot
#: per column) are sized to stay resident in a typical per-core L2 slice
#: while the einsum that immediately consumes them re-reads every byte.
STACKED_TILE_BYTES = 1 << 20

#: Tiles never shrink below this many columns — past that point the extra
#: per-tile NumPy dispatch costs more than the cache locality buys.
MIN_STACKED_TILE_COLUMNS = 256

#: The scan kernel's accumulator.  A signature reads only bits 6-8 of the
#: masked sum ``M`` and int16 arithmetic is exact modulo 2**16, so the low
#: 16 bits — all the kernel keeps — are right for every group size and
#: signature width, with half the accumulator traffic of int32.  The
#: oracle keeps exact sums (:func:`~repro.core.checksum.accumulator_dtype`).
KERNEL_ACCUMULATOR = np.dtype(np.int16)

#: Fewest weights one band einsum must cover before the band path beats
#: the general gather.  A band costs a fixed ~6-10 µs of dispatch (view,
#: einsum, add) plus ~0.3 ns per weight of its box, and banding a layer
#: can split a neighbouring ``np.take`` run in two; ``np.take`` plus its
#: einsum cost ~1-3 ns per weight.  Measured on a 2-CPU host by
#: interleaving whole checks at thresholds from 4096 to 16384: ResNet-20
#: (G=8) full scans and shard slices were fastest at 8192 (at 4096, slices
#: whose bands split a take run ran up to ~40% slower; at 16384, slices it
#: kept off the bands ran up to ~55% slower), and ResNet-18 (G=512) full
#: checks were flat across the range.  A layer (or the part of it a slice covers) below
#: this stays on ``np.take``; every banded layer has at least two bands,
#: so a slice under twice this many weights skips the band path outright.
MIN_WEIGHTS_PER_BAND = 8192


def _stacked_tile_width(num_models: int, group_size: int, width: int) -> int:
    """Columns per cache-blocked stacked tile (the whole width if it fits).

    A stack of one is never tiled: its gather feeds one einsum directly,
    and measured on ResNet-18 at ``G = 512`` the per-tile dispatch cost
    more than the cache locality bought.
    """
    if num_models == 1:
        return int(width)
    per_column = 2 * num_models * group_size
    tile = STACKED_TILE_BYTES // max(per_column, 1)
    if tile < MIN_STACKED_TILE_COLUMNS:
        tile = MIN_STACKED_TILE_COLUMNS
    return int(tile) if tile < width else int(width)


class _Band(NamedTuple):
    """One wrap band of a structured layer (see :class:`PlaneStructure`)."""

    #: ``m``: the band holds the slots whose column wrapped ``m`` times.
    wrap: int
    #: First slot row and first layer-local column of the bounding box.
    row0: int
    col0: int
    #: Plane offset of the box's ``(row0, col0)`` corner.
    offset: int
    #: ``(rows, cols)`` int8 sign mask, zero outside the band's staircase.
    signs: np.ndarray


class _BandedLayer(NamedTuple):
    """A layer served by the band path: ``N`` groups, interleave ``t``."""

    groups: int
    shift: int
    bands: Tuple[_Band, ...]


class PlaneStructure:
    """Executable rotated-arange structure of one fused weight plane.

    Built once per plane shape by :class:`KernelGeometry` after
    *numerically verifying* each layer's analytic
    :meth:`~repro.core.interleave.GroupLayout.slot_shifts` hint against the
    layout's own index computation (see :func:`_verified_slot_shifts`).

    On a structured layer of ``N`` groups with interleave ``t``, slot ``r``
    of group ``g`` sits at plane offset ``base + r*N + (g + r*t) mod N``.
    Splitting the slot-by-group grid by the wrap count ``m = (r*t + g) //
    N`` turns each part into a uniform-strided view of the plane —
    ``base - m*N + r*(N + t) + g`` — so the layer's sums are ``Σ_m
    einsum(view_m, band_m)`` (:meth:`KernelGeometry.band_sums`), where
    ``band_m`` holds slot ``r``'s key sign on the band's staircase and 0
    elsewhere.  Bands are trimmed to their bounding boxes (at most ~2× the
    layer's area), cut once at construction from each layer's ``(G,)`` key
    vector and write-locked; views are built per call with
    ``np.ndarray(buffer=plane, ...)``, which bounds-checks every one.
    Positions a box covers outside the staircase (other wraps, padded
    slots, the next layer's weights) carry sign 0, so the sums equal the
    general gather's exactly modulo 2**16.  Layers that are unstructured,
    too small for the per-band dispatch to pay off
    (:data:`MIN_WEIGHTS_PER_BAND`) or whose boxes would leave the plane
    are left unbanded, for the general ``np.take`` gather.
    """

    def __init__(self, row_starts, weight_offsets, shifts, layer_signs) -> None:
        self.row_starts: List[int] = [int(value) for value in row_starts]
        self.weight_offsets: List[int] = [int(value) for value in weight_offsets]
        self.shifts: List[Optional[List[int]]] = [
            None if layer is None else [int(value) for value in layer]
            for layer in shifts
        ]
        self.structured_layers = sum(
            1 for layer in self.shifts if layer is not None
        )
        # Cut once, here: the structure is shared by every view of its
        # plane shape and read by concurrent verifier threads, so nothing
        # in it may change after construction.  ``None`` when no layer
        # qualifies for the band path.
        bands = [
            self._banded_layer(position, layer_signs[position])
            for position in range(self.num_layers)
        ]
        self._bands: Optional[List[Optional[_BandedLayer]]] = (
            bands if any(layer is not None for layer in bands) else None
        )

    @property
    def num_layers(self) -> int:
        return len(self.shifts)

    @property
    def any_structured(self) -> bool:
        """Whether any layer can run on the band path."""
        return self.structured_layers > 0

    @property
    def fully_structured(self) -> bool:
        """Whether every layer has a verified rotated-arange structure."""
        return self.structured_layers == self.num_layers

    def _banded_layer(self, position: int, key: np.ndarray) -> Optional[_BandedLayer]:
        """Cut one layer's sign bands, or ``None`` to keep it on ``np.take``."""
        shifts = self.shifts[position]
        if shifts is None or len(shifts) < 2:
            return None
        group_size = len(shifts)
        n = self.row_starts[position + 1] - self.row_starts[position]
        t = shifts[1]  # verified: shifts[r] == (r * t) % n
        wraps = ((group_size - 1) * t + n - 1) // n + 1
        if group_size * n < MIN_WEIGHTS_PER_BAND * wraps:
            return None
        stride = n + t
        base = self.weight_offsets[position]
        size = self.weight_offsets[position + 1] - base
        bands = []
        for m in range(wraps):
            # Bounding box of {(r, g): m*n <= r*t + g < (m+1)*n}.
            row0 = max(0, -((n - 1 - m * n) // t))
            row1 = min(group_size, ((m + 1) * n - 1) // t + 1)
            col0 = max(0, m * n - (row1 - 1) * t)
            col1 = min(n, (m + 1) * n - row0 * t)
            offset = base - m * n + row0 * stride + col0
            end = offset + (row1 - row0 - 1) * stride + (col1 - col0)
            if end > self.weight_offsets[-1]:
                return None  # the view would leave the plane
            rows = np.arange(row0, row1, dtype=np.int64)[:, None]
            first = m * n - rows * t
            # Column g of the staircase holds weight r*n + g - first; from
            # the layer's size on, that slot is padding and signs 0.
            stop = np.minimum(first + n, size - rows * n + first)
            columns = np.arange(col0, col1, dtype=np.int64)[None, :]
            block = ((columns >= first) & (columns < stop)).astype(np.int8)
            block *= key[row0:row1, None]
            block.setflags(write=False)
            bands.append(_Band(m, row0, col0, offset, block))
        return _BandedLayer(n, t, tuple(bands))


def _layer_band_sums(
    plane: np.ndarray,
    layer: _BandedLayer,
    a: int,
    b: int,
    out: np.ndarray,
    scratch: ScanScratch,
) -> None:
    """Sums of layer-local columns ``[a, b)`` over ``layer``'s bands.

    Band 0 holds slot 0 of every group (slot 0 never wraps), so it spans
    all of ``[a, b)`` and its einsum initializes ``out``; the other bands
    add into it.
    """
    n, t = layer.groups, layer.shift
    stride = n + t
    partial = scratch.take("band-partial", (b - a,), KERNEL_ACCUMULATOR)
    for band in layer.bands:
        rows, cols = band.signs.shape
        lo = a if a > band.col0 else band.col0
        hi = min(b, band.col0 + cols)
        if hi <= lo:
            continue
        # Only the slot rows whose staircase reaches columns [lo, hi).
        row0 = max(band.row0, -((hi - 1 - band.wrap * n) // t))
        row1 = min(band.row0 + rows, ((band.wrap + 1) * n - 1 - lo) // t + 1)
        if row1 <= row0:
            continue
        i0, i1 = row0 - band.row0, row1 - band.row0
        j0, j1 = lo - band.col0, hi - band.col0
        view = np.ndarray(
            (i1 - i0, j1 - j0),
            dtype=np.int8,
            buffer=plane,
            offset=band.offset + i0 * stride + j0,
            strides=(stride, 1),
        )
        summed = out if band.wrap == 0 else partial[: hi - lo]
        np.einsum(
            "rg,rg->g",
            view,
            band.signs[i0:i1, j0:j1],
            dtype=KERNEL_ACCUMULATOR,
            out=summed,
        )
        if band.wrap:
            target = out[lo - a : hi - a]
            np.add(target, summed, out=target)


def _verified_slot_shifts(layout: GroupLayout) -> Optional[np.ndarray]:
    """The layout's rotated-arange shifts, proven against its own indices.

    The analytic :meth:`~repro.core.interleave.GroupLayout.slot_shifts`
    hint comes from layout *parameters*, and a subclassed layout could
    change the assignment while keeping them.  So the layout's own
    :meth:`~repro.core.interleave.GroupLayout.slot_indices` must equal
    ``r * N + (g + s_r) % N`` (``PAD_INDEX`` from the layer's size on)
    entry by entry, or the layer is demoted to the general gather
    (``None``).  One layer at a time, in the layout's index dtype.
    """
    hint = layout.slot_shifts()
    if hint is None:
        return None
    num_groups = layout.num_groups
    actual = layout.slot_indices(np.arange(num_groups))
    dtype = actual.dtype
    expected = np.add.outer(np.arange(num_groups, dtype=dtype), hint.astype(dtype))
    np.remainder(expected, num_groups, out=expected)
    expected += np.arange(layout.group_size, dtype=dtype) * num_groups
    expected[expected >= layout.num_weights] = PAD_INDEX
    if not np.array_equal(actual, expected):
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


def _locked(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


#: Serializes the lazy global-column builds (:meth:`KernelGeometry.gather_columns`).
_COLUMNS_LOCK = threading.Lock()


class KernelGeometry:
    """The scan geometry of one plane shape, shared by every view of it.

    Everything the kernel reads besides a model's weights and goldens: the
    layer offsets, the full-scan row array, the verified
    :class:`PlaneStructure` (proven shifts, sign bands) and slot-major
    ``(group_size, rows)`` **gather columns** — int32 indices into the
    plane when it fits (padding redirected to the layer's first weight)
    and int8 signs (the layer's key, ``0`` on padded slots).  All of it is
    a pure function of the layers' layouts, key bits and group size, so
    fleets of equal-shaped models — and a re-signed model — need it once.

    Gather columns exist only where a gather reads them.  Those of the
    layers the structure does not band are built eagerly, numbered
    compactly: they serve a full check's ``np.take`` runs and any
    contiguous range inside such layers.  Every other gather reads the
    global matrices (:meth:`gather_columns`), built on the first such
    call.  Build it with :func:`kernel_geometry`, which memoizes it; every
    array is write-locked because other views may be reading it.
    """

    def __init__(
        self,
        layouts: Sequence[GroupLayout],
        keys: Sequence[Optional[SecretKey]],
        group_size: int,
    ) -> None:
        #: Pinned so the layout ids in the memo key cannot be reused while
        #: this geometry is alive.
        self.layouts: Tuple[GroupLayout, ...] = tuple(layouts)
        self.group_size = group_size
        row_starts = np.zeros(len(layouts) + 1, dtype=np.int64)
        row_starts[1:] = np.cumsum([layout.num_groups for layout in layouts])
        offsets = np.zeros(len(layouts) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([layout.num_weights for layout in layouts])
        # Plain ints: bisected on every gather that resolves its columns.
        self._row_starts: List[int] = row_starts.tolist()
        self._weight_offsets: List[int] = offsets.tolist()
        self._layer_signs = [
            np.ones(group_size, np.int8) if key is None else key.signs(group_size, np.int8)
            for key in keys
        ]
        #: The row slice of a full scan.
        self.all_rows = _locked(np.arange(row_starts[-1], dtype=np.int64))
        #: Rotated-arange structure, proven per layer: layers whose
        #: verified shifts are None stay on the general gather.
        self.structure = PlaneStructure(
            row_starts,
            offsets,
            [_verified_slot_shifts(layout) for layout in layouts],
            self._layer_signs,
        )
        bands = self.structure._bands or [None] * len(layouts)
        unbanded = [position for position, layer in enumerate(bands) if layer is None]
        self._take_indices, self._take_signs = self._columns_of(unbanded)
        #: Per layer: its first compact column minus its first global row,
        #: or None for a banded layer.
        self._take_shift: List[Optional[int]] = [None] * len(layouts)
        column = 0
        for position in unbanded:
            self._take_shift[position] = column - self._row_starts[position]
            column += layouts[position].num_groups
        #: The global (indices, signs) matrices, once built; a plane with no
        #: banded layer has one set of columns, which serves as both.
        self._columns: Optional[Tuple[np.ndarray, np.ndarray]] = (
            None if self.structure._bands else (self._take_indices, self._take_signs)
        )

    def _columns_of(self, positions: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Write-locked slot-major index and sign columns of these layers, in order.

        Slot-major, so the masked-sum einsum reduces over the short slot
        axis while streaming contiguously along the rows (~2x the
        row-major reduction), and a row slice is one ``axis=1`` take.
        Filled one layer at a time: its index block is the only temporary.
        """
        width = sum(self.layouts[position].num_groups for position in positions)
        fits = self._weight_offsets[-1] <= np.iinfo(np.int32).max
        indices = np.empty((self.group_size, width), np.int32 if fits else np.int64)
        signs = np.empty((self.group_size, width), dtype=np.int8)
        column = 0
        for position in positions:
            layout = self.layouts[position]
            span = slice(column, column + layout.num_groups)
            local = layout.slot_indices(np.arange(layout.num_groups)).T
            pads = local == PAD_INDEX
            # PAD_INDEX is -1: clamping sends padded slots to the layer's
            # first weight, inside its own plane segment.
            np.maximum(local, 0, out=indices[:, span], casting="unsafe")
            indices[:, span] += self._weight_offsets[position]
            signs[:, span] = self._layer_signs[position][:, None]
            signs[:, span][pads] = 0
            column = span.stop
        return _locked(indices), _locked(signs)

    def gather_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The global ``(group_size, total_groups)`` index and sign matrices.

        Built on the first call, under a lock (verifier threads share the
        geometry), and kept: sliced scans read them on every pass.
        """
        columns = self._columns
        if columns is None:
            with _COLUMNS_LOCK:
                if self._columns is None:
                    self._columns = self._columns_of(range(len(self.layouts)))
                columns = self._columns
        return columns

    def gather_source(
        self, start: Optional[int], size: int
    ) -> Tuple[np.ndarray, np.ndarray, Optional[int]]:
        """``(indices, signs, first column)`` a gather of ``size`` rows reads.

        ``start`` is a contiguous range's first row, or ``None`` for a
        scattered row set (taken from the global matrices by row number).
        A range inside unbanded layers reads the compact columns only.
        """
        columns = self._columns
        if columns is None:
            if start is not None:
                starts, shifts = self._row_starts, self._take_shift
                shift = shifts[bisect.bisect_right(starts, start) - 1]
                if shift is not None and shift == shifts[
                    bisect.bisect_right(starts, start + size - 1) - 1
                ]:
                    return self._take_indices, self._take_signs, start + shift
            columns = self.gather_columns()
        return columns[0], columns[1], start

    def band_sums(
        self,
        plane: np.ndarray,
        start: int,
        stop: int,
        out: np.ndarray,
        scratch: ScanScratch,
    ) -> bool:
        """Fill ``out`` with the masked sums of global rows ``[start, stop)``.

        Each covered layer wide enough for its bands runs on them; runs of
        the other layers go through one general ``np.take`` each
        (:meth:`gather_source`).  Returns ``False`` without touching
        ``out`` when no covered layer qualifies — the caller's general
        gather is then the faster engine.
        """
        bands = self.structure._bands
        group_size = self.group_size
        if bands is None or group_size * (stop - start) < 2 * MIN_WEIGHTS_PER_BAND:
            return False
        row_starts = self._row_starts
        position = bisect.bisect_right(row_starts, start) - 1
        # (first row, stop row, banded layer or None for np.take, layer's
        # first row); adjacent np.take layers merge into one run.
        plan: List[Tuple[int, int, Optional[_BandedLayer], int]] = []
        lo = start
        while lo < stop:
            layer_start = row_starts[position]
            hi = min(row_starts[position + 1], stop)
            layer = bands[position]
            if layer is not None:
                # Too few of the layer's weights in range to pay for its bands.
                if group_size * (hi - lo) < MIN_WEIGHTS_PER_BAND * len(layer.bands):
                    layer = None
            if layer is None and plan and plan[-1][2] is None:
                plan[-1] = (plan[-1][0], hi, None, 0)
            else:
                plan.append((lo, hi, layer, layer_start))
            lo = hi
            position += 1
        if all(layer is None for _, _, layer, _ in plan):
            return False
        for lo, hi, layer, layer_start in plan:
            target = out[lo - start : hi - start]
            if layer is None:
                indices, signs, column = self.gather_source(lo, hi - lo)
                columns = slice(column, column + hi - lo)
                gathered = scratch.take("band-gather", (group_size, hi - lo), np.int8)
                plane.take(indices[:, columns], out=gathered, mode="clip")
                np.einsum(
                    "gr,gr->r",
                    gathered,
                    signs[:, columns],
                    dtype=KERNEL_ACCUMULATOR,
                    out=target,
                )
            else:
                _layer_band_sums(
                    plane, layer, lo - layer_start, hi - layer_start, target, scratch
                )
        return True


#: Live geometries by what determines them.  Weak values: a geometry lives
#: exactly as long as some view uses it, and the memo never pins one.
_GEOMETRIES: "weakref.WeakValueDictionary[Tuple, KernelGeometry]" = (
    weakref.WeakValueDictionary()
)
_GEOMETRIES_LOCK = threading.Lock()


def kernel_geometry(
    layouts: Sequence[GroupLayout],
    keys: Sequence[Optional[SecretKey]],
    group_size: int,
) -> KernelGeometry:
    """The shared :class:`KernelGeometry` of these layers, built on a miss.

    Keyed by layout *identity* plus each layer's key bits and the group
    size — exactly what the geometry is computed from, and nothing taken
    on trust from a config: a store holding a hand-built or subclassed
    layout never receives another store's geometry, and every miss runs
    the structure proof again.  Equal-shaped layers of different stores
    share layout objects (:meth:`SignatureStore.build`), so their
    geometries coincide.  The geometry pins its layouts, so their ids stay
    unique while its memo entry exists.
    """
    memo_key = (
        group_size,
        tuple(
            (id(layout), None if key is None else key.bits)
            for layout, key in zip(layouts, keys)
        ),
    )
    with _GEOMETRIES_LOCK:
        geometry = _GEOMETRIES.get(memo_key)
        if geometry is None:
            geometry = KernelGeometry(layouts, keys, group_size)
            _GEOMETRIES[memo_key] = geometry
    return geometry


class FusedSignatures:
    """Zero-copy scan kernel: vectorized recomputation across all layers.

    A :class:`SignatureStore` recomputes signatures layer by layer, each
    time re-gathering the layer's full weight tensor.  This view instead
    fuses all layers' flat int8 weights into one **weight plane** (its
    own) under one **global row** numbering (row ``r`` is group ``r -
    row_start`` of its owning layer), and reads the gather-index and sign
    columns of the shared :class:`KernelGeometry` of its plane shape,
    fetched on first kernel use.  Verifying any row set is then a stack of
    one through the scan kernel (:func:`stacked_mismatched_rows`),
    accumulated in int16 (exact modulo 2**16, which covers every signature
    bit), with all workspaces reused from a :class:`ScanScratch` across
    passes: strided band views where the layout is structured, one int8
    gather plus one masked-sum ``einsum`` elsewhere, and no per-group
    Python loop or materialized ``gathered * mask`` product matrix.

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
        # What the shared geometry is built from (kernel_geometry); the
        # view keeps no reference to the store, which owns it.
        self._layouts = tuple(entry.layout for entry in entries)
        self._keys = tuple(entry.key for entry in entries)
        self._num_weights: List[int] = [layout.num_weights for layout in self._layouts]
        # Plain ints: bisected and indexed on every scan, where NumPy scalar
        # dispatch would cost more than the lookup itself.
        self._row_starts: List[int] = store.row_starts().tolist()
        # The store's buffer itself, not a copy: a re-sign rewrites it in place.
        self.golden = store.golden
        self.total_groups = self._row_starts[-1]
        # Shared empty per-layer arrays for the clean-scan fast path of
        # rows_to_layer_groups (never mutated; reports treat them read-only).
        self._empty_groups: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=np.int64) for name in self.layer_names
        }
        self._kernel_key: Tuple[int, int] = (
            self.config.group_size,
            self.config.signature_bits,
        )
        offsets = np.zeros(len(entries) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(self._num_weights)
        self._weight_offsets: List[int] = offsets.tolist()
        self.total_weights = int(offsets[-1])

        # -- kernel state (built lazily by _ensure_kernel: callers that only
        # translate rows never pay for the geometry or the weight plane) ----
        self._geometry: Optional[KernelGeometry] = None
        self._scratch = ScanScratch()
        self._plane: Optional[np.ndarray] = None
        # Adoption state: the layer objects whose qweight buffers are views
        # of the plane, and those views themselves (identity-checked per
        # scan; see prepared_plane).
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

    def _ensure_kernel(self) -> None:
        """Fetch the shared geometry and allocate the plane on first kernel use.

        Idempotent.  The geometry comes from :func:`kernel_geometry`: built
        once per plane shape, so this view's own kernel state is only its
        goldens, its plane and the adoption registry.
        """
        if self._geometry is not None:
            return
        self._geometry = kernel_geometry(
            self._layouts, self._keys, self.config.group_size
        )
        self._plane = np.empty(self.total_weights, dtype=np.int8)

    @property
    def geometry(self) -> KernelGeometry:
        """The shared scan geometry of this view's plane shape."""
        self._ensure_kernel()
        return self._geometry

    @property
    def adopted(self) -> bool:
        """Whether a model's weight buffers currently live inside the plane."""
        return self._adopted

    @property
    def structure(self) -> PlaneStructure:
        """The verified rotated-arange structure of this view's plane."""
        return self.geometry.structure

    @property
    def structured(self) -> bool:
        """True when every layer has a verified rotated-arange structure.

        Such layers can run on the band path; whether a given layer or
        slice does also depends on its width (:data:`MIN_WEIGHTS_PER_BAND`).
        """
        return self.geometry.structure.fully_structured

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
        return self._row_starts[position], self._row_starts[position + 1]

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
        (one protected again with
        :meth:`~repro.core.protector.ModelProtector.protect`: same layers,
        same weight counts) already keeps its buffers in one conforming
        plane — that plane is adopted as-is, with no copy and no rebinding,
        so weight references taken before the new store stay valid.  The
        engine's re-sign never gets here: it rewrites goldens in place and
        keeps the view and its plane.
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
            # Walk to the owning ndarray.
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
            if address != owner_address + self._weight_offsets[position]:
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
        # bisect on plain-list starts: a per-scan np.searchsorted cost more
        # than the rest of a narrow slice's setup.
        starts = self._row_starts
        inner = len(starts) - 1
        first = bisect.bisect_right(starts, int(rows.min()), 1, inner) - 1
        last = bisect.bisect_right(starts, int(rows.max()), 1, inner) - 1
        return range(first, last + 1)

    def prepared_plane(
        self, layer_map: Mapping[str, Module], rows: Optional[np.ndarray] = None
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
        return plane

    # -- verification ----------------------------------------------------------
    def _layer_map(self, model: Module) -> Dict[str, Module]:
        """``{name: quantized layer}`` for ``model``, memoized for adoption.

        Walking the module tree dominated small sliced scans (~80 µs of a
        ~200 µs pass on ResNet-20), and the steady state scans the same
        model object every tick.  Only the *adopted* model is memoized: its
        layers are already pinned by the plane registry, so the memo adds
        no lifetime (transient foreign models stay collectable), and buffer
        staleness is still caught per scan — :meth:`prepared_plane`
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
        plane = self.prepared_plane(self._layer_map(model), rows)
        return self.verify_rows(
            plane, self._geometry.all_rows if rows is None else rows
        )

    def verify_rows(
        self, plane: np.ndarray, rows: np.ndarray, scratch: Optional[ScanScratch] = None
    ) -> np.ndarray:
        """The kernel under :meth:`mismatched_rows`, on an already prepared plane.

        No module walk and no plane refresh: it only reads ``plane`` and
        ``scratch`` (this view's own by default), so a thread may call it
        while another runs the model (the streamed check of
        :class:`~repro.core.runtime.ProtectedInference`).  Concurrent
        callers must each pass their own scratch.
        """
        return stacked_mismatched_rows(
            [plane],
            [self._geometry],
            [self.golden],
            [rows],
            self.config.signature_bits,
            self._scratch if scratch is None else scratch,
            True,
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
    geometries: Sequence[KernelGeometry],
    rows_list: Sequence[np.ndarray],
    sizes: Sequence[int],
    starts: Sequence[Optional[int]],
    width: int,
    scratch: ScanScratch,
    homogeneous: bool,
) -> np.ndarray:
    """The masked-sum core of :func:`stacked_mismatched_rows`.

    ``starts[i]`` is the first row of model *i*'s slice when that slice is
    one contiguous ascending run, else ``None``.  A contiguous slice first
    tries its geometry's gather-free band path
    (:meth:`KernelGeometry.band_sums`); every other model goes through the
    general gather (:func:`_gathered_sums`) over the columns its geometry
    resolves.  Both yield the same sums modulo 2**16.

    Returns the ``(num_models, width)`` sums view into ``scratch``.
    """
    num_models = len(planes)
    sums = scratch.take("stacked-sums", (num_models, width), KERNEL_ACCUMULATOR)
    gathered = []
    for index in range(num_models):
        start, size = starts[index], sizes[index]
        if start is None or not geometries[index].band_sums(
            planes[index], start, start + size, sums[index, :size], scratch
        ):
            gathered.append(index)
    if not gathered:
        return sums
    out = sums
    if len(gathered) < num_models:
        planes, geometries, rows_list, sizes, starts = (
            [values[index] for index in gathered]
            for values in (planes, geometries, rows_list, sizes, starts)
        )
        out = scratch.take("gathered-sums", (len(gathered), width), KERNEL_ACCUMULATOR)
    # A homogeneous stack reads model 0's columns for every model.
    sources = [
        geometry.gather_source(start, size)
        for geometry, start, size in zip(
            geometries[:1] if homogeneous else geometries, starts, sizes
        )
    ]
    _gathered_sums(planes, sources, rows_list, sizes, width, scratch, homogeneous, out)
    if out is not sums:
        sums[gathered] = out
    return sums


def _gathered_sums(
    planes: Sequence[np.ndarray],
    sources: Sequence[Tuple[np.ndarray, np.ndarray, Optional[int]]],
    rows_list: Sequence[np.ndarray],
    sizes: Sequence[int],
    width: int,
    scratch: ScanScratch,
    homogeneous: bool,
    sums: np.ndarray,
) -> None:
    """The general gather: ``np.take`` from each plane, then one einsum.

    ``sources[i]`` is model *i*'s ``(indices, signs, first column)``
    (:meth:`KernelGeometry.gather_source`; a ``None`` first column means
    a scattered slice, taken by row number).  The width axis is processed
    in cache-blocked tiles (:func:`_stacked_tile_width`): the per-tile
    gathered stack and sign stack stay L2-resident while the einsum that
    immediately consumes them re-reads every byte, instead of streaming a
    whole padded bucket through cache twice.  Contiguous slices read plain
    index/sign *views*; arbitrary row sets take their index and sign
    columns first.  Fills ``sums``.
    """
    num_models = len(planes)
    group_size = sources[0][0].shape[0]
    tile = _stacked_tile_width(num_models, group_size, width)
    if homogeneous:
        rows0 = rows_list[0]
        indices0, signs0, start0 = sources[0]
        for w0 in range(0, width, tile):
            w1 = w0 + tile
            if w1 > width:
                w1 = width
            span = w1 - w0
            stacked = scratch.take("stacked", (num_models, group_size, span), np.int8)
            if start0 is not None:
                indices = indices0[:, start0 + w0 : start0 + w1]
                signs = signs0[:, start0 + w0 : start0 + w1]
            else:
                block = rows0[w0:w1]
                indices = scratch.take("row-indices", (group_size, span), indices0.dtype)
                np.take(indices0, block, axis=1, out=indices)
                signs = scratch.take("row-signs", (group_size, span), np.int8)
                np.take(signs0, block, axis=1, out=signs)
            for index in range(num_models):
                # ndarray.take skips the np.take wrapper dispatch; at fleet
                # scale the wrapper alone is a visible share of a narrow pass.
                planes[index].take(indices, out=stacked[index], mode="clip")
            np.einsum(
                "kgr,gr->kr",
                stacked,
                signs,
                dtype=KERNEL_ACCUMULATOR,
                out=sums[:, w0:w1],
            )
        return
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
            # padded gather is ever performed.
            valid = sizes[index] - w0
            if valid <= 0:
                signs[index].fill(0)
                continue
            if valid > span:
                valid = span
            all_indices, all_signs, start = sources[index]
            if start is not None:
                lo = start + w0
                hi = lo + valid
                planes[index].take(
                    all_indices[:, lo:hi],
                    out=stacked[index][:, :valid],
                    mode="clip",
                )
                np.copyto(signs[index][:, :valid], all_signs[:, lo:hi])
            else:
                block = rows_list[index][w0 : w0 + valid]
                indices = scratch.take(
                    "bucket-indices", (group_size, valid), all_indices.dtype
                )
                np.take(all_indices, block, axis=1, out=indices)
                np.take(all_signs, block, axis=1, out=signs[index][:, :valid])
                np.take(
                    planes[index], indices, out=stacked[index][:, :valid], mode="clip"
                )
            if valid < span:
                signs[index][:, valid:] = 0
        np.einsum(
            "kgr,kgr->kr",
            stacked,
            signs,
            dtype=KERNEL_ACCUMULATOR,
            out=sums[:, w0:w1],
        )


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
    kernel keys, fetches every view's shared geometry (noting whether all
    views share one, which the broadcast branch needs) and, when the
    goldens share one length, prestacks them so a homogeneous contiguous
    slice compares against a *view* of the stack.  That stack is a copy:
    a re-sign rewrites a view's goldens in place
    (:meth:`SignatureStore.resign`), so whoever re-signs a member calls
    :meth:`refresh_golden`.  Unstacked goldens are the views' own buffers
    and need no refresh.  The engine rebuilds the verifier when bucket
    membership (view identity) changes.
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
        geometries = [view.geometry for view in views]
        self.views = list(views)
        self.layer_maps = list(layer_maps)
        #: Whether every view reads one geometry object: identical index
        #: and sign matrices, so equal row slices may share them.
        self.shared_geometry = all(
            geometry is geometries[0] for geometry in geometries
        )
        self._geometries = geometries
        goldens = [view.golden for view in views]
        self._goldens = (
            np.stack(goldens) if len({golden.size for golden in goldens}) == 1 else goldens
        )

    def refresh_golden(self, view: "FusedSignatures") -> None:
        """Copy ``view``'s re-signed goldens into the prestack, if it is a member."""
        if isinstance(self._goldens, np.ndarray):
            for index, member in enumerate(self.views):
                if member is view:
                    self._goldens[index] = view.golden

    def verify(
        self,
        rows_list: Sequence[np.ndarray],
        scratch: Optional[ScanScratch] = None,
        homogeneous: bool = False,
    ) -> List[np.ndarray]:
        """Flagged-row arrays for one tick's per-model row slices.

        ``homogeneous`` is the caller's promise that every slice holds the
        same rows; it takes the kernel's broadcast branch (see
        :func:`stacked_mismatched_rows`) only when the views also share
        one geometry.
        """
        views = self.views
        if len(rows_list) != len(views):
            raise ProtectionError(
                f"got {len(views)} views but {len(rows_list)} row arrays"
            )
        config = views[0].config
        return stacked_mismatched_rows(
            [
                view.prepared_plane(layer_map, rows)
                for view, layer_map, rows in zip(views, self.layer_maps, rows_list)
            ],
            self._geometries,
            self._goldens,
            rows_list,
            config.signature_bits,
            scratch,
            homogeneous and self.shared_geometry,
        )


def stacked_mismatched_rows(
    planes: Sequence[np.ndarray],
    geometries: Sequence[KernelGeometry],
    goldens: Sequence[np.ndarray],
    rows_list: Sequence[np.ndarray],
    signature_bits: int,
    scratch: Optional[ScanScratch] = None,
    homogeneous: bool = False,
) -> List[np.ndarray]:
    """The scan kernel: flagged global rows of a stack of models.

    Every verification path ends here — the single-model view
    (:meth:`FusedSignatures.mismatched_rows`, a stack of one) and the
    engine's buckets (:class:`StackedVerifier`).  It takes no ``Module``
    objects and no :class:`FusedSignatures`, just each model's weight
    plane, its shared :class:`KernelGeometry` (all of one group size) and
    its golden signatures.  Model *i*'s rows ``rows_list[i]`` are summed under the
    sign mask in int16 (:data:`KERNEL_ACCUMULATOR`, :func:`_stacked_sums`),
    binarized and compared with ``goldens[i]``; the result lists the
    mismatching rows in slice order.

    ``homogeneous=True`` is a caller-supplied promise that every model
    reads one geometry *and* one row slice (:class:`StackedVerifier`
    checks the first by geometry identity; the kernel cannot cheaply
    verify either), enabling the shared index/sign broadcast; a 2-D
    ``goldens`` array then compares the whole stack at once.  Wide
    contiguous slices of structured planes sum over strided band views
    instead of gathering, and contiguous slices compare against a view of
    their golden rows.  Neither choice changes a verdict.
    """
    num_models = len(planes)
    if not num_models == len(geometries) == len(goldens) == len(rows_list):
        raise ProtectionError("stacked_mismatched_rows arguments disagree on model count")
    if num_models == 0:
        return []
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
        geometries,
        rows_list,
        sizes,
        starts,
        width,
        scratch if scratch is not None else ScanScratch(),
        homogeneous,
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
