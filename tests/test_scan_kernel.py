"""Tests for the zero-copy scan kernel of :class:`FusedSignatures`.

Three contracts are pinned here:

* **Bit-exactness** — the kernel (fused int8 plane + narrow-accumulation
  einsum) returns exactly what the per-layer checksum oracle
  (:meth:`SignatureStore.mismatched_rows`) returns, across group sizes,
  interleave/masking settings, signature widths and every row-slice shape
  the scheduler can produce.
* **Adoption** — moving a model's weights into the plane is invisible to
  callers: in-place mutations are seen immediately, wholesale buffer
  replacement re-adopts transparently, foreign models never corrupt the
  adopted plane, and a re-protect adopts the existing plane in place so
  weight references stay valid.
* **Bucketed stacking** — heterogeneous fleets (different structure keys,
  same kernel key) verified in one padded stacked pass report exactly the
  per-model rows the sequential path finds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ModelProtector,
    RadarConfig,
    RecoveryPolicy,
    ScanScratch,
    SignatureStore,
    VerificationEngine,
    batched_mismatched_rows,
    split_by_padding_waste,
)
import repro.core.signature as signature_module
from repro.core.signature import StackedVerifier
from repro.errors import ProtectionError
from repro.models.small import MLP, LeNet5
from repro.nn.layers import Sequential
from repro.quant.layers import QuantLinear, quantize_model, quantized_layers
from repro.utils.rng import new_rng


def _protected_mlp(
    seed=0, group_size=8, hidden=(16,), input_dim=24, num_classes=4, **config_kwargs
):
    model = MLP(
        input_dim=input_dim, num_classes=num_classes, hidden_dims=hidden, seed=seed
    )
    quantize_model(model)
    protector = ModelProtector(RadarConfig(group_size=group_size, **config_kwargs))
    protector.protect(model)
    return model, protector


def _assert_oracle_verdict(managed, outcome):
    """An engine outcome flags exactly what the checksum oracle finds."""
    rows = managed.scheduler.slice_rows(list(outcome.scan.shard_indices))
    expected = managed.scheduler.fused.rows_to_layer_groups(
        managed.protector.store.mismatched_rows(managed.model, rows)
    )
    assert set(outcome.scan.report.flagged_groups) == set(expected)
    for layer, groups in expected.items():
        np.testing.assert_array_equal(outcome.scan.report.flagged_groups[layer], groups)


def _flip(model, layer_index=0, weight_index=0):
    _, layer = quantized_layers(model)[layer_index]
    flat = layer.qweight.reshape(-1)
    flat[weight_index] = np.int8(int(flat[weight_index]) ^ -128)


class TestKernelBitExactness:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        group_size=st.sampled_from([2, 3, 8, 16, 64]),
        use_interleave=st.booleans(),
        use_masking=st.booleans(),
        signature_bits=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_oracle_across_configs(
        self, seed, group_size, use_interleave, use_masking, signature_bits
    ):
        model, protector = _protected_mlp(
            seed=seed,
            group_size=group_size,
            use_interleave=use_interleave,
            use_masking=use_masking,
            signature_bits=signature_bits,
        )
        fused = protector.store.fused()
        rng = new_rng(("kernel-exact", seed))
        # Corrupt a couple of weights so mismatches actually occur.
        for layer_index in (0, 1):
            _flip(model, layer_index, int(rng.integers(16)))
        total = fused.total_groups
        row_cases = [
            None,
            np.empty(0, dtype=np.int64),                      # empty slice
            np.arange(total, dtype=np.int64),                 # full slice
            np.arange(total // 2, dtype=np.int64),            # contiguous prefix
            rng.choice(total, size=max(1, total // 3), replace=False),  # scattered
            np.array([0, 0, total - 1, 0], dtype=np.int64),   # duplicates, unsorted
        ]
        for rows in row_cases:
            np.testing.assert_array_equal(
                fused.mismatched_rows(model, rows),
                protector.store.mismatched_rows(model, rows),
            )

    def test_adopted_and_copy_mode_agree(self):
        model, protector = _protected_mlp(seed=3)
        fused = protector.store.fused()
        _flip(model, 0, 5)
        copy_mode = fused.mismatched_rows(model)
        fused.adopt(dict(quantized_layers(model)))
        assert fused.adopted
        np.testing.assert_array_equal(copy_mode, fused.mismatched_rows(model))

    def test_kernel_rejects_out_of_range_rows(self):
        model, protector = _protected_mlp(seed=4)
        fused = protector.store.fused()
        with pytest.raises(ProtectionError, match="out of range"):
            fused.mismatched_rows(model, np.array([fused.total_groups]))

    def test_oracle_row_restriction_matches_full_recompute(self):
        model, protector = _protected_mlp(seed=5, hidden=(16, 8))
        store = protector.store
        full = store.current_signatures(model)
        starts = store.row_starts()
        rows = np.array([store.total_groups() - 1, 0, 3, 3, 9], dtype=np.int64)
        restricted = store.current_signatures(model, rows)
        for position, name in enumerate(store.layer_names()):
            local = rows[(rows >= starts[position]) & (rows < starts[position + 1])]
            np.testing.assert_array_equal(
                restricted[name], full[name][local - starts[position]]
            )
        with pytest.raises(ProtectionError, match="out of range"):
            store.mismatched_rows(model, np.array([store.total_groups()]))


class TestPlaneAdoption:
    def test_inplace_mutation_after_adoption_is_detected(self):
        model, protector = _protected_mlp(seed=1)
        fused = protector.store.fused()
        fused.adopt(dict(quantized_layers(model)))
        assert fused.mismatched_rows(model).size == 0
        _flip(model, 0, 7)  # mutates the plane view in place
        flagged = fused.mismatched_rows(model)
        assert flagged.size > 0
        np.testing.assert_array_equal(
            flagged, protector.store.mismatched_rows(model)
        )

    def test_set_qweight_replacement_is_readopted(self):
        model, protector = _protected_mlp(seed=2)
        fused = protector.store.fused()
        layer_map = dict(quantized_layers(model))
        fused.adopt(layer_map)
        name, layer = quantized_layers(model)[0]
        corrupted = layer.qweight.copy()
        corrupted.reshape(-1)[3] = np.int8(int(corrupted.reshape(-1)[3]) ^ -128)
        layer.qweight = corrupted  # wholesale buffer swap, bypassing the plane
        flagged = fused.mismatched_rows(model)
        assert flagged.size > 0
        # The swap was healed by re-adoption: the buffer is a plane view again.
        assert layer.qweight.base is not None
        np.testing.assert_array_equal(
            flagged, protector.store.mismatched_rows(model)
        )

    def test_foreign_model_scan_does_not_corrupt_adopted_plane(self):
        model, protector = _protected_mlp(seed=6)
        fused = protector.store.fused()
        fused.adopt(dict(quantized_layers(model)))
        snapshot = {
            name: layer.qweight.copy() for name, layer in quantized_layers(model)
        }
        foreign = MLP(input_dim=24, num_classes=4, hidden_dims=(16,), seed=99)
        quantize_model(foreign)
        _flip(foreign, 0, 2)
        foreign_flagged = fused.mismatched_rows(foreign)
        assert foreign_flagged.size > 0  # foreign weights differ from golden
        # The adopted model's weights and scan are untouched.
        for name, layer in quantized_layers(model):
            np.testing.assert_array_equal(layer.qweight, snapshot[name])
        assert fused.mismatched_rows(model).size == 0
        # And the foreign model was not hijacked into the plane.
        assert not any(
            layer.qweight.base is fused._plane
            for _, layer in quantized_layers(foreign)
        )

    def test_readoption_after_reprotect_preserves_weight_references(self):
        model, protector = _protected_mlp(seed=7)
        fused = protector.store.fused()
        layer_map = dict(quantized_layers(model))
        fused.adopt(layer_map)
        name, layer = quantized_layers(model)[0]
        flat_before = layer.qweight.reshape(-1)
        # Re-protect (new store, new fused view) and adopt again: the new
        # view aliases the existing plane instead of rebinding buffers.
        protector.protect(model)
        refreshed = protector.store.fused()
        refreshed.adopt(dict(quantized_layers(model)))
        assert layer.qweight.reshape(-1) is not None
        flat_after = quantized_layers(model)[0][1].qweight.reshape(-1)
        assert np.shares_memory(flat_before, flat_after)

    def test_adopt_validates_layer_presence(self):
        model, protector = _protected_mlp(seed=8)
        fused = protector.store.fused()
        with pytest.raises(ProtectionError, match="missing from model"):
            fused.adopt({})

    def test_readoption_rejects_non_int8_buffer(self):
        """A bad-dtype buffer swap must fail loudly, not truncate into the plane."""
        model, protector = _protected_mlp(seed=12)
        fused = protector.store.fused()
        fused.adopt(dict(quantized_layers(model)))
        _, layer = quantized_layers(model)[0]
        layer.qweight = layer.qweight.astype(np.int32)
        with pytest.raises(ProtectionError, match="int8"):
            fused.mismatched_rows(model)

    def test_layer_map_memo_does_not_pin_foreign_models(self):
        import gc
        import weakref

        model, protector = _protected_mlp(seed=13)
        fused = protector.store.fused()
        foreign = MLP(input_dim=24, num_classes=4, hidden_dims=(16,), seed=42)
        quantize_model(foreign)
        fused.mismatched_rows(foreign)
        # Sentinels on the root AND the layer modules: scanning a transient
        # foreign model must not leave the view holding any part of it.
        sentinels = [weakref.ref(foreign)] + [
            weakref.ref(layer) for _, layer in quantized_layers(foreign)
        ]
        del foreign
        gc.collect()
        assert all(sentinel() is None for sentinel in sentinels)

    def test_store_is_freed_without_cyclic_gc(self):
        """The store and its fused view form no reference cycle."""
        import gc
        import weakref

        model, protector = _protected_mlp(seed=15)
        gc.disable()
        try:
            store = SignatureStore(protector.config).build(model)
            fused = store.fused()
            fused.adopt(dict(quantized_layers(model)))
            assert fused.mismatched_rows(model).size == 0
            sentinels = [weakref.ref(store), weakref.ref(fused)]
            del store, fused
            assert all(sentinel() is None for sentinel in sentinels)
        finally:
            gc.enable()

    def test_oracle_path_does_not_build_the_global_kernel(self):
        """Oracle-only callers must not pay for the plane/global matrices."""
        model, protector = _protected_mlp(seed=14)
        store = protector.store
        fused = store.fused()
        store.current_signatures(model)
        store.mismatched_rows(model)
        store.mismatched_rows(model, np.array([0, store.total_groups() - 1]))
        assert fused._geometry is None and fused._plane is None
        # The first plane scan builds it on demand.
        fused.mismatched_rows(model)
        assert fused._geometry is not None


class TestScanScratch:
    def test_buffers_grow_and_are_reused(self):
        scratch = ScanScratch()
        small = scratch.take("x", (4, 8), np.int8)
        again = scratch.take("x", (4, 8), np.int8)
        assert np.shares_memory(small, again)
        bigger = scratch.take("x", (8, 8), np.int8)
        assert bigger.shape == (8, 8)
        shrunk = scratch.take("x", (2, 2), np.int8)
        assert np.shares_memory(bigger, shrunk)

    def test_dtypes_do_not_collide(self):
        scratch = ScanScratch()
        a = scratch.take("x", (16,), np.int8)
        b = scratch.take("x", (16,), np.int32)
        assert a.dtype == np.int8 and b.dtype == np.int32
        assert not np.shares_memory(a, b)


class TestBucketedStacking:
    def _fleet(self, specs):
        """Protected (model, fused, layer_map, store) tuples from (seed, hidden) specs."""
        fleet = []
        for seed, hidden in specs:
            model, protector = _protected_mlp(
                seed=seed, hidden=hidden, input_dim=32, num_classes=4
            )
            fused = protector.store.fused()
            fleet.append((model, fused, dict(quantized_layers(model)), protector.store))
        return fleet

    def test_heterogeneous_stack_matches_oracle(self):
        fleet = self._fleet(
            [(0, (16,)), (1, (16,)), (2, (24, 12)), (3, (8, 8, 8))]
        )
        _flip(fleet[1][0], 0, 3)
        _flip(fleet[2][0], 1, 1)
        rng = new_rng(("bucket", 1))
        rows_list = []
        for _, fused, _, _ in fleet:
            total = fused.total_groups
            rows_list.append(
                np.sort(rng.choice(total, size=max(1, total // 2), replace=False))
            )
        batched = batched_mismatched_rows(
            [fused for _, fused, _, _ in fleet],
            [layer_map for _, _, layer_map, _ in fleet],
            rows_list,
        )
        for (model, _, _, store), rows, flagged in zip(fleet, rows_list, batched):
            np.testing.assert_array_equal(flagged, store.mismatched_rows(model, rows))

    def test_mixed_row_counts_pad_to_bucket_max(self):
        fleet = self._fleet([(0, (16,)), (1, (24, 12))])
        _flip(fleet[0][0], 0, 0)
        rows_list = [
            np.arange(fleet[0][1].total_groups, dtype=np.int64),
            np.arange(3, dtype=np.int64),  # much shorter slice
        ]
        batched = batched_mismatched_rows(
            [fused for _, fused, _, _ in fleet],
            [layer_map for _, _, layer_map, _ in fleet],
            rows_list,
            scratch=ScanScratch(),
        )
        for (model, _, _, store), rows, flagged in zip(fleet, rows_list, batched):
            np.testing.assert_array_equal(flagged, store.mismatched_rows(model, rows))

    def test_empty_per_model_rows_yield_empty_results(self):
        fleet = self._fleet([(0, (16,)), (1, (24, 12))])
        rows_list = [
            np.empty(0, dtype=np.int64),
            np.arange(4, dtype=np.int64),
        ]
        batched = batched_mismatched_rows(
            [fused for _, fused, _, _ in fleet],
            [layer_map for _, _, layer_map, _ in fleet],
            rows_list,
        )
        assert batched[0].size == 0
        np.testing.assert_array_equal(
            batched[1], fleet[1][3].mismatched_rows(fleet[1][0], rows_list[1])
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_homogeneous_promise_matches_oracle(self, seed):
        """The broadcast branch and the prestacked-golden compare are exact."""
        fleet = self._fleet([(seed + index, (16,)) for index in range(3)])
        rng = new_rng(("homogeneous", seed))
        _flip(fleet[int(rng.integers(3))][0], 0, int(rng.integers(32)))
        verifier = StackedVerifier(
            [fused for _, fused, _, _ in fleet],
            [layer_map for _, _, layer_map, _ in fleet],
        )
        total = fleet[0][1].total_groups
        for rows in (
            np.arange(total, dtype=np.int64),
            np.arange(total // 3, 2 * total // 3, dtype=np.int64),
            rng.choice(total, size=max(1, total // 3), replace=False),
        ):
            flagged = verifier.verify([rows] * len(fleet), ScanScratch(), True)
            for (model, _, _, store), model_flagged in zip(fleet, flagged):
                np.testing.assert_array_equal(
                    model_flagged, store.mismatched_rows(model, rows)
                )

    def test_mismatched_kernel_keys_rejected(self):
        model_a, protector_a = _protected_mlp(seed=0, group_size=8)
        model_b, protector_b = _protected_mlp(seed=1, group_size=16)
        with pytest.raises(ProtectionError, match="kernel keys"):
            batched_mismatched_rows(
                [protector_a.store.fused(), protector_b.store.fused()],
                [
                    dict(quantized_layers(model_a)),
                    dict(quantized_layers(model_b)),
                ],
                [np.arange(2, dtype=np.int64), np.arange(2, dtype=np.int64)],
            )

    def test_row_array_count_must_match_views(self):
        model, protector = _protected_mlp(seed=0)
        with pytest.raises(ProtectionError, match="row arrays"):
            batched_mismatched_rows(
                [protector.store.fused()],
                [dict(quantized_layers(model))],
                [np.arange(2, dtype=np.int64), np.arange(2, dtype=np.int64)],
            )


class TestHeterogeneousEngine:
    def test_mixed_architecture_fleet_coalesces_and_detects(self):
        """>= 4 models of mixed structure run as ONE stacked bucketed pass.

        The MLPs are sized so every slice is within the width-disparity
        guard of the LeNet's (~70-80k weights each against its 82k), so the
        guard keeps the whole bucket coalesced; its sub-splitting of a
        dwarfing slice is covered separately.
        """
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        engine.register("mlp-a", self._mlp(0, (120,)))
        engine.register("mlp-b", self._mlp(1, (120,)))
        engine.register("wide", self._mlp(2, (120, 84)))
        lenet = LeNet5(num_classes=4, seed=3)
        quantize_model(lenet)
        engine.register("lenet", lenet)

        reference = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        reference.register("mlp-a", self._mlp(0, (120,)))
        reference.register("mlp-b", self._mlp(1, (120,)))
        reference.register("wide", self._mlp(2, (120, 84)))
        lenet_ref = LeNet5(num_classes=4, seed=3)
        quantize_model(lenet_ref)
        reference.register("lenet", lenet_ref)

        _flip(engine.get("wide").model, 0, 5)
        _flip(reference.get("wide").model, 0, 5)

        lag = max(
            engine.get(name).scheduler.worst_case_lag_passes
            for name in engine.names()
        )
        detected = set()
        for _ in range(lag):
            outcomes = engine.tick(recovery_policy=RecoveryPolicy.NONE)
            # Every model rode one stacked pass — no sequential fallback.
            assert all(
                outcome.batch_size == 4 for outcome in outcomes.values()
            )
            for name, outcome in outcomes.items():
                expected = reference.get(name).scheduler.step(
                    reference.get(name).model
                )
                assert outcome.scan.shard_indices == expected.shard_indices
                _assert_oracle_verdict(engine.get(name), outcome)
                if outcome.attack_detected:
                    detected.add(name)
        assert detected == {"wide"}

    @staticmethod
    def _mlp(seed, hidden):
        model = MLP(input_dim=576, num_classes=4, hidden_dims=hidden, seed=seed)
        quantize_model(model)
        return model


class TestOracleVerdicts:
    def test_per_layer_signatures_flag_the_corrupted_group(self):
        model, protector = _protected_mlp(seed=9, group_size=8)
        store = protector.store
        _flip(model, 0, 4)
        expected = store.fused().rows_to_layer_groups(store.mismatched_rows(model))
        first = store.layer_names()[0]
        assert expected[first].tolist() == [store.layer(first).layout.group_of(4)]
        current = store.current_signatures(model)
        for entry in store:
            np.testing.assert_array_equal(
                np.nonzero(current[entry.layer_name] != entry.golden)[0],
                expected[entry.layer_name],
            )

    def test_row_restricted_verdicts_are_the_full_verdicts_within_the_rows(self):
        model, protector = _protected_mlp(seed=9, group_size=8)
        store = protector.store
        _flip(model, 0, 4)
        _flip(model, 1, 1)
        flagged = store.mismatched_rows(model)
        assert flagged.size == 2
        for rows in (
            np.arange(0, store.total_groups(), 2, dtype=np.int64),
            np.arange(1, store.total_groups(), 2, dtype=np.int64),
            flagged[::-1].copy(),
        ):
            np.testing.assert_array_equal(
                store.mismatched_rows(model, rows), rows[np.isin(rows, flagged)]
            )

    def test_oracle_validates_inputs(self):
        model, protector = _protected_mlp(seed=10)
        store = protector.store
        with pytest.raises(ProtectionError, match="missing from model"):
            store.current_signatures(LeNet5(num_classes=4, seed=5))
        with pytest.raises(ProtectionError, match="out of range"):
            store.mismatched_rows(model, np.array([-1]))
        _, layer = quantized_layers(model)[0]
        layer.qweight = layer.qweight.astype(np.int64)
        with pytest.raises(ProtectionError, match="int8"):
            store.current_signatures(model)


class TestRowRangeLookup:
    def test_row_range_uses_precomputed_positions(self):
        model, protector = _protected_mlp(seed=11)
        fused = protector.store.fused()
        running = 0
        for entry in protector.store:
            start, end = fused.row_range(entry.layer_name)
            assert (start, end) == (running, running + entry.num_groups)
            running = end
        with pytest.raises(ProtectionError, match="not protected"):
            fused.row_range("ghost")


class TestWidthDisparityGuard:
    """The bucketed-stacking width-disparity guard (PR-4 follow-up)."""

    def test_equal_sizes_stay_coalesced(self):
        assert split_by_padding_waste([10, 10, 10], 0.0) == [[0, 1, 2]]

    def test_dwarfing_slice_is_split_off_alone(self):
        # 1000 dwarfs the rest; the small slices stay together.
        groups = split_by_padding_waste([4, 1000, 5, 3], 0.5)
        assert [sorted(group) for group in groups] == [[1], [0, 2, 3]]

    def test_threshold_validation(self):
        with pytest.raises(ProtectionError):
            split_by_padding_waste([1, 2], 1.0)
        with pytest.raises(ProtectionError):
            split_by_padding_waste([1, 2], -0.1)

    def test_empty_input(self):
        assert split_by_padding_waste([], 0.5) == []

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=24),
        max_waste=st.floats(min_value=0.0, max_value=0.95),
    )
    def test_partition_properties(self, sizes, max_waste):
        groups = split_by_padding_waste(sizes, max_waste)
        # Exact partition: every index exactly once.
        flat = sorted(index for group in groups for index in group)
        assert flat == list(range(len(sizes)))
        for group in groups:
            width = max(sizes[index] for index in group)
            if width == 0:
                continue  # all-empty group costs nothing
            # The per-column bound the guard enforces...
            assert all(
                sizes[index] >= (1.0 - max_waste) * width for index in group
            )
            # ...implies the aggregate padding-waste bound (with float slack).
            total = sum(sizes[index] for index in group)
            waste = 1.0 - total / (width * len(group))
            assert waste <= max_waste + 1e-9

    def test_extreme_mix_matches_sequential_results(self):
        """Satellite acceptance: guarded engine == sequential, extreme mixes.

        A fleet mixing tiny MLPs with a LeNet whose slice is ~60x wider
        exercises the sub-splitting path; every model's flagged groups must
        equal what its own sequential ``scheduler.step`` finds.
        """
        def build(register_into):
            # Two same-shape MLPs (equal slice widths -> they coalesce) plus
            # a third with a slightly wider head (distinct structure key but
            # a comparable slice) and the dwarfing LeNet.
            for index, hidden in enumerate(((16,), (16,), (20,))):
                model = MLP(
                    input_dim=24, num_classes=4, hidden_dims=hidden, seed=index
                )
                quantize_model(model)
                register_into.register(f"mlp-{index}", model)
            lenet = LeNet5(num_classes=4, seed=9)
            quantize_model(lenet)
            register_into.register("lenet", lenet)

        guarded = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        sequential = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        build(guarded)
        build(sequential)
        # Corrupt two models (the dwarf and a small one) in both fleets.
        for engine in (guarded, sequential):
            _flip(engine.get("lenet").model, 0, 31)
            _flip(engine.get("mlp-0").model, 0, 3)

        lag = max(
            guarded.get(name).scheduler.worst_case_lag_passes
            for name in guarded.names()
        )
        detected = set()
        for _ in range(lag):
            outcomes = guarded.tick(recovery_policy=RecoveryPolicy.NONE)
            # The dwarfing LeNet ran alone; the small models stayed stacked.
            assert outcomes["lenet"].batch_size == 1
            assert outcomes["mlp-0"].batch_size >= 2
            for name, outcome in outcomes.items():
                managed = sequential.get(name)
                expected = managed.scheduler.step(managed.model)
                assert outcome.scan.shard_indices == expected.shard_indices
                _assert_oracle_verdict(guarded.get(name), outcome)
                if outcome.attack_detected:
                    detected.add(name)
        assert detected == {"lenet", "mlp-0"}


class TestStructureDetectionEdgeCases:
    """Fuse-time structure detection must never cost correctness.

    Every edge the detector can meet — zero-rotation offsets, offsets
    sharing a factor with ``num_groups``, single-group layers, layouts
    whose index matrix is foreign to the analytic hint — must either be
    served by the band path or fall back to the general gather,
    and in both cases return exactly what the per-layer checksum oracle
    (:meth:`SignatureStore.mismatched_rows`) returns.
    """

    def _assert_bit_identical(self, store, model, seed=0):
        fused = store.fused()
        rng = new_rng(("structure-edge", seed))
        for _, layer in quantized_layers(model):
            flat = layer.qweight.reshape(-1)
            index = int(rng.integers(flat.size))
            flat[index] = np.int8(int(flat[index]) ^ -128)
        total = fused.total_groups
        for rows in (
            None,
            np.empty(0, dtype=np.int64),
            np.arange(total, dtype=np.int64),
            np.arange(total // 3, 2 * total // 3, dtype=np.int64),
            rng.choice(total, size=max(total // 3, 1), replace=False),
        ):
            np.testing.assert_array_equal(
                fused.mismatched_rows(model, rows),
                store.mismatched_rows(model, rows),
            )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_zero_offset_falls_back_and_stays_bit_identical(self, seed):
        model, protector = _protected_mlp(seed=seed, interleave_offset=0)
        fused = protector.store.fused()
        assert not fused.structured
        assert not fused.structure.any_structured
        self._assert_bit_identical(protector.store, model, seed)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        offset=st.sampled_from([2, 3, 4, 6]),
    )
    @settings(max_examples=15, deadline=None)
    def test_non_coprime_offsets_stay_bit_identical(self, seed, offset):
        # hidden (16,) at group size 8: layer group counts land on small
        # even values, so these offsets routinely share a factor with (or
        # even divide) num_groups.  Such rotations cycle through fewer
        # groups but each slot row is still a contiguous rotated block —
        # the detector claims them and the block gather must stay exact.
        model, protector = _protected_mlp(
            seed=seed, group_size=8, hidden=(16, 8), interleave_offset=offset
        )
        fused = protector.store.fused()
        claimed = [
            entry.layout.slot_shifts() is not None for entry in protector.store
        ]
        assert any(claimed)  # the edge case is actually exercised
        self._assert_bit_identical(protector.store, model, seed)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_single_group_layers_fall_back(self, seed):
        # Every layer of this tiny MLP fits inside one group: no rotation
        # exists to exploit, the plane must stay unstructured.
        model, protector = _protected_mlp(
            seed=seed, group_size=64, hidden=(6,), input_dim=8, num_classes=3
        )
        assert all(
            entry.layout.num_groups == 1 for entry in protector.store
        )
        fused = protector.store.fused()
        assert not fused.structured
        self._assert_bit_identical(protector.store, model, seed)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_foreign_layout_is_rejected_by_verification(self, seed):
        # A layout subclass whose *actual* index matrix uses a different
        # rotation than its inherited analytic hint claims: fuse-time
        # verification must catch the lie numerically and route the layer
        # to the general gather (a wrongly believed hint would gather the
        # wrong weights — silently, on the clean path).
        from repro.core.checksum import compute_signatures
        from repro.core.interleave import GroupLayout
        from repro.core.signature import LayerSignatures

        class LyingLayout(GroupLayout):
            def _build_group_assignment(self):
                indices = np.arange(self.padded_size, dtype=np.int64)
                rows = indices // self.num_groups
                columns = indices % self.num_groups
                return (columns - rows * (self.interleave_offset + 1)) % self.num_groups

        model, protector = _protected_mlp(seed=seed, group_size=8, hidden=(16,))
        store = protector.store
        layer_map = dict(quantized_layers(model))
        for name in store.layer_names():
            entry = store.layer(name)
            foreign = LyingLayout(
                num_weights=entry.layout.num_weights,
                group_size=entry.layout.group_size,
                use_interleave=True,
                interleave_offset=entry.layout.interleave_offset,
            )
            store._layers[name] = LayerSignatures(
                layer_name=name,
                layout=foreign,
                key=entry.key,
                golden=compute_signatures(
                    layer_map[name].qweight.reshape(-1),
                    foreign,
                    entry.key,
                    store.config.signature_bits,
                ),
            )
        store._fused = None
        fused = store.fused()
        # The inherited hint (offset t) mismatches the actual matrix
        # (offset t+1), so no layer may be claimed as structured.
        assert not fused.structured
        assert not fused.structure.any_structured
        self._assert_bit_identical(store, model, seed)


def _layer_stack(weight_counts, seed):
    """A quantized model of independent linear layers with these weight counts."""
    rng = new_rng(("layer-stack", seed))
    model = Sequential(*[QuantLinear(count, 1, rng=rng) for count in weight_counts])
    quantize_model(model)
    return model


def _wrap_groups(regime, group_size, shift, draw):
    """A group count ``N`` putting ``shift * (group_size - 1)`` below, near
    or far above ``N``: two bands, two or three, or many."""
    span = shift * (group_size - 1)
    if regime == "one":
        return span + 1 + draw % 4
    if regime == "near":
        return max(2, span + draw % 5 - 2)
    return max(2, span // (3 + draw % 18))


def _mid_layer_slices(starts, total, rng):
    """Contiguous slices that start or end mid-layer, straddle layers and
    cover the plane's first and last layers."""
    slices = [
        (0, total),
        (int(starts[0]), int(starts[1])),                       # first layer
        (int(starts[-2]), total),                               # last layer
        (0, int(starts[1]) + max(1, (int(starts[2]) - int(starts[1])) // 2)),
        (int(starts[-2]) - 1, total - 1),                       # straddles into the last
    ]
    for _ in range(3):
        lo = int(rng.integers(0, total - 1))
        slices.append((lo, int(rng.integers(lo + 1, total + 1))))
    return [np.arange(lo, hi, dtype=np.int64) for lo, hi in slices if hi > lo]


class TestBandPath:
    """The gather-free band path against the checksum oracle.

    ``MIN_WEIGHTS_PER_BAND`` is a measured speed crossover, not a
    correctness bound, so these tests lower it to 1 to put every
    structured layer that fits inside the plane on the band path — small
    layers included — and compare verdicts with
    :meth:`SignatureStore.mismatched_rows` on slices of every shape.
    """

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        group_size=st.sampled_from([2, 8, 16, 512]),
        shift=st.sampled_from([1, 2, 3, 5]),
        regimes=st.lists(st.sampled_from(["one", "near", "many"]), min_size=3, max_size=3),
        draws=st.lists(st.integers(min_value=0, max_value=1000), min_size=6, max_size=6),
        use_masking=st.booleans(),
        signature_bits=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_band_sums_match_the_oracle(
        self, seed, group_size, shift, regimes, draws, use_masking, signature_bits
    ):
        if group_size == 512:
            # Keep the 512-slot planes small enough for a unit test.
            regimes = ["many" if regime == "one" else regime for regime in regimes]
            regimes[0] = "many"
        counts = []
        for index, regime in enumerate(regimes):
            groups = _wrap_groups(regime, group_size, shift, draws[index])
            counts.append(max(1, groups * group_size - draws[3 + index] % group_size))
        # A last layer long enough that no earlier layer's band boxes can
        # leave the plane; its own boxes may, which keeps it on np.take.
        counts.append(group_size * (shift + 2) + draws[0] % group_size)
        model = _layer_stack(counts, seed)
        protector = ModelProtector(
            RadarConfig(
                group_size=group_size,
                interleave_offset=shift,
                use_masking=use_masking,
                signature_bits=signature_bits,
            )
        )
        protector.protect(model)
        store = protector.store
        fused = store.fused()
        rng = new_rng(("band-oracle", seed))
        for _, layer in quantized_layers(model):
            flat = layer.qweight.reshape(-1)
            for index in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                flat[index] = np.int8(int(flat[index]) ^ -128)
        starts = store.row_starts()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(signature_module, "MIN_WEIGHTS_PER_BAND", 1)
            for rows in _mid_layer_slices(starts, fused.total_groups, rng):
                np.testing.assert_array_equal(
                    fused.mismatched_rows(model, rows),
                    store.mismatched_rows(model, rows),
                )
            banded = fused.structure._bands
        structured = [shifts is not None for shifts in fused.structure.shifts]
        assert all(
            banded[position] is not None
            for position in range(len(regimes))
            if structured[position]
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_real_crossover_keeps_verdicts(self, seed):
        """With the measured constant, a model whose layers straddle the
        crossover mixes bands and ``np.take`` runs inside one slice."""
        least = signature_module.MIN_WEIGHTS_PER_BAND
        # G=8, t=3: each of these layers has two bands.  The first sits just
        # above the crossover, the second far below it, and the last one's
        # boxes would leave the plane.
        model = _layer_stack([2 * least + 40, 700, 3 * least, least], seed)
        protector = ModelProtector(RadarConfig(group_size=8))
        protector.protect(model)
        store, fused = protector.store, protector.store.fused()
        rng = new_rng(("band-crossover", seed))
        _flip(model, int(rng.integers(4)), 0)
        for rows in _mid_layer_slices(store.row_starts(), fused.total_groups, rng):
            np.testing.assert_array_equal(
                fused.mismatched_rows(model, rows), store.mismatched_rows(model, rows)
            )
        banded = [layer is not None for layer in fused.structure._bands]
        assert banded[0] and banded[2] and not banded[1]

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_homogeneous_and_heterogeneous_stacks_match_the_oracle(self, seed):
        rng = new_rng(("band-stacks", seed))
        shapes = [[1500, 640, 900], [1500, 640, 900], [2000, 333, 1200]]
        fleet = []
        for index, counts in enumerate(shapes):
            model = _layer_stack(counts, seed * 10 + index)
            protector = ModelProtector(RadarConfig(group_size=16, interleave_offset=3))
            protector.protect(model)
            fleet.append((model, protector.store))
        for model, _ in fleet:
            _flip(model, int(rng.integers(3)), int(rng.integers(300)))
        views = [store.fused() for _, store in fleet]
        layer_maps = [dict(quantized_layers(model)) for model, _ in fleet]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(signature_module, "MIN_WEIGHTS_PER_BAND", 1)
            homogeneous = StackedVerifier(views[:2], layer_maps[:2])
            total = views[0].total_groups
            for rows in _mid_layer_slices(views[0]._row_starts, total, rng):
                flagged = homogeneous.verify([rows, rows], ScanScratch(), True)
                for (model, store), model_flagged in zip(fleet, flagged):
                    np.testing.assert_array_equal(
                        model_flagged, store.mismatched_rows(model, rows)
                    )
            rows_list = []
            for view in views:
                lo = int(rng.integers(0, view.total_groups - 1))
                rows_list.append(
                    np.arange(lo, int(rng.integers(lo + 1, view.total_groups + 1)))
                )
            rows_list[1] = rng.choice(views[1].total_groups, size=40, replace=False)
            flagged = StackedVerifier(views, layer_maps).verify(rows_list, ScanScratch())
            for (model, store), rows, model_flagged in zip(fleet, rows_list, flagged):
                np.testing.assert_array_equal(
                    model_flagged, store.mismatched_rows(model, rows)
                )

    @pytest.mark.parametrize("signature_bits", [2, 3])
    @pytest.mark.parametrize("band_path", [False, True])
    @pytest.mark.parametrize(
        "target", [-65536, -32768 - 128, -32768 + 128, 32768 - 128, 32768 + 128]
    )
    def test_int16_accumulator_keeps_the_signature_bits(
        self, target, band_path, signature_bits
    ):
        """A G=512 group whose masked sum overflows int16 is still binarized
        exactly like the oracle's int64 sum, before and after an MSB flip."""
        model = _layer_stack([512 * 6, 512 * 40], seed=0)
        first = quantized_layers(model)[0][1]
        flat = first.qweight.reshape(-1)
        config = RadarConfig(
            group_size=512, use_masking=False, signature_bits=signature_bits
        )
        protector = ModelProtector(config)
        protector.protect(model)
        members = protector.store.layer(quantized_layers(model)[0][0]).layout.members_of(2)
        values = np.zeros(members.size, dtype=np.int64)
        unit = 127 if target > 0 else -128
        count, rest = divmod(abs(target), abs(unit))
        values[:count] = unit
        if rest:
            values[count] = rest if target > 0 else -rest
        assert values.sum() == target
        flat[members] = values.astype(np.int8)
        protector.protect(model)  # goldens of the extreme sums
        store, fused = protector.store, protector.store.fused()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                signature_module, "MIN_WEIGHTS_PER_BAND", 1 if band_path else 1 << 40
            )
            rows = np.arange(fused.total_groups, dtype=np.int64)
            assert fused.mismatched_rows(model, rows).size == 0
            for index in (members[0], members[-1]):
                # One MSB flip moves the sum by +-128 and toggles bit 7.
                flat[index] = np.int8(int(flat[index]) ^ -128)
                flagged = fused.mismatched_rows(model, rows)
                np.testing.assert_array_equal(
                    flagged, store.mismatched_rows(model, rows)
                )
                assert flagged.tolist() == [2]
                flat[index] = np.int8(int(flat[index]) ^ -128)
            assert (fused.structure._bands is not None) == band_path


class TestSharedGeometry:
    """Geometry per shape, state per model.

    Views of equal-shaped models read one write-locked
    :class:`~repro.core.signature.KernelGeometry`; anything that changes
    the index or sign matrices — the secret seed, the group size, a layer
    name (it keys the masking signs) or a hand-built layout — gets its
    own.  Sharing must never change a verdict.
    """

    @staticmethod
    def _engine(count, config=None, policy=None, **kwargs):
        engine = VerificationEngine(
            config or RadarConfig(group_size=8),
            num_shards=4,
            recovery_policy=RecoveryPolicy.NONE,
            **({} if policy is None else {"policy": policy}),
        )
        for index in range(count):
            model = quantize_model(MLP(24, 4, (16,), seed=index, **kwargs))
            engine.register(f"m{index}", model)
        return engine

    @staticmethod
    def _geometry(config, model):
        protector = ModelProtector(config)
        protector.protect(model)
        return protector.store.fused().geometry

    def test_identical_registrations_share_one_geometry(self):
        engine = self._engine(2)
        first, second = (engine.get(name) for name in ("m0", "m1"))
        assert first.scheduler.fused is not second.scheduler.fused
        assert first.scheduler.fused.geometry is second.scheduler.fused.geometry
        for a, b in zip(first.protector.store, second.protector.store):
            assert a.layout is b.layout
        # Goldens and planes stay per model.
        assert first.scheduler.fused.golden is not second.scheduler.fused.golden
        assert not np.shares_memory(
            first.scheduler.fused._plane, second.scheduler.fused._plane
        )

    def test_equal_layers_share_a_layout_within_a_model(self):
        model = _layer_stack([640, 640, 300], seed=3)
        protector = ModelProtector(RadarConfig(group_size=8))
        protector.protect(model)
        layouts = [entry.layout for entry in protector.store]
        assert layouts[0] is layouts[1] and layouts[0] is not layouts[2]

    @pytest.mark.parametrize(
        "other",
        [
            RadarConfig(group_size=8, secret_seed=12345),
            RadarConfig(group_size=16),
        ],
        ids=["secret_seed", "group_size"],
    )
    def test_different_key_or_grouping_do_not_share(self, other):
        base = RadarConfig(group_size=8)
        model = quantize_model(MLP(24, 4, (16,), seed=0))
        twin = quantize_model(MLP(24, 4, (16,), seed=1))
        geometry = self._geometry(base, model)
        assert self._geometry(base, twin) is geometry
        assert self._geometry(other, twin) is not geometry

    def test_different_layer_names_do_not_share(self):
        rng = new_rng(("names", 0))
        flat = Sequential(QuantLinear(64, 4, rng=rng), QuantLinear(64, 4, rng=rng))
        nested = Sequential(
            Sequential(QuantLinear(64, 4, rng=rng), QuantLinear(64, 4, rng=rng))
        )
        quantize_model(flat)
        quantize_model(nested)
        config = RadarConfig(group_size=8)
        assert self._geometry(config, flat) is not self._geometry(config, nested)

    def test_foreign_layout_never_receives_a_shared_geometry(self):
        from repro.core.checksum import compute_signatures
        from repro.core.interleave import GroupLayout
        from repro.core.signature import LayerSignatures

        class CopiedLayout(GroupLayout):
            """Same index matrix as the shared layout, different object."""

        model, protector = _protected_mlp(seed=4)
        twin, twin_protector = _protected_mlp(seed=5)
        shared = protector.store.fused().geometry
        assert twin_protector.store.fused().geometry is shared
        store = twin_protector.store
        layer_map = dict(quantized_layers(twin))
        for name in store.layer_names():
            entry = store.layer(name)
            foreign = CopiedLayout(
                num_weights=entry.layout.num_weights,
                group_size=entry.layout.group_size,
                use_interleave=entry.layout.use_interleave,
                interleave_offset=entry.layout.interleave_offset,
            )
            store._layers[name] = LayerSignatures(
                layer_name=name,
                layout=foreign,
                key=entry.key,
                golden=compute_signatures(
                    layer_map[name].qweight.reshape(-1),
                    foreign,
                    entry.key,
                    store.config.signature_bits,
                ),
            )
        store._fused = None
        fused = store.fused()
        assert fused.geometry is not shared
        np.testing.assert_array_equal(fused.geometry.indices, shared.indices)
        _flip(twin, 1, 3)
        np.testing.assert_array_equal(
            fused.mismatched_rows(twin), store.mismatched_rows(twin)
        )

    def test_shared_arrays_are_write_locked(self):
        model = _layer_stack([40000, 40000], seed=2)
        protector = ModelProtector(RadarConfig(group_size=16))
        protector.protect(model)
        geometry = protector.store.fused().geometry
        bands = [
            band.signs
            for layer in geometry.structure._bands
            if layer is not None
            for band in layer.bands
        ]
        assert bands
        layout = next(iter(protector.store)).layout
        for array in [
            geometry.indices,
            geometry.signs,
            geometry.all_rows,
            layout.index_matrix,
            *bands,
        ]:
            with pytest.raises(ValueError, match="read-only"):
                array.reshape(-1)[0] = 1

    def test_resign_reuses_the_geometry(self):
        engine = self._engine(1, config=RadarConfig(group_size=8))
        managed = engine.get("m0")
        geometry = managed.scheduler.fused.geometry
        view = managed.scheduler.fused
        engine.reprotect("m0")
        assert managed.scheduler.fused is not view
        assert managed.scheduler.fused.geometry is geometry

    def test_geometry_dies_with_its_last_view(self):
        import gc
        import weakref

        engine = self._engine(3)
        engine.tick()
        geometry = weakref.ref(engine.get("m0").scheduler.fused.geometry)
        layout = weakref.ref(next(iter(engine.get("m0").protector.store)).layout)
        for name in engine.names():
            engine.unregister(name)
        gc.collect()
        assert geometry() is None
        assert layout() is None
        # A later registration of the same shape builds a fresh one.
        engine.register("again", quantize_model(MLP(24, 4, (16,), seed=9)))
        assert engine.get("again").scheduler.fused.geometry is not None

    def test_shared_geometry_fleet_matches_the_oracle(self):
        from repro.core import ScanPolicy

        engine = self._engine(4, policy=ScanPolicy.FULL)
        views = [engine.get(name).scheduler.fused for name in engine.names()]
        assert all(view.geometry is views[0].geometry for view in views)
        rng = new_rng(("shared-fleet", 0))
        for index, name in enumerate(engine.names()):
            model = engine.get(name).model
            for _ in range(index):  # 0..3 flips per model, different sites
                _flip(model, int(rng.integers(2)), int(rng.integers(64)))
        outcomes = engine.tick()
        for name, outcome in outcomes.items():
            _assert_oracle_verdict(engine.get(name), outcome)
        assert not outcomes["m0"].attack_detected
        assert outcomes["m3"].attack_detected

    def test_concurrent_runtimes_of_one_shape(self):
        import threading

        from repro.core import ProtectedInference

        config = RadarConfig(group_size=16)
        runtimes = [
            ProtectedInference(
                quantize_model(MLP(48, 4, (37, 24), seed=seed)), config
            )
            for seed in range(2)
        ]
        views = [runtime.protector.store.fused() for runtime in runtimes]
        assert views[0].geometry is views[1].geometry
        images = np.random.default_rng(0).standard_normal((2, 48)).astype(np.float32)
        errors = []
        mismatches = []

        def drive(position):
            runtime = runtimes[position]
            store = runtime.protector.store
            try:
                for step in range(20):
                    if step % 5 == 0:
                        _flip(runtime.model, step % 3, 3 + step + position)
                    expected = store.mismatched_rows(runtime.model).size
                    outcome = runtime.forward(images)
                    if outcome.flagged_groups != expected:
                        mismatches.append((position, step, outcome.flagged_groups))
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert mismatches == []
        assert all(runtime.log.detections > 0 for runtime in runtimes)
