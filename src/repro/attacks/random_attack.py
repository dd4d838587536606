"""Random bit-flip attack (the weak baseline the paper dismisses).

The paper argues that random flips are "too weak to be considered as an
attack": 100 random flips cost less than 1 % accuracy.  The class is
still useful for two purposes in this reproduction:

* reproducing that claim (sanity benchmark);
* the miss-rate study of Section VI.B, where random MSB flips are injected
  into a single small layer to measure the detector's miss probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.attacks.bitflip import apply_bit_flips, make_bit_flip
from repro.attacks.profiles import AttackProfile
from repro.errors import AttackError
from repro.nn.module import Module
from repro.quant.bitops import INT8_BITS, MSB_POSITION
from repro.quant.layers import quantized_layers
from repro.utils.rng import new_rng


@dataclass
class RandomFlipConfig:
    """Configuration of the random bit-flip attack."""

    num_flips: int = 100
    bit_positions: Tuple[int, ...] = tuple(range(INT8_BITS))
    msb_only: bool = False
    layer_names: Optional[Sequence[str]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_flips <= 0:
            raise AttackError("num_flips must be positive")


class RandomBitFlipAttack:
    """Flip uniformly random (weight, bit) pairs across the quantized layers."""

    def __init__(self, config: Optional[RandomFlipConfig] = None) -> None:
        self.config = config or RandomFlipConfig()

    def run(self, model: Module, model_name: str = "") -> AttackProfile:
        """Apply the random flips in place and return the profile."""
        config = self.config
        layers = quantized_layers(model)
        if config.layer_names is not None:
            wanted = set(config.layer_names)
            layers = [(name, layer) for name, layer in layers if name in wanted]
        if not layers:
            raise AttackError("No quantized layers matched the attack configuration")
        for name, layer in layers:
            if not layer.is_quantized:
                raise AttackError(f"Layer {name!r} must be quantized before attacking")

        sizes = np.array([layer.qweight.size for _, layer in layers], dtype=np.int64)
        cumulative = np.concatenate([[0], np.cumsum(sizes)])
        total = int(cumulative[-1])

        rng = new_rng(("random-bitflip", config.seed))
        positions = (
            np.full(config.num_flips, MSB_POSITION)
            if config.msb_only
            else rng.choice(config.bit_positions, size=config.num_flips)
        )
        global_indices = rng.choice(total, size=config.num_flips, replace=False)

        profile = AttackProfile(model_name=model_name, attack_name="random", seed=config.seed)
        for global_index, bit_position in zip(global_indices, positions):
            layer_index = int(np.searchsorted(cumulative, global_index, side="right") - 1)
            name, layer = layers[layer_index]
            flat_index = int(global_index - cumulative[layer_index])
            flip = make_bit_flip(name, layer.qweight, flat_index, int(bit_position))
            apply_bit_flips(model, [flip])
            profile.flips.append(flip)
        return profile
