"""Two-level cache and memory-traffic model.

The paper's gem5 system has a 32 KB L1 and a 64 KB L2.  For the purposes
of the overhead analysis what matters is (a) the weight tensors do not fit
in the caches, so every weight is streamed from DRAM once per inference
(the paper's "weights are accessed only once" observation), and (b) the
checksum computation adds no extra DRAM traffic because it consumes the
same stream.  The model below captures exactly that: it estimates DRAM
traffic for a layer given its weight/activation footprint and cache sizes,
and converts traffic to time through a bandwidth figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class CacheConfig:
    """Cache hierarchy and memory-interface parameters."""

    l1_bytes: int = 32 * 1024
    l2_bytes: int = 64 * 1024
    line_bytes: int = 64
    dram_bandwidth_bytes_per_s: float = 3.2e9  # single-channel LPDDR-class
    dram_latency_s: float = 60e-9

    def __post_init__(self) -> None:
        if min(self.l1_bytes, self.l2_bytes, self.line_bytes) <= 0:
            raise ValueError("Cache sizes must be positive")
        if self.dram_bandwidth_bytes_per_s <= 0:
            raise ValueError("DRAM bandwidth must be positive")


class CacheHierarchy:
    """Analytic cache behaviour for weight/activation streaming."""

    def __init__(self, config: CacheConfig = CacheConfig()) -> None:
        self.config = config

    def weight_traffic_bytes(self, weight_bytes: int) -> int:
        """DRAM traffic for a layer's weights.

        Weight tensors larger than the L2 are streamed (every byte read
        exactly once); smaller tensors may be resident after the first use,
        but within a single inference each weight is still fetched once, so
        the traffic is the tensor size either way.
        """
        return int(weight_bytes)

    def activation_traffic_bytes(self, activation_bytes: int) -> int:
        """DRAM traffic for activations: only what spills past the L2 goes out."""
        resident = min(activation_bytes, self.config.l2_bytes)
        return int(max(activation_bytes - resident, 0))

    def stream_time_s(self, traffic_bytes: int) -> float:
        """Time to move ``traffic_bytes`` over the DRAM interface.

        Bandwidth-limited transfer plus one DRAM access latency to open the
        stream (subsequent lines pipeline behind it), so the cost of a
        non-empty stream is affine in its size:
        ``traffic / bandwidth + latency``.
        """
        if traffic_bytes <= 0:
            return 0.0
        return (
            traffic_bytes / self.config.dram_bandwidth_bytes_per_s
            + self.config.dram_latency_s
        )

    def describe(self) -> Dict[str, float]:
        return {
            "l1_kb": self.config.l1_bytes / 1024,
            "l2_kb": self.config.l2_bytes / 1024,
            "bandwidth_gbps": self.config.dram_bandwidth_bytes_per_s / 1e9,
        }
