"""RADAR: Run-time Adversarial Weight Attack Detection and Accuracy Recovery.

A self-contained reproduction of the DATE 2021 paper by Li, Rakin, He, Fan
and Chakrabarti.  The package provides:

* ``repro.nn`` / ``repro.tensor`` — a NumPy neural-network framework with
  explicit forward/backward passes;
* ``repro.quant`` — 8-bit weight quantization and bit manipulation;
* ``repro.models`` / ``repro.data`` — the ResNet-20 / ResNet-18 targets and
  synthetic datasets;
* ``repro.attacks`` — the Progressive Bit-Flip Attack and variants;
* ``repro.core`` — the RADAR detection and recovery scheme, plus the
  amortized scan scheduler and the fleet verification engine;
* ``repro.telemetry`` — fleet SLA metrics (detection-latency percentiles),
  durable persistence of calibrated state across restarts, always-on
  per-stage tick timing, Prometheus text exposition and the read-only
  observability HTTP surface;
* ``repro.baselines`` — CRC / Hamming / parity comparison codes;
* ``repro.memsim`` — DRAM, rowhammer and timing simulation;
* ``repro.experiments`` — one harness per paper table and figure, plus
  the scripted attack-campaign SLA driver.

Quick taste (see ``examples/quickstart.py`` for the full version)::

    from repro.models.zoo import get_pretrained
    from repro.attacks import ProgressiveBitFlipAttack
    from repro.core import RadarConfig, ModelProtector

    bundle = get_pretrained("resnet20-cifar")
    protector = ModelProtector(RadarConfig(group_size=8))
    protector.protect(bundle.model)
    # ... attack the model, then ...
    report = protector.scan_and_recover(bundle.model)
"""

from repro.version import __version__

__all__ = ["__version__"]
