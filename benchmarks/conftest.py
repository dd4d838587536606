"""Shared fixtures and helpers for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper and prints
its rows (via ``repro.experiments.reporting.render_table``) so the output
can be compared against the paper and pasted into EXPERIMENTS.md.

Knobs (environment variables):

* ``REPRO_EXPERIMENT_ROUNDS`` — attack rounds per configuration
  (default 3 here; the paper uses 100).
* ``REPRO_BENCH_FULL`` — set to ``0`` to skip the ResNet-18 variants of the
  model-sweep benchmarks (they are several times slower than the ResNet-20
  ones); both models run by default, as in the paper.
* ``REPRO_CACHE_DIR`` — where pretrained weights and cached attack
  profiles live.
* ``REPRO_RESULTS_DIR`` — where fresh artifacts are written (default
  ``.bench/`` at the repo root, untracked).  The committed baselines under
  ``results/`` are never rewritten by a run; updating one is an explicit
  ``scripts/check_perf_regression.py --promote .bench/<name>.json``, which
  copies the fresh artifact only when it matches its baseline.

A benchmark that owns acceptance floors prints its table with
:func:`emit`, asserts its floors, and only then writes its artifact with
:func:`save`: a fresh artifact always holds floors that held.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentContext
from repro.experiments import reporting

os.environ.setdefault("REPRO_EXPERIMENT_ROUNDS", "3")

RESULTS_DIR = Path(
    os.environ.get(
        "REPRO_RESULTS_DIR", Path(__file__).resolve().parent.parent / ".bench"
    )
)


def bench_models():
    """Model setups exercised by the sweep benchmarks."""
    models = ["resnet20-cifar"]
    if os.environ.get("REPRO_BENCH_FULL", "1") != "0":
        models.append("resnet18-imagenet")
    return models


def emit(
    title: str, rows, columns=None, filename: str = None, deterministic: bool = False
) -> None:
    """Print a table and, given a ``filename``, :func:`save` its rows."""
    print("\n" + reporting.render_table(rows, columns=columns, title=title))
    if filename:
        save(rows, filename, deterministic=deterministic)


def save(rows, filename: str, deterministic: bool = False) -> None:
    """Persist ``rows`` as ``filename`` under :data:`RESULTS_DIR`.

    ``deterministic=True`` is for artifacts that must be byte-identical
    across reruns (the campaign JSONs): rows should already be projected
    onto machine-independent fields, and serialization is fixed too.
    Every other artifact carries a ``metadata.host`` stamp
    (:func:`~repro.experiments.reporting.host_stamp`) naming the host it
    was measured on.
    """
    reporting.save_results(
        rows,
        RESULTS_DIR / filename,
        metadata=None if deterministic else {"host": reporting.host_stamp()},
        deterministic=deterministic,
    )


@pytest.fixture(scope="session")
def resnet20_context() -> ExperimentContext:
    """The pretrained ResNet-20 (CIFAR-10-like) experiment context."""
    return ExperimentContext.load("resnet20-cifar")


@pytest.fixture(scope="session")
def resnet18_context() -> ExperimentContext:
    """The pretrained ResNet-18 (ImageNet-like) experiment context."""
    return ExperimentContext.load("resnet18-imagenet")


@pytest.fixture(scope="session")
def contexts(resnet20_context, resnet18_context):
    """Contexts for all models selected by ``bench_models()``."""
    available = {
        "resnet20-cifar": resnet20_context,
        "resnet18-imagenet": resnet18_context,
    }
    return {name: available[name] for name in bench_models()}


def group_sizes_for(model_name: str):
    """The paper's group-size sweep for each model."""
    if "resnet18" in model_name:
        return (64, 128, 256, 512, 1024)
    return (4, 8, 16, 32, 64)


def recovery_group_sizes_for(model_name: str):
    """The Table III group sizes for each model."""
    if "resnet18" in model_name:
        return (128, 256, 512)
    return (8, 16, 32)
