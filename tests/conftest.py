"""Shared fixtures and random-instance builders for the test suite."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from pdmetric import HalfLineOrigin, PlaneDiagonal, canonicalize
from pdmetric.cli import _random_finite_diagram as random_finite_diagram
from pdmetric.cli import _random_finite_pair as random_finite_pair


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, the benchmark's input generator and ops,
    imported without writing bytecode under ``perfbench/``."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ untouched
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def random_plane_diagram(pair, rng, max_points=5, scale=10.0, gap=8.0):
    k = int(rng.integers(0, max_points + 1))
    pts = []
    for _ in range(k):
        b = float(rng.uniform(0.0, scale))
        g = float(rng.uniform(0.0, gap))
        pts.append(pair.point(b, b + g))
    return canonicalize(pts, pair)


def random_halfline_diagram(pair, rng, max_points=5, scale=10.0):
    k = int(rng.integers(0, max_points + 1))
    return canonicalize(
        [pair.point(float(rng.uniform(0.0, scale))) for _ in range(k)], pair
    )


def plane_sup():
    return PlaneDiagonal(1, "sup")


def plane_euclidean():
    return PlaneDiagonal(1, "euclidean")


def halfline():
    return HalfLineOrigin()
