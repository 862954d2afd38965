"""Shared fixtures and random-instance builders for the test suite."""

from __future__ import annotations

import numpy as np

from pdmetric import FiniteExplicit, HalfLineOrigin, PlaneDiagonal, canonicalize


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


def random_finite_pair(rng, n_min=4, n_max=8):
    """Finite explicit pair induced by random points under the sup norm,
    with the last index as A."""
    n = int(rng.integers(n_min, n_max + 1))
    coords = rng.uniform(0.0, 10.0, size=(n, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    matrix = np.abs(diff).max(axis=-1)
    return FiniteExplicit(matrix, [n - 1])


def random_finite_diagram(pair, rng, max_mult=2):
    pts = []
    for p in pair.points_off_A():
        m = int(rng.integers(0, max_mult + 1))
        if m:
            pts.append((p, m))
    return canonicalize(pts, pair)


def plane_sup():
    return PlaneDiagonal(1, "sup")


def plane_euclidean():
    return PlaneDiagonal(1, "euclidean")


def halfline():
    return HalfLineOrigin()
