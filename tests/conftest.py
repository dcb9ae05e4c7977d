"""Shared helpers and fixtures for the test suite."""

import itertools
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from gaussgem import GraphSpec, build_omega, matrix_exponential

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """Environment for a child Python process: this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


def random_graph_spec(rng, num_modes, max_weight=1.5, edge_prob=0.7):
    """Random graph on ``num_modes`` modes, weights uniform in the disk |w| <= max_weight.

    At least one edge is always present so the state is never trivially the
    vacuum.
    """
    pairs = list(itertools.combinations(range(1, num_modes + 1), 2))
    chosen = [p for p in pairs if rng.uniform() < edge_prob]
    if not chosen:
        chosen = [pairs[rng.integers(len(pairs))]]
    edges = []
    for i, j in chosen:
        radius = max_weight * np.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * np.pi)
        edges.append((i, j, radius * np.exp(1j * angle)))
    return GraphSpec(num_modes, tuple(edges))


def random_local_symplectic(rng, num_modes, scale=1.0):
    """Block-diagonal symplectic, one independent one-mode block per mode."""
    blocks = []
    omega1 = build_omega(1)
    for _ in range(num_modes):
        h = rng.uniform(-scale, scale, (2, 2))
        h = 0.5 * (h + h.T)
        blocks.append(matrix_exponential(omega1 @ h))
    out = np.zeros((2 * num_modes, 2 * num_modes))
    for m, block in enumerate(blocks):
        out[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = block
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
