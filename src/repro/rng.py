"""Deterministic, named random streams.

Every stochastic component draws from a stream derived from the root
seed in :class:`repro.config.SimConfig` plus a component name, so

* results are reproducible bit-for-bit for a given config, and
* adding randomness to one component never perturbs another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, name: str) -> np.random.Generator:
    """Return an independent :class:`numpy.random.Generator`.

    The stream identity is ``(seed, name)``; the name is hashed with
    SHA-256 so streams are statistically independent even for similar
    names.

    Parameters
    ----------
    seed:
        Root seed (normally ``config.seed``).
    name:
        Component identity, e.g. ``"noise/johnson/sensor10"``.
    """
    digest = hashlib.sha256(f"{seed}/{name}".encode("utf-8")).digest()
    child_seed = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(child_seed)
