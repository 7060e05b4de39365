"""Deterministic RNG substreams.

All randomness in a run flows from one top-level seed. Independent units of
work (respondents, sampler chains, posterior draws in the market simulation)
each get their own generator keyed by (seed, stream tag, unit index), so
results do not depend on execution order and parallel execution is
bit-identical to serial. `ModelConfig` checks the seed where it enters, and
unit indices count from 0, so `substream` checks neither.
"""

from __future__ import annotations

import numpy as np

# Stream tags. Never renumber: they are part of the reproducibility contract.
RESPONDENT_STREAM = 1
TASK_STREAM = 2
CHOICE_STREAM = 3
CHAIN_STREAM = 4
MARKET_STREAM = 5


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *path)."""
    key = tuple(int(p) for p in path)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=int(seed), spawn_key=key)))
