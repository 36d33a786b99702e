"""Deterministic seed derivation for parallel work.

Child seeds are derived from a base seed and a tuple of indices with a
splitmix64 mix, so replications can run on any number of workers and still
produce schedule-independent results: stream i is a pure function of
``(base_seed, *indices)``, never of execution order. The default worker
count comes from the ``SYNTHCTL_THREADS`` environment variable.
"""

from __future__ import annotations

import os

from .errors import BadThreadsError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One splitmix64 output step for a 64-bit state."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *indices: int) -> int:
    """Derive a 64-bit child seed from a base seed and index coordinates.

    Each index is folded into the state with splitmix64, so
    ``derive_seed(s, a, b)`` differs from ``derive_seed(s, b, a)`` and from
    ``derive_seed(s, a)`` for any (a, b).
    """
    state = splitmix64(base_seed & _MASK64)
    for ix in indices:
        state = splitmix64(state ^ ((ix + 1) * _GOLDEN & _MASK64))
    return state


def threads_from_env() -> int:
    """Worker count from ``SYNTHCTL_THREADS``: 1 when unset, at least 1.

    A value that is not an integer is a user error (``BAD_THREADS``).
    """
    text = os.environ.get("SYNTHCTL_THREADS", "1")
    try:
        return max(1, int(text))
    except ValueError:
        raise BadThreadsError(
            f"SYNTHCTL_THREADS must be an integer, got {text!r}"
        ) from None
