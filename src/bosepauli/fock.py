"""The truncated bosonic Fock space, the one object every certificate lives on.

A :class:`FockSpace` retains the number states ``|0> .. |dim-1>`` with a hard
cutoff: a raising step from the top level is dropped. Kets on it are complex
numpy vectors ``[n] = <n|psi>``, built in :mod:`bosepauli.coherent` and
:mod:`bosepauli.dense`, and the dense views of :mod:`bosepauli.dense` are
complex matrices ``[m, n] = <m|O|n>``.
This module imports no numpy, so every subcommand loads it.
"""

from typing import NamedTuple

from . import _count


class FockSpace(NamedTuple("FockSpace", [("dim", int)])):
    """Truncated Fock space holding the number states ``|0> .. |dim-1>``."""

    __slots__ = ()

    def __new__(cls, dim: int):
        if _count("dim", dim, 1) < 2:
            raise ValueError(f"a Fock space needs at least two levels, got dim={dim!r}")
        return super().__new__(cls, dim)
