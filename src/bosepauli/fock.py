"""The truncated bosonic Fock space, the one object every certificate lives on.

A :class:`FockSpace` retains the number states ``|0> .. |dim-1>`` with a hard
cutoff: the raising operator maps the top level to the zero vector. Operators
on it are complex numpy matrices ``[m, n] = <m|O|n>`` and kets complex vectors
``[n] = <n|psi>``; each helper that names one lives beside its caller, in
:mod:`bosepauli.coherent` or :mod:`bosepauli.dense`.
This module imports no numpy, so every subcommand loads it.
"""

from typing import NamedTuple


class FockSpace(NamedTuple("FockSpace", [("dim", int)])):
    """Truncated Fock space holding the number states ``|0> .. |dim-1>``."""

    __slots__ = ()

    def __new__(cls, dim: int):
        if not isinstance(dim, int) or dim < 2:
            raise ValueError(f"a Fock space needs at least two levels, got dim={dim!r}")
        return super().__new__(cls, dim)
