"""Dense numpy views of the pseudospin operators and Grassmann kets.

The certificates need none of them: the identity catalog runs on the pair
blocks of :mod:`bosepauli.blocks`, and the eigenvector check on pair block 0.
These views serve the acceptance criteria and library callers: no
subcommand loads this module, and it imports numpy when loaded. Four of them
also resolve under :mod:`bosepauli.pauli` and :mod:`bosepauli.grassmann`, on
first use.
"""

from __future__ import annotations

import numpy as np

from . import _count
from .blocks import BosonizationParams, _Block
from .dump import _entries, _named_blocks
from .fock import FockSpace
from .grassmann import GrassmannScalar, _Value

# ------------------------------------------------------------- pseudospin


def _direct_sum(blocks: list[_Block]) -> np.ndarray:
    """Direct sum of pair blocks, as a dense complex matrix."""
    out = np.zeros((2 * len(blocks), 2 * len(blocks)), dtype=complex)
    for row, col, value in _entries(blocks):
        out[row, col] = value
    return out


def sigma_minus(params: BosonizationParams) -> np.ndarray:
    """Lowering operator ``sigma_- = f(N) a = cos^l(pi N/2) (N+1)^(-1/2) a``."""
    return _direct_sum(_named_blocks("sigma_minus", params))


def closed_form_sigma_minus(params: BosonizationParams) -> np.ndarray:
    """Closed-form oracle for :func:`sigma_minus`.

    Writes ``|2n><2n+1|`` for every retained pair, with constant sign for even
    ``l`` and alternating sign ``(-1)^n`` for odd ``l``. Built by index
    assignment alone, independent of the ``f(N) a`` route and of the pair
    blocks, so the two constructions can be compared entrywise.
    """
    dim = params.space.dim
    out = np.zeros((dim, dim), dtype=complex)
    n = np.arange(dim // 2)
    out[2 * n, 2 * n + 1] = (-1.0) ** n if params.l % 2 == 1 else 1.0
    return out


def sigma_three(space: FockSpace) -> np.ndarray:
    """Inversion operator ``diag(-1, +1, -1, +1, ...)``.

    The ground state carries eigenvalue ``-1`` in this convention, which is
    opposite to the common ``sigma_z``; it is the closed form of the ladder
    commutator ``[sigma_+, sigma_-]`` on even truncations.
    """
    return _direct_sum(_named_blocks("sigma_three", BosonizationParams(1, space)))  # rejects an odd dim


def two_level_restriction(op: np.ndarray) -> np.ndarray:
    """Top-left 2x2 block ``<i|op|j>`` for ``i, j`` in ``{0, 1}``."""
    if op.shape[0] < 2 or op.shape[1] < 2:
        raise ValueError("operator is smaller than two levels")
    return op[:2, :2].copy()


# -------------------------------------------------------------- Grassmann


class GrassmannKet(_Value):
    """Ket with Grassmann amplitudes ``body[n] + soul[n] * theta``."""

    __slots__ = ("space", "body", "soul")

    def __init__(self, space: FockSpace, body: np.ndarray, soul: np.ndarray):
        for name, part in (("body", body), ("soul", soul)):
            if part.shape != (space.dim,):
                raise ValueError(f"{name} amplitude vector has shape {part.shape}, expected ({space.dim},)")
            if not np.all(np.isfinite(part)):
                raise ValueError(f"Grassmann ket {name} amplitudes must be finite")
        super().__init__(space, body, soul)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.space == other.space and np.array_equal(self.body, other.body) and np.array_equal(self.soul, other.soul)

    __hash__ = None  # numpy arrays have no hash

    def amplitude(self, n: int) -> GrassmannScalar:
        return GrassmannScalar(complex(self.body[n]), complex(self.soul[n]))


def apply_operator(op: np.ndarray, ket: GrassmannKet) -> GrassmannKet:
    """Act with a complex matrix; matrix entries commute with theta."""
    if op.shape != (ket.space.dim, ket.space.dim):
        raise ValueError(f"operator shape {op.shape} does not match dim {ket.space.dim}")
    return GrassmannKet(ket.space, op @ ket.body, op @ ket.soul)


def max_abs_amplitude(ket: GrassmannKet) -> float:
    """Largest modulus over both coefficient vectors."""
    return float(max(np.max(np.abs(ket.body)), np.max(np.abs(ket.soul))))


def fock_ket(space: FockSpace, n: int) -> np.ndarray:
    """Basis ket ``|n>``: ``IndexError`` for an ``int`` off ``0 .. dim-1``, ``ValueError`` for a non-``int``."""
    if isinstance(n, int) and not 0 <= n < space.dim:
        raise IndexError(f"level {n} outside 0..{space.dim - 1}")
    _count("level n", n)
    ket = np.zeros(space.dim, dtype=complex)
    ket[n] = 1.0
    return ket
