"""Dense numpy views of the pseudospin operators and of the Grassmann
eigenkets of ``sigma_-``.

The certificates need none of them: the identity catalog runs on the pair
blocks of :mod:`bosepauli.blocks`, and the eigenvector check on pair block 0.
These views serve library callers and the oracles that check the blocks
against dense matrices, so no subcommand loads this module, and it imports
numpy when loaded. Their old names under :mod:`bosepauli.pauli` and
:mod:`bosepauli.grassmann` resolve here on first use.
"""

from __future__ import annotations

import numpy as np

from .blocks import _DIAGONAL_BLOCKS, BosonizationParams, _Block
from .dump import _entries, _named_blocks
from .fock import FockSpace
from .grassmann import GrassmannScalar, _eigenket_amplitudes, _Value
from .pauli import PauliSet, _pauli_blocks

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
    if space.dim % 2 != 0:
        raise ValueError(f"dim={space.dim} is odd; sigma_three needs an even truncation")
    return _direct_sum([_DIAGONAL_BLOCKS["sigma_three"]] * (space.dim // 2))


def parity_projectors(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal projectors ``(P_even, P_odd)`` onto even/odd levels; any ``dim``."""
    parity = np.arange(space.dim) % 2
    return np.diag((parity == 0).astype(complex)), np.diag((parity == 1).astype(complex))


def pauli_set(params: BosonizationParams) -> PauliSet:
    """Assemble ``sigma_-``, ``sigma_+ = sigma_-^dag``, ``sigma_1 = sigma_+ + sigma_-``,
    ``sigma_2 = -i(sigma_+ - sigma_-)`` and the diagonal ``sigma_3``."""
    sets = [_pauli_blocks(block) for block in _named_blocks("sigma_minus", params)]
    return PauliSet._make(_direct_sum(operator) for operator in zip(*sets))


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
            if not np.all(np.isfinite(part.real) & np.isfinite(part.imag)):
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
    """Basis ket ``|n>``."""
    if not 0 <= n < space.dim:
        raise IndexError(f"level {n} outside 0..{space.dim - 1}")
    ket = np.zeros(space.dim, dtype=complex)
    ket[n] = 1.0
    return ket


def sigma_minus_eigenket(space: FockSpace, xi: GrassmannScalar) -> GrassmannKet:
    """Eigenket ``|xi> = |0> + xi |1>`` of ``sigma_-`` with eigenvalue ``xi``.

    The generating exponential terminates at first order because
    ``xi^2 = 0``, and the level-1 coefficient equals 1 for every exponent
    ``l``, so the state does not depend on the representation chosen.
    Requires a pure Grassmann ``xi`` (zero body).
    """
    level_zero, level_one = _eigenket_amplitudes(xi)
    body = level_zero.body * fock_ket(space, 0) + level_one.body * fock_ket(space, 1)
    soul = level_zero.soul * fock_ket(space, 0) + level_one.soul * fock_ket(space, 1)
    return GrassmannKet(space, body, soul)
