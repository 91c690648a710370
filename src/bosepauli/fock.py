"""Dense complex linear algebra on a truncated bosonic Fock space.

Operators are plain complex numpy matrices with entry ``[m, n] = <m|O|n>``;
kets are complex vectors with component ``n = <n|psi>``. A :class:`FockSpace`
retains the number states ``|0> .. |dim-1>`` with a hard cutoff: the raising
operator maps the top level to the zero vector, so every operator is an
endomorphism of the same finite space. Matrices compose with the native numpy
operators (``@``, ``+``, scalar ``*``, ``np.vdot``); only the operations that
add physics semantics get names here. :func:`commutator` and
:func:`anticommutator` need only ``@``, ``+`` and ``-``, so they take the
2x2 pair blocks of the identity catalog as well. numpy is imported by the
functions that build arrays, so :class:`FockSpace` loads without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

    from .blocks import _Block


class FockSpace(NamedTuple("FockSpace", [("dim", int)])):
    """Truncated Fock space holding the number states ``|0> .. |dim-1>``."""

    __slots__ = ()

    def __new__(cls, dim: int):
        if not isinstance(dim, int) or dim < 2:
            raise ValueError(f"a Fock space needs at least two levels, got dim={dim!r}")
        return super().__new__(cls, dim)


def annihilator(space: FockSpace) -> np.ndarray:
    """Lowering operator with ``a|n> = sqrt(n)|n-1>`` and ``a|0> = 0``."""
    import numpy as np

    return np.diag(np.sqrt(np.arange(1, space.dim)), 1).astype(complex)


def creator(space: FockSpace) -> np.ndarray:
    """Raising operator, the adjoint of :func:`annihilator`.

    Truncation convention: the top level ``|dim-1>`` is sent to the zero
    vector instead of leaving the space.
    """
    return dagger(annihilator(space))


def number_operator(space: FockSpace) -> np.ndarray:
    """Number operator ``diag(0, 1, ..., dim-1)``."""
    import numpy as np

    return np.diag(np.arange(space.dim)).astype(complex)


def dagger(op: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix."""
    return op.conj().swapaxes(-1, -2)


def commutator(a: np.ndarray | _Block, b: np.ndarray | _Block) -> np.ndarray | _Block:
    """``a @ b - b @ a``, for two matrices or two pair blocks."""
    return a @ b - b @ a


def anticommutator(a: np.ndarray | _Block, b: np.ndarray | _Block) -> np.ndarray | _Block:
    """``a @ b + b @ a``, for two matrices or two pair blocks."""
    return a @ b + b @ a


def max_abs_norm(arr: np.ndarray) -> float:
    """Largest entrywise modulus, the residual statistic used throughout."""
    import numpy as np

    arr = np.asarray(arr)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def fock_ket(space: FockSpace, n: int) -> np.ndarray:
    """Basis ket ``|n>``."""
    import numpy as np

    if not 0 <= n < space.dim:
        raise IndexError(f"level {n} outside 0..{space.dim - 1}")
    ket = np.zeros(space.dim, dtype=complex)
    ket[n] = 1.0
    return ket
