"""The 2x2 pair blocks of the pseudospin operators on the level pairs
``(|2n>, |2n+1>)``, without numpy or the identity catalog. Block ``n`` of
``sigma_-`` reads the ``n mod 4`` sign table, so it is block ``n mod 4``, and
:func:`_period` gives the blocks the catalog certifies and every dump repeats.
The ``dump`` entries and writers live in :mod:`bosepauli.dump`.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _count
from .fock import FockSpace


def _cos_half_pi(n: int) -> int:
    """``cos(pi n / 2)`` as an exact integer, by case analysis on ``n mod 4``."""
    return (1, 0, -1, 0)[n % 4]


class BosonizationParams(NamedTuple("BosonizationParams", [("l", int), ("space", FockSpace)])):
    """Exponent ``l >= 1`` together with an even-dimensional space.

    The truncation must be even so the retained levels pair completely as
    ``(|2n>, |2n+1>)``; the top level is then odd, ``f`` vanishes on it, and
    the pseudospin algebra closes in the finite space with zero error.
    """

    __slots__ = ()

    def __new__(cls, l: int, space: FockSpace):
        _count("exponent l", l, 1)
        if space.dim % 2 != 0:
            raise ValueError(f"dim={space.dim} is odd; the pseudospin algebra only closes on even truncations")
        return super().__new__(cls, l, space)


class _Block:
    """2x2 matrix ``[[a, b], [c, d]]`` of Python numbers with the operations
    the catalog uses; exact on Gaussian integers."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __matmul__(self, other: _Block) -> _Block:
        return _Block(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other: _Block) -> _Block:
        return _Block(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: _Block) -> _Block:
        return _Block(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __rmul__(self, scalar) -> _Block:
        return _Block(scalar * self.a, scalar * self.b, scalar * self.c, scalar * self.d)

    def dagger(self) -> _Block:
        return _Block(self.a.conjugate(), self.c.conjugate(), self.b.conjugate(), self.d.conjugate())

    def max_abs(self) -> float:
        return float(max(abs(self.a), abs(self.b), abs(self.c), abs(self.d)))


# the diagonal blocks that are dump targets; the catalog uses them too
_DIAGONAL_BLOCKS = {
    "sigma_three": _Block(-1.0, 0, 0, 1.0),
    "p_even": _Block(1.0, 0, 0, 0.0),
    "p_odd": _Block(0.0, 0, 0, 1.0),
}


def _lowering_block(n: int, l: int) -> tuple:
    """Entries ``(b00, b01, b10, b11)`` of pair block ``n`` of ``sigma_-``."""
    # The f(N) a entry at (2n, 2n+1) is f(2n) sqrt(2n+1) = cos^l(pi n), with the
    # radial factors cancelled analytically: rounded square roots do not cancel
    # in IEEE doubles ((1/sqrt(15))*sqrt(15) != 1), and exactness needs them to.
    return (0, _cos_half_pi(2 * n) ** l, 0, 0)


def _period(params: BosonizationParams) -> list[tuple]:
    """Entries of pair blocks ``0 .. min(D/2, 4) - 1`` of ``sigma_-``; block ``n`` is block ``n mod 4``."""
    return [_lowering_block(n, params.l) for n in range(min(params.space.dim // 2, 4))]
