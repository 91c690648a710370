"""Dense numpy oracles for the tests.

The ladder and number operators, the parity projectors, the five pseudospin
matrices and the Grassmann eigenket of ``sigma_-`` are built here without the
pair blocks: ``pauli_set`` starts from ``closed_form_sigma_minus``, which is
index assignment, and the eigenket is ``|0> + xi |1>`` written out by hand. So
they share no code with the certificates they check. Not collected by pytest;
the tests import it.
"""

from collections import namedtuple

import numpy as np

from bosepauli import GrassmannKet, closed_form_sigma_minus

# the five pseudospin operators assembled from one sigma_-, as matrices or as stacks of them
PauliSet = namedtuple("PauliSet", "sigma_minus sigma_plus sigma_one sigma_two sigma_three")


def annihilator(space):
    """``a|n> = sqrt(n)|n-1>`` and ``a|0> = 0``, on the superdiagonal."""
    return np.diag(np.sqrt(np.arange(1, space.dim)), 1).astype(complex)


def creator(space):
    """``a^dag|n> = sqrt(n+1)|n+1>``, on the subdiagonal; the top level ``|dim-1>``
    goes to the zero vector instead of leaving the space."""
    return np.diag(np.sqrt(np.arange(1, space.dim)), -1).astype(complex)


def number_operator(space):
    """``diag(0, 1, ..., dim-1)``."""
    return np.diag(np.arange(space.dim)).astype(complex)


def dagger(op):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return op.conj().swapaxes(-1, -2)


def parity_projectors(space):
    """``(P_even, P_odd)``, the diagonal projectors onto the even and odd levels; any ``dim``."""
    return tuple(np.diag(np.arange(space.dim) % 2 == parity).astype(complex) for parity in (0, 1))


def pauli_set(params):
    """``sigma_-`` in closed form, ``sigma_+ = sigma_-^dag``, ``sigma_1 = sigma_+ + sigma_-``,
    ``sigma_2 = -i(sigma_+ - sigma_-)`` and ``sigma_3 = P_odd - P_even``."""
    minus = closed_form_sigma_minus(params)
    plus = dagger(minus)
    p_even, p_odd = parity_projectors(params.space)
    return PauliSet(minus, plus, plus + minus, -1j * (plus - minus), p_odd - p_even)


def sigma_minus_eigenket(space, xi):
    """``|xi> = |0> + xi |1>`` for ``xi = b + s theta``: body ``|0> + b|1>``, soul ``s|1>``."""
    body, soul = np.zeros((2, space.dim), dtype=complex)
    body[:2] = 1.0, xi.body
    soul[1] = xi.soul
    return GrassmannKet(space, body, soul)
