"""Oscillator realizations of the Pauli pseudospin operators on truncated
Fock spaces, with exact identity certification, cat-state resolutions of
identity, and Grassmann-eigenvalue eigenvectors of the lowering operator.

Everything is a pure function over immutable inputs (named tuples, frozen
``__slots__`` values, Python numbers and freshly allocated numpy arrays), safe
to share across threads. The public names load on first use (PEP 562), so
the certificates (``FockSpace``, ``BosonizationParams``, the identity
catalog, the functional equation, the quadrature grid and residual, the
Grassmann eigenvector check and the report records) and all four subcommands
run without numpy; only the dense constructors import it, when called.
"""

import importlib

from ._version import __version__

# public name -> the module that defines it, in the order of __all__
_EXPORTS = {
    "FockSpace": "fock",
    "annihilator": "fock",
    "creator": "fock",
    "number_operator": "fock",
    "dagger": "fock",
    "commutator": "fock",
    "anticommutator": "fock",
    "max_abs_norm": "fock",
    "fock_ket": "fock",
    "BosonizationParams": "pauli",
    "PauliSet": "pauli",
    "IdentityCheck": "pauli",
    "f_coefficient": "pauli",
    "verify_functional_equation": "pauli",
    "sigma_minus": "pauli",
    "closed_form_sigma_minus": "pauli",
    "sigma_three": "pauli",
    "parity_projectors": "pauli",
    "pauli_set": "pauli",
    "two_level_restriction": "pauli",
    "algebra_residuals": "pauli",
    "coherent_ket": "coherent",
    "even_ket": "coherent",
    "odd_ket": "coherent",
    "phase_relation_residual": "coherent",
    "QuadratureGrid": "quadrature",
    "quadrature_grid": "quadrature",
    "RESOLUTION_VARIANTS": "_choices",
    "resolution_residual": "quadrature",
    "nonlinear_coherent_ket": "coherent",
    "deformed_annihilator": "coherent",
    "nonlinear_eigen_residual": "coherent",
    "ladder_commutator_residual": "coherent",
    "GrassmannScalar": "grassmann",
    "GrassmannKet": "grassmann",
    "THETA": "grassmann",
    "apply_operator": "grassmann",
    "max_abs_amplitude": "grassmann",
    "sigma_minus_eigenket": "grassmann",
    "eigen_check": "grassmann",
    "CheckRecord": "report",
    "VerificationReport": "report",
    "algebra_suite": "report",
    "quadrature_suite": "report",
    "grassmann_suite": "report",
}
__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return value
