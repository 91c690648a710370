"""Oscillator realizations of the Pauli pseudospin operators on truncated
Fock spaces, with exact identity certification, cat-state resolutions of
identity, and Grassmann-eigenvalue eigenvectors of the lowering operator.

Everything is a pure function over immutable inputs (named tuples, frozen
``__slots__`` values, Python numbers and freshly allocated numpy arrays), safe
to share across threads. The public names load on first use (PEP 562), so
the certificates (``FockSpace``, ``BosonizationParams``, the identity
catalog, the functional equation, the quadrature grid and residual, the
Grassmann eigenvector check and the report records) and all four subcommands
run without numpy; only ``coherent`` and the dense constructors import it.

The version and the names and defaults the command line offers are defined
here, since every process loads this module; the modules that use them
import them from it.
"""

import importlib

__version__ = "0.1.0"

# ``dump`` targets; ``blocks`` holds the pair blocks of each
DUMPABLE_OPERATORS = ("sigma_minus", "sigma_plus", "sigma_three", "p_even", "p_odd")
# the cat-state resolutions of identity, (23) plain and (28) phased, that ``quadrature`` certifies
RESOLUTION_VARIANTS = ("even-plain", "odd-plain", "even-phased", "odd-phased")
# the default of ``report.quadrature_suite`` and of ``quadrature --tol``
_QUADRATURE_TOLERANCE = 1e-12

# public name -> the module that defines it, imported on first use
_EXPORTS = {
    "FockSpace": "fock",
    "annihilator": "coherent",
    "creator": "coherent",
    "number_operator": "coherent",
    "dagger": "coherent",
    "commutator": "pauli",
    "anticommutator": "pauli",
    "max_abs_norm": "coherent",
    "fock_ket": "grassmann",
    "BosonizationParams": "blocks",
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
__all__ = ["__version__", "RESOLUTION_VARIANTS", *_EXPORTS]


def _lazy(namespace: dict, table: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) that imports each name of ``table`` from the
    package module it maps to, on first use, and keeps it in ``namespace``."""

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f".{table[name]}", __name__), name)
        return value

    return __getattr__


__getattr__ = _lazy(globals(), _EXPORTS)
