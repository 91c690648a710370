"""Oscillator realizations of the Pauli pseudospin operators on truncated
Fock spaces, with exact identity certification, cat-state resolutions of
identity, and Grassmann-eigenvalue eigenvectors of the lowering operator.

Everything is a pure function over immutable inputs (named tuples, frozen
``__slots__`` values, Python numbers and freshly allocated numpy arrays), safe
to share across threads. The public names load on first use (PEP 562), so
the certificates (``FockSpace``, ``BosonizationParams``, the identity
catalog, the functional equation, the quadrature grid and residual, the
Grassmann eigenvector check and the report records) and all four subcommands
run without numpy; only ``coherent`` and ``dense``, the dense views, import it.

The version, the names and defaults the command line offers, the module
that defines each lazily loaded name, and the checks of an integer
parameter, of a tolerance and of a list's entries are defined here, since
every process loads this module; the modules that use them import them
from it.
"""

import importlib
import math

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
    "commutator": "pauli",
    "anticommutator": "pauli",
    "max_abs_norm": "coherent",
    "BosonizationParams": "blocks",
    "IdentityCheck": "pauli",
    "f_coefficient": "pauli",
    "verify_functional_equation": "pauli",
    "sigma_minus": "dense",
    "closed_form_sigma_minus": "dense",
    "sigma_three": "dense",
    "two_level_restriction": "dense",
    "algebra_residuals": "pauli",
    "coherent_ket": "coherent",
    "even_ket": "coherent",
    "odd_ket": "coherent",
    "phase_relation_residual": "coherent",
    "QuadratureGrid": "quadrature",
    "quadrature_grid": "quadrature",
    "resolution_residual": "quadrature",
    "nonlinear_coherent_ket": "coherent",
    "nonlinear_eigen_residual": "coherent",
    "ladder_commutator_residual": "coherent",
    "GrassmannScalar": "grassmann",
    "GrassmannKet": "dense",
    "THETA": "grassmann",
    "apply_operator": "dense",
    "max_abs_amplitude": "dense",
    "eigen_check": "grassmann",
    "CheckRecord": "report",
    "VerificationReport": "report",
    "algebra_suite": "report",
    "quadrature_suite": "report",
    "grassmann_suite": "report",
}
__all__ = ["__version__", "RESOLUTION_VARIANTS", *_EXPORTS]
# every lazily loaded name -> the module that defines it: the public names, and
# the dump entry points that ``cli`` gives and the basis ket that ``grassmann`` gives
_HOMES = {**_EXPORTS, "named_operator": "dump", "matrix_to_json": "dump", "matrix_to_csv": "dump", "fock_ket": "dense"}


def _lazy(namespace: dict, names):
    """A module ``__getattr__`` (PEP 562) that imports each of ``names`` from
    its module in ``_HOMES``, on first use, and keeps it in ``namespace``.

    ``delattr`` removes only the kept value, and the next lookup imports the
    name again. A name set to ``None`` stays ``None``, which hides it from a
    caller that reads ``None`` as absent."""

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
        return value

    return __getattr__


def _count(name: str, value, least: int = 0) -> int:
    """``value``, checked to be an ``int`` of at least ``least`` (0 or 1) that is not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be a {'positive' if least else 'non-negative'} integer, got {value!r}")
    return value


def _tolerance(name: str, value):
    """``value + 0`` (``0.0`` for ``-0.0``), checked to be a finite ``int`` or ``float`` >= 0, not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf:  # false for NaN too
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return value + 0


def _distinct(*lists: tuple[str, list]) -> None:
    """Reject a ``(name, values)`` list that repeats an entry, since its records
    would repeat too. The CLI checks its options here, under their own names."""
    for name, values in lists:
        seen = set()
        for value in values:
            if value in seen:
                raise ValueError(f"{name} entries must be distinct, got {value} twice")
            seen.add(value)


__getattr__ = _lazy(globals(), _EXPORTS.keys())
