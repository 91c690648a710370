"""The names and defaults the command line offers, defined apart from the
modules that implement them, so that building the parser loads none of
those."""

# ``dump`` targets; ``blocks`` holds the pair blocks of each
DUMPABLE_OPERATORS = ("sigma_minus", "sigma_plus", "sigma_three", "p_even", "p_odd")
# the cat-state resolutions of identity, (23) plain and (28) phased, that ``quadrature`` certifies
RESOLUTION_VARIANTS = ("even-plain", "odd-plain", "even-phased", "odd-phased")
# the default of ``report.quadrature_suite`` and of ``quadrature --tol``
_QUADRATURE_TOLERANCE = 1e-12
