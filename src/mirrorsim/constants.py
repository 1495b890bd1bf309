"""Physical constants and reference conditions.

Single authoritative table (CODATA 2018 exact/recommended values) so that
every device equation pulls the same numbers.  All quantities are SI.
"""

# --------------------------------------------------------------------------- #
# CODATA 2018
# --------------------------------------------------------------------------- #

BOLTZMANN = 1.380649e-23
"""Boltzmann constant k (J/K).  Exact since the 2019 SI redefinition."""

ELEMENTARY_CHARGE = 1.602176634e-19
"""Elementary charge q (C).  Exact."""

REDUCED_PLANCK = 1.054571817e-34
"""Reduced Planck constant h/2pi (J s)."""

ELECTRON_MASS = 9.1093837015e-31
"""Electron rest mass (kg)."""

# --------------------------------------------------------------------------- #
# Reference conditions
# --------------------------------------------------------------------------- #

T_REF = 300.15
"""Reference temperature T0 (K) = 27 degC; device parameters are quoted here."""

ZERO_CELSIUS = 273.15
"""0 degC in kelvin, for netlist .temp conversion."""
