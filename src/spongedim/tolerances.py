"""Float tolerances shared by the dimension formulas and the property checks."""

# Slack for float comparisons of quantities that are exact in principle.
_EPS = 1e-9

# A growth rate must exceed 1 by this much before non-doubling is declared.
GROWTH_TOL = 1e-6

# Z >= Z' must hold exactly in the dimension recursion; allow only float noise.
_RECURSION_TOL = 1e-9
