"""Certified numerics for hyperbolic length-gradient bounds, collar
integrals, and strata-distance brackets.

Every quantity with a decimal name in the public API comes with a
rigorous enclosure: series tails are bounded explicitly, quadrature
error is budgeted, and truncated sums only ever move a bound in the
safe direction. Names are imported from their submodules
(wpstrata.integrals, wpstrata.toruscoset, ...); the package root
re-exports nothing.
"""

__version__ = "0.1.0"
