"""Heisenberg-group heat kernel numerics.

Subpackages cover the group calculus, Carnot-Caratheodory geometry, the
heat kernel and its complex-shifted variants, heat-semigroup quadrature,
Monte Carlo simulation of the horizontal diffusion, and a verification
harness for gradient and functional inequalities.

The library needs numpy alone: importing any of its modules, and any
call into them, loads numpy and the standard library only.  Its special
functions are its own, in ``numerics``: the Gaussian quantile behind the
Bobkov rows (Wichura's AS 241) and the chi-squared survival function
behind the Monte Carlo p-value (a finite sum); the tensorized Bobkov
root is a bisection in ``harness``.
"""

__version__ = "0.1.0"
