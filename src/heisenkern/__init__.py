"""Heisenberg-group heat kernel numerics.

Subpackages cover the group calculus, Carnot-Caratheodory geometry, the
heat kernel and its complex-shifted variants, heat-semigroup quadrature,
Monte Carlo simulation of the horizontal diffusion, and a verification
harness for gradient and functional inequalities.

Importing heisenkern, or any of its modules, loads numpy only.  Each
scipy submodule loads at the first call that needs it:

- scipy.special and scipy.optimize: ``harness.check_cheeger_bobkov``
  (the Gaussian isoperimetric profile and the tensorized C1 root);
- scipy.special: ``mc.chi2_against_kernel`` (the chi-squared p-value).

A fresh process that runs only the group, geometry, kernel (its tables
included), semigroup or sampler code never imports scipy.
"""

__version__ = "0.1.0"
