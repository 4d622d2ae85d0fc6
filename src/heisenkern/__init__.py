"""Heisenberg-group heat kernel numerics.

Subpackages cover the group calculus, Carnot-Caratheodory geometry, the
heat kernel and its complex-shifted variants, heat-semigroup quadrature,
Monte Carlo simulation of the horizontal diffusion, and a verification
harness for gradient and functional inequalities.

Importing heisenkern, or any of its modules, loads numpy only.  Each
scipy submodule loads at the first call that needs it:

- scipy.interpolate and scipy.special: ``kernel.get_spline_tables``,
  hence ``kernel.xhat_log_h_field("spline")``;
- scipy.interpolate: the harness's p1 table, built by the first family
  check that weights a compactly supported member's panel;
- scipy.linalg and scipy.optimize: ``harness.c_lower_detail``, hence
  ``harness.constants_estimate``;
- scipy.special and scipy.optimize: ``harness.check_cheeger_bobkov``
  (the Gaussian isoperimetric profile and the tensorized C1 root);
- scipy.special: ``mc.chi2_against_kernel`` (the chi-squared p-value).

A fresh process that runs only the group, geometry, kernel-quadrature,
semigroup or sampler code never imports scipy.
"""

__version__ = "0.1.0"
