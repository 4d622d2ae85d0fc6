"""Pinned values of the harness's kernel constants and family checks.

A = int r Gamma(log h) h dx at t = 1 and the three section-3 identities
<Gamma(log h) h> = 2, <(Xhat log h)^2 h> = 1, <Xhat log h Yhat log h h> = 0
are computed on the coarse chart measure.  On the 12-member default
family the Driver-Melcher rows, the C_1 and C_2 lower bounds and the
uniform gradient bound |grad P_t f| <= sup|f| / sqrt(t) over the point
grid are pinned too.  The pins hold every later change to the measure,
the log-gradient routes or the translated-gradient quadrature to the
values measured before them.

The Gamma_2 witness search and the Gaussian isoperimetric profile behind
the Bobkov rows are checked against closed forms.
"""

import math
import warnings

import numpy as np
import pytest

from heisenkern.family import DEFAULT_FAMILY_SEED, build_family
from heisenkern.group import GroupElement, gamma, gamma2, poly_field
from heisenkern.harness import (
    _CUBICS,
    _gamma2_forms,
    _gauss_isop,
    _squash,
    c_lower_detail,
    check_cheeger_bobkov,
    check_driver_melcher,
    check_kernel_identities,
    demonstrate_gamma2_unbounded,
    estimate_A,
)

A_PINNED = 4.740675880
IDENTITY_TARGETS = {
    "identity-gamma-logh": 2.0,
    "identity-xhat-sq": 1.0,
    "identity-xhat-yhat": 0.0,
}
C2_LOWER_PINNED = 2.041836369622563
C1_LOWER_PINNED = 1.5352432210729223
# lhs of the grad-bound rows: sup over the d <= 4 grid of |grad P_1 f|
GRAD_BOUND_LHS = {
    "bump-000": 0.017394647280977348,
    "bump-001": 0.013604652317713416,
    "poly-000": 4.652556209759958,
    "poly-001": 12.197406041441287,
    "trig-000": 0.0030365515696170234,
    "combo-000": 6.619292168897847,
    "combo-001": 8.19544067659731,
    "combo-002": 12.185974405253214,
    "combo-003": 5.044482198840217,
    "combo-004": 8.689654763092088,
    "combo-005": 2.031636381517358,
    "xhat_log_h[spline]": 0.9999956690061664,
}


@pytest.fixture(scope="module")
def family12():
    return build_family(12, DEFAULT_FAMILY_SEED)


def test_estimate_A_pinned():
    assert estimate_A() == pytest.approx(A_PINNED, rel=1e-8)


def test_kernel_identities_pinned():
    rows = check_kernel_identities()
    assert [r.check for r in rows] == list(IDENTITY_TARGETS)
    for r in rows:
        # lhs is |measured - target|; the constant column carries the target
        assert r.constant == IDENTITY_TARGETS[r.check]
        assert r.lhs <= 1e-8, r.check
        assert r.passed, r.check


def test_squash_saturates_without_warnings():
    """The sigmoid squash reaches its exact limits at +-1000 silently."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, gam = _squash(np.array([-1000.0, 1000.0]), np.ones(2))
    assert vals.tolist() == [0.1, 0.9]
    assert gam.tolist() == [0.0, 0.0]


def test_driver_melcher_rows_pass(family12):
    rows = check_driver_melcher(family12)
    assert len(rows) == 12
    assert all(r.passed for r in rows), [r.function for r in rows if not r.passed]


@pytest.mark.parametrize("p, pinned", [(2, C2_LOWER_PINNED), (1, C1_LOWER_PINNED)])
def test_c_lower_pinned(family12, p, pinned):
    assert c_lower_detail(p, family12).value == pytest.approx(pinned, rel=1e-9)


def test_grad_bound_rows_pinned(family12):
    rows = [r for r in check_cheeger_bobkov(family12, C1_working=C1_LOWER_PINNED)
            if r.check == "grad-bound"]
    assert {r.function: r.lhs for r in rows} == pytest.approx(GRAD_BOUND_LHS, rel=1e-12)
    assert all(r.passed for r in rows), [r.function for r in rows if not r.passed]


def test_gamma2_search_reaches_target():
    rep = demonstrate_gamma2_unbounded()
    assert rep.passed, rep.note
    assert rep.lhs <= -1e3


@pytest.mark.parametrize("M", [1.0, 10.0, 1e3])
def test_gamma2_witness_at_origin(M):
    """f = x + M yz at 0: Xf = 1, Yf = 0, and Gamma_2 = -2M, from
    group.gamma2 and from the harness's quadratic forms alike."""
    f = poly_field({(1, 0, 0): 1.0, (0, 1, 1): M})
    origin = GroupElement(0.0, 0.0, 0.0)
    assert gamma(f, f, origin) == pytest.approx(1.0, rel=1e-9)
    assert gamma2(f, origin) == pytest.approx(-2.0 * M, rel=1e-6)
    c = np.array([{(1, 0, 0): 1.0, (0, 1, 1): M}.get(m, 0.0) for m in _CUBICS])
    Qg, Q2 = _gamma2_forms((0.0, 0.0, 0.0))
    assert c @ Qg @ c == pytest.approx(1.0, rel=1e-12)
    assert c @ Q2 @ c == pytest.approx(-2.0 * M, rel=1e-12)


PHI_1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)     # standard normal density at 1
CDF_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))  # standard normal cdf at 1


def test_gauss_isop_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = _gauss_isop(np.array([0.0, 1.0]))
    assert ends.tolist() == [0.0, 0.0]
    assert float(_gauss_isop(0.5)) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
    assert float(_gauss_isop(CDF_1)) == pytest.approx(PHI_1, abs=1e-10)


def test_gauss_isop_ode():
    """I I'' = -1 by centered second differences on [0.02, 0.98]."""
    u = np.linspace(0.02, 0.98, 200)
    h = 1e-4
    second = (_gauss_isop(u + h) - 2.0 * _gauss_isop(u) + _gauss_isop(u - h)) / h**2
    assert np.max(np.abs(_gauss_isop(u) * second + 1.0)) < 1e-3


def test_gauss_isop_above_u_one_minus_u():
    u = np.linspace(0.0, 1.0, 101)
    assert np.all(_gauss_isop(u) >= u * (1.0 - u))
