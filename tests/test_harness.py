"""Pinned values of the harness's kernel constants.

A = int r Gamma(log h) h dx at t = 1 and the three section-3 identities
<Gamma(log h) h> = 2, <(Xhat log h)^2 h> = 1, <Xhat log h Yhat log h h> = 0
are computed on the coarse chart measure.  The pins hold every later
change to the measure or to the log-gradient routes to the values
measured before them.
"""

import pytest

from heisenkern.harness import check_kernel_identities, estimate_A

A_PINNED = 4.740675880
IDENTITY_TARGETS = {
    "identity-gamma-logh": 2.0,
    "identity-xhat-sq": 1.0,
    "identity-xhat-yhat": 0.0,
}


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
