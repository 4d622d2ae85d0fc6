"""The seeded test-function family: determinism, layout, gradients, support.

Every member's analytic frame gradient is checked against centered
differences of its values, and every compact member must vanish exactly
outside the CC ball d <= 6 that its draw windows promise.
"""

import numpy as np
import pytest

from heisenkern.family import DEFAULT_FAMILY_SEED, build_family
from heisenkern.geometry import cc_distance_many
from heisenkern.group import GroupElement, validate_gradient


@pytest.fixture(scope="module")
def family12():
    return build_family(12, DEFAULT_FAMILY_SEED)


def test_build_is_deterministic(family12):
    again = build_family(12, DEFAULT_FAMILY_SEED)
    assert [f.name for f in again.members] == [f.name for f in family12.members]
    rng = np.random.default_rng(3)
    x, y, z = rng.uniform(-2.0, 2.0, (3, 50))
    for f, g in zip(family12.members, again.members):
        np.testing.assert_array_equal(np.asarray(f.eval(x, y, z)), np.asarray(g.eval(x, y, z)))


def test_fstar_is_last(family12):
    assert len(family12.members) == 12
    assert family12.members[-1].name == "xhat_log_h[spline]"
    assert family12.kinds["xhat_log_h[spline]"] == "fstar"


def test_member_gradients_validate(family12):
    rng = np.random.default_rng(5)
    pts = [GroupElement(*p) for p in rng.uniform(-1.5, 1.5, (5, 3))]
    for f in family12.members[:-1]:
        assert validate_gradient(f, pts, rtol=1e-6, atol=1e-6) <= 1e-6, f.name


def test_compact_members_vanish_beyond_support(family12):
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-8.0, 8.0, (2, 4000))
    z = rng.uniform(-12.0, 12.0, 4000)
    far = cc_distance_many(x, y, z) > 6.0
    assert np.count_nonzero(far) > 1000
    compact = [f for f in family12.members if family12.atoms[f.name] is not None]
    assert compact
    for f in compact:
        assert np.all(np.asarray(f.eval(x[far], y[far], z[far])) == 0.0), f.name
