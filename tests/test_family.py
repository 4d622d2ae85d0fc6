"""The seeded test-function family: determinism, layout, gradients, support.

Every member's analytic frame gradient is checked against centered
differences of its values, and every compact member must vanish exactly
outside the CC ball d <= 6 that its draw windows promise.  A draw
computes each accepted centre's CC distance once.
"""

import math

import numpy as np
import pytest

from heisenkern import family as family_mod
from heisenkern.family import DEFAULT_FAMILY_SEED, bump_field, build_family, combine_fields
from heisenkern.geometry import cc_distance_many
from heisenkern.group import GroupElement, poly_field

from oracles import support_radius_bound, validate_gradient


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


def test_draw_measures_each_centre_once(monkeypatch):
    """build_family(24) draws 7 atoms and makes 10 distance calls: one per
    drawn centre, 3 of them rejected, and none again for the support
    bound, which reads the accepted centre's distance.  The members are
    those of an unpatched build, and support_radius_bound, which measures
    the centre afresh, gives every atom a support inside d <= 6."""
    calls = []

    def counted(*args):
        calls.append(args)
        return cc_distance_many(*args)

    monkeypatch.setattr(family_mod, "cc_distance_many", counted)
    family = build_family(24, DEFAULT_FAMILY_SEED)
    monkeypatch.undo()
    atoms = [a for frames in family.atoms.values() if frames for a in frames]
    assert len(set(atoms)) == 7 and len(calls) == 10
    assert family.atoms == build_family(24, DEFAULT_FAMILY_SEED).atoms
    assert all(support_radius_bound(*a) <= 6.0 for a in set(atoms))


@pytest.mark.parametrize("seed", [DEFAULT_FAMILY_SEED, 0, 3, 17, 29])
def test_every_size_builds_its_members(seed):
    """Sizes 2-30 build ``size`` distinct members ending with f*.  At the
    default seed sizes 3-8 draw nothing to pair (no two compact members on
    disjoint boxes and fewer than two polynomials), so their combination
    slots are bumps; every combination that is drawn pairs two members of
    its own class."""
    for size in range(2, 31):
        family = build_family(size, seed)
        names = [f.name for f in family.members]
        assert len(names) == len(set(names)) == size, (size, seed)
        assert family.kinds[names[-1]] == "fstar"
        for name, (parts, _) in family.combo_index.items():
            compact = [family.atoms[p] is not None for p in parts]
            assert set(parts) <= set(names) and compact[0] == compact[1], name
            assert (family.atoms[name] is None) == (not compact[0]), name


def test_integral_float_size_builds_the_same_family():
    """A size is validated as sample_batch's counts are: 24.0 builds
    build_family(24), member for member at the same values, and a
    non-integral size or one below 2 (no room for a bump and f*) raises."""
    want, got = build_family(24), build_family(24.0)
    assert [f.name for f in got.members] == [f.name for f in want.members]
    assert (got.kinds, got.atoms, got.combo_index) == (want.kinds, want.atoms, want.combo_index)
    x, y, z = np.random.default_rng(7).uniform(-2.0, 2.0, (3, 50))
    for f, g in zip(got.members, want.members):
        assert np.asarray(f.eval(x, y, z)).tobytes() == np.asarray(g.eval(x, y, z)).tobytes()
    for size in (24.5, 1):
        with pytest.raises(ValueError, match="size must be an integer >= 2"):
            build_family(size)


def test_seed_is_validated_like_the_size():
    """A non-integral seed raises rather than building seed 1's family from
    1.5, and so does a string rather than building seed 7's from "7"; 7.0
    builds seed 7's members, value for value, and records the int 7."""
    for seed in (1.5, "7", -1):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            build_family(12, seed)
    want, got = build_family(12, 7), build_family(12, 7.0)
    assert type(got.seed) is int and got.seed == 7
    assert (got.kinds, got.atoms, got.combo_index) == (want.kinds, want.atoms, want.combo_index)
    x, y, z = np.random.default_rng(7).uniform(-2.0, 2.0, (3, 50))
    for f, g in zip(got.members, want.members):
        assert np.asarray(f.eval(x, y, z)).tobytes() == np.asarray(g.eval(x, y, z)).tobytes()


def test_pairless_small_family_is_redrawn_with_bumps():
    """build_family(5) at the default seed: one bump, one polynomial and two
    combination slots leave nothing to pair, so the family holds three
    bumps and the polynomial, drawn from the same seed, the first bump the
    same as at size 2."""
    family = build_family(5, DEFAULT_FAMILY_SEED)
    assert [family.kinds[f.name] for f in family.members] == ["bump"] * 3 + ["poly", "fstar"]
    assert family.combo_index == {}
    assert family.atoms["bump-000"] == build_family(2, DEFAULT_FAMILY_SEED).atoms["bump-000"]


@pytest.mark.parametrize("width, vert", [(0.0, 0.3), (-1.0, 0.3), (1.0, 0.0), (1.0, -0.2),
                                         (math.nan, 0.3), (1.0, math.inf), (math.inf, None)])
def test_bump_field_refuses_bad_widths(width, vert):
    """Width 0 would give 0 everywhere, and a negative or non-finite width
    or vertical half-width no bump at all."""
    with pytest.raises(ValueError, match="finite and > 0"):
        bump_field((0.0, 0.0, 0.0), width, vert)


@pytest.mark.parametrize("center", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                    (0.0, 0.0, -math.inf)])
def test_bump_field_refuses_a_non_finite_centre(center):
    """With a NaN centre every q < 1 test is False, so the bump would be 0.0
    everywhere; an infinite centre gives no bump either."""
    with pytest.raises(ValueError, match="centre must be finite"):
        bump_field(center, 1.0)


@pytest.mark.parametrize("coeffs", [[math.inf, 1.0], [1.0, math.nan], [-math.inf, 0.5]])
def test_combine_fields_refuses_non_finite_coefficients(coeffs):
    """inf x + y would be NaN wherever x = 0, and a NaN coefficient NaN everywhere."""
    x, y = poly_field({(1, 0, 0): 1.0}, name="x"), poly_field({(0, 1, 0): 1.0}, name="y")
    with pytest.raises(ValueError, match="coeffs finite"):
        combine_fields([x, y], coeffs, "c")
