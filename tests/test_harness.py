"""Pinned values of the harness's kernel constants and family checks.

A = int r Gamma(log h) h dx at t = 1 and the three section-3 identities
<Gamma(log h) h> = 2, <(Xhat log h)^2 h> = 1, <Xhat log h Yhat log h h> = 0
are computed on the coarse chart measure.  On the 12-member default
family the Driver-Melcher and reverse-Poincare rows, the C_1 and C_2
lower bounds, the Cheeger, correlation and Bobkov rows, the (1,1)
Poincare survey on the unit ball and the uniform gradient bound
|grad P_t f| <= sup|f| / sqrt(t) over the point grid are pinned too.
Every log-Sobolev, Beckner and Poincare lhs is checked against a stored
50-digit sum of the same float terms, and the family's rows keep their
bytes at one and two BLAS threads.
The C_1 lower bound ends at or above its iteration's starts, and its
size-200 value is pinned at two family seeds; ConstantEstimate rejects
non-finite or non-positive constants.
The 24-member family, the only default size whose members share
mollifier atoms, pins the compact members' gradient-bound rows.  The
pins hold every later change to the measure, the log-gradient routes or
the translated-gradient quadrature to the values measured before them.

The Gamma_2 witness f = x + M yz at the origin and the Gaussian
isoperimetric profile behind the Bobkov rows are checked against closed
forms, the row's ratio exactly and the oracles' centred differences
within their tolerance; a scaled group.gamma2 must fail the witness row.
The profile's quantile, AS 241, is checked against stored 50-digit
values on [0.1, 0.9] and in both tails, and the tensorized Bobkov row
holds at the constant it implies.  Both sides of
the commutation rows of the three default bumps are pinned at the
default panel counts and against the converged (44, 24, 48) panel; every
row passes, and a field with no known atom is refused.  The ray constant
is the |u| -> inf limit L(t) of the ray ratio at t = 1, checked with
L(1.5), L(2) and L(3) against stored mpmath values, and the ratio is
checked to rise in |u| below L(t) <= L(1).  The survey's sup is checked
against a stored mpmath ray ratio at its argmax, and its ratios against
twice the Gauss nodes a panel.

Both bicubic tables, the p_1 window table behind the compact members'
weights and the spline bundle of f* = Xhat log h, are numerics.BicubicTable.
Their values are checked bit for bit against scipy's NdBSpline on the
same knots and coefficients, on the points the checks send, on the knots
and on seeded points; their intervals against FITPACK's knot walk; their
coefficients against FITPACK's fit (RectBivariateSpline, s = 0) within
the measured rounding bound; and their values at the nodes against the
fitted data.  The p_1 table's accuracy off its nodes is pinned against
the contour rows it is filled from, and its coefficients keep their
bytes at two BLAS threads.  scipy.interpolate is imported by these tests
only.

Each member's quadrature context is built once per family and shared by
every check: the documented flow builds one per member, an update pass
none, and the contexts are read-only and freed with their family.  A
combo's context, built from its parts', has the bits of the one its own
field gives.  The chart grad-bound rows are semigroup.grad_Pt_at at the
first point of each orbit of the member's declared symmetries, and
their orbit table maps the grid onto itself; every row's sup |f| is
taken over the member's own nodes.  The
compact members' kernel weights are read from the table once per
distinct mollifier atom in the process, and a context's mu is their
origin row.
"""

import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from heisenkern import harness, kernel, numerics, semigroup
from heisenkern.family import DEFAULT_FAMILY_SEED, build_family
from heisenkern.geometry import cc_distance_many
from heisenkern.group import GroupElement, gamma2, poly_field
from heisenkern.kernel import KernelRangeError
from heisenkern.numerics import _ndtri
from heisenkern.harness import (
    _C_POWER,
    ConstantEstimate,
    SuiteResult,
    _gauss_isop,
    _implied_c1,
    _report,
    _squash,
    check_cheeger_bobkov,
    check_commutation,
    check_driver_melcher,
    check_kolmogorov_counterexample,
    check_local_11_poincare,
    check_phi_suite,
    check_ray_inequality,
    check_reverse_poincare,
    check_kernel_identities,
    commutation_default_bumps,
    demonstrate_gamma2_unbounded,
    estimate_A,
    run_inequality_suite,
)
from heisenkern.semigroup import grad_Pt_at, grad_sums, heat_measure

from oracles import c_lower_detail, digests_at_blas_threads, gamma2_fd, gamma_fd, xhat_log_h_exact

A_PINNED = 4.740675880
IDENTITY_TARGETS = {
    "identity-gamma-logh": 2.0,
    "identity-xhat-sq": 1.0,
    "identity-xhat-yhat": 0.0,
}
C2_LOWER_PINNED = 2.041836370812141
C1_LOWER_PINNED = 1.5352432212280773
# C_1 lower bound of build_family(200) at the default seed and at seed 3
C1_LOWER_200 = 1.765096972149831
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
    "xhat_log_h[spline]": 0.9999956690745937,
}
# lhs of the grad-bound rows of the compact members of the 24-member
# family; combos reuse the mollifier atoms of the bumps and trigs
GRAD_BOUND_LHS_24 = {
    "bump-000": 0.017394647280977348,
    "bump-001": 0.013604652317713416,
    "bump-002": 0.012790852401891952,
    "bump-003": 0.019819259815743076,
    "bump-004": 0.02115136415920694,
    "trig-000": 0.009841736073348295,
    "trig-001": 0.00812622474736939,
    "combo-000": 0.017297932386873813,
    "combo-001": 0.006602492444952986,
    "combo-002": 0.011644633520899351,
    "combo-003": 0.008087467669120826,
    "combo-004": 0.007366550878725519,
    "combo-005": 0.0083863516126664,
    "combo-006": 0.005609762331559778,
    "combo-007": 0.008772104468084923,
    "combo-008": 0.014995419357020924,
    "combo-009": 0.009764624931958841,
}
# (lhs, rhs) of the Cheeger, correlation and Bobkov rows at
# C1_working = C1_LOWER_PINNED on the 12-member family
CHEEGER_BOBKOV = {
    "cheeger-l1": {
        "bump-000": (0.019594562854703138, 0.20366875323390135),
        "bump-001": (0.03757615848676782, 0.4140974673825781),
        "poly-000": (1.7983344449018914, 12.273450121244656),
        "poly-001": (3.058438680496172, 24.967979903179888),
        "trig-000": (0.009263366319748043, 0.2893642188130211),
        "combo-000": (2.1767064121535924, 15.713356972415063),
        "combo-001": (2.361102561699601, 17.98321373479906),
        "combo-002": (3.118404539608947, 25.147432329122363),
        "combo-003": (1.5727009148788986, 11.590172849981025),
        "combo-004": (2.781086638560466, 20.28543636353809),
        "combo-005": (1.3177087741862594, 7.88044059414304),
        "xhat_log_h[spline]": (0.8451906187117837, 4.04761150971554),
    },
    "correlation": {
        "bump-000|bump-001": (0.00019907573234842144, 0.3375679529158544),
        "poly-000|poly-001": (20.609536249718587, 92.54077899101682),
        "trig-000|combo-000": (0.003216160178293587, 5.502896040163551),
        "combo-001|combo-002": (36.688901711091376, 157.71076687818658),
        "combo-003|combo-004": (15.029610168350489, 70.48338117752664),
        "combo-005|xhat_log_h[spline]": (0.5908131896192274, 4.752861023200353),
    },
    "bobkov-semigroup": {
        "bump-000": (0.0002768068127583234, 0.021181580817636814),
        "bump-001": (0.00053946533124688, 0.04303015348428858),
        "poly-000": (0.07750670834568918, 0.5915344444144297),
        "poly-001": (0.0748956167008854, 0.5304663233605756),
        "trig-000": (0.0001677755654739821, 0.03055375426899226),
        "combo-000": (0.08165423284325335, 0.6054963013554713),
        "combo-001": (0.07576721951457105, 0.5788796969031982),
        "combo-002": (0.07645183904647868, 0.5502113160522483),
        "combo-003": (0.05954102532860839, 0.5210270573651757),
        "combo-004": (0.09574262616289902, 0.6475858601048413),
        "combo-005": (0.06649541842362178, 0.5407658223410081),
        "xhat_log_h[spline]": (0.03834033536994669, 0.3671295299359047),
    },
    "bobkov-tensorized": {
        "bump-000": (0.3989375334610569, 0.41229490816168296),
        "bump-001": (0.39892395074881065, 0.42664860408062666),
        "poly-000": (0.3989422804014327, 0.6892731151611999),
        "poly-001": (0.3989422804014327, 0.6836716697278249),
        "trig-000": (0.3989421722258326, 0.4200604067879871),
        "combo-000": (0.3989422804014327, 0.7045796603728094),
        "combo-001": (0.3989422804014327, 0.6906510757380233),
        "combo-002": (0.3989422804014327, 0.6888423663874406),
        "combo-003": (0.3989422804014327, 0.6441301822276432),
        "combo-004": (0.3989422804014327, 0.7398122654677459),
        "combo-005": (0.3989422804014327, 0.6428067355508364),
        "xhat_log_h[spline]": (0.3989422804014327, 0.5266393609798745),
    },
}
# (lhs, rhs) of the phi-entropy rows at C1_working = C1_LOWER_PINNED on the
# 12-member family; the consistency row compares Beckner at p = 2 - 1e-4
# with Poincare on the first member.  An entropy lhs that moved past the pin
# takes PHI_LHS_MP's value; the consistency row's, |x - 1| for a ratio x
# near 1, is the library's own, since one ulp of x is 1.5e-12 of it
PHI_SUITE = {
    "lsi": {
        "bump-000": (0.011788384787876999, 0.3499709035923311),
        "bump-001": (0.02242939619866574, 0.7454435026181164),
        "poly-000": (0.018661668910208075, 0.0730300956452355),
        "poly-001": (0.04106362628442985, 0.17450382293631478),
        "trig-000": (0.002089740516315386, 0.2841978217484242),
        "combo-000": (0.023985630041528292, 0.09835930927797569),
        "combo-001": (0.028230609624642966, 0.118617934626924),
        "combo-002": (0.04106837455090736, 0.1744299166702255),
        "combo-003": (0.017848163988288864, 0.07402446606046828),
        "combo-004": (0.031093570072198432, 0.12827629750301744),
        "combo-005": (0.016031817259321342, 0.04905852712386869),
        "xhat_log_h[spline]": (0.09782058670501037, 0.23401991784685294),
    },
    "beckner-1.25": {
        "bump-000": (0.010171367152955357, 0.32274313659004544),
        "bump-001": (0.0194910611490956, 0.6884924905305332),
        "poly-000": (0.09286050359256032, 0.36320189192008534),
        "poly-001": (0.26121563555897936, 1.1094243741229672),
        "trig-000": (0.0024784072376831112, 0.32394498507805136),
        "combo-000": (0.13071987241710303, 0.5357507718145176),
        "combo-001": (0.16250315935125925, 0.6824089581111473),
        "combo-002": (0.26118033503673943, 1.1086767901546257),
        "combo-003": (0.09094214836626241, 0.3769657945546834),
        "combo-004": (0.18144573182583484, 0.7481322274960224),
        "combo-005": (0.06301549943163977, 0.19275794850085157),
        "xhat_log_h[spline]": (0.18359922057928202, 0.4369561002355018),
    },
    "beckner-1.5": {
        "bump-000": (0.008569986171298088, 0.2908536270986328),
        "bump-001": (0.0165297893621852, 0.6214363921253133),
        "poly-000": (0.4436137106973963, 1.734327748259335),
        "poly-001": (1.5952855578435048, 6.772268445652455),
        "trig-000": (0.0028392348776227205, 0.3596407320287878),
        "combo-000": (0.6839552513774834, 2.801888489499443),
        "combo-001": (0.8980492736904231, 3.7694828188711416),
        "combo-002": (1.5946699102211201, 6.766008874504063),
        "combo-003": (0.4448698923224583, 1.8431904171879068),
        "combo-004": (1.0165267501119164, 4.189397091231437),
        "combo-005": (0.2377917446868971, 0.7271529415493964),
        "xhat_log_h[spline]": (0.33112282994163067, 0.7847504078677277),
    },
    "beckner-1.75": {
        "bump-000": (0.007146269136628562, 0.2593859125030956),
        "bump-001": (0.013864879868914248, 0.5550858817291471),
        "poly-000": (2.0604707315514044, 8.052761463310674),
        "poly-001": (9.47260142523252, 40.1983222012726),
        "trig-000": (0.003180251187859362, 0.39334599653954194),
        "combo-000": (3.4793933625008444, 14.24863649054247),
        "combo-001": (4.825357583613368, 20.246743767773832),
        "combo-002": (9.466570218843195, 40.15109738459204),
        "combo-003": (2.1158805246775634, 8.763422985441562),
        "combo-004": (5.537081722560163, 22.811802418333393),
        "combo-005": (0.8724191212997581, 2.6671587800209027),
        "xhat_log_h[spline]": (0.5811298701746684, 1.372820417532428),
    },
    "poincare": {
        "bump-000": (0.00594519468799347, 0.23057240585264804),
        "bump-001": (0.011594735482022936, 0.494214051392706),
        "poly-000": (9.375512402900544, 36.63264078506656),
        "poly-001": (55.10248070376143, 233.7750048245303),
        "trig-000": (0.003507925784581242, 0.42655331257568846),
        "combo-000": (17.339981951386466, 70.99198139148062),
        "combo-001": (25.39974235373406, 106.54769861239217),
        "combo-002": (55.05357787366865, 233.44179473823812),
        "combo-003": (9.858687150276388, 40.82176366937109),
        "combo-004": (29.546947424917946, 121.69751073111964),
        "combo-005": (3.135538588806051, 9.584311429902158),
        "xhat_log_h[spline]": (0.9999925951218553, 2.3569442699221343),
    },
    "beckner-p2-consistency": {
        "bump-000": (7.332701922146967e-05, 0.001),
    },
}
# the lhs of the phi-entropy rows at 20 digits of oracles.phi_suite_lhs_mp, a
# 50-digit mpmath sum of E[phi(f)] - phi(E f), and of E[(f - m)^2], over each
# member context's float weights and terms (about 11 s); the consistency row's
# is its deviation at the 50-digit Beckner, variance and rhs means
PHI_LHS_MP = {
    "lsi": {
        "bump-000": 0.011788384787876977242,
        "bump-001": 0.022429396198665777511,
        "poly-000": 0.018661668910208076434,
        "poly-001": 0.041063626284429847296,
        "trig-000": 0.0020897405163153322547,
        "combo-000": 0.023985630041528292934,
        "combo-001": 0.028230609624633012134,
        "combo-002": 0.041068374550907358343,
        "combo-003": 0.017848163988288862761,
        "combo-004": 0.031093570072198431522,
        "combo-005": 0.016031817259321342458,
        "xhat_log_h[spline]": 0.097820586705006168863,
    },
    "beckner-1.25": {
        "bump-000": 0.010171367152955347778,
        "bump-001": 0.019491061149095622431,
        "poly-000": 0.09286050359256031478,
        "poly-001": 0.26121563555897937057,
        "trig-000": 0.0024784072376829199069,
        "combo-000": 0.13071987241704840966,
        "combo-001": 0.16250315935125925438,
        "combo-002": 0.2611803350367394393,
        "combo-003": 0.090942148366262409936,
        "combo-004": 0.18144573182583483406,
        "combo-005": 0.063015499431639767917,
        "xhat_log_h[spline]": 0.18359922057926973577,
    },
    "beckner-1.5": {
        "bump-000": 0.0085699861712980877859,
        "bump-001": 0.016529789362185184767,
        "poly-000": 0.44361371069739628339,
        "poly-001": 1.5952855578435047118,
        "trig-000": 0.0028392348776224949296,
        "combo-000": 0.68395525137728043111,
        "combo-001": 0.89804927369042307896,
        "combo-002": 1.5946699102211201112,
        "combo-003": 0.44486989232233405355,
        "combo-004": 1.0165267501119163099,
        "combo-005": 0.23779174468689710104,
        "xhat_log_h[spline]": 0.33112282994161944959,
    },
    "beckner-1.75": {
        "bump-000": 0.0071462691366285634756,
        "bump-001": 0.013864879868914261539,
        "poly-000": 2.0604707315514044828,
        "poly-001": 9.4726014252328864118,
        "trig-000": 0.003180251187859220793,
        "combo-000": 3.4793933625008445772,
        "combo-001": 4.8253575836164556422,
        "combo-002": 9.4665702188431952091,
        "combo-003": 2.1158805246775635416,
        "combo-004": 5.5370817225601631695,
        "combo-005": 0.87241912129975802356,
        "xhat_log_h[spline]": 0.58112987017464156001,
    },
    "poincare": {
        "bump-000": 0.005945194687993472835,
        "bump-001": 0.011594735482022938973,
        "poly-000": 9.3755124029005418703,
        "poly-001": 55.10248070376139005,
        "trig-000": 0.003507925784581243239,
        "combo-000": 17.339981951386462524,
        "combo-001": 25.39974235373404217,
        "combo-002": 55.053577873668624404,
        "combo-003": 9.8586871502763857873,
        "combo-004": 29.546947424917936807,
        "combo-005": 3.1355385888060501802,
        "xhat_log_h[spline]": 0.99999259512181900364,
    },
    "beckner-p2-consistency": {
        "bump-000": 0.000073327019221776437362,
    },
}
# (lhs, rhs, constant) of the c2-vs-c1sq row of the default suite on the
# 12-member family: C2_lower against C1_working^2 at C1_working = C1_lower
C2_VS_C1SQ = (2.041836370812141, 2.3569717483267634, 1.5352432212280773)
# L(t), the |u| -> inf limit of the ray ratio at t, to 21 digits of
# oracles.ray_limit_mp (mpmath at 30 digits); the ray constant is L(1).
# RAY_SUP_MP is the ray ratio at the survey's argmax (|u|, t) = (3.9, 1), to
# 20 digits of oracles.ray_ratio_mp (the same at 25 digits on 4 s-panels
# and at 32 digits on 8)
RAY_LIMITS = {
    1.0: 14.0353682600807706567,
    1.5: 4.2693039786763697359,
    2.0: 2.13209115023404432732,
    3.0: 0.979042978497611703931,
}
RAY_CONSTANT = RAY_LIMITS[1.0]
RAY_SUP_MP = 13.833475344558846405
# (1,1) Poincare on the unit CC ball: the empirical sup of
# int_B |f - m| / int_B |grad f| and each member's (lhs, sup * rhs)
LOCAL_11_SUP = 0.5665139786446365
LOCAL_11_POINCARE = {
    "bump-000": (0.00027979657994404994, 0.0024449044001011015),
    "bump-001": (0.12970433773482337, 0.1694530490075683),
    "poly-000": (0.31467530482528705, 0.44202393408126833),
    "poly-001": (0.0844060464430128, 0.22103588052949377),
    "trig-000": (0.01742742870072959, 0.04289166327308535),
    "combo-000": (0.2901266350315048, 0.41832184082654666),
    "combo-001": (0.2110447497770882, 0.32592765813614116),
    "combo-002": (0.11993174270131254, 0.25426136035028124),
    "combo-003": (0.1837456571835202, 0.2698379820659793),
    "combo-004": (0.3479450684435007, 0.5058900384240747),
    "combo-005": (0.33847172856353214, 0.4667507350164501),
    "xhat_log_h[spline]": (0.31249470805455903, 0.31249470805455903),
}
# (lhs, rhs) of the reverse-Poincare rows: t Gamma(P_t f)(0) against
# P_t(f^2)(0) - (P_t f(0))^2 at t = 1; f* is the equality case
REVERSE_POINCARE = {
    "bump-000": (0.00014749600945642013, 0.00594519468799347),
    "bump-001": (0.00012118891417410056, 0.011594735482022936),
    "poly-000": (3.1460727413762077, 9.375512402900544),
    "poly-001": (16.530745990277364, 55.10248070376143),
    "trig-000": (3.076278888313698e-06, 0.003507925784581242),
    "combo-000": (5.47498848034136, 17.339981951386466),
    "combo-001": (7.748474757548289, 25.39974235373406),
    "combo-002": (16.529411888382153, 55.05357787366865),
    "combo-003": (3.064120755667057, 9.858687150276388),
    "combo-004": (9.251963873161941, 29.546947424917946),
    "combo-005": (1.335062356165628, 3.135538588806051),
    "xhat_log_h[spline]": (0.9999913384176364, 0.9999925951218553),
}


@pytest.fixture(scope="module")
def family12():
    return build_family(12, DEFAULT_FAMILY_SEED)


@pytest.fixture(scope="module")
def family24():
    return build_family(24, DEFAULT_FAMILY_SEED)


@pytest.fixture(scope="module")
def rows24(family24):
    return check_cheeger_bobkov(family24)


def test_estimate_A_pinned():
    assert estimate_A() == pytest.approx(A_PINNED, rel=1e-8)


def test_kernel_identities_pinned():
    rows = check_kernel_identities()
    assert [r.check for r in rows] == list(IDENTITY_TARGETS)
    for r in rows:
        # lhs is |measured - target|; the constant column carries the target
        assert r.constant == IDENTITY_TARGETS[r.check]
        assert r.rhs == harness.QUAD_BUDGET, r.check
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


def test_reverse_poincare_rows_pinned(family12):
    rows = check_reverse_poincare(family12)
    got = {r.function: (r.lhs, r.rhs) for r in rows}
    assert list(got) == list(REVERSE_POINCARE)
    for name, (lhs, rhs) in REVERSE_POINCARE.items():
        assert got[name] == pytest.approx((lhs, rhs), rel=1e-12), name
    assert all(r.passed for r in rows), [r.function for r in rows if not r.passed]


# f*'s chart quantities |grad P_1 f*(0)|^2, Var_{p_1}(f*) and P_1|grad f*|^2(0).
# The first two are exactly 1: X P_1 f(0) = -Cov(f, Xhat log p_1), and the
# Fisher identity E[grad-hat log p_t grad-hat log p_t^T] = I/t makes f* =
# Xhat log p_1 its own extremal.  The third, 1/2, is measured (to 1.6e-10
# on the fine tier with the exact f*), not derived.
FSTAR_VALUES = (1.0, 1.0, 0.5)
# the errors against them measured on the chart tier, rounded up in the
# fourth digit: the family's spline f* and the pointwise-exact f* on the
# same nodes
FSTAR_ERRORS = {"spline": (8.662e-6, 7.405e-6, 5.830e-6),
                "exact": (1.042e-9, 1.303e-9, 4.551e-9)}
# 1 - lhs of f*'s grad-bound row on the 12-member family, 4.33093e-6
# measured: |grad P_1 f*| is largest at the grid's origin, where it is
# exactly 1, and the spline table's error of 8.66e-6 in its square halves
FSTAR_GRAD_BOUND_ERROR = 4.331e-6
# f*'s grad-bound rhs, sup |f*| over the member's chart nodes, is reached
# at the chart node FSTAR_SUP_POINT, where |f*| = |x alpha + (y/2) b| is
# FSTAR_SUP_MP to 24 digits of oracles.kernel_six_mp (mpmath at 30
# digits).  The spline table's value there errs by 1.18e-10 relative:
# a different point from the translated node (-11.97, -0.166, 0.442) that
# set the sup when it was taken over the grid's translations too, and a
# larger table error than the 2.24e-11 measured there
FSTAR_SUP_POINT = (9.969630379265691, 0.16599943883204898, 0.27588668141421085)
FSTAR_SUP_MP = 5.08518441896523573007106


@pytest.mark.parametrize("route", list(FSTAR_ERRORS))
def test_fstar_chart_quantities_are_exact(family12, route):
    """f*'s three chart quantities within the error each route measures
    now, which is inside QUAD_BUDGET: the spline table's error is the
    floor, since the exact f* on the same nodes is 5e-9 from them."""
    f = family12.members[-1]
    assert f.name == "xhat_log_h[spline]"
    if route == "spline":
        ctx = harness._member_ctx(family12, f)
    else:
        ctx = harness._build_member_ctx(xhat_log_h_exact(), ())
    got = (ctx.a * ctx.a + ctx.b * ctx.b, harness._variance(ctx, ctx.vals), ctx.expect(ctx.gam))
    for v, exact, err in zip(got, FSTAR_VALUES, FSTAR_ERRORS[route]):
        assert abs(v - exact) <= err <= harness.QUAD_BUDGET, (v, exact)


def test_fstar_grad_bound_lhs_is_one(family12):
    """f*'s grad-bound lhs, sup over the grid of |grad P_1 f*|, is 1 to the
    error measured now; its rhs, sup |f*| over the member's nodes, is the
    mpmath f* at the sup's point to the spline table's error there."""
    f = family12.members[-1]
    (row,) = [r for r in check_cheeger_bobkov(family12)
              if r.check == "grad-bound" and r.function == f.name]
    assert abs(row.lhs - 1.0) <= FSTAR_GRAD_BOUND_ERROR, row.lhs
    assert row.passed
    assert row.rhs == abs(float(f.eval(*FSTAR_SUP_POINT)))
    assert abs(row.rhs - FSTAR_SUP_MP) <= 1.2e-10 * FSTAR_SUP_MP, row.rhs


@pytest.mark.parametrize("p, pinned", [(2, C2_LOWER_PINNED), (1, C1_LOWER_PINNED)], ids=["p2", "p1"])
def test_c_lower_pinned(family12, p, pinned):
    assert c_lower_detail(p, family12).value == pytest.approx(pinned, rel=1e-12)


@pytest.mark.parametrize("size", [12, 24])
def test_c_lower_witness_shares_the_librarys_path(size):
    """The oracles' witness route gives harness._c_lower's value bit for bit
    at p = 1, 2, and so constants_estimate's C_1 and C_2 lower bounds
    wherever they are above its 1.0 floor."""
    family = build_family(size)
    span = harness._chart_span(family)
    values = [c_lower_detail(p, family).value for p in (1, 2)]
    assert [v.hex() for v in values] == [harness._c_lower(p, span).hex() for p in (1, 2)]
    est = harness.constants_estimate(family)
    assert min(values) > 1.0
    assert [est.C1_lower.hex(), est.C2_lower.hex()] == [v.hex() for v in values]


def chart_ratio1(family, c):
    """|cB| / E|c.grad f| over the chart measure, from the chart span."""
    _, gx, gy, B, _, mu = harness._chart_span(family)
    return math.hypot(*(c @ B)) / float(np.sqrt((c @ gx) ** 2 + (c @ gy) ** 2) @ mu)


def test_c1_lower_dominates_its_starts(family12):
    """The reweighted iteration ends at or above both of its starts: the
    p = 2 witness and every chart single."""
    names, _, _, B, G, _ = harness._chart_span(family12)
    _, c2 = harness._chart_p2(B, G)
    value = c_lower_detail(1, family12).value
    assert value >= chart_ratio1(family12, c2)
    for c in np.eye(len(names)):
        assert value >= chart_ratio1(family12, c)


@pytest.mark.parametrize("seed", [DEFAULT_FAMILY_SEED, 3])
def test_c1_lower_on_the_default_size(seed):
    """At size 200 the iteration reaches the same supremum from two family seeds."""
    assert c_lower_detail(1, build_family(200, seed)).value == pytest.approx(
        C1_LOWER_200, rel=1e-12)


def test_c1_lower_of_a_one_member_span():
    """With f* the only chart member, the chart value is f*'s own ratio."""
    family = build_family(2)
    assert harness._chart_span(family)[0] == ["xhat_log_h[spline]"]
    value = c_lower_detail(1, family).value
    assert value == pytest.approx(chart_ratio1(family, np.ones(1)), rel=1e-12)
    assert value == pytest.approx(1.5171777911104614, rel=1e-12)


@pytest.mark.parametrize("p", [1, 2])
def test_c_lower_of_a_constant_span_is_zero(p):
    """A span whose start ratio is 0 returns 0 (RuntimeWarnings are errors)."""
    const = poly_field({(0, 0, 0): 1.0}, name="const")
    family = dataclasses.replace(build_family(2), members=(const,), combo_index={},
                                 kinds={"const": "poly"}, atoms={"const": None})
    assert c_lower_detail(p, family).value == 0.0


@pytest.mark.parametrize("p", [1, 2])
def test_c_lower_of_a_compact_only_family_is_zero(p):
    """A family without a chart member has no candidate: 0 and an empty witness."""
    family = build_family(2)
    bump = family.members[0]
    assert bump.name == "bump-000"
    family = dataclasses.replace(family, members=(bump,), combo_index={},
                                 kinds={bump.name: family.kinds[bump.name]},
                                 atoms={bump.name: family.atoms[bump.name]})
    witness = c_lower_detail(p, family)
    assert (witness.value, witness.names, witness.coeffs) == (0.0, (), ())


def test_compact_singles_stay_below_fstar():
    """On the default-size family no compactly supported member's own
    ratio reaches f*'s, at either p: harness._c_lower searches the chart
    span alone on that premise.  A change to the family's draws that
    breaks this needs the compact members searched again."""
    fstar = [c_lower_detail(p, build_family(2)).value for p in (1, 2)]
    assert fstar == pytest.approx([1.517177790929422, 2.000006], rel=1e-6)
    family = build_family(200)
    r1, r2 = [], []
    for ctx in harness._contexts(family):
        if ctx.compact:
            r1.append(math.hypot(ctx.a, ctx.b) / ctx.expect(np.sqrt(ctx.gam)))
            r2.append((ctx.a ** 2 + ctx.b ** 2) / ctx.expect(ctx.gam))
    assert len(r1) > 100
    assert max(r1) < fstar[0] and max(r2) < fstar[1]


@pytest.mark.parametrize("kwargs", [
    {"A": math.inf},
    {"A": math.nan},
    {"A": -1.0},
    {"C1_lower": math.nan},
    {"C1_lower": math.inf},
    {"C1_lower": 0.0},
    {"C2_lower": math.nan},
    {"C2_lower": -2.0},
    {"C1_working": -3.0},
    {"C1_working": 0.0},
    {"C1_working": math.inf},
])
def test_constant_estimate_rejects_impossible_constants(kwargs):
    good = {"A": A_PINNED, "C1_lower": C1_LOWER_PINNED, "C2_lower": C2_LOWER_PINNED}
    with pytest.raises(ValueError):
        ConstantEstimate(**(good | kwargs))


def test_constant_estimate_default_working_constant():
    low = ConstantEstimate(A_PINNED, 1.2, C2_LOWER_PINNED)
    high = ConstantEstimate(A_PINNED, C1_LOWER_PINNED, C2_LOWER_PINNED)
    assert (low.C1_working, high.C1_working) == (math.sqrt(2.0), C1_LOWER_PINNED)


def test_grad_bound_rows_pinned(family12):
    rows = [r for r in check_cheeger_bobkov(family12, C1_working=C1_LOWER_PINNED)
            if r.check == "grad-bound"]
    assert {r.function: r.lhs for r in rows} == pytest.approx(GRAD_BOUND_LHS, rel=1e-12)
    assert all(r.passed for r in rows), [r.function for r in rows if not r.passed]


def test_grad_bound_rows_pinned_on_shared_atoms(family24, rows24):
    got = {r.function: r.lhs for r in rows24
           if r.check == "grad-bound" and family24.atoms[r.function] is not None}
    assert got == pytest.approx(GRAD_BOUND_LHS_24, rel=1e-12)
    assert all(r.passed for r in rows24 if r.check == "grad-bound")


def test_pt_density_raises_outside_table_window():
    """The p_1 table covers r <= 8, |z| <= 9: a point outside raises
    instead of falling back to another route."""
    edge = harness._pt_density(np.array([8.0]), 0.0, np.array([-9.0]))
    assert edge.shape == (1,) and 0.0 < edge[0] < 1e-6
    for x, z in ((8.01, 0.0), (0.0, 9.01), (0.0, -9.01), (math.nan, 0.0)):
        with pytest.raises(KernelRangeError):
            harness._pt_density(np.array([0.5, x]), 0.0, np.array([0.0, z]))


@pytest.fixture(scope="module")
def table_fits():
    """(xg, yg, values, table) of both kernel tables, the p_1 window table
    and the spline bundle's, recorded as they are built afresh; the
    rebuilt p_1 table replaces the cached one, with the same bits."""
    fits = []

    class Recorded(numerics.BicubicTable):
        def __init__(self, xg, yg, values):
            super().__init__(xg, yg, values)
            fits.append((np.asarray(xg), np.asarray(yg), np.asarray(values), self))

    harness._p1_table.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "BicubicTable", Recorded)
        mp.setattr(kernel, "BicubicTable", Recorded)
        harness._p1_table()
        kernel.LogHSplineTables()
    assert [f[2].shape[-1] for f in fits] == [1, 6]
    return fits


def assert_table_bits(table, x, y):
    """The table's values at the flat points (x, y) have the bits of scipy's
    NdBSpline on the same knots and coefficients."""
    from scipy.interpolate import NdBSpline

    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    got = table(x, y).T
    want = NdBSpline(table.t, table.c, 3)(np.stack([x, y], axis=-1))
    differ = np.flatnonzero(np.any(got.view(np.int64) != want.view(np.int64), axis=1))
    assert differ.size == 0, (f"{differ.size} of {x.size} values differ, first at "
                              f"(x, y) = ({x[differ[0]]!r}, {y[differ[0]]!r})")


def knot_values(t):
    """The knots of an axis and their neighbours one ulp away."""
    k = np.unique(t)
    return np.unique(np.concatenate([k, np.nextafter(k, -np.inf), np.nextafter(k, np.inf)]))


def test_table_bits_on_checked_points(table_fits, monkeypatch):
    """Every point that constants_estimate and check_cheeger_bobkov send to
    either table, on a new 12-member family, gets NdBSpline's value bit for
    bit.  The atom weights are cached for the process, so the cache starts
    empty, and f*'s bundle is read once per family."""
    harness._atom_weights.cache_clear()
    call = numerics.BicubicTable.__call__
    seen = []

    def spy(self, x, y):
        seen.append((self, x.copy(), y.copy()))
        return call(self, x, y)

    monkeypatch.setattr(numerics.BicubicTable, "__call__", spy)
    family = build_family(12, DEFAULT_FAMILY_SEED)
    harness.constants_estimate(family)
    check_cheeger_bobkov(family)
    tables = (harness._p1_table(), kernel.get_spline_tables()._table)
    assert {id(t) for t, _, _ in seen} == {id(t) for t in tables}
    for table in tables:
        points = [(x, y) for t, x, y in seen if t is table]
        assert_table_bits(table, np.concatenate([x for x, _ in points]),
                          np.concatenate([y for _, y in points]))


def test_table_bits_on_knots_and_seeded_points(table_fits):
    """For both tables: every pair of knots and their neighbours (the grid
    corners among them) and 10^5 seeded points of the grid, a margin past
    its edges included."""
    rng = np.random.default_rng(19)
    for *_, table in table_fits:
        X, Y = np.meshgrid(*(knot_values(t) for t in table.t))
        assert_table_bits(table, X, Y)
        lo, hi = np.array([t[0] for t in table.t]), np.array([t[-1] for t in table.t])
        x, y = rng.uniform(lo - 0.01 * (hi - lo), hi + 0.01 * (hi - lo), (100_000, 2)).T
        assert_table_bits(table, x, y)


def test_table_interval_is_fitpack_walk(table_fits):
    """On each axis of both tables the interval is FITPACK's and NdBSpline's:
    the walk from interval 3 while x >= t[l + 1], stopping at n - 5, that is
    l = 3 plus the number of knots t[4 .. n - 5] at or below x, for points
    on, next to, between and past the knots."""
    rng = np.random.default_rng(7)
    for *_, table in table_fits:
        for t, g0, inv in table._axes:
            span = t[-1] - t[0]
            x = np.concatenate([knot_values(t), rng.uniform(t[0] - 0.1 * span, t[-1] + 0.1 * span, 5_000)])
            walk = 3 + np.count_nonzero(t[None, 4:len(t) - 4] <= x[:, None], axis=1)
            assert np.array_equal(numerics._interval(t, x, g0, inv), walk)
            clipped = np.clip(np.searchsorted(t, x, "right") - 1, 3, len(t) - 5)
            assert np.array_equal(walk, clipped)


def test_table_coefficients_match_fitpack(table_fits):
    """FITPACK's interpolating fit (RectBivariateSpline, s = 0) of each
    component has the table's knots, and its coefficients are within
    2.6e-15 max|c| of the table's (measured 2.59e-15, on the bundle's b_r)."""
    from scipy.interpolate import RectBivariateSpline

    for xg, yg, values, table in table_fits:
        for i in range(values.shape[-1]):
            tx, ty, c = RectBivariateSpline(xg, yg, values[..., i], kx=3, ky=3, s=0).tck
            assert np.array_equal(tx, table.t[0]) and np.array_equal(ty, table.t[1])
            c = c.reshape(len(xg), len(yg))
            assert np.max(np.abs(table.c[..., i] - c)) <= 2.6e-15 * np.max(np.abs(c)), i


def test_table_reproduces_its_nodes(table_fits):
    """At the grid nodes each component meets its data to rounding: within
    4.3e-16 max|values| (measured 4.24e-16, on the bundle's b)."""
    for xg, yg, values, table in table_fits:
        X, Y = np.meshgrid(xg, yg, indexing="ij")
        got = table(X.ravel(), Y.ravel())
        for i in range(values.shape[-1]):
            v = values[..., i].ravel()
            assert np.max(np.abs(got[i] - v)) <= 4.3e-16 * np.max(np.abs(v)), i


def test_table_values_ignore_batch_mates_and_blocks():
    """One call on a shuffled set that spans two blocks gives each point the
    bits of its own one-point call."""
    n = numerics._TABLE_BLOCK + 1_500
    rng = np.random.default_rng(11)
    x = rng.uniform(-5.0, 5.0, n)
    y = rng.uniform(-5.0, 5.0, n)
    z = rng.uniform(-9.0, 9.0, n)
    batch = harness._pt_density(x, y, z)
    single = np.array([harness._pt_density(x[i:i + 1], y[i:i + 1], z[i:i + 1])[0]
                       for i in range(n)])
    assert np.array_equal(batch.view(np.int64), single.view(np.int64))


def test_table_arrays_are_read_only(table_fits):
    """Both tables' knots and coefficients refuse writes."""
    for *_, table in table_fits:
        for a in (*table.t, table.c, table._rows):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def contour_p1(r, z):
    """p_1(r, z) from the contour row at radius r whose last height is |z|."""
    m = math.ceil(abs(z) / 0.1)
    return kernel._contour_rows(r, abs(z) / m, m + 1, p_only=True)[0, m]


def test_table_accuracy_off_its_nodes():
    """Against contour rows at 4,000 seeded points of the window: at most
    3.2e-7 relative where p1 > 1e-6 (measured 3.18e-7 at (0.0062, 3.044),
    next to the axis), and 6.5e-7 in the checks' region r <= 5.1,
    |z| <= 4.9 (measured 6.45e-7).  The table's nodes are interpolated
    exactly, so only off-node points see this error."""
    rng = np.random.default_rng(3)
    r = rng.uniform(0.0, harness._P1TAB_R, 4_000)
    z = rng.uniform(-harness._P1TAB_Z, harness._P1TAB_Z, 4_000)
    exact = np.array([contour_p1(a, b) for a, b in zip(r, z)])
    err = np.abs(harness._pt_density(r, 0.0, z) - exact) / exact
    assert err[exact > 1e-6].max() <= 3.2e-7
    checked = (r <= 5.1) & (np.abs(z) <= 4.9)
    assert err[checked].max() <= 6.5e-7
    assert exact[checked].min() >= 9e-8


def test_table_coefficients_ignore_blas_threads():
    """Built in fresh processes at one and two BLAS threads, the window
    table's coefficients have the same bytes: its rows are FFTs, not BLAS
    contractions (test_kernel checks the spline table's)."""
    digests = digests_at_blas_threads("harness._p1_table()._rows")
    assert digests[0] == digests[1]


def count_table_points(monkeypatch):
    """Wrap _pt_density: the lists of (radii, points) per table call."""
    density = harness._pt_density
    radii, points = [], []

    def counted(x, y, z):
        radii.append(np.hypot(x, y).size)
        points.append(np.size(z))
        return density(x, y, z)

    monkeypatch.setattr(harness, "_pt_density", counted)
    return radii, points


def test_grad_bound_kernel_work_per_distinct_atom(family24, rows24, monkeypatch):
    """From an empty cache a call weights each distinct (atom, counts)
    panel once per grid point: the 7 atoms of the 17 compact members hold
    60,352 panel nodes, each evaluated at the 25 grid points, all within
    d <= 4, one table call and one radius per (atom, grid point) and node.
    The weights are kept, so a second call reads the table nowhere."""
    harness._atom_weights.cache_clear()
    radii, points = count_table_points(monkeypatch)
    rows = check_cheeger_bobkov(family24)
    grid = harness._grad_grid()
    assert len(grid) == 25
    assert np.all(cc_distance_many(*grid.T) <= 4.0)
    assert sum(points) == 25 * 60_352 == 1_508_800
    assert len(radii) == 7 * 25 and radii == points
    assert rows == rows24
    del radii[:], points[:]
    assert check_cheeger_bobkov(family24) == rows24
    assert (radii, points) == ([], [])


def test_table_work_once_per_atom_in_the_process(monkeypatch):
    """On a new 24-member family, from an empty cache, the constants and
    check_cheeger_bobkov read the table at 25 x 60,352 points: the member
    contexts' panel density is row 0 of the grad-bound weights, not a
    26th pass.  A rebuilt family of the same seed has the same atoms, so
    its constants and rows read the table nowhere and repeat the rows."""
    harness._atom_weights.cache_clear()
    _, points = count_table_points(monkeypatch)
    family = build_family(24, DEFAULT_FAMILY_SEED)
    first = harness.constants_estimate(family), check_cheeger_bobkov(family)
    assert sum(points) == 25 * 60_352 == 1_508_800
    del points[:]
    family = build_family(24, DEFAULT_FAMILY_SEED)
    assert (harness.constants_estimate(family), check_cheeger_bobkov(family)) == first
    assert points == []


def test_phi_suite_alone_reads_the_origin_rows_only(monkeypatch):
    """The phi suite needs each compact member's panel density, the atom
    weights at grid point 0: on a new 24-member family, from an empty
    cache, it reads the table once per atom at its 60,352 panel nodes in
    all, and none of the other 24 grid points' rows."""
    harness._atom_weights.cache_clear()
    _, points = count_table_points(monkeypatch)
    check_phi_suite(build_family(24, DEFAULT_FAMILY_SEED))
    assert len(points) == 7 and sum(points) == 60_352


def test_member_mu_is_row_0_of_the_atom_weights(family24):
    """A compact member's mu is its atoms' weight rows at the origin, bit
    for bit, and these are leb * p_1 at the panel nodes themselves."""
    for f in family24.members:
        ctx = harness._member_ctx(family24, f)
        if not ctx.compact:
            continue
        row0 = np.concatenate([harness._atom_weights(*p, 0) for p in ctx.panels])
        nodes = [harness._atom_nodes(*p) for p in ctx.panels]
        leb = np.concatenate([n[3] for n in nodes])
        assert_same_bits(ctx.mu, row0, f.name)
        assert_same_bits(ctx.mu, leb * harness._pt_density(ctx.x, ctx.y, ctx.z), f.name)


def test_atom_weights_are_read_only(family24):
    atom = family24.atoms["bump-000"][0]
    for i in (0, 24):
        w = harness._atom_weights(atom, harness._PANEL_COUNTS["bump"], i)
        assert w.shape == (22 * 12 * 24,)
        with pytest.raises(ValueError):
            w[0] = 0.0


def test_grad_grid_is_read_only():
    grid = harness._grad_grid()
    assert grid.shape == (25, 3)
    with pytest.raises(ValueError):
        grid[0, 0] = 1.0


def compact_grid_grad(ctx):
    """(X, Y) P_1 f at every grad-bound grid point for a compact member,
    as check_cheeger_bobkov's rows take it: grad_sums over the panel with
    the atom weights, and planar part (x - w1, y - w2) of w^{-1} u."""
    grid = harness._grad_grid()
    weights = np.array([np.concatenate([harness._atom_weights(*p, i) for p in ctx.panels])
                        for i in range(len(grid))])
    return grad_sums(weights, (ctx.gx, ctx.gy, ctx.gz), ctx.x - grid[:, :1], ctx.y - grid[:, 1:2])


def assert_same_bits(got, want, what):
    got, want = (np.asarray(a, dtype=float) for a in (got, want))
    assert got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64)), what


@pytest.mark.parametrize("block", [1, 5, 7, 25])
def test_grid_grad_keeps_the_full_routes_bits(family24, rows24, monkeypatch, block):
    """Each member's grad-bound terms, bit for bit, in blocks of 1, 5, 7 or
    all 25 grid rows: a chart member's (X, Y) P_1 f at the grid points is
    grad_Pt_at over the chart, combos included, a compact member's the
    full-matrix route compact_grid_grad.  The rows read their lhs off
    these terms and their rhs, sup |f|, off the member's nodes."""
    grid = harness._grad_grid()
    chart = heat_measure(harness._CFG)
    rows = {r.function: r for r in rows24 if r.check == "grad-bound"}
    for f in family24.members:
        ctx = harness._member_ctx(family24, f)
        with monkeypatch.context() as m:
            m.setattr(semigroup, "_BLOCK_BYTES", block * (ctx.x if ctx.compact else chart.x).nbytes)
            xv, yv = harness._grid_grad(ctx)
        want = compact_grid_grad(ctx) if ctx.compact else grad_Pt_at(f, chart, *grid.T)
        assert_same_bits(xv, want[0], f.name)
        assert_same_bits(yv, want[1], f.name)
        assert rows[f.name].lhs == np.max(np.hypot(xv, yv)), f.name
        assert rows[f.name].rhs == np.max(np.abs(ctx.vals)), f.name


def test_chart_grid_grad_points(family24, monkeypatch):
    """The grid points each chart member hands grad_Pt_at: the first point
    of each orbit of its declared symmetries other than the origin, whose
    term is read off the context.  f* declares both the half-turn and the
    mirror (9 points), poly-001 and poly-002 a mirror parity (14 each),
    poly-000 and the 3 chart combos nothing (24 each).  Compact members
    make no call."""
    calls = {}

    def spy(f, measure, x, y, z):
        calls[f.name] = calls.get(f.name, 0) + np.size(x)
        return grad_Pt_at(f, measure, x, y, z)

    monkeypatch.setattr(harness, "grad_Pt_at", spy)
    for f in family24.members:
        harness._grid_grad(harness._member_ctx(family24, f))
    combos = {n for n in family24.combo_index if family24.atoms[n] is None}
    assert len(combos) == 3
    assert calls == {"xhat_log_h[spline]": 9, "poly-000": 24, "poly-001": 14, "poly-002": 14,
                     **{n: 24 for n in combos}}


def test_grad_bound_route_matches_centred_differences(family24, monkeypatch):
    """(X, Y) P_1 f(w) from the atom weights against centred differences
    of the panel sum P_1 f(w') = sum leb f p_1(w'^{-1} u) at w (+-h, 0, 0)
    and w (0, +-h, 0), for a combo whose atoms are those of two bumps.

    Both sides discretise one integral, so they differ by the panel's
    quadrature error: up to 6e-6 relative on the default panels.  On
    panels with twice the nodes in each direction the gap is below
    7.5e-7 at every grid point, and that is the O(h^2) error of the
    differences: it falls fourfold each time h is halved.
    """
    monkeypatch.setitem(harness._PANEL_COUNTS, "bump", (44, 24, 48))
    name = "combo-003"
    assert family24.combo_index[name][0] == ("bump-000", "bump-002")
    f = next(m for m in family24.members if m.name == name)
    ctx = harness._member_ctx(family24, f)
    xv, yv = compact_grid_grad(ctx)
    leb = np.concatenate([harness._atom_nodes(a, harness._PANEL_COUNTS["bump"])[3]
                          for a in family24.atoms[name]])

    def panel_P1f(w1, w2, w3):
        # w^{-1} u = (x - w1, y - w2, z - w3 - (w1 y - w2 x) / 2)
        zs = ctx.z - w3 - 0.5 * (w1 * ctx.y - w2 * ctx.x)
        return float(np.sum(leb * ctx.vals
                            * harness._pt_density(ctx.x - w1, ctx.y - w2, zs)))

    h = 1e-3
    grid = harness._grad_grid()
    for g in (6, 14):                   # (0, 1, 0) and (-1.4, 1.4, 0.8)
        w1, w2, w3 = grid[g]
        # w (s, 0, 0) = (w1 + s, w2, w3 - s w2 / 2); w (0, s, 0) = (w1, w2 + s, w3 + s w1 / 2)
        fx = (panel_P1f(w1 + h, w2, w3 - 0.5 * h * w2)
              - panel_P1f(w1 - h, w2, w3 + 0.5 * h * w2)) / (2.0 * h)
        fy = (panel_P1f(w1, w2 + h, w3 + 0.5 * h * w1)
              - panel_P1f(w1, w2 - h, w3 - 0.5 * h * w1)) / (2.0 * h)
        assert math.hypot(fx - xv[g], fy - yv[g]) <= 1e-6 * math.hypot(xv[g], yv[g]), g


def test_member_gradient_matches_the_row_routes(family12):
    """Each member's (a, b) = (X, Y) P_1 f(0), which the Driver-Melcher,
    reverse-Poincare and C_lower rows use, against the routes of the
    other rows at the origin.  A compact member's is grid point 0 of the
    grad-bound route.  A chart member's is grad_Pt_at at the origin over
    the mass of the chart measure: the member context weights the chart
    with mu / sum mu, unit mass, while _chart_span and the chart
    grad-bound rows weight it with the raw mu, of mass 1 - 1.25e-10."""
    assert not harness._grad_grid()[0].any()
    chart = heat_measure(harness._CFG)
    mass = float(np.sum(chart.mu))
    assert abs(1.0 - mass) <= 2e-10
    for f in family12.members:
        ctx = harness._member_ctx(family12, f)
        if ctx.compact:
            xv, yv = compact_grid_grad(ctx)
            want = (xv[0], yv[0])
        else:
            xv, yv = grad_Pt_at(f, chart, 0.0, 0.0, 0.0)
            want = (xv[0] / mass, yv[0] / mass)
        # relative to |grad|: a component that vanishes by symmetry is rounding
        gap = math.hypot(ctx.a - want[0], ctx.b - want[1])
        assert gap <= 1e-14 * math.hypot(*want), (f.name, (ctx.a, ctx.b), want)


def test_grad_bound_rows_ignore_member_order(family24, rows24):
    reverse = dataclasses.replace(family24, members=family24.members[::-1])

    def grad_rows(rows):
        return {r.function: r for r in rows if r.check == "grad-bound"}

    assert grad_rows(check_cheeger_bobkov(reverse)) == grad_rows(rows24)


@pytest.fixture
def built(monkeypatch):
    """(name, compact, from parts) of every member context built from here
    on: by evaluating the member's field, or a combo's from its parts'."""
    log = []
    build, combo = harness._build_member_ctx, harness._combo_ctx

    def spy(f, panels):
        log.append((f.name, bool(panels), False))
        return build(f, panels)

    def spy_combo(f, parts, coeffs):
        ctx = combo(f, parts, coeffs)
        log.append((f.name, ctx.compact, True))
        return ctx

    monkeypatch.setattr(harness, "_build_member_ctx", spy)
    monkeypatch.setattr(harness, "_combo_ctx", spy_combo)
    return log


def test_suite_flow_builds_each_context_once(built):
    """constants_estimate then run_inequality_suite, the documented flow:
    the C_lower search builds the 7 chart contexts of its chart span, the
    suite the 17 compact ones, and each of the 24 is built once.  The 11
    members that are no combo evaluate their fields; the 13 combos, 3 on
    the chart and 10 compact, are built from their parts' contexts."""
    family = build_family(24, DEFAULT_FAMILY_SEED)
    constants = harness.constants_estimate(family)
    assert len(built) == 7 and not any(compact for _, compact, _ in built)
    result = run_inequality_suite(family, constants=constants)
    assert result.update_passes == 0
    names = [name for name, _, _ in built]
    assert sorted(names) == sorted(f.name for f in family.members)
    assert sum(compact for _, compact, _ in built) == 17
    combos = [(name, compact) for name, compact, combo in built if combo]
    assert sorted(name for name, _ in combos) == sorted(family.combo_index)
    assert (len(combos), sum(compact for _, compact in combos)) == (13, 10)


@pytest.mark.parametrize("size", [12, 24])
def test_combo_contexts_keep_the_field_routes_bits(size):
    """Each combo's context, built from its parts', equals the one built by
    evaluating the combo field on the same panels, array for array and
    bit for bit: at size 12 the combos are on the chart, at size 24
    most are compact, on their parts' disjoint panels."""
    family = build_family(size, DEFAULT_FAMILY_SEED)
    kinds = set()
    for f in family.members:
        if f.name not in family.combo_index:
            continue
        ctx = harness._member_ctx(family, f)
        want = harness._build_member_ctx(f, ctx.panels)
        kinds.add(ctx.compact)
        for fld in dataclasses.fields(ctx):
            got, ref = getattr(ctx, fld.name), getattr(want, fld.name)
            if isinstance(got, np.ndarray):
                assert_same_bits(got, ref, (f.name, fld.name))
            elif isinstance(got, float):
                assert got.hex() == ref.hex(), (f.name, fld.name)
            else:
                assert got == ref, (f.name, fld.name)
    assert kinds == ({False} if size == 12 else {False, True})


@pytest.mark.parametrize("order, parity", [(o, p) for o in (None, 0, 1) for p in (None, 1, -1)])
def test_grid_orbits_map_the_grid_onto_itself(order, parity):
    """The half-turn (when an order is declared) and the mirror (when a
    parity is) permute the grad-bound grid; every point's source is the
    first point of its orbit under them, and its signs are those of the
    map that takes the source to it.  With both declared 10 of the 25
    points are evaluated, the origin and 9 others; with one, 15."""
    grid = harness._grad_grid()
    src, sign = harness._grid_orbits(order, parity)
    maps = {(1.0, 1.0, 1.0): (1.0, 1.0)}
    if order is not None:
        maps[(-1.0, -1.0, 1.0)] = (2.0 * order - 1.0,) * 2
    if parity is not None:
        maps.update({(f[0], -f[1], -f[2]): (s[0] * parity, -s[1] * parity)
                     for f, s in list(maps.items())})
    points = sorted(map(tuple, grid))
    for flip in maps:
        assert sorted(map(tuple, grid * flip)) == points, flip
    for i, w in enumerate(grid):
        assert src[src[i]] == src[i] <= i
        signs = [s for f, s in maps.items() if np.array_equal(grid[src[i]] * f, w)]
        assert tuple(sign[:, i]) in signs, i
    assert np.count_nonzero(src == np.arange(25)) == {1: 25, 2: 15, 4: 10}[len(maps)]
    with pytest.raises(ValueError):
        harness._grid_orbits(2, None)


def test_suite_flow_spline_bundle_points(monkeypatch):
    """The documented flow on a fresh 12-member family evaluates the
    spline bundle of f* = Xhat log h on 70,400 points: once on the 7,040
    chart nodes for its context, f* and its frame gradient from one
    bundle, and once on the 63,360 chart nodes translated by 9 grid points
    of its grad-bound row, one for each orbit of the half-turn and the
    mirror other than the origin's, where grad_Pt_at reads f*'s frame
    gradient alone.  The grad-bound row's origin term and the C_1 and C_2
    searches read f*'s frame gradient from the context; each evaluating it
    again on the chart nodes would add 7,040, and a separate value or
    gradient evaluation the point count of its set."""
    points = []
    bundle = kernel.LogHSplineTables.bundle

    def spy(self, r, z):
        points.append(np.broadcast(r, z).size)
        return bundle(self, r, z)

    monkeypatch.setattr(kernel.LogHSplineTables, "bundle", spy)
    family = build_family(12, DEFAULT_FAMILY_SEED)
    run_inequality_suite(family, constants=harness.constants_estimate(family))
    assert sum(points) == 7_040 + 9 * 7_040 == 70_400


def test_update_pass_builds_no_context(built, monkeypatch):
    """test_adaptive_c1_policy's start below the working constant: the
    first pass builds each member's context once, the update pass none."""
    per_call = []
    for name in ("check_phi_suite", "check_cheeger_bobkov"):
        def spy(*args, check=getattr(harness, name)):
            before = len(built)
            rows = check(*args)
            per_call.append(len(built) - before)
            return rows

        monkeypatch.setattr(harness, name, spy)
    family = build_family(12, DEFAULT_FAMILY_SEED)
    constants = ConstantEstimate(A=A_PINNED, C1_lower=C1_LOWER_PINNED,
                                 C2_lower=C2_LOWER_PINNED, C1_working=0.9)
    result = run_inequality_suite(family, constants=constants)
    assert result.update_passes == 1
    assert per_call == [12, 0, 0, 0]


def test_member_context_memo_key(family12, monkeypatch):
    """Patched panel counts build a fresh context on the refined nodes;
    the default counts find the first one again.  A field of the same
    name that is not the family's member gets its own context."""
    f = next(m for m in family12.members if family12.kinds[m.name] == "bump")
    coarse = harness._member_ctx(family12, f)
    assert coarse.x.size == 22 * 12 * 24
    monkeypatch.setitem(harness._PANEL_COUNTS, "bump", (44, 24, 48))
    fine = harness._member_ctx(family12, f)
    assert fine.x.size == 44 * 24 * 48
    assert harness._member_ctx(family12, f) is fine
    monkeypatch.undo()
    assert harness._member_ctx(family12, f) is coarse
    twin = build_family(12, DEFAULT_FAMILY_SEED).members[0]
    assert twin.name == f.name and twin is not f
    assert harness._member_ctx(family12, twin).f is twin
    assert harness._member_ctx(family12, f).f is f


def test_replaced_family_starts_with_an_empty_memo(family12):
    harness._member_ctx(family12, family12.members[0])
    assert family12._member_contexts
    same = dataclasses.replace(family12)
    assert same._member_contexts == {}
    assert same == family12


def test_member_contexts_are_freed_with_their_family():
    family = build_family(12, DEFAULT_FAMILY_SEED)
    refs = []
    for f in (family.members[0], family.members[-1]):     # a bump and f*
        ctx = harness._member_ctx(family, f)
        refs += [weakref.ref(ctx.mu), weakref.ref(ctx.gam)]
    assert all(r() is not None for r in refs)
    del ctx, family
    gc.collect()
    assert all(r() is None for r in refs)


def test_member_contexts_are_immutable(family12):
    for ctx in harness._contexts(family12):
        for fld in dataclasses.fields(ctx):
            value = getattr(ctx, fld.name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, (ctx.name, fld.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.a = 0.0
    # the chart members' nodes are the cached chart measure's own read-only arrays
    chart = heat_measure(harness._CFG)
    assert not chart.x.flags.writeable
    ctx = harness._member_ctx(family12, family12.members[-1])
    assert not ctx.compact and ctx.x is chart.x and ctx.y is chart.y and ctx.z is chart.z


def test_cheeger_bobkov_rows_pinned(family12):
    rows = check_cheeger_bobkov(family12, C1_working=C1_LOWER_PINNED)
    for check, pinned in CHEEGER_BOBKOV.items():
        got = {r.function: (r.lhs, r.rhs) for r in rows if r.check == check}
        assert list(got) == list(pinned), check
        for name, pair in pinned.items():
            assert got[name] == pytest.approx(pair, rel=1e-12), (check, name)
    assert all(r.passed for r in rows), [(r.check, r.function) for r in rows if not r.passed]


def test_phi_suite_rows_pinned(family12):
    rows = check_phi_suite(family12, C1_working=C1_LOWER_PINNED)
    for check, pinned in PHI_SUITE.items():
        got = {r.function: (r.lhs, r.rhs) for r in rows if r.check == check}
        assert list(got) == list(pinned), check
        for name, pair in pinned.items():
            assert got[name] == pytest.approx(pair, rel=1e-12), (check, name)
    assert all(r.passed for r in rows), [(r.check, r.function) for r in rows if not r.passed]


def test_phi_suite_lhs_against_the_referee(family12):
    """Every lsi, Beckner and Poincare lhs is within 5e-13 of the 50-digit
    sum of the same float terms; as differences of nearly equal means they
    erred by up to 2.8e-11.  The consistency row's |x - 1|, for a ratio x
    just below 1, is within 4 ulps of x: 6.1e-12 of it."""
    rows = check_phi_suite(family12, C1_working=C1_LOWER_PINNED)
    got = {(r.check, r.function): r.lhs for r in rows}
    assert set(got) == {(c, n) for c, refs in PHI_LHS_MP.items() for n in refs}
    for check, refs in PHI_LHS_MP.items():
        for name, ref in refs.items():
            bound = 4 * 2.0**-53 / ref if check == "beckner-p2-consistency" else 5e-13
            assert abs(got[check, name] / ref - 1.0) <= bound, (check, name)


def test_family_rows_ignore_blas_threads():
    """Built in fresh processes at one and two BLAS threads, the 12-member
    family's phi-suite, reverse-Poincare and Cheeger-Bobkov rows have the
    same bytes: each of their node sums is a row sum."""
    rows = ("harness.np.array([(r.lhs, r.rhs) for check in (harness.check_phi_suite, "
            "harness.check_reverse_poincare, harness.check_cheeger_bobkov) "
            "for r in check(harness.build_family(12))])")
    digests = digests_at_blas_threads(rows)
    assert digests[0] == digests[1]


def test_c2_vs_c1sq_row_pinned(family12):
    """The default suite estimates its own constants, passes every
    constant-bearing row at C1_working = C1_lower with no update, and
    closes with C2_lower against C1_working^2."""
    result = run_inequality_suite(family12)
    assert result.update_passes == 0
    assert result.constants.C1_working == pytest.approx(C1_LOWER_PINNED, rel=1e-12)
    row = next(r for r in result.reports if r.check == "c2-vs-c1sq")
    assert (row.lhs, row.rhs, row.constant) == pytest.approx(C2_VS_C1SQ, rel=1e-12)
    assert not result.unexpected, [(r.check, r.function) for r in result.unexpected]


def test_ray_limit_matches_its_oracle():
    """The library's 96-node rule for L(t) against the stored mpmath values."""
    for t, exact in RAY_LIMITS.items():
        assert harness._ray_limit(t) == pytest.approx(exact, rel=1e-12), t


def test_ray_survey_constant_pinned():
    survey, rep = check_ray_inequality()
    assert survey.n_rays == 320
    assert survey.constant == pytest.approx(RAY_CONSTANT, rel=1e-12)
    assert abs(survey.sup / RAY_SUP_MP - 1.0) <= 2e-14
    assert survey.argmax == (3.9, 1.0)
    assert (rep.lhs, rep.rhs, rep.constant) == (survey.sup, survey.constant, survey.constant)
    assert rep.passed, rep.note


def test_ray_ratio_dominated_by_its_limit():
    """Along each t the ray ratio is positive, nondecreasing in |u| and at
    most L(t), its |u| -> inf limit, and L(t) <= L(1), so L(1) bounds the
    ratio over t >= 1; the largest ratio here is 0.9885 L(t)."""
    top = harness._ray_limit(1.0)
    by_t = [harness._ray_ratios(float(u), (1.0, 1.5, 2.0, 3.0)) for u in np.geomspace(0.5, 3.9, 12)]
    for i, t in enumerate((1.0, 1.5, 2.0, 3.0)):
        limit = harness._ray_limit(t)
        ratios = [by_u[i] for by_u in by_t]
        assert all(r > 0 for r in ratios), (t, ratios)
        assert all(b >= a for a, b in zip(ratios, ratios[1:])), (t, ratios)
        assert max(ratios) <= limit <= top, (t, max(ratios), limit, top)


def test_ray_survey_converged_in_its_panel_nodes(monkeypatch):
    """The survey at 16 and 32 Gauss nodes a panel: every ratio agrees to
    2e-10 of the sup (1.0e-10 measured), at the same argmax."""
    ratios = {}

    def survey(m):
        def record(u_abs, ts):
            out = panels(u_abs, ts, m)
            ratios.setdefault(m, []).extend(out)
            return out

        monkeypatch.setattr(harness, "_ray_ratios", record)
        return check_ray_inequality()[0]

    panels = harness._ray_ratios
    coarse, fine = survey(16), survey(32)
    assert len(ratios[16]) == len(ratios[32]) == coarse.n_rays
    assert np.max(np.abs(np.subtract(ratios[16], ratios[32]))) <= 2e-10 * coarse.sup
    assert coarse.argmax == fine.argmax == (3.9, 1.0)


def test_ray_ratio_single_panel_against_its_oracle():
    """One t is one 16-node panel over [t, s_hi]: within 1e-9 of the mpmath
    ratio (-8.8e-10 measured), against 1.07e-14 for the survey's 16 panels,
    which bounds how much a ratio depends on the other t's of its call."""
    (single,) = harness._ray_ratios(3.9, [1.0])
    assert abs(single / RAY_SUP_MP - 1.0) <= 1e-9


def test_local_11_poincare_pinned(family12):
    sup, rows = check_local_11_poincare(family12)
    assert sup == pytest.approx(LOCAL_11_SUP, rel=1e-12)
    got = {r.function: (r.lhs, r.rhs) for r in rows}
    assert list(got) == list(LOCAL_11_POINCARE)
    for name, pair in LOCAL_11_POINCARE.items():
        assert got[name] == pytest.approx(pair, rel=1e-12), name
    assert all(r.passed for r in rows), [r.function for r in rows if not r.passed]


def test_local_11_poincare_bundles_each_ball_node_once(family12, monkeypatch):
    """f* = Xhat log h takes its value and frame gradient from one spline
    bundle on the 24,576 nodes of the unit ball, not one bundle for each."""
    points = []
    bundle = kernel.LogHSplineTables.bundle

    def spy(self, r, z):
        points.append(np.broadcast(r, z).size)
        return bundle(self, r, z)

    monkeypatch.setattr(kernel.LogHSplineTables, "bundle", spy)
    check_local_11_poincare(family12)
    assert points == [32 * 24 * 16 * 2] == [24_576]


@pytest.mark.parametrize("c1_start", [
    0.9,     # 14 first-pass violations, among them the f* Poincare row
    1.0,     # from here on only the f* tensorized Bobkov row fails
    1.005,
    1.009,
])
def test_adaptive_c1_policy(family12, monkeypatch, c1_start):
    """Below the working constant the suite raises C1_working to the
    largest constant the failing rows imply plus 1e-3, and one update
    makes every constant-bearing row pass: each row's implied constant
    is exact, the tensorized Bobkov row's included."""
    calls = []
    for name in ("check_phi_suite", "check_cheeger_bobkov"):
        def spy(*args, check=getattr(harness, name)):
            rows = check(*args)
            calls.append((args[1], tuple(rows)))
            return rows

        monkeypatch.setattr(harness, name, spy)
    constants = ConstantEstimate(A=A_PINNED, C1_lower=C1_LOWER_PINNED,
                                 C2_lower=C2_LOWER_PINNED, C1_working=c1_start)
    result = run_inequality_suite(family12, constants=constants)

    # one phi-suite call and one Cheeger/Bobkov call per pass
    passes = [(calls[k][0], calls[k][1] + calls[k + 1][1]) for k in range(0, len(calls), 2)]
    bad = [[r for r in rows if not r.passed and r.check in _C_POWER] for _, rows in passes]
    assert passes[0][0] == c1_start
    assert result.first_pass_violations == len(bad[0]) > 0
    assert result.update_passes == len(passes) - 1 >= 1
    for (c1_prev, _), bad_prev, (c1_next, _) in zip(passes, bad, passes[1:]):
        assert c1_next == max(_implied_c1(r, c1_prev) for r in bad_prev) + 1e-3
    assert result.update_passes == 1
    assert result.constants.C1_working == passes[-1][0]
    assert not bad[-1]
    # C1_working ends below sqrt(C2_lower), which the consistency row must flag
    assert result.constants.C1_working ** 2 < C2_LOWER_PINNED
    assert [r.check for r in result.unexpected] == ["c2-vs-c1sq"]
    assert [r.check for r in result.violations] == ["c2-vs-c1sq"]


def test_tensorized_c1_is_where_the_row_holds(family12):
    """At C1_working = 1.0 only f*'s tensorized Bobkov row fails, and its
    implied constant is the upper end of the root's 1e-12 bracket: the row
    holds there, rhs >= lhs with no slack, and fails 1e-11 below it."""
    def tensorized(c1):
        return [r for r in check_cheeger_bobkov(family12, c1) if r.check == "bobkov-tensorized"]

    bad = [r for r in tensorized(1.0) if not r.passed]
    assert [r.function for r in bad] == ["xhat_log_h[spline]"]
    implied = bad[0].implied_c1
    at, below = (next(r for r in tensorized(c) if r.function == bad[0].function)
                 for c in (implied, implied - 1e-11))
    assert at.lhs == below.lhs == bad[0].lhs
    assert at.rhs >= at.lhs > below.rhs


def test_kolmogorov_forward_row_is_an_expected_violation():
    rows = check_kolmogorov_counterexample()
    assert [r.check for r in rows if r.expected_violation] == ["kolmogorov-forward-poincare"]
    assert not next(r for r in rows if r.expected_violation).passed
    for r in rows:
        assert r.as_dict()["expected_violation"] is r.expected_violation


# (X + iY)P_1 f(0) of the two off-axis bumps on the converged (44, 24, 48)
# atom panel, where both sides agree to 7e-15 relative (and move by 1.7e-9
# relative to (66, 36, 72)): the oracle for the default-count sides
COMMUTATION_CONVERGED = {
    "bump-offaxis": complex(1.7203569967e-4, 1.5131998520e-5),
    "bump-offaxis-2": complex(-1.3906507543e-4, 9.7674838721e-5),
}
# each side at the default bump counts (22, 12, 24) sits this far from the
# converged value, relative (measured 6.078e-6 and 6.072e-6, both sides)
COMMUTATION_PANEL_ERR = 6.1e-6
# both sides at the default counts, pinned at 1e-9 relative
COMMUTATION_SIDES = {
    "bump-offaxis": (complex(0.00017203465406478234, 1.5131906463947545e-05),
                     complex(0.00017203465406474854, 1.5131906464111717e-05)),
    "bump-offaxis-2": (complex(-0.0001390642310731398, 9.767424551822106e-05),
                       complex(-0.00013906423107291874, 9.767424551845196e-05)),
}


def _sides(rep):
    """(lhs, rhs) of a commutation row, read at full precision from its note."""
    words = rep.note.split()
    assert words[0] == "lhs" and words[2] == "rhs", rep.note
    return complex(words[1]), complex(words[3])


@pytest.fixture(scope="module")
def commutation_rows():
    return {f.name: check_commutation(f) for f in commutation_default_bumps()}


def test_commutation_rows_pinned(commutation_rows):
    assert list(commutation_rows) == ["bump-axis", *COMMUTATION_CONVERGED]
    for name, converged in COMMUTATION_CONVERGED.items():
        rep = commutation_rows[name]
        lhs, rhs = _sides(rep)
        for side, pin in zip((lhs, rhs), COMMUTATION_SIDES[name]):
            assert abs(side - pin) <= 1e-9 * abs(pin), name
            assert abs(side - converged) <= COMMUTATION_PANEL_ERR * abs(converged), name
        assert rep.lhs == abs(lhs - rhs) and rep.rhs == 1e-8 * abs(rhs) and rep.constant == 1e-8
    # both sides vanish by symmetry, so both are rounding (about 4e-19)
    axis = commutation_rows["bump-axis"]
    lhs, rhs = _sides(axis)
    assert abs(lhs) <= 1e-17 and abs(rhs) <= 1e-17
    assert axis.passed, axis.note


def test_commutation_off_axis_rows_pass(commutation_rows):
    """The two sides agree to 1e-10 relative (measured 1.9e-12 at most)."""
    assert all(rep.passed for rep in commutation_rows.values())
    for name in COMMUTATION_CONVERGED:
        lhs, rhs = _sides(commutation_rows[name])
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs), name


def test_commutation_needs_a_known_atom():
    with pytest.raises(ValueError, match="no mollifier atom"):
        check_commutation(poly_field({(1, 0, 0): 1.0}, "x"))


def test_suite_result_unexpected_rows():
    holds = _report("a", "f", 1.0, 2.0, 1.0)
    fails = _report("a", "g", 2.0, 1.0, 1.0)
    dies = _report("b", "f", 1.0, 0.0, 1.0, expected_violation=True)
    survives = _report("b", "g", 0.0, 1.0, 1.0, expected_violation=True)
    assert (holds.passed, fails.passed, dies.passed, survives.passed) == (True, False, False, True)
    result = SuiteResult((holds, fails, dies, survives),
                         ConstantEstimate(A_PINNED, C1_LOWER_PINNED, C2_LOWER_PINNED), 0, 0)
    assert result.violations == (fails, dies)
    assert result.unexpected == (fails, survives)
    assert holds.as_dict()["expected_violation"] is False


def test_gamma2_search_reaches_target():
    """The ratio is exact: -2M = -1200 to the bit."""
    rep = demonstrate_gamma2_unbounded()
    assert rep.passed, rep.note
    assert rep.lhs <= -1e3
    assert rep.lhs == -1200.0
    assert (rep.check, rep.function) == ("gamma2-unbounded", "gamma2-witness")


@pytest.mark.parametrize("scale", [0.5, 1.1])
def test_gamma2_row_fails_on_wrong_gamma2(monkeypatch, scale):
    """The row's ratio comes from group.gamma2.  Halved, it misses the
    target; scaled by 1.1 it still reaches the target (-1320) but leaves
    the closed form -2M, and the equality check fails the row."""
    true_gamma2 = harness.gamma2
    monkeypatch.setattr(harness, "gamma2", lambda coeffs, p: scale * true_gamma2(coeffs, p))
    assert not demonstrate_gamma2_unbounded().passed


@pytest.mark.parametrize("M", [1.0, 10.0, 1e3])
def test_gamma2_witness_at_origin(M):
    """f = x + M yz at 0: Xf = 1, Yf = 0, and Gamma_2 = -2M, exactly by
    group.gamma2 and within 1e-6 by the oracles' centred differences."""
    coeffs = {(1, 0, 0): 1.0, (0, 1, 1): M}
    f = poly_field(coeffs)
    origin = GroupElement(0.0, 0.0, 0.0)
    assert gamma_fd(f, f, origin) == pytest.approx(1.0, rel=1e-9)
    assert gamma2_fd(f, origin) == pytest.approx(-2.0 * M, rel=1e-6)
    assert gamma2(coeffs, origin) == -2.0 * M


PHI_1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)     # standard normal density at 1
CDF_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))  # standard normal cdf at 1


def test_gauss_isop_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = _gauss_isop(np.array([0.0, 1.0]))
    assert ends.tolist() == [0.0, 0.0]
    assert float(_gauss_isop(0.5)) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
    assert float(_gauss_isop(CDF_1)) == pytest.approx(PHI_1, abs=1e-10)


# Phi^{-1}(u) and I(u) = phi(Phi^{-1}(u)) to 25 digits (oracles.ndtri_mp),
# on [0.1, 0.9], where the squash puts every Bobkov value
NDTRI_CENTRAL_MP = (
    (0.1, "-1.281551565544600435334517", "0.1754983319324868137433772"),
    (0.15, "-1.036433389493789603521549", "0.2331587752536822688115357"),
    (0.2, "-0.8416212335729141655224906", "0.2799619204078083234175299"),
    (0.25, "-0.674489750196081743202227", "0.3177765726841069339880964"),
    (0.3, "-0.5244005127080408159694544", "0.3476926142000737573073671"),
    (0.35, "-0.3853204664075676837581711", "0.370399004399165590927571"),
    (0.4, "-0.2533471031357997413246887", "0.3863425334968604605082511"),
    (0.45, "-0.1256613468550740061604284", "0.395804878487616739179114"),
    (0.55, "0.1256613468550741464092082", "0.3958048784876167322035079"),
    (0.6, "0.2533471031357997413246887", "0.3863425334968604605082511"),
    (0.65, "0.3853204664075676837581711", "0.370399004399165590927571"),
    (0.7, "0.5244005127080406563136292", "0.3476926142000737864174433"),
    (0.75, "0.674489750196081743202227", "0.3177765726841069339880964"),
    (0.8, "0.8416212335729143638035681", "0.2799619204078082766981664"),
    (0.85, "1.036433389493789484480026", "0.2331587752536822975783411"),
    (0.9, "1.281551565544600593487448", "0.1754983319324867781731758"),
)
# Phi^{-1}(u) in the lower tail, through both tail branches down to 1e-300
NDTRI_LOW_MP = (
    (0.075, "-1.439531470938455934949801"),
    (0.01, "-2.326347874040841093075096"),
    (0.001, "-3.090232306167813535358005"),
    (1e-05, "-4.264890793922824610233749"),
    (1e-08, "-5.612001244174788727930121"),
    (1e-11, "-6.706023155495136296102194"),
    (1e-12, "-7.034483825301131932614176"),
    (1e-20, "-9.262340089798407579572095"),
    (1e-50, "-14.93333753478848898065821"),
    (1e-100, "-21.27345356096532429417952"),
    (1e-200, "-30.20559417957964306312401"),
    (1e-300, "-37.04709629936119923654704"),
)
# Phi^{-1}(1 - 2^-k): the upper tail's floats reach only 1 - 2^-53
NDTRI_HIGH_MP = (
    (4, "1.534120544352546311708399"),
    (10, "3.09726907819878446236483"),
    (20, "4.763001034267813956988554"),
    (30, "6.009353565530743893180609"),
    (40, "7.047700256664408725350992"),
    (50, "7.956038125481530962217997"),
    (53, "8.209536151601386855630769"),
)


def _rel(got, want: str) -> float:
    return abs(float(got) - float(want)) / abs(float(want))


def test_ndtri_against_mpmath():
    """AS 241's Phi^{-1} against stored 50-digit values, at the measured
    bounds: 3.5e-16 relative on [0.1, 0.9] (scipy's ndtri measured 4.3e-16
    at the same points), I(u) there within 4.8e-16, and 3.4e-16 in both
    tails.  One point at a time and in one mixed batch give the same bits."""
    u, q, isop = (np.array([float(v) for v in col]) for col in zip(*NDTRI_CENTRAL_MP))
    assert max(_rel(_ndtri(a), b) for a, b in zip(u, q)) <= 3.5e-16
    assert max(_rel(_gauss_isop(a), b) for a, b in zip(u, isop)) <= 4.8e-16
    tails = [(u, q) for u, q in NDTRI_LOW_MP] + [(1.0 - 2.0**-k, q) for k, q in NDTRI_HIGH_MP]
    assert max(_rel(_ndtri(a), b) for a, b in tails) <= 3.4e-16
    every = np.array([0.0, 0.5, 1.0] + [a for a, _ in tails] + u.tolist())
    assert _ndtri(every).tolist() == [float(_ndtri(a)) for a in every]
    assert _ndtri(every)[:3].tolist() == [-math.inf, 0.0, math.inf]


def test_gauss_isop_ode():
    """I I'' = -1 by centered second differences on [0.02, 0.98]."""
    u = np.linspace(0.02, 0.98, 200)
    h = 1e-4
    second = (_gauss_isop(u + h) - 2.0 * _gauss_isop(u) + _gauss_isop(u - h)) / h**2
    assert np.max(np.abs(_gauss_isop(u) * second + 1.0)) < 1e-3


def test_gauss_isop_above_u_one_minus_u():
    u = np.linspace(0.0, 1.0, 101)
    assert np.all(_gauss_isop(u) >= u * (1.0 - u))
