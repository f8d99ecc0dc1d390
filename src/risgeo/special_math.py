"""Special functions used by every analytic rate expression.

The exponential integral Ei is evaluated on the negative axis, the only part
a rate expression reaches, as -E1(-x) from a committed table of polynomial
fits, one per interval of t = -x (piecewise fits are the standard way to
evaluate E1; Cody & Thacher, Math. Comp. 22, 1968, use rational Chebyshev
fits).  A scalar and an array run the same coefficients through the same
operations, with numpy's exp and log, so they give the same bits.  Against
mpmath's E1 the table is within 1.7 ulp on 6,300 points from -1e-300 to
past the underflow at -745.  The lower incomplete gamma function is a thin
wrapper over `scipy.special` that takes scalars or arrays.  Both reject
arguments outside their domain.  The upper incomplete gamma function covers
any real order, the s <= 0 orders included, through E1 and the recurrence.
All three are cross-checked against adaptive quadrature in the test suite.
`scipy.special` itself is imported on the first call of a function that
needs it, so Ei never imports it.  A stabilized power integral absorbs the
degenerate exponents (p -> -1) that appear in the distance-moment constants
for realistic pathloss combinations.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .errors import DomainError

#: |p + 1| below which power_integral switches to its log-limit branch.
_POWER_LIMIT_SWITCH = 1e-8

#: Upper ends of the E1 table's intervals in t = -x: row 0 covers (0, 1],
#: row i covers (_E1_EDGES[i-1], _E1_EDGES[i]], and the last row t > 32.
_E1_EDGES = (
    1.0, 1.34375, 1.8125, 2.4375, 3.28125, 4.375, 5.75, 7.625, 10.125, 13.5, 18.0, 24.0, 32.0,
)
_E1_LAST = _E1_EDGES[-1]

#: E1 rounds to 0 from t = 737.8 on, and e^-t from t = 745.13 on.  Past this
#: t a scalar call returns -0.0 at once; an array's -P e^-t / t is -0.0 too.
_E1_UNDERFLOW = 745.2

#: One row per interval: its midpoint mid, then the coefficients of the
#: powers v^13, ..., v^0 of v = t - mid (v = 1/t - mid in the last row).
#: Row 0 fits Ein(t) - gamma = E1(t) + ln t; the other rows fit
#: t e^t E1(t), in 1/t on the last row.  Each row interpolates its function
#: at the 14 Chebyshev points of its interval, (0, 1/32] for the last row,
#: computed with mpmath at 40 digits, and rounds the interpolant's
#: coefficients in powers of v to the nearest double.  So rounded, each row
#: is within 7.5e-17 of its function, relative to E1, at 300 points per
#: interval.  `tests/test_special_math.py` rebuilds the table this way.
_E1_ROWS = (
    (
        0.5, 7.797313433970101e-12, -1.1017899944577947e-10, 1.4411941811224149e-09,
        -1.7506866087027715e-08, 1.954412245723518e-07, -1.99030110282388e-06,
        1.832922702402649e-05, -0.00015109266476934016, 0.001101540031717387,
        -0.007006490225163391, 0.038367141245255164, -0.18040802086209973,
        0.7869386805747332, -0.1333735857837845,
    ),
    (
        1.171875, 0.0008292844976949504, -0.0011263997541165708, 0.0014618922109063462,
        -0.0020385233256613924, 0.0028916384026709528, -0.004174798853707003,
        0.006166390804247454, -0.009366144999989582, 0.014728901990424205,
        -0.024200534879365184, 0.04206055726698928, -0.07860860824785677,
        0.16138000118437335, 0.6266438855311367,
    ),
    (
        1.578125, 2.1913218501278057e-05, -3.987338895474826e-05, 6.91126361303233e-05,
        -0.00012883399663527086, 0.00024396446513014967, -0.00046923521959190724,
        0.0009209064578053827, -0.0018518780069004886, 0.0038362438210630856,
        -0.008244068076444858, 0.018548327100902446, -0.04421560422952253,
        0.11337688231354062, 0.6815216067495006,
    ),
    (
        2.125, 5.677011314585789e-07, -1.3821777152333258e-06, 3.203464959035421e-06,
        -7.970734720413456e-06, 2.011319036317603e-05, -5.144225490418981e-05,
        0.00013388154470449082, -0.00035571514076479483, 0.0009688070295551039,
        -0.0027188551773028825, 0.007914576407460822, -0.024099591054610552,
        0.07756746453400884, 0.732745875883126,
    ),
    (
        2.859375, 1.4530269389186357e-08, -4.724384605692114e-08, 1.458585120740226e-07,
        -4.833851935810021e-07, 1.621933828218469e-06, -5.50365163659448e-06,
        1.8950572429577744e-05, -6.637748571511055e-05, 0.00023721826720151783,
        -0.000868211742236759, 0.0032693876369800944, -0.012739801800603088,
        0.051733284796474, 0.7792193972378735,
    ),
    (
        3.828125, 3.840957277754511e-10, -1.6577040384834243e-09, 6.80452487086327e-09,
        -2.9850289642003066e-08, 1.3233355720901883e-07, -5.921023332788166e-07,
        2.681191424671441e-06, -1.2309680689600741e-05, 5.742214860701486e-05,
        -0.0002728685654418219, 0.0013250650937195216, -0.006600684532155931,
        0.03388510537819286, 0.8197470900247807,
    ),
    (
        5.0625, 1.1481597127684557e-11, -6.493087576043206e-11, 3.504611912207891e-10,
        -2.009119149379978e-09, 1.1618590252376563e-08, -6.769309742018196e-08,
        3.9821225564276957e-07, -2.3682178233356046e-06, 1.4259661171429367e-05,
        -8.708550993135875e-05, 0.0005405615375745306, -0.0034189512847454,
        0.022099267946193216, 0.8535055742643469,
    ),
    (
        6.6875, 3.405783828934352e-13, -2.5187753495740105e-12, 1.767387130705466e-11,
        -1.32174316267289e-10, 9.958082113686336e-10, -7.54365350045356e-09,
        5.7577001428730554e-08, -4.431641398139543e-07, 3.443163121200684e-06,
        -2.7035463269847744e-05, 0.00021482403763440784, -0.0017301863187555186,
        0.014150341942964467, 0.8822283462430667,
    ),
    (
        8.875, 9.18072894877547e-15, -8.914099297450028e-14, 8.187601077872235e-13,
        -8.020046172325654e-12, 7.90404022199909e-11, -7.819284526790637e-10,
        7.779347333730704e-09, -7.788170075376576e-08, 7.850836105470164e-07,
        -7.974483512339921e-06, 8.168817583529738e-05, -0.0008447003734956969,
        0.008826963122895163, 0.9066672706547538,
    ),
    (
        11.8125, 2.2997083403978807e-16, -2.9391160945843388e-15, 3.538511830817664e-14,
        -4.552766870283424e-13, 5.887495637734553e-12, -7.630877612468834e-11,
        9.93132353510882e-10, -1.2983631999348953e-08, 1.7057064262268393e-07,
        -2.252798159993046e-06, 2.992711235613653e-05, -0.00040010450302370865,
        0.005386671983066004, 0.926917468316095,
    ),
    (
        15.75, 5.407618046816727e-18, -9.11366208129734e-17, 1.443581053220615e-15,
        -2.444920336350045e-14, 4.1580941195280476e-13, -7.07951568408374e-12,
        1.2088439295499793e-10, -2.0706245665410474e-09, 3.5586722613773617e-08,
        -6.138180351635204e-07, 1.0628634350600235e-05, -0.00018481425852316479,
        0.0032282132862836792, 0.9433339915975503,
    ),
    (
        21.0, 1.2234239242795092e-19, -2.720338468366503e-18, 5.673050837425705e-17,
        -1.26583910289967e-15, 2.834296654018158e-14, -6.347356800002856e-13,
        1.4242823323865224e-11, -3.202757304401054e-10, 7.218107655223679e-09,
        -1.6306257740440416e-07, 3.693027695661774e-06, -8.386478271431302e-05,
        0.0019099563991137524, 0.9563685947446086,
    ),
    (
        28.0, 2.6673848875065152e-21, -7.831401717426671e-20, 2.1524348858274348e-18,
        -6.33467549859437e-17, 1.869844649344457e-15, -5.516534639768676e-14,
        1.629636946905842e-12, -4.820877670622578e-11, 1.4282109090530404e-09,
        -4.237613745360921e-08, 1.259352963064113e-06, -3.7489304432427116e-05,
        0.001117996868573463, 0.9665966866317262,
    ),
    (
        0.015625, -531776278.6283266, 56268028.725473456, -5870533.455093763,
        712095.7548337263, -93195.53502637814, 13235.515565038793, -2068.26378467354,
        361.0233016652719, -71.80359248946353, 16.723198436705335, -4.746811836533968,
        1.7498877108941673, -0.9415605097411011, 0.98484172127638,
    ),
)
_E1_MIDS = np.array([row[0] for row in _E1_ROWS])
#: Coefficient j of every row, highest power first: _E1_COEF[j, row].
_E1_COEF = np.array([row[1:] for row in _E1_ROWS]).T.copy()
_E1_EDGE_ARRAY = np.array(_E1_EDGES)

#: numpy's exp and log, bound to module names: the scalar path then skips
#: an attribute lookup per call
_exp = np.exp
_log = np.log

_EI_DOMAIN = "Ei(x) is defined here for x < 0 only; x = 0 is its logarithmic singularity, and NaN is rejected"


class _LazySpecial:
    """Stands in for `scipy.special` until a special function is first called.

    Importing `scipy.special` costs about a quarter of a second, and some
    subcommands (`rate-fixed`) never call a special function.  The first
    attribute read imports the module and rebinds the global `special` to it,
    so every later call reaches scipy directly.
    """

    def __getattr__(self, name):
        global special
        from scipy import special

        return getattr(special, name)


special = _LazySpecial()


def _least(x):
    """Smallest value of a scalar or an array, for domain checks.

    A float (np.float64 included) is its own smallest value, so checking one
    costs a single comparison; an array costs one reduction.  A NaN anywhere
    gives NaN, which fails every comparison, and an empty array gives inf.
    """
    if isinstance(x, float):
        return x
    return np.asarray(x, dtype=float).min(initial=np.inf)


def exp_integral_ei(x):
    """Exponential integral Ei(x) = PV integral of e^t / t from -inf to x, x < 0.

    Takes a scalar or an array and returns -E1(t) at t = -x from the table
    above: ln t - P(t) on t <= 1, where P fits Ein(t) - gamma, and
    -P e^-t / t beyond, where P fits t e^t E1(t); 0 past the underflow of
    e^-t, and at x = -inf.  A float, np.float64 or 0-d array gives a float;
    an array gives an array of its shape.  Raises DomainError for x >= 0
    (x = 0 is the logarithmic singularity, and no rate expression reaches
    x > 0) and NaN.
    """
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return _ei_array(x)
    t = -float(x)
    if not t > 0.0:
        raise DomainError(_EI_DOMAIN)
    if t > _E1_LAST:
        if t > _E1_UNDERFLOW:
            return -0.0
        row, u = -1, 1.0 / t
    else:
        row, u = bisect_left(_E1_EDGES, t), t
    mid, c13, c12, c11, c10, c9, c8, c7, c6, c5, c4, c3, c2, c1, c0 = _E1_ROWS[row]
    v = u - mid
    # Horner, unrolled: the operations of _ei_array's loop, in its order
    p = c13 * v + c12
    p = (((((p * v + c11) * v + c10) * v + c9) * v + c8) * v + c7) * v + c6
    p = (((((p * v + c5) * v + c4) * v + c3) * v + c2) * v + c1) * v + c0
    if t <= 1.0:
        return float(_log(t)) - p
    return -p * float(_exp(-t)) / t


def _ei_array(x):
    """The array path of exp_integral_ei: the scalar path's steps, elementwise."""
    t = np.negative(x)
    if not _least(t) > 0.0:
        raise DomainError(_EI_DOMAIN)
    row = np.searchsorted(_E1_EDGE_ARRAY, t)
    # t on the rows past t = 1, and 1 on row 0, whose 1/t and e^-t / t are
    # computed below but not used and would overflow for subnormal t
    far = np.maximum(t, 1.0)
    v = np.where(t > _E1_LAST, 1.0 / far, t)
    v -= _E1_MIDS[row]
    coef = _E1_COEF.take(row, axis=1)
    p = coef[0] * v
    for c in coef[1:-1]:
        p += c
        p *= v
    p += coef[-1]
    out = np.negative(p)
    out *= np.exp(-far)
    out /= far
    np.subtract(np.log(t), p, out=out, where=t <= 1.0)
    return out


def lower_incomplete_gamma(a: float, x):
    """Lower incomplete gamma gamma(a, x) = integral of e^-t t^(a-1), 0..x.

    The regularized `scipy.special.gammainc` times Gamma(a); x may be an array.
    """
    if not a > 0.0:
        raise DomainError("lower_incomplete_gamma requires a > 0")
    if not _least(x) >= 0.0:
        raise DomainError("lower_incomplete_gamma requires x >= 0")
    return special.gammainc(a, x) * special.gamma(a)


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for x > 0 and any real s.

    s <= 0 arises for r^-a3 with access exponents 2 <= a3 <= 4: E1 at s = 0,
    and the recurrence Gamma(s, x) = (Gamma(s+1, x) - x^s e^-x) / s below it
    (one step for s in [-1, 0)).
    """
    if s > 0.0:
        return special.gammaincc(s, x) * special.gamma(s)
    if s == 0.0:
        return special.exp1(x)
    return (upper_incomplete_gamma(s + 1.0, x) - x**s * np.exp(-x)) / s


def power_integral(p: float, a: float, b: float) -> float:
    """Integral of x^p over [a, b], continuous across the p = -1 degeneracy.

    For |p + 1| below the switch threshold the stable limit form
    a^(p+1) * expm1((p+1) ln(b/a)) / (p+1) is used, which tends to ln(b/a).
    """
    if math.isnan(p):
        raise DomainError("power_integral requires a real exponent p")
    if not a > 0.0:
        raise DomainError("power_integral requires 0 < a")
    if not b >= a:
        raise DomainError("power_integral requires a <= b")
    q = p + 1.0
    if q == 0.0:
        return math.log(b / a)
    if abs(q) < _POWER_LIMIT_SWITCH:
        return math.exp(q * math.log(a)) * math.expm1(q * math.log(b / a)) / q
    return (b**q - a**q) / q
