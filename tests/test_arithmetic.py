"""Backend scalar behavior: exact field laws, tolerances, wire formats."""

import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaskey import GaussianRational, Verdict, binom2, pow_int
from qaskey.arithmetic import (
    ABS_TOL,
    POLE_EPS,
    UnitModulusQ,
    ZeroQ,
    ZeroToNegativePower,
    as_scalar,
    check_base,
    format_scalar,
    is_exact,
    one_like,
    parse_scalar,
    spread,
)
from qaskey.identity_catalog import judge
from qaskey.qpochhammer import omega_contains, poch

from util import rand_scalar

G = GaussianRational


def test_pow_int_examples():
    assert pow_int(G(7, 3), 0) == G(1)
    assert pow_int(G(2), -2) == G(Fraction(1, 4))
    assert pow_int(G(Fraction(1, 3)), binom2(5)) == G(Fraction(1, 3 ** 10))
    assert pow_int(0.5 + 0j, 2) == 0.25 + 0j
    with pytest.raises(ZeroToNegativePower):
        pow_int(G(0), -1)


def test_binom2():
    assert binom2(0) == 0
    assert binom2(1) == 0
    assert binom2(5) == 10
    with pytest.raises(ValueError):
        binom2(-1)


def test_ring_identities_exact():
    rng = random.Random(101)
    for _ in range(1000):
        a, b, c = (rand_scalar(rng, gaussian=0.8) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == G(0)
        if b != G(0):
            assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50),
       st.fractions(min_value=-5, max_value=5, max_denominator=9),
       st.fractions(min_value=-5, max_value=5, max_denominator=9))
def test_pow_int_addition_law(j, k, re, im):
    x = G(re, im)
    if x == G(0):
        return
    assert pow_int(x, j + k) == pow_int(x, j) * pow_int(x, k)


def test_float_backend_tracks_exact_backend():
    # the same Pochhammer product evaluated in both backends agrees to
    # 1e-12 on well-conditioned expression trees of depth <= 30
    rng = random.Random(77)
    checked = 0
    while checked < 200:
        a = rand_scalar(rng, gaussian=0.5)
        q = rand_scalar(rng, gaussian=0.2)
        if q == G(0) or q.abs2() == 1:
            continue
        n = rng.randint(1, 30)
        exact = poch(a, q, n)
        af, qf = complex(a), complex(q)
        # condition proxy: skip near-vanishing factors and huge magnitudes
        factors = [abs(1 - af * qf ** k) for k in range(n)]
        if min(factors) < 1e-3 or max(factors) > 40 or abs(exact) > 1e6:
            continue
        approx = poch(af, qf, n)
        ref = complex(exact)
        assert abs(approx - ref) <= 1e-12 * max(abs(approx), abs(ref)) + ABS_TOL
        checked += 1


def test_division_by_zero_is_reported():
    for zero in (G(0), 0, Fraction(0), G(Fraction(0), 0)):
        with pytest.raises(ZeroDivisionError):
            G(1) / zero
        with pytest.raises(ZeroDivisionError):
            G(Fraction(2, 3), -1) / zero
        with pytest.raises(ZeroDivisionError):
            zero / G(0)


def test_exact_backend_rejects_floats():
    for inexact in (0.5, 1.0, 2 + 0j, 1j):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(G(1, 1), inexact)
            with pytest.raises(TypeError):
                op(inexact, G(1, 1))
        assert G(1) != inexact


class _SubFraction(Fraction):
    """A Fraction subclass: dispatch must still see an exact scalar."""


# (value, is_exact, not value) for every scalar type the helpers meet
DISPATCH_CASES = [
    (3, True, False), (0, True, True),
    (True, True, False), (False, True, True),
    (Fraction(-2, 3), True, False), (Fraction(0), True, True),
    (_SubFraction(1, 3), True, False), (_SubFraction(0), True, True),
    (G(1, -2), True, False), (G(0), True, True),
    (0.5, False, False), (0.0, False, True), (-0.0, False, True),
    (1 - 2j, False, False), (0j, False, True), (complex(-0.0, -0.0), False, True),
    (complex(math.nan, 0.0), False, False),
]


@pytest.mark.parametrize("x, exact, zero", DISPATCH_CASES)
def test_dispatch_helpers_agree_on_every_scalar_type(x, exact, zero):
    assert is_exact(x) is exact
    assert (not x) is zero
    one = one_like(x)
    assert type(one) is (G if exact else complex)
    assert one == 1


def test_exact_backend_still_rejects_floats_after_dispatch():
    one = one_like(G(2, 1))
    for inexact in (0.5, 2 + 0j):
        with pytest.raises(TypeError):
            one - inexact
        with pytest.raises(TypeError):
            as_scalar(inexact, True)
        assert as_scalar(G(Fraction(1, 2)), False) == 0.5 + 0j
        with pytest.raises(TypeError):
            poch(inexact, G(Fraction(1, 2)), 2)
        with pytest.raises(TypeError):
            omega_contains(inexact, G(Fraction(1, 3)), 2)


def _ref_poch(a, q, n):
    """``(out, normal, exact)``: the plain float loop's product; whether
    every real product that its complex products form is exact zero or
    normal, so that no bit is lost to underflow; and the exact product of
    the same float factors as a pair of Fractions."""
    out = 1 + 0j
    normal = True
    re, im = Fraction(1), Fraction(0)
    x = a
    for _ in range(n):
        f = (1 + 0j) - x
        normal = normal and all(
            not u or not v or abs(u * v) >= sys.float_info.min
            for u in (out.real, out.imag) for v in (f.real, f.imag))
        out = out * f
        fr, fi = Fraction(f.real), Fraction(f.imag)
        re, im = re * fr - im * fi, re * fi + im * fr
        x = x * q
    return out, normal, (re, im)


def _ref_omega(a, q, n):
    t = a
    for _ in range(n):
        d = t - (1 + 0j)
        if d == 0 or abs(d) < POLE_EPS:
            return True
        t = t * q
    return False


COMPLEX = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(COMPLEX, COMPLEX, st.integers(0, 12))
@example(1 + 0j, 0.5 + 0j, 3)              # the first factor vanishes
@example(4 + 0j, 0.5 + 0j, 4)              # a = q^{-2}: a pole at k = 2
@example(1 + 1e-10j, 0.3 + 0.1j, 2)        # within pole_eps of a pole
@example(1 + 7.962057606690521e-284j, 2 + 1.1754943508222875e-38j, 3)  # loop goes subnormal
@example(1 + 6.879974596221913e-168j, 2 + 0j, 9)                       # loop underflows to 0
def test_float_poch_and_omega_match_a_plain_loop(a, q, n):
    """Bit for bit while no real product of the loop underflows; else,
    where the loop loses bits and ``poch`` keeps a binary exponent, within
    2 n eps of the exact product of the same float factors, plus the
    smallest subnormal per part for the final rounding."""
    value = poch(a, q, n)
    loop, normal, (re, im) = _ref_poch(a, q, n)
    if normal:
        assert value == loop
    else:
        bound = 2 * n * sys.float_info.epsilon * abs(complex(float(re), float(im))) + 2.0 ** -1074
        assert abs(Fraction(value.real) - re) <= bound
        assert abs(Fraction(value.imag) - im) <= bound
    assert omega_contains(a, q, n) is _ref_omega(a, q, n)


def test_constructor_accepts_what_fraction_accepts():
    assert G() == 0
    assert G(re=Fraction(1, 2), im=3) == G(Fraction(1, 2), 3)
    assert G("3/4", "-1/6") == G(Fraction(3, 4), Fraction(-1, 6))
    assert G(0.5) == Fraction(1, 2)
    assert G(True, False) == 1
    with pytest.raises(TypeError):
        G(G(1))
    with pytest.raises(ValueError):
        G("one")


def test_check_base_guards():
    with pytest.raises(ZeroQ):
        check_base(G(0))
    with pytest.raises(UnitModulusQ):
        check_base(G(1))
    with pytest.raises(UnitModulusQ):
        check_base(G(Fraction(3, 5), Fraction(4, 5)))  # exactly on the unit circle
    with pytest.raises(UnitModulusQ):
        check_base(complex(1.0 + 1e-9, 0.0))
    # an int or Fraction becomes a GaussianRational, anything else a complex
    for q, want in ((Fraction(1, 2), G(Fraction(1, 2))), (3, G(3)), (0.5, 0.5 + 0j),
                    (G(2), G(2)), (2 + 1j, 2 + 1j)):
        got = check_base(q)
        assert got == want and type(got) is type(want), q


def test_wire_format_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        v = rand_scalar(rng, gaussian=0.5)
        assert parse_scalar(format_scalar(v), exact=True) == v
    for text, expected in [
        ("3/4", G(Fraction(3, 4))),
        ("-3/4+1/2 i", G(Fraction(-3, 4), Fraction(1, 2))),
        ("2/7 i", G(0, Fraction(2, 7))),
        ("5", G(5)),
    ]:
        assert parse_scalar(text, exact=True) == expected
    assert parse_scalar("1.5e-3-2 i", exact=False) == complex(0.0015, -2.0)
    v = complex(-0.1234567890123456, 9.87e-5)
    assert parse_scalar(format_scalar(v), exact=False) == v
    with pytest.raises(ValueError):
        parse_scalar("not a number", exact=True)


def test_wire_format_round_trips_long_ints_as_str_and_int_do():
    # the divide-and-conquer digit conversions against str() and int()
    # (called with the interpreter's digit limit lifted) on ints of 10^3
    # to 2*10^5 digits, of both signs, alone, as p/q and in Gaussian values
    rng = random.Random(18)

    def big(digits):
        return rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)

    cases = [G(big(1000)), G(Fraction(big(1000), big(999))),
             G(big(1000), Fraction(big(800), big(30))), G(Fraction(big(30), big(4301)), big(4301)),
             G(Fraction(big(30_000), big(12_000))), G(big(30_000), big(29_999)),
             G(Fraction(big(200_000), big(1000)), big(1000))]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for v in cases:
            texts = [str(f.numerator) if f.denominator == 1
                     else f"{f.numerator}/{f.denominator}" for f in (v.re, abs(v.im))]
            expected = texts[0] if not v.im else f"{texts[0]}{'+' if v.im > 0 else '-'}{texts[1]} i"
            assert format_scalar(v) == expected
            back = parse_scalar(expected, exact=True)
            assert [back.re, abs(back.im)] == [Fraction(*map(int, t.split("/"))) for t in texts]
            assert back == v
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# differential check against the Fraction-pair form (the oracle)
# ---------------------------------------------------------------------------
# An operand is drawn either as a Fraction pair (re, im), which stands for
# GaussianRational(re, im), or as a plain int or Fraction.  The ref_*
# functions are the arithmetic of the pair form that GaussianRational
# replaced; they never read a GaussianRational.

def scalar(v):
    return G(*v) if isinstance(v, tuple) else v


def ref(v):
    return v if isinstance(v, tuple) else (Fraction(v), Fraction(0))


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    d = y[0] * y[0] + y[1] * y[1]
    if d == 0:
        raise ZeroDivisionError
    return (x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d


def assert_canonical(z, pair):
    """``z`` stores the canonical triple of the value ``pair``."""
    assert type(z) is G
    a, b, d = z._a, z._b, z._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == pair
    assert (z.re, z.im) == pair
    assert type(z.re) is Fraction and type(z.im) is Fraction


SMALL = st.fractions(min_value=-40, max_value=40, max_denominator=40)
BIG = st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200))
PARTS = st.one_of(st.just(Fraction(0)), SMALL, BIG)
PAIRS = st.tuples(PARTS, PARTS)
OPERANDS = st.one_of(PAIRS, st.integers(-50, 50), st.integers(-2 ** 100, 2 ** 100),
                     SMALL, BIG)

BINARY = [(operator.add, ref_add), (operator.sub, ref_sub),
          (operator.mul, ref_mul), (operator.truediv, ref_div)]


@settings(max_examples=400, deadline=None)
@given(PAIRS, OPERANDS)
def test_binary_ops_match_fraction_pair_reference(xv, yv):
    x, y = scalar(xv), scalar(yv)
    for op, ref_op in BINARY:
        # forward (GaussianRational on the left) and reflected forms
        for (left, lv), (right, rv) in (((x, xv), (y, yv)), ((y, yv), (x, xv))):
            try:
                expected = ref_op(ref(lv), ref(rv))
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            assert_canonical(op(left, right), expected)


@settings(max_examples=300, deadline=None)
@given(PAIRS)
def test_unary_ops_match_fraction_pair_reference(xv):
    x = scalar(xv)
    re, im = xv
    assert_canonical(x, xv)
    assert_canonical(-x, (-re, -im))
    assert_canonical(x.conjugate(), (re, -im))
    assert +x is x
    a2 = x.abs2()
    assert type(a2) is Fraction and a2 == re * re + im * im
    try:
        expected_abs = math.sqrt(a2.numerator / a2.denominator)
    except OverflowError:
        expected_abs = math.inf
    assert abs(x) == expected_abs
    assert complex(x) == complex(float(re), float(im))
    assert bool(x) == (re != 0 or im != 0)
    assert repr(x) == f"GaussianRational({re!r}, {im!r})"


@settings(max_examples=300, deadline=None)
@given(PAIRS, PAIRS)
def test_equality_and_hash_agree_with_values(xv, yv):
    x, y = scalar(xv), scalar(yv)
    re, im = xv
    # the same value built another way: (re*k + im*k*i) / k
    twin = G(re * 7, im * 7) / 7
    assert x == twin and hash(x) == hash(twin)
    assert (x == y) == (xv == yv)
    assert (x != y) == (xv != yv)
    if im == 0:
        # real values compare and hash like the rationals they equal
        assert x == re and re == x and hash(x) == hash(re)
        if re.denominator == 1:
            assert x == re.numerator and hash(x) == hash(re.numerator)
    else:
        assert x != re


@settings(max_examples=300, deadline=None)
@given(PAIRS)
def test_wire_format_round_trip_property(xv):
    re, im = xv
    expected = str(re) if im == 0 else f"{re}{'+' if im >= 0 else '-'}{abs(im)} i"
    assert format_scalar(scalar(xv)) == expected
    assert_canonical(parse_scalar(expected, exact=True), xv)


# Knuth's addition: denominators d1 = g*s and d2 = g*u share a factor g made
# of 2 (ramified in Z[i]), 5 and 13 (split) and 3 (inert).  The second
# operand is free, the negation of the first (zero sum) or the negation plus
# a value whose denominator divides g (heavy cancellation, gcd(a, b, g) > 1).
SHARED = st.builds(lambda i, j, k, m: 2 ** i * 3 ** j * 5 ** k * 13 ** m,
                   *(st.integers(0, 5),) * 4)
COFACTOR = st.one_of(st.integers(1, 60), st.integers(1, 2 ** 120))
NUMERATOR = st.one_of(st.integers(-60, 60), st.integers(-2 ** 160, 2 ** 160))


@st.composite
def shared_denominator_pairs(draw):
    g, s, u = draw(SHARED), draw(COFACTOR), draw(COFACTOR)

    def value(d):
        return Fraction(draw(NUMERATOR), d), Fraction(draw(NUMERATOR), d)

    xv = value(g * s)
    kind = draw(st.sampled_from(["free", "negated", "near-negated"]))
    if kind == "free":
        yv = value(g * u)
    elif kind == "negated":
        yv = (-xv[0], -xv[1])
    else:
        small = value(g)
        yv = (small[0] - xv[0], small[1] - xv[1])
    if draw(st.booleans()):
        # a real second operand, passed as a Fraction, for the reflected forms
        yv = (yv[0], Fraction(0))
    return xv, yv


@settings(max_examples=500, deadline=None)
@given(shared_denominator_pairs())
def test_knuth_addition_matches_fraction_pair_reference(pairs):
    xv, yv = pairs
    x = G(*xv)
    y = yv[0] if yv[1] == 0 else G(*yv)
    for (left, lv), (right, rv) in (((x, xv), (y, yv)), ((y, yv), (x, xv))):
        assert_canonical(left + right, ref_add(lv, rv))
        assert_canonical(left - right, ref_sub(lv, rv))


@pytest.mark.parametrize("x, y, total", [
    # gcd(a, b, g) = g: the shared factor cancels completely
    (G(Fraction(3, 10), Fraction(1, 10)), G(Fraction(7, 10), Fraction(9, 10)), (1, 1, 1)),
    (G(Fraction(1, 9), Fraction(1, 9)), G(Fraction(2, 9), Fraction(2, 9)), (1, 1, 3)),
    (G(Fraction(1, 6)), G(Fraction(1, 3)), (1, 0, 2)),
    # 1 < gcd(a, b, g) < g, with cofactors s = 7 and u = 11
    (G(Fraction(1, 8 * 7)), G(Fraction(1, 8 * 11), Fraction(2, 8 * 11)), (9, 7, 4 * 7 * 11)),
    # zero sum
    (G(Fraction(5, 26), Fraction(-7, 52)), G(Fraction(-5, 26), Fraction(7, 52)), (0, 0, 1)),
])
def test_knuth_addition_examples(x, y, total):
    for s in (x + y, y + x, x - (-y), -((-x) - y)):
        assert (s._a, s._b, s._d) == total


# ---------------------------------------------------------------------------
# pow_int against the Fraction-pair reference
# ---------------------------------------------------------------------------
# pow_int squares plain ints and reduces once; the reference multiplies
# Fraction pairs k times, so the two share no arithmetic.

def ref_pow(xv, k):
    x = ref(xv)
    if k < 0:
        x = ref_div((Fraction(1), Fraction(0)), x)
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = ref_mul(out, x)
    return out


@settings(max_examples=300, deadline=None)
@given(OPERANDS, st.integers(-12, 12))
@example((Fraction(0), Fraction(0)), 3)              # zero to a positive power
@example((Fraction(0), Fraction(0)), 0)
@example((Fraction(2, 3), Fraction(-1, 5)), 0)       # k = 0 of a non-real base
@example((Fraction(2, 3), Fraction(-1, 5)), -7)      # |x| < 1, non-real
@example((Fraction(9, 2), Fraction(7, 3)), -5)       # |x| > 1, non-real
@example((Fraction(1, 2), Fraction(1, 2)), 4)        # (1 + i)^4 / 16 = -1/4
@example(-3, -3)
@example(Fraction(-5, 7), 5)
def test_pow_int_matches_fraction_pair_reference(xv, k):
    x = scalar(xv)
    try:
        expected = ref_pow(xv, k)
    except ZeroDivisionError:
        with pytest.raises(ZeroToNegativePower):
            pow_int(x, k)
        return
    assert_canonical(pow_int(x, k), expected)


def test_spread_reports_a_nan_difference_as_nan():
    nan = complex(math.nan, math.nan)
    assert spread([1 + 0j, 1 + 0j], False) == (True, 0.0)
    assert spread([1 + 0j, 1.5 + 0j], False) == (False, 0.5)
    for values in ([nan, 1 + 0j], [1 + 0j, 2 + 0j, nan], [nan, nan]):
        agree, dev = spread(values, False)
        assert agree is False and math.isnan(dev)
    # the verdict on such a family stays INCONCLUSIVE with deviation 0.0
    assert judge([1 + 0j, nan], lambda: 1.0, False).verdict is Verdict.INCONCLUSIVE
