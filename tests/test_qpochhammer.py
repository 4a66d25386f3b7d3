"""Finite q-products and the catalogued identity suite."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaskey import GaussianRational, QBase, poch, poch_list
from qaskey.qpochhammer import (
    DenominatorPole,
    PoleInIdentity,
    ZeroBase,
    identity_suite,
    omega_contains,
    poch_qinv,
    poch_quotient,
)
from qaskey.arithmetic import ZeroToNegativePower, binom2, parts, pow_int
from qaskey.qseries import SeriesSpec, VwpSpec

from util import lifted, rand_qbase, rand_scalar, row_values

G = GaussianRational
half = QBase(G(Fraction(1, 2)))


def test_poch_examples():
    a = G(5, 2)
    assert poch(a, half, 0) == G(1)
    assert poch(a, half, 1) == G(1) - a
    # one factor hits zero exactly
    assert poch(G(2), half, 3) == G(0)
    assert poch(G(2), half, 3) == (1 - G(2)) * (1 - G(1)) * (1 - G(Fraction(1, 2)))


def test_poch_list_examples():
    a, b = G(3, 1), G(-2, 5)
    assert poch_list([], half, 5) == G(1)
    assert poch_list([a], half, 4) == poch(a, half, 4)
    assert poch_list([a, b], half, 2) == poch(a, half, 2) * poch(b, half, 2)


def test_poch_qinv():
    q2 = QBase(G(2))
    assert poch_qinv(G(7), q2, 0) == G(1)
    # single factor: matches the direct product on the inverted base
    assert poch_qinv(G(2), q2, 1) == G(-1)
    assert poch_qinv(G(2), q2, 1) == poch(G(2), QBase(G(Fraction(1, 2))), 1)
    rng = random.Random(9)
    for _ in range(100):
        a = rand_scalar(rng, gaussian=0.5)
        if a == G(0):
            continue
        q = rand_qbase(rng)
        assert poch_qinv(a, q, 4) == poch(a, q.inverse(), 4)
    with pytest.raises(ZeroBase):
        poch_qinv(G(0), q2, 2)


def test_omega_membership_matches_product_zero():
    rng = random.Random(21)
    for _ in range(100):
        q = rand_qbase(rng)
        n = rng.randint(1, 8)
        k = rng.randint(0, n - 1)
        inside = pow_int(q.q, -k)
        assert omega_contains(inside, q, n)
        assert poch(inside, q, n) == G(0)
        a = rand_scalar(rng)
        if not omega_contains(a, q, n):
            assert poch(a, q, n) != G(0)
    # float margin
    qf = QBase(0.5 + 0j)
    assert omega_contains(complex(4.0 + 1e-12, 0), qf, 3)
    assert not omega_contains(complex(4.1, 0), qf, 3)


def test_identity_suite_names_and_zero_diffs():
    suite = identity_suite()
    names = [name for name, _ in suite]
    assert len(names) == 8
    assert len(set(names)) == 8
    rng = random.Random(33)
    for name, checker in suite:
        checked = 0
        while checked < 60:
            a = rand_scalar(rng, gaussian=0.4)
            q = rand_qbase(rng, big=rng.random() < 0.3)
            n, k = rng.randint(0, 8), rng.randint(0, 8)
            try:
                diff = checker(a, q, n, k)
            except (ZeroBase, PoleInIdentity, ZeroDivisionError):
                continue
            assert diff == G(0), (name, a, q.q, n, k)
            checked += 1


def test_index_addition_example():
    rng = random.Random(4)
    suite = dict(identity_suite())
    for _ in range(20):
        a = rand_scalar(rng)
        q = rand_qbase(rng)
        assert suite["index-addition-low"](a, q, 2, 3) == G(0)
        assert suite["index-addition-high"](a, q, 2, 3) == G(0)


def test_reversal_trivial_degree():
    suite = dict(identity_suite())
    assert suite["reversal"](G(3), half, 0, 0) == G(0)


def test_square_base_hand_example():
    # (9;1/4)_2 against (3;1/2)_2 (-3;1/2)_2
    suite = dict(identity_suite())
    assert suite["square-base"](G(3), half, 2, 0) == G(0)
    lhs = poch(G(9), QBase(G(Fraction(1, 4))), 2)
    assert lhs == (1 - G(9)) * (1 - G(Fraction(9, 4)))
    assert lhs == poch(G(3), half, 2) * poch(G(-3), half, 2)


def test_duplication_radical_free():
    rng = random.Random(8)
    suite = dict(identity_suite())
    for _ in range(50):
        a = rand_scalar(rng, gaussian=0.5)
        q = rand_qbase(rng)
        n = rng.randint(0, 10)
        assert suite["duplication"](a, q, n, 0) == G(0)
        # spelled out: (a;q)_{2n} = (a;q^2)_n (aq;q^2)_n
        q2 = QBase(q.q * q.q)
        assert poch(a, q, 2 * n) == poch(a, q2, n) * poch(a * q.q, q2, n)


def test_shifted_quotient_guard():
    suite = dict(identity_suite())
    q = half
    with pytest.raises(PoleInIdentity):
        suite["shifted-quotient"](pow_int(q.q, -2), q, 4, 0)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=7),
       st.fractions(min_value=-4, max_value=4, max_denominator=7),
       st.integers(0, 12), st.integers(0, 12))
def test_index_addition_property(a, q, n, k):
    if q == 0 or abs(q) == 1:
        return
    av, qb = G(a), QBase(G(q))
    full = poch(av, qb, n + k)
    assert full == poch(av, qb, k) * poch(av * pow_int(qb.q, k), qb, n)
    assert full == poch(av, qb, n) * poch(av * pow_int(qb.q, n), qb, k)


# ---------------------------------------------------------------------------
# fraction-free products against plain GaussianRational loops
# ---------------------------------------------------------------------------
# poch, poch_list and the guard rows of SeriesSpec / VwpSpec form every
# factor 1 - x q^k on unreduced integer triples and reduce once; the
# series oracles eval_phi_direct / eval_w_direct reach those products
# through poch.  The loops below use only GaussianRational *, / and -,
# which share no code with them.

ONE = G(1)


def loop_power(q, k):
    out = ONE
    for _ in range(abs(k)):
        out = out * q if k > 0 else out / q
    return out


def loop_factors(x, q, n):
    out, qk = [], ONE
    for _ in range(n):
        out.append(ONE - x * qk)
        qk = qk * q
    return out


def loop_product(values):
    out = ONE
    for v in values:
        out = out * v
    return out


def assert_same(value, expected):
    """``value`` is the canonical GaussianRational of ``expected``; an
    exact zero is the triple (0, 0, 1)."""
    assert type(value) is G
    a, b, d = parts(value)
    assert d > 0 and math.gcd(a, b, d) == 1
    assert parts(value) == parts(expected)
    if not expected:
        assert parts(value) == (0, 0, 1)


PART = st.fractions(min_value=-9, max_value=9, max_denominator=12)
GAUSS = st.builds(G, PART, PART)
NONZERO = GAUSS.filter(bool)
# real and non-real bases, with |q| < 1 and |q| > 1 alike
BASE_Q = NONZERO.filter(lambda q: q.abs2() != 1)


@st.composite
def products(draw, max_bases):
    """``(bases, q, n)``; now and then one base is q^{-k} for some k < n,
    so that its k-th factor vanishes."""
    q = draw(BASE_Q)
    n = draw(st.integers(0, 10))
    bases = draw(st.lists(GAUSS, max_size=max_bases))
    if bases and n and draw(st.booleans()):
        j = draw(st.integers(0, len(bases) - 1))
        bases[j] = loop_power(q, -draw(st.integers(0, n - 1)))
    return bases, q, n


@settings(max_examples=200, deadline=None)
@given(products(4))
@example(([G(5, 2)], G(Fraction(1, 2), Fraction(1, 3)), 0))     # n = 0
@example(([G(8)], G(Fraction(1, 2)), 6))        # zero factor at k = 3 of 6
@example(([G(-3, 1), G(Fraction(1, 4))], G(Fraction(7, 2), -2), 5))   # |q| > 1
def test_poch_and_poch_list_match_a_gaussian_rational_loop(case):
    bases, q, n = case
    each = [loop_product(loop_factors(a, q, n)) for a in bases]
    for a, expected in zip(bases, each):
        assert_same(poch(a, q, n), expected)
        assert_same(poch(a, QBase(q), n), expected)
    assert_same(poch_list(bases, QBase(q), n), loop_product(each))


def _guard_message(rows, messages):
    for row, message in zip(rows, messages):
        if not all(row):
            return message
    return None


@settings(max_examples=150, deadline=None)
@given(products(3), NONZERO.filter(lambda b: b != 1), st.lists(NONZERO, min_size=4, max_size=4),
       st.integers(-1, 3), st.integers(0, 9))
@example(([G(8)], G(Fraction(1, 2)), 6), G(3), [G(1), G(2), G(3), G(4)], -1, 0)
@example(([G(1, 1)], G(2, 1), 5), G(Fraction(1, 2)), [G(1), G(2), G(3), G(4)], 2, 3)
@example(([], G(Fraction(1, 2)), 3), G(32), [G(1), G(2), G(3), G(5)], -1, 0)
def test_guard_rows_and_their_product_match_a_gaussian_rational_loop(case, b, lower, pole_at,
                                                                    k):
    """The rows the guards keep and their product through
    ``poch_quotient``; a row with an exact zero, at its start or mid-row,
    raises DenominatorPole with its row's message."""
    den, q, n = case
    qb = QBase(q)
    rows = [loop_factors(x, q, n) for x in den]
    message = _guard_message(rows, ["denominator parameter lies in Omega_q^n"] * len(rows))
    if message:
        with pytest.raises(DenominatorPole) as err:
            SeriesSpec([ONE], den, ONE, qb, n)
        assert str(err.value) == message
    else:
        spec = SeriesSpec([ONE], den, ONE, qb, n)
        assert row_values(spec) == tuple(map(tuple, rows))
        assert_same(poch_quotient(spec.q.q, spec.n, num_rows=spec.den_rows),
                    loop_product(f for row in rows for f in row))
    if n and pole_at >= 0:
        # q b / a = q^{-k} for one lower parameter a
        lower[pole_at] = b * loop_power(q, k % n + 1)
    xs = [loop_power(q, n + 1) * b] + [q * b / a for a in lower]
    rows = [loop_factors(x, q, n) for x in xs]
    message = _guard_message(rows, ["q^{n+1} b lies in Omega_q^n"]
                             + ["q b / a_k lies in Omega_q^n"] * 4)
    if message:
        with pytest.raises(DenominatorPole) as err:
            VwpSpec(b, lower, ONE, qb, n)
        assert str(err.value) == message
    else:
        spec = VwpSpec(b, lower, ONE, qb, n)
        assert row_values(spec) == tuple(map(tuple, rows))
        assert_same(poch_quotient(spec.q.q, spec.n, num_rows=spec.den_rows),
                    loop_product(f for row in rows for f in row))


# ---------------------------------------------------------------------------
# poch_quotient, the one prefactor path, against plain GaussianRational loops
# ---------------------------------------------------------------------------

POLE = "prefactor pole: a denominator vanished"


def loop_group(bases, q, n):
    return loop_product(f for a in bases for f in loop_factors(a, q, n))


@st.composite
def quotients(draw):
    """``(q, n, lead, num, den, rows)``: powers of every sign (zero too)
    in ``lead``, lists of bases (possibly empty) in ``num`` and ``den``,
    and bases for kept guard rows; now and then a ``den`` base is q^{-k},
    k < n, so that the denominator vanishes."""
    q = draw(BASE_Q)
    n = draw(st.integers(0, 7))
    lead = draw(st.lists(st.tuples(NONZERO, st.integers(-4, 4)), max_size=5))
    num = draw(st.lists(GAUSS, max_size=5))
    den = draw(st.lists(GAUSS, max_size=5))
    rows = draw(st.none() | st.lists(GAUSS, max_size=3))
    if den and n and draw(st.booleans()):
        den[0] = loop_power(q, -draw(st.integers(0, n - 1)))
    return q, n, lead, num, den, rows


def _loop_quotient(q, n, lead, num, den, rows, rows_on_top):
    out = loop_product(loop_power(x, k) for x, k in lead)
    top, bottom, kept = (loop_group(bases, q, n) for bases in (num, den, rows or []))
    if rows_on_top:
        top = top * kept
    else:
        bottom = bottom * kept
    return out * top / bottom if bottom else None


@settings(max_examples=100, deadline=None)
@given(quotients(), st.booleans())
@example((G(Fraction(1, 2), Fraction(1, 3)), 0, [(G(3), -2)], [], [], None), True)
@example((G(Fraction(7, 2), -2), 4, [], [], [], []), False)          # empty lists
@example((G(Fraction(1, 3), Fraction(2, 3)), 3, [(G(2, 1), 0), (G(5), 1), (G(1, 2), 3)],
          [G(1, 1)], [G(2)], [G(3, -1)]), True)
@example((G(3, 4), 5, [], [G(1), G(2)], [G(Fraction(1, 3), 1)], [G(1, 1), G(2)]), False)
def test_poch_quotient_matches_a_gaussian_rational_loop(case, rows_on_top):
    q, n, lead, num, den, rows = case
    qb = QBase(q)
    kept = {}
    if rows is not None:
        try:
            spec = SeriesSpec([ONE], rows, ONE, qb, n)
        except DenominatorPole:
            rows = None
        else:
            kept = {"num_rows" if rows_on_top else "den_rows": spec.den_rows}
    expected = _loop_quotient(q, n, lead, num, den, rows, rows_on_top)
    if expected is None:
        with pytest.raises(DenominatorPole) as err:
            poch_quotient(q, n, lead, num, den, **kept)
        assert str(err.value) == POLE
        return
    assert_same(poch_quotient(q, n, lead, num, den, **kept), expected)


_NUM_POOL = (G(Fraction(3, 14), Fraction(-5, 6)), G(Fraction(-7, 9)), G(2, Fraction(1, 21)),
             G(Fraction(4, 15), Fraction(1, 10)))
_DEN_POOL = (G(Fraction(5, 12), Fraction(2, 7)), G(Fraction(-8, 3), Fraction(1, 4)),
             G(Fraction(1, 35)), G(Fraction(9, 10), Fraction(-3, 8)))


@pytest.mark.parametrize("q", [G(Fraction(2, 7), Fraction(-1, 3)), G(Fraction(9, 4), Fraction(5, 6))],
                         ids=["inside", "outside"])
@pytest.mark.parametrize("n", [0, 1, 16])
@pytest.mark.parametrize("counts", [(1, 0, 2, 1), (3, 1, 1, 0), (2, 0, 1, 1), (1, 0, 0, 2)],
                         ids=["more-below", "more-on-top", "even", "rows-only-below"])
def test_poch_quotient_cancels_the_known_denominators(q, n, counts):
    # the exact branch carries each side's denominators in closed form,
    # x_d^n q_d^{C(n,2)} per base or kept row, and cancels the powers of
    # q_d by their exponent difference: (bases + rows) below minus (bases
    # + rows) on top is positive, negative and zero across ``counts``
    # (numerator bases, numerator rows, denominator bases, denominator
    # rows).  The denominators share factors with each other and with q_d
    qb = QBase(q)
    num_bases, num_rows, den_bases, den_rows = counts
    num = list(_NUM_POOL[:num_bases])
    den = list(_DEN_POOL[:den_bases])
    lead = [(G(Fraction(3, 7), 1), -n), (G(Fraction(-6, 5)), 1), (q, binom2(n))]
    kept = {}
    expected = loop_product(loop_power(x, k) for x, k in lead) * loop_group(num, q, n)
    below = loop_group(den, q, n)
    if num_rows:
        rows = list(_DEN_POOL[-num_rows:])
        kept["num_rows"] = SeriesSpec([ONE], rows, ONE, qb, n).den_rows
        expected = expected * loop_group(rows, q, n)
    if den_rows:
        rows = list(_NUM_POOL[-den_rows:])
        kept["den_rows"] = SeriesSpec([ONE], rows, ONE, qb, n).den_rows
        below = below * loop_group(rows, q, n)
    expected = expected / below
    assert_same(poch_quotient(q, n, lead, num, den, **kept), expected)


def test_poch_quotient_pole_and_zero_power():
    q = G(Fraction(1, 2))
    # a vanishing denominator raises DenominatorPole with the one message,
    # on both backends: 1 - 2 (1/2) = 0
    with pytest.raises(DenominatorPole) as err:
        poch_quotient(q, 3, num=[G(5)], den=[G(7), G(2)])
    assert str(err.value) == POLE
    with pytest.raises(DenominatorPole) as err:
        poch_quotient(0.5 + 0j, 3, den=[2.0 + 0j])
    assert str(err.value) == POLE
    # a zero base to a negative power, as pow_int
    with pytest.raises(ZeroToNegativePower):
        poch_quotient(q, 2, [(G(0), -1)], [G(3)])
    assert poch_quotient(q, 2, [(G(0), 0)], [G(3)]) == poch(G(3), q, 2)
    with pytest.raises(ValueError):
        poch_quotient(q, -1)


def _lifted(x):
    """A float argument of poch_quotient as the rationals it is exactly."""
    if type(x) is tuple:
        return _lifted(x[0]), x[1]
    if isinstance(x, list):
        return [_lifted(v) for v in x]
    return lifted(x)


def test_poch_quotient_float_matches_the_exact_quotient_of_its_inputs():
    # the float quotient against the exact one at the same (lifted) inputs:
    # small degrees with |q| on both sides of 1, and degree 60 with
    # |q| ~ 6, where numerator and denominator each leave the float range
    # (q^C(60,2) ~ 10^1377) while their quotient does not.  The inputs are
    # multiples of 1/64, so that the exact products stay short
    rng = random.Random(5)

    def dyadic(bound):
        return rng.randint(int(-64 * bound), int(64 * bound)) / 64

    cases = 0
    while cases < 60:
        z = [complex(dyadic(3), dyadic(3)) for _ in range(9)]
        if cases % 6:
            q = complex(dyadic(1.5), dyadic(1.5))
            n = rng.randint(0, 7)
            if abs(abs(q) - 1) < 0.05 or not all(z):
                continue
            args = dict(lead=((z[0], -n), (z[1], 1), (z[8], 2), (z[1], 1)),
                        num=(z[2], z[3], z[4]), den=(z[5],), rows="num_rows")
        else:
            q = complex(6 + dyadic(0.5), dyadic(1))
            n = 60
            if not all(z):
                continue
            args = dict(lead=((z[0], -n), (z[1], 1), (q, binom2(n))), num=(z[2], z[3], z[4]),
                        den=(z[5], z[8]), rows="den_rows")
        cases += 1
        values = []
        for lift in (lambda v: v, _lifted):
            qb = QBase(lift(q))
            spec = SeriesSpec([lift(1 + 0j)], lift(z[6:8]), lift(1 + 0j), qb, n)
            values.append(poch_quotient(
                qb.q, n, lift(list(args["lead"])), lift(list(args["num"])),
                lift(list(args["den"])), **{args["rows"]: spec.den_rows}))
        got, want = values
        assert math.isfinite(abs(got)) and got, (q, n)
        # |got - want| <= 1e-12 |want|, on the integer triples
        da, db, dd = parts(_lifted(got) - want)
        wa, wb, wd = parts(want)
        assert (da * da + db * db) * wd * wd * 10**24 <= (wa * wa + wb * wb) * dd * dd, (q, n)
    # rows alone, below and on top: guard rows are nonzero
    spec = SeriesSpec([1 + 0j], [2 + 1j, -0.5j], 1 + 0j, QBase(0.3 + 0.4j), 5)
    assert poch_quotient(0.3 + 0.4j, 5, den_rows=spec.den_rows) == pytest.approx(
        1 / poch_quotient(0.3 + 0.4j, 5, num_rows=spec.den_rows), rel=1e-14)


def test_poch_quotient_float_keeps_any_modulus_and_never_raises_overflow():
    # (3 + i;q)_60 at q = 1e5 is ~10^8880: numerator and denominator each
    # leave the float range, their quotient is 1
    assert poch_quotient(1e5 + 0j, 60, num=(3 + 1j,), den=(3 + 1j,)) == 1
    # finite parts whose modulus is beyond the float range: abs() of them
    # raises OverflowError, poch_quotient does not
    big = 1.5e308 + 1.5e308j
    assert poch_quotient(2 + 0j, 2, [(big, 1), (big, -1)]) == pytest.approx(1, rel=1e-15)
    value = poch_quotient(0.5 + 0j, 2, [(big, 1), (big, 2)], [big])
    assert math.isinf(value.real) and math.isinf(value.imag)
    # (1 - big)(1 - big/2) / big^3 = 1 / (2 big) to 1e-308, a subnormal
    assert poch_quotient(0.5 + 0j, 2, [(big, -3)], [big]) == pytest.approx(
        (1 - 1j) / 6e308, rel=1e-12)
