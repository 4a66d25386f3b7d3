"""Finite q-products and the catalogued identity suite."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaskey import GaussianRational, QBase, poch, poch_list, poch_qinv
from qaskey.qpochhammer import (
    PoleInIdentity,
    ZeroBase,
    identity_suite,
    omega_contains,
)
from qaskey.arithmetic import parts, pow_int
from qaskey.qseries import DenominatorPole, SeriesSpec, VwpSpec

from util import rand_qbase, rand_scalar

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
        q2 = q.squared()
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
def test_guard_rows_and_den_poch_match_a_gaussian_rational_loop(case, b, lower, pole_at, k):
    """The rows the guards keep and their product ``den_poch()``; a row
    with an exact zero, at its start or mid-row, raises DenominatorPole
    with its row's message."""
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
        assert spec.den_factors == tuple(map(tuple, rows))
        assert_same(spec.den_poch(), loop_product(f for row in rows for f in row))
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
        assert spec.den_factors == tuple(map(tuple, rows))
        assert_same(spec.den_poch(), loop_product(f for row in rows for f in row))
