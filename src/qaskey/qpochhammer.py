"""q-Pochhammer products (a;q)_n and the classical identities they satisfy.

Everything here is a finite product, so both backends evaluate it exactly
up to their own arithmetic; nothing in this module sums a series.

:func:`poch_quotient` is the one product path: a product of powers x^k,
times (num;q)_n and any kept guard rows, divided by (den;q)_n.  The
representations, the catalogue sides and the series transformations
form their prefactors with it, and :func:`poch` and :func:`poch_list`
are its one-sided case.  Each argument has one shape: the scalar base,
``(x, k)`` pairs for the powers, flat lists of bases.  A vanishing
denominator raises :class:`DenominatorPole` with one fixed message; a
caller that knows the factor's label names it
(:meth:`~qaskey.labels.Side.evaluate`).

On the exact backend the numerator and the denominator are one
Gaussian integer each, into which the numerator of every factor 1 - a q^k is multiplied as it is formed
(:func:`~qaskey.arithmetic._poch_numerator` for a base, the kept triples
for a guard row).  Their real denominators are known in closed form,
a_d^n q_d^{C(n,2)} for a base with denominator a_d when q has q_d, and
are carried as such: the powers of q_d cancel by exponent, the
products of the a_d by one small gcd.  The quotient is one division
through the conjugate, reduced once.  On the float backend each is a
complex mantissa with an int binary exponent kept apart, so no partial
product leaves the float range.

Identities that classically involve square roots (base doubling and the
shifted-quotient form) are stored and checked in radical-free equivalent
forms: the +-a pair expands to (a;q)_n (-a;q)_n and the +-sqrt pair to
(a;q^2)_n (a q;q^2)_n, which is the same set of factors squared away.
The exact backend therefore never needs radicals.
"""

from __future__ import annotations

from math import copysign, frexp, gcd, inf, ldexp

from .arithmetic import (
    GuardViolation,
    POLE_EPS,
    QBase,
    _ONE_FLOAT,
    _int_pow,
    _poch_numerator,
    as_scalar,
    binom2,
    from_parts,
    is_exact,
    one_like,
    parts,
    pow_int,
)


class ZeroBase(GuardViolation):
    """Base a = 0 where the identity requires 1/a."""


class PoleInIdentity(GuardViolation):
    """A precondition such as a not in Omega_q^n failed for an identity check."""


class DenominatorPole(GuardViolation):
    """A denominator parameter hit Omega_q^n (or a prefactor vanished)."""


def _qval(q):
    return q.q if isinstance(q, QBase) else q


def poch(a, q, n: int):
    """(a;q)_n = (1-a)(1-aq)...(1-aq^{n-1}); the empty product is 1."""
    return poch_quotient(_qval(q), n, num=(a,))


def poch_list(bases, q, n: int):
    """Product of (a;q)_n over a list of bases; empty list gives 1."""
    return poch_quotient(_qval(q), n, num=bases)


_POLE = "prefactor pole: a denominator vanished"


def poch_quotient(q, n: int, lead=(), num=(), den=(), *, num_rows=None, den_rows=None):
    """The prefactor ``lead * (num;q)_n * num_rows / ((den;q)_n * den_rows)``
    of a representation or transformation, on the scalar base ``q``.

    ``lead`` holds pairs ``(x, k)`` for x^k, k of any sign; ``num`` and
    ``den`` hold bases a, each for (a;q)_n.  ``num_rows`` and ``den_rows``
    are kept guard rows (the ``den_rows`` of a
    :class:`~qaskey.qseries.SeriesSpec` or
    :class:`~qaskey.qseries.VwpSpec`): their factors ``1 - x q^k`` are
    multiplied as the guard formed them; they are nonzero.  The
    denominator is formed first; if it is zero, DenominatorPole is raised.

    On the exact backend the numerator and the denominator are each one
    Gaussian integer, the numerators of the factors multiplied in as they
    are formed, over a real denominator known in closed form (the kept
    rows must be formed on the base ``q``, as a spec's guards are); the
    quotient is one division through the conjugate and one
    :func:`~qaskey.arithmetic.from_parts`.  On the float backend each
    is a complex mantissa and an int binary exponent, applied once to the
    quotient: only a quotient beyond the float range is infinite or zero.
    """
    if n < 0:
        raise ValueError("poch requires n >= 0")
    if is_exact(q):
        qt = parts(as_scalar(q, True))
        da, db, dc, dm = _exact_numerator(den, den_rows, qt, n)
        if not (da or db):
            raise DenominatorPole(_POLE)
        na, nb, nc, nm = _exact_numerator(num, num_rows, qt, n)
        nd = 1
        for x, k in lead:
            fa, fb, fd = _int_pow(parts(as_scalar(x, True)), k)
            na, nb, nd = na * fa - nb * fb, na * fb + nb * fa, nd * fd
        # (num / (nc^n q_d^{nm C(n,2)})) / (den / (dc^n q_d^{dm C(n,2)})):
        # the powers of q_d cancel by exponent, nc and dc by one gcd
        g = gcd(nc, dc)
        top, nd = (dc // g) ** n, nd * (nc // g) ** n
        e = binom2(n) * (dm - nm)
        if e > 0:
            top *= qt[2] ** e
        elif e:
            nd *= qt[2] ** -e
        return from_parts((na * da + nb * db) * top, (nb * da - na * db) * top,
                          nd * (da * da + db * db))
    dm, de = _float_product((), den, den_rows, q, n) if den or den_rows else (1, 0)
    if not dm:
        raise DenominatorPole(_POLE)
    m, e = _float_product(lead, num, num_rows, q, n)
    m, e = m / dm, e - de
    return complex(_ldexp(m.real, e), _ldexp(m.imag, e)) if e else m


def _exact_numerator(bases, rows, q, n: int) -> tuple:
    """``(a, b, c, m)``: the product of (x;q)_n over the ``bases`` and of
    every factor of the kept guard ``rows`` is
    ``(a + b i) / (c^n q_d^{m C(n,2)})`` for the triple ``q`` with
    denominator q_d.  c is the product of the k = 0 denominators x_d and
    m counts the bases and rows; a row's k-th triple sits over its k = 0
    denominator times q_d^k, as :func:`~qaskey.arithmetic._one_minus_row`
    forms it on the same base."""
    p, c, m = (1, 0), 1, 0
    for x in bases:
        x = parts(as_scalar(x, True))
        p = _poch_numerator(p, x, q, n)
        c *= x[2]
        m += 1
    a, b = p
    for row in rows or ():
        for fa, fb, _ in row:
            a, b = a * fa - b * fb, a * fb + b * fa
        if row:
            c *= row[0][2]
            m += 1
    return a, b, c, m


def _float_product(lead, bases, rows, q, n: int) -> tuple:
    """``(m, e)``: m 2^e is the product of x^k over the pairs ``(x, k)``
    of ``lead``, of (a;q)_n over the ``bases`` and of the ``rows``'
    factors.  m is scaled by a power of two when it leaves [2^-500, 2^500]
    or ``abs()`` raises."""
    one = _ONE_FLOAT
    small, big = 2.0 ** -500, 2.0 ** 500
    m, e = one, 0
    powers = []
    for x, k in lead:
        f = pow_int(x, k)
        if not small <= abs(f.real) + abs(f.imag) <= big:
            # x^k left the window: b^k 2^(be k), |b| in [1/2, 2), in powers b^j, |j| <= 500
            b, be = _normalised(x, 0)
            e += be * k
            while abs(k) > 500:
                powers.append(pow_int(b, 500 if k > 0 else -500))
                k -= 500 if k > 0 else -500
            f = pow_int(b, k)
        powers.append(f)
    for x in bases:
        for _ in range(n):
            m = m * (one - x)
            x = x * q
            try:
                if small <= abs(m) <= big:
                    continue
            except OverflowError:
                pass
            m, e = _normalised(m, e)
    for row in (powers, *(rows or ())):
        for f in row:
            m = m * f
            try:
                if small <= abs(m) <= big:
                    continue
            except OverflowError:
                pass
            m, e = _normalised(m, e)
    return m, e


def _normalised(m, e: int) -> tuple:
    # m 2^e as m' 2^e' with max(|Re m'|, |Im m'|) in [1/2, 1); 0, inf, nan unchanged
    re, im = m.real, m.imag
    k = frexp(max(abs(re), abs(im)))[1]
    return complex(ldexp(re, -k), ldexp(im, -k)), e + k


def _ldexp(x: float, e: int) -> float:
    # x 2^e, infinite, not an OverflowError, beyond the float range
    try:
        return ldexp(x, e)
    except OverflowError:
        return copysign(inf, x)


def omega_contains(a, q, n: int) -> bool:
    """Membership in Omega_q^n = { q^{-k} : 0 <= k <= n-1 }.

    Exact backend: a q^k == 1 literally.  Float backend: |a q^k - 1|
    below ``POLE_EPS`` counts as a pole hit (the sets are exact in theory;
    the margin is the numeric proxy).
    """
    qv = _qval(q)
    one = one_like(qv)
    inexact = not is_exact(qv)
    t = a
    for _ in range(n):
        d = t - one
        if not d or (inexact and abs(d) < POLE_EPS):
            return True
        t = t * qv
    return False


def poch_qinv(a, q, n: int):
    """(a;q^{-1})_n rewritten on base q: (1/a;q)_n (-a)^n q^{-binom(n,2)}.

    Contract: equals poch(a, 1/q, n).  Requires a != 0 for n >= 1.
    """
    if n == 0:
        return one_like(_qval(q))
    if not a:
        raise ZeroBase("base inversion needs a != 0")
    qv = _qval(q)
    return poch(one_like(qv) / a, qv, n) * pow_int(-a, n) * pow_int(qv, -binom2(n))


def _check_qinv(a, q, n, k):
    # base-inversion law, both routes evaluated independently
    qv = _qval(q)
    lhs = poch(a, one_like(qv) / qv, n)
    return lhs - poch_qinv(a, qv, n)


def _check_index_add_low(a, q, n, k):
    qv = _qval(q)
    lhs = poch(a, qv, n + k)
    return lhs - poch(a, qv, k) * poch(a * pow_int(qv, k), qv, n)


def _check_index_add_high(a, q, n, k):
    qv = _qval(q)
    lhs = poch(a, qv, n + k)
    return lhs - poch(a, qv, n) * poch(a * pow_int(qv, n), qv, k)


def _check_reversal(a, q, n, k):
    qv = _qval(q)
    if not a:
        raise ZeroBase("reversal needs a != 0")
    rhs = poch(pow_int(qv, 1 - n) / a, qv, n) * pow_int(-a, n) * pow_int(qv, binom2(n))
    return poch(a, qv, n) - rhs


def _check_shifted_base(a, q, n, k):
    # (a q^{-n};q)_k = q^{-nk} (q/a;q)_n / (q^{1-k}/a;q)_n (a;q)_k
    qv = _qval(q)
    if not a:
        raise ZeroBase("shifted base needs a != 0")
    den = poch(pow_int(qv, 1 - k) / a, qv, n)
    if not den:
        raise PoleInIdentity("q^{1-k}/a lies in Omega_q^n")
    lhs = poch(a * pow_int(qv, -n), qv, k)
    rhs = pow_int(qv, -n * k) * poch(qv / a, qv, n) / den * poch(a, qv, k)
    return lhs - rhs


def _check_square_base(a, q, n, k):
    # (a^2;q^2)_n = (a;q)_n (-a;q)_n
    qv = _qval(q)
    return poch(a * a, qv * qv, n) - poch(a, qv, n) * poch(-a, qv, n)


def _check_duplication(a, q, n, k):
    # (a;q)_{2n} = (a;q^2)_n (a q;q^2)_n
    qv = _qval(q)
    q2 = qv * qv
    return poch(a, qv, 2 * n) - poch(a, q2, n) * poch(a * qv, q2, n)


def _check_shifted_quotient(a, q, n, k):
    # (a q^n;q)_n = (a;q)_{2n} / (a;q)_n, valid for a outside Omega_q^n
    qv = _qval(q)
    den = poch(a, qv, n)
    if not den:
        raise PoleInIdentity("a lies in Omega_q^n")
    return poch(a * pow_int(qv, n), qv, n) - poch(a, qv, 2 * n) / den


def identity_suite():
    """Named checkers, one per catalogued product identity.

    Each checker takes (a, q, n, k) and returns LHS - RHS, raising
    PoleInIdentity / ZeroBase when its preconditions fail.  The index
    addition law contributes both splittings.
    """
    return [
        ("base-inversion", _check_qinv),
        ("index-addition-low", _check_index_add_low),
        ("index-addition-high", _check_index_add_high),
        ("reversal", _check_reversal),
        ("shifted-base", _check_shifted_base),
        ("square-base", _check_square_base),
        ("duplication", _check_duplication),
        ("shifted-quotient", _check_shifted_quotient),
    ]
