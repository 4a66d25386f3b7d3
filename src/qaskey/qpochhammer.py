"""q-Pochhammer products (a;q)_n and the classical identities they satisfy.

Everything here is a finite product, so both backends evaluate it exactly
up to their own arithmetic; nothing in this module sums a series.  On the
exact backend :func:`poch` and :func:`poch_list` run fraction-free: every
factor 1 - a q^k is an unreduced integer triple, and the product over all
bases and k < n is reduced once.  The float backend multiplies factor by
factor.

Identities that classically involve square roots (base doubling and the
shifted-quotient form) are stored and checked in radical-free equivalent
forms: the +-a pair expands to (a;q)_n (-a;q)_n and the +-sqrt pair to
(a;q^2)_n (a q;q^2)_n, which is the same set of factors squared away.
The exact backend therefore never needs radicals.
"""

from __future__ import annotations

from .arithmetic import (
    GuardViolation,
    POLE_EPS,
    QBase,
    _ONE_FLOAT,
    _int_powers,
    _int_product,
    _one_minus,
    as_scalar,
    binom2,
    from_parts,
    is_exact,
    is_zero,
    one_like,
    parts,
    pow_int,
)


class ZeroBase(GuardViolation):
    """Base a = 0 where the identity requires 1/a."""


class PoleInIdentity(GuardViolation):
    """A precondition such as a not in Omega_q^n failed for an identity check."""


def _qval(q):
    return q.q if isinstance(q, QBase) else q


def poch(a, q, n: int):
    """(a;q)_n = (1-a)(1-aq)...(1-aq^{n-1}); the empty product is 1."""
    qv = _qval(q)
    if is_exact(qv):
        return _exact_poch((a,), qv, n)
    if n < 0:
        raise ValueError("poch requires n >= 0")
    one = out = _ONE_FLOAT
    x = a
    for _ in range(n):
        out = out * (one - x)
        x = x * qv
    return out


def poch_list(bases, q, n: int):
    """Product of (a;q)_n over a list of bases; empty list gives 1."""
    qv = _qval(q)
    if is_exact(qv):
        return _exact_poch(bases, qv, n)
    out = _ONE_FLOAT
    for a in bases:
        out = out * poch(a, qv, n)
    return out


def _exact_poch(bases, q, n: int):
    """The product of the factors 1 - a q^k over a in ``bases`` and k < n,
    formed on integer triples and reduced once."""
    if n < 0:
        raise ValueError("poch requires n >= 0")
    xs = [parts(as_scalar(a, True)) for a in bases]
    pw = _int_powers(as_scalar(q, True), n)
    return from_parts(*_int_product(_one_minus(x, qk) for x in xs for qk in pw))


def omega_contains(a, q, n: int, *, pole_eps: float = POLE_EPS) -> bool:
    """Membership in Omega_q^n = { q^{-k} : 0 <= k <= n-1 }.

    Exact backend: a q^k == 1 literally.  Float backend: |a q^k - 1|
    below ``pole_eps`` counts as a pole hit (the sets are exact in theory;
    the margin is the numeric proxy).
    """
    qv = _qval(q)
    one = one_like(qv)
    inexact = not is_exact(qv)
    t = a
    for _ in range(n):
        d = t - one
        if not d or (inexact and abs(d) < pole_eps):
            return True
        t = t * qv
    return False


def poch_qinv(a, q, n: int):
    """(a;q^{-1})_n rewritten on base q: (1/a;q)_n (-a)^n q^{-binom(n,2)}.

    Contract: equals poch(a, 1/q, n).  Requires a != 0 for n >= 1.
    """
    if n == 0:
        return one_like(_qval(q))
    if is_zero(a):
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
    if is_zero(a):
        raise ZeroBase("reversal needs a != 0")
    rhs = poch(pow_int(qv, 1 - n) / a, qv, n) * pow_int(-a, n) * pow_int(qv, binom2(n))
    return poch(a, qv, n) - rhs


def _check_shifted_base(a, q, n, k):
    # (a q^{-n};q)_k = q^{-nk} (q/a;q)_n / (q^{1-k}/a;q)_n (a;q)_k
    qv = _qval(q)
    if is_zero(a):
        raise ZeroBase("shifted base needs a != 0")
    den = poch(pow_int(qv, 1 - k) / a, qv, n)
    if is_zero(den):
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
    if is_zero(den):
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
