"""q-Pochhammer products (a;q)_n and the classical identities they satisfy.

Everything here is a finite product, so both backends evaluate it exactly
up to their own arithmetic; nothing in this module sums a series.

:func:`poch_quotient` is the one prefactor path: a product of powers x^k,
times (num;q)_n and any kept guard rows, divided by (den;q)_n.  The
representations, the catalogue sides and the series transformations
form their prefactors with it, and :func:`poch` and :func:`poch_list`
are its one-sided case on the exact backend.  There the numerator and
the denominator are one unreduced integer triple each, into which every
(a;q)_n is multiplied as its factors 1 - a q^k are formed
(:func:`~qaskey.arithmetic._times_poch`); their quotient is one division
through the conjugate, reduced once.  The float backend multiplies
factor by factor, in the order of the arguments.

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
    _int_pow,
    _times_poch,
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
        return poch_quotient(qv, n, num=(a,))
    if n < 0:
        raise ValueError("poch requires n >= 0")
    return _float_poch(a, qv, n)


def poch_list(bases, q, n: int):
    """Product of (a;q)_n over a list of bases; empty list gives 1."""
    qv = _qval(q)
    if is_exact(qv):
        return poch_quotient(qv, n, num=bases)
    if n < 0:
        raise ValueError("poch requires n >= 0")
    return _float_poch_list(bases, qv, n)


def poch_quotient(q, n: int, lead=(), num=(), den=(), *, num_rows=None,
                  den_rows=None, tail=(), pole=None, message=None):
    """The prefactor ``lead * (num;q)_n * num_rows / ((den;q)_n * den_rows)
    * tail`` of a representation or transformation.

    ``lead`` and ``tail`` hold factors: a scalar, or a pair ``(x, k)`` for
    x^k with k of any sign.  An entry of ``num`` or ``den`` is a base a,
    for (a;q)_n, or a list or tuple of bases, for the product of theirs.
    ``num_rows`` and ``den_rows`` are kept guard rows (the ``den_rows`` of
    a :class:`~qaskey.qseries.SeriesSpec` or
    :class:`~qaskey.qseries.VwpSpec`): their factors ``1 - x q^k`` are
    multiplied as the guard formed them.  A call with ``den`` or
    ``den_rows`` must name the caller's exception class ``pole`` and its
    ``message``.  The denominator is formed first; if it is zero,
    ``pole(message)`` is raised.

    On the exact backend the numerator and the denominator are each one
    unreduced integer triple, the factors multiplied in as they are
    formed, and the quotient is one division through the conjugate and
    one :func:`~qaskey.arithmetic.from_parts`.  The float backend
    multiplies in the order of the arguments: the ``lead`` factors left
    to right, each ``num`` entry, the ``num_rows``; that divided by the
    product of the ``den`` entries and the ``den_rows``; then times the
    product of the ``tail`` factors.
    """
    if n < 0:
        raise ValueError("poch requires n >= 0")
    if (den or den_rows is not None) and (pole is None or message is None):
        raise TypeError("poch_quotient with a denominator needs pole and message")
    qv = _qval(q)
    if is_exact(qv):
        qt = parts(as_scalar(qv, True))
        da, db, dd = _exact_product(den, den_rows, qt, n)
        if not (da or db):
            raise pole(message)
        na, nb, nd = _exact_product(num, num_rows, qt, n)
        for f in (*lead, *tail):
            if type(f) is tuple:
                fa, fb, fd = _int_pow(parts(as_scalar(f[0], True)), f[1])
            else:
                fa, fb, fd = parts(as_scalar(f, True))
            na, nb, nd = na * fa - nb * fb, na * fb + nb * fa, nd * fd
        return from_parts((na * da + nb * db) * dd, (nb * da - na * db) * dd,
                          nd * (da * da + db * db))
    dv = None
    for g in den:
        v = _float_group(g, qv, n)
        dv = v if dv is None else dv * v
    if den_rows is not None:
        v = _rows_product(den_rows)
        dv = v if dv is None else dv * v
    if dv is not None and not dv:
        raise pole(message)
    out = None
    for f in lead:
        v = pow_int(*f) if type(f) is tuple else f
        out = v if out is None else out * v
    for g in num:
        v = _float_group(g, qv, n)
        out = v if out is None else out * v
    if num_rows is not None:
        v = _rows_product(num_rows)
        out = v if out is None else out * v
    if out is None:
        out = _ONE_FLOAT
    if dv is not None:
        out = out / dv
    if tail:
        t = None
        for f in tail:
            v = pow_int(*f) if type(f) is tuple else f
            t = v if t is None else t * v
        out = out * t
    return out


def _exact_product(groups, rows, q, n: int) -> tuple:
    """The unreduced triple of (a;q)_n over every base a in ``groups``
    (``q`` a triple), times every factor of the kept guard ``rows``."""
    p = 1, 0, 1
    for g in groups:
        for a in g if isinstance(g, (list, tuple)) else (g,):
            p = _times_poch(p, parts(as_scalar(a, True)), q, n)
    a, b, d = p
    for row in rows or ():
        for fa, fb, fd in row:
            a, b, d = a * fa - b * fb, a * fb + b * fa, d * fd
    return a, b, d


def _float_poch(x, q, n: int):
    # (x;q)_n on the float backend, factor by factor
    one = out = _ONE_FLOAT
    for _ in range(n):
        out = out * (one - x)
        x = x * q
    return out


def _float_poch_list(bases, q, n: int):
    out = _ONE_FLOAT
    for a in bases:
        out = out * _float_poch(a, q, n)
    return out


def _float_group(g, q, n: int):
    # a num or den entry of poch_quotient on the float backend, grouped as
    # poch (one base) or poch_list (a list or tuple of bases) groups it
    if isinstance(g, (list, tuple)):
        return _float_poch_list(g, q, n)
    return _float_poch(g, q, n)


def _rows_product(rows):
    # float backend only: row by row, grouped as the float poch_list
    # groups its factors
    one = out = _ONE_FLOAT
    for row in rows:
        p = one
        for f in row:
            p = p * f
        out = out * p
    return out


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
