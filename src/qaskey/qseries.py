"""Terminating basic hypergeometric series and their transformations.

Two evaluators are kept deliberately independent:

* :func:`eval_phi` / :func:`eval_w` walk the sum with an O(n) term-ratio
  recurrence (the production path);
* :func:`eval_phi_direct` / :func:`eval_w_direct` rebuild every term from
  fresh Pochhammer products (the anti-bug oracle used by the tests).

Both shapes run through one kernel per backend, ``_kernel`` on the exact
backend and ``_float_kernel`` on the float one: the series
sum_k t_k, t_0 = 1, with step ratio t_{k+1} / t_k = (-q^k)^e z
prod_x (1 - x q^k) / ((1 - q^{k+1}) prod (guard row at k)), times the
pair factor of a very-well-poised series.  :func:`eval_phi` passes
x = q^{-n} and the numerator list with e the sign exponent;
:func:`eval_w` passes x = b, q^{-n} and the lower list, and b as the
pair.  :func:`eval_series` evaluates either kind of spec.

On the exact backend the recurrence runs fraction-free, on the integer
triples ``(a, b, d)`` of ``(a + b i) / d``, in the spirit of Bareiss'
elimination.  One pass over k advances q^k on plain ints and forms each
step ratio inline from the Gaussian integers of q^k, z, the parameters
and the kept guard factors (no list and no call per factor): the q^k
denominators of its factors cancel in closed form, leaving one
per-series constant.  It divides by multiplying with the conjugate of
the denominator and reduces by one gcd.  Horner's rule then sums the
stored ratios backward over one real denominator, weighted for a
very-well-poised series by its pair factors; only the value is reduced,
once per series.  The direct evaluators build every term from
:func:`~qaskey.qpochhammer.poch` products and stay the independent
oracle: no code that forms a factor ``1 - x q^k`` is shared with the
recurrence.  The kernel forms its numerator factors inline and reads its
denominator factors from the guard rows of
:func:`~qaskey.arithmetic._one_minus_row`; the oracle's products come
from :func:`~qaskey.arithmetic._poch_numerator`.  The tests check both
helpers against plain :class:`~qaskey.arithmetic.GaussianRational`
loops.

A very-well-poised series is evaluated radical-free: the classical
``+-q sqrt(b)`` over ``+-sqrt(b)`` pair contributes the exact per-term
factor ``(1 - b q^{2k}) / (1 - b)``, so the exact backend never sees a
square root.  Every evaluation returns a :class:`TermTrace` whose
``abs_scale`` (the summed term magnitudes) is the cancellation scale that
tolerance-aware comparisons should use; :meth:`TermTrace.scaled` records
a prefactor and applies it to the terms only when they are read.  An
exact trace keeps the kernel's reduced ratios and pair weights and forms
the terms of a forward sum, as values, on first read.  On both backends
``abs_scale`` is formed when it is read, from the unscaled terms and then
the recorded factors in order, so an exact check, whose verdict is
equality, never forms it.  The prefactors of the transformations here
come from :func:`~qaskey.qpochhammer.poch_quotient`.
``eval_series(spec, pref)`` is the one prefactor × series step: it hands
the prefactor to :func:`eval_phi` or :func:`eval_w` and so into the
kernel; the exact kernel multiplies the prefactor's triple into its
unreduced Horner sum and reduces the product once, the float kernel
returns ``pref * value``, and both record the prefactor in the trace.

The pole guards of :class:`SeriesSpec` and :class:`VwpSpec` form every
denominator factor ``1 - x q^k`` of the terminating sum once and keep
them: the term loops and the prefactor products ``(den;q)_n`` reuse them.
On the exact backend the guards form each row of factors as unreduced
integer triples with :func:`~qaskey.arithmetic._one_minus_row` and test
each for an exact zero; the kernel and
:func:`~qaskey.qpochhammer.poch_quotient` read those triples as they are.
:class:`DenominatorPole` is defined in :mod:`~qaskey.qpochhammer`, where
the prefactor products raise it, and re-exported here.
"""

from __future__ import annotations

from math import gcd, inf

from .arithmetic import (
    GuardViolation,
    POLE_EPS,
    QBase,
    QError,
    _Frozen,
    _one_minus_row,
    _set,
    as_scalar,
    binom2,
    from_parts,
    one_like,
    parts,
    pow_int,
)
from .qpochhammer import DenominatorPole, poch, poch_list, poch_quotient


class BEqualsOne(GuardViolation):
    """The very-well-poised special parameter equals 1: the series is singular."""


class ZeroParameter(GuardViolation):
    """A transformation requires every involved parameter to be nonzero."""


class ShapeMismatch(QError):
    """The spec does not have the r+1 phi r (or 4 phi 3) shape required here."""


class NotBalanced(GuardViolation):
    """The balance condition of the requested transformation fails."""


class TermTrace:
    """Per-term record of a series evaluation.

    ``abs_scale`` is the sum of the term magnitudes; float identity checks
    scale their tolerance by it to distinguish failure from cancellation.
    :meth:`scaled` records its factor (``factors``, in the order given);
    ``terms`` and ``abs_scale`` apply the recorded factors when they are
    read.  ``steps`` is the tuple of unscaled terms, or the exact kernel's
    :class:`_Steps`, which keeps only its reduced step ratios and pair
    weights and forms the terms on first read.

    ``abs_scale`` is formed each time it is read: no exact verdict reads
    it, and a float verdict reads it once.  It sums the magnitudes of the
    unscaled terms and then applies ``abs(f) * s`` for each recorded
    factor f in order.  A float modulus above the float range reads as
    ``inf``, as :func:`~qaskey.arithmetic.abs_parts` does on exact.
    """

    __slots__ = ("_steps", "factors")

    def __init__(self, steps, factors=()):
        self._steps = steps
        self.factors = factors

    @property
    def unscaled_terms(self) -> tuple:
        steps = self._steps
        return steps if type(steps) is tuple else steps.terms()

    @property
    def abs_scale(self) -> float:
        try:
            s = sum(map(abs, self.unscaled_terms))
            for f in self.factors:
                s = abs(f) * s
        except OverflowError:
            return inf
        return s

    @property
    def terms(self) -> tuple:
        values = self.unscaled_terms
        for f in self.factors:
            values = tuple(f * v for v in values)
        return values

    def scaled(self, factor) -> "TermTrace":
        return TermTrace(self._steps, self.factors + (factor,))


def _coerce_all(exact: bool, values):
    return tuple(as_scalar(v, exact) for v in values)


def _powers(q, n: int) -> list:
    """q^k for k < n, by the chain the term loops use."""
    qks = [one_like(q)]
    for _ in range(n - 1):
        qks.append(qks[-1] * q)
    return qks[:n]


def _guard_row(x, q, n: int, qks, message: str) -> tuple:
    """The factors ``1 - x q^k``, k < n, for the scalar base q.

    On the exact backend, where ``qks`` is None, they are the unreduced
    triples of :func:`~qaskey.arithmetic._one_minus_row`; on the float
    backend they are formed from ``qks`` = (q^k, k < n).  Raises
    DenominatorPole when x lies in Omega_q^n: a factor is exactly zero
    (for a triple, ``a == b == 0``, as ``d > 0``), or on the float
    backend has modulus below ``POLE_EPS`` (the test of
    :func:`~qaskey.qpochhammer.omega_contains`).
    """
    if qks is None:
        row = _one_minus_row(parts(x), parts(q), n)
        if not all(a or b for a, b, _ in row):
            raise DenominatorPole(message)
        return row
    one = one_like(x)
    row = []
    for qk in qks:
        f = one - x * qk
        if not f or abs(f) < POLE_EPS:
            raise DenominatorPole(message)
        row.append(f)
    return tuple(row)


class _GuardRows(_Frozen):
    """The guard rows that :class:`SeriesSpec` and :class:`VwpSpec` keep.

    ``den_rows[j][k]`` is the factor ``1 - x_j q^k`` (k < n) of the j-th
    denominator parameter x_j as the guard formed it: a complex on the
    float backend, an unreduced integer triple ``(a, b, d)`` on the exact
    one.  The guards run in ``__post_init__``, which ``__init__`` looks up
    on the class, so a wrapper bound there (the benchmark's tracer) sees
    every construction.  Specs are equal, and hash alike, when their
    fields other than ``den_rows`` are equal.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class SeriesSpec(_GuardRows):
    """A terminating series: numerator list (the q^{-n} slot is implicit),
    denominator list, argument z, base q and termination degree n.

    With r = 1 + len(num) and s = len(den), each term k carries the factor
    ``((-1)^k q^{binom(k,2)})^{1+s-r}``.  Denominator entries must avoid
    Omega_q^n; violations raise DenominatorPole at construction.  The
    guard keeps what it forms: ``den_rows[j][k]`` is ``1 - den[j] q^k``
    for k < n, which :func:`eval_phi` and the prefactors reuse.
    """

    __slots__ = ("num", "den", "z", "q", "n", "den_rows")

    def __init__(self, num, den, z, q: QBase, n: int):
        _set(self, "num", num)
        _set(self, "den", den)
        _set(self, "z", z)
        _set(self, "q", q)
        _set(self, "n", n)
        self.__post_init__()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("termination degree n must be >= 0")
        exact = self.q.exact
        _set(self, "num", _coerce_all(exact, self.num))
        _set(self, "den", _coerce_all(exact, self.den))
        _set(self, "z", as_scalar(self.z, exact))
        qks = None if exact else _powers(self.q.q, self.n)
        message = "denominator parameter lies in Omega_q^n"
        _set(self, "den_rows", tuple(
            _guard_row(b, self.q.q, self.n, qks, message) for b in self.den))

    def _key(self) -> tuple:
        return self.num, self.den, self.z, self.q, self.n

    def __repr__(self):
        return (f"SeriesSpec(num={self.num!r}, den={self.den!r}, z={self.z!r}, "
                f"q={self.q!r}, n={self.n!r})")

    @property
    def r(self) -> int:
        return 1 + len(self.num)

    @property
    def s(self) -> int:
        return len(self.den)

    @property
    def sign_exponent(self) -> int:
        return 1 + self.s - self.r


class VwpSpec(_GuardRows):
    """A terminating very-well-poised series: special parameter b, the
    lower parameter list beyond the q^{-n} slot, argument z, base q, n.

    Guards: b nonzero and not 1; q^{n+1} b and q b / a_k outside
    Omega_q^n and nonzero.  The guard keeps what it forms:
    ``den_rows`` holds the rows ``1 - x q^k`` (k < n) for x = q^{n+1} b
    and then each q b / a_k, which :func:`eval_w` and the prefactors
    reuse.
    """

    __slots__ = ("b", "lower", "z", "q", "n", "den_rows")

    def __init__(self, b, lower, z, q: QBase, n: int):
        _set(self, "b", b)
        _set(self, "lower", lower)
        _set(self, "z", z)
        _set(self, "q", q)
        _set(self, "n", n)
        self.__post_init__()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("termination degree n must be >= 0")
        q, n = self.q, self.n
        exact = q.exact
        b = as_scalar(self.b, exact)
        _set(self, "b", b)
        _set(self, "lower", _coerce_all(exact, self.lower))
        _set(self, "z", as_scalar(self.z, exact))
        if not b:
            raise ZeroParameter("special parameter b must be nonzero")
        d = b - one_like(q.q)
        if not d or (not exact and abs(d) <= POLE_EPS):
            raise BEqualsOne("special parameter b = 1 makes the series singular")
        if not all(self.lower):
            raise ZeroParameter("lower parameters must be nonzero")
        qks = None if exact else _powers(q.q, n)
        rows = [_guard_row(pow_int(q.q, n + 1) * b, q.q, n, qks, "q^{n+1} b lies in Omega_q^n")]
        qb = q.q * b
        for a in self.lower:
            rows.append(_guard_row(qb / a, q.q, n, qks, "q b / a_k lies in Omega_q^n"))
        _set(self, "den_rows", tuple(rows))

    def _key(self) -> tuple:
        return self.b, self.lower, self.z, self.q, self.n

    def __repr__(self):
        return (f"VwpSpec(b={self.b!r}, lower={self.lower!r}, z={self.z!r}, "
                f"q={self.q!r}, n={self.n!r})")

    @property
    def r(self) -> int:
        # the series is an (r+1) phi r with this r
        return len(self.lower) + 3


def _trace(terms):
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total, TermTrace(tuple(terms))


# -- exact kernel ---------------------------------------------------------
# Integer triples (a, b, d) stand for (a + b i) / d with d > 0.

class _Steps:
    """The exact kernel's reduced step ratios r_k (k < n) and, for a
    very-well-poised series, its pair weights w_k (k <= n) over their
    common denominator ``wd``.

    :meth:`terms` forms the terms on its first call and keeps them: term
    k + 1 is term k times r_k (then times w_{k+1} for the pair), carried
    forward as an unreduced triple over ``wd`` times the product of the
    ratio denominators so far, and reduced once.
    """

    __slots__ = ("ratios", "weights", "wd", "_formed")

    def __init__(self, ratios, weights, wd):
        self.ratios, self.weights, self.wd = ratios, weights, wd
        self._formed = None

    def terms(self) -> tuple:
        if self._formed is None:
            weights, wd = self.weights, self.wd
            terms = [from_parts(1, 0, 1)]
            a, b, d = 1, 0, 1
            for k, (ra, rb, rd) in enumerate(self.ratios):
                a, b, d = a * ra - b * rb, a * rb + b * ra, d * rd
                if weights is None:
                    terms.append(from_parts(a, b, d))
                else:
                    wa, wb = weights[k + 1]
                    terms.append(from_parts(a * wa - b * wb, a * wb + b * wa, d * wd))
            self._formed = tuple(terms)
        return self._formed


def _kernel(spec, xs, e=0, pair=None, pref=None):
    """Value and trace of sum_k t_k, t_0 = 1, t_{k+1} = t_k r_k, on plain
    ints: one pass forms the reduced step ratios, and Horner's rule sums
    them backward.

    The step ratio is r_k = (-q^k)^e z prod_x (1 - x q^k)
    / ((1 - q^{k+1}) prod_j den_rows[j][k]) over the exact scalars ``xs``,
    read as their triples.
    With q^k = (u + v i) / m, m = q_d^k, each factor 1 - x q^k is the
    Gaussian integer x_d m - x_num (u + v i) over x_d m, and a guard row's
    k-th triple sits over its x_d m as well.  The powers of m in r_k
    cancel (their exponent is 1 + #rows - #xs - e, which is 0 for both
    spec shapes), so r_k is C times a quotient of Gaussian integers, with
    the one per-series constant C = q_d prod(row denominators at k = 0)
    / (z_d prod x_d).  The quotient is divided by multiplying with the
    conjugate of its denominator and reduced by one gcd: the reduced
    ratio is canonical, the same whatever denominators it was formed
    over.

    Horner's rule then sums S_k = w_k + r_k S_{k+1}, S_n = w_n, over one
    real denominator, with w_k = 1 for a phi series.  ``pair``, the
    special parameter b of a very-well-poised series, gives the weights
    w_k = (1 - b q^{2k}) / (1 - b) as Gaussian integers over the common
    denominator wd = d^{2n} N, where d is q's denominator and
    N = |bd (1 - b)|^2; b q^{2k} advances by one product with q^2.  The
    value, times the triple of the prefactor ``pref`` when one is given,
    is reduced once; the trace keeps the ratios and weights and forms its
    triples only when it is read (:class:`_Steps`), and records ``pref``.
    """
    xs = [parts(x) for x in xs]
    za, zb, zd = parts(spec.z)
    qa, qb, qd = parts(spec.q.q)
    rows = spec.den_rows
    n = spec.n
    if pair is None:
        wd, weights = 1, None
    else:
        ya, yb, yd = ba, bb, bd = parts(pair)  # b q^{2k}
        ca, cb = bd - ba, -bb                  # 1 - b = (ca + cb i) / bd
        s = qd ** (2 * n)                      # d^{2(n-k)} at term k
        wd = s * (ca * ca + cb * cb)
        weights = [(wd, 0)]
        q2a, q2b, q2d = qa * qa - qb * qb, 2 * qa * qb, qd * qd
    ratios = []
    if n:
        cn, cd = qd, zd
        for row in rows:
            cn *= row[0][2]
        for x in xs:
            cd *= x[2]
        g = gcd(cn, cd)
        cn, cd = cn // g, cd // g
    u, v, m = 1, 0, 1                         # q^k = (u + v i) / m
    for k in range(n):
        u1, v1, m1 = u * qa - v * qb, u * qb + v * qa, m * qd
        na, nb = za, zb
        for xa, xb, xd in xs:
            fa = xd * m - xa * u + xb * v
            fb = -(xa * v + xb * u)
            na, nb = na * fa - nb * fb, na * fb + nb * fa
        da, db = m1 - u1, -v1
        for row in rows:
            fa, fb, _ = row[k]
            da, db = da * fa - db * fb, da * fb + db * fa
        for _ in range(e):
            na, nb = -(na * u - nb * v), -(na * v + nb * u)
        for _ in range(-e):
            da, db = -(da * u - db * v), -(da * v + db * u)
        # no zero test: 1 - q^{k+1} (|q| != 1), the guard-tested rows and
        # q^k are all nonzero, so their product is
        ra, rb = (na * da + nb * db) * cn, (nb * da - na * db) * cn
        rd = cd * (da * da + db * db)
        g = gcd(ra, rb, rd)
        ratios.append((ra // g, rb // g, rd // g))
        if pair is not None:
            ya, yb, yd = ya * q2a - yb * q2b, ya * q2b + yb * q2a, yd * q2d
            s //= q2d
            pa, pb = yd - ya, -yb
            weights.append(((pa * ca + pb * cb) * s, (pb * ca - pa * cb) * s))
        u, v, m = u1, v1, m1
    p = 1                                     # S_k = (sa + sb i) / (wd p)
    if pair is None:
        sa, sb = 1, 0
        for ra, rb, rd in reversed(ratios):
            p *= rd
            sa, sb = p + sa * ra - sb * rb, sa * rb + sb * ra
    else:
        sa, sb = weights[n]
        for k in range(n - 1, -1, -1):
            ra, rb, rd = ratios[k]
            wa, wb = weights[k]
            p *= rd
            sa, sb = wa * p + sa * ra - sb * rb, wb * p + sa * rb + sb * ra
    trace = TermTrace(_Steps(ratios, weights, wd))
    if pref is None:
        return from_parts(sa, sb, wd * p), trace
    fa, fb, fd = parts(as_scalar(pref, True))
    return from_parts(sa * fa - sb * fb, sa * fb + sb * fa, wd * p * fd), trace.scaled(pref)


def _float_kernel(spec, xs, e=0, pair=None, pref=None):
    """Value and trace of the series of :func:`_kernel` on the float
    backend, summed forward from the running term.

    Each step forms its small factors first (the ratio with z, then the
    sign factor (-q^k)^e) and only then multiplies the running term; for
    a very-well-poised series term k + 1 is the running term times the
    pair factor (1 - b q^{2k+2}) / (1 - b), b = ``pair``.  Term 0 is
    exactly one.  A prefactor ``pref`` multiplies the sum, as
    ``pref * value``, and is recorded in the trace.
    """
    q = spec.q.q
    one = one_like(q)
    z, rows = spec.z, spec.den_rows
    x0, rest = xs[0], xs[1:]
    if pair is not None:
        inv_1mb = one / (one - pair)
        q2k = one
    term = qk = one
    terms = [one]
    for k in range(spec.n):
        rnum = one - x0 * qk
        for x in rest:
            rnum = rnum * (one - x * qk)
        rden = one - q * qk
        for row in rows:
            rden = rden * row[k]
        if not rden:
            raise DenominatorPole("pole encountered inside the summation")
        factor = rnum / rden * z
        if e:
            factor = factor * pow_int(-qk, e)
        term = term * factor
        qk = qk * q
        if pair is None:
            terms.append(term)
        else:
            q2k = q2k * q * q
            terms.append(term * ((one - pair * q2k) * inv_1mb))
    value, trace = _trace(terms)
    if pref is None:
        return value, trace
    return pref * value, trace.scaled(pref)


def eval_phi(spec: SeriesSpec, pref=None):
    """Evaluate a terminating series by term-ratio recurrence: the
    fraction-free kernel on the exact backend, the float kernel on the
    float one.  Returns (value, TermTrace); with a prefactor ``pref``,
    (pref * value, trace.scaled(pref)).
    """
    kernel = _kernel if spec.q.exact else _float_kernel
    return kernel(spec, (pow_int(spec.q.q, -spec.n), *spec.num), spec.sign_exponent,
                  pref=pref)


def eval_phi_direct(spec: SeriesSpec):
    """Oracle evaluator: every term from fresh Pochhammer products."""
    q = spec.q.q
    n = spec.n
    qmn = pow_int(q, -n)
    e = spec.sign_exponent
    terms = []
    for k in range(n + 1):
        den = poch(q, q, k) * poch_list(spec.den, q, k)
        if not den:
            raise DenominatorPole("pole encountered inside the summation")
        t = poch(qmn, q, k) * poch_list(spec.num, q, k) / den
        if e:
            t = t * pow_int(-one_like(q), k * e) * pow_int(q, binom2(k) * e)
        t = t * pow_int(spec.z, k)
        terms.append(t)
    return _trace(terms)


def eval_w(spec: VwpSpec, pref=None):
    """Evaluate a terminating very-well-poised series (radical-free).

    The +-pair contributes (1 - b q^{2k})/(1 - b) per term; the remaining
    factors advance by a term-ratio recurrence, in the kernel of the
    backend.  Returns (value, TermTrace); with a prefactor ``pref``,
    (pref * value, trace.scaled(pref)).
    """
    kernel = _kernel if spec.q.exact else _float_kernel
    b = spec.b
    return kernel(spec, (b, pow_int(spec.q.q, -spec.n), *spec.lower), pair=b, pref=pref)


def eval_series(spec, pref=None):
    """:func:`eval_w` of a VwpSpec, :func:`eval_phi` of a SeriesSpec,
    with the prefactor ``pref`` if one is given: ``(pref * value,
    trace.scaled(pref))``, the one prefactor × series step that every
    representation and scaled contract takes.

    Both are looked up as module globals at each call, so a wrapper bound
    in their place sees every evaluation that passes through here.
    """
    return (eval_w if isinstance(spec, VwpSpec) else eval_phi)(spec, pref)


def eval_w_direct(spec: VwpSpec):
    """Oracle evaluator for the very-well-poised series."""
    q = spec.q.q
    one = one_like(q)
    n = spec.n
    b = spec.b
    qmn = pow_int(q, -n)
    terms = []
    for k in range(n + 1):
        den = poch(q, q, k) * poch(pow_int(q, n + 1) * b, q, k)
        den = den * poch_list([q * b / a for a in spec.lower], q, k)
        if not den:
            raise DenominatorPole("pole encountered inside the summation")
        t = poch(b, q, k) * poch(qmn, q, k) * poch_list(spec.lower, q, k) / den
        t = t * (one - b * pow_int(q, 2 * k)) / (one - b)
        t = t * pow_int(spec.z, k)
        terms.append(t)
    return _trace(terms)


def _require_nonzero(values, what: str):
    for v in values:
        if not v:
            raise ZeroParameter(f"{what} must be nonzero")


def _product(values, one):
    out = one
    for v in values:
        out = out * v
    return out


def invert_series(spec: SeriesSpec):
    """Reverse the order of summation of an (r+1) phi r series.

    Returns (prefactor, reversed_spec) with
    prefactor = (-z/q)^n q^{-binom(n,2)} (num;q)_n / (den;q)_n
    and reversed parameters q^{1-n}/den over q^{1-n}/num at argument
    (q^{n+1}/z) * prod(den)/prod(num).  Contract:
    eval_phi(spec) == prefactor * eval_phi(reversed_spec).

    For a balanced spec with z = q the reversed argument is q^2/z.
    """
    if len(spec.num) != len(spec.den):
        raise ShapeMismatch("summation reversal needs the (r+1) phi r shape")
    _require_nonzero(spec.num + spec.den + (spec.z,), "series parameters and argument")
    q = spec.q.q
    one = one_like(q)
    n = spec.n
    pref = poch_quotient(q, n, ((-spec.z / q, n), (q, -binom2(n))), spec.num,
                         den_rows=spec.den_rows)
    q1n = pow_int(q, 1 - n)
    new_num = [q1n / b for b in spec.den]
    new_den = [q1n / a for a in spec.num]
    z2 = pow_int(q, n + 1) / spec.z * _product(spec.den, one) / _product(spec.num, one)
    return pref, SeriesSpec(new_num, new_den, z2, spec.q, n)


def invert_w(spec: VwpSpec):
    """Summation reversal for a terminating very-well-poised series.

    Works for any width (lower lists of length r-3); the classical case
    is four lower parameters.  Returns (prefactor, reversed_spec) with
    reversed special parameter q^{-2n}/b, lower parameters q^{-n} a_k / b
    and argument q^{2n+r-3} b^{r-3} / ((a_5 ... a_{r+1})^2 z).  Contract:
    eval_w(spec) == prefactor * eval_w(reversed_spec).
    """
    _require_nonzero((spec.z,), "argument z")
    q = spec.q.q
    one = one_like(q)
    n = spec.n
    b = spec.b
    r = spec.r
    pair_ratio = (one - b * pow_int(q, 2 * n)) / (one - b)
    pref = poch_quotient(q, n, ((q, -binom2(n)), (-spec.z / q, n), (pair_ratio, 1)),
                         (b, *spec.lower), den_rows=spec.den_rows)
    new_b = pow_int(q, -2 * n) / b
    new_lower = [pow_int(q, -n) * a / b for a in spec.lower]
    prod_sq = _product(spec.lower, one)
    z2 = pow_int(q, 2 * n + r - 3) * pow_int(b, r - 3) / (prod_sq * prod_sq * spec.z)
    return pref, VwpSpec(new_b, new_lower, z2, spec.q, n)


def watson_whipple(spec: SeriesSpec):
    """Map a balanced terminating 4 phi 3 at argument q to an 8 W 7.

    Writing the spec as (a, b, c; d, e, f) with the balance condition
    q^{1-n} a b c = d e f, the result is

        prefactor (de/(ab), de/(ac);q)_n / (de/a, de/(abc);q)_n
        series    W(de/(qa); d/a, e/a, b, c; q, qa/f).

    The Pochhammer index of the prefactor is n (pinned against the direct
    summation oracle).  Contract: eval_phi(spec) == prefactor * eval_w(w).
    """
    if len(spec.num) != 3 or len(spec.den) != 3:
        raise ShapeMismatch("need a 4 phi 3 spec")
    _require_nonzero(spec.num + spec.den, "parameters")
    q = spec.q.q
    n = spec.n
    a, b, c = spec.num
    d, e, f = spec.den
    zq = spec.z - q
    bal = pow_int(q, 1 - n) * a * b * c - d * e * f
    if spec.q.exact:
        if zq:
            raise NotBalanced("argument must equal q")
        if bal:
            raise NotBalanced("balance condition q^{1-n} a b c = d e f fails")
    else:
        scale = abs(d * e * f) + abs(pow_int(q, 1 - n) * a * b * c)
        if abs(zq) > 1e-9 * max(abs(q), 1.0):
            raise NotBalanced("argument must equal q")
        if abs(bal) > 1e-9 * max(scale, 1.0):
            raise NotBalanced("balance condition q^{1-n} a b c = d e f fails")
    de = d * e
    pref = poch_quotient(q, n, (), (de / (a * b), de / (a * c)), (de / a, de / (a * b * c)))
    w = VwpSpec(de / (q * a), [d / a, e / a, b, c], q * a / f, spec.q, n)
    return pref, w


def connect_qinv(spec: SeriesSpec):
    """Both rewrites of an (r+1) phi r against the inverted base.

    Returns (base_inverted_spec, (prefactor, reversed_spec)) where the
    three expressions agree:

        eval_phi(spec) == eval_phi(base_inverted_spec)
                       == prefactor * eval_phi(reversed_spec)

    The base-inverted spec is :func:`qinvert_f` and the reversed form is
    :func:`invert_series`; their guards (ShapeMismatch, ZeroParameter)
    are this map's.
    """
    return qinvert_f(spec), invert_series(spec)


def qinvert_f(spec: SeriesSpec) -> SeriesSpec:
    """Rewrite a series on base q as one on base 1/q (and vice versa).

    Given a spec on base Q, returns the spec on base 1/Q with reciprocal
    parameter lists and argument (1/Q)^{n+1} * prod(num) * z / prod(den),
    whose series equals the given one with no correction factor:

        eval_phi(spec) == eval_phi(qinvert_f(spec)).

    Applying the map twice returns an equivalent spec.
    """
    _require_nonzero(spec.num + spec.den, "series parameters")
    one = one_like(spec.q.q)
    new_base = spec.q.inverse()
    z2 = (pow_int(new_base.q, spec.n + 1) * _product(spec.num, one) * spec.z
          / _product(spec.den, one))
    return SeriesSpec([one / a for a in spec.num], [one / b for b in spec.den],
                      z2, new_base, spec.n)
