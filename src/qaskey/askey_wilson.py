"""The four-parameter symmetric polynomial family and its seven
terminating series representations, plus the base-inverted family.

Parameters are carried as (a1, a2, a3, a4), the base q and the spectral
point w; the polynomial argument is x = (w + 1/w)/2, i.e. w plays the
role of the unit-circle exponential and both w and 1/w enter every
formula.  Carrying w instead of x keeps the exact backend radical-free
and extends evaluation off the real segment.

Three representations are plain terminating 4 phi 3 sums, four are
very-well-poised series.  All seven agree wherever their pole guards
admit the parameters; representations whose guard fails report the
violated constraint instead of a value.

The base-inverted family (the polynomial at base 1/q) is not typed out a
second time: each of its representations is the plain one at reciprocal
parameters times q^{-3 binom(n,2)} (-a1234)^n.  An :class:`AWParams`
builds that reciprocal point, its w-flipped twin and the factor once, on
first use, and every base-inverted evaluation at the point shares them:
the seven representations of :func:`eval_qinv_all`, :func:`eval_qinv_rep`
and :func:`check_qinv_scaling`.  :func:`eval_qinv_direct` stays an
independent oracle for the family, substituting 1/q into the standard
representation.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from math import inf

from .arithmetic import (
    GuardViolation,
    QBase,
    QError,
    _Frozen,
    _set,
    as_scalar,
    binom2,
    one_like,
    pow_int,
    spread,
)
from .qpochhammer import poch_quotient
from .qseries import SeriesSpec, TermTrace, VwpSpec, ZeroParameter, eval_scaled


class PoleGuard(GuardViolation):
    """A representation-specific admissibility constraint failed."""


class InvalidIndices(QError):
    """The role indices (p, r, t, u) are not a permutation of 1..4."""


class RepTag(str, Enum):
    """The seven representation shapes, in catalogue order."""

    PHI_STD = "phi-std"
    PHI_INV = "phi-inv"
    PHI_MIXED = "phi-mixed"
    W_DEF6 = "w-def6"
    W_DEF7 = "w-def7"
    W_DEF5 = "w-def5"
    W_DEF4 = "w-def4"


class RepId(_Frozen):
    """A representation tag plus its role indices.

    PHI_STD and PHI_INV use only p; the mixed and very-well-poised shapes
    use all four roles.  Unspecified roles are filled with the unused
    indices in ascending order.
    """

    __slots__ = ("tag", "p", "r", "t", "u")

    def __init__(self, tag: RepTag, p: int = 1, r: int | None = None,
                 t: int | None = None, u: int | None = None):
        given = [v for v in (p, r, t, u) if v is not None]
        if any(v not in (1, 2, 3, 4) for v in given) or len(set(given)) != len(given):
            raise InvalidIndices("roles must be distinct members of {1,2,3,4}")
        free = [k for k in (1, 2, 3, 4) if k not in given]
        _set(self, "tag", tag)
        _set(self, "p", p)
        _set(self, "r", free.pop(0) if r is None else r)
        _set(self, "t", free.pop(0) if t is None else t)
        _set(self, "u", free.pop(0) if u is None else u)

    def __eq__(self, other):
        if type(other) is not RepId:
            return NotImplemented
        return (self.tag, *self.roles) == (other.tag, *other.roles)

    def __hash__(self):
        return hash((self.tag, *self.roles))

    @property
    def roles(self) -> tuple[int, int, int, int]:
        return (self.p, self.r, self.t, self.u)


ALL_REPS = tuple(RepId(tag) for tag in RepTag)
_DEFAULT_REPS = {rep.tag: rep for rep in ALL_REPS}


class AWParams(_Frozen):
    """The four nonzero parameters, the base, the spectral point w and
    the degree n.  The values formed on first use are kept in the
    instance ``__dict__``."""

    __slots__ = ("a", "q", "w", "n", "__dict__")

    def __init__(self, a, q: QBase, w, n: int):
        if len(a) != 4:
            raise ValueError("exactly four parameters required")
        if n < 0:
            raise ValueError("degree n must be >= 0")
        exact = q.exact
        a = tuple(as_scalar(v, exact) for v in a)
        w = as_scalar(w, exact)
        if not all(a):
            raise ZeroParameter("all four parameters must be nonzero")
        if not w:
            raise ZeroParameter("the spectral point w must be nonzero")
        _set(self, "a", a)
        _set(self, "q", q)
        _set(self, "w", w)
        _set(self, "n", n)

    def __repr__(self):
        return f"AWParams(a={self.a!r}, q={self.q!r}, w={self.w!r}, n={self.n!r})"

    def ak(self, k: int):
        return self.a[k - 1]

    @cached_property
    def a1234(self):
        """a1 a2 a3 a4, formed on first use."""
        return self.a[0] * self.a[1] * self.a[2] * self.a[3]

    @cached_property
    def wi(self):
        """1/w, formed on first use."""
        return one_like(self.w) / self.w

    @property
    def x(self):
        return (self.w + self.wi) / 2

    def with_w(self, w) -> "AWParams":
        return AWParams(self.a, self.q, w, self.n)

    def flip_w(self) -> "AWParams":
        """The point at 1/w.  Its own 1/w is this w, not 1/(1/w), which
        on the float backend can differ in the last bit."""
        flipped = self.with_w(self.wi)
        flipped.__dict__["wi"] = self.w     # seeds the cached_property
        return flipped

    def permuted(self, perm) -> "AWParams":
        """New params with a_k := a_{perm[k]} (perm is 1-based, length 4)."""
        if sorted(perm) != [1, 2, 3, 4]:
            raise InvalidIndices("perm must be a permutation of 1..4")
        return AWParams(tuple(self.a[j - 1] for j in perm), self.q, self.w, self.n)

    def reciprocal(self) -> "AWParams":
        one = one_like(self.w)
        return AWParams(tuple(one / v for v in self.a), self.q, self.w, self.n)

    @cached_property
    def _qinv_point(self):
        """(reciprocal point, the same with w -> 1/w, q^{-3 binom(n,2)}
        (-a1234)^n): what every base-inverted build at this point needs,
        formed on first use and then shared.  The factor is one product, so
        that on float neither power underflows or overflows on its own."""
        recip = self.reciprocal()
        flipped = recip.flip_w()
        q, n = self.q.q, self.n
        factor = poch_quotient(q, n, ((q, -3 * binom2(n)), (-self.a1234, n)))
        return recip, flipped, factor


def _build(params: AWParams, rep: RepId, lead=()):
    """(prefactor, series spec) for one representation.

    ``lead`` is a tuple of further prefactor factors for
    :func:`~qaskey.qpochhammer.poch_quotient`.
    """
    q = params.q.q
    n = params.n
    w = params.w
    wi = params.wi
    p, r, t, u = rep.roles
    ap, ar, at, au = (params.ak(k) for k in rep.roles)
    a1234 = params.a1234
    others = (r, t, u)
    aps = [ap * params.ak(s) for s in others]
    tag = rep.tag

    if tag is RepTag.PHI_STD:
        spec = SeriesSpec([pow_int(q, n - 1) * a1234, ap * w, ap * wi],
                          aps, q, params.q, n)
        return poch_quotient(q, n, lead + ((ap, -n),), num_rows=spec.den_rows), spec

    if tag is RepTag.PHI_INV:
        # (a1234/q;q)_{2n} / (a1234/q;q)_n collapses to (a1234 q^{n-1};q)_n
        pref = poch_quotient(q, n, lead + ((q, -binom2(n)), (-ap, -n)),
                             (a1234 * pow_int(q, n - 1), ap * w, ap * wi))
        q1n = pow_int(q, 1 - n)
        spec = SeriesSpec([q1n / x for x in aps],
                          [pow_int(q, 2 - 2 * n) / a1234, q1n * w / ap, q1n * wi / ap],
                          q, params.q, n)
        return pref, spec

    if tag is RepTag.PHI_MIXED:
        q1n = pow_int(q, 1 - n)
        pref = poch_quotient(q, n, lead + ((w, n),), (ap * ar, at * wi, au * wi))
        spec = SeriesSpec([ap * w, ar * w, q1n / (at * au)],
                          [ap * ar, q1n * w / at, q1n * w / au], q, params.q, n)
        return pref, spec

    if tag is RepTag.W_DEF6:
        # trailing quotient collapses to 1 / (a1234 q^{n-1} / (ap w);q)_n
        top = a1234 * pow_int(q, n - 1)
        pref = poch_quotient(q, n, lead + ((w, n),),
                             (top, [params.ak(s) * wi for s in others]),
                             (top / (ap * w),), pole=PoleGuard,
                             message="pole guard failed: (q^{n-1} a1234 / (a_p w);q)_n = 0")
        spec = VwpSpec(pow_int(q, 1 - 2 * n) * ap * w / a1234,
                       [pow_int(q, 1 - n) * x / a1234 for x in aps] + [ap * w],
                       q * w / ap, params.q, n)
        return pref, spec

    if tag is RepTag.W_DEF7:
        pref = poch_quotient(q, n, lead + ((w, n),), (ap * wi, [a1234 / x for x in aps]),
                             (a1234 * w / ap,), pole=PoleGuard,
                             message="pole guard failed: (a1234 w / a_p;q)_n = 0")
        spec = VwpSpec(a1234 * w / (q * ap),
                       [params.ak(s) * w for s in others] + [pow_int(q, n - 1) * a1234],
                       q * wi / ap, params.q, n)
        return pref, spec

    if tag is RepTag.W_DEF5:
        pref = poch_quotient(q, n, lead + ((ap, -n),),
                             (ap * at, ap * au, ar * w, ar * wi), (ar / ap,), pole=PoleGuard,
                             message="pole guard failed: (a_r / a_p;q)_n = 0")
        q1n = pow_int(q, 1 - n)
        spec = VwpSpec(pow_int(q, -n) * ap / ar,
                       [q1n / (ar * at), q1n / (ar * au), ap * w, ap * wi],
                       pow_int(q, n) * at * au, params.q, n)
        return pref, spec

    if tag is RepTag.W_DEF4:
        pref = poch_quotient(q, n, lead + ((w, n),), ([v * wi for v in params.a],),
                             (wi * wi,), pole=PoleGuard,
                             message="pole guard failed: (1/w^2;q)_n = 0")
        spec = VwpSpec(pow_int(q, -n) * w * w, [v * w for v in params.a],
                       pow_int(q, 2 - n) / a1234, params.q, n)
        return pref, spec

    raise InvalidIndices(f"unknown representation tag {tag!r}")


# tags whose base-inverted build also takes w -> 1/w
_QINV_FLIPS_W = frozenset((RepTag.PHI_MIXED, RepTag.W_DEF4, RepTag.W_DEF6, RepTag.W_DEF7))


def _build_qinv(params: AWParams, rep: RepId):
    """(prefactor, series spec) for one base-inverted representation.

    Derived from :func:`_build` by the reciprocal-parameter scaling law

        p_n(w; a | 1/q) = q^{-3 binom(n,2)} (-a1234)^n p_n(w; 1/a | q),

    where phi-mixed, w-def4, w-def6 and w-def7 also take w -> 1/w, which
    leaves the polynomial unchanged.  The substituted points and the
    factor come from ``params``, which builds them once.  A pole guard
    names its constraint in the substituted parameters and says so.
    """
    recip, flipped, factor = params._qinv_point
    where = "a -> 1/a"
    if rep.tag in _QINV_FLIPS_W:
        recip = flipped
        where = "a -> 1/a, w -> 1/w"
    try:
        return _build(recip, rep, (factor,))
    except PoleGuard as exc:
        raise PoleGuard(f"at {where}: {exc}") from exc


def _as_rep(rep) -> RepId:
    if isinstance(rep, RepId):
        return rep
    return _DEFAULT_REPS[RepTag(rep)]


def _evaluate(params, rep, builder):
    rep = _as_rep(rep)
    try:
        pref, spec = builder(params, rep)
    except PoleGuard:
        raise
    except GuardViolation as exc:
        raise PoleGuard(f"{rep.tag.value}: {exc}") from exc
    return eval_scaled(pref, spec)


def rep_series(params: AWParams, rep):
    """(prefactor, raw series spec) of one representation, unevaluated.

    Useful for structural arguments, e.g. applying a series transformation
    to a representation and recognizing the result as another one.
    """
    return _build(params, _as_rep(rep))


def qinv_rep_series(params: AWParams, rep):
    """(prefactor, raw series spec) of one base-inverted representation."""
    return _build_qinv(params, _as_rep(rep))


def eval_rep(params: AWParams, rep) -> tuple[object, TermTrace]:
    """Evaluate one representation; all seven return the same value on
    admissible parameters."""
    return _evaluate(params, rep, _build)


def eval_qinv_rep(params: AWParams, rep) -> tuple[object, TermTrace]:
    """Evaluate one representation of the polynomial at base 1/q."""
    return _evaluate(params, rep, _build_qinv)


class EvalReport(_Frozen):
    """Outcome of evaluating several representations on one draw.

    ``traces`` holds the term trace of each value; ``scale``, the largest
    of their ``abs_scale``, is formed each time it is read.  A modulus
    above the float range reads as ``inf`` in ``scale`` and
    ``rel_deviation``.
    """

    __slots__ = ("values", "skipped", "max_deviation", "traces", "exact", "all_agree")

    def __init__(self, values: dict, skipped: dict, max_deviation: float, traces: tuple,
                 exact: bool, all_agree: bool):
        _set(self, "values", values)
        _set(self, "skipped", skipped)
        _set(self, "max_deviation", max_deviation)
        _set(self, "traces", traces)
        _set(self, "exact", exact)
        _set(self, "all_agree", all_agree)

    @property
    def scale(self) -> float:
        return max([0.0, *(trace.abs_scale for trace in self.traces)])

    @property
    def rel_deviation(self) -> float:
        if not self.values:
            return 0.0
        try:
            m = max(abs(v) for v in self.values.values())
        except OverflowError:
            m = inf
        return self.max_deviation / m if m > 0 else self.max_deviation


def _report(params, reps, evaluator) -> EvalReport:
    values = {}
    skipped = {}
    traces = []
    for rep in reps:
        rep = _as_rep(rep)
        try:
            value, trace = evaluator(params, rep)
        except PoleGuard as exc:
            skipped[rep.tag.value] = str(exc)
            continue
        values[rep.tag.value] = value
        traces.append(trace)
    exact = params.q.exact
    all_agree, max_dev = spread(list(values.values()), exact)
    return EvalReport(values, skipped, max_dev, tuple(traces), exact, all_agree)


def eval_all(params: AWParams) -> EvalReport:
    """Evaluate every admissible representation and report the values,
    the maximum pairwise deviation and the combined cancellation scale.

    Representations whose guard fails are reported as skipped with the
    violated constraint; the remaining subset is still evaluated."""
    return _report(params, ALL_REPS, eval_rep)


def eval_qinv_all(params: AWParams) -> EvalReport:
    """Seven-way report for the base-inverted family."""
    return _report(params, ALL_REPS, eval_qinv_rep)


def eval_qinv_direct(params: AWParams) -> tuple[object, TermTrace]:
    """Independent oracle for the base-inverted value: substitute 1/q
    directly into the standard representation and evaluate on base 1/q."""
    qi = params.q.inverse()
    q = qi.q
    n = params.n
    w = params.w
    ap = params.ak(1)
    aps = [ap * params.ak(s) for s in (2, 3, 4)]
    spec = SeriesSpec([pow_int(q, n - 1) * params.a1234, ap * w, ap / w],
                      aps, q, qi, n)
    return eval_scaled(poch_quotient(q, n, ((ap, -n),), num_rows=spec.den_rows), spec)


def _qinv_scaling(params: AWParams) -> list:
    """The three (value, trace) pairs that :func:`check_qinv_scaling`
    compares: the direct oracle, the derived base-inverted standard
    representation, and the factor times phi-mixed at the w-flipped
    reciprocal point."""
    direct = eval_qinv_direct(params)
    derived = eval_qinv_rep(params, RepTag.PHI_STD)
    _, flipped, factor = params._qinv_point
    # phi-mixed, not phi-std: at 1/w the phi-std series only swaps a_p w
    # and a_p / w, so the second difference would repeat the first
    v2, t2 = eval_rep(flipped, RepTag.PHI_MIXED)
    return [direct, derived, (factor * v2, t2.scaled(factor))]


def check_qinv_scaling(params: AWParams):
    """Both equalities of the reciprocal-parameter scaling law.

    Returns the pair of differences

        p(w; a | 1/q) - q^{-3 binom(n,2)} (-a1234)^n p(w;    1/a | q)
        p(w; a | 1/q) - q^{-3 binom(n,2)} (-a1234)^n p(1/w; 1/a | q)

    both of which are zero on admissible draws.  The left side is the
    independent oracle :func:`eval_qinv_direct`, not the derived family.
    The first right side is the derived standard representation
    (:func:`eval_qinv_rep`), whose prefactor takes the factor with its
    Pochhammer products; the second multiplies the factor into the plain
    mixed representation (phi-mixed) at the w-flipped reciprocal point,
    a different series from the first wherever w^2 != 1.
    """
    (lhs, _), (ref, _), (right, _) = _qinv_scaling(params)
    return lhs - ref, lhs - right
