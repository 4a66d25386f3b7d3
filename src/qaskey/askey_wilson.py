"""The four-parameter symmetric polynomial family: its seven terminating
series representations and the base-inverted family.

Parameters are (a1, a2, a3, a4), the base q and the spectral point w; the
argument is x = (w + 1/w)/2, so the exact backend stays radical-free.
Each representation is one row of ``_ROWS``, the printed form of a side
in the series language of :mod:`~qaskey.labels`, with role placeholders
{p}, {r}, {t}, {u} that a :class:`RepId` fills; :func:`eval_rep`
evaluates its cached :class:`~qaskey.labels.Side` as a catalogue side is
evaluated.  All seven agree wherever their guards admit the parameters.
The base-inverted family is each row under the substitution a -> 1/a,
and w -> 1/w where the row says so, times q^{-3 binom(n,2)} (-a1234)^n;
:func:`eval_qinv_direct` stays an independent, hand-written oracle.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, cached_property
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
from .labels import Draw, _factor, parse_side, substituted
from .qpochhammer import poch_quotient
from .qseries import SeriesSpec, TermTrace, ZeroParameter, eval_series


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

    __slots__ = ("tag", "p", "r", "t", "u", "_hash")

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
        _set(self, "_hash", hash((tag, *self.roles)))    # each evaluation looks it up

    def __eq__(self, other):
        if type(other) is not RepId:
            return NotImplemented
        return (self.tag, *self.roles) == (other.tag, *other.roles)

    def __hash__(self):
        return self._hash

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

    @cached_property
    def _draw(self) -> Draw:
        """The draw, over the slots a, b, c, d (a1..a4) and w, that every
        representation here evaluates on; its 1/w is ``wi``."""
        d = Draw(self.q, self.n, dict(zip("abcdw", (*self.a, self.w))))
        d.memo[_factor("1/w").key] = self.wi
        return d


# each representation's printed form, {p}, {r}, {t}, {u} standing for the
# slots of its RepId's roles, and whether base inversion flips w
_ROWS = {
    RepTag.PHI_STD: ("{p}^-n * ({p}{r},{p}{t},{p}{u};q)_n"
                     " * phi(q^{{n-1}}abcd, {p}w, {p}/w; {p}{r}, {p}{t}, {p}{u} | q, q)", False),
    RepTag.PHI_INV: ("q^-C(n,2) (-{p})^-n * (q^{{n-1}}abcd,{p}w,{p}/w;q)_n * phi("
                     "q^{{1-n}}/{p}{r}, q^{{1-n}}/{p}{t}, q^{{1-n}}/{p}{u}; q^{{2-2n}}/abcd, "
                     "q^{{1-n}}w/{p}, q^{{1-n}}/{p}w | q, q)", False),
    RepTag.PHI_MIXED: ("w^n * ({p}{r},{t}/w,{u}/w;q)_n * phi({p}w, {r}w, q^{{1-n}}/{t}{u};"
                       " {p}{r}, q^{{1-n}}w/{t}, q^{{1-n}}w/{u} | q, q)", True),
    RepTag.W_DEF6: ("w^n * (q^{{n-1}}abcd,{r}/w,{t}/w,{u}/w;q)_n/(q^{{n-1}}{r}{t}{u}/w;q)_n"
                    " * W(q^{{1-2n}}w/{r}{t}{u}; q^{{1-n}}/{t}{u}, q^{{1-n}}/{r}{u},"
                    " q^{{1-n}}/{r}{t}, {p}w | q, qw/{p})", True),
    RepTag.W_DEF7: ("w^n * ({p}/w,{t}{u},{r}{u},{r}{t};q)_n/({r}{t}{u}w;q)_n"
                    " * W({r}{t}{u}w/q; {r}w, {t}w, {u}w, q^{{n-1}}abcd | q, q/{p}w)", True),
    RepTag.W_DEF5: ("{p}^-n * ({p}{t},{p}{u},{r}w,{r}/w;q)_n/({r}/{p};q)_n * W(q^-n {p}/{r};"
                    " q^{{1-n}}/{r}{t}, q^{{1-n}}/{r}{u}, {p}w, {p}/w | q, q^n {t}{u})", False),
    RepTag.W_DEF4: ("w^n * (a/w,b/w,c/w,d/w;q)_n/(1/w^2;q)_n"
                    " * W(q^-n w^2; aw, bw, cw, dw | q, q^{{2-n}}/abcd)", True),
}

# p_n(w; a | 1/q) = q^{-3C(n,2)} (-abcd)^n p_n(w; 1/a | q), and w -> 1/w
# leaves the polynomial unchanged
_QINV = "(a,b,c,d) -> (1/a, 1/b, 1/c, 1/d)"
_QINV_W = "(a,b,c,d,w) -> (1/a, 1/b, 1/c, 1/d, 1/w)"
_QINV_POWER = "q^-3C(n,2) (-abcd)^n"


@cache
def _rep_side(rep: RepId, inverted: bool) -> tuple:
    """(Side, the name its guard messages carry) of a row or its twin."""
    row, flips_w = _ROWS[rep.tag]
    text = row.format(**dict(zip("prtu", ("abcd"[k - 1] for k in rep.roles))))
    if not inverted:
        return parse_side(text), rep.tag.value
    sub = _QINV_W if flips_w else _QINV
    return parse_side(f"{_QINV_POWER} {substituted(sub, text)}"), f"{rep.tag.value} at {sub}"


def _as_rep(rep) -> RepId:
    if isinstance(rep, RepId):
        return rep
    return _DEFAULT_REPS[RepTag(rep)]


def _evaluate(params, rep, inverted: bool):
    side, name = _rep_side(_as_rep(rep), inverted)
    try:
        return side.evaluate(params._draw)
    except GuardViolation as exc:
        raise PoleGuard(f"{name}: {exc}") from exc


def eval_rep(params: AWParams, rep) -> tuple[object, TermTrace]:
    """Evaluate one representation; all seven return the same value on
    admissible parameters."""
    return _evaluate(params, rep, False)


def eval_qinv_rep(params: AWParams, rep) -> tuple[object, TermTrace]:
    """Evaluate one representation of the polynomial at base 1/q."""
    return _evaluate(params, rep, True)


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
    ap = params.a[0]
    aps = [ap * x for x in params.a[1:]]
    spec = SeriesSpec([pow_int(q, n - 1) * params.a1234, ap * w, ap / w],
                      aps, q, qi, n)
    return eval_series(spec, poch_quotient(q, n, ((ap, -n),), num_rows=spec.den_rows))


def _qinv_scaling(params: AWParams) -> list:
    """The three (value, trace) pairs that :func:`check_qinv_scaling`
    compares: the direct oracle, the derived base-inverted standard
    representation, and the factor times phi-mixed at the w-flipped
    reciprocal point."""
    direct = eval_qinv_direct(params)
    derived = eval_qinv_rep(params, RepTag.PHI_STD)
    q, n = params.q.q, params.n
    # one product, so that on float neither power underflows or overflows
    # on its own
    factor = poch_quotient(q, n, ((q, -3 * binom2(n)), (-params.a1234, n)))
    # phi-mixed, not phi-std: at 1/w the phi-std series only swaps a_p w
    # and a_p / w, so the second difference would repeat the first
    recip = AWParams(tuple(one_like(q) / v for v in params.a), params.q, params.w, n)
    v2, t2 = eval_rep(recip.flip_w(), RepTag.PHI_MIXED)
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
