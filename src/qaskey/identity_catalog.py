"""The catalogue of terminating-series transformation identities.

Each record equates a head series with one printed sibling expression
(prefactor times series) over the five free slots b, c, d, e, f plus the
base q and degree n.  Families:

* ``cor3.3/*``  -- ten siblings of the principal very-well-poised head
  whose argument is coupled to q^{n+2} b^2/(cdef);
* ``cor3.5/*``  -- eleven parameter-interchange transformations of a
  very-well-poised series with free argument structure ef/b;
* ``cor3.6/*``, ``cor3.8/*``, ``cor3.10/*`` -- interchange families of
  three further shapes;
* ``rem3.6/a7``, ``rem3.8/a4``, ``rem3.10/a6b`` -- the substitutions that
  transport each interchange family onto its sibling family.  The head of
  the substituted family coincides with the sibling series exactly (the
  linking multiplier is 1), so the record checks the transported
  first-interchange identity.

Prefactors are stored as lists of named factors (each a base of an
index-n Pochhammer product) so that a record suspected of a transcription
slip can be searched for a minimal single-factor correction.  One record,
``cor3.8/r6``, ships QUARANTINED: its printed prefactor fails the exact
sweep systematically and the automated search pins the unique repair
``qb/de -> qb/cd`` in the denominator.  Both variants are kept and
reported.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from enum import Enum

from .arithmetic import (
    ABS_TOL,
    COND_CAP,
    GuardViolation,
    QBase,
    QError,
    REL_TOL,
    binom2,
    is_zero,
    one_like,
    pow_int,
    spread,
)
from .askey_wilson import AWParams, RepId, RepTag
from .qpochhammer import poch, poch_list
from .qseries import DenominatorPole, SeriesSpec, VwpSpec, eval_phi, eval_w


class NotACor33Record(QError):
    """Derivations from the polynomial family exist only for cor3.3/*."""


class Verdict(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"
    SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class Draw:
    """A concrete slot assignment for one check."""

    q: QBase
    n: int
    slots: dict


class _S:
    """Resolved slot view handed to the record evaluators."""

    __slots__ = ("qbase", "n", "q", "b", "c", "d", "e", "f", "one", "qb", "qmn")

    def __init__(self, draw: Draw):
        self.qbase = draw.q
        self.n = draw.n
        self.q = draw.q.q
        for k in "bcdef":
            setattr(self, k, draw.slots[k])
        self.one = one_like(self.q)
        self.qb = self.q * self.b
        self.qmn = pow_int(self.q, -draw.n)

    def qp(self, k: int):
        return pow_int(self.q, k)


@dataclass(frozen=True)
class Factor:
    """A named base of an index-n Pochhammer factor."""

    label: str
    fn: object

    def __repr__(self):
        return f"Factor({self.label!r})"


@dataclass(frozen=True)
class Side:
    """One side of a record: scalar power * Pochhammer ratio * series."""

    series_label: str
    series: object                      # callable (_S) -> SeriesSpec | VwpSpec
    pref_num: tuple = ()
    pref_den: tuple = ()
    power: object = None                # callable (_S) -> scalar, or None
    power_label: str = ""

    def evaluate(self, s: _S):
        """Return (value, cancellation scale); guard failures raise."""
        den = poch_list([fac.fn(s) for fac in self.pref_den], s.qbase, s.n)
        if is_zero(den):
            raise DenominatorPole("prefactor pole: a denominator Pochhammer vanished")
        pref = poch_list([fac.fn(s) for fac in self.pref_num], s.qbase, s.n) / den
        if self.power is not None:
            pref = pref * self.power(s)
        spec = self.series(s)
        value, trace = (eval_w if isinstance(spec, VwpSpec) else eval_phi)(spec)
        return pref * value, abs(pref) * trace.abs_scale

    def describe(self) -> str:
        bits = []
        if self.power_label:
            bits.append(self.power_label)
        if self.pref_num or self.pref_den:
            num = ",".join(fac.label for fac in self.pref_num) or "1"
            den = ",".join(fac.label for fac in self.pref_den)
            bits.append(f"({num};q)_n/({den};q)_n" if den else f"({num};q)_n")
        bits.append(self.series_label)
        return " * ".join(bits)


@dataclass(frozen=True)
class QuarantineInfo:
    reason: str
    correction: str
    printed_rhs: Side


@dataclass(frozen=True)
class IdentityRecord:
    """A catalogued identity: lhs(draw) == rhs(draw) on admissible draws."""

    id: str
    ref: str
    lhs: Side
    rhs: Side
    constraint_summary: str
    substitution: object = None         # callable (_S) -> slot dict, or None
    sibling_series: object = None       # head image under the substitution
    quarantine: QuarantineInfo | None = None

    @property
    def slots(self) -> tuple:
        return ("b", "c", "d", "e", "f")


@dataclass(frozen=True)
class CheckOutcome:
    verdict: Verdict
    deviation: float
    scale: float
    exact: bool
    guard: str | None = None


# a float check that overflowed or met a value that is not finite
_UNRESOLVED = CheckOutcome(Verdict.INCONCLUSIVE, 0.0, 0.0, False)


def judge(values, scale: float, exact: bool, *, rel_tol: float = REL_TOL,
          abs_tol: float = ABS_TOL, cond_cap: float = COND_CAP) -> CheckOutcome:
    """The verdict on a family of values that must agree.

    Exact values PASS iff all are equal.  Float values PASS when their
    largest pairwise deviation is at most ``rel_tol`` times the
    cancellation ``scale`` (raised to the values' magnitudes) plus
    ``abs_tol``; else they are INCONCLUSIVE if the scale exceeds the
    magnitudes by more than ``cond_cap``, and FAIL.  A value that is not
    finite makes the check INCONCLUSIVE with deviation 0.0.
    """
    exact_zero, max_dev = spread(values, exact)
    mags = max(map(abs, values))
    scale = max(scale, mags)
    if exact:
        verdict = Verdict.PASS if exact_zero else Verdict.FAIL
        return CheckOutcome(verdict, max_dev, scale, True)
    if not all(map(cmath.isfinite, values)):
        # max() above skips a NaN, so such values could read as agreeing
        return _UNRESOLVED
    if max_dev <= rel_tol * scale + abs_tol:
        return CheckOutcome(Verdict.PASS, max_dev, scale, False)
    if scale / max(mags, abs_tol) > cond_cap:
        return CheckOutcome(Verdict.INCONCLUSIVE, max_dev, scale, False)
    return CheckOutcome(Verdict.FAIL, max_dev, scale, False)


def _fac(label: str, fn) -> Factor:
    return Factor(label, fn)


# ---------------------------------------------------------------------------
# factor vocabulary over the slots
# ---------------------------------------------------------------------------

_F = {
    "qb": _fac("qb", lambda s: s.qb),
    "b": _fac("b", lambda s: s.b),
    "q^n b": _fac("q^n b", lambda s: s.qp(s.n) * s.b),
}
for _x in "cdef":
    _F[_x] = _fac(_x, lambda s, x=_x: getattr(s, x))
    _F[f"qb/{_x}"] = _fac(f"qb/{_x}", lambda s, x=_x: s.qb / getattr(s, x))
    _F[f"q^{{1-n}}/{_x}"] = _fac(
        f"q^{{1-n}}/{_x}", lambda s, x=_x: s.qp(1 - s.n) / getattr(s, x))
    _F[f"q^{{-n}}{_x}/b"] = _fac(
        f"q^{{-n}}{_x}/b", lambda s, x=_x: s.qmn * getattr(s, x) / s.b)
for _x in "cdef":
    for _y in "cdef":
        if _x != _y:
            _F[f"{_x}/{_y}"] = _fac(
                f"{_x}/{_y}",
                lambda s, x=_x, y=_y: getattr(s, x) / getattr(s, y))
for _x, _y in ("cd", "ce", "cf", "de", "df", "ef", "dc", "ed", "ec", "fd", "fe", "fc"):
    _F[f"qb/{_x}{_y}"] = _fac(
        f"qb/{_x}{_y}",
        lambda s, x=_x, y=_y: s.qb / (getattr(s, x) * getattr(s, y)))
    _F[f"q^{{-n}}{_x}{_y}/b"] = _fac(
        f"q^{{-n}}{_x}{_y}/b",
        lambda s, x=_x, y=_y: s.qmn * getattr(s, x) * getattr(s, y) / s.b)

_F["qb/def"] = _fac("qb/def", lambda s: s.qb / (s.d * s.e * s.f))
_F["def/qb"] = _fac("def/qb", lambda s: s.d * s.e * s.f / s.qb)
_F["q2b2/cdef"] = _fac("q2b2/cdef",
                       lambda s: s.qp(2) * s.b * s.b / (s.c * s.d * s.e * s.f))
_F["q2b2/def"] = _fac("q2b2/def", lambda s: s.qp(2) * s.b * s.b / (s.d * s.e * s.f))
_F["qb2/def"] = _fac("qb2/def", lambda s: s.qb * s.b / (s.d * s.e * s.f))
_F["q^{n+1}b2/def"] = _fac("q^{n+1}b2/def",
                           lambda s: s.qp(s.n + 1) * s.b * s.b / (s.d * s.e * s.f))


def _fs(*labels):
    return tuple(_F[label] for label in labels)


# ---------------------------------------------------------------------------
# series shapes
# ---------------------------------------------------------------------------

def _cdef(s):
    return s.c * s.d * s.e * s.f


def _head33_series(s):
    return VwpSpec(s.b, [s.c, s.d, s.e, s.f],
                   s.qp(s.n + 2) * s.b * s.b / _cdef(s), s.qbase, s.n)


def _w35(x: str, y: str, u: str, v: str):
    """W(q^-n X/Y; q^-n X/b, qb/YU, qb/YV, X | q, UV/b) over slot names."""

    def series(s):
        X, Y, U, V = (getattr(s, k) for k in (x, y, u, v))
        return VwpSpec(s.qmn * X / Y,
                       [s.qmn * X / s.b, s.qb / (Y * U), s.qb / (Y * V), X],
                       U * V / s.b, s.qbase, s.n)

    return series


def _w36(x: str, o1: str, o2: str, o3: str):
    """W(qb^2/(O1 O2 O3); qb/O1O2, qb/O1O3, qb/O2O3, X | q, q^{n+1} b/X)."""

    def series(s):
        X, A, B, C = (getattr(s, k) for k in (x, o1, o2, o3))
        return VwpSpec(s.qb * s.b / (A * B * C),
                       [s.qb / (A * B), s.qb / (A * C), s.qb / (B * C), X],
                       s.qp(s.n + 1) * s.b / X, s.qbase, s.n)

    return series


def _p38(x: str, y: str, u: str, v: str):
    """phi(q^-n, qb/UV, X, Y; q^-n XY/b, qb/U, qb/V | q, q)."""

    def series(s):
        X, Y, U, V = (getattr(s, k) for k in (x, y, u, v))
        return SeriesSpec([s.qb / (U * V), X, Y],
                          [s.qmn * X * Y / s.b, s.qb / U, s.qb / V],
                          s.q, s.qbase, s.n)

    return series


def _p310(x: str, o1: str, o2: str, o3: str):
    """phi(q^-n, qb/XO1, qb/XO2, qb/XO3; q2b2/cdef, q^{1-n}/X, qb/X | q, q)."""

    def series(s):
        X, A, B, C = (getattr(s, k) for k in (x, o1, o2, o3))
        return SeriesSpec([s.qb / (X * A), s.qb / (X * B), s.qb / (X * C)],
                          [s.qp(2) * s.b * s.b / (X * A * B * C),
                           s.qp(1 - s.n) / X, s.qb / X],
                          s.q, s.qbase, s.n)

    return series


def _s35a7_series(s):
    return VwpSpec(s.qp(-s.n - 1) * s.d * s.e * s.f / s.b,
                   [s.d, s.e, s.f, s.qp(-s.n - 1) * _cdef(s) / (s.b * s.b)],
                   s.q / s.c, s.qbase, s.n)


def _s35a4_series(s):
    return SeriesSpec([s.qmn * s.c / s.b, s.qmn * s.d / s.b, s.qb / (s.e * s.f)],
                      [s.qmn * s.c * s.d / s.b, s.qp(1 - s.n) / s.e,
                       s.qp(1 - s.n) / s.f],
                      s.q, s.qbase, s.n)


def _s35a6b_series(s):
    return SeriesSpec([s.qp(-s.n - 1) * _cdef(s) / (s.b * s.b),
                       s.qmn * s.c / s.b, s.c],
                      [s.qmn * s.c * s.d / s.b, s.qmn * s.c * s.e / s.b,
                       s.qmn * s.c * s.f / s.b],
                      s.q, s.qbase, s.n)


_HEAD33 = Side("W(b; c,d,e,f | q, q^{n+2}b^2/cdef)", _head33_series)
_HEAD35 = Side("W(q^-n c/d; q^-n c/b, qb/de, qb/df, c | q, ef/b)",
               _w35("c", "d", "e", "f"))
_HEAD36 = Side("W(qb^2/def; qb/de, qb/df, qb/ef, c | q, q^{n+1}b/c)",
               _w36("c", "d", "e", "f"))
_HEAD38 = Side("phi(qb/ef, c, d; q^-n cd/b, qb/e, qb/f | q, q)",
               _p38("c", "d", "e", "f"))
_HEAD310 = Side("phi(qb/cd, qb/ce, qb/cf; q2b2/cdef, q^{1-n}/c, qb/c | q, q)",
                _p310("c", "d", "e", "f"))


# ---------------------------------------------------------------------------
# the record table
# ---------------------------------------------------------------------------

_CAT33_SUMMARY = ("head argument coupled to q^{n+2}b^2/(cdef); "
                  "prefactor and series pole sets excluded")
_INTER_SUMMARY = "free slots b..f, |q| != 1; prefactor and series pole sets excluded"


def _records_cor33():
    recs = []

    def add(rid, ref, side):
        recs.append(IdentityRecord(f"cor3.3/{rid}", ref, _HEAD33, side,
                                   _CAT33_SUMMARY))

    add("3.5a.1", "Cor 3.3 (i)", Side(
        "W(q^-2n/b; q^-n c/b, q^-n d/b, q^-n e/b, q^-n f/b | q, q^{n+2}b^2/cdef)",
        lambda s: VwpSpec(s.qp(-2 * s.n) / s.b,
                          [s.qmn * s.c / s.b, s.qmn * s.d / s.b,
                           s.qmn * s.e / s.b, s.qmn * s.f / s.b],
                          s.qp(s.n + 2) * s.b * s.b / _cdef(s), s.qbase, s.n),
        _fs("qb", "b", "c", "d", "e", "f"),
        _fs("b", "q^n b", "qb/c", "qb/d", "qb/e", "qb/f"),
        lambda s: pow_int(s.q, binom2(s.n))
        * pow_int(-s.qp(2) * s.b * s.b / _cdef(s), s.n),
        "q^C(n,2) (-q^2 b^2/cdef)^n"))

    add("3.5a.2", "Cor 3.3 (ii)", Side(
        "W(q^-n c/d; q^-n c/b, qb/de, qb/df, c | q, ef/b)",
        _w35("c", "d", "e", "f"),
        _fs("qb/ce", "qb/cf", "qb", "d"),
        _fs("qb/c", "qb/e", "qb/f", "d/c")))

    add("3.5a.7", "Cor 3.3 (iii)", Side(
        "W(q^{-n-1}def/b; d, e, f, q^{-n-1}cdef/b^2 | q, q/c)",
        _s35a7_series,
        _fs("qb/de", "qb/df", "qb/ef", "qb"),
        _fs("qb/def", "qb/d", "qb/e", "qb/f")))

    add("3.5a.7b", "Cor 3.3 (iv)", Side(
        "W(q^{1-n}b/def; q^-n c/b, qb/de, qb/df, qb/ef | q, q/c)",
        lambda s: VwpSpec(s.qp(1 - s.n) * s.b / (s.d * s.e * s.f),
                          [s.qmn * s.c / s.b, s.qb / (s.d * s.e),
                           s.qb / (s.d * s.f), s.qb / (s.e * s.f)],
                          s.q / s.c, s.qbase, s.n),
        _fs("q2b2/cdef", "qb", "d", "e", "f"),
        _fs("def/qb", "qb/c", "qb/d", "qb/e", "qb/f")))

    add("3.5a.6", "Cor 3.3 (v)", Side(
        "W(qb^2/def; qb/de, qb/df, qb/ef, c | q, q^{n+1}b/c)",
        _w36("c", "d", "e", "f"),
        _fs("q2b2/cdef", "qb"),
        _fs("qb/c", "q2b2/def")))

    add("3.5a.7c", "Cor 3.3 (vi)", Side(
        "W(q^{-2n-1}def/b^2; q^-n d/b, q^-n e/b, q^-n f/b, q^{-n-1}cdef/b^2 "
        "| q, q^{n+1}b/c)",
        lambda s: VwpSpec(s.qp(-2 * s.n - 1) * s.d * s.e * s.f / (s.b * s.b),
                          [s.qmn * s.d / s.b, s.qmn * s.e / s.b,
                           s.qmn * s.f / s.b,
                           s.qp(-s.n - 1) * _cdef(s) / (s.b * s.b)],
                          s.qp(s.n + 1) * s.b / s.c, s.qbase, s.n),
        _fs("qb2/def", "qb/ef", "qb/de", "qb/df", "qb", "c"),
        _fs("qb2/def", "q^{n+1}b2/def", "qb/c", "qb/d", "qb/e", "qb/f"),
        lambda s: pow_int(s.q, binom2(s.n)) * pow_int(-s.qb / s.c, s.n),
        "q^C(n,2) (-qb/c)^n"))

    add("3.5a.3", "Cor 3.3 (vii)", Side(
        "phi(qb/ef, c, d; q^-n cd/b, qb/e, qb/f | q, q)",
        _p38("c", "d", "e", "f"),
        _fs("qb/cd", "qb"),
        _fs("qb/c", "qb/d")))

    add("3.5a.4", "Cor 3.3 (viii)", Side(
        "phi(q^-n c/b, q^-n d/b, qb/ef; q^-n cd/b, q^{1-n}/e, q^{1-n}/f | q, q)",
        _s35a4_series,
        _fs("qb/cd", "qb", "e", "f"),
        _fs("qb/c", "qb/d", "qb/e", "qb/f"),
        lambda s: pow_int(s.qb / (s.e * s.f), s.n),
        "(qb/ef)^n"))

    add("3.5a.5", "Cor 3.3 (ix)", Side(
        "phi(qb/cd, qb/ce, qb/cf; q2b2/cdef, q^{1-n}/c, qb/c | q, q)",
        _p310("c", "d", "e", "f"),
        _fs("q2b2/cdef", "qb", "c"),
        _fs("qb/d", "qb/e", "qb/f")))

    add("3.5a.6b", "Cor 3.3 (x)", Side(
        "phi(q^{-n-1}cdef/b^2, q^-n c/b, c; q^-n cd/b, q^-n ce/b, q^-n cf/b "
        "| q, q)",
        _s35a6b_series,
        _fs("qb/cd", "qb/ce", "qb/cf", "qb"),
        _fs("qb/c", "qb/d", "qb/e", "qb/f"),
        lambda s: pow_int(s.c, s.n),
        "c^n"))

    return recs


def _records_cor35():
    # (id, prefactor num, prefactor den, ordered pair (x,y) with partners u,v)
    table = [
        ("r2", ("qb/de", "qb/df", "qb/c", "d/c", "c"),
         ("qb/ce", "qb/cf", "qb/d", "c/d", "d"), ("d", "c", "e", "f")),
        ("r3", ("qb/cd", "qb/e", "d/c", "e"),
         ("qb/ce", "qb/d", "e/c", "d"), ("c", "e", "d", "f")),
        ("r4", ("qb/ed", "qb/ef", "qb/c", "d/c", "c"),
         ("qb/ce", "qb/cf", "qb/d", "c/e", "d"), ("e", "c", "d", "f")),
        ("r5", ("qb/cd", "qb/f", "d/c", "f"),
         ("qb/cf", "qb/d", "f/c", "d"), ("c", "f", "d", "e")),
        ("r6", ("qb/fd", "qb/fe", "qb/c", "d/c", "c"),
         ("qb/ce", "qb/cf", "qb/d", "c/f", "d"), ("f", "c", "d", "e")),
        ("r7", ("qb/ef", "d/c"), ("qb/cf", "d/e"), ("e", "d", "c", "f")),
        ("r8", ("qb/dc", "qb/df", "qb/e", "d/c", "e"),
         ("qb/ce", "qb/cf", "qb/d", "e/d", "d"), ("d", "e", "c", "f")),
        ("r9", ("qb/ef", "d/c"), ("qb/ce", "d/f"), ("f", "d", "c", "e")),
        ("r10", ("qb/de", "qb/dc", "qb/f", "d/c", "f"),
         ("qb/ce", "qb/cf", "qb/d", "f/d", "d"), ("d", "f", "c", "e")),
        ("r11", ("qb/ed", "qb/f", "d/c", "f"),
         ("qb/cf", "qb/d", "f/e", "d"), ("e", "f", "c", "d")),
        ("r12", ("qb/df", "qb/e", "d/c", "e"),
         ("qb/ce", "qb/d", "e/f", "d"), ("f", "e", "c", "d")),
    ]
    recs = []
    for rid, num, den, (x, y, u, v) in table:
        side = Side(
            f"W(q^-n {x}/{y}; q^-n {x}/b, qb/{y}{u}, qb/{y}{v}, {x} "
            f"| q, {u}{v}/b)",
            _w35(x, y, u, v), _fs(*num), _fs(*den))
        recs.append(IdentityRecord(f"cor3.5/{rid}", f"Cor 3.5 ({rid})",
                                   _HEAD35, side, _INTER_SUMMARY))
    return recs


def _records_cor36():
    table = [("r2", "d", ("c", "e", "f")), ("r3", "e", ("c", "d", "f")),
             ("r4", "f", ("c", "d", "e"))]
    recs = []
    for rid, x, others in table:
        o = "".join(others)
        num = _fs("qb/c", "q2b2/def")
        den = (_F[f"qb/{x}"],
               _fac(f"q2b2/{o}", lambda s, oo=others: s.qp(2) * s.b * s.b
                    / (getattr(s, oo[0]) * getattr(s, oo[1]) * getattr(s, oo[2]))))
        side = Side(
            f"W(qb^2/{o}; qb/{others[0]}{others[1]}, qb/{others[0]}{others[2]}, "
            f"qb/{others[1]}{others[2]}, {x} | q, q^{{n+1}}b/{x})",
            _w36(x, *others), num, den)
        recs.append(IdentityRecord(f"cor3.6/{rid}", f"Cor 3.6 ({rid})",
                                   _HEAD36, side, _INTER_SUMMARY))
    return recs


def _records_cor38():
    table = [
        ("r2", ("qb/de", "qb/c"), ("qb/cd", "qb/e"), ("d", "e", "c", "f")),
        ("r3", ("qb/df", "qb/c"), ("qb/cd", "qb/f"), ("d", "f", "c", "e")),
        ("r4", ("qb/ce", "qb/d"), ("qb/cd", "qb/e"), ("c", "e", "d", "f")),
        ("r5", ("qb/cf", "qb/d"), ("qb/cd", "qb/f"), ("c", "f", "d", "e")),
    ]
    recs = []
    for rid, num, den, (x, y, u, v) in table:
        side = Side(
            f"phi(qb/{u}{v}, {x}, {y}; q^-n {x}{y}/b, qb/{u}, qb/{v} | q, q)",
            _p38(x, y, u, v), _fs(*num), _fs(*den))
        recs.append(IdentityRecord(f"cor3.8/{rid}", f"Cor 3.8 ({rid})",
                                   _HEAD38, side, _INTER_SUMMARY))

    # r6 printed prefactor denominator opens with qb/de; the exact sweep
    # rejects it and the single-factor search repairs it to qb/cd.
    series_label = "phi(qb/cd, e, f; q^-n ef/b, qb/c, qb/d | q, q)"
    printed = Side(series_label, _p38("e", "f", "c", "d"),
                   _fs("qb/ef", "qb/c", "qb/d"), _fs("qb/de", "qb/e", "qb/f"))
    corrected = replace(printed, pref_den=_fs("qb/cd", "qb/e", "qb/f"))
    recs.append(IdentityRecord(
        "cor3.8/r6", "Cor 3.8 (r6)", _HEAD38, corrected, _INTER_SUMMARY,
        quarantine=QuarantineInfo(
            reason="printed prefactor fails the exact sweep for every n >= 1",
            correction="denominator factor qb/de -> qb/cd",
            printed_rhs=printed)))
    return recs


def _records_cor310():
    table = [("r2", "d", ("c", "e", "f")), ("r3", "e", ("c", "d", "f")),
             ("r4", "f", ("c", "d", "e"))]
    recs = []
    for rid, x, others in table:
        side = Side(
            f"phi(qb/{x}{others[0]}, qb/{x}{others[1]}, qb/{x}{others[2]}; "
            f"q2b2/cdef, q^{{1-n}}/{x}, qb/{x} | q, q)",
            _p310(x, *others),
            (_F[f"qb/{x}"], _F[x]), (_F["qb/c"], _F["c"]))
        recs.append(IdentityRecord(f"cor3.10/{rid}", f"Cor 3.10 ({rid})",
                                   _HEAD310, side, _INTER_SUMMARY))
    return recs


def _records_remarks():
    def sub36(s):
        return {"b": s.qp(-2 * s.n - 1) * s.d * s.e * s.f / (s.b * s.b),
                "c": s.qp(-s.n - 1) * _cdef(s) / (s.b * s.b),
                "d": s.qmn * s.f / s.b,
                "e": s.qmn * s.e / s.b,
                "f": s.qmn * s.d / s.b}

    def sub38(s):
        return {"b": s.qp(-2 * s.n) / s.b,
                "c": s.qmn * s.c / s.b, "d": s.qmn * s.d / s.b,
                "e": s.qmn * s.e / s.b, "f": s.qmn * s.f / s.b}

    def sub310(s):
        return {"b": s.qmn * s.f / s.e,
                "c": s.qb / (s.c * s.e), "d": s.qb / (s.d * s.e),
                "e": s.f, "f": s.qmn * s.f / s.b}

    summary = ("substituted slots must satisfy the host family's guards; "
               "head image equals the sibling series with multiplier 1")
    rec36 = _records_cor36()[0]
    rec38 = _records_cor38()[0]
    rec310 = _records_cor310()[0]
    return [
        IdentityRecord(
            "rem3.6/a7",
            "Cor 3.6 remark: (b,c,d,e,f) -> (q^{-2n-1}def/b^2, "
            "q^{-n-1}cdef/b^2, q^-n f/b, q^-n e/b, q^-n d/b)",
            rec36.lhs, rec36.rhs, summary,
            substitution=sub36, sibling_series=_s35a7_series),
        IdentityRecord(
            "rem3.8/a4",
            "Cor 3.8 remark: (b,c,d,e,f) -> (q^{-2n}/b, q^-n c/b, q^-n d/b, "
            "q^-n e/b, q^-n f/b)",
            rec38.lhs, rec38.rhs, summary,
            substitution=sub38, sibling_series=_s35a4_series),
        IdentityRecord(
            "rem3.10/a6b",
            "Cor 3.10 remark: (b,c,d,e,f) -> (q^-n f/e, qb/ce, qb/de, f, "
            "q^-n f/b)",
            rec310.lhs, rec310.rhs, summary,
            substitution=sub310, sibling_series=_s35a6b_series),
    ]


_CATALOG: tuple[IdentityRecord, ...] | None = None


def catalog() -> tuple[IdentityRecord, ...]:
    """All 35 records, in catalogue order."""
    global _CATALOG
    if _CATALOG is None:
        recs = (_records_cor33() + _records_cor35() + _records_cor36()
                + _records_cor38() + _records_cor310() + _records_remarks())
        _CATALOG = tuple(recs)
    return _CATALOG


def record_by_id(rid: str) -> IdentityRecord:
    for rec in catalog():
        if rec.id == rid:
            return rec
    raise KeyError(rid)


def _substituted(record: IdentityRecord, s: _S) -> _S:
    if record.substitution is None:
        return s
    new_slots = record.substitution(s)
    return _S(Draw(s.qbase, s.n, new_slots))


def check(record: IdentityRecord, draw: Draw, *, rel_tol: float = REL_TOL,
          abs_tol: float = ABS_TOL, cond_cap: float = COND_CAP,
          use_printed: bool = False) -> CheckOutcome:
    """Evaluate both sides of a record on one draw.

    Guard failures give SKIPPED; otherwise :func:`judge` gives the
    verdict on the two sides.  ``use_printed`` selects the printed
    variant of a quarantined record.
    """
    exact = draw.q.exact
    rhs = record.rhs
    if use_printed:
        if record.quarantine is None:
            raise ValueError(f"record {record.id} has no printed variant")
        rhs = record.quarantine.printed_rhs
    try:
        s = _substituted(record, _S(draw))
        left, scale_l = record.lhs.evaluate(s)
        right, scale_r = rhs.evaluate(s)
    except GuardViolation as exc:
        return CheckOutcome(Verdict.SKIPPED, 0.0, 0.0, exact, guard=str(exc))
    except ZeroDivisionError as exc:
        return CheckOutcome(Verdict.SKIPPED, 0.0, 0.0, exact,
                            guard=f"division by zero: {exc}")
    return judge([left, right], max(scale_l, scale_r), exact, rel_tol=rel_tol,
                 abs_tol=abs_tol, cond_cap=cond_cap)


# ---------------------------------------------------------------------------
# derivation from the polynomial family (cor3.3/* only)
# ---------------------------------------------------------------------------

_AW_SOURCES = {
    "cor3.3/3.5a.1": (RepTag.W_DEF4, True),
    "cor3.3/3.5a.2": (RepTag.W_DEF5, False),
    "cor3.3/3.5a.7": (RepTag.W_DEF7, False),
    "cor3.3/3.5a.7b": (RepTag.W_DEF6, True),
    "cor3.3/3.5a.6": (RepTag.W_DEF6, False),
    "cor3.3/3.5a.7c": (RepTag.W_DEF7, True),
    "cor3.3/3.5a.3": (RepTag.PHI_MIXED, False),
    "cor3.3/3.5a.4": (RepTag.PHI_MIXED, True),
    "cor3.3/3.5a.5": (RepTag.PHI_INV, False),
    "cor3.3/3.5a.6b": (RepTag.PHI_STD, False),
}


@dataclass(frozen=True)
class AwDerivation:
    """The substitution carrying the polynomial family onto a cor3.3 record.

    Works in the squared variables: callers supply square roots of q and
    of the slot b, so the exact backend stays radical-free.  The spectral
    point becomes w = sqrt(q)^n sqrt(b) (so w^2 = q^n b) and the four
    parameters are (c, d, e, f) / (sqrt(q)^n sqrt(b)).
    """

    record_id: str
    rep: RepId
    theta_negated: bool
    description: str

    def aw_params(self, sqrt_q, sqrt_b, c, d, e, f, n: int) -> AWParams:
        q = sqrt_q * sqrt_q
        scale = pow_int(sqrt_q, n) * sqrt_b
        return AWParams([c / scale, d / scale, e / scale, f / scale],
                        QBase(q), scale, n)

    def multiplier(self, sqrt_q, sqrt_b, c, d, e, f, n: int):
        """The common factor applied to every representation; 1 at n = 0."""
        q = sqrt_q * sqrt_q
        b = sqrt_b * sqrt_b
        qb = q * b
        den = ((c * d * e * f) ** n
               * poch_list([qb / c, qb / d, qb / e, qb / f], q, n))
        if is_zero(den):
            raise DenominatorPole("multiplier pole: (qb/c..qb/f;q)_n = 0")
        num = (pow_int(q, 2 * binom2(n))
               * pow_int(-pow_int(sqrt_q * sqrt_b, 5), n) * poch(qb, q, n))
        return num / den


def derive_from_aw(record_id: str) -> AwDerivation:
    """Substitution description for a cor3.3 record.

    Contract (checked by the tests): multiplier * polynomial value at the
    substituted parameters equals the head series, hence both sides of
    the record.
    """
    try:
        tag, flipped = _AW_SOURCES[record_id]
    except KeyError:
        raise NotACor33Record(record_id) from None
    return AwDerivation(
        record_id, RepId(tag), flipped,
        "w^2 = q^n b, a_k = q^{-n/2} (c,d,e,f)_k / sqrt(b); multiply by the "
        "common factor q^{2 C(n,2)} (-1)^n (qb)^{5n/2} (qb;q)_n / "
        "((cdef)^n (qb/c, qb/d, qb/e, qb/f;q)_n)")


# ---------------------------------------------------------------------------
# single-factor repair search for suspected transcription slips
# ---------------------------------------------------------------------------

def _candidate_pool():
    labels = ["qb"]
    labels += [f"qb/{x}" for x in "cdef"]
    labels += [x for x in "cdef"]
    labels += [f"{x}/{y}" for x in "cdef" for y in "cdef" if x != y]
    labels += ["qb/cd", "qb/ce", "qb/cf", "qb/de", "qb/df", "qb/ef"]
    return [_F[label] for label in labels]


def find_single_factor_correction(record: IdentityRecord, draws):
    """Search single-factor perturbations of a failing printed side.

    Tries replacing each prefactor factor (numerator and denominator) of
    the printed right-hand side with every pool candidate; a repair must
    make the identity exact on every supplied draw.  Returns
    (position, original label, replacement label, repaired side) for the
    minimal fix, or None.
    """
    printed = record.quarantine.printed_rhs if record.quarantine else record.rhs
    trial = replace(record, rhs=printed, quarantine=None)
    if all(check(trial, d).verdict is Verdict.PASS for d in draws):
        return None
    for attr in ("pref_den", "pref_num"):
        factors = getattr(printed, attr)
        for idx, orig in enumerate(factors):
            for cand in _candidate_pool():
                if cand.label == orig.label:
                    continue
                new_factors = factors[:idx] + (cand,) + factors[idx + 1:]
                fixed = replace(printed, **{attr: new_factors})
                probe = replace(record, rhs=fixed, quarantine=None)
                outcomes = [check(probe, d) for d in draws]
                if (all(o.verdict is Verdict.PASS for o in outcomes)
                        and any(o.verdict is Verdict.PASS for o in outcomes)):
                    pos = "denominator" if attr == "pref_den" else "numerator"
                    return (f"{pos}[{idx}]", orig.label, cand.label, fixed)
    return None
