"""The catalogue of terminating-series transformation identities.

A record is a row of printed strings.  Each side is a series label, the
labels of its index-n Pochhammer prefactor factors and an optional power
label; an interchange family derives its prefactor labels (see below),
and a remark's substitution is read from its ``ref`` text.  The strings
are parsed once, when :func:`catalog` builds, and a check evaluates the
parse, so the formula ``qaskey list`` prints is the formula that runs.
A malformed label raises ValueError naming it when the catalogue builds.

Label grammar (spaces between tokens are ignored):

* monomial ``NUM`` or ``NUM/DEN``: each part is a run of tokens, ``q``
  with an optional exponent affine in n (``q2``, ``q^2``, ``q^n``,
  ``q^-n``, ``q^-2n``, ``q^{1-n}``, ``q^{-2n-1}``) or a slot letter
  b..f with an optional ``^2``/``2``.  Examples: ``qb/cd``,
  ``q^-n c/b``, ``q^{-n-1}cdef/b^2``, ``q2b2/cdef``, ``def/qb``.  The
  value is the product of the numerator tokens in printed order, divided
  by the product of the denominator tokens in printed order.
* series: ``W(B; L1, ..., Lk | q, Z)`` is the very-well-poised series
  (:class:`VwpSpec`) and ``phi(N1, ...; D1, ... | q, Z)`` the balanced one
  (:class:`SeriesSpec`, its ``q^-n`` numerator implicit); every entry is
  a monomial.
* power: a product of space-separated terms ``X^n`` or ``X^C(n,2)``,
  where X is ``q``, a slot letter or a parenthesised monomial with an
  optional leading minus: ``q^C(n,2) (-qb/c)^n``, ``c^n``.
* substitution: ``(b,c,d,e,f) -> (M1, ..., M5)`` with monomials Mi.

Families:

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

An interchange family is one series template over the placeholders x, y,
u, v; each record assigns them a permutation of c, d, e, f, and the head
is the template at the identity assignment.  A family's prefactors are not
typed: each is derived from the family's cor3.3 head record, whose 8W7
series is symmetric in c..f (see :func:`_family`).  To add a record, add
its ``(id, assignment)`` pair to its family's row of ``_FAMILIES``; a new
family needs a template and a cor3.3 head.

One record, ``cor3.8/r6``, ships QUARANTINED: its printed prefactor fails
the exact sweep systematically, and the derivation gives it ``qb/cd``
where the paper prints the denominator factor ``qb/de``.  The derived
form runs; the printed form is kept as data and reported beside it.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass, replace
from enum import Enum

from .arithmetic import (
    ABS_TOL,
    COND_CAP,
    GuardViolation,
    QBase,
    QError,
    REL_TOL,
    _Frozen,
    _set,
    binom2,
    pow_int,
    spread,
)
from .askey_wilson import AWParams, RepId, RepTag
from .qpochhammer import poch_quotient
from .qseries import DenominatorPole, SeriesSpec, VwpSpec, eval_phi, eval_w


class NotACor33Record(QError):
    """Derivations from the polynomial family exist only for cor3.3/*."""


class Verdict(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"
    SKIPPED = "SKIPPED"


class Draw(_Frozen):
    """A concrete slot assignment for one check."""

    __slots__ = ("q", "n", "slots")

    def __init__(self, q: QBase, n: int, slots: dict):
        _set(self, "q", q)
        _set(self, "n", n)
        _set(self, "slots", slots)

    def __repr__(self):
        return f"Draw(q={self.q!r}, n={self.n!r}, slots={self.slots!r})"


class _S:
    """One draw.  ``memo`` keeps its values by slot letter, by q-power
    token and by monomial label, so both sides of a record share them."""

    __slots__ = ("qbase", "n", "q", "memo")

    def __init__(self, draw: Draw):
        self.qbase = draw.q
        self.n = draw.n
        self.q = draw.q.q
        self.memo = {k: draw.slots[k] for k in "bcdef"}
        self.memo[0, 1] = self.q

    def values(self, factors) -> list:
        """The monomials' values, each computed on its first use."""
        memo, out = self.memo, []
        for fac in factors:
            value = memo.get(fac.label)
            if value is None:
                value = self._product(fac.num)
                if fac.den:
                    value = value / self._product(fac.den)
                memo[fac.label] = value
            out.append(value)
        return out

    def _product(self, tokens):
        """The tokens multiplied in printed order; the token (a, k) is
        q^{a n + k}."""
        memo, value = self.memo, None
        for tok in tokens:
            x = memo.get(tok)
            if x is None:
                x = memo[tok] = pow_int(self.q, tok[0] * self.n + tok[1])
            value = x if value is None else value * x
        return value


class Factor(_Frozen):
    """A monomial label and its parse: numerator and denominator tokens in
    printed order, each a slot letter or the pair (a, k) for q^{a n + k}."""

    __slots__ = ("label", "num", "den")

    def __init__(self, label: str, num: tuple, den: tuple = ()):
        _set(self, "label", label)
        _set(self, "num", num)
        _set(self, "den", den)


# ---------------------------------------------------------------------------
# the label parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:q(?:\^(?:\{([^{}]*)\}|(-?\d*n|-?\d+))|(\d+))?"
                    r"|([b-f])(?:\^?(\d+))?)")
_AFFINE = re.compile(r"[+-]?(?:\d+n?|n)(?:[+-](?:\d+n?|n))*")
_AFFINE_TERM = re.compile(r"([+-]?)(\d*)(n?)")
_SERIES = re.compile(r"(W|phi)\((.*);(.*)\|\s*q\s*,(.*)\)")
_POWER_TERM = re.compile(r"\s*(?:\((-?)([^()]+)\)|(q|[b-f]))\^(n|C\(n,2\))")
_SUBSTITUTION = re.compile(r"\(b,c,d,e,f\) -> \((.*)\)")


def _malformed(kind: str, label: str) -> ValueError:
    return ValueError(f"malformed {kind} label {label!r}")


def _exponent(text: str, label: str) -> tuple:
    """(a, k) for the exponent text a n + k."""
    text = text.replace(" ", "")
    if not _AFFINE.fullmatch(text):
        raise _malformed("monomial", label)
    a = k = 0
    for sign, coef, var in _AFFINE_TERM.findall(text):
        c = -int(coef or 1) if sign == "-" else int(coef or 1)
        if var:
            a += c
        elif coef:
            k += c
    return a, k


def _tokens(part: str, label: str) -> tuple:
    part = part.strip()
    tokens, pos = [], 0
    while pos < len(part):
        m = _TOKEN.match(part, pos)
        if m is None:
            raise _malformed("monomial", label)
        braced, bare, digits, letter, power = m.groups()
        if letter:
            tokens += [letter] * int(power or 1)
        else:
            text = braced if braced is not None else bare or digits or "1"
            tokens.append(_exponent(text, label))
        pos = m.end()
    if not tokens:
        raise _malformed("monomial", label)
    return tuple(tokens)


@functools.cache
def _factor(label: str) -> Factor:
    parts = label.split("/")
    if len(parts) > 2:
        raise _malformed("monomial", label)
    return Factor(label, *(_tokens(part, label) for part in parts))


def _factors(labels) -> tuple:
    return tuple(_factor(label) for label in labels)


def _entries(text: str) -> tuple:
    return _factors(e.strip() for e in text.split(","))


@functools.cache
def _series(label: str):
    m = _SERIES.fullmatch(label)
    if m is None:
        raise _malformed("series", label)
    kind, top, bottom, z = m.groups()
    top, bottom, z = _entries(top), _entries(bottom), _entries(z)
    if len(z) != 1 or (kind == "W" and len(top) != 1):
        raise _malformed("series", label)
    entries, k = top + bottom + z, len(top)
    if kind == "phi":
        def series(s):
            v = s.values(entries)
            return SeriesSpec(v[:k], v[k:-1], v[-1], s.qbase, s.n)
    else:
        def series(s):
            v = s.values(entries)
            return VwpSpec(v[0], v[1:-1], v[-1], s.qbase, s.n)
    return series


@functools.cache
def _power(label: str):
    bases, kinds, pos = [], [], 0
    while pos < len(label):
        m = _POWER_TERM.match(label, pos)
        if m is None:
            raise _malformed("power", label)
        minus, mono, atom, exp = m.groups()
        bases.append(_factor(mono or atom))
        kinds.append((bool(minus), exp != "n"))
        pos = m.end()
    if not bases:
        raise _malformed("power", label)

    def power(s):
        # the factors (x, k) of x^k, for poch_quotient to multiply
        return [(-x if minus else x, binom2(s.n) if choose else s.n)
                for x, (minus, choose) in zip(s.values(bases), kinds)]

    return power


def _substitution(ref: str):
    m = _SUBSTITUTION.search(ref)
    items = _entries(m.group(1)) if m else ()
    if len(items) != 5:
        raise _malformed("substitution", ref)
    return lambda s: dict(zip("bcdef", s.values(items)))


@dataclass(frozen=True)
class Side:
    """One side of a record: scalar power * Pochhammer ratio * series."""

    series_label: str
    series: object                      # compiled series_label: (_S) -> spec
    pref_num: tuple = ()
    pref_den: tuple = ()
    power: object = None                # compiled power_label, or None
    power_label: str = ""

    def evaluate(self, s: _S):
        """Return (value, cancellation scale as a callable); guard
        failures raise.  Only a float verdict calls the scale.  The
        prefactor's Pochhammer bases are formed before its pole test, the
        power only after it."""
        pref = poch_quotient(
            s.qbase, s.n, (), [s.values(self.pref_num)], [s.values(self.pref_den)],
            tail=() if self.power is None else self.power(s), pole=DenominatorPole,
            message="prefactor pole: a denominator Pochhammer vanished")
        spec = self.series(s)
        value, trace = (eval_w if isinstance(spec, VwpSpec) else eval_phi)(spec)
        return pref * value, lambda: abs(pref) * trace.abs_scale

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


def _side(series: str, num=(), den=(), power: str = "") -> Side:
    return Side(series, _series(series), _factors(num), _factors(den),
                _power(power) if power else None, power)


class QuarantineInfo(_Frozen):
    __slots__ = ("reason", "correction", "printed_rhs")

    def __init__(self, reason: str, correction: str, printed_rhs: Side):
        _set(self, "reason", reason)
        _set(self, "correction", correction)
        _set(self, "printed_rhs", printed_rhs)


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


class CheckOutcome(_Frozen):
    __slots__ = ("verdict", "deviation", "scale", "exact", "guard")

    def __init__(self, verdict: Verdict, deviation: float, scale: float, exact: bool,
                 guard: str | None = None):
        _set(self, "verdict", verdict)
        _set(self, "deviation", deviation)
        _set(self, "scale", scale)
        _set(self, "exact", exact)
        _set(self, "guard", guard)

    def __eq__(self, other):
        if type(other) is not CheckOutcome:
            return NotImplemented
        return ((self.verdict, self.deviation, self.scale, self.exact, self.guard)
                == (other.verdict, other.deviation, other.scale, other.exact, other.guard))


# a float check that overflowed or met a value that is not finite
_UNRESOLVED = CheckOutcome(Verdict.INCONCLUSIVE, 0.0, 0.0, False)


def judge(values, scale, exact: bool, *, rel_tol: float = REL_TOL,
          abs_tol: float = ABS_TOL, cond_cap: float = COND_CAP) -> CheckOutcome:
    """The verdict on a family of values that must agree.

    Exact values PASS iff all are equal; that verdict reads no scale, and
    its outcome reports scale 0.0.  Float values PASS when their
    largest pairwise deviation is at most ``rel_tol`` times the
    cancellation ``scale`` (raised to the values' magnitudes) plus
    ``abs_tol``; else they are INCONCLUSIVE if the scale exceeds the
    magnitudes by more than ``cond_cap``, and FAIL.  A value, deviation
    or scale that is not finite, or a modulus above the float range,
    makes the check INCONCLUSIVE with deviation 0.0.  ``scale`` is a
    callable that returns the scale; only a float verdict calls it.
    """
    if exact:
        exact_zero, max_dev = spread(values, True)
        verdict = Verdict.PASS if exact_zero else Verdict.FAIL
        return CheckOutcome(verdict, max_dev, 0.0, True)
    try:
        _, max_dev = spread(values, False)
        mags = max(map(abs, values))
        scale = max(scale(), mags)
    except OverflowError:
        # a float modulus above the float range, from finite parts
        return _UNRESOLVED
    if not (all(map(cmath.isfinite, values)) and math.isfinite(max_dev)
            and math.isfinite(scale)):
        # max() above skips a NaN, so such values could read as agreeing
        return _UNRESOLVED
    if max_dev <= rel_tol * scale + abs_tol:
        return CheckOutcome(Verdict.PASS, max_dev, scale, False)
    if scale / max(mags, abs_tol) > cond_cap:
        return CheckOutcome(Verdict.INCONCLUSIVE, max_dev, scale, False)
    return CheckOutcome(Verdict.FAIL, max_dev, scale, False)


def settle(evaluate, exact: bool, *, rel_tol: float = REL_TOL,
           abs_tol: float = ABS_TOL, cond_cap: float = COND_CAP) -> CheckOutcome:
    """The outcome of one check: where every evaluation ends as a verdict.

    ``evaluate()`` returns the values that must agree and their
    cancellation scale as a callable, and :func:`judge` gives the
    verdict on them.  A guard violation or a division by zero while
    evaluating makes the check SKIPPED, its ``guard`` naming the cause.
    On the float backend an OverflowError (``abs()`` of a prefactor or
    term whose modulus leaves the range) makes it INCONCLUSIVE with
    deviation 0.0, as :func:`judge` does for a value that is not finite;
    on the exact backend it is raised.
    """
    try:
        values, scale = evaluate()
    except GuardViolation as exc:
        return CheckOutcome(Verdict.SKIPPED, 0.0, 0.0, exact, guard=str(exc))
    except ZeroDivisionError as exc:
        return CheckOutcome(Verdict.SKIPPED, 0.0, 0.0, exact,
                            guard=f"division by zero: {exc}")
    except OverflowError:
        if exact:
            raise
        return _UNRESOLVED
    return judge(values, scale, exact, rel_tol=rel_tol, abs_tol=abs_tol, cond_cap=cond_cap)


# ---------------------------------------------------------------------------
# the record table
# ---------------------------------------------------------------------------

# interchange-family series over the placeholders x, y, u, v
_W35 = "W(q^-n {x}/{y}; q^-n {x}/b, qb/{y}{u}, qb/{y}{v}, {x} | q, {u}{v}/b)"
_W36 = "W(qb^2/{y}{u}{v}; qb/{y}{u}, qb/{y}{v}, qb/{u}{v}, {x} | q, q^{{n+1}}b/{x})"
_P38 = "phi(qb/{u}{v}, {x}, {y}; q^-n {x}{y}/b, qb/{u}, qb/{v} | q, q)"
_P310 = ("phi(qb/{x}{y}, qb/{x}{u}, qb/{x}{v}; q2b2/cdef, q^{{1-n}}/{x}, qb/{x} "
         "| q, q)")


def _at(template: str, perm: str = "cdef") -> str:
    return template.format(**dict(zip("xyuv", perm)))


_CAT33_SUMMARY = ("head argument coupled to q^{n+2}b^2/(cdef); "
                  "prefactor and series pole sets excluded")
_INTER_SUMMARY = "free slots b..f, |q| != 1; prefactor and series pole sets excluded"

# (id, ref, series, prefactor numerator, denominator, power)
_COR33 = [
    ("3.5a.1", "Cor 3.3 (i)",
     "W(q^-2n/b; q^-n c/b, q^-n d/b, q^-n e/b, q^-n f/b | q, q^{n+2}b^2/cdef)",
     ("qb", "b", "c", "d", "e", "f"), ("b", "q^n b", "qb/c", "qb/d", "qb/e", "qb/f"),
     "q^C(n,2) (-q^2 b^2/cdef)^n"),
    ("3.5a.2", "Cor 3.3 (ii)", _at(_W35),
     ("qb/ce", "qb/cf", "qb", "d"), ("qb/c", "qb/e", "qb/f", "d/c"), ""),
    ("3.5a.7", "Cor 3.3 (iii)",
     "W(q^{-n-1}def/b; d, e, f, q^{-n-1}cdef/b^2 | q, q/c)",
     ("qb/de", "qb/df", "qb/ef", "qb"), ("qb/def", "qb/d", "qb/e", "qb/f"), ""),
    ("3.5a.7b", "Cor 3.3 (iv)",
     "W(q^{1-n}b/def; q^-n c/b, qb/de, qb/df, qb/ef | q, q/c)",
     ("q2b2/cdef", "qb", "d", "e", "f"), ("def/qb", "qb/c", "qb/d", "qb/e", "qb/f"),
     ""),
    ("3.5a.6", "Cor 3.3 (v)", _at(_W36),
     ("q2b2/cdef", "qb"), ("qb/c", "q2b2/def"), ""),
    ("3.5a.7c", "Cor 3.3 (vi)",
     "W(q^{-2n-1}def/b^2; q^-n d/b, q^-n e/b, q^-n f/b, q^{-n-1}cdef/b^2 "
     "| q, q^{n+1}b/c)",
     ("qb2/def", "qb/ef", "qb/de", "qb/df", "qb", "c"),
     ("qb2/def", "q^{n+1}b2/def", "qb/c", "qb/d", "qb/e", "qb/f"),
     "q^C(n,2) (-qb/c)^n"),
    ("3.5a.3", "Cor 3.3 (vii)", _at(_P38),
     ("qb/cd", "qb"), ("qb/c", "qb/d"), ""),
    ("3.5a.4", "Cor 3.3 (viii)",
     "phi(q^-n c/b, q^-n d/b, qb/ef; q^-n cd/b, q^{1-n}/e, q^{1-n}/f | q, q)",
     ("qb/cd", "qb", "e", "f"), ("qb/c", "qb/d", "qb/e", "qb/f"), "(qb/ef)^n"),
    ("3.5a.5", "Cor 3.3 (ix)", _at(_P310),
     ("q2b2/cdef", "qb", "c"), ("qb/d", "qb/e", "qb/f"), ""),
    ("3.5a.6b", "Cor 3.3 (x)",
     "phi(q^{-n-1}cdef/b^2, q^-n c/b, c; q^-n cd/b, q^-n ce/b, q^-n cf/b | q, q)",
     ("qb/cd", "qb/ce", "qb/cf", "qb"), ("qb/c", "qb/d", "qb/e", "qb/f"), "c^n"),
]

# (family, series template, its cor3.3 head, [(id, assignment of x, y, u, v)])
_FAMILIES = [
    ("cor3.5", _W35, "3.5a.2", [
        ("r2", "dcef"), ("r3", "cedf"), ("r4", "ecdf"), ("r5", "cfde"), ("r6", "fcde"),
        ("r7", "edcf"), ("r8", "decf"), ("r9", "fdce"), ("r10", "dfce"),
        ("r11", "efcd"), ("r12", "fecd")]),
    ("cor3.6", _W36, "3.5a.6", [("r2", "dcef"), ("r3", "ecdf"), ("r4", "fcde")]),
    ("cor3.8", _P38, "3.5a.3", [
        ("r2", "decf"), ("r3", "dfce"), ("r4", "cedf"), ("r5", "cfde"), ("r6", "efcd")]),
    ("cor3.10", _P310, "3.5a.5", [("r2", "dcef"), ("r3", "ecdf"), ("r4", "fcde")]),
]

# the one row whose printed prefactor differs from its derivation:
# (id, printed numerator, printed denominator, the repair)
_MISPRINT = ("cor3.8/r6", ("qb/ef", "qb/c", "qb/d"), ("qb/de", "qb/e", "qb/f"),
             "denominator factor qb/de -> qb/cd")

# (id, ref with the substitution, host record, cor3.3 record of the sibling series)
_REMARKS = [
    ("rem3.6/a7", "Cor 3.6 remark: (b,c,d,e,f) -> (q^{-2n-1}def/b^2, "
     "q^{-n-1}cdef/b^2, q^-n f/b, q^-n e/b, q^-n d/b)", "cor3.6/r2", "cor3.3/3.5a.7"),
    ("rem3.8/a4", "Cor 3.8 remark: (b,c,d,e,f) -> (q^{-2n}/b, q^-n c/b, q^-n d/b, "
     "q^-n e/b, q^-n f/b)", "cor3.8/r2", "cor3.3/3.5a.4"),
    ("rem3.10/a6b", "Cor 3.10 remark: (b,c,d,e,f) -> (q^-n f/e, qb/ce, qb/de, f, "
     "q^-n f/b)", "cor3.10/r2", "cor3.3/3.5a.6b"),
]
_REMARK_SUMMARY = ("substituted slots must satisfy the host family's guards; "
                   "head image equals the sibling series with multiplier 1")


@functools.cache
def _key(label: str) -> tuple:
    """The monomial's exponent vector over (q^n, q, b, c, d, e, f)."""
    fac, vec = _factor(label), [0] * 7
    for sign, tokens in ((1, fac.num), (-1, fac.den)):
        for tok in tokens:
            if isinstance(tok, str):
                vec["bcdef".index(tok) + 2] += sign
            else:
                vec[0] += sign * tok[0]
                vec[1] += sign * tok[1]
    return tuple(vec)


def _cancelled(num: list, den: list) -> tuple:
    """Both label lists less the monomials common to them, once per
    occurrence; ``den`` is consumed."""
    kept = []
    for label in num:
        twin = next((other for other in den if _key(other) == _key(label)), None)
        if twin is None:
            kept.append(label)
        else:
            den.remove(twin)
    return kept, den


def _family(name: str, template: str, head: Side, rows) -> list:
    """The records of an interchange family, derived from its cor3.3 head.

    ``head`` is the cor3.3 right side P * T, with T the template and P its
    prefactor.  The 8W7 series it equals is symmetric in c..f, so P(s) T(s)
    is that series for every assignment s too, and T = P(s)/P * T(s).  A
    row's prefactor numerator is thus the head's numerator under s with
    its plain denominator, and the denominator the other way round; the
    monomials common to both cancel.  The heads carry no power.
    """
    num = [fac.label for fac in head.pref_num]
    den = [fac.label for fac in head.pref_den]
    lhs = _side(_at(template))
    recs = []
    for rid, perm in rows:
        table = str.maketrans("cdef", perm)
        moved_num = [label.translate(table) for label in num]
        moved_den = [label.translate(table) for label in den]
        recs.append(IdentityRecord(
            f"{name}/{rid}", f"Cor {name[3:]} ({rid})", lhs,
            _side(_at(template, perm), *_cancelled(moved_num + den, moved_den + num)),
            _INTER_SUMMARY))
    return recs


def _quarantined(rec: IdentityRecord) -> IdentityRecord:
    """The misprinted row, its printed prefactor kept as the variant."""
    _, num, den, correction = _MISPRINT
    return replace(rec, quarantine=QuarantineInfo(
        reason="printed prefactor fails the exact sweep for every n >= 1",
        correction=correction,
        printed_rhs=_side(rec.rhs.series_label, num, den)))


_CATALOG: tuple[IdentityRecord, ...] | None = None


def catalog() -> tuple[IdentityRecord, ...]:
    """All 35 records, in catalogue order."""
    global _CATALOG
    if _CATALOG is None:
        head33 = _side("W(b; c,d,e,f | q, q^{n+2}b^2/cdef)")
        recs = [IdentityRecord(f"cor3.3/{rid}", ref, head33,
                               _side(series, num, den, power), _CAT33_SUMMARY)
                for rid, ref, series, num, den, power in _COR33]
        heads = {rec.id: rec.rhs for rec in recs}
        for name, template, head, rows in _FAMILIES:
            recs += _family(name, template, heads[f"cor3.3/{head}"], rows)
        recs = [_quarantined(rec) if rec.id == _MISPRINT[0] else rec for rec in recs]
        by_id = {rec.id: rec for rec in recs}
        recs += [IdentityRecord(
            rid, ref, by_id[host].lhs, by_id[host].rhs, _REMARK_SUMMARY,
            substitution=_substitution(ref), sibling_series=by_id[sibling].rhs.series)
            for rid, ref, host, sibling in _REMARKS]
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
    """Evaluate both sides of a record on one draw, and :func:`settle` them.

    ``use_printed`` selects the printed variant of a quarantined record.
    """
    rhs = record.rhs
    if use_printed:
        if record.quarantine is None:
            raise ValueError(f"record {record.id} has no printed variant")
        rhs = record.quarantine.printed_rhs

    def evaluate():
        s = _substituted(record, _S(draw))
        left, scale_l = record.lhs.evaluate(s)
        right, scale_r = rhs.evaluate(s)
        return [left, right], lambda: max(scale_l(), scale_r())

    return settle(evaluate, draw.q.exact, rel_tol=rel_tol, abs_tol=abs_tol,
                  cond_cap=cond_cap)


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


class AwDerivation(_Frozen):
    """The substitution carrying the polynomial family onto a cor3.3 record.

    Works in the squared variables: callers supply square roots of q and
    of the slot b, so the exact backend stays radical-free.  The spectral
    point becomes w = sqrt(q)^n sqrt(b) (so w^2 = q^n b) and the four
    parameters are (c, d, e, f) / (sqrt(q)^n sqrt(b)).
    """

    __slots__ = ("record_id", "rep", "theta_negated", "description")

    def __init__(self, record_id: str, rep: RepId, theta_negated: bool, description: str):
        _set(self, "record_id", record_id)
        _set(self, "rep", rep)
        _set(self, "theta_negated", theta_negated)
        _set(self, "description", description)

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
        return poch_quotient(
            q, n, lead=((q, 2 * binom2(n)), (-pow_int(sqrt_q * sqrt_b, 5), n)),
            num=(qb,), den=([qb / c, qb / d, qb / e, qb / f],),
            tail=((c * d * e * f, -n),), pole=DenominatorPole,
            message="multiplier pole: (qb/c..qb/f;q)_n = 0")


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
