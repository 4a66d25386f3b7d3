"""The catalogue of terminating-series transformation identities.

A record is a row of printed strings in the series language of
:mod:`~qaskey.labels`, over the slots b..f: per side a series label, its
Pochhammer prefactor labels and an optional power label.  The strings are
parsed once, when :func:`catalog` builds (a malformed label raises
ValueError naming it), and a check evaluates the parse, so the formula
``qaskey list`` prints is the formula that runs.

The families are ``cor3.3/*``, ten siblings of the very-well-poised head
W(b; c,d,e,f | q, q^{n+2} b^2/cdef); the interchange families
``cor3.5/*``, ``cor3.6/*``, ``cor3.8/*`` and ``cor3.10/*``; and the
remarks ``rem3.6/a7``, ``rem3.8/a4`` and ``rem3.10/a6b``, whose sides are
their host's printed sides under the substitution in their ``ref`` text
(:func:`~qaskey.labels.substituted`); it carries an interchange family
onto its sibling family, whose series the substituted head is exactly
(multiplier 1).  An interchange family is one series template over the
placeholders x, y, u, v, which each record assigns a permutation of c, d,
e, f; its prefactors are derived from its cor3.3 head, whose 8W7 series
is symmetric in c..f (:func:`_family`).  To add a record, add its ``(id,
assignment)`` pair to its family's row of ``_FAMILIES``; a new family
needs a template and a cor3.3 head.  One record, ``cor3.8/r6``, ships
QUARANTINED: the paper prints its denominator factor ``qb/de`` where the
derivation gives ``qb/cd``; the derived form runs, and the printed one
is kept beside it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum

from .arithmetic import (ABS_TOL, COND_CAP, REL_TOL, GuardViolation, QError, _Frozen, _set,
                         is_exact, spread)
from .askey_wilson import ALL_REPS, RepId, RepTag, _rep_side
from .labels import Draw, Side, _factor, _series, _side, parse_side, substituted


class NotACor33Record(QError):
    """Derivations from the polynomial family exist only for cor3.3/*."""


class Verdict(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"
    SKIPPED = "SKIPPED"


class QuarantineInfo(_Frozen):
    """Why a record is quarantined, and its printed variant: the same
    record with the printed right side."""

    __slots__ = ("reason", "correction", "printed")

    def __init__(self, reason: str, correction: str, printed: "IdentityRecord"):
        _set(self, "reason", reason)
        _set(self, "correction", correction)
        _set(self, "printed", printed)


@dataclass(frozen=True)
class IdentityRecord:
    """A catalogued identity: lhs(draw) == rhs(draw) on admissible draws."""

    id: str
    ref: str
    lhs: Side
    rhs: Side
    constraint_summary: str
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


def judge(values, scale, exact: bool) -> CheckOutcome:
    """The verdict on a family of values that must agree.

    Exact values PASS iff all are equal; that verdict reads no scale, and
    its outcome reports scale 0.0.  Float values PASS when their
    largest pairwise deviation is at most ``REL_TOL`` times the
    cancellation ``scale`` (raised to the values' magnitudes) plus
    ``ABS_TOL``; else they are INCONCLUSIVE if the scale exceeds the
    magnitudes by more than ``COND_CAP``, and FAIL.  A value, deviation
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
    if max_dev <= REL_TOL * scale + ABS_TOL:
        return CheckOutcome(Verdict.PASS, max_dev, scale, False)
    if scale / max(mags, ABS_TOL) > COND_CAP:
        return CheckOutcome(Verdict.INCONCLUSIVE, max_dev, scale, False)
    return CheckOutcome(Verdict.FAIL, max_dev, scale, False)


def settle(evaluate, exact: bool) -> CheckOutcome:
    """The outcome of one check: where every evaluation ends as a verdict.

    ``evaluate()`` returns the (value, TermTrace) pairs whose values must
    agree, and :func:`judge` gives the verdict on the values; their
    cancellation scale, formed only for a float verdict, is the largest
    trace ``abs_scale``.  A guard violation or a division by zero while
    evaluating makes the check SKIPPED, its ``guard`` naming the cause.
    On the float backend an OverflowError while evaluating makes it
    INCONCLUSIVE with deviation 0.0, as :func:`judge` does for a value
    that is not finite; on the exact backend it is raised.
    """
    try:
        pairs = evaluate()
    except GuardViolation as exc:
        return CheckOutcome(Verdict.SKIPPED, 0.0, 0.0, exact, guard=str(exc))
    except ZeroDivisionError as exc:
        return CheckOutcome(Verdict.SKIPPED, 0.0, 0.0, exact,
                            guard=f"division by zero: {exc}")
    except OverflowError:
        if exact:
            raise
        return _UNRESOLVED
    return judge([v for v, _ in pairs], lambda: max(t.abs_scale for _, t in pairs), exact)


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

# (id, ref with the substitution, host record)
_REMARKS = [
    ("rem3.6/a7", "Cor 3.6 remark: (b,c,d,e,f) -> (q^{-2n-1}def/b^2, "
     "q^{-n-1}cdef/b^2, q^-n f/b, q^-n e/b, q^-n d/b)", "cor3.6/r2"),
    ("rem3.8/a4", "Cor 3.8 remark: (b,c,d,e,f) -> (q^{-2n}/b, q^-n c/b, q^-n d/b, "
     "q^-n e/b, q^-n f/b)", "cor3.8/r2"),
    ("rem3.10/a6b", "Cor 3.10 remark: (b,c,d,e,f) -> (q^-n f/e, qb/ce, qb/de, f, "
     "q^-n f/b)", "cor3.10/r2"),
]
_REMARK_SUMMARY = ("substituted slots must satisfy the host family's guards; "
                   "head image equals the sibling series with multiplier 1")


def _cancelled(num: list, den: list) -> tuple:
    """Both label lists less the monomials common to them, once per
    occurrence; ``den`` is consumed."""
    kept = []
    for label in num:
        key = _factor(label).key
        twin = next((other for other in den if _factor(other).key == key), None)
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
        printed=replace(rec, rhs=_side(rec.rhs.series_label, num, den))))


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
        for rid, ref, host in _REMARKS:
            lhs, rhs = (parse_side(substituted(ref, side.describe()))
                        for side in (by_id[host].lhs, by_id[host].rhs))
            recs.append(IdentityRecord(rid, ref, lhs, rhs, _REMARK_SUMMARY))
        _CATALOG = tuple(recs)
    return _CATALOG


def record_by_id(rid: str) -> IdentityRecord:
    for rec in catalog():
        if rec.id == rid:
            return rec
    raise KeyError(rid)


def check(record: IdentityRecord, draw: Draw) -> CheckOutcome:
    """Evaluate both sides of a record on one draw, and :func:`settle` them.
    The monomials formed on the draw stay in its ``memo`` for any later
    check on it."""
    return settle(lambda: [record.lhs.evaluate(draw), record.rhs.evaluate(draw)],
                  is_exact(draw.q))


# ---------------------------------------------------------------------------
# derivation from the polynomial family (cor3.3/* only)
# ---------------------------------------------------------------------------

# b = q^-n w^2 and (c, d, e, f) = (a1, a2, a3, a4) w: it sends the cor3.3
# head W(b; c,d,e,f | q, q^{n+2}b^2/cdef) onto the w-def4 series
_SIGMA = "(b,c,d,e,f) -> (q^-n w^2, aw, bw, cw, dw)"


def _rep_series(rep: RepId, at_wi: bool) -> str:
    """A representation's series label at w or at 1/w, printed canonically."""
    return substituted("(w) -> (1/w)" if at_wi else "(w) -> (w)",
                       _rep_side(rep, False)[0].series_label)


def _entry_vecs(label: str) -> tuple:
    """A series label's kind and its entries' exponent vectors, each
    parameter list sorted."""
    series = _series(label)
    top, bottom = series.entries[:series.split], series.entries[series.split:-1]
    return (series.vwp, sorted(fac.vec for fac in top), sorted(fac.vec for fac in bottom),
            series.entries[-1].vec)


def derive_from_aw(record_id: str) -> tuple[RepId, bool]:
    """(rep, at 1/w): the representation, at default roles, whose series at
    w, or else at 1/w, has the entries of the image under ``_SIGMA`` of a
    cor3.3 record's right-hand series.

    ``_SIGMA`` sends the record's left side, the head, onto the w-def4
    series; a record whose left side it sends elsewhere raises
    NotACor33Record.  Contract (checked by the tests): ``_SIGMA`` carries
    both sides of the record to one value, which times the w-def4
    prefactor is the polynomial; the common multiplier is the reciprocal
    of that prefactor.
    """
    rec = next((rec for rec in catalog() if rec.id == record_id), None)
    if rec is None or (substituted(_SIGMA, rec.lhs.describe())
                       != _rep_series(RepId(RepTag.W_DEF4), False)):
        raise NotACor33Record(record_id)
    image = _entry_vecs(substituted(_SIGMA, rec.rhs.series_label))
    return next((rep, at_wi) for at_wi in (False, True) for rep in ALL_REPS
                if _entry_vecs(_rep_series(rep, at_wi)) == image)
