"""The 35-record catalogue: structure, exactness, quarantine, derivations."""

import dataclasses
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from qaskey import (
    CheckOutcome,
    Draw,
    DrawConfig,
    GaussianRational,
    QBase,
    Verdict,
    catalog,
    check,
    derive_from_aw,
    draw_params,
    eval_rep,
    record_by_id,
)
from qaskey.askey_wilson import ALL_REPS, AWParams, RepId, RepTag
from qaskey.identity_catalog import (_FAMILIES, _SIGMA, NotACor33Record, _at, _entry_vecs,
                                     _rep_series, judge, settle)
from qaskey.labels import (_SERIES, _entries, _factor, _mapping, _power, _series,
                           parse_side, substituted)
from qaskey import qpochhammer, qseries
from qaskey.sampler_verifier import all_targets
from qaskey.qseries import SeriesSpec, TermTrace, VwpSpec, eval_w, invert_w
from qaskey.arithmetic import GuardViolation, binom2, pow_int

from util import rand_qbase, rand_scalar

G = GaussianRational


def _draw(rng, n_min=0, n_max=5, big=False):
    return Draw(rand_qbase(rng, big=big), rng.randint(n_min, n_max),
                {k: rand_scalar(rng) for k in "bcdef"})


def _admissible_draw(rec, rng, n_min=0, n_max=5, tries=500):
    for _ in range(tries):
        d = _draw(rng, n_min=n_min, n_max=n_max)
        if check(rec, d).verdict is not Verdict.SKIPPED:
            return d
    raise AssertionError(f"no admissible draw for {rec.id}")


def test_catalog_inventory():
    recs = catalog()
    assert len(recs) == 35
    ids = [r.id for r in recs]
    assert len(set(ids)) == 35
    by_family = {}
    for rid in ids:
        by_family.setdefault(rid.split("/")[0], []).append(rid)
    assert len(by_family["cor3.3"]) == 10
    assert len(by_family["cor3.5"]) == 11
    assert len(by_family["cor3.6"]) == 3
    assert len(by_family["cor3.8"]) == 5
    assert len(by_family["cor3.10"]) == 3
    assert sorted(k for k in by_family if k.startswith("rem")) == [
        "rem3.10", "rem3.6", "rem3.8"]
    for rec in recs:
        assert "Cor" in rec.ref
        assert rec.constraint_summary


def test_record_structure_examples():
    rng = random.Random(120)
    d = _draw(rng)
    q, n = d.q.q, d.n
    b, c, dd, e, f = (d.slots[k] for k in "bcdef")

    spec = record_by_id("cor3.3/3.5a.3").rhs.series(d)
    assert isinstance(spec, SeriesSpec)
    assert spec.num == (q * b / (e * f), c, dd)
    assert spec.den == (pow_int(q, -n) * c * dd / b, q * b / e, q * b / f)
    assert spec.z == q

    rec = record_by_id("cor3.5/r2")
    assert Counter(fac.label for fac in rec.rhs.pref_num) == Counter(
        ["qb/de", "qb/df", "qb/c", "d/c", "c"])
    assert Counter(fac.label for fac in rec.rhs.pref_den) == Counter(
        ["qb/ce", "qb/cf", "qb/d", "c/d", "d"])

    head = record_by_id("cor3.3/3.5a.1").lhs.series(d)
    assert isinstance(head, VwpSpec)
    assert head.z == pow_int(q, n + 2) * b * b / (c * dd * e * f)


def test_degree_zero_draws_pass_exactly():
    rng = random.Random(121)
    for rec in catalog():
        for _ in range(3):
            d = _admissible_draw(rec, rng, n_min=0, n_max=0)
            out = check(rec, d)
            assert out.verdict is Verdict.PASS
            assert out.deviation == 0.0 and out.exact


def _rational_sweep(rng):
    """(record id, outcome) of 8 admissible exact draws per record; the
    draws' bases are real or non-real (``rand_qbase``)."""
    return [(rec.id, check(rec, _admissible_draw(rec, rng)))
            for rec in catalog() for _ in range(8)]


def test_every_record_passes_exactly_on_rational_draws():
    for rid, out in _rational_sweep(random.Random(122)):
        assert out.verdict is Verdict.PASS, (rid, out)
        assert out.deviation == 0.0


def test_rational_sweep_catches_a_sign_slip_in_the_gaussian_factor(monkeypatch):
    # the guard rows and the prefactor products advance x q^k by one
    # product with q; flip the sign of that product's Im Im term: a real q
    # has real powers, so only the non-real bases of rand_qbase reach it
    def slipped_powers(x, q, n):
        a, b, d = x
        qa, qb, qd = q
        for _ in range(n):
            yield a, b, d
            a, b, d = a * qa + b * qb, a * qb + b * qa, d * qd

    def one_minus_row(x, q, n):
        return tuple((d - a, -b, d) for a, b, d in slipped_powers(x, q, n))

    def poch_numerator(acc, x, q, n):
        pa, pb = acc
        for a, b, d in slipped_powers(x, q, n):
            pa, pb = pa * (d - a) + pb * b, pb * (d - a) - pa * b
        return pa, pb

    monkeypatch.setattr(qseries, "_one_minus_row", one_minus_row)
    monkeypatch.setattr(qpochhammer, "_poch_numerator", poch_numerator)
    verdicts = Counter(out.verdict for _, out in _rational_sweep(random.Random(122)))
    assert verdicts[Verdict.FAIL] > 0


def test_prefactor_pole_draw_is_skipped():
    rec = record_by_id("cor3.5/r2")
    rng = random.Random(123)
    q = rand_qbase(rng)
    slots = {k: rand_scalar(rng) for k in "bcdef"}
    slots["c"] = q.q * slots["b"]  # qb/c = 1 zeroes a prefactor denominator
    out = check(rec, Draw(q, 2, slots))
    assert out.verdict is Verdict.SKIPPED
    assert "prefactor" in out.guard or "Omega" in out.guard


def test_float_draws_never_fail():
    import cmath
    import math

    rng = random.Random(124)
    for rec in catalog():
        done = 0
        attempts = 0
        while done < 15 and attempts < 400:
            attempts += 1
            q = QBase(complex(rng.uniform(0.1, 0.9), 0.0))
            slots = {k: cmath.rect(
                math.exp(rng.uniform(math.log(0.1), math.log(10.0))),
                rng.uniform(0.0, 2 * math.pi)) for k in "bcdef"}
            out = check(rec, Draw(q, rng.randint(0, 6), slots))
            if out.verdict is Verdict.SKIPPED:
                continue
            assert out.verdict in (Verdict.PASS, Verdict.INCONCLUSIVE), (rec.id, out)
            done += 1


def test_interchange_transformations_compose_to_identity():
    # the c<->d transposition applied twice returns the original value
    rec = record_by_id("cor3.5/r2")
    rng = random.Random(125)
    for _ in range(10):
        d = _admissible_draw(rec, rng, n_min=1)
        swapped = Draw(d.q, d.n, {**d.slots, "c": d.slots["d"], "d": d.slots["c"]})
        try:
            left1, _ = rec.lhs.evaluate(d)
            right1, _ = rec.rhs.evaluate(d)
            left2, _ = rec.lhs.evaluate(swapped)
            right2, _ = rec.rhs.evaluate(swapped)
        except Exception:
            continue
        assert left1 == right1
        assert left2 == right2
        # rhs series of the swapped draw is the original head series
        assert rec.rhs.series(swapped) == rec.lhs.series(d)


def test_balanced_sides_stay_balanced_on_draws():
    # every plain 4phi3 side at argument q satisfies q^{1-n} num = den
    rng = random.Random(126)
    for rid in ("cor3.3/3.5a.3", "cor3.3/3.5a.4", "cor3.3/3.5a.5",
                "cor3.3/3.5a.6b", "cor3.8/r2", "cor3.8/r6", "cor3.10/r2"):
        rec = record_by_id(rid)
        for _ in range(4):
            d = _admissible_draw(rec, rng)
            spec = rec.rhs.series(d)
            if not isinstance(spec, SeriesSpec):
                continue
            lhsprod = pow_int(d.q.q, 1 - d.n)
            for a in spec.num:
                lhsprod = lhsprod * a
            rhsprod = spec.den[0] * spec.den[1] * spec.den[2]
            assert lhsprod == rhsprod, rid


def test_quarantined_record_variants():
    rec = record_by_id("cor3.8/r6")
    assert rec.quarantine is not None
    assert rec.quarantine.correction == "denominator factor qb/de -> qb/cd"
    # the printed variant is the same record with the printed right side
    printed = rec.quarantine.printed
    assert printed.rhs != rec.rhs
    assert dataclasses.replace(printed, rhs=rec.rhs) == dataclasses.replace(rec, quarantine=None)
    rng = random.Random(127)
    printed_failures = 0
    for _ in range(12):
        d = _admissible_draw(rec, rng, n_min=1)
        assert check(rec, d).verdict is Verdict.PASS
        out = check(rec.quarantine.printed, d)
        assert out.verdict in (Verdict.FAIL, Verdict.SKIPPED)
        printed_failures += out.verdict is Verdict.FAIL
    assert printed_failures >= 10


def test_checks_on_one_draw_share_its_memo(monkeypatch):
    # a check leaves the monomials it formed in the draw's memo: checking
    # the record again forms none, and the printed variant forms exactly
    # those of its monomials whose keys the memo does not hold yet
    rec = record_by_id("cor3.8/r6")
    printed = rec.quarantine.printed.rhs
    read = {fac.key: fac.plan for fac in (*printed.series.entries, *printed.pref_num,
                                          *printed.pref_den)}
    formed = []
    form = Draw.form

    def counting(self, plan):
        formed.append(plan)
        return form(self, plan)

    monkeypatch.setattr(Draw, "form", counting)
    for backend in ("rational", "float"):
        for index in range(5):
            d = draw_params(DrawConfig(seed=3, n_range=(1, 6)), rec, index, backend)
            before = set(d.memo)
            del formed[:]
            assert check(rec, d).verdict is Verdict.PASS
            assert formed == [] and set(d.memo) == before
            new = {key: plan for key, plan in read.items() if key not in before}
            assert new
            check(rec.quarantine.printed, d)
            assert sorted(formed) == sorted(new.values())
            assert set(d.memo) == before | set(new)


def test_remark_records_head_image_is_sibling_series():
    # a remark's sides are its host's under its substitution, and the
    # substituted head is the sibling cor3.3 row's series, entry for entry
    for rid, host, sibling in (("rem3.6/a7", "cor3.6/r2", "3.5a.7"),
                               ("rem3.8/a4", "cor3.8/r2", "3.5a.4"),
                               ("rem3.10/a6b", "cor3.10/r2", "3.5a.6b")):
        rec, host = record_by_id(rid), record_by_id(host)
        assert rec.lhs.describe() == substituted(rec.ref, host.lhs.describe()), rid
        assert rec.rhs.describe() == substituted(rec.ref, host.rhs.describe()), rid
        assert (_entry_vecs(rec.lhs.series_label)
                == _entry_vecs(record_by_id(f"cor3.3/{sibling}").rhs.series_label)), rid


def test_substitution_maps_every_letter_at_once():
    # each image's exponents are read from the original vector: a swap
    # swaps, and a remark's substituted sides equal its host's sides on
    # the substituted draw
    assert (substituted("(b,e) -> (e, b)", "(qb/e;q)_n * W(b; c, d, e, q^n b/e | q, b^2/e)")
            == "(qe/b;q)_n * W(e; c, d, b, q^{n}e/b | q, e^2/b)")
    sub = "(b,c,d,e,f) -> (q^-n f/e, qb/ce, qb/de, f, q^-n f/b)"
    host = record_by_id("cor3.10/r2")
    letters, images = _mapping(sub)
    rng = random.Random(128)
    done = 0
    while done < 6:
        d = _draw(rng, n_min=1)
        moved = Draw(d.q, d.n, dict(zip(letters, d.values(images))))
        try:
            pairs = [(parse_side(substituted(sub, side.describe())).evaluate(d)[0],
                      side.evaluate(moved)[0]) for side in (host.lhs, host.rhs)]
        except (GuardViolation, ZeroDivisionError):
            continue
        for mapped, direct in pairs:
            assert mapped == direct
        done += 1


# the representation each cor3.3 row derives from, at default roles, and
# whether its series matched at 1/w
DERIVED = {
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


def test_derive_from_aw_rejects_other_families():
    with pytest.raises(NotACor33Record):
        derive_from_aw("cor3.5/r2")
    with pytest.raises(NotACor33Record):
        derive_from_aw("cor3.3/nosuch")


def test_sigma_sends_the_head_of_exactly_the_cor33_rows_to_w_def4():
    # the cor3.3 head, printed canonically, becomes the w-def4 series
    head = record_by_id("cor3.3/3.5a.1").lhs.describe()
    assert (substituted(_SIGMA, head) == _rep_series(RepId(RepTag.W_DEF4), False)
            == "W(q^{-n}w^2; aw, bw, cw, dw | q, q^{2-n}/abcd)")
    derived = {}
    for rec in catalog():
        try:
            derived[rec.id] = derive_from_aw(rec.id)
        except NotACor33Record:
            continue
    assert derived == {rid: (RepId(tag), at_wi) for rid, (tag, at_wi) in DERIVED.items()}
    # each row's image matches one tag only; at 1/w only where it must
    for rid, (tag, at_wi) in DERIVED.items():
        image = _entry_vecs(substituted(_SIGMA, record_by_id(rid).rhs.series_label))
        found = {(rep.tag, flip) for rep in ALL_REPS for flip in (False, True)
                 if _entry_vecs(_rep_series(rep, flip)) == image}
        assert {t for t, _ in found} == {tag}, rid
        assert ((tag, False) not in found) is at_wi, rid


def test_derivation_reproduces_both_record_sides():
    # on Askey-Wilson draws, exact and radical-free, the image under sigma
    # of both sides of every cor3.3 row is one value, and the w-def4
    # prefactor w^n (a/w,b/w,c/w,d/w;q)_n / (1/w^2;q)_n times it is the
    # derived representation, evaluated at 1/w where its series matched
    # there; only a guard or a division by zero skips a draw, and a row
    # with fewer than five admissible draws in 200 fails
    rng = random.Random(130)
    for rid, (tag, at_wi) in DERIVED.items():
        rec = record_by_id(rid)
        lhs, rhs = (parse_side(substituted(_SIGMA, side.describe())) for side in (rec.lhs, rec.rhs))
        done = 0
        for _ in range(200):
            params = AWParams([rand_scalar(rng) for _ in range(4)], rand_qbase(rng),
                              rand_scalar(rng), rng.randint(1, 3))
            q, n, w = params.q.q, params.n, params.w
            try:
                value, _ = lhs.evaluate(params._draw)
                other, _ = rhs.evaluate(params._draw)
                rep_value, _ = eval_rep(params.flip_w() if at_wi else params, RepId(tag))
                pref = pow_int(w, n) / qpochhammer.poch(1 / (w * w), q, n)
            except (GuardViolation, ZeroDivisionError):
                continue
            for a in params.a:
                pref = pref * qpochhammer.poch(a / w, q, n)
            assert value == other, rid
            assert pref * value == rep_value, rid
            done += 1
            if done == 5:
                break
        assert done == 5, rid


def test_derivation_for_reversed_head_matches_invert_w():
    # the first sibling is exactly the head under summation reversal
    rec = record_by_id("cor3.3/3.5a.1")
    rng = random.Random(131)
    done = 0
    while done < 8:
        d = _draw(rng, n_max=4)
        try:
            head_spec = rec.lhs.series(d)
            pref, rev = invert_w(head_spec)
            sib_spec = rec.rhs.series(d)
            lhs, _ = rec.lhs.evaluate(d)
            rhs, _ = rec.rhs.evaluate(d)
        except Exception:
            continue
        assert rev == sib_spec
        assert lhs == pref * eval_w(rev)[0] == rhs
        done += 1


def test_judge_examples():
    assert judge([1.0 + 0j, 1.0 + 0j], lambda: 1.0, False).verdict is Verdict.PASS
    # below the absolute floor
    assert judge([0.0 + 0j, 1e-30 + 0j], lambda: 1.0, False).verdict is Verdict.PASS
    # above rel_tol, on well-conditioned values
    assert judge([1.0 + 0j, 1.0 + 1e-6 + 0j], lambda: 1.0, False).verdict is Verdict.FAIL
    # the values' own magnitudes raise the scale
    assert judge([1e6 + 0j, 1e6 + 1e-5 + 0j], lambda: 1.0, False).verdict is Verdict.PASS
    # a scale that dwarfs the values beyond cond_cap cannot decide
    outcome = judge([1e-3 + 0j, 0j], lambda: 1e6, False)
    assert outcome == CheckOutcome(Verdict.INCONCLUSIVE, 1e-3, 1e6, False)
    assert judge([G(1, 2), G(1, 2)], lambda: 1.0, True).verdict is Verdict.PASS
    outcome = judge([G(1), G(1, Fraction(1, 10 ** 20))], lambda: 1.0, True)
    assert outcome.verdict is Verdict.FAIL and outcome.deviation == 1e-20


def test_settle_is_where_an_evaluation_ends():
    def raising(exc):
        def evaluate():
            raise exc
        return evaluate

    # a guard or a division by zero rejects the draw, naming the cause
    for exact in (True, False):
        assert settle(raising(GuardViolation("pole guard failed: (1/w^2;q)_n = 0")),
                      exact) == CheckOutcome(Verdict.SKIPPED, 0.0, 0.0, exact,
                                             guard="pole guard failed: (1/w^2;q)_n = 0")
        assert settle(raising(ZeroDivisionError("complex division by zero")),
                      exact) == CheckOutcome(Verdict.SKIPPED, 0.0, 0.0, exact,
                                             guard="division by zero: complex division by zero")
    # an overflow: a float check cannot decide, an exact one is an error
    overflow = raising(OverflowError("absolute value too large"))
    assert settle(overflow, False) == CheckOutcome(Verdict.INCONCLUSIVE, 0.0, 0.0, False)
    with pytest.raises(OverflowError):
        settle(overflow, True)
    # otherwise judge's verdict at the fixed tolerances: within REL_TOL of
    # the scale, within the ABS_TOL floor, beyond both on a scale within
    # COND_CAP of the values, and beyond COND_CAP.  The scale is the
    # largest trace abs_scale of the evaluated pairs
    cases = [([1.0 + 0j, 1.0 + 1e-11 + 0j], 1.0),
             ([0.0 + 0j, 1e-13 + 0j], 0.0),
             ([1.0 + 0j, 1.0 + 1e-6 + 0j], 1.0),
             ([1e-3 + 0j, 0j], 1e4),
             ([1e-3 + 0j, 0j], 1e6)]
    verdicts = []
    for values, scale in cases:
        pairs = [(values[0], TermTrace((complex(scale),))),
                 *((v, TermTrace((0j,))) for v in values[1:])]
        outcome = settle(lambda: pairs, False)
        assert outcome == judge(values, lambda: scale, False)
        verdicts.append(outcome.verdict.value)
    assert verdicts == ["PASS", "PASS", "FAIL", "FAIL", "INCONCLUSIVE"]
    one = TermTrace((G(1),))
    assert settle(lambda: [(G(1, 2), one), (G(1, 2), one)], True) == judge(
        [G(1, 2), G(1, 2)], lambda: 1.0, True)


def test_check_settles_non_finite_float_values_as_inconclusive():
    # at degree 150..200 with |q| > 1 many float candidates overflow to a
    # non-finite side; check() itself, not only a sweep, must not call
    # that a FAIL with deviation NaN
    cfg = DrawConfig(seed=14, backend="float", n_range=(150, 200), q_big=True)
    unresolved = 0
    for target in all_targets():
        if target.record is None:
            continue
        rng = random.Random(f"14:{target.id}")
        for _ in range(3):
            try:
                draw = target.draw(rng, cfg, False)
            except (GuardViolation, ZeroDivisionError, OverflowError):
                continue
            outcome = check(target.record, draw)
            assert not math.isnan(outcome.deviation), target.id
            if outcome == CheckOutcome(Verdict.INCONCLUSIVE, 0.0, 0.0, False):
                unresolved += 1
    assert unresolved > 20


def test_judge_non_finite_deviation_or_scale_is_unresolved():
    unresolved = CheckOutcome(Verdict.INCONCLUSIVE, 0.0, 0.0, False)
    # an infinite scale is no evidence that a finite deviation is small
    assert judge([1 + 0j, 1 + 1e-3j], lambda: math.inf, False) == unresolved
    # two finite values whose difference overflows
    assert judge([1e308 + 0j, -1e308 + 0j], lambda: 1.0, False) == unresolved
    # finite parts, but a modulus above the float range: abs() raises
    assert judge([1.5e308 + 1.5e308j, 0j], lambda: 1.0, False) == unresolved
    # a scale whose magnitude leaves the float range while it is formed
    assert judge([1 + 0j, 1 + 0j], lambda: abs(1.5e308 + 1.5e308j), False) == unresolved


def test_check_settles_a_float_modulus_overflow_as_unresolved():
    # a prefactor with finite parts whose modulus is above the float
    # range, so that abs() of it raises OverflowError when the verdict
    # reads the scale
    rec = record_by_id("cor3.5/r2")
    draw = Draw(QBase(0.5 + 0j), 2, {"b": 0.3 + 0.2j, "c": 1.7 - 0.4j, "d": -0.6 + 1.1j,
                                      "e": 2.3 + 0.5j, "f": 0.8 - 1.3j})
    assert check(rec, draw).verdict is Verdict.PASS
    lhs = dataclasses.replace(rec.lhs, pref_num=(), pref_den=(),
                              power=lambda d: ((complex(1.5e308, 1.5e308), 1),))
    out = check(dataclasses.replace(rec, lhs=lhs), draw)
    assert out == CheckOutcome(Verdict.INCONCLUSIVE, 0.0, 0.0, False)


Q = (0, 1)


@pytest.mark.parametrize("label, num, den", [
    ("qb/cd", (Q, "b"), ("c", "d")),
    ("q^-n c/b", ((-1, 0), "c"), ("b",)),
    ("q^{-n}cd/b", ((-1, 0), "c", "d"), ("b",)),
    ("q^-2n/b", ((-2, 0),), ("b",)),
    ("q^n b", ((1, 0), "b"), ()),
    ("q^{-n-1}cdef/b^2", ((-1, -1), "c", "d", "e", "f"), ("b", "b")),
    ("q^{-2n-1}def/b^2", ((-2, -1), "d", "e", "f"), ("b", "b")),
    ("q^{n+1}b2/def", ((1, 1), "b", "b"), ("d", "e", "f")),
    ("q^{1-n}/e", ((-1, 1),), ("e",)),
    ("q2b2/cdef", ((0, 2), "b", "b"), ("c", "d", "e", "f")),
    ("q^2 b^2/cdef", ((0, 2), "b", "b"), ("c", "d", "e", "f")),
    ("qb^2/def", (Q, "b", "b"), ("d", "e", "f")),
    ("def/qb", ("d", "e", "f"), (Q, "b")),
    ("d/c", ("d",), ("c",)),
    ("c", ("c",), ()),
    ("q", (Q,), ()),
])
def test_monomial_label_parses_to_printed_order(label, num, den):
    # a token is a slot letter or (a, k) for q^{a n + k}
    fac = _factor(label)
    assert (fac.label, fac.num, fac.den) == (label, num, den)


@pytest.mark.parametrize("parse, label", [
    (_factor, "qb/cx"),
    (_factor, "q^{m}"),
    (_factor, "qb//c"),
    (_factor, ""),
    (_series, "W(b; c, d, e, f, q^{n+2}b^2/cdef)"),
    (_series, "W(b, c; d, e | q, q)"),
    (_power, "(qb/c)^m"),
    (_mapping, "Cor 3.6 remark: (b,c,d,e,f) -> (b, c, d)"),
])
def test_malformed_label_raises_naming_it(parse, label):
    with pytest.raises(ValueError, match=re.escape(repr(label))):
        parse(label)


def test_series_power_and_substitution_labels_evaluate_as_printed():
    rng = random.Random(132)
    while True:
        d = _draw(rng, n_min=1)
        try:
            w = _series("W(q^-n c/d; q^-n c/b, qb/de, qb/df, c | q, ef/b)")(d)
            phi = _series("phi(qb/ef, c, d; q^-n cd/b, qb/e, qb/f | q, q)")(d)
            break
        except GuardViolation:
            continue
    q, n, qb = d.q.q, d.n, d.q.q * d.slots["b"]
    b, c, dd, e, f = (d.slots[k] for k in "bcdef")
    qmn = pow_int(q, -n)
    assert w == VwpSpec(qmn * c / dd, [qmn * c / b, qb / (dd * e), qb / (dd * f), c],
                        e * f / b, d.q, n)
    assert phi == SeriesSpec([qb / (e * f), c, dd], [qmn * c * dd / b, qb / e, qb / f],
                             q, d.q, n)
    # a power evaluates to its factors (x, k) of x^k
    assert _power("q^C(n,2) (-qb/c)^n")(d) == [(q, binom2(n)), (-qb / c, n)]
    assert _power("c^n")(d) == [(c, n)]
    # a substitution maps each slot to its image, every slot at once
    sub = "(b,c,d,e,f) -> (q^-n f/e, qb/ce, qb/de, f, q^-n f/b)"
    assert (_series(substituted(sub, "phi(b, c, d; e, f, q | q, b)"))(d)
            == SeriesSpec([qmn * f / e, qb / (c * e), qb / (dd * e)], [f, qmn * f / b, q],
                          qmn * f / e, d.q, n))


def test_printed_sides_parse_back_to_the_same_side():
    # every side's printed form, as qaskey list prints it, reads back into
    # a side with the same monomials
    for rec in catalog():
        for side in (rec.lhs, rec.rhs):
            again = parse_side(side.describe())
            assert again.describe() == side.describe(), rec.id
            for part in ("pref_num", "pref_den"):
                assert ([f.key for f in getattr(again, part)]
                        == [f.key for f in getattr(side, part)]), rec.id
            assert again.series is side.series and again.power is side.power, rec.id


# the prefactors of the interchange families as the paper prints them:
# (numerator, denominator) labels in printed order
PRINTED = {
    "cor3.5/r2": (("qb/de", "qb/df", "qb/c", "d/c", "c"),
                  ("qb/ce", "qb/cf", "qb/d", "c/d", "d")),
    "cor3.5/r3": (("qb/cd", "qb/e", "d/c", "e"), ("qb/ce", "qb/d", "e/c", "d")),
    "cor3.5/r4": (("qb/ed", "qb/ef", "qb/c", "d/c", "c"),
                  ("qb/ce", "qb/cf", "qb/d", "c/e", "d")),
    "cor3.5/r5": (("qb/cd", "qb/f", "d/c", "f"), ("qb/cf", "qb/d", "f/c", "d")),
    "cor3.5/r6": (("qb/fd", "qb/fe", "qb/c", "d/c", "c"),
                  ("qb/ce", "qb/cf", "qb/d", "c/f", "d")),
    "cor3.5/r7": (("qb/ef", "d/c"), ("qb/cf", "d/e")),
    "cor3.5/r8": (("qb/dc", "qb/df", "qb/e", "d/c", "e"),
                  ("qb/ce", "qb/cf", "qb/d", "e/d", "d")),
    "cor3.5/r9": (("qb/ef", "d/c"), ("qb/ce", "d/f")),
    "cor3.5/r10": (("qb/de", "qb/dc", "qb/f", "d/c", "f"),
                   ("qb/ce", "qb/cf", "qb/d", "f/d", "d")),
    "cor3.5/r11": (("qb/ed", "qb/f", "d/c", "f"), ("qb/cf", "qb/d", "f/e", "d")),
    "cor3.5/r12": (("qb/df", "qb/e", "d/c", "e"), ("qb/ce", "qb/d", "e/f", "d")),
    "cor3.6/r2": (("qb/c", "q2b2/def"), ("qb/d", "q2b2/cef")),
    "cor3.6/r3": (("qb/c", "q2b2/def"), ("qb/e", "q2b2/cdf")),
    "cor3.6/r4": (("qb/c", "q2b2/def"), ("qb/f", "q2b2/cde")),
    "cor3.8/r2": (("qb/de", "qb/c"), ("qb/cd", "qb/e")),
    "cor3.8/r3": (("qb/df", "qb/c"), ("qb/cd", "qb/f")),
    "cor3.8/r4": (("qb/ce", "qb/d"), ("qb/cd", "qb/e")),
    "cor3.8/r5": (("qb/cf", "qb/d"), ("qb/cd", "qb/f")),
    "cor3.8/r6": (("qb/ef", "qb/c", "qb/d"), ("qb/de", "qb/e", "qb/f")),
    "cor3.10/r2": (("qb/d", "d"), ("qb/c", "c")),
    "cor3.10/r3": (("qb/e", "e"), ("qb/c", "c")),
    "cor3.10/r4": (("qb/f", "f"), ("qb/c", "c")),
}


def _keys(labels) -> Counter:
    return Counter(_factor(label).vec for label in labels)


def test_derived_prefactors_match_the_printed_rows():
    for rid, (num, den) in PRINTED.items():
        rhs = record_by_id(rid).rhs
        assert _keys(fac.label for fac in rhs.pref_num) == _keys(num), rid
        if rid != "cor3.8/r6":
            assert _keys(fac.label for fac in rhs.pref_den) == _keys(den), rid
    # cor3.8/r6 differs in the one denominator factor its quarantine names,
    # and keeps its printed prefactor as the printed variant
    rec = record_by_id("cor3.8/r6")
    printed = _keys(PRINTED[rec.id][1])
    derived = _keys(fac.label for fac in rec.rhs.pref_den)
    assert rec.quarantine.correction == "denominator factor qb/de -> qb/cd"
    assert (printed - derived, derived - printed) == (_keys(["qb/de"]), _keys(["qb/cd"]))
    variant = rec.quarantine.printed.rhs
    assert (tuple(fac.label for fac in variant.pref_num),
            tuple(fac.label for fac in variant.pref_den)) == PRINTED[rec.id]


def _canonical(label: str) -> tuple:
    """A series label up to the order of a W's parameters and of a phi's
    numerator and denominator lists, monomials compared as exponent vectors."""
    kind, top, bottom, z = _SERIES.fullmatch(label).groups()
    top, bottom = (tuple(sorted(fac.vec for fac in _entries(part))) for part in (top, bottom))
    return kind, top, bottom, _factor(z.strip()).vec


@pytest.mark.parametrize("family, orbit_size", [
    ("cor3.5", 12), ("cor3.6", 4), ("cor3.8", 6), ("cor3.10", 4)])
def test_families_are_the_head_orbits_less_the_identity(family, orbit_size):
    # the paper's "exhaustive" claim: every distinct series that permuting
    # c..f makes of the head is one row of the family
    name, template, _, rows = next(f for f in _FAMILIES if f[0] == family)
    orbit = {_canonical(_at(template, "".join(p))) for p in permutations("cdef")}
    assert len(orbit) == orbit_size
    got = [_canonical(record_by_id(f"{name}/{rid}").rhs.series_label) for rid, _ in rows]
    assert len(got) == len(set(got)) == orbit_size - 1
    assert set(got) == orbit - {_canonical(_at(template))}


@pytest.mark.parametrize("a, b, same", [
    ("qb/ed", "qb/de", True),
    ("q2b2/cdef", "q^2 b^2/fedc", True),
    ("qb/c", "b/c", False),
    ("q^-n c/b", "q^n c/b", False),
])
def test_monomial_key_compares_exponent_vectors(a, b, same):
    assert (_factor(a).vec == _factor(b).vec) is same
    assert (_factor(a).key == _factor(b).key) is same
