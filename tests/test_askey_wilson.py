"""Representation agreement, invariances, and the base-inverted family."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from qaskey import (
    ALL_REPS,
    AWParams,
    GaussianRational,
    RepId,
    RepTag,
    TermTrace,
    check_qinv_scaling,
    eval_all,
    eval_qinv_all,
    eval_qinv_direct,
    eval_qinv_rep,
    eval_rep,
    invert_series,
    invert_w,
)
from qaskey.askey_wilson import (
    _QINV,
    _QINV_POWER,
    _QINV_W,
    _ROWS,
    InvalidIndices,
    PoleGuard,
    _report,
    _rep_side,
)
from qaskey.labels import SLOTS, _SERIES, _factor, substituted
from qaskey.qseries import ZeroParameter

from util import divided_differences, rand_aw_params, rand_qbase, rand_scalar

G = GaussianRational


def _admissible(rng, n_max=6, big=False, qinv=False):
    while True:
        params = rand_aw_params(rng, n_max=n_max, big=big)
        report = eval_qinv_all(params) if qinv else eval_all(params)
        if not report.skipped and len(report.values) == 7:
            return params


def test_rep_id_roles():
    rep = RepId(RepTag.PHI_MIXED)
    assert rep.roles == (1, 2, 3, 4)
    rep = RepId(RepTag.PHI_MIXED, p=3)
    assert rep.roles == (3, 1, 2, 4)
    rep = RepId(RepTag.W_DEF5, p=2, r=4)
    assert rep.roles == (2, 4, 1, 3)
    with pytest.raises(InvalidIndices):
        RepId(RepTag.PHI_STD, p=5)
    with pytest.raises(InvalidIndices):
        RepId(RepTag.PHI_STD, p=2, r=2)


def test_aw_params_validation():
    q = rand_qbase(random.Random(0))
    with pytest.raises(ZeroParameter):
        AWParams([G(1), G(0), G(2), G(3)], q, G(1, 1), 2)
    with pytest.raises(ZeroParameter):
        AWParams([G(1), G(5), G(2), G(3)], q, G(0), 2)
    params = AWParams([G(1), G(5), G(2), G(3)], q, G(2), 1)
    assert params.a1234 == G(30)
    assert params.x == G(Fraction(5, 4))


def test_degree_zero_every_representation_is_one():
    rng = random.Random(3)
    for _ in range(10):
        params = rand_aw_params(rng, n_max=0)
        for rep in ALL_REPS:
            try:
                value, trace = eval_rep(params, rep)
                qvalue, _ = eval_qinv_rep(params, rep)
            except PoleGuard:
                continue
            assert value == G(1)
            assert qvalue == G(1)
            assert trace.terms[-1] == G(1)


def test_degree_one_standard_representation_hand_formula():
    rng = random.Random(5)
    params = _admissible(rng, n_max=1)
    params = AWParams(params.a, params.q, params.w, 1)
    a1, a2, a3, a4 = params.a
    q, w = params.q, params.w
    one = G(1)
    bracket = one + ((one - one / q) * (one - params.a1234)
                     * (one - a1 * w) * (one - a1 / w) * q
                     / ((one - q) * (one - a1 * a2) * (one - a1 * a3)
                        * (one - a1 * a4)))
    expected = (one / a1) * (one - a1 * a2) * (one - a1 * a3) * (one - a1 * a4) * bracket
    assert eval_rep(params, RepTag.PHI_STD)[0] == expected


def test_seven_way_agreement_exact():
    rng = random.Random(7)
    for _ in range(25):
        params = _admissible(rng)
        report = eval_all(params)
        assert report.all_agree and report.max_deviation == 0.0
        assert report.exact


def test_seven_way_agreement_float():
    rng = random.Random(11)
    import cmath
    import math

    checked = 0
    while checked < 50:
        q = complex(rng.uniform(0.15, 0.85), 0.0)
        w = cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        a = [cmath.rect(math.exp(rng.uniform(math.log(0.2), math.log(4.0))),
                        rng.uniform(0, 2 * math.pi)) for _ in range(4)]
        params = AWParams(a, q, w, rng.randint(0, 6))
        report = eval_all(params)
        if report.skipped or len(report.values) < 7:
            continue
        if report.scale / max(abs(v) for v in report.values.values()) > 1e8:
            continue
        assert report.max_deviation <= 1e-10 * max(report.scale, 1.0)
        checked += 1


def test_role_choices_do_not_change_values():
    rng = random.Random(13)
    params = _admissible(rng, n_max=4)
    base, _ = eval_rep(params, RepTag.PHI_STD)
    for tag in (RepTag.PHI_STD, RepTag.PHI_MIXED, RepTag.W_DEF5, RepTag.W_DEF7):
        for roles in itertools.permutations((1, 2, 3, 4)):
            rep = RepId(tag, *roles)
            try:
                value, _ = eval_rep(params, rep)
            except PoleGuard:
                continue
            assert value == base, (tag, roles)


def _eval_or_guard(params, rep):
    try:
        value, trace = eval_rep(params, rep)
    except PoleGuard as exc:
        return type(exc)
    return value, trace.abs_scale


def test_permutation_invariance_all_24():
    # each permuted standard evaluation is the series of role p = perm[0]
    # at the unpermuted point, equal in value and in trace scale; so the
    # four roles are the only distinct series, and they agree
    rng = random.Random(17)
    for big in (False, True):
        for _ in range(6):
            params = _admissible(rng, n_max=6, big=big)
            value, _ = eval_rep(params, RepTag.PHI_STD)
            by_role = {p: _eval_or_guard(params, RepId(RepTag.PHI_STD, p=p))
                       for p in (1, 2, 3, 4)}
            for perm in itertools.permutations((1, 2, 3, 4)):
                permuted = _eval_or_guard(params.permuted(perm), RepTag.PHI_STD)
                assert permuted == by_role[perm[0]], (big, perm)
            for role in by_role.values():
                assert role is PoleGuard or role[0] == value


def _theta_flip_difference(params):
    value, _ = eval_rep(params, RepTag.PHI_MIXED)
    return value - eval_rep(params.with_w(G(1) / params.w), RepTag.PHI_MIXED)[0]


def test_theta_flip_invariance():
    rng = random.Random(19)
    for _ in range(15):
        params = _admissible(rng, n_max=5)
        assert _theta_flip_difference(params) == G(0)
    # w = 1 is its own flip
    params = _admissible(rng, n_max=4)
    assert _theta_flip_difference(params.with_w(G(1))) == G(0)


def test_guard_reporting_and_partial_eval():
    # w = 1 disables only the shape whose prefactor divides by (1/w^2;q)_n
    rng = random.Random(23)
    while True:
        params = rand_aw_params(rng, n_max=3)
        params = AWParams(params.a, params.q, G(1), max(params.n, 1))
        report = eval_all(params)
        if report.values:
            break
    assert "w-def4" in report.skipped
    assert "1/w^2" in report.skipped["w-def4"]
    assert report.all_agree


def test_pole_guard_names_constraint():
    rng = random.Random(29)
    q = rand_qbase(rng)
    # a_r = a_p makes (a_r/a_p;q)_n vanish for n >= 1
    params = AWParams([G(2), G(2), G(5), G(7)], q, G(3), 2)
    with pytest.raises(PoleGuard) as err:
        eval_rep(params, RepTag.W_DEF5)
    assert str(err.value) == "w-def5: prefactor pole: (b/a;q)_n = 0"


def test_qinv_w_def4_guard_names_the_substitution():
    # the base-inverted w-def4 is the plain one at a -> 1/a, w -> 1/w, so
    # its (1/w^2;q)_n is (w^2;q)_n in the caller's w, which w = -1 zeroes
    q = rand_qbase(random.Random(29))
    params = AWParams([G(2), G(3), G(5), G(7)], q, G(-1), 2)
    with pytest.raises(PoleGuard) as err:
        eval_qinv_rep(params, RepTag.W_DEF4)
    assert str(err.value) == ("w-def4 at (a,b,c,d,w) -> (1/a, 1/b, 1/c, 1/d, 1/w): "
                              "prefactor pole: (w^2;q)_n = 0")


def test_qinv_w_def5_guard_names_the_substitution():
    # w-def5 keeps w; its (a_r/a_p;q)_n reads a_p/a_r in the caller's a
    q = rand_qbase(random.Random(29))
    params = AWParams([G(2), G(2), G(5), G(7)], q, G(3), 2)
    with pytest.raises(PoleGuard) as err:
        eval_qinv_rep(params, RepTag.W_DEF5)
    assert str(err.value) == ("w-def5 at (a,b,c,d) -> (1/a, 1/b, 1/c, 1/d): "
                              "prefactor pole: (a/b;q)_n = 0")


def test_exact_report_deviation_is_the_largest_pairwise_difference():
    params = rand_aw_params(random.Random(31))
    reps = ALL_REPS[:4]
    x, y, z = G(Fraction(1, 3), 2), G(-5, Fraction(1, 7)), G(Fraction(9, 4))

    def report_of(values):
        by_tag = dict(zip((rep.tag for rep in reps), values))

        def evaluator(params, rep):
            v = by_tag[rep.tag]
            return v, TermTrace((v,))

        return _report(params, reps, evaluator)

    families = [[x, x, y, z], [x, x, x, y]]     # one odd value, in any slot
    for values in {p for f in families for p in itertools.permutations(f)}:
        report = report_of(values)
        assert report.exact and not report.all_agree
        assert report.max_deviation == max(
            abs(a - b) for a, b in itertools.combinations(values, 2))
    report = report_of([x, x, x, x])
    assert report.all_agree and report.max_deviation == 0.0


def _vectors(label: str) -> tuple:
    """A series label as its kind, the sorted exponent vectors of its
    upper and lower entries, and that of its argument."""
    kind, top, bottom, z = _SERIES.fullmatch(label).groups()
    top, bottom = (sorted(_factor(x.strip()).vec for x in part.split(","))
                   for part in (top, bottom))
    return kind, top, bottom, _factor(z.strip()).vec


def _lin(*terms) -> tuple:
    """The exponent vector sum of c * v over the pairs (c, v)."""
    return tuple(sum(c * v[i] for c, v in terms) for i in range(len(SLOTS) + 2))


def _series_label(rep) -> str:
    return _rep_side(rep, False)[0].series_label


def test_reversal_of_mixed_representation_flips_w_and_swaps_roles():
    # as labels: reversing phi(N; D | q, z) gives q^{1-n}/D over q^{1-n}/N
    # at q^{n+1} prod(D) / (z prod(N)), which is phi-mixed with roles
    # (3, 4, 1, 2) at w -> 1/w
    kind, num, den, z = _vectors(_series_label(RepId(RepTag.PHI_MIXED)))
    q1n, qn1 = _factor("q^{1-n}").vec, _factor("q^{n+1}").vec
    reversed_ = (kind, sorted(_lin((1, q1n), (-1, v)) for v in den),
                 sorted(_lin((1, q1n), (-1, v)) for v in num),
                 _lin((1, qn1), (-1, z), *((1, v) for v in den), *((-1, v) for v in num)))
    swapped = _series_label(RepId(RepTag.PHI_MIXED, p=3, r=4, t=1, u=2))
    assert reversed_ == _vectors(substituted("(w) -> (1/w)", swapped))
    # and as values: invert_series on the series at a draw
    params = _admissible(random.Random(31), n_max=4)
    flipped = AWParams(params.a, params.q, G(1) / params.w, params.n)
    _, rev = invert_series(_rep_side(RepId(RepTag.PHI_MIXED), False)[0].series(params._draw))
    expected = _rep_side(RepId(RepTag.PHI_MIXED, p=3, r=4, t=1, u=2), False)[0].series(
        flipped._draw)
    # parameter lists match as multisets (summation order is immaterial)
    assert sorted(map(str, rev.num)) == sorted(map(str, expected.num))
    assert sorted(map(str, rev.den)) == sorted(map(str, expected.den))
    assert rev.z == expected.z == params.q


def test_reversal_of_w5_representation_swaps_p_and_r():
    # as labels: reversing W(B; L | q, z) with four L gives
    # W(q^{-2n}/B; q^{-n} L/B | q, q^{2n+4} B^4 / (prod(L)^2 z)), which is
    # w-def5 with p and r interchanged
    kind, (b,), lower, z = _vectors(_series_label(RepId(RepTag.W_DEF5)))
    reversed_ = (kind, [_lin((1, _factor("q^-2n").vec), (-1, b))],
                 sorted(_lin((1, _factor("q^-n").vec), (1, v), (-1, b)) for v in lower),
                 _lin((1, _factor("q^{2n+4}").vec), (4, b), *((-2, v) for v in lower), (-1, z)))
    assert reversed_ == _vectors(_series_label(RepId(RepTag.W_DEF5, p=2, r=1, t=3, u=4)))
    # and as values: invert_w on the series at a draw
    params = _admissible(random.Random(37), n_max=4)
    _, rev = invert_w(_rep_side(RepId(RepTag.W_DEF5), False)[0].series(params._draw))
    expected = _rep_side(RepId(RepTag.W_DEF5, p=2, r=1, t=3, u=4), False)[0].series(
        params._draw)
    assert rev.b == expected.b
    assert sorted(map(str, rev.lower)) == sorted(map(str, expected.lower))
    assert rev.z == expected.z


def test_qinv_family_agreement_and_direct_oracle():
    rng = random.Random(41)
    for big in (False, True):
        for _ in range(10):
            params = _admissible(rng, n_max=4, big=big, qinv=True)
            report = eval_qinv_all(params)
            assert report.all_agree
            direct, _ = eval_qinv_direct(params)
            for value in report.values.values():
                assert value == direct


def test_qinv_scaling_identity():
    rng = random.Random(43)
    for big in (False, True):
        for _ in range(10):
            params = _admissible(rng, n_max=4, big=big, qinv=True)
            try:
                d1, d2 = check_qinv_scaling(params)
            except PoleGuard:
                continue
            assert d1 == G(0)
            assert d2 == G(0)


def test_qinv_rep_series_shapes_mirror_plain_ones():
    # each base-inverted row is its plain row under a -> 1/a, and w -> 1/w
    # for phi-mixed, w-def4, w-def6 and w-def7, behind the power
    # q^{-3C(n,2)} (-abcd)^n: the same shape, each monomial's exponents of
    # the substituted slots negated and its q exponent kept
    flips = {RepTag.PHI_MIXED, RepTag.W_DEF4, RepTag.W_DEF6, RepTag.W_DEF7}
    for rep in ALL_REPS:
        (plain, _), (inverted, name) = _rep_side(rep, False), _rep_side(rep, True)
        sign = [1, 1, -1, -1, -1, -1, 1, 1, -1 if rep.tag in flips else 1]
        assert name == f"{rep.tag.value} at " + (_QINV_W if rep.tag in flips else _QINV)
        for got, want in ((inverted.series.entries, plain.series.entries),
                          (inverted.pref_num, plain.pref_num),
                          (inverted.pref_den, plain.pref_den)):
            assert [f.vec for f in got] == [tuple(map(int.__mul__, sign, f.vec)) for f in want]
        assert inverted.series.vwp == plain.series.vwp
        assert inverted.power_label.startswith(_QINV_POWER + " ")


def test_each_representation_prints_as_its_row():
    # the Side a RepId selects prints back as its row with the roles
    # filled: the formula printed is the formula that runs
    for rep in (*ALL_REPS, RepId(RepTag.W_DEF5, p=3, r=1, t=4, u=2)):
        row = _ROWS[rep.tag][0].format(**dict(zip("prtu", ("abcd"[k - 1] for k in rep.roles))))
        assert _rep_side(rep, False)[0].describe() == row


def test_polynomial_degree_bound_and_leading_coefficient():
    rng = random.Random(53)
    checked = 0
    while checked < 12:
        q = rand_qbase(rng)
        n = rng.randint(0, 6)
        a = [rand_scalar(rng, gaussian=0.0) for _ in range(4)]
        try:
            params0 = AWParams(a, q, G(2), n)
        except ZeroParameter:
            continue
        ws = [G(Fraction(j + 2, 1)) for j in range(n + 2)]
        xs, ys = [], []
        try:
            for w in ws:
                p = AWParams(a, q, w, n)
                xs.append(p.x)
                ys.append(eval_rep(p, RepTag.PHI_STD)[0])
        except PoleGuard:
            continue
        dd = divided_differences(xs, ys)
        assert dd[n + 1] == G(0)
        if n > 0 and dd[n] == G(0):
            continue  # nongeneric draw: resample for the degree-exact half
        checked += 1


# the evaluations the value pin covers: every representation at its
# default roles, and one permuted RepId of each role-dependent shape
_PIN_REPS = (*ALL_REPS, RepId(RepTag.PHI_STD, p=3), RepId(RepTag.PHI_INV, p=4),
             RepId(RepTag.PHI_MIXED, p=3, r=4, t=1, u=2), RepId(RepTag.W_DEF6, p=2),
             RepId(RepTag.W_DEF7, p=4, r=2), RepId(RepTag.W_DEF5, p=2, r=1, t=3, u=4))


def _pin_draws() -> list:
    """46 fixed exact draws: 20 random ones (Gaussian parameters, real and
    non-real bases, |q| > 1 for every third), and 26 built so that a
    guard of some representation or of its base-inverted twin fires."""
    rng = random.Random(2026)
    draws = [rand_aw_params(rng, n_max=5, big=k % 3 == 2) for k in range(20)]
    s = G(Fraction(2, 3), Fraction(1, 5))
    q = s * s
    a = [G(Fraction(1, 2), 1), G(Fraction(-3, 4)), G(2, Fraction(-1, 3)), G(Fraction(5, 7))]
    w = G(Fraction(3, 5), Fraction(1, 2))
    n = 3
    for k in range(3):
        # w^2 = q^{-k}, and w^2 = q^{k+1}
        draws.append(AWParams(a, q, 1 / pow(s, k), n))
        draws.append(AWParams(a, q, pow(s, k + 1), n))
        # a_1 a_2 = q^{-k}, and a_1 a_3 = q^k
        draws.append(AWParams([1 / (pow(q, k) * a[1]), *a[1:]], q, w, n))
        draws.append(AWParams([pow(q, k) / a[2], a[1], a[2], a[3]], q, w, n))
        # q^{n-1} a_2 a_3 a_4 / w = q^{-k}, and a_2 a_3 a_4 w = q^{-k}
        draws.append(AWParams(a, q, pow(q, n - 1 + k) * a[1] * a[2] * a[3], n))
        draws.append(AWParams(a, q, 1 / (pow(q, k) * a[1] * a[2] * a[3]), n))
    # q^{1-n} w / a_1 = 1, q^{1-n} w a_1 = 1, q^{2-2n} / a_1234 = q^{-1}, and
    # q^{n-1} w / (a_2 a_3 a_4) = 1 (the base-inverted w-def6)
    draws.append(AWParams(a, q, pow(q, n - 1) * a[0], n))
    draws.append(AWParams(a, q, pow(q, n - 1) / a[0], n))
    draws.append(AWParams([*a[:3], pow(q, 2 * n - 1) / (a[0] * a[1] * a[2])], q, w, n))
    draws.append(AWParams(a, q, a[1] * a[2] * a[3] / pow(q, n - 1), n))
    # a_r = a_p, w = 1 and w = -1
    draws.append(AWParams([a[0], a[0], a[2], a[3]], q, w, n))
    draws.append(AWParams([a[1], a[2], a[2], a[1]], q, w, n))
    draws.append(AWParams(a, q, G(1), n))
    draws.append(AWParams(a, q, G(-1), n))
    return draws


def _pin_lines() -> list:
    lines = []
    for params in _pin_draws():
        for evaluate in (eval_rep, eval_qinv_rep):
            for rep in _PIN_REPS:
                try:
                    value, _ = evaluate(params, rep)
                except PoleGuard:
                    lines.append("guard")
                    continue
                lines.append(str(value))
    return lines


# recorded on the hand-written representations: the number of guards
# that fire, and the sha256 of the lines
_PIN_GUARDS = 79
_PIN_DIGEST = "5be74f6e813ae53b6fdcfe9425e027dec1fc6c1079122a47a6df7a7c3e34d6d3"


def test_fourteen_evaluations_are_pinned_value_by_value():
    # each of the seven representations and their base-inverted twins, at
    # default and permuted roles, on 46 fixed exact draws: its exact value
    # or the fact that a guard fired (not its message).  The sweep report
    # pins hold only per-target counts, which cannot see a changed set of
    # admissible draws or an error that all seven representations share
    lines = _pin_lines()
    assert len(lines) == 46 * 2 * len(_PIN_REPS)
    assert lines.count("guard") == _PIN_GUARDS
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _PIN_DIGEST

