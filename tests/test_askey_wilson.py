"""Representation agreement, invariances, and the base-inverted family."""

import itertools
import random
from fractions import Fraction

import pytest

from qaskey import (
    ALL_REPS,
    AWParams,
    GaussianRational,
    QBase,
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
    InvalidIndices,
    PoleGuard,
    _report,
    qinv_rep_series,
    rep_series,
)
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
    q, w = params.q.q, params.w
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
        q = QBase(complex(rng.uniform(0.15, 0.85), 0.0))
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
    assert "a_r / a_p" in str(err.value)


def test_qinv_w_def4_guard_names_the_substitution():
    # the base-inverted w-def4 is the plain one at a -> 1/a, w -> 1/w, so
    # its (1/w^2;q)_n is (w^2;q)_n in the caller's w, which w = -1 zeroes
    q = rand_qbase(random.Random(29))
    params = AWParams([G(2), G(3), G(5), G(7)], q, G(-1), 2)
    with pytest.raises(PoleGuard) as err:
        eval_qinv_rep(params, RepTag.W_DEF4)
    assert str(err.value) == "at a -> 1/a, w -> 1/w: pole guard failed: (1/w^2;q)_n = 0"


def test_qinv_w_def5_guard_names_the_substitution():
    # w-def5 keeps w; its (a_r/a_p;q)_n reads a_p/a_r in the caller's a
    q = rand_qbase(random.Random(29))
    params = AWParams([G(2), G(2), G(5), G(7)], q, G(3), 2)
    with pytest.raises(PoleGuard) as err:
        eval_qinv_rep(params, RepTag.W_DEF5)
    assert str(err.value) == "at a -> 1/a: pole guard failed: (a_r / a_p;q)_n = 0"


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


def test_reversal_of_mixed_representation_flips_w_and_swaps_roles():
    rng = random.Random(31)
    params = _admissible(rng, n_max=4)
    pref, spec = rep_series(params, RepId(RepTag.PHI_MIXED))
    _, rev = invert_series(spec)
    flipped = AWParams(params.a, params.q, G(1) / params.w, params.n)
    _, expected = rep_series(flipped, RepId(RepTag.PHI_MIXED, p=3, r=4, t=1, u=2))
    # parameter lists match as multisets (summation order is immaterial)
    assert sorted(map(str, rev.num)) == sorted(map(str, expected.num))
    assert sorted(map(str, rev.den)) == sorted(map(str, expected.den))
    assert rev.z == expected.z == spec.q.q


def test_reversal_of_w5_representation_swaps_p_and_r():
    rng = random.Random(37)
    params = _admissible(rng, n_max=4)
    _, spec = rep_series(params, RepId(RepTag.W_DEF5))
    _, rev = invert_w(spec)
    _, expected = rep_series(params, RepId(RepTag.W_DEF5, p=2, r=1, t=3, u=4))
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
    rng = random.Random(47)
    params = _admissible(rng, n_max=3, qinv=True)
    for rep in ALL_REPS:
        pref, spec = qinv_rep_series(params, rep)
        assert spec.n == params.n
        assert spec.q.q == params.q.q


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
