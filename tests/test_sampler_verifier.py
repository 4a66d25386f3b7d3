"""Draw generation, determinism, and sweep aggregation."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from qaskey import (
    DrawConfig,
    GaussianRational,
    SamplerExhausted,
    SweepReport,
    UnknownTarget,
    run_sweep,
)
from qaskey import askey_wilson as aw
from qaskey import qseries, sampler_verifier
from qaskey import arithmetic
from qaskey.arithmetic import GuardViolation, QBase, parts, pow_int
from qaskey.identity_catalog import CheckOutcome, Verdict, judge, settle
from qaskey.sampler_verifier import (
    Target,
    _admissible,
    _rand_exact,
    _rand_q,
    all_target_ids,
    all_targets,
    draw_params,
    resolve_targets,
)

from util import lifted


def test_config_validation():
    DrawConfig()
    with pytest.raises(ValueError):
        DrawConfig(backend="symbolic")
    with pytest.raises(ValueError):
        DrawConfig(n_range=(3, 1))
    with pytest.raises(ValueError):
        DrawConfig(n_range=(-1, 2))
    with pytest.raises(ValueError):
        DrawConfig(draws_per_record=-1)


def test_draw_config_holds_what_callers_set():
    # the draw policy and the tolerances are fixed, not config fields; a
    # report records them beside the config, under the same ten names
    assert [f.name for f in dataclasses.fields(DrawConfig)] == [
        "seed", "draws_per_record", "n_range", "backend", "q_big"]
    for key in sampler_verifier.POLICY:
        with pytest.raises(TypeError):
            DrawConfig(**{key: sampler_verifier.POLICY[key]})
    assert sampler_verifier.POLICY == {
        "q_range": (0.15, 0.85), "modulus_range": (0.1, 10.0),
        "rat_max_num": 30, "rat_max_den": 30, "gaussian_prob": 0.5,
        "pole_eps": arithmetic.POLE_EPS, "rel_tol": arithmetic.REL_TOL,
        "abs_tol": arithmetic.ABS_TOL, "cond_cap": arithmetic.COND_CAP,
        "max_rejects": 500}
    cfg = DrawConfig(seed=16, draws_per_record=1, backend="both", q_big=True)
    report = run_sweep(cfg, ["cor3.5/r7"])
    assert report.config == dataclasses.asdict(cfg)
    config = report.as_dict()["config"]
    assert config == {**sampler_verifier.POLICY, **dataclasses.asdict(cfg)}
    assert len(config) == 15
    assert json.loads(report.to_json())["config"] == json.loads(
        json.dumps(config))


def test_target_inventory_and_resolution():
    ids = all_target_ids()
    assert len([i for i in ids if i.startswith(("cor", "rem"))]) == 35
    assert "aw/seven-way" in ids and "ops/watson-whipple" in ids
    assert [t.id for t in resolve_targets(["cor3.6/*"])] == [
        "cor3.6/r2", "cor3.6/r3", "cor3.6/r4"]
    with pytest.raises(UnknownTarget):
        resolve_targets(["nosuch/*"])
    with pytest.raises(UnknownTarget):
        resolve_targets(["cor3.6/r9"])


def test_resolution_follows_a_rebound_target_list(monkeypatch):
    # the benchmark's tracer swaps wrapped copies into _TARGETS; ids and
    # globs must then resolve to the copies
    resolve_targets(["cor3.6/r3"])
    wrapped = [dataclasses.replace(t) for t in all_targets()]
    monkeypatch.setattr(sampler_verifier, "_TARGETS", wrapped)
    for patterns in (["cor3.6/r3"], ["cor3.6/*", "aw/seven-way"]):
        assert all(any(t is w for w in wrapped) for t in resolve_targets(patterns))


def _ref_rand_fraction(rng) -> Fraction:
    num = rng.randint(1, sampler_verifier.RAT_MAX)
    den = rng.randint(1, sampler_verifier.RAT_MAX)
    return Fraction(-num if rng.random() < 0.5 else num, den)


def _ref_rand_exact(rng) -> GaussianRational:
    # the reference draw: each part a reduced Fraction
    re = _ref_rand_fraction(rng)
    if rng.random() < sampler_verifier.GAUSSIAN_PROB:
        return GaussianRational(re, _ref_rand_fraction(rng))
    return GaussianRational(re)


def _ref_rand_q(rng, cfg) -> QBase:
    # the reference base: a Fraction tested against the float window ends
    lo, hi = sampler_verifier.Q_RANGE
    while True:
        q = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        if lo < q < hi:
            return QBase(GaussianRational(1 / q if cfg.q_big else q))


def _draw_all(draw_q, draw_scalar, rng, cfg):
    # a catalogue draw's exact scalars: q, then five slots
    q = parts(draw_q(rng, cfg).q)
    return q, [parts(draw_scalar(rng)) for _ in range(5)], rng.getstate()


def test_exact_draws_equal_the_fraction_reference(monkeypatch):
    # same triples and the same rng calls, hence the same generator state;
    # the last two settings patch the draw policy, which the helpers read
    # when they run
    settings = [(DrawConfig(), {}), (DrawConfig(q_big=True), {}),
                (DrawConfig(), {"Q_RANGE": (0.3, 0.7)}),
                (DrawConfig(q_big=True),
                 {"Q_RANGE": (0.3, 0.7), "GAUSSIAN_PROB": 0.9, "RAT_MAX": 97})]
    for k, (cfg, policy) in enumerate(settings):
        for name, value in policy.items():
            monkeypatch.setattr(sampler_verifier, name, value)
        for i in range(k, 10_000, len(settings)):
            new = _draw_all(lambda r, c: _rand_q(r, c, True), _rand_exact,
                            random.Random(f"diff:{i}"), cfg)
            ref = _draw_all(_ref_rand_q, _ref_rand_exact, random.Random(f"diff:{i}"), cfg)
            assert new == ref, (i, cfg, policy)
            assert all(type(x) is int for x in new[0] + sum(new[1], ())), i


def test_exact_q_lies_in_the_window_or_its_mirror():
    # lo < p/d < hi, decided on ints; with q_big the base is d/p
    lo, hi = (Fraction(x) for x in sampler_verifier.Q_RANGE)
    seen = set()
    for cfg in (DrawConfig(), DrawConfig(q_big=True)):
        for i in range(2000):
            a, b, d = parts(_rand_q(random.Random(f"window:{i}"), cfg, True).q)
            q = Fraction(a, d)
            assert b == 0 and a > 0
            assert lo < (1 / q if cfg.q_big else q) < hi, (i, q)
            seen.add(q)
    # the window holds many candidates, and the draws reach its ends
    assert min(seen) < Fraction(1, 5) and max(seen) > 6


def test_draws_are_deterministic():
    cfg = DrawConfig(seed=99, draws_per_record=5)
    for tid in ("cor3.5/r7", "aw/seven-way", "ops/invert-series"):
        a = [draw_params(cfg, tid, i) for i in range(5)]
        b = [draw_params(cfg, tid, i) for i in range(5)]
        assert [str(x) for x in a] == [str(x) for x in b]
    other = [draw_params(DrawConfig(seed=100), "cor3.5/r7", i) for i in range(5)]
    assert [str(x) for x in a] != [str(x) for x in other]


def test_watson_draws_solve_balance_exactly():
    cfg = DrawConfig(seed=5)
    for i in range(10):
        spec = draw_params(cfg, "ops/watson-whipple", i)
        a, b, c = spec.num
        d, e, f = spec.den
        assert not pow_int(spec.q.q, 1 - spec.n) * a * b * c - d * e * f
        assert spec.z == spec.q.q


def test_q_guard_on_draws():
    cfg = DrawConfig(seed=6, q_big=True)
    for i in range(10):
        d = draw_params(cfg, "cor3.10/r2", i)
        q = d.q.q
        assert q.abs2() > 1


def test_sampler_exhausted_on_impossible_target():
    def impossible_draw(rng, cfg, exact):
        raise GuardViolation("never admissible")

    target = Target("test/impossible", "synthetic", impossible_draw,
                    lambda d, exact: None)
    with pytest.raises(SamplerExhausted, match="within 500 rejections"):
        draw_params(DrawConfig(), target)


def test_skip_rate_of_raw_draws_is_low():
    # guards are margins, not dominant behavior: < 5% of unconstrained
    # draws get rejected under the default ranges
    cfg = DrawConfig(seed=7)
    targets = {t.id: t for t in all_targets()}
    rng = random.Random(1234)
    plan = [("cor3.3/3.5a.2", 1000), ("cor3.5/r8", 1000),
            ("cor3.10/r3", 1000), ("aw/seven-way", 250)]
    for tid, total in plan:
        target = targets[tid]
        rejected = 0
        for _ in range(total):
            try:
                cand = target.draw(rng, cfg, True)
            except (GuardViolation, ZeroDivisionError):
                rejected += 1
                continue
            if target.run(cand, True).verdict is Verdict.SKIPPED:
                rejected += 1
        assert rejected / total < 0.05, (tid, rejected)


def test_rational_sweeps_have_no_inconclusive():
    cfg = DrawConfig(seed=8, draws_per_record=12, n_range=(0, 4))
    report = run_sweep(cfg, ["cor3.6/*", "aw/qinverse", "ops/connect-qinv"])
    for entry in report.entries:
        assert entry.inconclusive == 0
        assert entry.passed + entry.failed + entry.skipped == cfg.draws_per_record


def test_sweep_tallies_and_schema():
    # n >= 1 keeps the printed quarantine variant away from trivial passes
    cfg = DrawConfig(seed=9, draws_per_record=6, n_range=(1, 3))
    report = run_sweep(cfg, ["cor3.8/*"])
    assert len(report.entries) == 5
    payload = json.loads(report.to_json())
    assert set(payload) == {"seed", "config", "records", "wall_time_s"}
    for row in payload["records"]:
        keys = {"record_id", "ref", "pass", "fail", "inconclusive", "skipped",
                "worst_deviation"}
        assert keys.issubset(row)
        assert (row["pass"] + row["fail"] + row["inconclusive"] + row["skipped"]
                == cfg.draws_per_record)
    q6 = [row for row in payload["records"] if row["record_id"] == "cor3.8/r6"]
    assert q6 and "quarantine" in q6[0]
    qinfo = q6[0]["quarantine"]
    assert qinfo["correction"] == "denominator factor qb/de -> qb/cd"
    assert qinfo["printed"]["fail"] > 0
    assert qinfo["printed"]["pass"] < cfg.draws_per_record
    assert q6[0]["pass"] == cfg.draws_per_record


def test_sweep_report_config_is_the_config_as_a_dict():
    for cfg in (DrawConfig(seed=14, draws_per_record=2),
                DrawConfig(seed=15, draws_per_record=1, n_range=(1, 3), q_big=True,
                           backend="both")):
        report = run_sweep(cfg, ["cor3.5/r7"])
        assert report.config == dataclasses.asdict(cfg)
        ref = SweepReport(report.seed, dataclasses.asdict(cfg), report.entries,
                          report.wall_time_s)
        assert report.to_json() == ref.to_json()


def test_sweep_determinism_modulo_timing():
    cfg = DrawConfig(seed=10, draws_per_record=5)
    targets = ["cor3.5/r4", "rem3.8/a4", "ops/qinvert-f"]
    r1 = run_sweep(cfg, targets)
    r2 = run_sweep(cfg, targets)
    assert r1.to_json(include_timing=False) == r2.to_json(include_timing=False)
    assert r1.to_json() != ""  # timing variant also serializes


def test_empty_target_list():
    report = run_sweep(DrawConfig(seed=11, draws_per_record=3), [])
    assert report.entries == []
    assert not report.any_fail


def test_both_backend_mode():
    cfg = DrawConfig(seed=12, draws_per_record=4, backend="both")
    report = run_sweep(cfg, ["cor3.10/r2"])
    assert [e.record_id for e in report.entries] == [
        "cor3.10/r2:rational", "cor3.10/r2:float"]
    for entry in report.entries:
        assert entry.failed == 0
        total = entry.passed + entry.failed + entry.inconclusive + entry.skipped
        assert total == cfg.draws_per_record


def test_float_sweep_never_fails_any_record(monkeypatch):
    # every record PASSes or is INCONCLUSIVE on 1000 float draws each, from
    # a base window wider than the default
    monkeypatch.setattr(sampler_verifier, "Q_RANGE", (0.1, 0.9))
    cfg = DrawConfig(seed=13, draws_per_record=1000, backend="float", n_range=(0, 10))
    report = run_sweep(cfg, ["cor*", "rem*"])
    assert len(report.entries) == 35
    for entry in report.entries:
        assert entry.failed == 0, entry.record_id
        assert entry.passed > 0, entry.record_id


def test_float_aw_invariances_scale_by_every_evaluation():
    # the permuted and the flipped evaluations can have far larger term
    # magnitudes than the first one; a tolerance built from the first
    # scale alone FAILs these true identities on the default draws
    cfg = DrawConfig(backend="float")
    report = run_sweep(cfg, ["aw/permutation", "aw/theta-flip"])
    for entry in report.entries:
        assert (entry.failed, entry.inconclusive) == (0, 0), entry.record_id
        assert entry.passed == cfg.draws_per_record


def test_float_overflow_is_inconclusive_not_a_crash():
    # at degree 60 with |q| > 1 float terms overflow: those checks end
    # INCONCLUSIVE with deviation 0.0, and the report stays standard JSON
    cfg = DrawConfig(seed=14, draws_per_record=3, backend="float",
                     n_range=(60, 60), q_big=True)
    report = run_sweep(cfg, ["*"])
    assert len(report.entries) == len(all_target_ids())
    for entry in report.entries:
        total = entry.passed + entry.failed + entry.inconclusive + entry.skipped
        assert total == cfg.draws_per_record, entry.record_id
    assert sum(entry.inconclusive for entry in report.entries) > 0
    # every check here compares true identities; non-finite values once
    # counted as FAIL on 95 of these 135 draws
    assert sum(entry.failed for entry in report.entries) == 0
    json.dumps(report.as_dict(), allow_nan=False)


def test_float_qinverse_tally_with_large_base():
    # the base-inverted prefactor takes its scaling factor into the float
    # product, whose exponent is kept apart, so the partial product that
    # once overflowed (w-def6, |q| = 2.8, n = 18) now stays finite
    cfg = DrawConfig(seed=1, backend="float", q_big=True, n_range=(0, 20))
    (entry,) = run_sweep(cfg, ["aw/qinverse"]).entries
    assert (entry.passed, entry.failed, entry.inconclusive) == (100, 0, 0)


# (pass, fail, inconclusive, skipped) of every target on float at 20
# draws, recorded before the checks handed settle (value, trace) pairs; a
# target not named is (20, 0, 0, 0).  A refactor of the float path must
# leave them unchanged
_FLOAT_TALLIES = [
    ({}, {}),
    (dict(q_big=True, n_range=(0, 20)),
     {"aw/seven-way": (19, 0, 1, 0), "aw/permutation": (19, 0, 1, 0),
      "aw/theta-flip": (19, 0, 1, 0), "ops/invert-w": (19, 0, 1, 0)}),
]


@pytest.mark.parametrize("overrides, tallies", _FLOAT_TALLIES, ids=["defaults", "q-big-n20"])
def test_float_verdict_tallies_are_pinned(overrides, tallies):
    report = run_sweep(DrawConfig(draws_per_record=20, backend="float", **overrides))
    assert [e.record_id for e in report.entries] == all_target_ids()
    for e in report.entries:
        expected = tallies.get(e.record_id, (20, 0, 0, 0))
        assert (e.passed, e.failed, e.inconclusive, e.skipped) == expected, e.record_id


def test_float_qinv_scaling_tallies_with_large_base():
    # the second value is the derived base-inverted one, whose prefactor
    # takes the factor into its product; the plain value at the reciprocal
    # point times the factor overflows on more draws.  The third value
    # reads phi-mixed at the w-flipped point; phi-std there left 6 and 34
    # of the first two settings' draws INCONCLUSIVE.  The scale counts
    # every evaluation: without the direct oracle's, one draw of the last
    # setting FAILed while the derived value underflowed to 0
    for seed, n_max, tally in ((20260808, 20, (98, 0, 2, 0)), (2, 40, (70, 0, 30, 0)),
                               (20260808, 40, (71, 0, 29, 0))):
        cfg = DrawConfig(seed=seed, backend="float", q_big=True, n_range=(0, n_max))
        (entry,) = run_sweep(cfg, ["aw/qinv-scaling"]).entries
        assert (entry.passed, entry.failed, entry.inconclusive, entry.skipped) == tally


@pytest.mark.parametrize("target_id, seed, n_max, index, n", [
    ("cor3.6/r3", 20260808, 40, 49, 38),
    ("cor3.6/r3", 20260808, 60, 49, 38),
    ("ops/invert-w", 20260808, 20, 25, 11),
    ("cor3.8/r5", 2, 20, 98, 20),
])
def test_former_float_fails_of_true_identities_pass(target_id, seed, n_max, index, n):
    # each of these float draws FAILed while a Pochhammer quotient's
    # numerator or denominator left the float range (the prefactor came
    # out 0 or -0); with the exponent kept apart the draw PASSes.  The
    # draw lifted to exact rationals PASSes too, which shows the identity
    # holds there; the degree-38 lift takes seconds and is left out here
    (target,) = resolve_targets([target_id])
    cfg = DrawConfig(seed=seed, backend="float", q_big=True, n_range=(0, n_max))
    draw, outcome = _admissible(cfg, target, "float", index)
    assert draw.n == n
    assert outcome.verdict is Verdict.PASS
    if n <= 20:
        assert target.run(lifted(draw), True).verdict is Verdict.PASS


def test_a_lifted_float_watson_draw_is_skipped_as_unbalanced():
    # a float draw solves the balance slot f = q^{1-n} a b c / (d e) in
    # floats, so lifted to exact rationals it is not balanced.  The check
    # settles as SKIPPED, its guard naming the balance condition, rather
    # than raising NotBalanced out of the target
    (target,) = resolve_targets(["ops/watson-whipple"])
    cfg = DrawConfig(backend="float")
    for index in range(20):
        draw, _ = _admissible(cfg, target, "float", index)
        outcome = target.run(lifted(draw), True)
        assert outcome.verdict is Verdict.SKIPPED
        assert outcome.guard == "balance condition q^{1-n} a b c = d e f fails"


def test_float_base_inverted_value_does_not_underflow_to_zero():
    # at |q| = 1.44, n = 38 the scaling factor q^{-3 binom(n,2)} (-a1234)^n
    # is ~1e-249, but q^{-3 binom(n,2)} alone is ~1e-336, a float 0; the
    # derived value and its scale then read as an exact 0.  The direct
    # oracle's scale at this draw is 1.5e94
    (target,) = resolve_targets(["aw/qinv-scaling"])
    cfg = DrawConfig(seed=20260808, backend="float", q_big=True, n_range=(0, 40))
    params, _ = _admissible(cfg, target, "float", 36)
    assert params.n == 38 and abs(params.q.q) == pytest.approx(1.443, abs=1e-3)
    value, trace = aw.eval_qinv_rep(params, aw.RepTag.PHI_STD)
    assert value and trace.abs_scale == pytest.approx(1.48e94, rel=1e-2)


def test_permutation_suite_fails_when_one_role_differs(monkeypatch):
    # the suite compares the four roles of the standard representation; a
    # wrong value for the last role alone must FAIL every draw
    eval_rep = aw.eval_rep

    def perturbed(params, rep):
        value, trace = eval_rep(params, rep)
        if rep == aw.RepId(aw.RepTag.PHI_STD, p=4):
            value = value + GaussianRational(1, 1)
        return value, trace

    monkeypatch.setattr(aw, "eval_rep", perturbed)
    cfg = DrawConfig(draws_per_record=10)
    (entry,) = run_sweep(cfg, ["aw/permutation"]).entries
    assert (entry.passed, entry.failed) == (0, 10)


def test_theta_flip_suite_compares_different_series(monkeypatch):
    # the two evaluations of a theta-flip check must be different series
    # wherever 1/w differs from w, or the check compares a value with
    # itself and cannot fail
    calls = []
    eval_rep = aw.eval_rep

    def recording(params, rep):
        calls.append((params, rep))
        return eval_rep(params, rep)

    monkeypatch.setattr(aw, "eval_rep", recording)
    cfg = DrawConfig(draws_per_record=20, n_range=(1, 6))
    (entry,) = run_sweep(cfg, ["aw/theta-flip"]).entries
    assert entry.passed == 20
    assert len(calls) >= 40
    for (p1, rep1), (p2, rep2) in zip(calls[::2], calls[1::2]):
        assert p2.w == GaussianRational(1) / p1.w and rep1 == rep2
        if p1.w * p1.w == GaussianRational(1):
            continue                    # w = +-1 is its own flip
        side, _ = aw._rep_side(aw._as_rep(rep1), False)
        s1, s2 = (side.series(p._draw) for p in (p1, p2))
        assert (Counter(s1.num), Counter(s1.den)) != (Counter(s2.num), Counter(s2.den))


def test_qinv_scaling_suite_compares_different_series(monkeypatch):
    # the two right-hand sides of a qinv-scaling check must be different
    # series wherever w^2 != 1; phi-std at the w-flipped point only swaps
    # a_p w and a_p / w, and its difference would repeat the first one
    specs, checks = [], []
    eval_phi, qinv_scaling = qseries.eval_phi, aw._qinv_scaling

    def recording_phi(spec, pref=None):
        specs.append(spec)
        return eval_phi(spec, pref)

    def recording(params):
        start = len(specs)
        out = qinv_scaling(params)
        checks.append((params, specs[start:]))
        return out

    monkeypatch.setattr(qseries, "eval_phi", recording_phi)
    monkeypatch.setattr(aw, "_qinv_scaling", recording)
    cfg = DrawConfig(draws_per_record=20, n_range=(1, 6))
    (entry,) = run_sweep(cfg, ["aw/qinv-scaling"]).entries
    assert entry.passed == 20
    assert len(checks) >= 20
    for params, (_, s1, s2) in checks:
        if params.w * params.w == GaussianRational(1):
            continue                    # w = +-1 is its own flip
        assert (Counter(s1.num), Counter(s1.den)) != (Counter(s2.num), Counter(s2.den))


def test_non_finite_float_value_is_inconclusive():
    # a NaN difference must not vanish into the maximum deviation
    for bad in (complex(math.nan, 0.0), complex(math.inf, 1.0)):
        outcome = judge([1 + 0j, bad, 1 + 0j], lambda: 1.0, False)
        assert outcome == CheckOutcome(Verdict.INCONCLUSIVE, 0.0, 0.0, False)
    assert judge([1 + 0j, 1 + 0j], lambda: 1.0, False).verdict is Verdict.PASS


def test_exact_family_deviation_is_the_largest_pairwise_difference():
    # an exact family agrees iff every value equals the first; when one
    # differs, the deviation is still the largest pairwise |vi - vj|
    G = GaussianRational
    x, y, z = G(Fraction(1, 3), 2), G(-5, Fraction(1, 7)), G(Fraction(9, 4))
    families = [[x, x, y, z], [x, x, x, y]]     # one odd value, in any slot
    for values in {p for f in families for p in itertools.permutations(f)}:
        outcome = judge(list(values), lambda: 1.0, True)
        assert outcome.verdict is Verdict.FAIL and outcome.exact
        assert outcome.deviation == max(
            abs(a - b) for a, b in itertools.combinations(values, 2))
    outcome = judge([x, x, x, x], lambda: 1.0, True)
    assert outcome.verdict is Verdict.PASS and outcome.deviation == 0.0


def test_overflow_while_checking_settles_by_backend():
    def draw(rng, cfg, exact):
        return rng.random()

    def overflowing(d):
        raise OverflowError("absolute value too large")

    def non_finite(d):
        # two finite values whose difference overflows
        trace = qseries.TermTrace((1 + 0j,))
        return [(1e308 + 0j, trace), (-1e308 + 0j, trace)]

    def target(evaluate):
        # a suite's run: its evaluation settled once
        return Target("test/overflow", "synthetic", draw,
                      lambda d, exact: settle(lambda: evaluate(d), exact))

    cfg = DrawConfig()
    for evaluate in (overflowing, non_finite):
        # a float check cannot decide: INCONCLUSIVE with deviation 0.0
        _, outcome = _admissible(cfg, target(evaluate), "float", 0)
        assert outcome == CheckOutcome(Verdict.INCONCLUSIVE, 0.0, 0.0, False)
    # the exact backend hides neither an error nor a FAIL
    with pytest.raises(OverflowError):
        draw_params(cfg, target(overflowing))
    assert _admissible(cfg, target(non_finite), "rational", 0)[1].verdict is Verdict.FAIL


def test_a_division_by_zero_in_a_suite_rejects_the_draw(monkeypatch):
    # a suite settles a ZeroDivisionError as a catalogue record does: the
    # draw is SKIPPED and rejected, and the sweep draws the next one
    calls = itertools.count(1)
    eval_rep = aw.eval_rep

    def flaky(params, rep):
        if next(calls) % 3 == 0:
            raise ZeroDivisionError("complex division by zero")
        return eval_rep(params, rep)

    monkeypatch.setattr(aw, "eval_rep", flaky)
    (entry,) = run_sweep(DrawConfig(draws_per_record=10), ["aw/theta-flip"]).entries
    assert (entry.passed, entry.failed, entry.inconclusive, entry.skipped) == (10, 0, 0, 0)


# sha256 of SweepReport.to_json(include_timing=False) for exact sweeps,
# recorded before the fraction-free prefactor path and the lazy exact
# scale went in; a refactor of the exact path must leave them unchanged
_EXACT_REPORT_DIGESTS = [
    (dict(n_range=(0, 6), draws_per_record=20), ("*",),
     "1df116664cb9da3a5b50b2eebc30766885517c7426e72649a39ff7c5d3327e89"),
    (dict(n_range=(0, 16), draws_per_record=5, q_big=True), ("ops/*", "aw/*"),
     "da86e63416257937212f2c3ace2c402d2e57ba6d96c5a4061558b04f285d967a"),
]


@pytest.mark.parametrize("overrides, targets, digest", _EXACT_REPORT_DIGESTS,
                         ids=["all-n6", "ops-aw-qbig-n16"])
def test_exact_reports_are_pinned(overrides, targets, digest):
    report = run_sweep(DrawConfig(**overrides), list(targets))
    text = report.to_json(include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
