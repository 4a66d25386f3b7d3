"""Randomized admissible draws and verification sweeps.

Draw generation is deterministic: every (seed, target, backend, index)
tuple owns an independent substream, so sweeps reproduce byte-identical
reports (timing aside) and remain reproducible under any execution
order.  Draws are rejection-sampled against the target's own guards, so
a sweep's SKIPPED tally stays near zero; a target whose guards reject
``max_rejects`` candidates in a row raises :class:`SamplerExhausted`.

Exact draws are small Gaussian rationals, formed from the drawn ints and
reduced once (:func:`~qaskey.arithmetic.from_parts`); coupled slots (the
balance condition of the Whipple-type suite) are solved for the last
slot rather than sampled.  Besides the 35 catalogue records, the sweep
knows suite targets ``aw/*`` (representation consistency) and ``ops/*``
(transformation contracts).
"""

from __future__ import annotations

import fnmatch
import json
import math
import random
import time
from dataclasses import dataclass, fields

from .arithmetic import (
    ABS_TOL,
    COND_CAP,
    GaussianRational,
    GuardViolation,
    POLE_EPS,
    QBase,
    QError,
    REL_TOL,
    from_parts,
    is_zero,
    pow_int,
)
from . import askey_wilson as aw
from .identity_catalog import _UNRESOLVED, CheckOutcome, Draw, Verdict, catalog, check, judge
from .qseries import (
    SeriesSpec,
    VwpSpec,
    connect_qinv,
    eval_phi,
    eval_w,
    invert_series,
    invert_w,
    qinvert_f,
    watson_whipple,
)


class SamplerExhausted(QError):
    """Rejection sampling failed to find an admissible draw."""


class UnknownTarget(QError):
    """A non-glob target id does not name any record or suite."""


@dataclass(frozen=True)
class DrawConfig:
    """Sweep configuration; every knob has a desk-scale default.

    ``q_range`` is the modulus window for the base (inside (0,1)); with
    ``q_big`` the mirrored window (1/hi, 1/lo) exercises the |q| > 1
    regime.  Exact draws use numerators/denominators up to the stated
    caps (hard limit 97).  ``backend`` is rational, float, or both;
    "both" sweeps each backend separately with suffixed entry ids.
    """

    seed: int = 20260808
    draws_per_record: int = 100
    n_range: tuple = (0, 6)
    backend: str = "rational"
    q_range: tuple = (0.15, 0.85)
    q_big: bool = False
    modulus_range: tuple = (0.1, 10.0)
    # pool wide enough that accidental pole hits stay rare (the skip-rate
    # budget is 5%), small enough to keep exact arithmetic light
    rat_max_num: int = 30
    rat_max_den: int = 30
    gaussian_prob: float = 0.5
    pole_eps: float = POLE_EPS
    rel_tol: float = REL_TOL
    abs_tol: float = ABS_TOL
    cond_cap: float = COND_CAP
    max_rejects: int = 500

    def __post_init__(self):
        if self.backend not in ("rational", "float", "both"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not (0 < self.q_range[0] < self.q_range[1] < 1):
            raise ValueError("q_range must satisfy 0 < lo < hi < 1")
        if self.n_range[0] < 0 or self.n_range[0] > self.n_range[1]:
            raise ValueError("n_range must be a nonempty range of nonnegative degrees")
        if not (1 <= self.rat_max_num <= 97 and 1 <= self.rat_max_den <= 97):
            raise ValueError("rational caps must lie in 1..97")
        if self.pole_eps <= 0:
            raise ValueError("pole_eps must be positive")
        if self.draws_per_record < 0 or self.max_rejects < 1:
            raise ValueError("invalid draw counts")


# ---------------------------------------------------------------------------
# scalar draws
# ---------------------------------------------------------------------------

def _rand_exact(rng, cfg) -> GaussianRational:
    """A small Gaussian rational: ``n1/d1``, or ``n1/d1 + (n2/d2) i`` with
    probability ``cfg.gaussian_prob``, each numerator of random sign.
    The triple is formed on the drawn ints and reduced once."""
    n1 = rng.randint(1, cfg.rat_max_num)
    d1 = rng.randint(1, cfg.rat_max_den)
    if rng.random() < 0.5:
        n1 = -n1
    if rng.random() >= cfg.gaussian_prob:
        return from_parts(n1, 0, d1)
    n2 = rng.randint(1, cfg.rat_max_num)
    d2 = rng.randint(1, cfg.rat_max_den)
    if rng.random() < 0.5:
        n2 = -n2
    return from_parts(n1 * d2, n2 * d1, d1 * d2)


def _rand_float(rng, cfg) -> complex:
    lo, hi = cfg.modulus_range
    mod = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(mod * math.cos(phase), mod * math.sin(phase))


def _rand_unit(rng) -> complex:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(phase), math.sin(phase))


def _rand_scalar(rng, cfg, exact: bool):
    return _rand_exact(rng, cfg) if exact else _rand_float(rng, cfg)


def _rand_q(rng, cfg, exact: bool) -> QBase:
    lo, hi = cfg.q_range
    if exact:
        # a window may hold no p/d with p, d <= 40 at all, e.g. (0.5, 0.501).
        # lo < p/d < hi is decided exactly, on ints: the float window ends
        # enter as their exact integer ratios.
        lo_n, lo_d = lo.as_integer_ratio()
        hi_n, hi_d = hi.as_integer_ratio()
        for _ in range(cfg.max_rejects):
            num = rng.randint(1, 40)
            den = rng.randint(1, 40)
            if lo_n * den < num * lo_d and num * hi_d < hi_n * den:
                break
        else:
            raise SamplerExhausted(
                f"no exact base q = p/d with p, d <= 40 in {cfg.q_range} "
                f"within {cfg.max_rejects} candidates")
        return QBase(from_parts(den, 0, num) if cfg.q_big else from_parts(num, 0, den))
    q = rng.uniform(lo, hi)
    return QBase(complex(1.0 / q if cfg.q_big else q, 0.0))


def _rand_n(rng, cfg) -> int:
    return rng.randint(cfg.n_range[0], cfg.n_range[1])


# ---------------------------------------------------------------------------
# targets: catalogue records plus consistency suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """Anything the sweep can draw for and check."""

    id: str
    ref: str
    draw: object                      # (rng, cfg, exact) -> draw object
    run: object                       # (draw, cfg, exact) -> CheckOutcome
    record: object = None             # IdentityRecord for catalogue targets


def _judge(values, scale, exact, cfg) -> CheckOutcome:
    return judge(values, scale, exact, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                 cond_cap=cfg.cond_cap)


def _eval_spec(spec):
    return (eval_w if isinstance(spec, VwpSpec) else eval_phi)(spec)


def _skipped(exc) -> CheckOutcome:
    return CheckOutcome(Verdict.SKIPPED, 0.0, 0.0, False, guard=str(exc))


def _record_target(rec) -> Target:
    def draw_fn(rng, cfg, exact):
        return Draw(_rand_q(rng, cfg, exact), _rand_n(rng, cfg),
                    {k: _rand_scalar(rng, cfg, exact) for k in "bcdef"})

    def run_fn(d, cfg, exact):
        return check(rec, d, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                     cond_cap=cfg.cond_cap)

    return Target(rec.id, rec.ref, draw_fn, run_fn, record=rec)


def _draw_aw(rng, cfg, exact) -> aw.AWParams:
    q = _rand_q(rng, cfg, exact)
    n = _rand_n(rng, cfg)
    if exact:
        w = _rand_exact(rng, cfg)
    else:
        w = _rand_unit(rng)
    a = [_rand_scalar(rng, cfg, exact) for _ in range(4)]
    return aw.AWParams(a, q, w, n)


_PHI_STD_ROLES = tuple(aw.RepId(aw.RepTag.PHI_STD, p=k) for k in (1, 2, 3, 4))


def _suite_targets() -> list:
    suites = []

    def add(tid, ref, draw_fn, run_fn):
        suites.append(Target(tid, ref, draw_fn, run_fn))

    # representation consistency ---------------------------------------
    def run_seven_way(params, cfg, exact):
        try:
            report = aw.eval_all(params)
        except GuardViolation as exc:
            return _skipped(exc)
        if report.skipped or not report.values:
            return _skipped("; ".join(report.skipped.values()) or "no values")
        return _judge(list(report.values.values()), lambda: report.scale, exact, cfg)

    add("aw/seven-way", "all seven representations agree",
        _draw_aw, run_seven_way)

    def run_permutation(params, cfg, exact):
        # The phi-std series singles out a_p alone: interchanging the other
        # three parameters reorders its numerator and denominator lists and
        # leaves every term as it was.  So each of the 24 permuted points
        # evaluates the series of role p = perm[0] here, and the four roles
        # are the only distinct series.
        try:
            values, traces = [], []
            for rep in _PHI_STD_ROLES:
                v, t = aw.eval_rep(params, rep)
                values.append(v)
                traces.append(t)
        except GuardViolation as exc:
            return _skipped(exc)
        return _judge(values, lambda: max([0.0, *(t.abs_scale for t in traces)]), exact, cfg)

    add("aw/permutation", "parameter-interchange invariance",
        _draw_aw, run_permutation)

    def run_theta_flip(params, cfg, exact):
        # phi-mixed, not phi-std: w -> 1/w only swaps a_p w and a_p / w in
        # the phi-std numerators, so that series would be compared with
        # itself; phi-mixed takes w and 1/w into different slots
        try:
            v1, t1 = aw.eval_rep(params, aw.RepTag.PHI_MIXED)
            v2, t2 = aw.eval_rep(params.flip_w(), aw.RepTag.PHI_MIXED)
        except GuardViolation as exc:
            return _skipped(exc)
        return _judge([v1, v2], lambda: max(t1.abs_scale, t2.abs_scale), exact, cfg)

    add("aw/theta-flip", "invariance under w -> 1/w",
        _draw_aw, run_theta_flip)

    def run_qinverse(params, cfg, exact):
        try:
            report = aw.eval_qinv_all(params)
            direct, dtrace = aw.eval_qinv_direct(params)
        except GuardViolation as exc:
            return _skipped(exc)
        if report.skipped or not report.values:
            return _skipped("; ".join(report.skipped.values()) or "no values")
        values = list(report.values.values()) + [direct]
        return _judge(values, lambda: max(report.scale, dtrace.abs_scale), exact, cfg)

    add("aw/qinverse", "base-inverted representations agree",
        _draw_aw, run_qinverse)

    def run_qinv_scaling(params, cfg, exact):
        try:
            d1, d2, ref, scale = aw._qinv_scaling(params)
        except GuardViolation as exc:
            return _skipped(exc)
        return _judge([d1, ref - ref, d2], scale, exact, cfg)

    add("aw/qinv-scaling", "base-inverted family: reciprocal-parameter scaling",
        _draw_aw, run_qinv_scaling)

    # transformation contracts ------------------------------------------
    def draw_phi(rng, cfg, exact, width=3):
        q = _rand_q(rng, cfg, exact)
        n = _rand_n(rng, cfg)
        num = [_rand_scalar(rng, cfg, exact) for _ in range(width)]
        den = [_rand_scalar(rng, cfg, exact) for _ in range(width)]
        z = _rand_scalar(rng, cfg, exact)
        return SeriesSpec(num, den, z, q, n)

    def scaled_contract(transform):
        """Runner for the contract value(spec) == pref * value(image) of a
        map ``transform(spec) -> (pref, image)``."""
        def run(spec, cfg, exact):
            try:
                pref, image = transform(spec)
                v1, t1 = _eval_spec(spec)
                v2, t2 = _eval_spec(image)
            except GuardViolation as exc:
                return _skipped(exc)
            return _judge([v1, pref * v2],
                          lambda: max(t1.abs_scale, abs(pref) * t2.abs_scale), exact, cfg)
        return run

    add("ops/invert-series", "summation reversal contract",
        draw_phi, scaled_contract(invert_series))

    def draw_w(rng, cfg, exact):
        q = _rand_q(rng, cfg, exact)
        n = _rand_n(rng, cfg)
        b = _rand_scalar(rng, cfg, exact)
        lower = [_rand_scalar(rng, cfg, exact) for _ in range(4)]
        z = _rand_scalar(rng, cfg, exact)
        return VwpSpec(b, lower, z, q, n)

    add("ops/invert-w", "very-well-poised summation reversal contract",
        draw_w, scaled_contract(invert_w))

    def draw_watson(rng, cfg, exact):
        # balance solved exactly for the last denominator slot
        q = _rand_q(rng, cfg, exact)
        n = _rand_n(rng, cfg)
        a, b, c, d, e = (_rand_scalar(rng, cfg, exact) for _ in range(5))
        f = pow_int(q.q, 1 - n) * a * b * c / (d * e)
        if is_zero(f):
            raise GuardViolation("degenerate balance slot")
        return SeriesSpec([a, b, c], [d, e, f], q.q, q, n)

    add("ops/watson-whipple", "Watson q-Whipple map: balanced 4phi3 vs 8W7",
        draw_watson, scaled_contract(watson_whipple))

    def run_connect(spec, cfg, exact):
        try:
            inv_spec, (pref, rev) = connect_qinv(spec)
            v = eval_phi(spec)
            vi = eval_phi(inv_spec)
            vr = eval_phi(rev)
        except GuardViolation as exc:
            return _skipped(exc)
        def scale():
            return max(v[1].abs_scale, vi[1].abs_scale, abs(pref) * vr[1].abs_scale)

        return _judge([v[0], vi[0], pref * vr[0]], scale, exact, cfg)

    add("ops/connect-qinv", "base connection: three-way equality",
        draw_phi, run_connect)

    def run_qinvert_f(spec, cfg, exact):
        try:
            spec2 = qinvert_f(spec)
            v1, t1 = eval_phi(spec)
            v2, t2 = eval_phi(spec2)
        except GuardViolation as exc:
            return _skipped(exc)
        return _judge([v1, v2], lambda: max(t1.abs_scale, t2.abs_scale), exact, cfg)

    add("ops/qinvert-f", "base-inversion recipe contract",
        draw_phi, run_qinvert_f)

    return suites


_TARGETS: list | None = None
# the ids of _TARGETS; the benchmark's tracer rebinds _TARGETS to wrapped
# copies, which keep the ids
_TARGET_IDS: frozenset = frozenset()


def all_targets() -> list:
    global _TARGETS, _TARGET_IDS
    if _TARGETS is None:
        _TARGETS = [_record_target(rec) for rec in catalog()] + _suite_targets()
        _TARGET_IDS = frozenset(t.id for t in _TARGETS)
    return _TARGETS


def all_target_ids() -> list:
    return [t.id for t in all_targets()]


def resolve_targets(patterns) -> list:
    """Expand globs over target ids; exact non-glob ids must exist."""
    targets = all_targets()
    picked = set()
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            picked.update(t.id for t in targets if fnmatch.fnmatchcase(t.id, pattern))
        elif pattern in _TARGET_IDS:
            picked.add(pattern)
        else:
            raise UnknownTarget(pattern)
    return [t for t in targets if t.id in picked]


def _substream(cfg: DrawConfig, target_id: str, backend: str, index: int):
    return random.Random(f"{cfg.seed}:{target_id}:{backend}:{index}")


def _settle(run_check, exact: bool) -> CheckOutcome:
    """The outcome of ``run_check()``.  On the float backend an
    OverflowError makes the check INCONCLUSIVE with deviation 0.0, as
    :func:`judge` does for a value, deviation or scale that is not
    finite.  Exact outcomes pass through unchanged."""
    if exact:
        return run_check()
    try:
        return run_check()
    except OverflowError:
        return _UNRESOLVED


def _admissible(cfg: DrawConfig, target: Target, backend: str, index: int):
    """``(draw, outcome)`` for the first candidate of the substream
    ``index`` whose check is not SKIPPED.

    Candidates whose raw generator raises a guard violation, a division by
    zero or an overflow are rejected as well; after ``cfg.max_rejects``
    rejections the target raises SamplerExhausted.
    """
    exact = backend == "rational"
    rng = _substream(cfg, target.id, backend, index)
    for _ in range(cfg.max_rejects):
        try:
            cand = target.draw(rng, cfg, exact)
        except (GuardViolation, ZeroDivisionError, OverflowError):
            continue
        outcome = _settle(lambda: target.run(cand, cfg, exact), exact)
        if outcome.verdict is not Verdict.SKIPPED:
            return cand, outcome
    raise SamplerExhausted(
        f"{target.id}: no admissible draw within {cfg.max_rejects} rejections")


def draw_params(cfg: DrawConfig, target, index: int = 0, backend: str | None = None):
    """One admissible draw for a target (record, suite, or id string).

    Rejection-samples the target's raw generator until its guards accept,
    up to ``cfg.max_rejects`` candidates.
    """
    if isinstance(target, str):
        matches = resolve_targets([target])
        if not matches:
            raise UnknownTarget(target)
        target = matches[0]
    elif not isinstance(target, Target):
        target = _record_target(target)
    backend = backend or ("rational" if cfg.backend == "both" else cfg.backend)
    return _admissible(cfg, target, backend, index)[0]


@dataclass
class RecordTally:
    record_id: str
    ref: str
    passed: int = 0
    failed: int = 0
    inconclusive: int = 0
    skipped: int = 0
    worst_deviation: float = 0.0
    quarantine: dict | None = None

    def add(self, outcome: CheckOutcome):
        if outcome.verdict is Verdict.PASS:
            self.passed += 1
        elif outcome.verdict is Verdict.FAIL:
            self.failed += 1
        elif outcome.verdict is Verdict.INCONCLUSIVE:
            self.inconclusive += 1
        else:
            self.skipped += 1
        self.worst_deviation = max(self.worst_deviation, outcome.deviation)

    def as_dict(self) -> dict:
        out = {
            "record_id": self.record_id,
            "ref": self.ref,
            "pass": self.passed,
            "fail": self.failed,
            "inconclusive": self.inconclusive,
            "skipped": self.skipped,
            "worst_deviation": self.worst_deviation,
        }
        if self.quarantine is not None:
            out["quarantine"] = self.quarantine
        return out


@dataclass
class SweepReport:
    seed: int
    config: dict
    entries: list
    wall_time_s: float = 0.0

    @property
    def any_fail(self) -> bool:
        return any(e.failed for e in self.entries)

    def as_dict(self, include_timing: bool = True) -> dict:
        out = {
            "seed": self.seed,
            "config": self.config,
            "records": [e.as_dict() for e in self.entries],
        }
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.as_dict(include_timing), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def summary_lines(self) -> list:
        lines = []
        for e in self.entries:
            line = (f"{e.record_id:<22} pass={e.passed:<5} fail={e.failed:<3} "
                    f"inconclusive={e.inconclusive:<3} skipped={e.skipped:<3} "
                    f"worst={e.worst_deviation:.3e}")
            if e.quarantine is not None:
                line += f"  [QUARANTINED: {e.quarantine['correction']}]"
            lines.append(line)
        return lines


def _sweep_one(cfg: DrawConfig, target: Target, backend: str,
               entry_id: str) -> RecordTally:
    tally = RecordTally(entry_id, target.ref)
    exact = backend == "rational"
    quarantined = target.record is not None and target.record.quarantine is not None
    if quarantined:
        info = target.record.quarantine
        printed = RecordTally(entry_id + "#printed", target.ref)
    for i in range(cfg.draws_per_record):
        draw, outcome = _admissible(cfg, target, backend, i)
        tally.add(outcome)
        if quarantined:
            printed.add(_settle(lambda: check(
                target.record, draw, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                cond_cap=cfg.cond_cap, use_printed=True), exact))
    if quarantined:
        tally.quarantine = {
            "reason": info.reason,
            "correction": info.correction,
            "printed": {
                "pass": printed.passed,
                "fail": printed.failed,
                "inconclusive": printed.inconclusive,
                "skipped": printed.skipped,
                "worst_deviation": printed.worst_deviation,
            },
        }
    return tally


def run_sweep(cfg: DrawConfig, targets=("*",)) -> SweepReport:
    """Run the verification sweep over the matching targets.

    Returns a report whose entries tally PASS/FAIL/INCONCLUSIVE/SKIPPED
    per target; quarantined records additionally report the printed
    variant's verdicts alongside the corrected one.
    """
    t0 = time.perf_counter()
    chosen = resolve_targets(list(targets))
    backends = ["rational", "float"] if cfg.backend == "both" else [cfg.backend]
    entries = []
    for target in chosen:
        for backend in backends:
            entry_id = target.id if len(backends) == 1 else f"{target.id}:{backend}"
            entries.append(_sweep_one(cfg, target, backend, entry_id))
    # every field value is immutable, so a shallow snapshot equals asdict(cfg)
    report = SweepReport(cfg.seed, {f.name: getattr(cfg, f.name) for f in fields(cfg)},
                         entries)
    report.wall_time_s = time.perf_counter() - t0
    return report
