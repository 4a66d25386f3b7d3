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

Every check ends in :func:`~qaskey.identity_catalog.settle`: a record
target runs :func:`~qaskey.identity_catalog.check`, and a suite is a
plain evaluation ``draw -> (values, scale)`` that its target settles
with the config's tolerances.  A SKIPPED outcome rejects the draw.
"""

from __future__ import annotations

import fnmatch
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
from .identity_catalog import CheckOutcome, Draw, Verdict, catalog, check, settle
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
    caps (hard limit 97); float draws have moduli in ``modulus_range``.
    ``backend`` is rational, float, or both; "both" sweeps each backend
    separately with suffixed entry ids.  ``pole_eps`` records the float
    guards' fixed pole margin in every report and takes no other value.
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
        if not (0 < self.modulus_range[0] < self.modulus_range[1]):
            raise ValueError("modulus_range must satisfy 0 < lo < hi")
        if self.n_range[0] < 0 or self.n_range[0] > self.n_range[1]:
            raise ValueError("n_range must be a nonempty range of nonnegative degrees")
        if not (1 <= self.rat_max_num <= 97 and 1 <= self.rat_max_den <= 97):
            raise ValueError("rational caps must lie in 1..97")
        if self.pole_eps != POLE_EPS:
            raise ValueError(f"pole_eps is the guards' fixed margin {POLE_EPS:g} "
                             "and cannot be changed")
        if self.draws_per_record < 0 or self.max_rejects < 1:
            raise ValueError("draws_per_record must be >= 0 and max_rejects >= 1")


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


def _eval_spec(spec):
    return (eval_w if isinstance(spec, VwpSpec) else eval_phi)(spec)


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


def _agreeing(evaluated) -> tuple:
    """(values, scale) of evaluated (value, trace) pairs, taken in order so
    that the first guard failure ends the check; the scale is the largest
    trace scale, 0.0 for none."""
    pairs = list(evaluated)
    return [v for v, _ in pairs], lambda: max([0.0, *(t.abs_scale for _, t in pairs)])


def _suite_targets() -> list:
    """The suites: each is an evaluation ``draw -> (values, scale)`` of
    values that must agree, settled by :func:`settle`.  Suites look up
    the Askey-Wilson evaluators through the module when they run, so an
    evaluator rebound there (by a test or the benchmark's tracer) is the
    one called."""
    suites = []

    def add(tid, ref, draw_fn, evaluate):
        def run(draw, cfg, exact):
            return settle(lambda: evaluate(draw), exact, rel_tol=cfg.rel_tol,
                          abs_tol=cfg.abs_tol, cond_cap=cfg.cond_cap)

        suites.append(Target(tid, ref, draw_fn, run))

    # representation consistency ---------------------------------------
    add("aw/seven-way", "all seven representations agree", _draw_aw,
        lambda params: _agreeing(aw.eval_rep(params, rep) for rep in aw.ALL_REPS))

    # The phi-std series singles out a_p alone: interchanging the other
    # three parameters reorders its numerator and denominator lists and
    # leaves every term as it was.  So each of the 24 permuted points
    # evaluates the series of role p = perm[0] here, and the four roles
    # are the only distinct series.
    add("aw/permutation", "parameter-interchange invariance", _draw_aw,
        lambda params: _agreeing(aw.eval_rep(params, rep) for rep in _PHI_STD_ROLES))

    def theta_flip(params):
        # phi-mixed, not phi-std: w -> 1/w only swaps a_p w and a_p / w in
        # the phi-std numerators, so that series would be compared with
        # itself; phi-mixed takes w and 1/w into different slots
        v1, t1 = aw.eval_rep(params, aw.RepTag.PHI_MIXED)
        v2, t2 = aw.eval_rep(params.flip_w(), aw.RepTag.PHI_MIXED)
        return [v1, v2], lambda: max(t1.abs_scale, t2.abs_scale)

    add("aw/theta-flip", "invariance under w -> 1/w", _draw_aw, theta_flip)

    def qinverse(params):
        evaluated = [aw.eval_qinv_rep(params, rep) for rep in aw.ALL_REPS]
        return _agreeing(evaluated + [aw.eval_qinv_direct(params)])

    add("aw/qinverse", "base-inverted representations agree", _draw_aw, qinverse)

    def qinv_scaling(params):
        d1, d2, ref, scale = aw._qinv_scaling(params)
        return [d1, ref - ref, d2], scale

    add("aw/qinv-scaling", "base-inverted family: reciprocal-parameter scaling",
        _draw_aw, qinv_scaling)

    # transformation contracts ------------------------------------------
    def draw_phi(rng, cfg, exact, width=3):
        q = _rand_q(rng, cfg, exact)
        n = _rand_n(rng, cfg)
        num = [_rand_scalar(rng, cfg, exact) for _ in range(width)]
        den = [_rand_scalar(rng, cfg, exact) for _ in range(width)]
        z = _rand_scalar(rng, cfg, exact)
        return SeriesSpec(num, den, z, q, n)

    def scaled_contract(transform):
        """The contract value(spec) == pref * value(image) of a map
        ``transform(spec) -> (pref, image)``."""
        def evaluate(spec):
            pref, image = transform(spec)
            v1, t1 = _eval_spec(spec)
            v2, t2 = _eval_spec(image)
            return [v1, pref * v2], lambda: max(t1.abs_scale, abs(pref) * t2.abs_scale)
        return evaluate

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

    def connect(spec):
        inv_spec, (pref, rev) = connect_qinv(spec)
        v, t = eval_phi(spec)
        vi, ti = eval_phi(inv_spec)
        vr, tr = eval_phi(rev)
        return ([v, vi, pref * vr],
                lambda: max(t.abs_scale, ti.abs_scale, abs(pref) * tr.abs_scale))

    add("ops/connect-qinv", "base connection: three-way equality", draw_phi, connect)

    def qinvert(spec):
        spec2 = qinvert_f(spec)
        v1, t1 = eval_phi(spec)
        v2, t2 = eval_phi(spec2)
        return [v1, v2], lambda: max(t1.abs_scale, t2.abs_scale)

    add("ops/qinvert-f", "base-inversion recipe contract", draw_phi, qinvert)

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
        outcome = target.run(cand, cfg, exact)
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


class RecordTally:
    __slots__ = ("record_id", "ref", "passed", "failed", "inconclusive", "skipped",
                 "worst_deviation", "quarantine")

    def __init__(self, record_id: str, ref: str, passed: int = 0, failed: int = 0,
                 inconclusive: int = 0, skipped: int = 0, worst_deviation: float = 0.0,
                 quarantine: dict | None = None):
        self.record_id = record_id
        self.ref = ref
        self.passed = passed
        self.failed = failed
        self.inconclusive = inconclusive
        self.skipped = skipped
        self.worst_deviation = worst_deviation
        self.quarantine = quarantine

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


class SweepReport:
    __slots__ = ("seed", "config", "entries", "wall_time_s")

    def __init__(self, seed: int, config: dict, entries: list, wall_time_s: float = 0.0):
        self.seed = seed
        self.config = config
        self.entries = entries
        self.wall_time_s = wall_time_s

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
        import json     # here, not at module load: importing qaskey serialises nothing

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
    quarantined = target.record is not None and target.record.quarantine is not None
    if quarantined:
        info = target.record.quarantine
        printed = RecordTally(entry_id + "#printed", target.ref)
    for i in range(cfg.draws_per_record):
        draw, outcome = _admissible(cfg, target, backend, i)
        tally.add(outcome)
        if quarantined:
            printed.add(check(target.record, draw, rel_tol=cfg.rel_tol,
                              abs_tol=cfg.abs_tol, cond_cap=cfg.cond_cap,
                              use_printed=True))
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
