"""Randomized admissible draws and verification sweeps.

Draw generation is deterministic: every (seed, target, backend, index)
tuple owns an independent substream, so sweeps reproduce byte-identical
reports (timing aside) and remain reproducible under any execution
order.  Draws are rejection-sampled against the target's own guards, so
a sweep's SKIPPED tally stays near zero; a target whose guards reject
``MAX_REJECTS`` candidates in a row raises :class:`SamplerExhausted`.

Exact draws are small Gaussian rationals, formed from the drawn ints and
reduced once (:func:`~qaskey.arithmetic.from_parts`); coupled slots (the
balance condition of the Whipple-type suite) are solved for the last
slot rather than sampled.  Besides the 35 catalogue records, the sweep
knows suite targets ``aw/*`` (representation consistency) and ``ops/*``
(transformation contracts).

Every check ends in :func:`~qaskey.identity_catalog.settle`: a record
target runs :func:`~qaskey.identity_catalog.check`, and a suite is a
plain evaluation ``draw -> [(value, TermTrace), ...]`` that its target
settles.  A SKIPPED outcome rejects the draw.

A :class:`DrawConfig` holds only what a caller sets; the draw policy and
the verdict tolerances are fixed, and :data:`POLICY` records them.
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
    pow_int,
)
from . import askey_wilson as aw
from .identity_catalog import CheckOutcome, Draw, Verdict, catalog, check, settle
from .qseries import (
    SeriesSpec,
    VwpSpec,
    connect_qinv,
    eval_phi,
    eval_series,
    invert_series,
    invert_w,
    qinvert_f,
    watson_whipple,
)


class SamplerExhausted(QError):
    """Rejection sampling failed to find an admissible draw."""


class UnknownTarget(QError):
    """A non-glob target id does not name any record or suite."""


# The draw policy, read by the draw helpers when they run.  The base's
# modulus lies in Q_RANGE, or with ``q_big`` in its mirror (1/hi, 1/lo).
# Exact parts are p/d with p, d <= RAT_MAX: a pool wide enough that pole
# hits stay rare (the skip-rate budget is 5%), small enough to keep exact
# arithmetic light.  Float moduli lie in MODULUS_RANGE.
Q_RANGE = (0.15, 0.85)
MODULUS_RANGE = (0.1, 10.0)
RAT_MAX = 30
GAUSSIAN_PROB = 0.5
MAX_REJECTS = 500
# the fixed policy and tolerances, which every report records beside its config
POLICY = {"q_range": Q_RANGE, "modulus_range": MODULUS_RANGE, "rat_max_num": RAT_MAX,
          "rat_max_den": RAT_MAX, "gaussian_prob": GAUSSIAN_PROB, "pole_eps": POLE_EPS,
          "rel_tol": REL_TOL, "abs_tol": ABS_TOL, "cond_cap": COND_CAP,
          "max_rejects": MAX_REJECTS}


@dataclass(frozen=True)
class DrawConfig:
    """What a sweep's caller sets.  ``backend`` is rational, float, or
    both; "both" sweeps each backend separately with suffixed entry ids.
    ``q_big`` draws the base from the mirrored |q| > 1 window."""

    seed: int = 20260808
    draws_per_record: int = 100
    n_range: tuple = (0, 6)
    backend: str = "rational"
    q_big: bool = False

    def __post_init__(self):
        if self.backend not in ("rational", "float", "both"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.n_range[0] < 0 or self.n_range[0] > self.n_range[1]:
            raise ValueError("n_range must be a nonempty range of nonnegative degrees")
        if self.draws_per_record < 0:
            raise ValueError("draws_per_record must be >= 0")


# ---------------------------------------------------------------------------
# scalar draws
# ---------------------------------------------------------------------------

def _rand_exact(rng) -> GaussianRational:
    """A small Gaussian rational: ``n1/d1``, or ``n1/d1 + (n2/d2) i`` with
    probability ``GAUSSIAN_PROB``, each numerator of random sign.
    The triple is formed on the drawn ints and reduced once."""
    n1 = rng.randint(1, RAT_MAX)
    d1 = rng.randint(1, RAT_MAX)
    if rng.random() < 0.5:
        n1 = -n1
    if rng.random() >= GAUSSIAN_PROB:
        return from_parts(n1, 0, d1)
    n2 = rng.randint(1, RAT_MAX)
    d2 = rng.randint(1, RAT_MAX)
    if rng.random() < 0.5:
        n2 = -n2
    return from_parts(n1 * d2, n2 * d1, d1 * d2)


def _rand_float(rng) -> complex:
    lo, hi = MODULUS_RANGE
    mod = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(mod * math.cos(phase), mod * math.sin(phase))


def _rand_unit(rng) -> complex:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(phase), math.sin(phase))


def _rand_scalar(rng, exact: bool):
    return _rand_exact(rng) if exact else _rand_float(rng)


def _rand_q(rng, cfg, exact: bool) -> QBase:
    lo, hi = Q_RANGE
    if exact:
        # lo < p/d < hi is decided exactly, on ints: the float window ends
        # enter as their exact integer ratios
        lo_n, lo_d = lo.as_integer_ratio()
        hi_n, hi_d = hi.as_integer_ratio()
        while True:
            num = rng.randint(1, 40)
            den = rng.randint(1, 40)
            if lo_n * den < num * lo_d and num * hi_d < hi_n * den:
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
    run: object                       # (draw, exact) -> CheckOutcome
    record: object = None             # IdentityRecord for catalogue targets


def _record_target(rec) -> Target:
    def draw_fn(rng, cfg, exact):
        return Draw(_rand_q(rng, cfg, exact), _rand_n(rng, cfg),
                    {k: _rand_scalar(rng, exact) for k in "bcdef"})

    def run_fn(d, exact):
        return check(rec, d)

    return Target(rec.id, rec.ref, draw_fn, run_fn, record=rec)


def _draw_aw(rng, cfg, exact) -> aw.AWParams:
    q = _rand_q(rng, cfg, exact)
    n = _rand_n(rng, cfg)
    if exact:
        w = _rand_exact(rng)
    else:
        w = _rand_unit(rng)
    a = [_rand_scalar(rng, exact) for _ in range(4)]
    return aw.AWParams(a, q, w, n)


_PHI_STD_ROLES = tuple(aw.RepId(aw.RepTag.PHI_STD, p=k) for k in (1, 2, 3, 4))


def _suite_targets() -> list:
    """The suites: each is an evaluation ``draw -> [(value, TermTrace),
    ...]`` of values that must agree, settled by :func:`settle`.  A list
    is evaluated in order, so the first guard failure ends the check.
    Suites look up the Askey-Wilson evaluators through the module when
    they run, so an evaluator rebound there (by a test or the benchmark's
    tracer) is the one called."""
    suites = []

    def add(tid, ref, draw_fn, evaluate):
        def run(draw, exact):
            return settle(lambda: evaluate(draw), exact)

        suites.append(Target(tid, ref, draw_fn, run))

    # representation consistency ---------------------------------------
    add("aw/seven-way", "all seven representations agree", _draw_aw,
        lambda params: [aw.eval_rep(params, rep) for rep in aw.ALL_REPS])

    # The phi-std series singles out a_p alone: interchanging the other
    # three parameters reorders its numerator and denominator lists and
    # leaves every term as it was.  So each of the 24 permuted points
    # evaluates the series of role p = perm[0] here, and the four roles
    # are the only distinct series.
    add("aw/permutation", "parameter-interchange invariance", _draw_aw,
        lambda params: [aw.eval_rep(params, rep) for rep in _PHI_STD_ROLES])

    def theta_flip(params):
        # phi-mixed, not phi-std: w -> 1/w only swaps a_p w and a_p / w in
        # the phi-std numerators, so that series would be compared with
        # itself; phi-mixed takes w and 1/w into different slots
        return [aw.eval_rep(params, aw.RepTag.PHI_MIXED),
                aw.eval_rep(params.flip_w(), aw.RepTag.PHI_MIXED)]

    add("aw/theta-flip", "invariance under w -> 1/w", _draw_aw, theta_flip)

    add("aw/qinverse", "base-inverted representations agree", _draw_aw,
        lambda params: [*(aw.eval_qinv_rep(params, rep) for rep in aw.ALL_REPS),
                        aw.eval_qinv_direct(params)])
    add("aw/qinv-scaling", "base-inverted family: reciprocal-parameter scaling",
        _draw_aw, lambda params: aw._qinv_scaling(params))

    # transformation contracts ------------------------------------------
    def draw_phi(rng, cfg, exact, width=3):
        q = _rand_q(rng, cfg, exact)
        n = _rand_n(rng, cfg)
        num = [_rand_scalar(rng, exact) for _ in range(width)]
        den = [_rand_scalar(rng, exact) for _ in range(width)]
        z = _rand_scalar(rng, exact)
        return SeriesSpec(num, den, z, q, n)

    def scaled_contract(transform):
        """The contract value(spec) == pref * value(image) of a map
        ``transform(spec) -> (pref, image)``."""
        def evaluate(spec):
            pref, image = transform(spec)
            return [eval_series(spec), eval_series(image, pref)]
        return evaluate

    add("ops/invert-series", "summation reversal contract",
        draw_phi, scaled_contract(invert_series))

    def draw_w(rng, cfg, exact):
        q = _rand_q(rng, cfg, exact)
        n = _rand_n(rng, cfg)
        b = _rand_scalar(rng, exact)
        lower = [_rand_scalar(rng, exact) for _ in range(4)]
        z = _rand_scalar(rng, exact)
        return VwpSpec(b, lower, z, q, n)

    add("ops/invert-w", "very-well-poised summation reversal contract",
        draw_w, scaled_contract(invert_w))

    def draw_watson(rng, cfg, exact):
        # balance solved exactly for the last denominator slot
        q = _rand_q(rng, cfg, exact)
        n = _rand_n(rng, cfg)
        a, b, c, d, e = (_rand_scalar(rng, exact) for _ in range(5))
        f = pow_int(q.q, 1 - n) * a * b * c / (d * e)
        if not f:
            raise GuardViolation("degenerate balance slot")
        return SeriesSpec([a, b, c], [d, e, f], q.q, q, n)

    add("ops/watson-whipple", "Watson q-Whipple map: balanced 4phi3 vs 8W7",
        draw_watson, scaled_contract(watson_whipple))

    def connect(spec):
        inv_spec, (pref, rev) = connect_qinv(spec)
        return [eval_phi(spec), eval_phi(inv_spec), eval_series(rev, pref)]

    add("ops/connect-qinv", "base connection: three-way equality", draw_phi, connect)

    def qinvert(spec):
        spec2 = qinvert_f(spec)
        return [eval_phi(spec), eval_phi(spec2)]

    add("ops/qinvert-f", "base-inversion recipe contract", draw_phi, qinvert)

    return suites


_TARGETS: list | None = None


def all_targets() -> list:
    global _TARGETS
    if _TARGETS is None:
        _TARGETS = [_record_target(rec) for rec in catalog()] + _suite_targets()
    return _TARGETS


def all_target_ids() -> list:
    return [t.id for t in all_targets()]


def resolve_targets(patterns) -> list:
    """The targets whose ids the patterns name, in inventory order.

    A pattern is a glob over the ids or one exact id.  A glob that
    matches no id, or an id that does not exist, raises UnknownTarget,
    so a mistyped pattern never verifies nothing.  An empty list of
    patterns picks no target.
    """
    targets = all_targets()
    ids = [t.id for t in targets]
    picked = set()
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            matched = [i for i in ids if fnmatch.fnmatchcase(i, pattern)]
        else:
            matched = [pattern] if pattern in ids else []
        if not matched:
            raise UnknownTarget(pattern)
        picked.update(matched)
    return [t for t in targets if t.id in picked]


def _substream(cfg: DrawConfig, target_id: str, backend: str, index: int):
    return random.Random(f"{cfg.seed}:{target_id}:{backend}:{index}")


def _admissible(cfg: DrawConfig, target: Target, backend: str, index: int):
    """``(draw, outcome)`` for the first candidate of the substream
    ``index`` whose check is not SKIPPED.

    Candidates whose raw generator raises a guard violation, a division by
    zero or an overflow are rejected as well; after ``MAX_REJECTS``
    rejections the target raises SamplerExhausted.
    """
    exact = backend == "rational"
    rng = _substream(cfg, target.id, backend, index)
    for _ in range(MAX_REJECTS):
        try:
            cand = target.draw(rng, cfg, exact)
        except (GuardViolation, ZeroDivisionError, OverflowError):
            continue
        outcome = target.run(cand, exact)
        if outcome.verdict is not Verdict.SKIPPED:
            return cand, outcome
    raise SamplerExhausted(
        f"{target.id}: no admissible draw within {MAX_REJECTS} rejections")


def draw_params(cfg: DrawConfig, target, index: int = 0, backend: str | None = None):
    """One admissible draw for a target (record, suite, or id string).

    Rejection-samples the target's raw generator until its guards accept,
    up to ``MAX_REJECTS`` candidates.
    """
    if isinstance(target, str):
        target = resolve_targets([target])[0]
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

    def counts(self) -> dict:
        return {
            "pass": self.passed,
            "fail": self.failed,
            "inconclusive": self.inconclusive,
            "skipped": self.skipped,
            "worst_deviation": self.worst_deviation,
        }

    def as_dict(self) -> dict:
        out = {"record_id": self.record_id, "ref": self.ref, **self.counts()}
        if self.quarantine is not None:
            out["quarantine"] = self.quarantine
        return out


class SweepReport:
    """A sweep's tallies.  ``config`` holds the :class:`DrawConfig` fields;
    :meth:`as_dict` writes them beside :data:`POLICY`."""

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
            "config": {**POLICY, **self.config},
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
    info = target.record.quarantine if target.record is not None else None
    printed = RecordTally(entry_id, target.ref)
    for i in range(cfg.draws_per_record):
        draw, outcome = _admissible(cfg, target, backend, i)
        tally.add(outcome)
        if info is not None:
            printed.add(check(info.printed, draw))
    if info is not None:
        tally.quarantine = {"reason": info.reason, "correction": info.correction,
                            "printed": printed.counts()}
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
