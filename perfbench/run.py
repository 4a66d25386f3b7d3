"""The qaskey benchmark: closed-loop verification sweeps on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that installs the per-layer wrappers of ``tracer.py`` and reports the
per-layer metrics; ``--profile`` writes a cProfile top-N of one sweep and
times nothing.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A result
file with provenance, per-target times and report digests, the span file
of a traced run and the profile go to ``perfbench/out/``.

The program under test receives only ``DrawConfig`` values built from the
workload seed and target globs, through ``qaskey.run_sweep``.  One caller
runs one sweep at a time; the next sweep starts when the previous one
returns.  A sweep runs one ``DrawConfig`` per mode and degree; config
``c`` of sweep ``i`` in a run with seed ``s`` draws with seed
``s + 1_000_000 * i + 1_000 * c``, so every sweep covers fresh draws.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import fnmatch
import hashlib
import io
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_s, rescaled
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROFILE_TOP_N = 40
SETUP_REPEATS = 15
SWEEP_SEED_STRIDE = 1_000_000
CONFIG_SEED_STRIDE = 1_000

# end-to-end metric -> unit; --trace 0 emits exactly these
END_TO_END_UNITS = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "target_s_max": "s",
    "pass_share": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; --trace 1 emits exactly these
PER_LAYER_UNITS = {
    "arithmetic.mul_calls": "count",
    "arithmetic.div_calls": "count",
    "arithmetic.addsub_calls": "count",
    "arithmetic.self_s": "s",
    "arithmetic.max_operand_bits": "bits",
    "qpochhammer.poch_calls": "count",
    "qpochhammer.omega_calls": "count",
    "qpochhammer.self_s": "s",
    "qseries.eval_phi_calls": "count",
    "qseries.eval_w_calls": "count",
    "qseries.terms": "count",
    "qseries.spec_guard_s": "s",
    "qseries.self_s": "s",
    "askey_wilson.rep_evals": "count",
    "askey_wilson.self_s": "s",
    "identity_catalog.checks": "count",
    "identity_catalog.self_s": "s",
    "sampler_verifier.raw_draws": "count",
    "sampler_verifier.rejected": "count",
    "sampler_verifier.accept_ratio": "ratio",
    "sampler_verifier.draw_s": "s",
    "sampler_verifier.self_s": "s",
    "sampler_verifier.fail_share": "ratio",
    "sampler_verifier.inconclusive_share": "ratio",
    "trace.overhead": "ratio",
}

# the record whose printed variant is wrong (criterion 8): it must FAIL
QUARANTINED_ID = "cor3.8/r6"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One sweep of a workload: every target that ``globs`` selects, in
    every mode (``DrawConfig`` keyword overrides) and at every degree,
    ``draws`` admissible draws each.  A target's sweep covers all modes
    and degrees."""

    name: str
    globs: tuple
    draws: int
    degrees: range
    modes: tuple

    @property
    def exact(self) -> bool:
        return all(mode["backend"] == "rational" for mode in self.modes)

    def configs(self, qaskey, seed: int) -> list:
        """The DrawConfigs of one sweep.  Config ``c`` draws with seed
        ``seed + CONFIG_SEED_STRIDE * c``: the sampler's substreams do not
        depend on the degree, so a shared seed would give every degree the
        same parameters."""
        pairs = [(mode, k) for mode in self.modes for k in self.degrees]
        return [qaskey.DrawConfig(seed=seed + CONFIG_SEED_STRIDE * c,
                                  draws_per_record=self.draws, n_range=(k, k), **mode)
                for c, (mode, k) in enumerate(pairs)]


# Why these four (the full rationale is the "why" in BENCHMARK.json):
# catalog-exact is the criterion-8 catalogue sweep, where GaussianRational
# products dominate; aw-exact is dominated by the seven representations and
# their base-inverted twins; all-float does no exact arithmetic at all, so
# an exact-only speed-up must leave it unchanged; series-exact-deep runs
# n = 10..16, where many-word gcd cost rather than per-operation overhead
# dominates, on both sides of |q| = 1.  Each degree is swept separately:
# a check's cost grows steeply with n, so a fixed degree mix keeps the seed
# from changing how much work a sweep holds, and the shorter calls let the
# reference loop follow the host's speed more closely.
WORKLOADS = {w.name: w for w in (
    Workload("catalog-exact", ("cor*", "rem*"), 1, range(0, 7), ({"backend": "rational"},)),
    Workload("aw-exact", ("aw/*",), 2, range(0, 7), ({"backend": "rational"},)),
    Workload("all-float", ("*",), 43, range(0, 7), ({"backend": "float"},)),
    Workload("series-exact-deep", ("ops/*",), 1, range(10, 17),
             ({"backend": "rational"}, {"backend": "rational", "q_big": True})),
)}


class SetupError(RuntimeError):
    """The checkout does not hold the qaskey sources."""


def load_qaskey():
    """Import qaskey from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "qaskey" / "__init__.py").is_file():
        raise SetupError(f"no qaskey sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qaskey

    if Path(qaskey.__file__).resolve().parent != SRC / "qaskey":
        raise SetupError(f"imported qaskey from {qaskey.__file__}, not {SRC}")
    return qaskey


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Sweep:
    """One pass over a workload: per-target wall times, raw and rescaled
    to the nominal machine (``reference.py``), and the timing-free reports,
    one per config, merged from the per-target ones."""

    times: dict          # target id -> seconds
    scaled: dict         # target id -> nominal seconds
    reports: list        # SweepReport per config

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    @property
    def scaled_s(self) -> float:
        return sum(self.scaled.values())

    def digest(self) -> str:
        h = hashlib.sha256()
        for rep in self.reports:
            h.update(rep.to_json(include_timing=False).encode())
        return h.hexdigest()


def target_ids(qaskey, workload: Workload) -> list:
    return [t.id for t in qaskey.sampler_verifier.resolve_targets(list(workload.globs))]


def run_one_sweep(qaskey, workload: Workload, ids, seed: int) -> Sweep:
    """Sweep every config over every target, one ``run_sweep`` per target
    and config, each timed between two passes of the reference loop.  The
    merged report of a config equals ``run_sweep(cfg, globs)``."""
    clock = time.perf_counter
    configs = workload.configs(qaskey, seed)
    entries = [[] for _ in configs]
    times, scaled = {}, {}
    ref_before = reference_s()
    for tid in ids:
        times[tid] = scaled[tid] = 0.0
        for cfg, cfg_entries in zip(configs, entries):
            t0 = clock()
            rep = qaskey.run_sweep(cfg, [tid])
            secs = clock() - t0
            ref_after = reference_s()
            times[tid] += secs
            scaled[tid] += rescaled(secs, ref_before, ref_after)
            ref_before = ref_after
            cfg_entries.extend(rep.entries)
    reports = [qaskey.SweepReport(cfg.seed, dataclasses.asdict(cfg), e)
               for cfg, e in zip(configs, entries)]
    return Sweep(times, scaled, reports)


def sweep_seed(seed: int, i: int) -> int:
    return seed + SWEEP_SEED_STRIDE * i


# ---------------------------------------------------------------------------
# correctness gate and verdict tallies
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Tally:
    attempted: int = 0        # draws swept; the printed variant is not counted
    passed: int = 0
    failed: int = 0
    inconclusive: int = 0
    skipped: int = 0
    printed_failed: int = 0

    @property
    def admissible(self) -> int:
        return self.passed + self.failed + self.inconclusive

    def add(self, sweep: Sweep):
        for rep in sweep.reports:
            for e in rep.entries:
                self.attempted += e.passed + e.failed + e.inconclusive + e.skipped
                self.passed += e.passed
                self.failed += e.failed
                self.inconclusive += e.inconclusive
                self.skipped += e.skipped
                if e.quarantine is not None:
                    self.printed_failed += e.quarantine["printed"]["fail"]


def gate(workload: Workload, sweeps) -> list:
    """Problems with the sweeps' outputs; an empty list means correct.

    Every entry must tally exactly ``draws`` checks.  On an exact workload
    every entry must be all-PASS, and when the workload selects the
    quarantined record its printed variant must be swept and FAIL at least
    once.  Float FAILs are the known tolerance defect of the float backend:
    they are counted, not gated.
    """
    problems = []
    selects_quarantined = any(fnmatch.fnmatchcase(QUARANTINED_ID, g) for g in workload.globs)
    printed_swept = printed_failed = 0
    for sweep in sweeps:
        for rep in sweep.reports:
            for e in rep.entries:
                total = e.passed + e.failed + e.inconclusive + e.skipped
                if total != workload.draws:
                    problems.append(f"seed {rep.seed} {e.record_id}: "
                                    f"{total} checks, expected {workload.draws}")
                if workload.exact and e.passed != total:
                    problems.append(f"seed {rep.seed} {e.record_id}: pass={e.passed} "
                                    f"fail={e.failed} inconclusive={e.inconclusive} "
                                    f"skipped={e.skipped}")
                if e.quarantine is not None:
                    printed_swept += 1
                    printed_failed += e.quarantine["printed"]["fail"]
    if workload.exact and selects_quarantined and not printed_swept:
        problems.append(f"printed variant of {QUARANTINED_ID} never swept")
    elif workload.exact and printed_swept and not printed_failed:
        problems.append(f"printed variant of {QUARANTINED_ID} never FAILed")
    return problems


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

# set-up is timed first; the reference loop is imported and run after it,
# so that its imports do not shorten the measured import of qaskey
_SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import qaskey
qaskey.catalog()
qaskey.all_target_ids()
secs = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
from reference import reference_s
print(secs, reference_s(), reference_s())
"""


def measure_setup_s() -> tuple[float, float]:
    """Median time of ``import qaskey``, ``catalog()`` and
    ``all_target_ids()`` in fresh interpreters (after one unmeasured start
    that writes the bytecode cache): rescaled to the nominal machine, and raw."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, str(HERE)], cwd=ROOT,
                             env=env, capture_output=True, text=True, check=True,
                             timeout=60)
        secs, ref1, ref2 = map(float, out.stdout.split())
        if i:
            scaled.append(rescaled(secs, ref1, ref2))
            raw.append(secs)
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def target_means(sweeps, scaled: bool = True) -> dict:
    """Mean per-sweep time of each target.  The mean, not the median: the
    reference loop already takes out the host's drift, and a target sees
    only a few sweeps per run, whose median moves with the draws twice as
    much as their mean."""
    return {tid: statistics.fmean((s.scaled if scaled else s.times)[tid] for s in sweeps)
            for tid in sweeps[0].times}


def sweep_rate(sweep: Sweep) -> float:
    tally = Tally()
    tally.add(sweep)
    return tally.admissible / sweep.scaled_s


def end_to_end(sweeps, tally: Tally, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "checks_per_s": tally.admissible / sum(s.scaled_s for s in sweeps),
        "target_s_max": max(target_means(sweeps).values()),
        "pass_share": tally.passed / tally.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, tally: Tally, traced_rate: float, untraced_rate: float) -> dict:
    c, t = tracer.counts, tracer
    out = {f"arithmetic.{k}": c[f"arithmetic.{k}"]
           for k in ("mul_calls", "div_calls", "addsub_calls")}
    out["arithmetic.max_operand_bits"] = t.max_operand_bits
    for key in ("qpochhammer.poch_calls", "qpochhammer.omega_calls",
                "qseries.eval_phi_calls", "qseries.eval_w_calls", "qseries.terms",
                "askey_wilson.rep_evals", "identity_catalog.checks",
                "sampler_verifier.raw_draws"):
        out[key] = c[key]
    for layer in t.self_s:
        out[f"{layer}.self_s"] = t.self_s[layer]
    out["qseries.spec_guard_s"] = t.inclusive_s["qseries.spec_guard_s"]
    out["sampler_verifier.draw_s"] = t.inclusive_s["sampler_verifier.draw_s"]
    raw = c["sampler_verifier.raw_draws"]
    out["sampler_verifier.rejected"] = raw - tally.attempted
    out["sampler_verifier.accept_ratio"] = tally.attempted / raw
    out["sampler_verifier.fail_share"] = tally.failed / tally.attempted
    out["sampler_verifier.inconclusive_share"] = tally.inconclusive / tally.attempted
    out["trace.overhead"] = traced_rate / untraced_rate
    return out


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout.  git
    does not look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: Workload, seed: int, seconds: float) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": workload.name,
        "why": why.get(workload.name, ""),
        "seed": seed,
        "seconds": seconds,
        "globs": list(workload.globs),
        "draws": workload.draws,
        "degrees": list(workload.degrees),
        "modes": [dict(m) for m in workload.modes],
    }


def write_json(path: Path, payload) -> None:
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def result_line(correct: bool, tally: Tally, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        # checks that ended without a verdict; FAIL verdicts are results,
        # counted in pass_share and the fail_share layer metric
        "failed": tally.skipped,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


# ---------------------------------------------------------------------------
# the three modes
# ---------------------------------------------------------------------------

def measure(qaskey, workload: Workload, seed: int, seconds: float):
    """Untraced closed loop: sweeps until ``seconds`` have passed."""
    setup_s, raw_setup_s = measure_setup_s()
    ids = target_ids(qaskey, workload)
    run_one_sweep(qaskey, workload, ids, seed)    # warm-up, not measured
    sweeps, tally = [], Tally()
    t_end = time.perf_counter() + seconds
    while True:
        sweep = run_one_sweep(qaskey, workload, ids, sweep_seed(seed, len(sweeps)))
        sweeps.append(sweep)
        tally.add(sweep)
        if time.perf_counter() >= t_end:
            break
    problems = gate(workload, sweeps)
    metrics = end_to_end(sweeps, tally, setup_s)
    detail = {
        "sweeps": len(sweeps),
        "digest_sweep0": sweeps[0].digest(),
        "fail_share": tally.failed / tally.attempted,
        "inconclusive_share": tally.inconclusive / tally.attempted,
        "verdicts": dataclasses.asdict(tally),
        "target_s_sweeps": {tid: [s.scaled[tid] for s in sweeps] for tid in sweeps[0].scaled},
        "sweep_checks_per_s": [sweep_rate(s) for s in sweeps],
        "raw": {
            "setup_s": raw_setup_s,
            "checks_per_s": tally.admissible / sum(s.wall_s for s in sweeps),
            "target_s_max": max(target_means(sweeps, scaled=False).values()),
        },
    }
    return problems, tally, metrics, detail


def measure_traced(qaskey, workload: Workload, seed: int, seconds: float):
    """Traced run: sweep 0 repeated until ``seconds`` have passed, untraced
    and under a fresh tracer in turn.  Counts come from the first traced
    repetition and must repeat exactly; times are medians."""
    ids = target_ids(qaskey, workload)
    t_end = time.perf_counter() + seconds
    plain, traced, tracers = [], [], []
    while True:
        plain.append(run_one_sweep(qaskey, workload, ids, seed))
        tracer = Tracer(keep_spans=not tracers)
        with tracer.installed():
            traced.append(run_one_sweep(qaskey, workload, ids, seed))
        tracers.append(tracer)
        if time.perf_counter() >= t_end:
            break
    problems = gate(workload, plain + traced)
    digest = plain[0].digest()
    problems += [f"sweep 0 repetition {i} changed the report"
                 for i, s in enumerate(plain + traced) if s.digest() != digest]
    first = tracers[0]
    problems += [f"traced repetition {i} counted differently"
                 for i, t in enumerate(tracers)
                 if (t.counts, t.max_operand_bits) != (first.counts, first.max_operand_bits)]
    tally = Tally()
    tally.add(plain[0])
    untraced_rate = statistics.median(tally.admissible / s.scaled_s for s in plain)
    traced_rate = statistics.median(tally.admissible / s.scaled_s for s in traced)
    layers = [per_layer(t, tally, traced_rate, untraced_rate) for t in tracers]
    metrics = {k: (statistics.median(m[k] for m in layers) if PER_LAYER_UNITS[k] == "s"
                   else layers[0][k]) for k in PER_LAYER_UNITS}
    detail = {
        "repetitions": len(traced),
        "digest_sweep0": digest,
        "counts": dict(sorted(first.counts.items())),
        "untraced_checks_per_s": untraced_rate,
        "traced_checks_per_s": traced_rate,
        "spans": len(first.spans),
        "bookkeeping_s": statistics.median(t.bookkeeping_s for t in tracers),
    }
    return problems, tally, metrics, detail, first


def write_spans(path: Path, workload: Workload, seed: int, tracer) -> None:
    t0 = min((s[4] for s in tracer.spans), default=0.0)
    write_json(path, {
        "workload": workload.name,
        "seed": seed,
        "fields": ["span_id", "parent_id", "check_id", "name", "start_s", "end_s"],
        "spans": [[sid, parent, check, name, round(a - t0, 7), round(b - t0, 7)]
                  for sid, parent, check, name, a, b in tracer.spans],
    })


def profile(qaskey, workload: Workload, seed: int) -> Path:
    """cProfile of sweep 0's ``run_sweep`` calls (the reference loop is
    left out), top-N by own and by cumulative time."""
    prof = cProfile.Profile()
    for cfg in workload.configs(qaskey, seed):
        prof.runcall(qaskey.run_sweep, cfg, list(workload.globs))
    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    for key in ("tottime", "cumulative"):
        buf.write(f"== {workload.name} seed {seed}: top {PROFILE_TOP_N} by {key} ==\n")
        stats.sort_stats(key).print_stats(PROFILE_TOP_N)
    path = OUT / f"{workload.name}.seed{seed}.profile.txt"
    OUT.mkdir(exist_ok=True)
    path.write_text(buf.getvalue())
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", action="store_true",
                    help="write a cProfile top-N of sweep 0 and time nothing")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        qaskey = load_qaskey()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.profile:
        print(profile(qaskey, workload, args.seed))
        return 0

    prov = provenance(workload, args.seed, args.seconds)
    stem = f"{workload.name}.seed{args.seed}"
    if args.trace:
        problems, tally, metrics, detail, tracer = measure_traced(
            qaskey, workload, args.seed, args.seconds)
        units = PER_LAYER_UNITS
        write_spans(OUT / f"{stem}.trace.json", workload, args.seed, tracer)
    else:
        problems, tally, metrics, detail = measure(qaskey, workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    write_json(OUT / f"{stem}.trace{args.trace}.result.json", {
        "provenance": prov, "problems": problems, "metrics": metrics, "detail": detail})

    print(f"# {workload.name} seed={args.seed} python={prov['python']} "
          f"nproc={prov['nproc']} commit={prov['git_commit'][:12]} "
          f"digest={detail['digest_sweep0'][:16]}")
    for k in units:
        print(f"# {k:<36} {metrics[k]:.6g} {units[k]}")
    for p in problems:
        print(f"# GATE: {p}")
    print(result_line(not problems, tally, metrics, units))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
