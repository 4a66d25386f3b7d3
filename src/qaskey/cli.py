"""Command-line front end.

Subcommands: eval (polynomial values, single representation or the
seven-way comparison), eval-series (raw terminating series), verify
(randomized identity sweeps with a JSON report), list (the identity
catalogue) and table (value grids over the orthogonality segment).

Exit codes: 0 success, 1 an identity check FAILed, 2 parse/usage error,
3 an admissibility guard (pole) rejected the inputs, 4 the sampler could
not find an admissible draw.

Every flag can also be supplied from a ``key = value`` config file via
--config; explicit flags win over the file, and every value in it is
checked as its flag would be.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import io
import json
import math
import re
import sys

from .arithmetic import GuardViolation, QBase, QError, _quoted, format_scalar, parse_scalar
from .askey_wilson import AWParams, RepId, RepTag, eval_all, eval_rep
from .identity_catalog import catalog
from .qseries import SeriesSpec, VwpSpec, eval_series
from .sampler_verifier import (
    DrawConfig,
    SamplerExhausted,
    UnknownTarget,
    resolve_targets,
    run_sweep,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_POLE = 3
EXIT_SAMPLER = 4

_REP_CHOICES = [tag.value for tag in RepTag] + ["all"]


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _die(code: int, message: str):
    raise _CliError(code, message)


# ---------------------------------------------------------------------------
# config file support: key = value lines mirroring the flags
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    _die(EXIT_PARSE, f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        _die(EXIT_PARSE, f"cannot read config file: {exc}")
    return values


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _config_values(p, path: str) -> dict:
    """The values of the config file ``path``, keyed by the dests of the
    subcommand parser ``p``'s flags, for ``p.set_defaults``.

    Each value is checked as its flag would be, also when a flag given on
    the command line overrides it: a boolean must be one of the ``_TRUE``
    or ``_FALSE`` words, an integer flag's value must parse, and a flag
    with fixed choices must name one of them."""
    config = _load_config(path)
    actions = [a for a in p._actions if a.dest not in ("help", "config")]
    out = {}
    for action in actions:
        key = action.dest
        if key not in config:
            continue
        raw = config[key]
        if isinstance(action.default, bool):
            word = raw.lower()
            if word not in _TRUE and word not in _FALSE:
                _die(EXIT_PARSE, f"config key {key}: expected one of "
                                 f"{', '.join(sorted(_TRUE | _FALSE))}, got {_quoted(raw)}")
            out[key] = word in _TRUE
        elif action.type is int:
            try:
                out[key] = int(raw)
            except ValueError:
                _die(EXIT_PARSE, f"config key {key}: expected an integer, got {_quoted(raw)}")
        elif action.choices and raw not in action.choices:
            _die(EXIT_PARSE, f"config key {key}: expected one of "
                             f"{', '.join(action.choices)}, got {_quoted(raw)}")
        else:
            out[key] = raw
    unknown = set(config) - {a.dest for a in actions}
    if unknown:
        _die(EXIT_PARSE, f"unknown config keys: {', '.join(sorted(unknown))}")
    return out


def _require(opts: dict, *names):
    for name in names:
        if opts[name] is None:
            _die(EXIT_PARSE, f"missing required option --{name.replace('_', '-')}")


def _parse_scalar(exact: bool, text: str, what: str):
    """A scalar flag's value; on the float backend its real and imaginary
    parts must be finite."""
    try:
        value = parse_scalar(text, exact)
    except ValueError as exc:
        _die(EXIT_PARSE, f"bad {what}: {exc}")
    if not exact and not cmath.isfinite(value):
        _die(EXIT_PARSE, f"bad {what}: not a finite number: {_quoted(text)}")
    return value


def _parse_real(text: str, what: str) -> float:
    value = _parse_scalar(False, text, what)
    if value.imag:
        _die(EXIT_PARSE, f"bad {what}: not a real number: {_quoted(text)}")
    return value.real


def _scalar_list(exact: bool, text: str, what: str):
    items = [t for t in text.split(",") if t.strip()]
    return [_parse_scalar(exact, t, what) for t in items]


def _json_float(x: float):
    """``x``, or None (JSON null) when it is not finite: JSON has no token
    for infinity or NaN, and a scale beyond the float range is infinite."""
    return x if math.isfinite(x) else None


def _open_out(path: str):
    """``path`` opened for writing, or a usage error that names it."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        _die(EXIT_PARSE, f"cannot write {_quoted(path)}: {exc.strerror or exc}")


def _build(make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError (a negative count or
    degree, an empty range) reported as a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _die(EXIT_PARSE, str(exc))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _spectral_point(opts, exact: bool):
    picks = [k for k in ("w", "theta", "x") if opts[k] is not None]
    if len(picks) != 1:
        _die(EXIT_PARSE, "exactly one of --w / --theta / --x is required")
    kind = picks[0]
    if kind == "w":
        return _parse_scalar(exact, opts["w"], "--w")
    if exact:
        _die(EXIT_PARSE, f"--{kind} needs the float backend; "
                         "rational runs require --w")
    if kind == "theta":
        # the value is invariant under theta -> -theta; normalize the sign
        # so both spellings print byte-identical output
        theta = abs(_parse_real(opts["theta"], "--theta"))
        return cmath.exp(1j * theta)
    x = _parse_real(opts["x"], "--x")
    ax = abs(x)
    if ax <= 1.0:
        return complex(x, math.sqrt(1.0 - x * x))
    # x + sqrt(x^2 - 1) without forming x^2, which overflows above ~1.3e154
    w = math.copysign(ax + math.sqrt(ax - 1.0) * math.sqrt(ax + 1.0), x)
    if math.isinf(w):
        _die(EXIT_PARSE, f"bad --x: w = x + sqrt(x^2 - 1) is beyond the float range: "
                         f"{_quoted(opts['x'])}")
    return complex(w, 0.0)


def cmd_eval(args) -> int:
    opts = vars(args)
    _require(opts, "a1", "a2", "a3", "a4", "q", "n")
    exact = opts["backend"] == "rational"
    a = [_parse_scalar(exact, opts[k], f"--{k}") for k in ("a1", "a2", "a3", "a4")]
    qval = _parse_scalar(exact, opts["q"], "--q")
    w = _spectral_point(opts, exact)
    params = _build(AWParams, a, QBase(qval), w, opts["n"])
    as_json = opts["format"] == "json"

    if opts["rep"] != "all":
        value, trace = eval_rep(params, RepId(RepTag(opts["rep"])))
        if as_json:
            print(json.dumps({"rep": opts["rep"], "value": format_scalar(value),
                              "abs_scale": _json_float(trace.abs_scale)}, sort_keys=True))
        else:
            print(format_scalar(value))
        return EXIT_OK

    report = eval_all(params)
    if not report.values:
        guard = next(iter(report.skipped.values()), "no representation admissible")
        _die(EXIT_POLE, guard)
    if as_json:
        print(json.dumps({
            "values": {k: format_scalar(v) for k, v in sorted(report.values.items())},
            "skipped": dict(sorted(report.skipped.items())),
            "max_deviation": _json_float(report.max_deviation),
            "rel_deviation": _json_float(report.rel_deviation),
            "scale": _json_float(report.scale),
            "all_agree": report.all_agree,
        }, sort_keys=True))
        return EXIT_OK
    for tag in (t.value for t in RepTag):
        if tag in report.values:
            print(f"{tag:<10} {format_scalar(report.values[tag])}")
        else:
            print(f"{tag:<10} SKIPPED ({report.skipped[tag]})")
    print(f"max deviation      {report.max_deviation:.3e}")
    print(f"relative deviation {report.rel_deviation:.3e}")
    print(f"condition scale    {report.scale:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval-series
# ---------------------------------------------------------------------------

def cmd_eval_series(args) -> int:
    opts = vars(args)
    _require(opts, "z", "q", "n")
    exact = opts["backend"] == "rational"
    qbase = QBase(_parse_scalar(exact, opts["q"], "--q"))
    z = _parse_scalar(exact, opts["z"], "--z")
    n = opts["n"]
    if opts["kind"] == "phi":
        _require(opts, "num", "den")
        spec = _build(SeriesSpec, _scalar_list(exact, opts["num"], "--num"),
                      _scalar_list(exact, opts["den"], "--den"), z, qbase, n)
    else:
        _require(opts, "b", "lower")
        spec = _build(VwpSpec, _parse_scalar(exact, opts["b"], "--b"),
                      _scalar_list(exact, opts["lower"], "--lower"), z, qbase, n)
    value, trace = eval_series(spec)
    if opts["format"] == "json":
        print(json.dumps({"value": format_scalar(value),
                          "abs_scale": _json_float(trace.abs_scale)}, sort_keys=True))
    else:
        print(format_scalar(value))
        print(f"abs_scale {trace.abs_scale:.6e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    opts = vars(args)
    cfg = _build(DrawConfig, seed=opts["seed"],
                 draws_per_record=opts["draws"],
                 n_range=(0, opts["n_max"]),
                 backend=opts["backend"],
                 q_big=opts["q_big"])
    if not cfg.draws_per_record:
        _die(EXIT_PARSE, "--draws must be >= 1: a sweep of 0 draws verifies nothing")
    patterns = [p.strip() for p in opts["targets"].split(",") if p.strip()]
    if not patterns:
        _die(EXIT_PARSE, f"--targets names no target: {_quoted(opts['targets'])}")
    resolve_targets(patterns)   # an unknown target exits before the report file is touched
    # opened first, so that a path that cannot be written fails before the sweep
    with _open_out(opts["json"]) if opts["json"] else contextlib.nullcontext() as out:
        report = run_sweep(cfg, patterns)
        for line in report.summary_lines():
            print(line)
        total_fail = sum(e.failed for e in report.entries)
        total_inc = sum(e.inconclusive for e in report.entries)
        print(f"targets={len(report.entries)} fail={total_fail} "
              f"inconclusive={total_inc} wall={report.wall_time_s:.2f}s")
        if out is not None:
            out.write(report.to_json())
            print(f"report written to {opts['json']}")
    return EXIT_FAIL if report.any_fail else EXIT_OK


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------

def cmd_list(args) -> int:
    opts = vars(args)
    records = catalog()
    if opts["format"] == "json":
        payload = [{
            "id": rec.id,
            "ref": rec.ref,
            "constraints": rec.constraint_summary,
            "lhs": rec.lhs.describe(),
            "rhs": rec.rhs.describe(),
            "quarantined": rec.quarantine is not None,
        } for rec in records]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"{'id':<18} {'ref':<28} constraints")
    for rec in records:
        flag = " [QUARANTINED]" if rec.quarantine else ""
        print(f"{rec.id:<18} {rec.ref:<28} {rec.constraint_summary}{flag}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        _die(EXIT_PARSE, "grid spec must be lo:hi:count")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        _die(EXIT_PARSE, f"malformed grid spec {_quoted(text)}")
    if count < 1 or not -1.0 <= lo <= hi <= 1.0:
        _die(EXIT_PARSE, "grid requires -1 <= lo <= hi <= 1 and count >= 1")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def cmd_table(args) -> int:
    opts = vars(args)
    _require(opts, "a1", "a2", "a3", "a4", "q", "x_grid")
    a = [_parse_scalar(False, opts[k], f"--{k}") for k in ("a1", "a2", "a3", "a4")]
    qbase = QBase(_parse_scalar(False, opts["q"], "--q"))
    n_max = opts["n_max"]
    if n_max < 0:
        _die(EXIT_PARSE, "degree n_max must be >= 0")
    xs = _parse_grid(opts["x_grid"])
    rows = []
    for x in xs:
        w = complex(x, math.sqrt(max(0.0, 1.0 - x * x)))
        for n in range(n_max + 1):
            value, _ = eval_rep(AWParams(a, qbase, w, n), RepTag.PHI_STD)
            rows.append((x, n, value.real, value.imag))
    if opts["format"] == "json":
        payload = [{"x": x, "n": n, "value_re": _json_float(re), "value_im": _json_float(im)}
                   for x, n, re, im in rows]
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "n", "value_re", "value_im"])
        for x, n, re, im in rows:
            writer.writerow([f"{x:.17g}", n, f"{re:.17g}", f"{im:.17g}"])
        text = buf.getvalue()
    if opts["out"]:
        with _open_out(opts["out"]) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(p, func):
    """Add --config to the subcommand parser ``p`` and bind it to ``func``;
    :func:`main` reads ``p`` back from the parsed arguments to apply a
    config file to it."""
    p.add_argument("--config", help="key = value file mirroring the flags")
    p.set_defaults(func=func, parser=p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaskey",
        description="terminating basic hypergeometric series and the "
                    "four-parameter symmetric polynomial family, with a "
                    "randomized identity verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the polynomial family")
    for k in ("a1", "a2", "a3", "a4"):
        p.add_argument(f"--{k}")
    p.add_argument("--q")
    p.add_argument("--w", help="spectral point w (any nonzero scalar)")
    p.add_argument("--theta", help="angle; w = e^{i|theta|} (float backend)")
    p.add_argument("--x", help="polynomial argument in [-1,1] (float backend)")
    p.add_argument("--n", type=int)
    p.add_argument("--rep", choices=_REP_CHOICES, default="all")
    p.add_argument("--backend", choices=["rational", "float"], default="rational")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_common(p, cmd_eval)

    p = sub.add_parser("eval-series", help="evaluate a terminating series")
    p.add_argument("--kind", choices=["phi", "w"], default="phi")
    p.add_argument("--num", help="comma-separated numerator parameters")
    p.add_argument("--den", help="comma-separated denominator parameters")
    p.add_argument("--b", help="special parameter of the very-well-poised shape")
    p.add_argument("--lower", help="comma-separated lower parameters")
    p.add_argument("--z")
    p.add_argument("--q")
    p.add_argument("--n", type=int)
    p.add_argument("--backend", choices=["rational", "float"], default="rational")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_common(p, cmd_eval_series)

    p = sub.add_parser("verify", help="run randomized identity sweeps")
    p.add_argument("--targets", default="*", help="comma-separated id globs (default *)")
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=20260808)
    p.add_argument("--backend", choices=["rational", "float", "both"], default="rational")
    p.add_argument("--n-max", type=int, default=6, dest="n_max")
    p.add_argument("--q-big", action="store_true", dest="q_big",
                   help="use the mirrored |q| > 1 regime")
    p.add_argument("--json", help="write the full report to this file")
    _add_common(p, cmd_verify)

    p = sub.add_parser("list", help="list the identity catalogue")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_common(p, cmd_list)

    p = sub.add_parser("table", help="tabulate polynomial values over a grid")
    for k in ("a1", "a2", "a3", "a4"):
        p.add_argument(f"--{k}")
    p.add_argument("--q")
    p.add_argument("--n-max", type=int, default=4, dest="n_max")
    p.add_argument("--x-grid", dest="x_grid", help="lo:hi:count with x in [-1,1]")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    _add_common(p, cmd_table)

    # let scalar values like -1/3 or -0.5+2i pass as option values; set
    # after add_argument so registered options keep the stock matcher
    matcher = re.compile(r"^-[\d.]")
    for sp in sub.choices.values():
        sp._negative_number_matcher = matcher
    parser._negative_number_matcher = matcher

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        if args.config:
            # the file's values become the defaults of the second parse, so
            # a flag on the command line still wins
            args.parser.set_defaults(**_config_values(args.parser, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SamplerExhausted as exc:
        print(f"error: sampler exhausted: {exc}", file=sys.stderr)
        return EXIT_SAMPLER
    except UnknownTarget as exc:
        print(f"error: unknown target: {_quoted(str(exc))}", file=sys.stderr)
        return EXIT_PARSE
    except GuardViolation as exc:
        print(f"error: pole guard: {exc}", file=sys.stderr)
        return EXIT_POLE
    except QError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
