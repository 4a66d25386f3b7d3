"""End-to-end CLI behavior: formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qaskey import (AWParams, QBase, RepTag, SeriesSpec, VwpSpec, cli, eval_phi,
                    eval_rep, eval_w)
from qaskey.arithmetic import parse_scalar
from qaskey.sampler_verifier import RecordTally, SweepReport

from util import rand_qbase, rand_scalar


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_degree_zero_all_ones(capsys):
    code, out, _ = run_cli(capsys, "eval", "--a1", "1/2", "--a2", "1/3",
                           "--a3", "-2/5", "--a4", "3/4", "--q", "2/7",
                           "--w", "3/2", "--n", "0")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("phi", "w-"))]
    assert len(lines) == 7
    assert all(ln.split()[1] == "1" for ln in lines)
    assert "max deviation      0.000e+00" in out


def test_eval_single_rep_round_trips_rationals(capsys):
    rng = random.Random(77)
    args = {f"--a{i}": str(rand_scalar(rng)) for i in range(1, 5)}
    q = rand_qbase(rng)
    code, out, _ = run_cli(capsys, "eval",
                           *(x for kv in args.items() for x in kv),
                           "--q", str(q.q), "--w", "4/3", "--n", "3",
                           "--rep", "phi-std")
    assert code == 0
    printed = out.strip()
    params = AWParams([parse_scalar(v, True) for v in args.values()],
                      q, parse_scalar("4/3", True), 3)
    value, _ = eval_rep(params, RepTag.PHI_STD)
    assert parse_scalar(printed, exact=True) == value


def test_eval_theta_sign_is_normalized(capsys):
    base = ["eval", "--a1", "0.5", "--a2", "0.3", "--a3", "0.25",
            "--a4", "-0.6", "--q", "0.4", "--n", "4", "--backend", "float"]
    code1, out1, _ = run_cli(capsys, *base, "--theta", "0.7")
    code2, out2, _ = run_cli(capsys, *base, "--theta", "-0.7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_eval_errors(capsys):
    # unparseable scalar
    code, _, err = run_cli(capsys, "eval", "--a1", "zz", "--a2", "1", "--a3",
                           "2", "--a4", "3", "--q", "1/2", "--w", "2", "--n", "1")
    assert code == 2 and "a1" in err
    # missing spectral point
    code, _, err = run_cli(capsys, "eval", "--a1", "1/2", "--a2", "1/3",
                           "--a3", "2", "--a4", "3", "--q", "1/2", "--n", "1")
    assert code == 2
    # theta requires the float backend
    code, _, err = run_cli(capsys, "eval", "--a1", "1/2", "--a2", "1/3",
                           "--a3", "2", "--a4", "3", "--q", "1/2",
                           "--theta", "0.3", "--n", "1")
    assert code == 2 and "--w" in err
    # base on the unit circle is a guard violation
    code, _, err = run_cli(capsys, "eval", "--a1", "1/2", "--a2", "1/3",
                           "--a3", "2", "--a4", "3", "--q", "1", "--w", "2",
                           "--n", "1")
    assert code == 3
    # representation-specific pole: w = 1 kills one very-well-poised shape
    code, _, err = run_cli(capsys, "eval", "--a1", "1/2", "--a2", "1/3",
                           "--a3", "2", "--a4", "3", "--q", "1/2", "--w", "1",
                           "--n", "2", "--rep", "w-def4")
    assert code == 3 and "1/w^2" in err


def test_eval_json_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--a1", "1/2", "--a2", "1/3",
                           "--a3", "-2/5", "--a4", "3/4", "--q", "2/7",
                           "--w", "3/2", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_agree"] is True
    assert len(payload["values"]) == 7


def test_eval_series_cli(capsys):
    code, out, _ = run_cli(capsys, "eval-series", "--kind", "phi",
                           "--num", "1/2,1/3,1/4", "--den", "2/3,3/5,5/7",
                           "--z", "1/3", "--q", "1/2", "--n", "0")
    assert code == 0
    assert out.splitlines()[0] == "1"
    code, out, _ = run_cli(capsys, "eval-series", "--kind", "w", "--b", "2/3",
                           "--lower", "5/7,-3,1/5,4", "--z", "3/5", "--q",
                           "1/2", "--n", "1", "--format", "json")
    assert code == 0
    assert "value" in json.loads(out)


def test_list_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 36  # header + 35 records
    assert all("Cor" in ln for ln in lines[1:])
    assert sum("QUARANTINED" in ln for ln in lines) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3b5763652801149c3861cd8d18b9dfac1e4d2249602e7e69540b987f4aeda0fc")

    code, out, _ = run_cli(capsys, "list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 35
    assert all({"id", "ref", "constraints", "lhs", "rhs"} <= set(row)
               for row in payload)
    # pinned apart from the order and spelling of the right sides' derived
    # prefactor factors; the right-hand series stays pinned.  The remarks
    # print their host's sides under their substitution, as they run
    kept = [{**{k: row[k] for k in ("id", "ref", "constraints", "lhs", "quarantined")},
             "rhs": row["rhs"].rsplit(" * ", 1)[-1]} for row in payload]
    assert hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest() == (
        "7aaa762494ee333c6d9b20194806aa563c66fe7e96cc1b64814d9b9c670ad608")


def test_verify_cli_and_exit_codes(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--targets", "cor3.6/*",
                           "--draws", "4", "--seed", "3",
                           "--json", str(out_json))
    assert code == 0
    assert "cor3.6/r2" in out
    payload = json.loads(out_json.read_text())
    assert len(payload["records"]) == 3

    code, out, err = run_cli(capsys, "verify", "--targets", "nosuch/*",
                             "--draws", "4", "--seed", "3")
    assert (code, out) == (2, "")
    assert err == "error: unknown target: 'nosuch/*'\n"

    code, _, err = run_cli(capsys, "verify", "--targets", "cor3.6/r99",
                           "--draws", "2", "--seed", "3", "--json", str(out_json))
    assert code == 2 and "unknown target" in err
    # the report of the earlier run is left as it was
    assert json.loads(out_json.read_text()) == payload


def test_verify_reports_are_deterministic(tmp_path, capsys):
    paths = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run_cli(capsys, "verify", "--targets", "cor3.10/*",
                             "--draws", "5", "--seed", "9", "--json", str(path))
        assert code == 0
        paths.append(path)
    payloads = []
    for path in paths:
        data = json.loads(path.read_text())
        data.pop("wall_time_s")
        payloads.append(json.dumps(data, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    tally = RecordTally("fake/record", "Cor 0.0", passed=1, failed=2)
    fake = SweepReport(1, {}, [tally], 0.01)
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, targets: fake)
    code, out, _ = run_cli(capsys, "verify", "--targets", "cor3.6/r2")
    assert code == 1
    assert "fail=2" in out


def test_verify_sampler_exhausted_exit_code(capsys, monkeypatch):
    from qaskey.sampler_verifier import SamplerExhausted

    def explode(cfg, targets):
        raise SamplerExhausted("fake/record")

    monkeypatch.setattr(cli, "run_sweep", explode)
    code, _, err = run_cli(capsys, "verify", "--targets", "cor3.6/r2")
    assert code == 4 and "sampler" in err


_AW_ARGS = ("--a1", "1/2", "--a2", "1/3", "--a3", "2", "--a4", "3", "--q", "1/2",
            "--w", "2")
_PHI_ARGS = ("--num", "1/2,1/3,1/4", "--den", "2/3,3/5,5/7", "--z", "1/3", "--q", "1/2")


@pytest.mark.parametrize("argv, message", [
    (("verify", "--draws", "-1"), "draws_per_record must be >= 0"),
    (("verify", "--n-max", "-2"), "n_range must be a nonempty range"),
    (("eval", *_AW_ARGS, "--n", "-1"), "degree n must be >= 0"),
    (("eval-series", *_PHI_ARGS, "--n", "-1"), "termination degree n must be >= 0"),
    (("table", *_AW_ARGS[:10], "--x-grid", "-1:1:3", "--n-max", "-1"),
     "degree n_max must be >= 0"),
], ids=["verify-draws", "verify-n-max", "eval", "eval-series", "table"])
def test_negative_counts_are_usage_errors(capsys, argv, message):
    # exit 1 means a FAIL; a negative count is a usage error, told in one line
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_table_csv_contract(capsys):
    code, out, _ = run_cli(capsys, "table", "--a1", "0.4", "--a2", "0.3",
                           "--a3", "0.2", "--a4", "0.1", "--q", "0.5",
                           "--n-max", "0", "--x-grid", "-1:1:5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "n", "value_re", "value_im"]
    assert all(len(r) == 4 for r in rows)
    assert len(rows) == 1 + 5
    assert all(float(r[2]) == 1.0 and float(r[3]) == 0.0 for r in rows[1:])


def test_table_output_file_and_json(tmp_path, capsys):
    out_file = tmp_path / "grid.json"
    code, _, _ = run_cli(capsys, "table", "--a1", "0.4", "--a2", "0.3",
                         "--a3", "0.2", "--a4", "0.1", "--q", "0.5",
                         "--n-max", "2", "--x-grid", "0:1:3",
                         "--format", "json", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert len(payload) == 9
    assert {"x", "n", "value_re", "value_im"} == set(payload[0])


def test_table_grid_errors(capsys):
    base = ["table", "--a1", "0.4", "--a2", "0.3", "--a3", "0.2",
            "--a4", "0.1", "--q", "0.5"]
    for bad in ("bogus", "0:1", "1:0:5", "-2:1:5", "0:1:0"):
        code, _, err = run_cli(capsys, *base, "--x-grid", bad)
        assert code == 2, bad


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("targets = cor3.6/*\ndraws = 2\nseed = 4\n# comment\n")
    code, out1, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert "cor3.6/r2" in out1 and "pass=2" in out1
    # explicit flag beats the file
    code, out2, _ = run_cli(capsys, "verify", "--config", str(cfg),
                            "--draws", "3")
    assert code == 0
    assert "pass=3" in out2
    bad = tmp_path / "bad.cfg"
    bad.write_text("not-a-known-key = 1\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(bad))
    assert code == 2 and "unknown config keys" in err


def test_a_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    # exit 1 would read as a FAIL; an unreadable file is told in one line
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"draws = 1\n\xff = 2\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read config file: 'utf-8' codec can't decode")
    assert len(err.splitlines()) == 1


def test_unwritable_output_paths_are_usage_errors(tmp_path, capsys, monkeypatch):
    swept = []
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, targets: swept.append(cfg))
    # a directory as the report: refused before the sweep runs
    code, out, err = run_cli(capsys, "verify", "--draws", "1", "--json", str(tmp_path))
    assert (code, out, swept) == (2, "", [])
    assert err == f"error: cannot write {str(tmp_path)!r}: Is a directory\n"
    # a table into a directory that does not exist
    missing = tmp_path / "missing" / "dir" / "x.csv"
    code, out, err = run_cli(capsys, "table", "--a1", "0.4", "--a2", "0.3", "--a3", "0.2",
                             "--a4", "0.1", "--q", "0.5", "--x-grid", "0:1:2",
                             "--out", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {str(missing)!r}: No such file or directory\n"
    assert not missing.parent.exists()


@pytest.mark.parametrize("argv, line, key", [
    (("verify",), "draws = many", "draws"),
    (("eval", *_AW_ARGS), "n = two", "n"),
    (("eval-series", *_PHI_ARGS), "n = 1.5", "n"),
    (("table", *_AW_ARGS[:10], "--x-grid", "0:1:3"), "n-max = four", "n_max"),
], ids=["verify", "eval", "eval-series", "table"])
def test_non_integer_config_values_are_usage_errors(tmp_path, capsys, argv, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"error: config key {key}: expected an integer")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, line, key", [
    (("eval", *_AW_ARGS, "--n", "2"), "backend = floaty", "backend"),
    (("eval", *_AW_ARGS, "--n", "2"), "rep = bogus", "rep"),
    (("eval-series", *_PHI_ARGS, "--n", "2"), "kind = v", "kind"),
    (("verify", "--targets", "cor3.6/r2", "--draws", "1"), "backend = floats", "backend"),
    (("verify", "--targets", "cor3.6/r2", "--draws", "1"), "q_big = ture", "q_big"),
], ids=["backend", "rep", "kind", "verify-backend", "bool"])
def test_config_values_outside_the_flag_choices_are_usage_errors(tmp_path, capsys,
                                                                 argv, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"error: config key {key}: expected one of ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("word, q_big", [("on", True), ("Yes", True), ("1", True),
                                         ("off", False), ("FALSE", False), ("0", False)])
def test_config_booleans_take_the_true_and_false_words(tmp_path, word, q_big):
    cfg = tmp_path / "verify.cfg"
    report = tmp_path / "report.json"
    cfg.write_text(f"targets = cor3.6/r2\ndraws = 1\nq_big = {word}\n")
    assert cli.main(["verify", "--config", str(cfg), "--json", str(report)]) == 0
    assert json.loads(report.read_text())["config"]["q_big"] is q_big


@pytest.mark.parametrize("line, flags, message", [
    ("draws = many", ("--draws", "1"), "config key draws: expected an integer"),
    ("backend = floats", ("--backend", "float"), "config key backend: expected one of "),
    ("q_big = ture", ("--q-big",), "config key q_big: expected one of "),
], ids=["int", "choices", "bool"])
def test_a_config_value_that_a_flag_overrides_is_still_checked(tmp_path, capsys,
                                                               line, flags, message):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "verify", "--targets", "cor3.6/r2", "--draws", "1",
                             *flags, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("targets", ["zzz*", "cor3.6/*,nosuch/*", ",", " , "])
def test_targets_that_pick_nothing_exit_2_and_leave_the_report(tmp_path, capsys, targets):
    # a mistyped glob in CI must not verify nothing and pass
    report = tmp_path / "report.json"
    report.write_text("earlier report\n")
    code, out, err = run_cli(capsys, "verify", "--targets", targets, "--draws", "1",
                             "--json", str(report))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert report.read_text() == "earlier report\n"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_zero_draws_exit_2_and_leave_the_report(tmp_path, capsys, source):
    # a sweep of no draws verifies nothing, so it must not pass
    report = tmp_path / "report.json"
    report.write_text("earlier report\n")
    if source == "flag":
        args = ("--draws", "0")
    else:
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("draws = 0\n")
        args = ("--config", str(cfg))
    code, out, err = run_cli(capsys, "verify", "--targets", "cor3.6/r2", *args,
                             "--json", str(report))
    assert (code, out) == (2, "")
    assert err.startswith("error: --draws must be >= 1") and len(err.splitlines()) == 1
    assert report.read_text() == "earlier report\n"


def test_verify_from_a_config_file_matches_the_same_flags(tmp_path, capsys):
    by_flags, by_config = tmp_path / "flags.json", tmp_path / "config.json"
    code, out_flags, _ = run_cli(
        capsys, "verify", "--targets", "cor3.6/*,ops/invert-w", "--draws", "3",
        "--seed", "11", "--backend", "both", "--n-max", "9", "--q-big",
        "--json", str(by_flags))
    assert code == 0
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("targets = cor3.6/*,ops/invert-w\ndraws = 3\nseed = 11\n"
                   "backend = both\nn-max = 9\nq_big = yes\n")
    code, out_config, _ = run_cli(capsys, "verify", "--config", str(cfg),
                                  "--json", str(by_config))
    assert code == 0
    reports = [json.loads(path.read_text()) for path in (by_flags, by_config)]
    for report in reports:
        report.pop("wall_time_s")
    assert reports[0] == reports[1]
    assert reports[0]["config"]["n_range"] == [0, 9]
    assert reports[0]["config"]["q_big"] is True
    assert len(reports[0]["records"]) == 8      # four targets on both backends
    assert out_flags.splitlines()[:-2] == out_config.splitlines()[:-2]


# deep exact values: more digits than str() of an int may give under the
# interpreter's default limit of 4300 digits
_DEEP = [
    (["eval-series", "--kind", "w", "--b", "3/7+1/2 i", "--lower", "1/2,2/3,-1/5 i,5/3",
      "--z", "1/3", "--q", "7/3", "--n", "30", "--backend", "rational"],
     lambda: eval_w(VwpSpec(parse_scalar("3/7+1/2 i", True),
                            [parse_scalar(t, True) for t in ("1/2", "2/3", "-1/5 i", "5/3")],
                            parse_scalar("1/3", True), QBase(parse_scalar("7/3", True)), 30))),
    (["eval", "--a1", "1/2", "--a2", "1/3", "--a3", "2/5+1/7 i", "--a4", "3/4", "--q", "2/7",
      "--w", "3/5+1/3 i", "--n", "60", "--backend", "rational", "--rep", "phi-std"],
     lambda: eval_rep(AWParams([parse_scalar(t, True) for t in ("1/2", "1/3", "2/5+1/7 i", "3/4")],
                               QBase(parse_scalar("2/7", True)),
                               parse_scalar("3/5+1/3 i", True), 60), RepTag.PHI_STD)),
]


@pytest.mark.parametrize("argv, evaluate", _DEEP, ids=["eval-series-w-30", "eval-phi-std-60"])
def test_deep_exact_values_print_losslessly(capsys, argv, evaluate):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    value, trace = evaluate()
    printed = out.splitlines()[0]
    assert len(printed) > limit
    if argv[0] == "eval-series":
        assert out.splitlines()[1] == f"abs_scale {trace.abs_scale:.6e}"
    # read the printed digits back, under a lifted limit
    sys.set_int_max_str_digits(0)
    try:
        assert parse_scalar(printed, exact=True) == value
    finally:
        sys.set_int_max_str_digits(limit)


def test_importing_qaskey_keeps_the_int_digit_limit():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; before = sys.get_int_max_str_digits(); import qaskey, qaskey.cli; "
            "print(before, sys.get_int_max_str_digits())")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    before, after = out.stdout.split()
    assert out.returncode == 0 and before == after


def test_module_entry_points_run_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for module in ("qaskey", "qaskey.cli"):
        out = subprocess.run([sys.executable, "-m", module, "list", "--format", "json"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert len(json.loads(out.stdout)) == 35


# printed by the rational backend before the exact abs_scale became lazy;
# the lazy value must stay the same float
_AW = ["--a1", "1/2", "--a2", "-1/3+1/4i", "--a3", "2/5", "--a4", "3/7",
       "--w", "3/5+1/2i"]
_AW_VALUE = ("-12631092031995824804681771/17249135009595313190625000"
             "+448848458407693585092709/20123990844527865389062500 i")
_CLI_GOLDEN = [
    (["eval", *_AW, "--q", "2/3", "--n", "4", "--rep", "w-def6"],
     {"abs_scale": 3.99424149850641, "rep": "w-def6", "value": _AW_VALUE}),
    (["eval", *_AW, "--q", "3/2", "--n", "5", "--rep", "phi-inv"],
     {"abs_scale": 1.7477965278329286, "rep": "phi-inv",
      "value": "-7938229153683306836625287373895607/14632228618851128212193280000000000"
               "-7980605338754972528178836412695467/4877409539617042737397760000000000 i"}),
    (["eval", *_AW, "--q", "2/3", "--n", "4"],
     {"all_agree": True, "max_deviation": 0.0, "rel_deviation": 0.0,
      "scale": 252.81086525701645, "skipped": {},
      "values": {tag: _AW_VALUE for tag in ("phi-inv", "phi-mixed", "phi-std",
                                            "w-def4", "w-def5", "w-def6", "w-def7")}}),
    (["eval-series", "--num", "1/2,2/3+1/5i", "--den", "3/4,-5/7", "--z", "1/3",
      "--q", "2/5", "--n", "6"],
     {"abs_scale": 310401.51681090484,
      "value": "-7454693013743027391707739827256947/1946562298052482816022097690624"
               "+64659905542697008990285351794667/19662245434873563798203006976 i"}),
    (["eval-series", "--kind", "w", "--b", "1/3", "--lower", "2/5,-3/7,5/2,1/4+1/3i",
      "--z", "2/3", "--q", "3/2", "--n", "5"],
     {"abs_scale": 1.2708596082734513,
      "value": "2388319674653621759439291916825261842861799"
               "/2441075459427014255942621700729387588140295"
               "-139850854419252100053182358807452363025678976"
               "/529713374695662093539548909058277106626444015 i"}),
]


@pytest.mark.parametrize("argv, expected", _CLI_GOLDEN,
                         ids=["eval-w-def6", "eval-phi-inv-qbig", "eval-all",
                              "eval-series-phi", "eval-series-w-qbig"])
def test_rational_json_output_is_golden(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(expected, sort_keys=True) + "\n"


def test_rational_text_scales_are_golden(capsys):
    code, out, _ = run_cli(capsys, "eval", *_AW, "--q", "2/3", "--n", "4")
    assert code == 0 and out.endswith("condition scale    2.528e+02\n")
    code, out, _ = run_cli(capsys, "eval-series", "--num", "1/2,2/3+1/5i",
                           "--den", "3/4,-5/7", "--z", "1/3", "--q", "2/5", "--n", "6")
    assert code == 0 and out.endswith("abs_scale 3.104015e+05\n")


# non-finite float inputs: each kind of scalar flag, and a config value
_FLOAT_SERIES = ("eval-series", "--kind", "phi", "--q", "1/2", "--n", "3", "--backend", "float")
_FLOAT_AW = ("eval", "--a2", "1/3", "--a3", "1/5", "--a4", "3/4", "--n", "2",
             "--backend", "float")


@pytest.mark.parametrize("argv, flag", [
    ((*_FLOAT_AW, "--a1", "nan", "--q", "0.5", "--w", "0.5"), "--a1"),
    ((*_FLOAT_AW, "--a1", "1e400", "--q", "0.5", "--w", "0.5"), "--a1"),
    ((*_FLOAT_AW, "--a1", "1/2", "--q", "nan", "--w", "0.5"), "--q"),
    ((*_FLOAT_AW, "--a1", "1/2", "--q", "0.5", "--w", "1+inf i"), "--w"),
    ((*_FLOAT_AW, "--a1", "1/2", "--q", "0.5", "--theta", "inf"), "--theta"),
    ((*_FLOAT_AW, "--a1", "1/2", "--q", "0.5", "--x", "nan"), "--x"),
    ((*_FLOAT_SERIES, "--num", "1/2,nan", "--den", "1/3", "--z", "2"), "--num"),
    ((*_FLOAT_SERIES, "--num", "1/2", "--den", "1/3", "--z", "inf"), "--z"),
], ids=["scalar-nan", "scalar-overflow", "q", "w-imaginary", "theta", "x", "list", "z"])
def test_non_finite_float_inputs_are_usage_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad {flag}: not a finite number")
    assert len(err.splitlines()) == 1


def test_non_finite_config_value_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("a1 = -inf\n")
    code, out, err = run_cli(capsys, *_FLOAT_AW, "--q", "0.5", "--w", "0.5",
                             "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: bad --a1: not a finite number: '-inf'")


def test_a_large_x_gives_a_finite_spectral_point(capsys):
    # w = x + sqrt(x^2 - 1) is formed without x^2, which overflows above ~1.3e154;
    # a w beyond the float range is a usage error
    base = ("eval", "--a1", ".5", "--a2", ".3", "--a3", ".2", "--a4", ".1", "--q", ".5",
            "--n", "1", "--backend", "float", "--rep", "phi-std")
    for x, expected in (("1e160", 1.994e160), ("-1e160", -1.994e160), ("1e150", 1.994e150)):
        code, out, _ = run_cli(capsys, *base, "--x", x)
        value = parse_scalar(out, exact=False)
        assert code == 0 and value.imag == 0
        assert math.isclose(value.real, expected, rel_tol=1e-12)
    code, out, err = run_cli(capsys, *base, "--x", "-1e308")
    assert code == 2 and out == ""
    assert err == "error: bad --x: w = x + sqrt(x^2 - 1) is beyond the float range: '-1e308'\n"


@pytest.mark.parametrize("value, message", [
    ("abc", "cannot parse scalar 'abc'"),
    ("1+2 i", "not a real number"),
])
def test_theta_must_be_a_real_number(capsys, value, message):
    code, out, err = run_cli(capsys, *_FLOAT_AW, "--a1", "1/2", "--q", "0.5",
                             "--theta", value)
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad --theta: {message}")


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, fields", [
    ([*_DEEP[1][0], "--format", "json"], ("abs_scale",)),
    ([*_DEEP[1][0][:-2], "--format", "json"], ("scale",)),
    (["eval-series", "--num", "1/2", "--den", "1/3", "--z", "1e300", "--q", "0.5",
      "--n", "3", "--backend", "float", "--format", "json"], ("abs_scale",)),
], ids=["eval-rep", "eval-all", "eval-series"])
def test_json_writes_null_for_a_float_beyond_the_float_range(capsys, argv, fields):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = _strict_json(out)
    assert all(payload[f] is None for f in fields)


def test_table_json_is_strict_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--a1", "0.5", "--a2", "0.3", "--a3", "0.2",
                           "--a4", "0.1", "--q", "0.05", "--n-max", "200",
                           "--x-grid", "-1:1:2", "--format", "json")
    assert code == 0
    rows = _strict_json(out)
    assert any(row["value_re"] is None for row in rows)
    assert all(row["value_re"] is not None for row in rows if row["n"] <= 2)


def test_deep_exact_value_reads_back_through_the_cli(capsys):
    # the printed degree-60 value, far past the int digit limit, is the
    # z of a degree-1 series: 1 + (1 - q^{-1}) z (1/2) / ((1 - q)(1/3))
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, *_DEEP[1][0])
    assert code == 0
    printed = out.splitlines()[0]
    value, _ = _DEEP[1][1]()
    assert parse_scalar(printed, exact=True) == value
    argv = ["eval-series", "--num", "1/2", "--den", "1/3", "--q", "2/7", "--n", "1"]
    code, out, err = run_cli(capsys, *argv, "--z", printed)
    assert code == 0 and err == ""
    expected, _ = eval_phi(SeriesSpec([Fraction(1, 2)], [Fraction(1, 3)], value,
                                      QBase(Fraction(2, 7)), 1))
    assert parse_scalar(out.splitlines()[0], exact=True) == expected
    assert sys.get_int_max_str_digits() == limit


def test_bad_token_is_quoted_to_eighty_characters(capsys):
    token = "1/" + "7" * 5000 + "x"
    code, _, err = run_cli(capsys, "eval-series", "--num", "1/2", "--den", "1/3",
                           "--q", "2/7", "--n", "1", "--z", token)
    assert code == 2 and len(err.splitlines()) == 1
    assert err == f"error: bad --z: cannot parse scalar {token[:80]!r}... (5003 characters)\n"


@pytest.mark.parametrize("z", ["1e1000000", "-2.5E+4301", "1e-1000000 i"])
def test_decimal_exponent_beyond_the_digit_limit_is_a_usage_error(capsys, z):
    # the exponent would be expanded into an integer of that many digits
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "eval-series", "--num", "1/2", "--den", "1/3",
                             "--q", "1/2", "--n", "3", "--z", z, "--backend", "rational")
    assert code == 2 and out == ""
    assert err == f"error: bad --z: cannot parse scalar {z!r}: decimal exponent beyond {limit}\n"


def test_exponents_within_the_digit_limit_and_long_digit_strings_read_back(capsys):
    argv = ["eval-series", "--num", "1/2", "--den", "1/3", "--q", "1/2", "--n", "0"]
    assert run_cli(capsys, *argv, "--z", "1e4300")[0] == 0
    sevens = (10**20000 - 1) // 9 * 7       # 20000 digits, past the limit
    assert parse_scalar("7" * 20000 + "/3", exact=True) == Fraction(sevens, 3)


def test_eval_reports_a_nan_deviation_as_nan(capsys):
    # six representations overflow to NaN at degree 200; a NaN difference
    # is no agreement, so the deviation is NaN, and JSON null
    argv = ["eval", "--a1", "0.5", "--a2", "0.3", "--a3", "0.2", "--a4", "0.1",
            "--q", "0.05", "--x", "0.5", "--n", "200", "--backend", "float"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "max deviation      nan" in out
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    payload = _strict_json(out)
    assert payload["max_deviation"] is None and payload["all_agree"] is False


@pytest.mark.parametrize("argv, text_line, field", [
    (["eval-series", "--num", "1/2", "--den", "1/3", "--z", "1e308+1e308 i", "--q", "0.5",
      "--n", "1", "--backend", "float"], "abs_scale inf", "abs_scale"),
    (["eval", "--a1", "0.5", "--a2", "0.3", "--a3", "0.2", "--a4", "0.1", "--q", "0.5",
      "--w", "1.3e154+0.54e154 i", "--n", "2", "--backend", "float"],
     "condition scale    inf", "scale"),
], ids=["eval-series", "eval"])
def test_a_float_modulus_beyond_the_float_range_reads_as_inf(argv, text_line, field):
    # the parts are finite, but abs() of a term or a value raises
    # OverflowError; the scale reads as inf, and JSON writes null
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    outputs = []
    for extra in ([], ["--format", "json"]):
        out = subprocess.run([sys.executable, "-m", "qaskey", *argv, *extra], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
        outputs.append(out.stdout)
    assert text_line in outputs[0].splitlines()
    assert _strict_json(outputs[1])[field] is None
