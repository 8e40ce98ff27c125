"""The `hartreelab` entry point: config resolution, artifacts, exit codes.

Commands run in-process through cli.main(argv); stdout carries one JSON
summary, stderr one JSON error object, and every artifact embeds the hash
of the semantic config (everything except `out` and `plot`).
"""

import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from hartreelab import artifacts, asymptotics, cli, riesz, sharp_constants, ProblemParams


def run(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ============================================================
# happy paths
# ============================================================


def test_json_writes_non_finite_numpy_scalars_as_strings():
    doc = {"a": np.float64("nan"), "b": np.float32("inf"), "c": np.float64("-inf")}
    text = artifacts.dumps_json(doc)
    assert json.loads(text) == {"a": "nan", "b": "inf", "c": "-inf"}
    assert text == artifacts.dumps_json({"a": math.nan, "b": math.inf, "c": -math.inf})


def test_csv_cells_are_format_float(tmp_path):
    floats = [5e-324, -2.2e-308, 0.0, -0.0, 3.0, -7.0, 1e300, -1e-300, 0.1,
              math.nan, math.inf, -math.inf]
    ints = np.arange(-5, len(floats) - 5)
    artifacts.write_csv(tmp_path / "t.csv", {"x": np.array(floats), "k": ints}, ["h"])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[:2] == ["# h", "x,k"]
    assert lines[2:] == [f"{artifacts.format_float(x)},{artifacts.format_float(k)}"
                         for x, k in zip(floats, ints)]
    artifacts.write_csv(tmp_path / "e.csv", {"x": [], "y": []})
    assert (tmp_path / "e.csv").read_text() == "x,y\n"


def _polylines_per_point_logs(x, y, logx, logy):
    # svg_plot's curve mapping with every axis logarithm taken again at each
    # point: the reference its hoisted per-axis constants must reproduce
    ok = np.isfinite(x) & np.isfinite(y)
    if logx:
        ok &= x > 0
    if logy:
        ok &= y > 0

    def axis(v, log):
        lo, hi = float(v.min()), float(v.max())
        if log:
            pad = (hi / lo) ** 0.04 if hi > lo else 2.0
            return lo / pad, hi * pad
        pad = 0.04 * (hi - lo) if hi > lo else max(abs(hi), 1.0)
        return lo - pad, hi + pad

    (x0, x1), (y0, y1) = axis(x[ok], logx), axis(y[ok], logy)

    def px(v):
        f = ((math.log10(v) - math.log10(x0)) / (math.log10(x1) - math.log10(x0))
             if logx else (v - x0) / (x1 - x0))
        return 64.0 + f * 638.0

    def py(v):
        f = ((math.log10(v) - math.log10(y0)) / (math.log10(y1) - math.log10(y0))
             if logy else (v - y0) / (y1 - y0))
        return 34.0 + (1.0 - f) * 400.0

    segs, pts = [], []
    for xi, yi, good in zip(x.tolist(), y.tolist(), ok.tolist()):
        if good:
            pts.append(f"{px(xi):.2f},{py(yi):.2f}")
        elif pts:
            segs.append(pts)
            pts = []
    if pts:
        segs.append(pts)
    return [" ".join(seg) for seg in segs if len(seg) >= 2]


@pytest.mark.parametrize("log", [True, False], ids=["loglog", "linear"])
def test_svg_points_match_the_per_point_logarithms(tmp_path, log):
    rng = np.random.Generator(np.random.Philox(28))
    if log:
        x = np.sort(10.0 ** rng.uniform(-4.0, 4.0, 770))
        y = 10.0 ** rng.uniform(-16.0, 0.0, 770)
        y[rng.integers(0, 770, 40)] *= -1.0
        y[rng.integers(0, 770, 10)] = 0.0
        x[rng.integers(0, 770, 10)] = -x[0]
    else:
        x = np.linspace(-3.0, 5.0, 770)
        y = rng.standard_normal(770)
    y[rng.integers(0, 770, 10)] = np.nan
    x[rng.integers(0, 770, 5)] = np.inf
    artifacts.svg_plot(tmp_path / "p.svg", [("", x, y)], logx=log, logy=log)
    got = re.findall(r'<polyline [^>]*points="([^"]*)"', (tmp_path / "p.svg").read_text())
    want = _polylines_per_point_logs(x, y, log, log)
    assert len(want) > (10 if log else 1)
    assert got == want


def test_constants_summary_and_artifacts(tmp_path, capsys):
    out = tmp_path / "run1"
    rc, stdout, _ = run(capsys, "constants", "--alpha", "2.0", "--out", str(out))
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["command"] == "constants"
    assert doc["c_n"] == sharp_constants(ProblemParams(3, 2.0)).c_n
    assert doc["artifacts"] == ["config.json", "constants.json"]
    assert 0.0 <= doc["k_identity_defect"] < 1e-14
    assert json.loads((out / "constants.json").read_text())["k_identity_defect"] == \
        doc["k_identity_defect"]
    recorded = json.loads((out / "config.json").read_text())
    assert recorded["command"] == "constants"
    assert recorded["config_hash"] == doc["config_hash"]
    assert recorded["alpha"] == 2.0


def test_rerun_from_recorded_config_is_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    rc1, out1, _ = run(capsys, "constants", "--n", "4", "--out", str(d1))
    rc2, out2, _ = run(capsys, "constants", "--config", str(d1 / "config.json"),
                       "--out", str(d2))
    assert rc1 == rc2 == 0
    assert (d1 / "constants.json").read_bytes() == (d2 / "constants.json").read_bytes()
    # out is non-semantic: the hash, and hence the stamped artifacts, agree
    assert json.loads(out1)["config_hash"] == json.loads(out2)["config_hash"]


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "constants", "n": 4}))
    rc, stdout, _ = run(capsys, "constants", "--config", str(cfg), "--n", "5")
    assert rc == 0
    assert json.loads(stdout)["n"] == 5


def test_config_hash_tracks_semantics_only(tmp_path, capsys):
    _, out_a, _ = run(capsys, "constants", "--out", str(tmp_path / "x"))
    _, out_b, _ = run(capsys, "constants", "--out", str(tmp_path / "y"))
    _, out_c, _ = run(capsys, "constants", "--n", "4")
    h = lambda s: json.loads(s)["config_hash"]
    assert h(out_a) == h(out_b)
    assert h(out_a) != h(out_c)


def test_kernel_command_stamps_artifacts(tmp_path, capsys):
    out = tmp_path / "k"
    rc, stdout, _ = run(capsys, "kernel", "--points", "51", "--pairs", "20",
                        "--plot", "--out", str(out))
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["identity_max_error"] < 1e-8
    assert doc["artifacts"] == ["config.json", "kernel_check.json",
                                "kernel_hat.csv", "kernel_hat.svg"]
    lines = (out / "kernel_hat.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={doc['config_hash']}"
    assert doc["config_hash"][:12] in (out / "kernel_hat.svg").read_text()
    assert json.loads((out / "kernel_check.json").read_text())["config_hash"] \
        == doc["config_hash"]


def test_kernel_command_serves_unbounded_kernels(capsys):
    # Khat(0) is infinite for alpha <= 1, so the table skips t = 0
    rc, stdout, stderr = run(capsys, "kernel", "--alpha", "0.5")
    assert rc == 0, stderr
    assert json.loads(stdout)["identity_max_error"] < 1e-8


def test_delaunay_command_finds_the_orbit(tmp_path, capsys):
    out = tmp_path / "d"
    rc, stdout, _ = run(capsys, "delaunay", "--nodes", "128", "--steps", "12",
                        "--epsilon-factor", "0.85", "--out", str(out))
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["converged"] and doc["nontrivial"] and not doc["partial_result"]
    assert doc["epsilon"] < doc["u_c"]
    assert doc["residual_norm"] < 1e-5
    lines = (out / "delaunay_profile.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={doc['config_hash']}"
    assert f"# epsilon={doc['epsilon']!r}" in lines
    assert any(ln.startswith("# period=") for ln in lines)
    assert any(ln.startswith("# residual_norm=") for ln in lines)
    assert lines[lines.index("t,U") + 1].startswith("0.0,")
    assert "delaunay_profile.csv" in doc["artifacts"]


@pytest.mark.parametrize("alpha", ["0.3", "0.5", "1.0"])
def test_delaunay_command_serves_unbounded_kernels(capsys, alpha):
    # Khat(0) is infinite for alpha <= 1; the solver reads only its symbol
    docs = []
    for nodes in ("64", "512"):
        rc, stdout, _ = run(capsys, "delaunay", "--alpha", alpha, "--nodes", nodes)
        assert rc == 0
        docs.append(json.loads(stdout))
    assert all(d["converged"] and d["nontrivial"] for d in docs)
    assert abs(docs[0]["epsilon"] - docs[1]["epsilon"]) <= 1e-12 * docs[0]["u_c"]


def test_moving_spheres_command_defaults(capsys):
    rc, stdout, _ = run(capsys, "moving-spheres")
    assert rc == 0
    doc = json.loads(stdout)
    # default field: |x|^(-nu) probed about 0.5 e_1, critical at |x|
    assert doc["critical_radius"] == pytest.approx(0.5, abs=2e-4)
    assert not doc["critical_radius_unbounded"]
    assert doc["deficit"]["violations"] == 0
    assert doc["equality_fit"] is None


def test_moving_spheres_violations_are_stamped(tmp_path, capsys):
    # mu = 0.8 exceeds the critical radius 0.5, so the comparison fails
    out = tmp_path / "ms"
    rc, stdout, _ = run(capsys, "moving-spheres", "--mu", "0.8", "--out", str(out))
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["deficit"]["violations"] > 0
    assert "critical_radius" not in doc["deficit"]
    assert doc["artifacts"] == ["config.json", "deficit_violations.csv",
                                "moving_spheres.json"]
    lines = (out / "deficit_violations.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={doc['config_hash']}"
    assert lines[1] == "y1,y2,y3,deficit"
    assert len(lines) == 2 + doc["deficit"]["violations"]


def test_moving_spheres_constant_field_dichotomy(capsys):
    rc, stdout, _ = run(capsys, "moving-spheres", "--field", "constant",
                        "--mu-hi", "4.0")
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["critical_radius"] == 4.0
    assert doc["critical_radius_unbounded"]


def test_asymptotics_command_bubble(tmp_path, capsys):
    out = tmp_path / "asy"
    rc, stdout, _ = run(capsys, "asymptotics", "--out", str(out))
    assert rc == 0
    doc = json.loads(stdout)
    assert not doc["divergence"]
    assert doc["symmetry_certified"]
    assert not doc["fits"][0]["rejected"]
    assert (out / "upper_bound_scan.csv").exists()
    assert (out / "symmetry_ratio.csv").exists()


def test_bubble_check_command(capsys):
    rc, stdout, _ = run(capsys, "bubble-check", "--per-decade", "48")
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["differential"]["rel_norm"] < 1e-10
    assert doc["integral"]["rel_norm"] < 1e-13
    assert doc["forms_gap"] < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("at", ["0.1", "0.99", "n - 0.1"])
def test_bubble_check_passes_at_its_defaults(capsys, n, at):
    # the exact bubble must pass the default 1e-8 certificate, c_f included
    alpha = n - 0.1 if at == "n - 0.1" else float(at)
    rc, stdout, stderr = run(capsys, "bubble-check", "--n", str(n), "--alpha", str(alpha))
    assert rc == 0, stderr
    doc = json.loads(stdout)
    assert doc["tolerance"] == 1e-8
    assert doc["c_f_analytic_error"] <= 1e-12


def test_bubble_check_small_alpha_calibrates_exactly(capsys):
    # alpha = 0.1, where the kernel's diagonal singularity |1 - rho|^(alpha - 1)
    # is strongest; a wrong c_f must not pass with exit 0
    rc, stdout, _ = run(capsys, "bubble-check", "--n", "3", "--alpha", "0.1",
                        "--per-decade", "48")
    assert rc == 0
    P = ProblemParams(3, 0.1)
    amp = sharp_constants(P).c_n
    conformal = 4.0 * math.pi * math.gamma(0.05) * math.gamma(1.5) / (2.0 * math.gamma(1.55))
    analytic = 3.0 / (amp ** (2.0 * P.p - 2.0) * conformal)
    assert abs(json.loads(stdout)["c_f"] / analytic - 1.0) <= 1e-12


def _count_riesz_calls(monkeypatch, *names):
    """{name: 0} for each named ``riesz`` function, counted from here on."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(riesz, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(riesz, name, counted(name))
    return calls


def test_bubble_check_runs_each_distinct_convolution_once(capsys, monkeypatch):
    # R_alpha * F(u) for the calibration and rhs, R_2 * rhs, R_2 * (-Lap u - rhs)
    calls = _count_riesz_calls(monkeypatch, "riesz_convolve", "hartree_rhs")
    # only the call count is under test, so the accuracy gate is opened
    rc, _, _ = run(capsys, "bubble-check", "--per-decade", "16", "--tolerance", "1")
    assert rc == 0
    assert calls == {"riesz_convolve": 3, "hartree_rhs": 1}


def test_delaunay_reads_the_closed_form_cf(capsys, monkeypatch):
    # the solver takes SharpConstants.c_f: no fit and no Riesz convolution
    calls = _count_riesz_calls(monkeypatch, "riesz_convolve", "calibrate_cf")
    rc, stdout, _ = run(capsys, "delaunay", "--nodes", "64")
    assert rc == 0
    assert json.loads(stdout)["c_f"] == sharp_constants(ProblemParams(3, 2.0)).c_f
    assert calls == {"riesz_convolve": 0, "calibrate_cf": 0}


# ============================================================
# config errors (exit 2)
# ============================================================


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "constants", "bogus": 1}))
    rc, _, stderr = run(capsys, "constants", "--config", str(cfg))
    assert rc == 2
    err = json.loads(stderr)
    assert err["error"] == "ConfigError"
    assert "constants.bogus: unknown config key" in err["message"]


def test_recorded_command_mismatch(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "kernel"}))
    rc, _, stderr = run(capsys, "constants", "--config", str(cfg))
    assert rc == 2
    assert "records 'kernel'" in json.loads(stderr)["message"]


def test_malformed_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{not json")
    rc, _, stderr = run(capsys, "constants", "--config", str(cfg))
    assert rc == 2
    assert "not valid JSON" in json.loads(stderr)["message"]


def test_wrong_value_type_in_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "constants", "n": "three"}))
    rc, _, stderr = run(capsys, "constants", "--config", str(cfg))
    assert rc == 2
    assert "expected an integer" in json.loads(stderr)["message"]


def test_invalid_problem_parameters(capsys):
    rc, _, stderr = run(capsys, "constants", "--alpha", "5.0")
    assert rc == 2
    assert json.loads(stderr)["message"].startswith("params:")


def test_unknown_field_kind(capsys):
    rc, _, stderr = run(capsys, "moving-spheres", "--field", "vortex")
    assert rc == 2
    assert "unknown kind" in json.loads(stderr)["message"]


def _field_kinds():
    """The kinds ``cli._make_field`` builds: the words it compares ``kind`` with."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli._make_field)))
    return sorted(node.comparators[0].value for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and getattr(node.left, "id", "") == "kind")


@pytest.mark.parametrize("command", ["moving-spheres", "asymptotics"])
def test_field_help_lists_every_kind_the_command_runs(capsys, command):
    kinds = _field_kinds()
    assert kinds == ["bubble", "constant", "perturbed_bubble", "singular"]
    assert cli.main([command, "--help"]) == 0
    line = next(text for text in capsys.readouterr().out.splitlines()
                if text.lstrip().startswith("--field "))
    assert [k for k in kinds if not re.search(rf"\b{k}\b", line)] == []
    for kind in kinds:
        rc, _, stderr = run(capsys, command, "--field", kind)
        assert rc == 0, (kind, stderr)
    rc, _, _ = run(capsys, command, "--field", "vortex")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("asymptotics", "--field", "singular", "--field-center", "0.5"),
    ("asymptotics", "--field", "singular", "--field-mu", "3"),
    ("asymptotics", "--field", "constant", "--field-center", "0.5"),
    ("moving-spheres", "--field", "singular", "--field-value", "2"),
    ("moving-spheres", "--field", "bubble", "--field-value", "2"),
    ("moving-spheres", "--field", "perturbed_bubble", "--field-value", "2"),
    ("moving-spheres", "--field", "constant", "--field-mu", "3"),
])
def test_a_field_flag_its_kind_does_not_read_is_refused(capsys, tmp_path, argv):
    # one computation under several config hashes is refused, before any artifact
    rc, stdout, stderr = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert rc == 2 and stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ConfigError" and "does not read it" in err["message"]
    assert not (tmp_path / "out").exists()


def test_an_r_min_the_ladder_would_clip_is_refused(capsys, tmp_path):
    # the ladder spans four decades below r_max = 2: a deeper r_min would run
    # the 2e-4 computation under another config hash
    for r_min in ("1.9e-4", "1e-5", "1e-8"):
        rc, stdout, stderr = run(capsys, "asymptotics", "--r-min", r_min,
                                 "--out", str(tmp_path / "out"))
        assert rc == 2 and stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "ConfigError" and "r_min" in err["message"]
        assert not (tmp_path / "out").exists()
    assert run(capsys, "asymptotics", "--r-min", "2e-4")[0] == 0
    assert cli.main(["asymptotics", "--help"]) == 0
    line = next(text for text in capsys.readouterr().out.splitlines()
                if text.lstrip().startswith("--r-min "))
    assert float(re.search(r"r_max \* (\S+)", line).group(1)) == asymptotics._REACH


@pytest.mark.parametrize("command", ["moving-spheres", "asymptotics"])
def test_the_bubble_kinds_read_the_field_flags(capsys, command):
    assert cli.main([command, "--help"]) == 0
    lines = [text for text in capsys.readouterr().out.splitlines()
             if text.lstrip().startswith(("--field-mu ", "--field-center "))]
    assert len(lines) == 2 and all("bubble, perturbed_bubble" in text for text in lines)
    if command == "asymptotics":
        rc, _, stderr = run(capsys, command, "--field", "perturbed_bubble",
                            "--field-center", "0.3", "--field-mu", "2")
        assert rc == 0, stderr


def test_a_refused_run_writes_no_data_and_a_failed_check_its_whole_set(capsys, tmp_path):
    # the kernel table underflows at n = 270, the constants at n = 250: nothing is written
    rc, _, _ = run(capsys, "kernel", "--n", "270", "--pairs", "2", "--points", "3",
                   "--out", str(tmp_path / "kernel"))
    assert rc == 3 and not (tmp_path / "kernel" / "kernel_hat.csv").exists()
    assert not (tmp_path / "kernel").exists()
    rc, _, _ = run(capsys, "constants", "--n", "250", "--out", str(tmp_path / "constants"))
    assert rc == 3 and not (tmp_path / "constants").exists()
    # a check that misses its tolerance still records everything it measured
    rc, _, stderr = run(capsys, "bubble-check", "--tolerance", "1e-12",
                        "--out", str(tmp_path / "bubble"))
    assert rc == 3 and json.loads(stderr)["error"] == "AccuracyError"
    assert sorted(p.name for p in (tmp_path / "bubble").iterdir()) == [
        "bubble_check.json", "config.json", "residual_differential.csv",
        "residual_integral.csv"]


def test_no_command_prints_usage(capsys):
    rc = cli.main([])
    cap = capsys.readouterr()
    assert rc == 2
    assert "usage" in cap.err.lower()


def test_help_lists_every_command_and_each_commands_flags(capsys):
    assert cli.main(["--help"]) == 0
    listing = capsys.readouterr().out
    assert all(command in listing for command in cli.SCHEMAS)
    for command, schema in cli.SCHEMAS.items():
        assert cli.main([command, "-h"]) == 0
        text = capsys.readouterr().out
        assert "--config FILE" in text
        assert all("--" + key.replace("_", "-") in text for key in schema)


@pytest.mark.parametrize("argv, word", [
    (["hls-check", "--window-lo", "0.1"], "--window-lo"),   # another command's flag
    (["hls-check", "--per", "48"], "--per"),                # no prefix abbreviations
    (["hls-check", "--n", "x"], "'x'"),                     # not an int
    (["hls-check", "--mu"], "--mu"),                        # missing value
    (["bubble-check", "--plot=yes"], "--plot"),             # a bool takes no value
    (["constants", "4"], "'4'"),                            # stray positional word
    (["no-such-command"], "no-such-command"),
])
def test_flag_errors_exit_two_naming_the_word(capsys, argv, word):
    rc, stdout, stderr = run(capsys, *argv)
    assert rc == 2 and stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ConfigError" and word in err["message"]


@pytest.mark.parametrize("argv, body", [
    (["moving-spheres", "--x-offset", "nan"], None),
    (["moving-spheres", "--mu-hi", "nan"], None),
    (["asymptotics", "--r-max", "inf"], None),
    (["asymptotics", "--field-mu", "nan"], None),
    (["constants", "--alpha=1e400"], None),
    (["moving-spheres"], '{"x_offset": NaN}'),          # json.loads reads these
    (["asymptotics"], '{"r_min": -Infinity}'),
    (["constants"], '{"alpha": 1' + "0" * 400 + "}"),   # an int past the floats
], ids=["x-offset", "mu-hi", "r-max", "field-mu", "alpha", "cfg-nan", "cfg-inf", "cfg-int"])
def test_non_finite_numbers_exit_two(tmp_path, capsys, argv, body):
    if body is not None:
        (tmp_path / "c.json").write_text(body)
        argv = [*argv, "--config", str(tmp_path / "c.json")]
    rc, stdout, stderr = run(capsys, *argv)
    assert rc == 2 and stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ConfigError" and "expected a finite number" in err["message"]


@pytest.mark.parametrize("argv", [
    ["kernel", "--pairs", "0"],
    ["kernel", "--pairs", "-1"],
    ["kernel", "--points", "-1"],
    ["kernel", "--seed", "-1"],
    ["moving-spheres", "--seed", "-1"],
], ids=["pairs-0", "pairs-neg", "points-neg", "kernel-seed", "spheres-seed"])
def test_counts_and_seeds_below_their_floor_exit_two(tmp_path, capsys, argv):
    command, flag, value = argv
    key = flag[2:]
    (tmp_path / "c.json").write_text(json.dumps({key: int(value)}))
    for words in ([flag, value], ["--config", str(tmp_path / "c.json")]):
        rc, stdout, stderr = run(capsys, command, *words)
        assert rc == 2 and stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "ConfigError"
        assert err["message"] == (f"{command}.{key}: expected an integer >= "
                                  f"{cli._INT_FLOORS[key]}, got {int(value)}")


def test_both_flag_forms_read_alike(capsys):
    _, spaced, _ = run(capsys, "constants", "--n", "4", "--alpha", "2")
    _, joined, _ = run(capsys, "constants", "--n=4", "--alpha=2")
    assert spaced == joined and json.loads(joined)["n"] == 4


def _config_rows(command):
    """Every key away from its default, then 30 rows from one Philox stream:
    ints in +-1e6 and not below the key's floor, floats across 10^+-300 and
    -0.0, bools, and strings."""
    rng = np.random.Generator(np.random.Philox(sorted(cli.SCHEMAS).index(command)))
    letters = list("ab=- _.é/")

    def draw(key, kind):
        if kind is int:
            return int(rng.integers(cli._INT_FLOORS.get(key, -10 ** 6), 10 ** 6 + 1))
        if kind is float:
            if rng.random() < 0.1:
                return -0.0
            return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0))
        if kind is bool:
            return bool(rng.random() < 0.5)
        return "".join(rng.choice(letters, int(rng.integers(0, 9))))

    schema = cli.SCHEMAS[command]
    rows = [{key: {bool: True, int: 7, float: 0.375, str: "x"}[opt.kind]
             for key, opt in schema.items()}]
    rows += [{key: draw(key, opt.kind) for key, opt in schema.items()} for _ in range(30)]
    return rows


@pytest.mark.parametrize("command", sorted(cli.SCHEMAS))
def test_flags_and_config_file_give_one_hash(tmp_path, command):
    # each row once as flags (spaced and joined forms in turn), once as a
    # config file, and once as a recorded config carrying its config_hash
    for i, values in enumerate(_config_rows(command)):
        words = []
        for key, value in values.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(value, bool):
                words += [flag] if value else []
            else:
                words += [flag, str(value)] if i % 2 else [f"{flag}={value}"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": command, **values}))
        from_flags = cli.resolve_config(command, *cli._parse_flags(command, words))
        from_file = cli.resolve_config(command, str(path), {})
        digest = cli._hash(command, from_file)
        artifacts.write_json(path, {"command": command, "config_hash": digest, **from_file})
        recorded = cli.resolve_config(command, str(path), {})
        for cfg in (from_flags, recorded):
            # the dicts compare -0.0 equal to 0.0; the hash tells them apart
            assert cfg == from_file and cli._hash(command, cfg) == digest


# ============================================================
# numerical failures (exit 3 and 4)
# ============================================================


@pytest.mark.parametrize("xtol, code", [("0", 3), ("-1", 3), ("1e-300", 0)])
def test_moving_spheres_bisection_ends_at_every_xtol(xtol, code):
    # in a child process with a timeout, so a bisection that never ends fails
    # here instead of hanging the suite; a width below one float stops at a
    # bracket one float wide
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-m", "hartreelab.cli", "moving-spheres",
                          "--xtol", xtol], capture_output=True, text=True,
                         timeout=60, env=env)
    assert out.returncode == code, out.stderr
    if code == 0:
        assert abs(json.loads(out.stdout)["critical_radius"] - 0.5) <= 1e-4
    else:
        assert out.stdout == "" and json.loads(out.stderr)["error"] == "ParameterRangeError"


def test_constants_past_the_double_range_exit_three(capsys):
    rc, stdout, stderr = run(capsys, "constants", "--n", "250")
    assert rc == 3 and stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ParameterRangeError"
    assert "left the floating-point range" in err["message"]


@pytest.mark.parametrize("n", ["270", "280", "300", "400"])
def test_kernel_past_the_double_range_exits_three(capsys, n):
    # the angular kernel's QUADPACK reference underflows to 0 at these n,
    # and omega(k)'s Gamma overflows from k = 343: each is named, where a
    # ZeroDivisionError or an OverflowError used to exit 1
    rc, stdout, stderr = run(capsys, "kernel", "--n", n, "--pairs", "2", "--points", "3")
    assert rc == 3 and stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ParameterRangeError"
    assert "left the floating-point range" in err["message"]


def test_kernel_whose_reference_overflows_exits_three(capsys, tmp_path):
    # at n = 120 the QUADPACK integrand (d + w)^q of the rule's self check
    # overflows near the diagonal; it used to exit 1 with an OverflowError
    out = tmp_path / "kernel"
    rc, stdout, stderr = run(capsys, "kernel", "--n", "120", "--alpha", "2.0", "--t-max", "1",
                             "--pairs", "5", "--points", "5", "--out", str(out))
    assert rc == 3 and stdout == "" and not out.exists()
    err = json.loads(stderr)
    assert err["error"] == "ParameterRangeError"
    assert "(n, beta)=(120, 2.0)" in err["message"]


def test_unattainable_tolerance_exits_three(capsys):
    rc, _, stderr = run(capsys, "kernel", "--points", "11", "--pairs", "10",
                        "--tolerance", "1e-30")
    assert rc == 3
    err = json.loads(stderr)
    assert err["error"] == "AccuracyError"
    assert "identity mismatch" in err["message"]


@pytest.mark.parametrize("lo, hi", [("20", "0.05"), ("1.0", "1.01")])
def test_bubble_check_window_without_two_nodes_exits_three(capsys, lo, hi):
    # an inverted window holds no grid radius, a narrow one a single radius
    rc, stdout, stderr = run(capsys, "bubble-check", "--per-decade", "16",
                             "--window-lo", lo, "--window-hi", hi)
    assert rc == 3 and stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "SamplingError"
    assert "fewer than 2 grid nodes" in err["message"]


@pytest.mark.parametrize("mu", ["1e100", "1e160"])
def test_hls_check_extreme_scale_saturates_or_exits_three(capsys, mu):
    # mu^2 and the end radii to the n-th power leave the double range here:
    # the check must still hold or refuse with a sampling error, not crash
    rc, stdout, stderr = run(capsys, "hls-check", "--mu", mu)
    if rc == 0:
        doc = json.loads(stdout)
        assert abs(doc["ratio"] - 1.0) <= doc["tolerance"]
    else:
        assert rc == 3 and stdout == ""
        assert json.loads(stderr)["error"] == "SamplingError"


def test_delaunay_too_few_nodes_exits_three(capsys):
    rc, stdout, stderr = run(capsys, "delaunay", "--nodes", "0")
    assert rc == 3 and stdout == ""
    assert json.loads(stderr)["error"] == "GridError"


def test_subcritical_period_exits_four(capsys):
    # below the bifurcation period no nontrivial orbit exists, and the
    # solver reports the shortfall instead of returning the constant
    rc, _, stderr = run(capsys, "delaunay", "--period", "5.0", "--nodes", "64",
                        "--steps", "8")
    assert rc == 4
    err = json.loads(stderr)
    assert err["error"] == "ConvergenceError"
    assert "no converged orbit" in err["message"]


def test_negative_neck_exits_four(capsys):
    # 128 nodes do not resolve the spike of a 12 L_0 orbit: its neck lands
    # below 0, and a nonpositive orbit is no solution
    rc, _, stderr = run(capsys, "delaunay", "--period-factor", "12", "--nodes", "128")
    assert rc == 4
    err = json.loads(stderr)
    assert err["error"] == "ConvergenceError"
    assert err["message"].startswith("no positive orbit: min U -")
