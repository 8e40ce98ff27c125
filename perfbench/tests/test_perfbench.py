"""Tests of the benchmark itself; none of them runs a workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gates  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, layer_stats  # noqa: E402


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ============================================================
# tracing
# ============================================================


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("a", 0.0, 10.0, None),     # 0
        Span("b", 1.0, 4.0, 0),         # 1
        Span("c", 5.0, 9.0, 0),         # 2
        Span("d", 6.0, 7.0, 2),         # 3
        Span("b", 7.5, 8.5, 2),         # 4: b again, under c
        Span("e", 11.0, 15.0, None),    # 5
        Span("e", 12.0, 13.0, 5),       # 6: recursive call of e
    ]
    st = layer_stats(spans)
    assert st["a"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 4.0}
    assert st["b"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert st["c"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0 - 1.0 - 1.0}
    assert st["d"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    # the recursive call adds to calls and self time, not to total time
    assert st["e"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0 + 1.0}


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    spans = [Span("p", 0.0, 4.0, None), Span("x", 1.0, 3.0, 0),
             Span("y", 2.0, 5.0, 0)]
    assert layer_stats(spans)["p"]["self_s"] == pytest.approx(1.0)


def test_tracer_wraps_rebinds_counts_and_restores():
    import hartreelab
    from hartreelab import cli, constants, fields
    from hartreelab.params import ProblemParams
    original = constants.sharp_constants
    geometric = fields.RadialGrid.__dict__["geometric"]
    tracer = Tracer({"fields.RadialGrid.geometric": lambda g: {"radii": len(g)}})
    tracer.install()
    try:
        assert hartreelab.sharp_constants is constants.sharp_constants
        assert constants.sharp_constants is not original
        hartreelab.sharp_constants(ProblemParams(3, 2.0))
        cli.sharp_constants(ProblemParams(3, 2.0))
        grid = fields.RadialGrid.geometric(1.0, 10.0, 16)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    st = tracer.take()
    assert st["constants.sharp_constants"]["calls"] == 2
    assert st["fields.RadialGrid.geometric"]["radii"] == len(grid) == 17
    assert constants.sharp_constants is original
    assert hartreelab.sharp_constants is original and cli.sharp_constants is original
    assert fields.RadialGrid.__dict__["geometric"] is geometric
    assert tracer.take() == {}


# ============================================================
# gates and failure counting
# ============================================================


def _run(workload="hls", jobs=None, trace=False) -> run.Run:
    jobs = jobs if jobs is not None else [run.Job(2.0, 1.9), run.Job(2.2, 2.1)]
    if trace:
        jobs[0].traced = True
        jobs[0].layers = {"riesz.riesz_convolve": {"calls": 1, "total_s": 1.5,
                                                   "self_s": 1.2, "radii": 769}}
    return run.Run(workload, jobs=jobs, setup_s=[1.3, 1.4, 1.5],
                   import_s=[1.3, 1.4, 1.5], rss_mb=[118.0, 119.0])


def test_a_job_with_a_wrong_output_is_counted_as_failed():
    good, bad = {"ratio": 1.0 + 7e-8}, {"ratio": 1.0 + 2e-6}
    assert gates.hls_errors(good) == []
    jobs = [run.Job(2.0, 1.9, errors=gates.hls_errors(good)),
            run.Job(2.1, 2.0, errors=gates.hls_errors(bad))]
    result = run.summarize(_run(jobs=jobs), trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)

    clean = run.summarize(_run(), trace=False)
    assert (clean["correct"], clean["failed"]) == (True, 0)

    oracle_off = _run()
    oracle_off.oracle_errors = gates.oracle_errors({"conformal_power": 3e-13})
    assert run.summarize(oracle_off, trace=False)["failed"] == 1

    crashed = _run()
    crashed.crashed = 1
    assert run.summarize(crashed, trace=False)["attempted"] == 4
    assert run.summarize(crashed, trace=False)["failed"] == 1


def test_branch_and_bubble_gates_reject_wrong_outputs():
    orbit = {"nodes": 512, "converged": True, "nontrivial": True,
             "residual_norm": 3e-9, "evenness": 0.0}
    out = {"delaunay": [orbit], "critical_radius": 0.49996, "fit_note": "bubble",
           "profile_fit_rejected": False}
    assert gates.branch_errors(out) == []
    for key, value in (("critical_radius", 0.51), ("fit_note", "non-bubble"),
                       ("profile_fit_rejected", True)):
        assert gates.branch_errors({**out, key: value}), key
    for key, value in (("converged", False), ("nontrivial", False),
                       ("residual_norm", 2e-6), ("evenness", 1e-11)):
        assert gates.branch_errors({**out, "delaunay": [{**orbit, key: value}]}), key
    cf = 0.011641714055277572
    assert gates.bubble_errors({"c_f": cf * (1 + 5e-13)}, cf) == []
    assert gates.bubble_errors({"c_f": cf * (1 + 5e-12)}, cf)


def test_artifact_digests_ignore_out_and_catch_changed_bytes(tmp_path):
    for name, out in (("a", "/x/a"), ("b", "/y/b")):
        d = tmp_path / name
        d.mkdir()
        (d / "config.json").write_text(json.dumps({"n": 3, "out": out}))
        (d / "r.csv").write_text("1,2\n")
    ref = gates.artifact_digests(tmp_path / "a")
    assert gates.reproducibility_errors(gates.artifact_digests(tmp_path / "b"), ref) == []
    (tmp_path / "b" / "r.csv").write_text("1,3\n")
    errs = gates.reproducibility_errors(gates.artifact_digests(tmp_path / "b"), ref)
    assert errs and "r.csv" in errs[0]


# ============================================================
# output contract
# ============================================================


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section, capsys):
    declared = {m["name"]: m["unit"] for m in benchmark_json()[section]}
    result = run.summarize(_run(trace=trace), trace=trace)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    lines = run.report_lines(_run(trace=trace), result)
    for name in declared:
        assert any(line.startswith(name + " ") for line in lines), name
    assert any(line.startswith("fail_frac ") for line in lines)
    if trace:
        m = result["metrics"]
        assert m["riesz.riesz_convolve.ms_per_radius"]["value"] == pytest.approx(1500 / 769)
        assert m["trace.overhead_s"]["value"] == pytest.approx(2.0 - 2.2)


def test_benchmark_json_names_its_workloads():
    doc = benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == ["bubble", "hls", "branch"]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11))) == (100.0 / 11, 0)
    assert run.tail_percentile(list(range(100))) == (90.0, 89)


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hls",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
