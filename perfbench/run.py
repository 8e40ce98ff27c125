"""hartreelab benchmark: three closed-loop workloads, one job at a time.

    python3 perfbench/run.py --workload {bubble,hls,branch} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` with PYTHONPATH, nothing is installed.  Each run checks every
job's output (see gates.py) and prints human-readable lines, then one JSON
object as the last line of stdout.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from wrapped module functions
(see tracer.py) plus the tracing overhead.  The README next to this file
says why each workload exists and which end-to-end metric each per-layer
metric should move.

This process imports neither numpy nor the package: all work happens in
child processes (worker.py), started with one BLAS thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402

BLAS_THREADS = 1        # identical on every commit: one thread was faster and steadier
RUN_BUDGET_S = 170.0    # every run ends well inside 180 s
SETUP_SAMPLES = 3       # set-up is measured in at least this many processes
BUBBLE_ARGS = ["bubble-check", "--n", "3", "--alpha", "2.0", "--per-decade", "48", "--plot"]

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> unit; "<span>.<calls|total_s|self_s|count>" unless derived
PER_LAYER = {
    "setup.import_s": "s",
    "cli.main.total_s": "s",
    "constants.sharp_constants.total_s": "s",
    "riesz.riesz_convolve.calls": "count",
    "riesz.riesz_convolve.self_s": "s",
    "riesz.riesz_convolve.ms_per_radius": "ms",
    "riesz.calibrate_cf.total_s": "s",
    "riesz.hartree_rhs.calls": "count",
    "riesz.residual.total_s": "s",
    "riesz.residual_forms_gap.total_s": "s",
    "riesz.hls_ratio.total_s": "s",
    "fields.RadialProfile.__call__.calls": "count",
    "fields.RadialProfile.__call__.self_s": "s",
    "cylinder.kernel_table.total_s": "s",
    "cylinder.dispersion_root.total_s": "s",
    "cylinder.find_delaunay.total_s": "s",
    "cylinder.find_delaunay.self_s": "s",
    "cylinder.periodized_weights.total_s": "s",
    "cylinder.ode_residual.total_s": "s",
    "cylinder.newton_iters": "count",
    "cylinder.ms_per_newton_iter": "ms",
    "spheres.critical_radius.total_s": "s",
    "spheres.critical_radius.probes": "count",
    "spheres.comparison_deficit.self_s": "s",
    "spheres.equality_fit.total_s": "s",
    "asymptotics.asymptotics_report.total_s": "s",
    "artifacts.write_csv.total_s": "s",
    "artifacts.write_json.total_s": "s",
    "artifacts.svg_plot.total_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    traced: bool = False
    layers: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


@dataclass
class Run:
    """Everything one benchmark run collected, before it is summarized."""

    workload: str
    jobs: list = field(default_factory=list)
    crashed: int = 0                                   # jobs that left no timings
    setup_s: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)         # one per working process
    setup_layers: dict = field(default_factory=dict)
    oracle_errors: list = field(default_factory=list)
    env: dict = field(default_factory=dict)


# ============================================================
# summary: pure functions of a Run
# ============================================================


def tail_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


def layer_totals(run: Run) -> dict:
    """Set-up spans plus the mean traced job: {span: {key: value}}."""
    traced = [j for j in run.jobs if j.traced]
    out = {name: dict(st) for name, st in run.setup_layers.items()}
    for job in traced:
        for name, st in job.layers.items():
            acc = out.setdefault(name, {})
            for key, value in st.items():
                acc[key] = acc.get(key, 0.0) + value / len(traced)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(run: Run) -> dict:
    tot = layer_totals(run)
    get = lambda span, key: tot.get(span, {}).get(key, 0.0)
    traced = [j.wall_s for j in run.jobs if j.traced]
    untraced = [j.wall_s for j in run.jobs if not j.traced]
    derived = {
        "setup.import_s": statistics.median(run.import_s),
        "riesz.riesz_convolve.ms_per_radius": 1e3 * _ratio(
            get("riesz.riesz_convolve", "total_s"), get("riesz.riesz_convolve", "radii")),
        "cylinder.newton_iters": get("cylinder.find_delaunay", "newton_iters"),
        "cylinder.ms_per_newton_iter": 1e3 * _ratio(
            get("cylinder.find_delaunay", "self_s"),
            get("cylinder.find_delaunay", "newton_iters")),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in derived:
            value = derived[name]
        else:
            span, key = name.rsplit(".", 1)
            value = get(span, key)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def end_to_end_metrics(run: Run) -> dict:
    values = {
        "wall_s": statistics.median(j.wall_s for j in run.jobs),
        "cpu_s": statistics.median(j.cpu_s for j in run.jobs),
        "peak_rss_mb": statistics.median(run.rss_mb),
        "setup_s": statistics.median(run.setup_s),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def summarize(run: Run, trace: bool) -> dict:
    """The result object: every failure, job or oracle, counts in `failed`."""
    attempted = len(run.jobs) + run.crashed + 1        # + 1: the workload's oracle
    failed = sum(1 for j in run.jobs if j.errors) + run.crashed + bool(run.oracle_errors)
    metrics = per_layer_metrics(run) if trace else end_to_end_metrics(run)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report_lines(run: Run, result: dict) -> list:
    lines = ["env " + json.dumps(run.env, sort_keys=True)]
    for i, job in enumerate(run.jobs):
        state = "ok" if not job.errors else "FAILED: " + "; ".join(job.errors)
        lines.append(f"job {i}{' traced' if job.traced else ''}: "
                     f"wall {job.wall_s:.3f} s, cpu {job.cpu_s:.3f} s, {state}")
    if run.crashed:
        lines.append(f"{run.crashed} job(s) crashed before reporting timings")
    lines.extend(f"oracle FAILED: {e}" for e in run.oracle_errors)
    for name, m in result["metrics"].items():
        line = f"{name:42s} {m['value']:.6g} {m['unit']}"
        if name == "wall_s":
            walls = [j.wall_s for j in run.jobs]
            tail = tail_percentile(walls)
            line += (f"  (median of {len(walls)} jobs; tail: "
                     + (f"p{tail[0]:.1f} = {tail[1]:.6g} s" if tail
                        else "none, fewer than 11 samples") + ")")
        lines.append(line)
    frac = result["failed"] / result["attempted"]
    lines.append(f"{'fail_frac':42s} {frac:.6g} 1  ({result['failed']} of "
                 f"{result['attempted']}: jobs plus the oracle)")
    return lines


# ============================================================
# collection: child processes
# ============================================================


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return "unknown (not a git checkout)"
    return lines[1]


class Bench:
    """Starts worker processes for one run and gates what they report."""

    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = root / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
        self.refs = root / ".bench_build" / "perfbench" / "refs"
        self.n_spawned = 0
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        rng = random.Random(args.seed)
        self.mu = round(10.0 ** rng.uniform(-0.3, 0.3), 6)
        self.testset_seed = rng.randrange(2 ** 31)
        self.cloud_seed = rng.randrange(2 ** 31)

    def spawn(self, mode: str, *opts: str, cli_args=()):
        """Run one worker to completion: (exit code, report or None, stderr)."""
        self.n_spawned += 1
        report = self.work / f"report-{self.n_spawned}.json"
        timeout = max(1.0, self.deadline - time.monotonic())
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--report", str(report),
               *opts, "--spawned", repr(time.monotonic()),
               *(["--", *cli_args] if cli_args else [])]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", None, f"worker {mode} timed out"
        doc = json.loads(report.read_text()) if report.is_file() else None
        return proc.returncode, doc, proc.stderr[-2000:]

    def probes(self, run: Run, mode: str):
        while len(run.setup_s) < SETUP_SAMPLES:
            rc, rep, err = self.spawn(mode)
            if gates.process_errors(rc, rep):
                raise RuntimeError(f"set-up probe failed ({rc}): {err}")
            run.setup_s.append(rep["setup_s"])
            run.import_s.append(rep["import_s"])

    def environment(self, run: Run, env: dict, inputs: str):
        run.env = {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS, **env,
                   "commit": git_commit(self.root),
                   "src_sha256": source_digest(self.root)[:16],
                   "seed": self.args.seed, "inputs": inputs}

    def reference(self, key_doc, digests: dict) -> dict:
        """Artifact digests of the first repetition with this configuration."""
        key = hashlib.sha256(json.dumps([key_doc, source_digest(self.root)])
                             .encode()).hexdigest()[:24]
        path = self.refs / f"{key}.json"
        if path.is_file():
            return json.loads(path.read_text())
        self.refs.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests, sort_keys=True))
        tmp.replace(path)
        return digests

    def cli_workload(self, run: Run, cli_args: list, gate, oracle_opts: list, inputs: str):
        rc, rep, err = self.spawn("oracle", "--workload", run.workload, *oracle_opts)
        oracle = {}
        run.oracle_errors = gates.process_errors(rc, rep)
        if run.oracle_errors:
            run.oracle_errors.append(err)
        else:
            oracle = rep["oracle"]
            run.oracle_errors = gates.oracle_errors(oracle)
            run.setup_s.append(rep["setup_s"])
            run.import_s.append(rep["import_s"])
            self.environment(run, rep["env"], inputs)
        trace = bool(self.args.trace)
        t_start = time.monotonic()
        n = 0
        while n == 0 or time.monotonic() - t_start < self.args.seconds or (trace and n < 2):
            traced = trace and n % 2 == 0     # traced runs alternate with plain ones
            out = self.work / f"out-{n}"
            rc, rep, err = self.spawn("cli", *(["--trace"] if traced else []),
                                      cli_args=[*cli_args, "--out", str(out)])
            n += 1
            errors = gates.process_errors(rc, rep)
            if rep is None or "wall_s" not in rep:
                run.crashed += 1
                print(f"job crashed ({rc}): {err}", file=sys.stderr)
                continue
            run.setup_s.append(rep["setup_s"])
            run.import_s.append(rep["import_s"])
            run.rss_mb.append(rep["peak_rss_mb"])
            if not errors:
                errors = gate(rep["summary"], oracle)
            if not errors:
                digests = gates.artifact_digests(out)
                errors = gates.reproducibility_errors(
                    digests, self.reference([run.workload, cli_args], digests))
            shutil.rmtree(out, ignore_errors=True)
            run.jobs.append(Job(rep["wall_s"], rep["cpu_s"], traced, rep.get("layers", {}),
                                errors))
        self.probes(run, "probe")

    def bubble(self, run: Run):
        def gate(summary, oracle):
            if "cf_analytic" not in oracle:
                return ["no analytic c_f: the oracle failed"]
            return gates.bubble_errors(summary, oracle["cf_analytic"])
        self.cli_workload(run, BUBBLE_ARGS, gate, [],
                          "none: bubble has no random input, the seed is unused")

    def hls(self, run: Run):
        args = ["hls-check", "--n", "5", "--alpha", "3.0", "--mu", repr(self.mu)]
        self.cli_workload(run, args, lambda summary, oracle: gates.hls_errors(summary),
                          ["--mu", repr(self.mu)], f"hls mu={self.mu!r}")

    def branch(self, run: Run):
        opts = ["--seconds", repr(float(self.args.seconds)),
                "--testset-seed", str(self.testset_seed), "--cloud-seed", str(self.cloud_seed)]
        rc, rep, err = self.spawn("branch", *opts, *(["--trace"] if self.args.trace else []))
        if gates.process_errors(rc, rep):
            raise RuntimeError(f"branch worker failed ({rc}): {err}")
        run.setup_s.append(rep["setup_s"])
        run.import_s.append(rep["import_s"])
        run.rss_mb.append(rep["peak_rss_mb"])
        run.setup_layers = rep.get("setup_layers", {})
        oracle = rep["oracle"]
        run.oracle_errors = gates.oracle_errors(oracle)
        cf_errors = gates.cf_errors(rep["c_f"], oracle["cf_analytic"])
        for job in rep["jobs"]:
            run.jobs.append(Job(job["wall_s"], job["cpu_s"], job["traced"],
                                job.get("layers", {}),
                                cf_errors + gates.branch_errors(job["out"])))
        self.environment(run, rep["env"],
                         f"critical_radius test-set seed={self.testset_seed}, "
                         f"equality_fit cloud seed={self.cloud_seed}")
        self.probes(run, "branch-setup")


# ============================================================
# entry point
# ============================================================


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hartreelab benchmark")
    ap.add_argument("--workload", required=True, choices=("bubble", "hls", "branch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "hartreelab" / "cli.py").is_file():
        print(f"perfbench: no hartreelab source under {root / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(root, args)
    run = Run(args.workload)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        getattr(bench, args.workload)(run)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if not run.jobs or (args.trace and len({j.traced for j in run.jobs}) < 2):
        print("perfbench: too few jobs reported timings", file=sys.stderr)
        return 1
    result = summarize(run, bool(args.trace))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in report_lines(run, result):
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
