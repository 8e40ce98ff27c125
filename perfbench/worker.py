"""Child process of the benchmark: one mode per process, report as JSON.

    python3 perfbench/worker.py <mode> --report FILE --spawned T [options]

Modes:
  probe    import the package and stop (a set-up sample)
  cli      run one ``hartreelab`` command in-process (args after ``--``)
  oracle   the accuracy oracle of a workload, outside any timing
  branch   the warm library process of the ``branch`` workload
  branch-setup   the set-up of ``branch`` only (a set-up sample)

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is system-wide, so ``setup_s`` counts the
interpreter start as well as the imports.  The parent sets PYTHONPATH and
the BLAS thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path


def _rusage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counters() -> dict:
    """Counts taken from return values at the traced boundaries."""
    return {
        "riesz.riesz_convolve": lambda prof: {"radii": len(prof.values)},
        "cylinder.find_delaunay": lambda sol: {"newton_iters": sum(
            s.get("pinned_iterations", 0) + s.get("polish_iterations", 0)
            for s in sol.steps)},
        "spheres.critical_radius": lambda value: {"probes": value.probes},
    }


def _tracer():
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer
    return Tracer(_counters())


# ============================================================
# oracles
# ============================================================


def _conformal_constant(n: int, a: float) -> float:
    from hartreelab.constants import omega
    return omega(n - 1) * math.gamma(a / 2.0) * math.gamma(n / 2.0) \
        / (2.0 * math.gamma((n + a) / 2.0))


def analytic_cf(n: int, a: float) -> float:
    """c_f that makes the bubble solve the equation exactly."""
    from hartreelab import ProblemParams, sharp_constants
    P = ProblemParams(n, a)
    amp = sharp_constants(P).c_n
    return n * (n - 2.0) / (amp ** (2.0 * P.p - 2.0) * _conformal_constant(n, a))


def rhs_closed_form_error(grid) -> float:
    """max |rhs / closed form - 1| of the (3, 2.0) bubble at the analytic c_f."""
    import numpy as np
    from hartreelab import (NonlinearitySpec, ProblemParams, make_bubble,
                            sample_radial, sharp_constants)
    from hartreelab.riesz import hartree_rhs
    P = ProblemParams(3, 2.0)
    nl = NonlinearitySpec(p=P.p, c_f=analytic_cf(3, 2.0))
    bub = make_bubble(P)
    rhs = hartree_rhs(sample_radial(bub, grid), P, nl, u_exact=bub.radial_fn)
    want = sharp_constants(P).c_n * 3.0 * (1.0 + grid.r ** 2) ** -2.5
    return float(np.max(np.abs(rhs.values / want - 1.0)))


def conformal_power_error(grid, n: int = 5, a: float = 3.0) -> float:
    """max |R_a * (1+r^2)^(-(n+a)/2) / closed form - 1| on the grid."""
    import numpy as np
    from hartreelab import AngularKernelSpec
    from hartreelab.riesz import riesz_convolve
    h = lambda r: (1.0 + np.asarray(r) ** 2) ** (-(n + a) / 2.0)
    v = riesz_convolve(h, AngularKernelSpec(n, a), grid=grid,
                       inner_exponent=0.0, outer_exponent=-(n + a))
    want = _conformal_constant(n, a) * (1.0 + grid.r ** 2) ** (-(n - a) / 2.0)
    return float(np.max(np.abs(v.values / want - 1.0)))


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def oracle(workload: str, mu: float) -> dict:
    from hartreelab import RadialGrid
    from hartreelab.riesz import default_grid
    # Each output radius has its own quadrature, so a subset of the workload's
    # grid (still >= 24/decade over its whole range) checks the same numbers
    # at a fraction of the cost; the runs must fit the benchmark's time budget.
    if workload == "bubble":
        grid = RadialGrid(default_grid(48).r[::2])
        return {"rhs_closed_form": rhs_closed_form_error(grid),
                "cf_analytic": analytic_cf(3, 2.0)}
    if workload == "hls":
        # the grid hls_ratio builds for this mu at the default 96/decade
        grid = RadialGrid(RadialGrid.geometric(1e-4 * mu, 1e4 * mu, 96).r[::4])
        return {"conformal_power": conformal_power_error(grid)}
    if workload == "branch":
        # the calibration grid
        grid = RadialGrid(default_grid(96).r[::4])
        return {"rhs_closed_form": rhs_closed_form_error(grid),
                "cf_analytic": analytic_cf(3, 2.0)}
    raise ValueError(f"unknown workload {workload!r}")


# ============================================================
# branch: one warm library process
# ============================================================


def branch_setup():
    from hartreelab import ProblemParams, dispersion_root, kernel_table, nonlinearity_for
    P = ProblemParams(3, 2.0)
    nl = nonlinearity_for(P)
    kt = kernel_table(P)
    u_c, l_0 = dispersion_root(P, nl, kt)
    return P, nl, kt, u_c, l_0


def branch_job(state, testset_seed: int, cloud_seed: int) -> dict:
    """One branch job; returns the numbers its correctness gate reads."""
    import numpy as np
    from hartreelab import (Field, TestSetSpec, asymptotics_report, critical_radius,
                            default_radii, equality_fit, find_delaunay, make_bubble,
                            make_singular_power)
    P, nl, kt, u_c, l_0 = state
    out = {"delaunay": []}
    for nodes in (512, 1024):
        sol = find_delaunay(P, nl, 0.5 * u_c, 1.05 * l_0, 30, kt=kt, n_nodes=nodes)
        v = sol.profile.values
        out["delaunay"].append({
            "nodes": nodes, "converged": bool(sol.converged),
            "nontrivial": bool(sol.nontrivial),
            "residual_norm": float(sol.residual_norm),
            "evenness": float(np.max(np.abs(v[1:] - v[:0:-1])) / v.max())})
    x = np.array([0.5, 0.0, 0.0])
    mu_bar = critical_radius(make_singular_power(P), x, TestSetSpec(seed=testset_seed),
                             alpha=P.alpha)
    out["critical_radius"] = float(mu_bar)
    center = np.array([0.3, -0.1, 0.2])
    rng = np.random.Generator(np.random.Philox(cloud_seed))
    cloud = center[None, :] + rng.normal(size=(400, 3)) * 1.5
    out["fit_note"] = equality_fit(make_bubble(P, center=center, mu=2.2), cloud).note
    bub = make_bubble(P)
    u = Field(n=3, fn=lambda pts: (1.0 + np.linalg.norm(pts, axis=1)) * bub(pts))
    rep = asymptotics_report(u, default_radii(1e-3, 2.0), P,
                             candidates=("cylinder_bubble",), center=np.zeros(3))
    out["profile_fit_rejected"] = bool(rep.fits[0].rejected)
    return out


def _timed(fn, *args):
    t0, c0 = time.perf_counter(), _rusage_cpu()
    result = fn(*args)
    return result, time.perf_counter() - t0, _rusage_cpu() - c0


def run_branch(args, report: dict) -> None:
    tracer = _tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    state = branch_setup()
    report.update(setup_s=time.monotonic() - args.spawned, c_f=state[1].c_f, jobs=[])
    if tracer is not None:
        report["setup_layers"] = tracer.take()
    t_start = time.monotonic()
    while not report["jobs"] or time.monotonic() - t_start < args.seconds \
            or (tracer is not None and len(report["jobs"]) < 2):
        # in a traced run, every other job runs with the wrappers removed
        traced = tracer is not None and len(report["jobs"]) % 2 == 0
        if tracer is not None and not traced:
            tracer.uninstall()
        out, wall, cpu = _timed(branch_job, state, args.testset_seed, args.cloud_seed)
        job = {"wall_s": wall, "cpu_s": cpu, "traced": traced, "out": out}
        if traced:
            job["layers"] = tracer.take()
        elif tracer is not None:
            tracer.install()
        report["jobs"].append(job)
    if tracer is not None:
        tracer.uninstall()
    report["peak_rss_mb"] = _peak_rss_mb()
    report["oracle"] = oracle("branch", 1.0)
    report["env"] = environment()


# ============================================================
# entry point
# ============================================================


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("probe", "cli", "oracle", "branch", "branch-setup"))
    ap.add_argument("--report", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--workload", default="")
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--testset-seed", type=int, default=0)
    ap.add_argument("--cloud-seed", type=int, default=0)
    argv = list(sys.argv[1:] if argv is None else argv)
    cli_args = []
    if "--" in argv:
        argv, cli_args = argv[:argv.index("--")], argv[argv.index("--") + 1:]
    args = ap.parse_args(argv)

    import hartreelab.cli
    import_s = time.monotonic() - args.spawned
    report = {"import_s": import_s, "setup_s": import_s}

    rc = 0
    if args.mode == "cli":
        tracer = _tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc, report["wall_s"], report["cpu_s"] = _timed(hartreelab.cli.main, cli_args)
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.take()
        report["peak_rss_mb"] = _peak_rss_mb()
        report["summary"] = json.loads(stdout.getvalue()) if rc == 0 else None
    elif args.mode == "oracle":
        report["oracle"] = oracle(args.workload, args.mu)
        report["env"] = environment()
    elif args.mode == "branch":
        run_branch(args, report)
    elif args.mode == "branch-setup":
        branch_setup()
        report["setup_s"] = time.monotonic() - args.spawned

    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
