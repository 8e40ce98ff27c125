"""Correctness gates: each returns the list of reasons a job is wrong.

An empty list means the job passed.  The tolerances are the contracts the
package states for these outputs (see the README next to this file).
Standard library only.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CF_REL_TOL = 1e-12          # calibrated c_f against its analytic value
HLS_RATIO_TOL = 1e-6        # |ratio - 1| at the extremal
BRANCH_RESIDUAL_TOL = 1e-6  # relative ODE residual of the orbit
BRANCH_EVEN_TOL = 1e-12     # evenness about the neck, relative to max U
CRITICAL_RADIUS_TOL = 1e-3  # |mu_bar - |x||, x = 0.5 e1
ORACLE_TOL = {"conformal_power": 1e-13, "rhs_closed_form": 1e-12}


def process_errors(rc, report) -> list:
    """A job process must exit 0 and leave its report."""
    if rc != 0:
        return [f"exit code {rc}"]
    if report is None:
        return ["no report written"]
    return []


def cf_errors(c_f: float, cf_analytic: float) -> list:
    if not abs(c_f - cf_analytic) <= CF_REL_TOL * abs(cf_analytic):
        return [f"c_f {c_f!r} misses the analytic {cf_analytic!r}"]
    return []


def bubble_errors(summary: dict, cf_analytic: float) -> list:
    return cf_errors(summary["c_f"], cf_analytic)


def hls_errors(summary: dict) -> list:
    gap = abs(summary["ratio"] - 1.0)
    if not gap <= HLS_RATIO_TOL:
        return [f"|ratio - 1| = {gap:.3e} > {HLS_RATIO_TOL:.0e}"]
    return []


def branch_errors(out: dict) -> list:
    errs = []
    for d in out["delaunay"]:
        tag = f"delaunay[{d['nodes']}]"
        if not (d["converged"] and d["nontrivial"]):
            errs.append(f"{tag}: converged={d['converged']} nontrivial={d['nontrivial']}")
        if not d["residual_norm"] <= BRANCH_RESIDUAL_TOL:
            errs.append(f"{tag}: residual {d['residual_norm']:.3e}")
        if not d["evenness"] <= BRANCH_EVEN_TOL:
            errs.append(f"{tag}: not even about the neck ({d['evenness']:.3e})")
    if not abs(out["critical_radius"] - 0.5) <= CRITICAL_RADIUS_TOL:
        errs.append(f"critical radius {out['critical_radius']!r}, want 0.5")
    if out["fit_note"] != "bubble":
        errs.append(f"equality fit note {out['fit_note']!r}")
    if out["profile_fit_rejected"]:
        errs.append("cylinder_bubble profile fit rejected")
    return errs


def oracle_errors(oracle: dict) -> list:
    return [f"oracle {name}: {oracle[name]:.3e} > {tol:.0e}"
            for name, tol in ORACLE_TOL.items()
            if name in oracle and not oracle[name] <= tol]


def artifact_digests(out_dir) -> dict:
    """{file name: sha256} of a run's artifacts; config.json without `out`."""
    digests = {}
    for path in sorted(Path(out_dir).iterdir()):
        blob = path.read_bytes()
        if path.name == "config.json":
            doc = json.loads(blob)
            doc.pop("out", None)
            blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        digests[path.name] = hashlib.sha256(blob).hexdigest()
    return digests


def reproducibility_errors(digests: dict, reference: dict) -> list:
    if digests == reference:
        return []
    names = sorted(set(digests) | set(reference))
    return ["artifact differs from the first repetition: "
            + ", ".join(n for n in names if digests.get(n) != reference.get(n))]
