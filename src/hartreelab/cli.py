"""Command-line front end: every module behind one `hartreelab` entry point.

Seven subcommands (constants, bubble-check, kernel, delaunay,
moving-spheres, asymptotics, hls-check), each driven by a flat config that
resolves in three layers: schema defaults, then a JSON config file, then
explicit flags, with flags winning.  Flags are read straight from the schema
table as ``--flag value`` or ``--flag=value``, bools bare, never abbreviated;
``--help`` lists the commands, or one command's flags.  A run with --out
records its resolved config next to its artifacts, every artifact embeds the
config hash, and re-running from a recorded config reproduces the artifacts
byte for byte; all randomness flows from the single `seed` through
counter-based Philox streams.

Exit codes: 0 success (and --help), 2 a config or flag error, 4 a
ConvergenceError, 3 every other HartreelabError: a missed accuracy tolerance
or a refused input (UnsupportedDimensionError, ParameterRangeError, ...).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import artifacts, riesz
from .constants import k_identity_defect, omega, sharp_constants
from .errors import AccuracyError, ConvergenceError, HartreelabError
from .fields import Field, _row_norm, make_bubble, make_singular_power
from .params import ProblemParams


class ConfigError(Exception):
    """A config file or flag set that fails its command's schema."""


# ============================================================
# schemas
# ============================================================


@dataclass(frozen=True)
class _Opt:
    default: object
    kind: type        # int, float, str, bool
    help: str


def _common(**extra):
    base = {
        "n": _Opt(3, int, "space dimension"),
        "alpha": _Opt(2.0, float, "order of the convolution kernel, 0 < alpha < n"),
        "out": _Opt("", str, "output directory for artifacts (none when empty)"),
    }
    base.update(extra)
    return base


SCHEMAS = {
    "constants": _common(),
    "bubble-check": _common(
        window_lo=_Opt(0.05, float, "residual window, inner radius"),
        window_hi=_Opt(20.0, float, "residual window, outer radius"),
        per_decade=_Opt(96, int, "radial grid resolution"),
        tolerance=_Opt(1e-8, float, "relative residual required of both forms and c_f"),
        plot=_Opt(False, bool, "write an SVG of the residual profiles"),
    ),
    "kernel": _common(
        t_max=_Opt(10.0, float, "half-width of the tabulated t range"),
        points=_Opt(201, int, "rows in the kernel table artifact"),
        pairs=_Opt(100, int, "random (r, s) pairs for the identity check"),
        seed=_Opt(20240817, int, "Philox stream for the identity pairs"),
        tolerance=_Opt(1e-8, float, "max allowed identity mismatch"),
        plot=_Opt(False, bool, "write an SVG of the kernel"),
    ),
    "delaunay": _common(
        period=_Opt(0.0, float, "explicit period L (0 means period_factor * L_0)"),
        period_factor=_Opt(1.05, float, "period as a multiple of the bifurcation L_0"),
        epsilon_factor=_Opt(0.5, float, "neck target as a multiple of U_c"),
        steps=_Opt(30, int, "maximum continuation steps along the branch"),
        nodes=_Opt(512, int, "collocation points per period (even, <= 2048)"),
        plot=_Opt(False, bool, "write an SVG of the orbit"),
    ),
    "moving-spheres": _common(
        field=_Opt("singular", str,
                   "test field: singular | bubble | constant | perturbed_bubble"),
        field_mu=_Opt(1.0, float, "bubble shape parameter (field=bubble, perturbed_bubble)"),
        field_center=_Opt(0.0, float, "center offset along e_1 (field=bubble, perturbed_bubble)"),
        field_value=_Opt(1.0, float, "constant value (field=constant)"),
        x_offset=_Opt(0.5, float, "inversion center x = x_offset * e_1"),
        mu=_Opt(0.4, float, "sphere radius for the single deficit report"),
        mu_hi=_Opt(8.0, float, "bisection ceiling for the critical radius"),
        xtol=_Opt(1e-4, float, "bisection width"),
        seed=_Opt(20240817, int, "Philox stream for test sets and fit clouds"),
    ),
    "asymptotics": _common(
        field=_Opt("bubble", str,
                   "test field: bubble | singular | perturbed_bubble | constant (value 1)"),
        field_mu=_Opt(1.0, float, "bubble shape parameter (field=bubble, perturbed_bubble)"),
        field_center=_Opt(0.0, float, "center offset along e_1 (field=bubble, perturbed_bubble)"),
        r_min=_Opt(1e-3, float, "smallest probe radius, at least r_max * 1e-4"),
        r_max=_Opt(2.0, float, "largest probe radius"),
        plot=_Opt(False, bool, "write an SVG of the scans"),
    ),
    "hls-check": _common(
        mu=_Opt(1.0, float, "extremal scale"),
        per_decade=_Opt(96, int, "radial grid resolution"),
        tolerance=_Opt(1e-3, float, "allowed |ratio - 1| at the extremal"),
    ),
}

# keys that do not change computed numbers and stay out of the config hash
_NON_SEMANTIC = ("out", "plot")

# the least value of each count or seed key, in every command that has it
_INT_FLOORS = {"points": 0, "pairs": 1, "seed": 0}


# ============================================================
# config resolution
# ============================================================


def _coerce(command: str, key: str, value, kind: type):
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{command}.{key}: expected a boolean, got {value!r}")
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{command}.{key}: expected an integer, got {value!r}")
        if value < _INT_FLOORS.get(key, value):
            raise ConfigError(
                f"{command}.{key}: expected an integer >= {_INT_FLOORS[key]}, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{command}.{key}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:   # NaN, +-inf, an int past the floats
            raise ConfigError(f"{command}.{key}: expected a finite number, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"{command}.{key}: expected a string, got {value!r}")
    return value


def resolve_config(command: str, config_path: Optional[str], overrides: dict) -> dict:
    """Defaults, then the config file, then flags; unknown keys are errors."""
    schema = SCHEMAS[command]
    cfg = {k: opt.default for k, opt in schema.items()}
    if config_path:
        try:
            body = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise ConfigError("config file must hold a JSON object")
        recorded = body.pop("command", command)
        if recorded != command:
            raise ConfigError(
                f"command: config file records {recorded!r}, invoked as {command!r}")
        body.pop("config_hash", None)   # recorded configs carry their own hash
        for key, value in body.items():
            if key not in schema:
                raise ConfigError(f"{command}.{key}: unknown config key")
            cfg[key] = _coerce(command, key, value, schema[key].kind)
    for key, value in overrides.items():
        cfg[key] = _coerce(command, key, value, schema[key].kind)
    return cfg


def _params(cfg: dict) -> ProblemParams:
    try:
        return ProblemParams(cfg["n"], cfg["alpha"])
    except HartreelabError as exc:
        raise ConfigError(f"params: {exc}")


def _hash(command: str, cfg: dict) -> str:
    doc = {"command": command}
    doc.update({k: v for k, v in cfg.items() if k not in _NON_SEMANTIC})
    return artifacts.config_hash(doc)


class _Emitter:
    """One run's artifacts (config stamp, JSON, CSV, SVG), made once its computation is done."""

    def __init__(self, command: str, cfg: dict):
        self.command = command
        self.cfg = cfg
        self.hash = _hash(command, cfg)
        self.out = Path(cfg["out"]) if cfg["out"] else None
        self.written = []
        if self.out is not None:
            self.out.mkdir(parents=True, exist_ok=True)
            doc = {"command": command, "config_hash": self.hash}
            doc.update(cfg)
            self.json("config.json", doc, stamp=False)

    def json(self, name, doc, stamp=True):
        if self.out is None:
            return
        if stamp:
            doc = dict(doc)
            doc["config_hash"] = self.hash
        artifacts.write_json(self.out / name, doc)
        self.written.append(name)

    def csv(self, name, columns, header=()):
        if self.out is None:
            return
        artifacts.write_csv(self.out / name, columns,
                            [f"config_hash={self.hash}", *header])
        self.written.append(name)

    def svg(self, name, series, **kw):
        if self.out is None or not self.cfg.get("plot", False):
            return
        kw["title"] = f"{kw.get('title', self.command)}  [cfg {self.hash[:12]}]"
        artifacts.svg_plot(self.out / name, series, **kw)
        self.written.append(name)

    def summary(self, doc: dict) -> dict:
        full = {"command": self.command, "config_hash": self.hash}
        full.update(doc)
        if self.written:
            full["artifacts"] = sorted(self.written)
        return full


# ============================================================
# commands
# ============================================================


def _cmd_constants(cfg: dict) -> dict:
    params = _params(cfg)
    sc = sharp_constants(params)
    em = _Emitter("constants", cfg)
    doc = {
        "n": params.n,
        "alpha": params.alpha,
        "p": params.p,
        "nu": params.nu,
        "s_n": sc.s_n,
        "h_n": sc.h_n,
        "k_n": sc.k_n,
        "c_n": sc.c_n,
        "k_identity_defect": k_identity_defect(sc, params),
    }
    em.json("constants.json", doc)
    return em.summary(doc)


def _cmd_bubble_check(cfg: dict) -> dict:
    params = _params(cfg)
    window = (cfg["window_lo"], cfg["window_hi"])
    cal = riesz.calibrate_cf(params, window=window, per_decade=cfg["per_decade"])
    diff, integ, gap = riesz.residual(cal.bubble, cal.rhs, params, window, c_f=cal.c_f)
    cf_error = abs(cal.c_f / sharp_constants(params).c_f - 1.0)
    reports = {"differential": diff, "integral": integ}
    em = _Emitter("bubble-check", cfg)
    for form, rep in reports.items():
        em.csv(f"residual_{form}.csv",
               {"r": rep.residual.grid.r, "residual": rep.residual.values,
                "scale": rep.scale.values},
               [f"form={form}", f"rel_norm={artifacts.format_float(rep.rel_norm)}"])
    doc = {
        "n": params.n,
        "alpha": params.alpha,
        "c_f": cal.c_f,
        "c_f_fit_residual": cal.residual_norm,
        "c_f_analytic_error": cf_error,
        "window": list(window),
        "differential": diff.summary(),
        "integral": integ.summary(),
        "forms_gap": gap,
        "tolerance": cfg["tolerance"],
    }
    em.json("bubble_check.json", doc)
    em.svg("bubble_check.svg",
           [(form, rep.residual.grid.r, np.abs(rep.residual.values))
            for form, rep in reports.items()],
           xlabel="r", ylabel="|residual|", logx=True, logy=True)
    worst = max(diff.rel_norm, integ.rel_norm, gap, cf_error)
    if worst > cfg["tolerance"]:
        raise AccuracyError(
            f"bubble residual {worst:.3e} exceeds the required {cfg['tolerance']:.1e}",
            achieved=worst)
    return em.summary(doc)


def _cmd_kernel(cfg: dict) -> dict:
    from . import kernel
    params = _params(cfg)
    t = np.linspace(-cfg["t_max"], cfg["t_max"], cfg["points"])
    t = t[t != 0.0] if params.alpha <= 1.0 else t   # Khat(0) is infinite for alpha <= 1
    khat = kernel.kernel_hat(params, t)
    rng = np.random.Generator(np.random.Philox(cfg["seed"]))
    r = np.exp(rng.uniform(-3.0, 3.0, cfg["pairs"]))
    s = np.exp(rng.uniform(-3.0, 3.0, cfg["pairs"]))
    spec = riesz.AngularKernelSpec(params.n, params.alpha)
    lhs = (r * s) ** ((params.n - params.alpha) / 2.0) * kernel.angular_kernel(spec, r, s)
    rhs = kernel.kernel_hat(params, np.log(r / s))
    identity_err = float(np.max(np.abs(lhs / rhs - 1.0)))
    doc = {
        "n": params.n,
        "alpha": params.alpha,
        "t_max": cfg["t_max"],
        "identity_pairs": cfg["pairs"],
        "identity_max_error": identity_err,
        "decay_constant": omega(params.n - 1),
        "tolerance": cfg["tolerance"],
    }
    em = _Emitter("kernel", cfg)
    em.csv("kernel_hat.csv", {"t": t, "khat": khat})
    em.json("kernel_check.json", doc)
    em.svg("kernel_hat.svg", [("khat", t, khat)], xlabel="t", ylabel="Khat", logy=True)
    if identity_err > cfg["tolerance"]:
        raise AccuracyError(
            f"kernel identity mismatch {identity_err:.3e} exceeds {cfg['tolerance']:.1e}",
            achieved=identity_err)
    return em.summary(doc)


def _cmd_delaunay(cfg: dict) -> dict:
    from . import cylinder
    params = _params(cfg)
    nl = riesz.nonlinearity_for(params)
    u_c, l_0 = cylinder.dispersion_root(params, nl)
    period = cfg["period"] if cfg["period"] > 0.0 else cfg["period_factor"] * l_0
    sol = cylinder.find_delaunay(params, nl, cfg["epsilon_factor"] * u_c, period,
                                 cfg["steps"], n_nodes=cfg["nodes"])
    em = _Emitter("delaunay", cfg)
    doc = {"l_0": l_0, "u_c": u_c}
    doc.update(sol.summary())
    em.json("delaunay.json", doc)
    em.csv("delaunay_profile.csv", {"t": sol.profile.t, "U": sol.profile.values},
           [f"period={artifacts.format_float(sol.period)}",
            f"epsilon={artifacts.format_float(sol.epsilon)}",
            f"residual_norm={artifacts.format_float(sol.residual_norm)}"])
    em.svg("delaunay.svg", [("U", sol.profile.t, sol.profile.values)],
           xlabel="t", ylabel="U")
    if not sol.converged:
        low = float(sol.profile.values.min())
        raise ConvergenceError(f"no positive orbit: min U {low:.3e}" if low <= 0.0 else
                               f"no converged orbit: last residual {sol.residual_norm:.3e}")
    return em.summary(doc)


def _make_field(cfg: dict, params: ProblemParams) -> Field:
    """The test field cfg names, refusing a field flag off its default that it does not read."""
    kind, bubble_reads = cfg["field"], ("field_mu", "field_center")
    reads = {"bubble": bubble_reads, "perturbed_bubble": bubble_reads, "constant": ("field_value",)}
    for key in ("field_mu", "field_center", "field_value"):
        default = SCHEMAS["moving-spheres"][key].default
        if key not in reads.get(kind, ()) and cfg.get(key, default) != default:
            raise ConfigError(f"{key}: field={kind} does not read it")
    center = np.zeros(params.n)
    center[0] = cfg["field_center"]
    if kind == "singular":
        return make_singular_power(params)
    if kind == "bubble":
        return make_bubble(params, center=center, mu=cfg["field_mu"])
    if kind == "constant":
        return Field(n=params.n, fn=lambda pts, v=cfg.get("field_value", 1.0): np.full(len(pts), v))
    if kind == "perturbed_bubble":
        bub = make_bubble(params, center=center, mu=cfg["field_mu"])
        return Field(n=params.n, fn=lambda pts: (1.0 + _row_norm(pts)) * bub(pts))
    raise ConfigError(f"field: unknown kind {kind!r}")


def _cmd_moving_spheres(cfg: dict) -> dict:
    from . import spheres
    params = _params(cfg)
    u = _make_field(cfg, params)
    x = np.zeros(params.n)
    x[0] = cfg["x_offset"]
    spec = spheres.TestSetSpec(seed=cfg["seed"])
    mu_bar = spheres.critical_radius(u, x, spec, mu_hi=cfg["mu_hi"],
                                     xtol=cfg["xtol"], alpha=params.alpha)
    report = spheres.comparison_deficit(u, x, cfg["mu"], spec, alpha=params.alpha)
    fit_doc = None
    if cfg["field"] == "bubble":
        rng = np.random.Generator(np.random.Philox([cfg["seed"], 1]))
        cloud = u.center[None, :] + rng.normal(size=(400, params.n)) * 1.5
        fit = spheres.equality_fit(u, cloud)
        fit_doc = {
            "x0": [float(v) for v in fit.x0],
            "mu_bar": fit.mu_bar,
            "amplitude": fit.amplitude,
            "fit_error": fit.fit_error,
            "note": fit.note,
        }
    doc = {
        "n": params.n,
        "alpha": params.alpha,
        "field": cfg["field"],
        "x": [float(v) for v in x],
        "critical_radius": float(mu_bar),
        "critical_radius_note": mu_bar.note,
        "critical_radius_unbounded": mu_bar.unbounded,
        "deficit": report.summary(),
        "equality_fit": fit_doc,
    }
    em = _Emitter("moving-spheres", cfg)
    em.json("moving_spheres.json", doc)
    if not report.ok:
        columns = {f"y{i + 1}": col for i, col in enumerate(report.violations.T)}
        columns["deficit"] = report.violation_deficits
        em.csv("deficit_violations.csv", columns)
    return em.summary(doc)


def _cmd_asymptotics(cfg: dict) -> dict:
    from . import asymptotics
    params = _params(cfg)
    if cfg["r_min"] < cfg["r_max"] * asymptotics._REACH:
        raise ConfigError(f"r_min: below r_max * {asymptotics._REACH:g}, where the ladder stops")
    u = _make_field(cfg, params)
    radii = asymptotics.default_radii(cfg["r_min"], cfg["r_max"])
    rep = asymptotics.asymptotics_report(u, radii, params)   # the cylinder bubble, about 0
    doc = rep.summary()
    em = _Emitter("asymptotics", cfg)
    em.json("asymptotics.json", doc)
    em.csv("upper_bound_scan.csv", rep.upper.rows())
    em.csv("symmetry_ratio.csv", rep.symmetry.rows())
    em.svg("asymptotics.svg",
           [("scaled average", rep.upper.radii, rep.upper.s_values),
            ("oscillation", rep.symmetry.radii,
             np.maximum(rep.symmetry.ratios, 1e-17))],
           xlabel="r", ylabel="", logx=True, logy=True)
    return em.summary(doc)


def _cmd_hls_check(cfg: dict) -> dict:
    params = _params(cfg)
    check = riesz.hls_ratio(params, mu=cfg["mu"], per_decade=cfg["per_decade"])
    em = _Emitter("hls-check", cfg)
    doc = check.summary()
    doc.update(mu=cfg["mu"], tolerance=cfg["tolerance"])
    em.json("hls_check.json", doc)
    gap = abs(check.ratio - 1.0)
    if gap > cfg["tolerance"]:
        raise AccuracyError(
            f"extremal misses the sharp bound by {gap:.3e} (> {cfg['tolerance']:.1e})",
            achieved=gap)
    return em.summary(doc)


COMMANDS = {
    "constants": _cmd_constants,
    "bubble-check": _cmd_bubble_check,
    "kernel": _cmd_kernel,
    "delaunay": _cmd_delaunay,
    "moving-spheres": _cmd_moving_spheres,
    "asymptotics": _cmd_asymptotics,
    "hls-check": _cmd_hls_check,
}


# ============================================================
# entry point
# ============================================================


_USAGE = "usage: hartreelab <command> [--config FILE] [--flag value | --flag=value ...]"


def _help(command: Optional[str]) -> str:
    """The command list, or one command's flags with their help and defaults."""
    if command is None:
        return f"{_USAGE}\n\ncommands: {', '.join(SCHEMAS)}\n"
    lines = [_USAGE.replace("<command>", command), "",
             f"  {'--config FILE':26s}JSON config; flags override its values"]
    for key, opt in SCHEMAS[command].items():
        flag = "--" + key.replace("_", "-")
        flag += "" if opt.kind is bool else " " + opt.kind.__name__.upper()
        lines.append(f"  {flag:26s}{opt.help} (default {opt.default!r})")
    return "\n".join(lines) + "\n"


def _parse_flags(command: str, words: list) -> tuple:
    """``--flag value`` and ``--flag=value`` words to (config file, overrides)."""
    keys = {"--" + key.replace("_", "-"): key for key in ("config", *SCHEMAS[command])}
    config, overrides, words = None, {}, list(words)
    while words:
        word = words.pop(0)
        flag, eq, value = word.partition("=")
        if flag not in keys:
            raise ConfigError(f"{command}: unknown argument {word!r}")
        key = keys[flag]
        kind = str if key == "config" else SCHEMAS[command][key].kind
        if kind is bool:
            if eq:
                raise ConfigError(f"{command}: {flag} takes no value, got {word!r}")
            value = True
        else:
            if not eq:
                if not words:
                    raise ConfigError(f"{command}: {flag} needs a value")
                value = words.pop(0)
            try:
                value = kind(value)
            except ValueError:
                raise ConfigError(f"{command}: {flag} expects {kind.__name__}, got {value!r}")
        if key == "config":
            config = value
        else:
            overrides[key] = value
    return config, overrides


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in SCHEMAS else None
    if "-h" in argv or "--help" in argv:
        print(_help(command), end="")
        return 0
    if not argv:
        print(_USAGE, file=sys.stderr)
        return 2
    try:
        if command is None:
            raise ConfigError(f"unknown command {argv[0]!r}; one of {', '.join(SCHEMAS)}")
        summary = COMMANDS[command](resolve_config(command, *_parse_flags(command, argv[1:])))
    except (ConfigError, HartreelabError) as exc:
        print(artifacts.dumps_json({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr, end="")
        return (2 if isinstance(exc, ConfigError) else
                4 if isinstance(exc, ConvergenceError) else 3)
    print(artifacts.dumps_json(summary), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
