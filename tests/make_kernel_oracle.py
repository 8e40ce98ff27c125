"""Regenerate the multi-precision oracle for the angular and cylinder kernels.

Run from the repository root:

    python tests/make_kernel_oracle.py

Writes ``tests/fixtures/kernel_oracle.json`` with, at 40 significant digits,

    k_beta(1, s) = omega(n-2) int_{-1}^{1} (1 - tau^2)^((n-3)/2)
                                (1 + s^2 - 2 s tau)^((beta-n)/2) dtau
    Khat(t)      = 2^((beta-n)/2) omega(n-2) int_{-1}^{1} (1 - tau^2)^((n-3)/2)
                                (cosh t - tau)^((beta-n)/2) dtau,   t = ln(1/s).

Both are taken at the exact binary values of s and t that the tests pass
in, because near the diagonal the kernel moves faster than a double's
last digit.  The tau-integral is done in v = 1 - tau with breakpoints
graded geometrically from the near-singularity at v = -d, so mpmath's
tanh-sinh rule resolves the s -> 1 cases; on the diagonal s = 1 (taken
for beta > 1 only) the variable x = v^((beta-1)/2) removes the endpoint
singularity v^((beta-3)/2).  The script checks itself
against the closed forms that exist (n = 3 for every beta, beta = 2 for
every n).  mpmath is needed only for this script, not by the package.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp

mp.mp.dps = 40

# (n, beta): seven families with a bounded diagonal, three of them just above
# beta = 1, where the diagonal is barely integrable, and five beta <= 1
# families whose diagonal diverges.  Every family is sampled off the
# diagonal; those with beta > 1 also on it (s = 1, t = 0).
PAIRS = [(3, 2.0), (4, 2.0), (4, 2.5), (5, 3.0), (3, 1.05), (4, 1.1), (5, 1.1),
         (3, 1.0), (3, 0.5), (5, 0.7), (3, 0.1), (5, 0.3)]
RADII = [1.0 + 1e-6, 1.001, 1.3, 5.0]   # s, with r = 1

OUT = Path(__file__).parent / "fixtures" / "kernel_oracle.json"


def sphere_measure(k: int) -> mp.mpf:
    """Surface measure of S^k embedded in R^(k+1)."""
    return 2 * mp.pi ** (mp.mpf(k + 1) / 2) / mp.gamma(mp.mpf(k + 1) / 2)


def core(n: int, beta: mp.mpf, d: mp.mpf) -> mp.mpf:
    """omega(n-2) int_0^2 (v (2 - v))^((n-3)/2) (d + v)^((beta-n)/2) dv, d >= 0."""
    a = mp.mpf(n - 3) / 2
    q = (beta - n) / 2
    if d == 0:
        # on the diagonal v^(a+q) is barely integrable for beta near 1 (tanh-sinh
        # alone misses it by 8% at beta = 1.05); x = v^(a+q+1) takes it out
        e = a + q + 1
        return sphere_measure(n - 2) * mp.quad(lambda x: (2 - x ** (1 / e)) ** a,
                                               [0, 2 ** e]) / e
    points = [mp.mpf(0)]
    step = d
    while step < 2:
        points.append(step)
        step *= 4
    points.append(mp.mpf(2))
    return sphere_measure(n - 2) * mp.quad(lambda v: (v * (2 - v)) ** a * (d + v) ** q,
                                           points)


def closed_form(n: int, beta: mp.mpf, r: mp.mpf, s: mp.mpf):
    """k_beta(r, s) where it is elementary, else None."""
    if beta == 2:
        return sphere_measure(n - 1) * max(r, s) ** (2 - n)
    if n == 3:
        if beta == 1:
            return 2 * mp.pi * mp.log((r + s) ** 2 / (r - s) ** 2) / (2 * r * s)
        e = beta - 1
        return 2 * mp.pi * ((r + s) ** e - abs(r - s) ** e) / (r * s * e)
    return None


def check(value: mp.mpf, exact, what: str) -> None:
    if exact is not None and abs(value / exact - 1) > mp.mpf(10) ** -30:
        raise SystemExit(f"quadrature misses the closed form for {what}")


def oracle_case(n: int, beta: float, s_float: float) -> dict:
    b = mp.mpf(beta)
    q = (b - n) / 2
    t_float = -math.log(s_float)
    s = mp.mpf(s_float)
    t = mp.mpf(t_float)
    k = (2 * s) ** q * core(n, b, (1 - s) ** 2 / (2 * s))
    khat = 2 ** q * core(n, b, 2 * mp.sinh(t / 2) ** 2)
    check(k, closed_form(n, b, mp.mpf(1), s), f"k at n={n}, beta={beta}, s={s_float!r}")
    # Khat(t) = (r s)^((n-beta)/2) k_beta(r, s) at r = e^t, s = 1
    exact = closed_form(n, b, mp.exp(t), mp.mpf(1))
    check(khat, None if exact is None else mp.exp(t * (n - b) / 2) * exact,
          f"Khat at n={n}, beta={beta}, t={t_float!r}")
    return {
        "n": n,
        "beta": beta,
        "s": repr(s_float),
        "t": repr(t_float),
        "k": mp.nstr(k, 32),
        "khat": mp.nstr(khat, 32),
    }


def main() -> None:
    payload = {
        "digits": mp.mp.dps,
        "cases": [oracle_case(n, beta, s) for n, beta in PAIRS
                  for s in ([1.0] if beta > 1.0 else []) + RADII],
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({len(payload['cases'])} cases at {mp.mp.dps} digits)")


if __name__ == "__main__":
    main()
