"""Problem parameters for the critical Hartree equation.

The equation under study couples a Riesz potential of order alpha with a
pure power nonlinearity at the energy-critical exponent:

    -Lap u = (R_alpha * F(u)) f(u)   on R^n \\ {0},

with R_alpha(x) = |x|^(alpha - n), f(xi) = |xi|^(p-2) xi and
p = (n + alpha)/(n - 2).  Everything downstream is parameterised by the
pair (n, alpha), so it lives in one small frozen dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterDomainError

# every in-process cache is an lru_cache of this size on its builder
CACHE_SIZE = 64


@dataclass(frozen=True)
class ProblemParams:
    n: int          # ambient dimension, n >= 3
    alpha: float    # Riesz order, 0 < alpha < n

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ParameterDomainError(f"dimension must be an integer >= 3, got n={self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not (0.0 < float(self.alpha) < self.n):
            raise ParameterDomainError(
                f"Riesz order must satisfy 0 < alpha < n, got alpha={self.alpha} with n={self.n}")
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def p(self) -> float:
        """Critical exponent (n + alpha)/(n - 2)."""
        return (self.n + self.alpha) / (self.n - 2)

    @property
    def p_minus_1(self) -> float:
        """p - 1 = (2 + alpha)/(n - 2), the exponent seen by f."""
        return (2.0 + self.alpha) / (self.n - 2)

    @property
    def nu(self) -> float:
        """Decay rate (n - 2)/2 of the bubble and of the cylinder profile weight."""
        return (self.n - 2) / 2.0
