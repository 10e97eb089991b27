"""Holomorphic quadratic differentials Q dz^2 with polynomial coefficient."""

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain

UNIT_DISK = "unit-disk"
PLANE = "plane"


@dataclass(frozen=True)
class QDiff:
    """A quadratic differential Q dz^2 with polynomial Q, on the disk or plane.

    Coefficients are stored lowest degree first.
    """

    coeffs: tuple = (0j,)
    domain: str = UNIT_DISK

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not coeffs:
            coeffs = (0j,)
        # strip trailing zero coefficients (keep at least one)
        d = len(coeffs)
        while d > 1 and coeffs[d - 1] == 0:
            d -= 1
        coeffs = coeffs[:d]
        object.__setattr__(self, "coeffs", coeffs)
        if self.domain not in (UNIT_DISK, PLANE):
            raise ValueError(f"unknown domain {self.domain!r}")

    @classmethod
    def zero(cls, domain=UNIT_DISK):
        return cls((0j,), domain)

    @classmethod
    def constant(cls, c, domain=UNIT_DISK):
        return cls((complex(c),), domain)

    def _check_domain(self, z):
        if self.domain == UNIT_DISK and np.any(np.abs(z) >= 1.0):
            raise OutOfDomain(
                f"|z| = {np.max(np.abs(z)):.6g} outside the open unit disk"
            )


def eval_q(q, z):
    """Evaluate Q at z (scalar or array)."""
    z = np.asarray(z, dtype=complex)
    q._check_domain(z)
    out = np.polynomial.polynomial.polyval(z, np.asarray(q.coeffs))
    return out if out.shape else complex(out)


def poincare_sup(q, grid):
    """max over grid nodes of |Q(z)| (1-|z|^2)^2 / 4 (Poincare-metric sup norm)."""
    if q.domain != UNIT_DISK:
        raise OutOfDomain("poincare_sup requires a unit-disk differential")
    z = grid.zmesh
    q._check_domain(z)
    vals = np.abs(eval_q(q, z)) * (1.0 - np.abs(z) ** 2) ** 2 / 4.0
    return float(np.max(vals))
