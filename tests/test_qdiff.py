import numpy as np
import pytest

from cgcsurf.errors import OutOfDomain
from cgcsurf.grid import Grid
from cgcsurf.qdiff import PLANE, QDiff, eval_q, poincare_sup


def test_trailing_zeros_stripped():
    q = QDiff((1.0 + 0j, 0j, 0j))
    assert q.coeffs == (1.0 + 0j,)
    assert QDiff((0j, 0j)).coeffs == QDiff.zero().coeffs == (0j,)


def test_eval_polynomial():
    q = QDiff((1.0 + 0j, 2.0 + 0j, 3.0 + 0j), PLANE)
    z = 0.5 + 0.25j
    assert eval_q(q, z) == pytest.approx(1.0 + 2.0 * z + 3.0 * z**2)


def test_disk_domain_enforced():
    q = QDiff((1.0 + 0j,))
    with pytest.raises(OutOfDomain):
        eval_q(q, 1.0 + 0j)
    # same coefficient on the plane is fine
    assert eval_q(QDiff((1.0 + 0j,), PLANE), 5.0) == 1.0 + 0j


def test_unknown_domain_rejected():
    with pytest.raises(ValueError):
        QDiff((0j,), "torus")


def test_poincare_sup_frozen():
    grid = Grid.centered_square(0.5, 33)
    val = poincare_sup(QDiff((0j, 0.1 + 0j)), grid)
    assert val == pytest.approx(0.007155415396559469, abs=1e-15)


def test_poincare_sup_requires_disk():
    grid = Grid.centered_square(0.5, 33)
    with pytest.raises(OutOfDomain):
        poincare_sup(QDiff((1.0 + 0j,), PLANE), grid)
