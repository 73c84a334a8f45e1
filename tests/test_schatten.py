import numpy as np
import pytest

from perspec.errors import ValidationError
from perspec.schatten import SingularValueSpectrum, eigen_schatten_inequality


def _spectrum(values):
    return SingularValueSpectrum(lam=1j, grid_size=64, values=np.asarray(values),
                                 schatten_norms={})


class TestEigenSchattenInequality:
    def test_passes_when_eigenvalues_are_far(self):
        rep = eigen_schatten_inequality(np.array([-2.0, 0.0, 2.0]),
                                        _spectrum([1.0, 0.5, 0.25]), 3j, 2.0)
        assert rep.left == pytest.approx(1.0 / 9.0 + 2.0 / 13.0)
        assert rep.right == pytest.approx(1.3125)
        assert rep.passed and rep.slack >= 0.0
        assert rep.eigenvalues_used == 3

    def test_fails_when_an_eigenvalue_is_close(self):
        rep = eigen_schatten_inequality([0.0, 0.3], _spectrum([1.0, 0.5]), 0.3 + 0.1j, 2.0)
        assert rep.left > 100.0
        assert not rep.passed and rep.slack < 0.0

    def test_guard_is_relative_to_the_right_side(self):
        spec = _spectrum([1.0])
        # left = |2i|^-2 = 0.25 against right = 1 scaled by the guard
        assert eigen_schatten_inequality([0.0], spec, 2j, 2.0, guard=-0.75).passed
        assert not eigen_schatten_inequality([0.0], spec, 2j, 2.0, guard=-0.76).passed

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_needs_p_above_one(self, p):
        with pytest.raises(ValidationError):
            eigen_schatten_inequality([0.0], _spectrum([1.0]), 1j, p)
