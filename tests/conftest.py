import numpy as np
import pytest

import perspec as ps


@pytest.fixture(scope="session")
def sine_model():
    return ps.OperatorModel(profile=ps.sine_profile(), epsilon=1.0)


@pytest.fixture(scope="session")
def tent_model():
    return ps.OperatorModel(profile=ps.piecewise_linear_profile(), epsilon=1.0)


@pytest.fixture(scope="session")
def kernel_256(sine_model):
    return ps.assemble_kernel(sine_model, 1j, 256)


@pytest.fixture(scope="session")
def kernel_512(sine_model):
    return ps.assemble_kernel(sine_model, 1j, 512)


@pytest.fixture(scope="session")
def scan_8(sine_model):
    return ps.scan_and_refine(sine_model, 8.0, 0.05)


# refined from an independently coded scipy-based shooting run (RK45 +
# two-term endpoint fit); agreement below 1e-5 cross-validates the stack
REFERENCE_POSITIVE_EIGS = np.array([1.239839, 3.328857, 6.331584])

# the same roots from the Fourier continuant: for f = (2/pi) sin x the
# operator is tridiagonal in the basis e^(imx), and its m < 0 block, whose
# determinant is a three-term continuant, holds the positive eigenvalues;
# bisection at eps 1 with modes |m| <= N = 64000 (the truncation error falls
# like N^(-2 sigma), sigma = pi / (2 eps))
FOURIER_POSITIVE_EIGS = np.array([1.2398388223787, 3.3288573861963, 6.3315838441220])

# the first 10 singular values and the Hilbert-Schmidt norm S2 of the sine
# operator's resolvent at eps 1, lam = i, from the same continuant: the
# truncation A_N to the modes |m| <= N is tridiagonal, so (A_N - lam)^(-1)
# is applied by banded LU solves.  The values are the top 10 of a Lanczos
# SVD (ARPACK, tolerance 0) at N = 16384; N = 8192 agrees to 4e-13 relative.
# S2^2 is the sum of |entries|^2 of (A_N - lam)^(-1), solved a block of unit
# columns at a time; S2 rose by 2.8e-7, 6.9e-8, 1.7e-8, 4.3e-9 at N = 2048,
# 4096, 8192, 16384, a clean N^(-2), and is Richardson-extrapolated in it
FOURIER_SINGULAR_VALUES = np.array([1.0, 0.713530532797, 0.713530532797, 0.380833582147,
                                    0.380833582147, 0.225399380450, 0.225399380450,
                                    0.148537106038, 0.148537106038, 0.105318028044])
FOURIER_S2 = 1.5853926889


@pytest.fixture(scope="session")
def reference_eigs():
    return REFERENCE_POSITIVE_EIGS


@pytest.fixture(scope="session")
def fourier_eigs():
    return FOURIER_POSITIVE_EIGS


@pytest.fixture(scope="session")
def fourier_singular():
    return FOURIER_SINGULAR_VALUES, FOURIER_S2
