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

# the same operator's sigma_16, sigma_32 and sigma_64 and its Schatten
# norms S1, S1.5 and S3, from the continuant by the same route.  sigma_32
# and sigma_64 are ARPACK's at N = 32768; they moved by 4.3e-11 and 3.8e-10
# from N = 16384, falling about 9 times per doubling (N^(-2 sigma)), so
# their truncation error is below 1e-10.  S1 and S1.5 sum every value:
# all singular values of the tridiagonal A_N - lam, as the eigenvalues of
# its Golub-Kahan augmented matrix (banded, scipy's eig_banded), with the
# leading 200 replaced by ARPACK's.  S1 reads 5.33925, 5.36546, 5.37994,
# 5.38787, 5.39218, 5.39450 and 5.39574 at N = 256 to 16384, each step
# 1.81 to 1.86 times the next, so its limit lies in [5.39699, 5.39719] if
# that ratio stays below 2: truncation error 1e-4.  S1.5 reads 2.198246,
# 2.198250 and 2.1982514 at N = 4096 to 16384, steps shrinking 2.8 times:
# 2.198252, error 1e-6.  sigma_16 and S3 take ARPACK's leading 120 at
# N = 8192 (the rest as for S1): sigma_16 moved by 3.6e-10 from N = 4096,
# so its error is below 1e-10, and S3 by 2.7e-12
FOURIER_SIGMA_16 = 0.0486745073
FOURIER_SIGMA_32 = 0.01425611179
FOURIER_SIGMA_64 = 0.0038896174
FOURIER_S1 = 5.3971
FOURIER_S1_5 = 2.198252
FOURIER_S3 = 1.23218512256


@pytest.fixture(scope="session")
def reference_eigs():
    return REFERENCE_POSITIVE_EIGS


@pytest.fixture(scope="session")
def fourier_eigs():
    return FOURIER_POSITIVE_EIGS


@pytest.fixture(scope="session")
def fourier_singular():
    return FOURIER_SINGULAR_VALUES, FOURIER_S2


@pytest.fixture(scope="session")
def fourier_schatten():
    # sigma_k by k, and S_p by p
    sigmas = {8: FOURIER_SINGULAR_VALUES[7], 16: FOURIER_SIGMA_16, 32: FOURIER_SIGMA_32,
              64: FOURIER_SIGMA_64}
    return sigmas, {1.0: FOURIER_S1, 1.5: FOURIER_S1_5, 3.0: FOURIER_S3}
