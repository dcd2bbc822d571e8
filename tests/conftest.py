import numpy as np
import pytest
import scipy.linalg

from vngrid import models, reduced_space, reference_full_eig
from vngrid.hamiltonian import dense_grid_hamiltonian


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def dw_model():
    return models.double_well()


@pytest.fixture(scope="session")
def dw_dense(dw_model):
    return reference_full_eig(dw_model.spec)


@pytest.fixture(scope="session")
def ho_model():
    return models.harmonic()


@pytest.fixture(scope="session")
def he_model():
    return models.helium_1d()


@pytest.fixture(scope="session")
def he_eigh(he_model):
    """Eigenpairs ``(w, v)`` of the dense 3600-point helium Hamiltonian, which
    is real symmetric: one divide-and-conquer ``eigh`` serves the session."""
    h = dense_grid_hamiltonian(he_model.spec)
    assert not h.imag.any()
    return scipy.linalg.eigh(h.real, driver="evd", overwrite_a=True)


@pytest.fixture(scope="session")
def he_dense(he_eigh):
    return he_eigh[0][:4]


@pytest.fixture
def non_pd_updates(monkeypatch):
    """Reduced overlaps factored after the first (the creation's) are made
    indefinite in place (one negative eigenvalue), which a Gram matrix never
    is: each update must reject the overlap it carried."""
    real = reduced_space._cholesky
    seen = []

    def cholesky(sinv):
        seen.append(len(sinv))
        if len(seen) > 1:
            sinv[0, :] = sinv[:, 0] = 0.0
            sinv[0, 0] = -1.0
        return real(sinv)

    monkeypatch.setattr(reduced_space, "_cholesky", cholesky)


@pytest.fixture
def ill_conditioned_overlaps(monkeypatch):
    """Reduced overlaps of two or more cells, created or carried, keep their
    eigenvectors, but before they are factored the smallest eigenvalue is set
    in place to 1e-13 of the largest: still positive definite, with a
    condition number near 1e13, beyond the 1e12 limit."""
    real = reduced_space._cholesky

    def cholesky(sinv):
        if len(sinv) > 1:
            w, u = np.linalg.eigh(sinv)
            w[0] = 1e-13 * w[-1]
            out = (u * w) @ u.conj().T
            sinv[...] = 0.5 * (out + out.conj().T)
        return real(sinv)

    monkeypatch.setattr(reduced_space, "_cholesky", cholesky)
