import numpy as np
import pytest
import scipy.linalg

from vngrid import models, reference_full_eig
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
