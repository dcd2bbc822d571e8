import numpy as np
import pytest

from vngrid import models, reference_full_eig
from vngrid.reduced_space import ProductBasis


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
def he_dense(he_model):
    return reference_full_eig(he_model.spec, 4)


@pytest.fixture
def non_pd_updates(monkeypatch):
    """Reduced overlaps after the first are made indefinite (one negative
    eigenvalue), which a Gram matrix never is: each update must reject it."""
    real = ProductBasis.overlap
    seen = []

    def overlap(self, rows, cols):
        out = real(self, rows, cols)
        if rows is cols:
            seen.append(rows)
            if len(seen) > 1:
                out[0, :] = out[:, 0] = 0.0
                out[0, 0] = -1.0
        return out

    monkeypatch.setattr(ProductBasis, "overlap", overlap)


@pytest.fixture
def ill_conditioned_overlaps(monkeypatch):
    """Reduced overlaps of two or more cells keep their eigenvectors, but the
    smallest eigenvalue is set to 1e-13 of the largest: still positive
    definite, with a condition number near 1e13, beyond the 1e12 limit."""
    real = ProductBasis.overlap

    def overlap(self, rows, cols):
        out = real(self, rows, cols)
        if rows is cols and len(rows) > 1:
            w, u = np.linalg.eigh(out)
            w[0] = 1e-13 * w[-1]
            out = (u * w) @ u.conj().T
            out = 0.5 * (out + out.conj().T)
        return out

    monkeypatch.setattr(ProductBasis, "overlap", overlap)
