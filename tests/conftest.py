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


@pytest.fixture
def inverse_drift(monkeypatch):
    """``inverse_drift(k, eps)`` breaks the maintained inverse after the
    ``k``-th update of a staged basis (the propagator's updates).

    A Hermitian defect ``D`` of relative size ``eps`` (max entry against
    ``Stilde``'s) is added to ``Stilde`` and ``D @ H`` to each of
    ``rb.generators``, ``G = Stilde @ H``, in place, as a drifted block
    update would leave them.  The update reads only the added rows of
    ``H``, so ``H`` is read back as ``S @ G``, with the overlap ``S``
    assembled from the product basis (a staged basis holds none).  The
    returned list counts those updates.
    """
    from vngrid.reduced_space import ReducedBasis

    update = ReducedBasis.update

    def arm(k, eps):
        updates = []

        def drifting_update(self, change, rows=()):
            out = update(self, change, rows)
            if rows:
                updates.append(change)
                if len(updates) == k:
                    rng = np.random.default_rng(k)
                    r = rng.normal(size=(self.n, self.n, 2)) @ [1.0, 1j]
                    d = r + r.conj().T
                    d *= eps * np.abs(self.Stilde).max() / np.abs(d).max()
                    self.Stilde[...] += d
                    s = self.product.overlap(self.cells, self.cells)
                    for g in self.generators:
                        g += d @ (s @ g)
            return out

        monkeypatch.setattr(ReducedBasis, "update", drifting_update)
        return updates

    return arm
