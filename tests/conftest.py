import pytest

from smartbag import nn
from smartbag.dataset import default_profiles, generate
from smartbag.store import Store, StoreUnavailable


class FlakyStore(Store):
    """A real Store whose client methods raise StoreUnavailable while
    `down` is set, as HttpStoreClient does when the server is unreachable."""

    down = False

    def _check(self):
        if self.down:
            raise StoreUnavailable("store down")

    def patch(self, path, doc):
        self._check()
        return super().patch(path, doc)

    def get(self, path):
        self._check()
        return super().get(path)

    def post(self, path, doc):
        self._check()
        return super().post(path, doc)

    def get_history(self, path, since=None, limit=None):
        self._check()
        return super().get_history(path, since=since, limit=limit)


@pytest.fixture
def flaky_store():
    return FlakyStore()


@pytest.fixture(scope="session")
def trained_model_blob():
    """One cheap trained model shared by the service-level tests."""
    data = generate(default_profiles(), 600, seed=0)
    spec = nn.ModelSpec()
    model, _ = nn.train(data, spec, nn.Hyperparams(epochs=10, seed=0))
    return nn.export_model(model, spec, data.classes)


@pytest.fixture(scope="session")
def model_file(tmp_path_factory, trained_model_blob):
    path = tmp_path_factory.mktemp("model") / "model.bagm"
    path.write_bytes(trained_model_blob)
    return str(path)
