import numpy as np
import pytest

from reliopt.data import Dataset


@pytest.fixture
def six_point_dataset() -> Dataset:
    """Symmetric 1-D dataset whose MLE has a zero intercept and slope ln 2."""
    x = np.array([[-1.0], [-1.0], [-1.0], [1.0], [1.0], [1.0]])
    y = np.array([0, 0, 1, 0, 1, 1])
    return Dataset(features=x, labels=y, feature_names=("x1",))


def write_csv(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def duplicated_large_column_dataset() -> Dataset:
    """40 x 3 ratios whose last two columns are the same 1e6-scale ratio.

    The curvature is singular, so the fit needs the fallback ridge. An
    absolute ridge, small next to a curvature of 1e12-scale entries, let the
    first Newton step through and failed at a later one; the ridge relative
    to the curvature's mean diagonal fits it like its rescaled twin.
    """
    rng = np.random.default_rng(2)
    small = rng.uniform(0.0, 1.0, (40, 2))[:, 0]
    large = 1e6 * rng.uniform(0.0, 1.0, 40)
    labels = rng.integers(0, 2, 40)
    features = np.column_stack([small, large, large])
    return Dataset(features=features, labels=labels, feature_names=("a", "b", "c"))
