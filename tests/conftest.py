import pytest

from g2crystal import affine, rmatrix


@pytest.fixture
def fresh_caches():
    """Empty the per-level caches around a test that poisons a construction."""
    affine.clear_level_caches()
    yield
    affine.clear_level_caches()


@pytest.fixture
def fresh_fusion_values():
    """Empty the cached fusion values around a test that poisons the q-suite."""
    rmatrix.fusion_values.cache_clear()
    yield
    rmatrix.fusion_values.cache_clear()
