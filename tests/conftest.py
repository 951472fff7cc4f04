import pytest

from g2crystal import affine, rmatrix


@pytest.fixture
def fresh_caches():
    """Empty the per-level caches around a test that poisons a construction."""
    def clear():
        for cached in (affine.model, affine.bl_crystal):
            cached.cache_clear()

    clear()
    yield
    clear()


@pytest.fixture
def fresh_fusion_values():
    """Empty the cached fusion values around a test that poisons the q-suite."""
    rmatrix.fusion_values.cache_clear()
    yield
    rmatrix.fusion_values.cache_clear()
