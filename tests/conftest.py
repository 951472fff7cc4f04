import pytest

from g2crystal import affine


@pytest.fixture
def fresh_caches():
    """Empty the per-level caches around a test that poisons a construction."""
    def clear():
        for cached in (affine.model, affine.bl_crystal):
            cached.cache_clear()

    clear()
    yield
    clear()
