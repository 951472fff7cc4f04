import pytest

from g2crystal import affine, g2, rmatrix


@pytest.fixture
def fresh_caches():
    """Empty the per-level caches around a test that poisons a construction."""
    affine.clear_level_caches()
    yield
    affine.clear_level_caches()


@pytest.fixture
def fresh_enumeration():
    """Empty the enumeration's caches around a test that counts or poisons it."""
    for cached in (g2._grown, g2._extensions):
        cached.cache_clear()
    yield
    for cached in (g2._grown, g2._extensions):
        cached.cache_clear()


@pytest.fixture
def second_constraint_without_0_1(monkeypatch, fresh_enumeration):
    """A mis-transcribed counting constraint: the second one without 0_1, so
    [3, 0_1] and [4, 0_1] pass and length 2 has 79 words, not 77."""
    groups = tuple((3, 4, 5) if g == (3, 4, 5, 7) else g for g in g2._AT_MOST_ONE)
    assert groups != g2._AT_MOST_ONE
    monkeypatch.setattr(g2, "_AT_MOST_ONE", groups)


@pytest.fixture
def fresh_fusion_values():
    """Empty the cached fusion values around a test that poisons the q-suite."""
    rmatrix.fusion_values.cache_clear()
    yield
    rmatrix.fusion_values.cache_clear()
