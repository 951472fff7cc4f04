import pytest

from g2crystal import affine, g2, level1, qlaurent, rmatrix


@pytest.fixture
def fresh_caches():
    """Empty the per-level caches around a test that poisons a construction."""
    affine.clear_level_caches()
    yield
    affine.clear_level_caches()


@pytest.fixture
def fresh_enumeration():
    """Empty the enumeration's caches around a test that counts or poisons it;
    the functions cleared at set-up are those cleared at teardown, so a test
    may patch a plain function over them."""
    caches = (g2._grown, g2._extensions)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


@pytest.fixture
def second_constraint_without_0_1(monkeypatch, fresh_enumeration):
    """A mis-transcribed counting constraint: the second one without 0_1, so
    [3, 0_1] and [4, 0_1] pass and length 2 has 79 words, not 77."""
    groups = tuple((3, 4, 5) if g == (3, 4, 5, 7) else g for g in g2._AT_MOST_ONE)
    assert groups != g2._AT_MOST_ONE
    monkeypatch.setattr(g2, "_AT_MOST_ONE", groups)


@pytest.fixture
def drop_string(monkeypatch, fresh_caches):
    """A mis-transcribed string range: the returned function drops one
    f_0-string (i, k, j, p, q) from the model at every level, in place of
    any string it dropped before, and empties the level caches."""
    strings = affine._strings

    def drop(key):
        monkeypatch.setattr(affine, "_strings",
                            lambda blocks: ((s, t) for s, t in strings(blocks) if s != key))
        affine.clear_level_caches()
    return drop


def clear_qsuite_caches():
    """Empty every cache of the exact q-suite: each lru_cache of qlaurent,
    level1 and rmatrix, the twisted step tables among them, and the gcd memo."""
    for mod in (qlaurent, level1, rmatrix):
        for fn in vars(mod).values():
            if callable(getattr(fn, "cache_clear", None)) and fn.__module__ == mod.__name__:
                fn.cache_clear()
    qlaurent.clear_memo()


@pytest.fixture
def fresh_qsuite():
    """Run a test that counts or poisons the q-suite from empty caches; the
    test may call the returned function to empty them again."""
    clear_qsuite_caches()
    yield clear_qsuite_caches
    clear_qsuite_caches()
