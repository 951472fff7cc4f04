from g2crystal.cartan import (
    CARTAN_MATRIX, ClassicalWeight, dominant_weights,
    from_classical_pair, simple_root,
)


def test_matrix_rows():
    assert CARTAN_MATRIX == ((2, -1, 0), (-1, 2, -1), (0, -3, 2))
    assert CARTAN_MATRIX[1][1] == 2
    assert CARTAN_MATRIX[2][1] == -3
    assert CARTAN_MATRIX[0][2] == 0


def test_alpha0_alpha2_orthogonal():
    # the (0,2) and (2,0) entries vanish together with the symmetrized form
    assert CARTAN_MATRIX[0][2] == 0 and CARTAN_MATRIX[2][0] == 0


def test_dominant_weights_counts():
    assert dominant_weights(0) == {ClassicalWeight(0, 0, 0)}
    assert dominant_weights(1) == {ClassicalWeight(1, 0, 0), ClassicalWeight(0, 0, 1)}
    assert len(dominant_weights(4)) == 9
    for l in range(13):
        expect = sum(l - 2 * m1 + 1 for m1 in range(l // 2 + 1))
        assert len(dominant_weights(l)) == expect


def test_simple_root_columns():
    # subtracting a classical simple root shifts by minus the matrix column
    for j in range(3):
        col = simple_root(j)
        assert (col.m0, col.m1, col.m2) == tuple(CARTAN_MATRIX[i][j] for i in range(3))


def test_classical_pair_lift_is_level_zero():
    w = from_classical_pair(3, -2)
    assert w.m0 + 2 * w.m1 + w.m2 == 0 and (w.m1, w.m2) == (3, -2)


def test_weight_json():
    # the commands write a weight as its _asdict()
    assert ClassicalWeight(1, 2, 3)._asdict() == {"m0": 1, "m1": 2, "m2": 3}


def test_weight_is_its_field_tuple():
    t = (2, -1, 3)
    w = ClassicalWeight(*t)
    assert hash(w) == hash(t)
    assert repr(w) == "ClassicalWeight(m0=2, m1=-1, m2=3)"
    assert not hasattr(w, "__dict__")
    fields = [(1, 0, 0), (0, 2, -1), (0, 1, 5), (-1, 0, 0), (0, 1, -5)]
    assert [tuple(x) for x in sorted(ClassicalWeight(*f) for f in fields)] == sorted(fields)


def test_weight_arithmetic_returns_weights():
    a, b = ClassicalWeight(2, -1, 3), ClassicalWeight(-1, 4, 0)
    for got, want in ((a + b, (1, 3, 3)), (a - b, (3, -5, 3)), (-a, (-2, 1, -3))):
        assert type(got) is ClassicalWeight and tuple(got) == want
