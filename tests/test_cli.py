import hashlib
import json

from g2crystal import g2, perfect, rmatrix
from g2crystal.affine import ConstructionFault
from g2crystal.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_dims(capsys):
    code, out = run_cli(["dims", "--max-level", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for l, total in ((0, 1), (1, 15), (2, 92), (3, 365), (4, 1113)):
        assert f"level {l}: total dimension {total}  A-model count matches: yes" in lines[l]


def test_graph_dot_level1(capsys):
    code, out = run_cli(["graph", "--level", "1", "--format", "dot"], capsys)
    assert code == 0
    assert out.count('";') == 15  # one declaration per vertex
    assert '"9" -> "1" [label=0];' in out
    assert '"-2" -> "6" [label=0];' in out
    assert '"6" -> "02" [label=1];' in out


def test_graph_json_roundtrip(capsys):
    code, out = run_cli(["graph", "--level", "2", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 92
    # every lowering edge has a raising certificate: the edge set is a
    # partial bijection per color
    for i in (0, 1, 2):
        edges = [(tuple(e["from"]), tuple(e["to"])) for e in data["edges"]
                 if e["color"] == i]
        assert len({a for a, _ in edges}) == len(edges)
        assert len({b for _, b in edges}) == len(edges)


def test_enumerate_and_minimal(capsys):
    code, out = run_cli(["enumerate", "--level", "2"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 92
    code, out = run_cli(["minimal", "--level", "2"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert {tuple(r["element"]) for r in rows} == {
        (), ("01",), ("1", "-1"), ("3", "-3")}


def test_verify_exit_code(capsys):
    code, out = run_cli(["verify", "--level", "2"], capsys)
    assert code == 0
    assert "all checks pass" in out


def test_connectivity(capsys):
    code, out = run_cli(["connectivity", "--level", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["square_size"] == 225 and data["square_connected"]


def test_phi_dump(capsys):
    code, out = run_cli(["phi", "--level", "1"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 15
    by_param = {tuple(sorted(r["param"].items())): r["tableau"] for r in rows}
    key = tuple(sorted({"i": 0, "k": 1, "j": 1, "p": 0, "q": 0, "r": 0}.items()))
    assert by_param[key] == ["-2"]


def test_graph_text_format(capsys):
    code, out = run_cli(["graph", "--level", "1", "--format", "text"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 20  # 6 + 6 + 8 lowering edges at level 1
    assert "9 -0-> 1" in lines


def test_deterministic_output(capsys):
    _, out1 = run_cli(["graph", "--level", "2", "--format", "dot"], capsys)
    _, out2 = run_cli(["graph", "--level", "2", "--format", "dot"], capsys)
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert main(["graph"]) == 2
    capsys.readouterr()


def test_output_digests(capsys):
    # pins the exported bijection, crystal graph and q-suite byte for byte
    for argv, digest in (
            (["phi", "--level", "4"],
             "1eb4812636cd5d82919a1ad2ecf8da34bca15c7f89dc1ed7b51160864e23c68d"),
            (["graph", "--level", "4", "--format", "text"],
             "197d4cb8672abc142a21df8bcac51df8f382fd188afcec66420b674a1ba68c31"),
            (["graph", "--level", "3"],
             "193faf0f25f9c4698532f573890c462db3d7d032ee4ff9859aedc80182b38d46"),
            (["graph", "--level", "2", "--format", "dot"],
             "a99c4a7ca9b1b18c3be84c36fbced5a18d887fc9ea62a166bb9a55c9ef8a3daa"),
            (["qcheck", "--dump"],
             "1ae983da70599bef3b2ec0ff0456aa6c3bad2e60f21ab30503bd8fc2b3171ec1"),
            (["verify", "--level", "3"],
             "1cb5cf4993a3ddbe5226fb463bdfe8f7a1ff0365c7f353272c7a9d905bc016cd"),
            (["enumerate", "--level", "4"],
             "b3ea2e8b6ce26902d4df150b299236631cada8b271a11d31fbf9f595ec846fed"),
            (["minimal", "--level", "5"],
             "eb49394b63b4faa46229f70961347e120154600d05b296b64f6730d7748d4a2d"),
            (["connectivity", "--level", "3"],
             "407d37bfd1da426c31996556f455ddc0bd0d63b39b1be0470838af42aff62857"),
            (["dims", "--max-level", "6"],
             "3e37e94f8776da663604c70025c801adeab1878e101f0de3f5eb8b7eac39808b"),
            (["qcheck"],
             "73da595e9b174e9bf064b97626ca6059a006abe20188affd88d47e4785ef9a1a"),
            (["verify", "--level", "5"],
             "42e6062a39f9facd7c742bab59e7fead502628bbf7a6ecf94f46c84ef7ce58e9"),
            (["connectivity", "--level", "5"],
             "ff76466f3c4daedbb91c897d214fe2f3b9278b312793fdb0c946fa37ea85d1b9")):
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_negative_max_level_is_usage_error(capsys):
    assert main(["dims", "--max-level", "-1"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_level_zero_is_usage_error(capsys):
    assert main(["verify", "--level", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "dims.txt"
    assert main(["dims", "--max-level", "1", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and str(path) in err


def test_verify_reports_construction_fault(monkeypatch, fresh_caches, capsys):
    monkeypatch.setitem(g2.F1_STEP, 4, 6)
    code, out = run_cli(["verify", "--level", "2"], capsys)
    assert code == 1
    assert out.splitlines()[-1].startswith("level 1: construction FAILED: ")


def test_verify_keeps_one_level_alive(fresh_caches, capsys):
    from g2crystal import affine

    assert run_cli(["verify", "--level", "3"], capsys)[0] == 0
    assert affine.bl_crystal.cache_info().currsize == 1
    assert affine.model.cache_info().currsize == 1


def test_verify_reports_a_missing_letter_step(monkeypatch, fresh_caches, capsys):
    # a minus on the letter 3, which has no e_1 step: a failed line, not a KeyError
    monkeypatch.setitem(g2.EP1, 3, (1, 0))
    code, out = run_cli(["verify", "--level", "2"], capsys)
    assert code == 1
    assert out.splitlines() == ["level 1: construction FAILED: color-1 rule at (3,) needs an undefined step"]


def test_verify_reports_a_perfectness_fault_with_its_level(monkeypatch, capsys):
    # a fault raised inside check_perfect, after the construction lines
    def stuck(tables, pair):
        raise ConstructionFault(f"e_1/e_2 walk from {pair} does not end")

    monkeypatch.setattr(perfect, "_greedy", stuck)
    code, out = run_cli(["verify", "--level", "2"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[-1].startswith("level 1: construction FAILED: e_1/e_2 walk from ")
    assert sum("construction FAILED" in line for line in lines) == 1
    assert all(line.startswith("level 1 ") for line in lines[:-1])


def test_construction_fault_is_one_line_in_every_command(monkeypatch, fresh_caches, capsys):
    monkeypatch.setitem(g2.F1_STEP, 4, 6)
    for argv in (["phi", "--level", "2"], ["graph", "--level", "2"],
                 ["enumerate", "--level", "2"], ["minimal", "--level", "2"],
                 ["connectivity", "--level", "2"]):
        code, out = run_cli(argv, capsys)
        assert code == 1, argv
        lines = out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("construction FAILED: "), argv


def test_non_tableau_image_is_one_failed_line(monkeypatch, fresh_caches, capsys):
    # f_1 sends (1, 3) to (3, 3), which is not a tableau
    monkeypatch.setitem(g2.F1_STEP, 1, 3)
    code, out = run_cli(["phi", "--level", "2"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("construction FAILED: ")


def test_tensor_square_level_bound_is_usage_error(fresh_caches, capsys):
    from g2crystal import affine

    for argv in (["connectivity", "--level", "9"], ["verify", "--level", "9"],
                 ["enumerate", "--level", "9"], ["graph", "--level", "9"],
                 ["phi", "--level", "9"], ["minimal", "--level", "9"],
                 ["dims", "--max-level", "9"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at most 8" in captured.err, argv
    assert affine.bl_crystal.cache_info().currsize == 0
    assert affine.model.cache_info().currsize == 0


def test_stray_fusion_image_is_a_failed_item(monkeypatch, fresh_fusion_values, capsys):
    # item 1 lands on (1, 1) alone, so its image strays from a (2, 1) target
    items = rmatrix.fusion_items()
    ops, src, _, expected = items["items"][1]
    items["items"][1] = (ops, src, (2, 1), expected)
    monkeypatch.setattr(rmatrix, "fusion_items", lambda: items)
    assert rmatrix.verify_fusion_identities()["items"][1]["pass"] is False
    code, out = run_cli(["qcheck"], capsys)
    assert code == 1
    assert "fusion identity 1: FAIL" in out.splitlines()
    assert "rmatrix relation_F_family: FAIL" in out.splitlines()


def test_qsuite_arithmetic_error_is_one_failed_line(monkeypatch, fresh_fusion_values, capsys):
    # a stray (1, 1) term makes the 3La2 vector weight inhomogeneous
    u_3la2 = rmatrix._u_3la2
    monkeypatch.setattr(rmatrix, "_u_3la2",
                        lambda: rmatrix.vadd(u_3la2(), rmatrix.tvec(1, 1)))
    code, out = run_cli(["qcheck"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "construction FAILED: tensor vector is not weight homogeneous"
    assert lines[:-1] == ["module relation weight_rows: pass",
                          "module relation ef_commutator: pass",
                          "module relation serre: pass",
                          "prepolarization: pass", "crystal compatibility: pass"]
