import hashlib
import json
import os
import subprocess
import sys
from itertools import chain, permutations, product
from pathlib import Path

import pytest

from g2crystal import affine, cli, g2, level1, perfect, rmatrix
from g2crystal.affine import ConstructionFault
from g2crystal.cli import _word_id, build_parser, main, parse_plain


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


def test_level_zero_outputs(capsys):
    # the smallest level each command accepts: B^0 is the empty word alone
    zero = '{"m0": 0, "m1": 0, "m2": 0}'
    for argv, expected in (
            (["enumerate", "--level", "0"], "[[]]\n"),
            (["graph", "--level", "0", "--format", "dot"], 'digraph B0 {\n  "9";\n}\n'),
            (["phi", "--level", "0"], '[{"param": {"i": 0, "k": 0, "j": 0, "p": 0, "q": 0, '
                                      '"r": 0}, "tableau": []}]\n'),
            (["minimal", "--level", "0"], f'[{{"element": [], "eps": {zero}, "phi": {zero}}}]\n'),
            (["connectivity", "--level", "0"], '{"level": 0, "size": 1, "self_connected": '
                                               'true, "square_size": 1, "square_connected": true}\n'),
            (["dims", "--max-level", "0"],
             "level 0: total dimension 1  A-model count matches: yes\n")):
        assert run_cli(argv, capsys) == (0, expected), argv


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


def test_streamed_documents_are_the_whole_documents(capsys):
    # enumerate, graph and phi write item by item; the single json.dumps or
    # join of the whole document is the oracle
    for l in range(4):
        bl = affine.bl_crystal(l)
        vertices = [g2.word_to_json(w) for w in bl.elements]
        edges = [(i, w, img) for i in (0, 1, 2) for w in bl.elements
                 if (img := bl.f(i, w)) is not None]
        dot = ([f"digraph B{l} {{"] + [f'  "{_word_id(w)}";' for w in bl.elements]
               + [f'  "{_word_id(w)}" -> "{_word_id(img)}" [label={i}];' for i, w, img in edges]
               + ["}"])
        documents = {
            ("enumerate",): json.dumps(vertices),
            ("graph",): json.dumps({"vertices": vertices, "edges": [
                {"color": i, "from": g2.word_to_json(w), "to": g2.word_to_json(img)}
                for i, w, img in edges]}),
            ("graph", "--format", "dot"): "\n".join(dot),
            ("phi",): json.dumps([{"param": b._asdict(), "tableau": g2.word_to_json(w)}
                                  for b, w in sorted(affine.phi_table(l).forward.items())]),
        }
        for (command, *rest), document in documents.items():
            code, out = run_cli([command, "--level", str(l), *rest], capsys)
            assert code == 0
            assert out == document + "\n", (l, command, rest)


def _plain_words(flag, kind):
    """The spellings of one option in the plain-line corpus."""
    if kind is bool:
        return [(flag,)]
    if kind is str:
        return [(flag, path) for path in ("out.txt", "", "a b", "verify", "x=1")]
    if type(kind) is tuple:
        return [(flag, choice) for choice in kind]
    return [(flag, str(level)) for level in (kind, kind + 1, cli.MAX_LEVEL)]


def _plain_lines():
    """Every command with its options in each order, each subset of them
    that keeps a required level, and each spelling of their values."""
    for command, (_, _, options) in cli.GRAMMAR.items():
        for k in range(len(options) + 1):
            for flags in permutations(options, k):
                if "--level" in options and "--level" not in flags:
                    continue
                for words in product(*(_plain_words(f, options[f][0]) for f in flags)):
                    yield [command, *chain.from_iterable(words)]


def test_plain_lines_parse_as_argparse_parses_them():
    lines = list(_plain_lines())
    assert {argv[0] for argv in lines} == set(cli.GRAMMAR) and len(lines) > 500
    parser = build_parser()
    for argv in lines:
        assert vars(parse_plain(argv)) == vars(parser.parse_args(argv)), argv
    # the defaults
    assert vars(parse_plain(["dims"])) == {"command": "dims", "fn": cli.cmd_dims,
                                           "max_level": 4, "out": None}
    assert vars(parse_plain(["graph", "--level", "2"])) == {
        "command": "graph", "fn": cli.cmd_graph, "level": 2, "out": None, "format": "json"}
    assert vars(parse_plain(["qcheck"])) == {"command": "qcheck", "fn": cli.cmd_qcheck,
                                             "dump": False, "out": None}


# lines that argparse ends, each with a part of what it prints: help on
# stdout, or a usage error on stderr
ARGPARSE_ENDS = [
    ([], "the following arguments are required: command"),
    (["-h"], "usage: g2crystal [-h]"),
    (["--help"], "usage: g2crystal [-h]"),
    (["verify", "-h"], "usage: g2crystal verify [-h] --level LEVEL [--out OUT]"),
    (["dims", "--help"], "usage: g2crystal dims [-h] [--max-level MAX_LEVEL] [--out OUT]"),
    (["graph", "-h"], "--format {json,dot,text}"),
    (["qcheck", "-h"], "usage: g2crystal qcheck [-h] [--dump] [--out OUT]"),
    (["graph"], "the following arguments are required: --level"),
    (["verify", "--out", "v.txt"], "the following arguments are required: --level"),
    (["verify", "--out", "-"], "the following arguments are required: --level"),
    (["verify", "--level", "1", "--out", "-x"], "argument --out: expected one argument"),
    (["verify", "--level"], "argument --level: expected one argument"),
    (["graph", "--level", "1", "--format"], "argument --format: expected one argument"),
    (["graph", "--level", "1", "--format", "yaml"], "argument --format: invalid choice: "),
    (["verify", "--level", ""], "argument --level: invalid level value: ''"),
    (["dims", "--max-level", "x"], "argument --max-level: invalid level value: 'x'"),
    (["verify", "--level", "+1"], "argument --level: invalid level value: '+1'"),
    (["verify", "--level", " 1"], "argument --level: invalid level value: ' 1'"),
    (["verify", "--level", "\u0661"], "argument --level: invalid level value: '\u0661'"),
    (["enumerate", "--level", "0_1"], "argument --level: invalid level value: '0_1'"),
    (["qcheck", "--dump", "yes"], "unrecognized arguments: yes"),
    (["verify", "--level", "1", "extra"], "unrecognized arguments: extra"),
    (["unknown"], "argument command: invalid choice: 'unknown'"),
    (["--out", "x", "verify", "--level", "1"], "argument command: invalid choice: 'x'"),
]


def _argparse_end(argv, capsys):
    """(exit code, stdout, stderr) of the argparse parser alone on a line it ends."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    return (2 if exc.value.code else 0), *capsys.readouterr()


def test_usage_error_exit_code(capsys):
    # the plain parser leaves each line to argparse, which prints what it
    # prints alone and ends with 0 for help and 2 for an error
    for argv, text in ARGPARSE_ENDS:
        assert parse_plain(argv) is None, argv
        got = main(argv), *capsys.readouterr()
        assert got == _argparse_end(argv, capsys), argv
        code, out, err = got
        assert text in (err if code else out), argv
        assert (out if code else err) == "", argv


# lines that argparse reads but a plain line cannot spell, each with the
# plain line of the same namespace
SPELLINGS = [
    (["verify", "--level=1"], ["verify", "--level", "1"]),
    (["verify", "--lev", "1"], ["verify", "--level", "1"]),
    (["enumerate", "--level", "01"], ["enumerate", "--level", "1"]),
    (["enumerate", "--level", "3", "--level", "1"], ["enumerate", "--level", "1"]),
    (["graph", "--level", "1", "--format=dot"], ["graph", "--level", "1", "--format", "dot"]),
    (["graph", "--level", "1", "--form", "text"], ["graph", "--level", "1", "--format", "text"]),
    (["dims", "--max-level", "1", "--max-level", "1"], ["dims", "--max-level", "1"]),
]


def test_other_spellings_run_as_their_plain_line(capsys):
    for argv, plain in SPELLINGS:
        assert parse_plain(argv) is None, argv
        assert vars(build_parser().parse_args(argv)) == vars(parse_plain(plain)), argv
        assert run_cli(argv, capsys) == run_cli(plain, capsys), argv


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


def test_dims_keeps_one_level_alive(fresh_caches, capsys):
    from g2crystal import affine

    code, out = run_cli(["dims", "--max-level", "8"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "415a7061788e060db46b4b007973e7f6c8860aacd095620d49721cd41ab007c8")
    assert affine.model.cache_info().currsize == 1


def test_negative_max_level_is_usage_error(capsys):
    assert parse_plain(["dims", "--max-level", "-1"]) is None
    assert main(["dims", "--max-level", "-1"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_level_zero_is_usage_error(capsys):
    assert parse_plain(["verify", "--level", "0"]) is None
    assert main(["verify", "--level", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "g2crystal verify: error: argument --level: must be at least 1 and at most 10, got 0")


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "dims.txt"
    assert main(["dims", "--max-level", "1", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and str(path) in err


def test_unwritable_out_device_is_usage_error(capsys):
    # /dev/full accepts the open and fails the write (or the close)
    assert main(["enumerate", "--level", "2", "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["g2crystal: cannot write /dev/full: No space left on device"]


def test_out_dash_is_stdout(tmp_path, monkeypatch, capsys):
    # as Unix tools read it; the file name "-" is never made
    monkeypatch.chdir(tmp_path)
    plain = run_cli(["dims", "--max-level", "1"], capsys)
    assert run_cli(["dims", "--max-level", "1", "--out", "-"], capsys) == plain
    assert list(tmp_path.iterdir()) == []


def test_closed_stdout_ends_quietly_as_sigpipe():
    # the reader takes a few bytes of a 200 kB document and closes the pipe
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen([sys.executable, "-m", "g2crystal.cli", "enumerate", "--level", "6"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.read(16) == b'[[], ["1"], ["2"'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141 and err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_unwritable_stdout_is_usage_error():
    # stdout on /dev/full: the first flush fails with ENOSPC
    src = Path(__file__).resolve().parents[1] / "src"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "g2crystal.cli", "enumerate", "--level", "2"],
                              stdout=full, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [
        "g2crystal: cannot write stdout: No space left on device"]


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

    for argv in (["connectivity", "--level", "11"], ["verify", "--level", "11"],
                 ["enumerate", "--level", "11"], ["graph", "--level", "11"],
                 ["phi", "--level", "11"], ["minimal", "--level", "11"],
                 ["dims", "--max-level", "11"]):
        assert parse_plain(argv) is None, argv
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at most 10" in captured.err, argv
    assert affine.bl_crystal.cache_info().currsize == 0
    assert affine.model.cache_info().currsize == 0


def test_stray_fusion_image_is_a_failed_item(monkeypatch, fresh_qsuite, capsys):
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


def test_qsuite_arithmetic_error_is_one_failed_line(monkeypatch, fresh_qsuite, capsys):
    # a stray (1, 1) term makes the 3La2 vector weight inhomogeneous
    u_3la2 = rmatrix._u_3la2
    monkeypatch.setattr(rmatrix, "_u_3la2",
                        lambda: rmatrix.vadd(u_3la2(), rmatrix.tvec(1, 1)))
    code, out = run_cli(["qcheck"], capsys)
    assert code == 1
    lines = out.splitlines()
    # the error takes the singular-vector section's place; the 15 fusion
    # identities and 13 R-matrix checks after it still report
    assert lines[5] == "construction FAILED: tensor vector is not weight homogeneous"
    assert lines[:5] == ["module relation weight_rows: pass",
                         "module relation ef_commutator: pass",
                         "module relation serre: pass",
                         "prepolarization: pass", "crystal compatibility: pass"]
    assert len(lines) == 6 + 15 + 13
    assert all(line.startswith(("fusion identity ", "rmatrix ")) and line.endswith(": pass")
               for line in lines[6:])


def test_verify_reports_a_wrong_enumeration_count(second_constraint_without_0_1, fresh_caches,
                                                  capsys):
    code, out = run_cli(["verify", "--level", "2"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == ("level 2: construction FAILED: "
                         "enumeration of B(2*La1) gave 79 words, expected 77")
    assert len(lines) > 1 and all(line.startswith("level 1 ") and line.endswith(": pass")
                                  for line in lines[:-1])


def test_enumerate_reports_a_wrong_enumeration_count(second_constraint_without_0_1, fresh_caches,
                                                     capsys):
    code, out = run_cli(["enumerate", "--level", "2"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "construction FAILED: enumeration of B(2*La1) gave 79 words, expected 77"]


def test_verify_reports_a_dropped_model_string(drop_string, capsys):
    # level 2 without the string (0, 2, 2, 2, 2), which f_1 of (0, 2, 2, 1, 1)
    # runs into: one failed line after level 1's passes
    drop_string((0, 2, 2, 2, 2))
    code, out = run_cli(["verify", "--level", "2"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == ("level 2: construction FAILED: f_1 left the crystal: "
                         "AParam(i=0, k=2, j=2, p=1, q=1, r=1) -> "
                         "AParam(i=0, k=2, j=2, p=2, q=2, r=0)")
    assert len(lines) > 1 and all(line.startswith("level 1 ") and line.endswith(": pass")
                                  for line in lines[:-1])


def test_mistranscribed_action_coefficient_fails_qcheck(monkeypatch, fresh_qsuite, capsys):
    # warm: every q-suite table, cache and memo filled from the true table
    assert run_cli(["qcheck"], capsys)[0] == 0
    # f_2 v_3 = [2]_2 v_4, transcribed with [3]_2
    monkeypatch.setitem(level1.F_TABLE[2], 3, [(4, level1._B32)])
    fresh_qsuite()
    code, out = run_cli(["qcheck"], capsys)
    assert code == 1
    # the failed prepolarization ends only its own section: the tensor square,
    # which reads the poisoned entry too, still reports
    rmatrix_fails = ("relation_F_family", "relation_long_family")
    rmatrix_names = ("a_2La2_vanish", "a_3La2_vanish", "a_L1j_eq_L2j", "a_L3j_vanish",
                     "a_Z_kernel", "phi_nonvanishing", "relation_2La2", "relation_3La2",
                     "relation_E_family", "relation_F_family", "relation_f02_family",
                     "relation_f0_family", "relation_long_family")
    assert out.splitlines() == [
        "module relation weight_rows: pass",
        "module relation ef_commutator: FAIL",
        "module relation serre: FAIL",
        "construction FAILED: polarization space has dimension 0, expected 1",
        "crystal compatibility: FAIL",
        "singular vectors: pass",
        *(f"fusion identity {n}: {'FAIL' if n in (1, 2, 3, 12, 13, 14, 15) else 'pass'}"
          for n in range(1, 16)),
        *(f"rmatrix {name}: {'FAIL' if name in rmatrix_fails else 'pass'}"
          for name in rmatrix_names)]


def _fresh_import(check):
    """stdout of ``check`` run after importing every module of the package
    in a fresh interpreter without site."""
    src = Path(__file__).resolve().parents[1] / "src"
    names = sorted(p.stem for p in (src / "g2crystal").glob("*.py") if p.stem != "__init__")
    assert "cli" in names and "qlaurent" in names
    code = "import sys\n" + "".join(f"import g2crystal.{name}\n" for name in names) + check
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return proc.stdout


def test_cold_import_loads_no_unused_stdlib():
    unused = ("{'dataclasses', 'typing', 'fractions', 'inspect', "
              "'argparse', 'json', 're', 'enum', 'gettext', 'locale', 'shutil'}")
    assert _fresh_import(f"print(sorted({unused} & set(sys.modules)))") == "[]\n"
    # a plain verify line runs without argparse or json; enumerate writes
    # JSON, so it loads json, and still not argparse
    out = _fresh_import(
        "import io\n"
        "from g2crystal.cli import main\n"
        "stdout = sys.stdout\n"
        "for argv in (['verify', '--level', '1'], ['enumerate', '--level', '1']):\n"
        "    sys.stdout = io.StringIO()\n"
        "    code = main(argv)\n"
        "    sys.stdout = stdout\n"
        f"    print(code, sorted({unused} & set(sys.modules)))\n")
    verify, enumerate_ = out.splitlines()
    assert verify == "0 []"
    assert enumerate_.startswith("0 [") and "'json'" in enumerate_ and "argparse" not in enumerate_


def test_cold_import_fills_no_cache():
    # the rule the benchmark applies before each cold sample, and the gcd memo
    out = _fresh_import(
        "mods = [m for n, m in sys.modules.items() if n.startswith('g2crystal.')]\n"
        "caches = [(f'{m.__name__}.{n}', fn.cache_info().currsize) for m in mods\n"
        "          for n, fn in vars(m).items() if callable(getattr(fn, 'cache_info', None))\n"
        "          and fn.__module__ == m.__name__]\n"
        "print(len(caches), [c for c in caches if c[1]], len(g2crystal.qlaurent._MEMO))")
    count, rest = out.split(" ", 1)
    assert int(count) >= 10 and rest == "[] 0\n"
