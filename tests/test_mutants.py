"""The mutation sweep of the model's rules (DeMillo, Lipton & Sayward, "Hints
on test data selection", IEEE Computer 1978).

Each integer constant of ``ea_plus``, ``AffineModel.__init__`` and
``_anchor_f0p`` is moved by -1 and by +1, one at a time, in a copy of the
function compiled in ``affine``'s namespace.  A mis-transcribed constant in
the model must end ``verify`` in a failed line, never in a traceback and
never in a pass, and one in an anchor formula must fail the anchor check.
The mutants that cannot fail are listed below, each with the reason.
"""

import ast
import inspect
import io
import textwrap
import types

from g2crystal import affine, cli


def _mutants(fn):
    """Each +-1 mutant of ``fn``'s integer constants: (its source line with
    the mutated constant, None for a constant inside a fault message, and the
    mutant function).  A recursive function calls its own mutant."""
    source = textwrap.dedent(inspect.getsource(fn))
    lines = source.splitlines()

    def constants(tree):
        # the int constants in walk order, each with whether an f-string holds it
        in_message = {id(node) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                      for node in ast.walk(f)}
        return [(node, id(node) in in_message) for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and type(node.value) is int]

    for n in range(len(constants(ast.parse(source)))):
        for delta in (-1, 1):
            tree = ast.parse(source)
            node, in_message = constants(tree)[n]
            node.value += delta
            line = lines[node.lineno - 1]
            where = None if in_message else (
                line[:node.col_offset] + str(node.value) + line[node.end_col_offset:]).strip()
            namespace = dict(vars(affine))
            exec(compile(tree, f"<mutant of {fn.__name__}>", "exec"), namespace)
            yield where, namespace[fn.__name__]


def _verify5(monkeypatch, owner, name, mutant) -> tuple[int | str, list[str]]:
    """``verify --level 5`` with the mutant in place of ``owner.name``, from
    empty level caches: its exit code, or the exception it raised, and the
    lines it wrote, ending in "" for none."""
    out = io.StringIO()
    with monkeypatch.context() as patch:
        patch.setattr(owner, name, mutant)
        affine.clear_level_caches()
        try:
            code = cli.cmd_verify(types.SimpleNamespace(level=5), out)
        except Exception as exc:
            code = repr(exc)
        finally:
            affine.clear_level_caches()
    return code, [""] + out.getvalue().splitlines()


def test_every_ea_plus_mutant_is_one_construction_failure(monkeypatch):
    fates = [_verify5(monkeypatch, affine, "ea_plus", mutant)
             for _, mutant in _mutants(affine.ea_plus)]
    # 20 constants, each moved both ways
    assert len(fates) == 40
    assert [(code, lines[-1]) for code, lines in fates if not (
        code == 1 and "construction FAILED: " in lines[-1]
        and sum("FAIL" in line for line in lines) == 1)] == []


# the AffineModel.__init__ mutants that verify --level 5 passes, by their
# mutated line, each with why: caught by another test, or changing nothing
_MESSAGE = "the r that the E_A fault message names, pinned by its fault test"
EQUIVALENT_INIT = {
    "if l < -1:": "lets level -1 build, which verify never asks for; "
                  "test_negative_level_is_refused catches it",
    "if l < 1:": "refuses level 0, which verify never builds; the level-0 tests catch it",
    "for b, d, r0, r1 in (((i, k, j, p, q + 1), 0, 0, lo if q < k + p else -1),":
        "an empty first run, from r0 = 0 to r1 = 0 or to r1 = -1 alike",
    "reach = -1 if t is None else sizes[t]": _MESSAGE,
    "reach = 1 if t is None else sizes[t]": _MESSAGE,
}
# a constant inside a fault message (None above) moves only the message's
# text, which the fault tests pin: 12 mutants
MESSAGE_MUTANTS = 12


def test_every_model_build_mutant_fails_or_is_listed(monkeypatch):
    # a mutant that raises anything but ConstructionFault fails this test
    survivors = []
    for where, mutant in _mutants(affine.AffineModel.__init__):
        code, lines = _verify5(monkeypatch, affine.AffineModel, "__init__", mutant)
        if not (code == 1 and ("construction FAILED" in lines[-1]
                               or lines[-1].endswith("verification FAILED"))):
            assert code == 0, (where, code, lines[-1])
            survivors.append(where)
    assert survivors.count(None) == MESSAGE_MUTANTS
    assert sorted(filter(None, survivors)) == sorted(EQUIVALENT_INIT)


def test_every_anchor_mutant_fails_the_anchor_check(monkeypatch, fresh_caches):
    # the anchors read the good Phi; a mutant that no level up to 7 fails survives
    phis = [affine.phi_table(l) for l in range(1, 8)]
    survivors = []
    for where, mutant in _mutants(affine._anchor_f0p):
        with monkeypatch.context() as patch:
            patch.setattr(affine, "_anchor_f0p", mutant)
            if not any(any(affine.verify_anchors(l, phi).values())
                       for l, phi in enumerate(phis, 1)):
                survivors.append(where)
    assert survivors == []
