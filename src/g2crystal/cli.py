"""Command-line front-end: dimension tables, enumeration, verification.

The grammar is one table, ``GRAMMAR``.  A plain line, a command followed
only by its options spelt out in full, each once and with its value as the
next word, is parsed straight from it (``parse_plain``); every other line
(help, abbreviations, ``--level=3``, repeats, errors) goes to the argparse
parser built from the same table, which is imported only then.  Only the
commands that write JSON import ``json``.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error,
an ``--out`` file that cannot be opened, written or closed, or a stdout
that cannot be written, 141 stdout closed by its reader (as a process
stopped by SIGPIPE; nothing is printed on stderr).
Identical inputs produce byte-identical output; elements are ordered by
length and then lexicographically in the fixed letter order.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import g2, perfect
from .affine import (ConstructionFault, bl_crystal, clear_level_caches, gl_count, model,
                     phi_table, verify_construction)
from .cartan import dominant_weights


def _word_id(word) -> str:
    """Compact node name; the empty word keeps the classical label 9."""
    if not word:
        return "9"
    return ",".join(g2.letter_to_json(a) for a in word)


def _emit(text, out):
    out.write(text + "\n")


def _write_list(items, out):
    """Write ``json.dumps(list(items))`` one item at a time, so that no
    command holds a whole document (at l = 10, up to 478 MB for graph)."""
    import json

    out.write("[")
    for n, item in enumerate(items):
        if n:
            out.write(", ")
        out.write(json.dumps(item))
    out.write("]")


def cmd_dims(args, out) -> int:
    ok = True
    for l in range(args.max_level + 1):
        if l > 0:
            # as in verify: no level reads another's model
            clear_level_caches()
        total = gl_count(l)
        match = total == len(model(l))
        ok &= match
        _emit(f"level {l}: total dimension {total}  "
              f"A-model count matches: {'yes' if match else 'NO'}", out)
    return 0 if ok else 1


def cmd_enumerate(args, out) -> int:
    bl = bl_crystal(args.level)
    _write_list(map(g2.word_to_json, bl.elements), out)
    out.write("\n")
    return 0


def cmd_graph(args, out) -> int:
    bl = bl_crystal(args.level)
    edges = ((i, w, img) for i in (0, 1, 2) for w in bl.elements
             if (img := bl.f(i, w)) is not None)
    if args.format == "dot":
        _emit(f"digraph B{args.level} {{", out)
        for w in bl.elements:
            _emit(f'  "{_word_id(w)}";', out)
        for i, w, img in edges:
            _emit(f'  "{_word_id(w)}" -> "{_word_id(img)}" [label={i}];', out)
        _emit("}", out)
    elif args.format == "text":
        for i, w, img in edges:
            _emit(f"{_word_id(w)} -{i}-> {_word_id(img)}", out)
    else:
        out.write('{"vertices": ')
        _write_list(map(g2.word_to_json, bl.elements), out)
        out.write(', "edges": ')
        _write_list(({"color": i, "from": g2.word_to_json(w), "to": g2.word_to_json(img)}
                     for i, w, img in edges), out)
        out.write("}\n")
    return 0


def cmd_verify(args, out) -> int:
    for l in range(1, args.level + 1):
        if l > 1:
            # no level reads another's model or B^l: free them before the next
            clear_level_caches()
        try:
            failed = _verify_level(l, out)
        except ConstructionFault as exc:
            failed = f"construction FAILED: {exc}"
        if failed:
            _emit(f"level {l}: {failed}", out)
            return 1
    _emit(f"levels 1..{args.level}: all checks pass", out)
    return 0


def _verify_level(l, out) -> str | None:
    """Emit one line per check of level l; the failure, or None if all pass."""
    rep = verify_construction(l)
    for name in sorted(rep):
        if name == "all_pass":
            continue
        entry = rep[name]
        _emit(f"level {l} {name}: {'pass' if entry['pass'] else 'FAIL'}", out)
    if not rep["all_pass"]:
        return "construction verification FAILED"
    prep = perfect.check_perfect(l)
    for key, val in prep.conditions().items():
        _emit(f"level {l} perfect.{key}: {'pass' if val else 'FAIL'}", out)
    if not prep.all_pass():
        return "perfectness verification FAILED"
    return None


def cmd_minimal(args, out) -> int:
    import json

    rows = [{"element": g2.word_to_json(w), "eps": eps._asdict(), "phi": phi._asdict()}
            for w, eps, phi in perfect.minimal_rows(args.level)]
    _emit(json.dumps(rows), out)
    return 0 if len(rows) == len(dominant_weights(args.level)) else 1


def cmd_phi(args, out) -> int:
    table = phi_table(args.level)
    # the model's elements run in sorted order, each made as it is written
    _write_list(({"param": b._asdict(), "tableau": g2.word_to_json(table.words[n])}
                 for b, n in zip(table.model.iter_elements(), table.perm)), out)
    out.write("\n")
    return 0


def cmd_connectivity(args, out) -> int:
    import json

    bl = bl_crystal(args.level)
    rep = perfect.check_perfect(args.level)
    _emit(json.dumps({
        "level": args.level,
        "size": len(bl.elements),
        "self_connected": rep.cond_self_connected,
        "square_size": rep.square_size,
        "square_connected": rep.cond_connected_square,
    }), out)
    return 0 if rep.cond_self_connected and rep.cond_connected_square else 1


def cmd_qcheck(args, out) -> int:
    """The q-suite, one section at a time, each a (label, pass) row per
    entry of its report: an ArithmeticError ends its section like a
    construction fault, and the later sections still report."""
    from . import level1, rmatrix

    def entries(prefix, rep, names):
        return [(f"{prefix} {n}", rep[n]["pass"]) for n in names]

    def fusion():
        items = rmatrix.verify_fusion_identities()["items"]
        return entries("fusion identity", items, sorted(items))

    def checks():
        rm = rmatrix.rmatrix_checks()
        return entries("rmatrix", rm, sorted(rm.keys() - {"pass"}))

    def dump():
        import json

        dump = {name: {str(k): repr(v) for k, v in vec.items()}
                for name, vec in rmatrix.singular_vectors().items()}
        _emit(json.dumps(dump), out)
        return []

    sections = [
        lambda: entries("module relation", level1.verify_module_relations(),
                        ("weight_rows", "ef_commutator", "serre")),
        lambda: [("prepolarization", level1.verify_prepolarization()["pass"])],
        lambda: [("crystal compatibility", level1.crystal_compat_report()["pass"])],
        lambda: [("singular vectors", rmatrix.verify_singular()["pass"])], fusion, checks]
    ok = True
    for section in sections + ([dump] if args.dump else []):
        try:
            rows = section()
        except ArithmeticError as exc:
            _emit(f"construction FAILED: {exc}", out)
            ok = False
            continue
        for label, passed in rows:
            _emit(f"{label}: {'pass' if passed else 'FAIL'}", out)
            ok &= passed
    return 0 if ok else 1


# the largest level any command builds: cold, one fresh process per run
# (wall time and the process's peak RSS), on a shared 2-core Xeon host with
# Python 3.11, verify --level 10 takes 1.6-2.3 s and 51 MB, and every other
# command at l = 10 (graph in each format) at most 3.5 s and 51 MB
MAX_LEVEL = 10

# per command: its function, its help line (None for none) and its options
# in help order, each flag with the kind of its value and its default.  The
# kind is an int for a level from that int to MAX_LEVEL (required where the
# default is None), a tuple of choices, str for a word (a path), or bool for
# a flag that takes no value.  A flag's attribute is argparse's: --max-level
# sets max_level.
_LEVEL, _OUT = (0, None), (str, None)
GRAMMAR = {
    "dims": (cmd_dims, "dimension table and model-count identity",
             {"--max-level": (0, 4), "--out": _OUT}),
    "enumerate": (cmd_enumerate, None, {"--level": _LEVEL, "--out": _OUT}),
    "graph": (cmd_graph, None, {"--level": _LEVEL, "--out": _OUT,
                                "--format": (("json", "dot", "text"), "json")}),
    "verify": (cmd_verify, None, {"--level": (1, None), "--out": _OUT}),
    "minimal": (cmd_minimal, None, {"--level": _LEVEL, "--out": _OUT}),
    "phi": (cmd_phi, None, {"--level": _LEVEL, "--out": _OUT}),
    "connectivity": (cmd_connectivity, None, {"--level": _LEVEL, "--out": _OUT}),
    "qcheck": (cmd_qcheck, "exact q-arithmetic suites for the level-1 module",
               {"--dump": (bool, False), "--out": _OUT}),
}

# a level as a plain line spells it: its decimal digits, with no sign, space
# or leading zero; argparse reads every other spelling
_LEVEL_WORDS = {str(n): n for n in range(MAX_LEVEL + 1)}


def _plain_value(kind, word):
    """The value of an option of that kind spelt as word, or None where a
    plain line cannot hold it (no word, or one that argparse must read)."""
    if word is None:
        return None
    if kind is str:
        return None if word.startswith("-") else word
    if type(kind) is tuple:
        return word if word in kind else None
    level = _LEVEL_WORDS.get(word)
    return level if level is not None and level >= kind else None


def parse_plain(argv):
    """The namespace argparse gives a plain line, or None for any other
    line: argparse then parses it, and reports its errors."""
    if not argv or argv[0] not in GRAMMAR:
        return None
    fn, _, options = GRAMMAR[argv[0]]
    given = {}
    words = iter(argv[1:])
    for flag in words:
        if flag not in options or flag in given:
            return None
        kind = options[flag][0]
        given[flag] = True if kind is bool else _plain_value(kind, next(words, None))
        if given[flag] is None:
            return None
    names = {}
    for flag, (kind, default) in options.items():
        value = given.get(flag, default)
        if value is None and type(kind) is int:  # a required level left out
            return None
        names[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(command=argv[0], fn=fn, **names)


def build_parser():
    """The argparse parser of ``GRAMMAR``: the reference for every line."""
    import argparse

    def level_type(lo):
        """An argparse type: an integer from lo to MAX_LEVEL, in ASCII digits
        after at most one leading minus.  Its errors name the function,
        "invalid level value"."""
        def level(text):
            if not (text.isascii() and text.removeprefix("-").isdigit()):
                raise ValueError(text)
            value = int(text)
            if not lo <= value <= MAX_LEVEL:
                raise argparse.ArgumentTypeError(
                    f"must be at least {lo} and at most {MAX_LEVEL}, got {value}")
            return value
        return level

    parser = argparse.ArgumentParser(
        prog="g2crystal",
        description="Level-l perfect crystals of affine G2: build, export, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, text, options) in GRAMMAR.items():
        # help=None would still list the command, on a line of its own
        p = sub.add_parser(name, **({"help": text} if text else {}))
        for flag, (kind, default) in options.items():
            if kind is bool:
                p.add_argument(flag, action="store_true")
            elif kind is str:
                p.add_argument(flag)
            elif type(kind) is tuple:
                p.add_argument(flag, choices=kind, default=default)
            else:
                p.add_argument(flag, type=level_type(kind), default=default, required=default is None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    path = getattr(args, "out", None)
    if not path or path == "-":  # as Unix tools read it, - is stdout
        try:
            code = _run(args, sys.stdout)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # the reader has gone: point stdout at devnull, so that the flush
            # at shutdown is silent, and end as SIGPIPE would end the process
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        except OSError as exc:  # a full or failing device: silence the shutdown flush too
            print(f"g2crystal: cannot write stdout: {exc.strerror}", file=sys.stderr)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 2
    try:
        with open(path, "w") as fh:
            return _run(args, fh)
    except OSError as exc:  # opening, writing or closing the file
        print(f"g2crystal: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 2


def _run(args, out) -> int:
    """Run the subcommand; a construction fault is one output line and exit 1."""
    try:
        return args.fn(args, out)
    except ConstructionFault as exc:
        _emit(f"construction FAILED: {exc}", out)
        return 1


if __name__ == "__main__":
    sys.exit(main())
