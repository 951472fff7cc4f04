"""Command-line front-end: dimension tables, enumeration, verification.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error.
Identical inputs produce byte-identical output; elements are ordered by
length and then lexicographically in the fixed letter order.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def cmd_dims(args, out) -> int:
    ok = True
    for l in range(args.max_level + 1):
        total = gl_count(l)
        match = total == len(model(l).elements)
        ok &= match
        _emit(f"level {l}: total dimension {total}  "
              f"A-model count matches: {'yes' if match else 'NO'}", out)
    return 0 if ok else 1


def cmd_enumerate(args, out) -> int:
    bl = bl_crystal(args.level)
    data = [g2.word_to_json(w) for w in bl.elements]
    _emit(json.dumps(data), out)
    return 0


def cmd_graph(args, out) -> int:
    bl = bl_crystal(args.level)
    edges = [(i, w, img) for i in (0, 1, 2) for w in bl.elements
             if (img := bl.f(i, w)) is not None]
    if args.format == "dot":
        lines = [f"digraph B{args.level} {{"]
        lines += [f'  "{_word_id(w)}";' for w in bl.elements]
        lines += [f'  "{_word_id(w)}" -> "{_word_id(img)}" [label={i}];' for i, w, img in edges]
        lines.append("}")
        _emit("\n".join(lines), out)
    elif args.format == "text":
        for i, w, img in edges:
            _emit(f"{_word_id(w)} -{i}-> {_word_id(img)}", out)
    else:
        _emit(json.dumps({"vertices": [g2.word_to_json(w) for w in bl.elements],
                          "edges": [{"color": i, "from": g2.word_to_json(w),
                                     "to": g2.word_to_json(img)} for i, w, img in edges]}), out)
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
    for key, val in prep.to_json().items():
        if isinstance(val, bool):
            _emit(f"level {l} perfect.{key}: {'pass' if val else 'FAIL'}", out)
    if not prep.all_pass():
        return "perfectness verification FAILED"
    return None


def cmd_minimal(args, out) -> int:
    bl = bl_crystal(args.level)
    rows = []
    for w in perfect.minimal_elements(args.level):
        rows.append({
            "element": g2.word_to_json(w),
            "eps": bl.eps_weight(w).to_json(),
            "phi": bl.phi_weight(w).to_json(),
        })
    _emit(json.dumps(rows), out)
    dom = dominant_weights(args.level)
    return 0 if len(rows) == len(dom) else 1


def cmd_phi(args, out) -> int:
    table = phi_table(args.level)
    rows = []
    for b in sorted(table.forward):
        rows.append({"param": b.to_json(),
                     "tableau": g2.word_to_json(table.forward[b])})
    _emit(json.dumps(rows), out)
    return 0


def cmd_connectivity(args, out) -> int:
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
    """The q-suite; an ArithmeticError ends it like a construction fault."""
    try:
        return _qcheck(args, out)
    except ArithmeticError as exc:
        _emit(f"construction FAILED: {exc}", out)
        return 1


def _qcheck(args, out) -> int:
    from . import level1, rmatrix

    ok = True
    rep = level1.verify_module_relations()
    for name in ("weight_rows", "ef_commutator", "serre"):
        _emit(f"module relation {name}: {'pass' if rep[name]['pass'] else 'FAIL'}", out)
        ok &= rep[name]["pass"]
    prep = level1.verify_prepolarization()
    _emit(f"prepolarization: {'pass' if prep['pass'] else 'FAIL'}", out)
    ok &= prep["pass"]
    cc = level1.crystal_compat_report()
    _emit(f"crystal compatibility: {'pass' if cc['pass'] else 'FAIL'}", out)
    ok &= cc["pass"]
    sing = rmatrix.verify_singular()
    _emit(f"singular vectors: {'pass' if sing['pass'] else 'FAIL'}", out)
    ok &= sing["pass"]
    fus = rmatrix.verify_fusion_identities()
    for n in sorted(fus["items"]):
        _emit(f"fusion identity {n}: {'pass' if fus['items'][n]['pass'] else 'FAIL'}", out)
    ok &= fus["pass"]
    rm = rmatrix.rmatrix_checks()
    for name in sorted(rm):
        if isinstance(rm[name], dict):
            _emit(f"rmatrix {name}: {'pass' if rm[name]['pass'] else 'FAIL'}", out)
    ok &= rm["pass"]
    if args.dump:
        sing_vecs = rmatrix.singular_vectors()
        dump = {name: {str(k): repr(v) for k, v in vec.items()}
                for name, vec in sing_vecs.items()}
        _emit(json.dumps(dump), out)
    return 0 if ok else 1


# the largest level any command builds: cold, in one process, verify --level 8
# takes 3.0-3.9 s and 46 MB on a shared 2-core Xeon host with Python 3.11
# (|B^8| = 24585); B^10 alone takes 2.8 s and 76 MB there
MAX_LEVEL = 8


def _level(lo):
    """An argparse type: an integer from lo to MAX_LEVEL."""
    def level(text):
        value = int(text)
        if not lo <= value <= MAX_LEVEL:
            raise argparse.ArgumentTypeError(
                f"must be at least {lo} and at most {MAX_LEVEL}, got {value}")
        return value
    return level


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2crystal",
        description="Level-l perfect crystals of affine G2: build, export, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension table and model-count identity")
    p.add_argument("--max-level", type=_level(0), default=4)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dims)

    for name, fn in (("enumerate", cmd_enumerate), ("graph", cmd_graph),
                     ("verify", cmd_verify), ("minimal", cmd_minimal),
                     ("phi", cmd_phi), ("connectivity", cmd_connectivity)):
        p = sub.add_parser(name)
        p.add_argument("--level", type=_level(1 if name == "verify" else 0), required=True)
        p.add_argument("--out")
        if name == "graph":
            p.add_argument("--format", choices=("json", "dot", "text"), default="json")
        p.set_defaults(fn=fn)

    p = sub.add_parser("qcheck", help="exact q-arithmetic suites for the level-1 module")
    p.add_argument("--dump", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_qcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    path = getattr(args, "out", None)
    if not path:
        return _run(args, sys.stdout)
    try:
        fh = open(path, "w")
    except OSError as exc:
        print(f"g2crystal: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 2
    with fh:
        return _run(args, fh)


def _run(args, out) -> int:
    """Run the subcommand; a construction fault is one output line and exit 1."""
    try:
        return args.fn(args, out)
    except ConstructionFault as exc:
        _emit(f"construction FAILED: {exc}", out)
        return 1


if __name__ == "__main__":
    sys.exit(main())
