"""Command line interface.

Verbs: check, cohomology, monodromy, delzant, glue, moduli, catalog.
Exit codes: 0 success, 1 validation or obstruction failure, 2 usage or
parse errors.  Every error is raised to main, which alone prints the one
"error:" line: a DocumentError exits 2, any other TorusbaseError exits 1.
"""

import argparse
import json
import sys
from functools import lru_cache

from . import serialize
from .affine import (
    build_R_sheaf,
    lagrangian_moduli,
    monodromy_rep,
    unipotent_power,
    validate_affine,
)
from .catalog import CatalogError, build, catalog_names, verify
from .complexes import cell_key, validate
from .errors import TorusbaseError
from .polytopes import PolytopeError, delzant_check
from .serialize import DocumentError
from .sheaves import cohomology, constant_sheaf, validate_sheaf

OK, FAIL, USAGE = 0, 1, 2


def _emit(args, payload, human):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1, sort_keys=True, default=str))
    else:
        print(human)


def _load(path):
    try:
        return serialize.load_path(path)
    except FileNotFoundError:
        raise DocumentError("no such file: %s" % path) from None
    except (OSError, UnicodeDecodeError) as err:
        raise DocumentError("cannot read %s: %s" % (path, getattr(err, "strerror", None) or err)) from None


def cmd_check(args):
    doc = _load(args.file)
    problems = []
    checked = []
    if doc.complex is not None:
        rep = validate(doc.complex)
        checked.append("complex")
        problems += ["complex: %s" % v for v in rep.violations]
    if doc.sheaf is not None:
        rep = validate_sheaf(doc.sheaf)
        checked.append("sheaf")
        problems += ["sheaf: %s" % v for v in rep.violations]
    if doc.affine is not None:
        rep = validate_affine(doc.affine)
        checked.append("affine")
        problems += ["affine: %s" % v for v in rep.violations]
    if doc.polytope is not None:
        checked.append("polytope")
        try:
            from .polytopes import vertices

            vertices(doc.polytope)
        except PolytopeError as err:
            problems.append("polytope: %s" % err)
    payload = {"checked": checked, "violations": problems, "ok": not problems}
    human = (
        "ok (%s)" % ", ".join(checked)
        if not problems
        else "\n".join(problems)
    )
    _emit(args, payload, human)
    return OK if not problems else FAIL


def _require_valid(what, rep):
    """Raise one TorusbaseError (exit 1) naming every violation rep lists."""
    if not rep.valid:
        reason = "; ".join(line for v in rep.violations for line in str(v).splitlines())
        raise TorusbaseError("%s invalid: %s" % (what, reason))


def _named_sheaf(args, doc):
    name = args.sheaf
    if name == "document":
        if doc.sheaf is None:
            raise DocumentError("document has no sheaf section")
        _require_valid("sheaf", validate_sheaf(doc.sheaf))
        return doc.sheaf
    if name == "R":
        if doc.affine is None:
            raise DocumentError("deriving the monodromy sheaf needs an affine section")
        _require_valid("affine structure", validate_affine(doc.affine))
        return build_R_sheaf(doc.affine)
    if name == "Z" or name.startswith("Z^"):
        rank = 1
        if name.startswith("Z^"):
            if not name[2:].isdecimal():
                raise DocumentError("bad sheaf rank in %r (use Z^k with k >= 0)" % name)
            rank = int(name[2:])
        if doc.complex is None:
            raise DocumentError("constant sheaf needs a complex section")
        return constant_sheaf(doc.complex, rank)
    raise DocumentError("unknown sheaf %r (use document, R, Z, or Z^k)" % name)


def cmd_cohomology(args):
    doc = _load(args.file)
    if doc.complex is not None:
        _require_valid("complex", validate(doc.complex))
    F = _named_sheaf(args, doc)
    res = cohomology(F, args.degree)
    payload = {"degree": args.degree, "group": str(res.group)}
    lines = ["H^%d = %s" % (args.degree, res.group)]
    if args.generators:
        gens = res.generator_cocycles()
        payload["generators"] = []
        for g in gens:
            comps = {}
            for c in F.cochain_cells(args.degree):
                vals = [str(x) for x in F.component(g, args.degree, c)]
                if any(v != "0" for v in vals):
                    comps[str(c)] = vals
            payload["generators"].append(comps)
            lines.append("generator: %s" % comps)
    _emit(args, payload, "\n".join(lines))
    return OK


def cmd_monodromy(args):
    doc = _load(args.file)
    if doc.affine is None:
        raise DocumentError("monodromy needs an affine section")
    _require_valid("affine structure", validate_affine(doc.affine))
    rep = monodromy_rep(doc.affine)
    lines = []
    payload = {"basepoint": str(rep.basepoint), "loops": []}
    for loop, M in zip(rep.loops, rep.images):
        entry = {
            "kind": loop.kind,
            "about": str(loop.about),
            "matrix": [[str(M[0, 0]), str(M[0, 1])], [str(M[1, 0]), str(M[1, 1])]],
        }
        k = unipotent_power(M)
        desc = "loop (%s) about %s: %s" % (loop.kind, loop.about, entry["matrix"])
        if k is not None and k > 0:
            entry["unipotent_power"] = k
            desc += "  ~ [[1,%d],[0,1]]" % k
        payload["loops"].append(entry)
        lines.append(desc)
    _emit(args, payload, "\n".join(lines))
    return OK


def cmd_delzant(args):
    doc = _load(args.file)
    if doc.polytope is None:
        raise DocumentError("delzant needs a polytope section")
    rep = delzant_check(doc.polytope)
    payload = {"ok": rep.ok}
    if not rep.ok:
        payload["failing_vertex"] = [str(x) for x in rep.failing_vertex]
        payload["directions"] = [list(d) for d in rep.failing_directions]
    _emit(args, payload, str(rep))
    return OK if rep.ok else FAIL


def cmd_moduli(args):
    doc = _load(args.file)
    if doc.affine is None:
        raise DocumentError("moduli needs an affine section")
    _require_valid("affine structure", validate_affine(doc.affine))
    dim, rank = lagrangian_moduli(doc.affine)
    if (dim, rank) == (0, 0):
        shape = "0"
    elif dim == rank:
        shape = "R/Z" if dim == 1 else "(R/Z)^%d" % dim
    else:
        shape = "R^%d / Z^%d" % (dim, rank)
    payload = {"dimension": dim, "lattice_rank": rank, "moduli": shape}
    _emit(args, payload, "(dim %d, lattice rank %d) ≅ %s" % (dim, rank, shape))
    return OK


def cmd_glue(args):
    doc = _load(args.file)
    if doc.complex is None or doc.sheaf is None:
        raise DocumentError("glue needs complex and sheaf sections in both files")
    other = _load(args.other)
    if other.complex is None or other.sheaf is None:
        raise DocumentError("glue needs complex and sheaf sections in both files")
    for d in (doc, other):
        _require_valid("complex", validate(d.complex))
        _require_valid("sheaf", validate_sheaf(d.sheaf))
    from .sheaves import subcomplex
    from .surgery import GluingSpec, glue
    from .exact import eye

    shared = sorted(set(doc.complex.cells) & set(other.complex.cells), key=cell_key)
    over1 = subcomplex(doc.complex, shared)
    over2 = subcomplex(other.complex, shared)
    isos = {c: eye(doc.sheaf.rank(c)) for c in shared}
    spec = GluingSpec(
        complex1=doc.complex,
        sheaf1=doc.sheaf,
        complex2=other.complex,
        sheaf2=other.sheaf,
        overlap1=over1,
        overlap2=over2,
        cell_map={c: c for c in shared},
        stalk_isos=isos,
    )
    Z, F, _ = glue(spec)
    rep = validate(Z)
    payload = {
        "cells": {str(k): len(Z.cells_of_dim(k)) for k in range(Z.dimension + 1)},
        "overlap_cells": len(shared),
        "euler_characteristic": Z.euler_characteristic(),
        "valid": rep.valid,
    }
    human = "glued complex: %s cells, chi = %d, %s" % (
        len(Z.cells),
        Z.euler_characteristic(),
        "valid" if rep.valid else "INVALID",
    )
    _emit(args, payload, human)
    return OK if rep.valid else FAIL


def cmd_catalog(args):
    if args.list or args.name is None:
        names = catalog_names()
        _emit(args, {"entries": names}, "\n".join(names))
        return OK
    try:
        entry = build(args.name)
    except CatalogError as err:
        raise DocumentError(str(err)) from None
    lines = ["%s (%s)" % (entry.name, entry.kind)]
    payload = {"name": entry.name, "kind": entry.kind, "notes": entry.notes}
    if entry.notes:
        lines.append(entry.notes)
    status = OK
    if args.verify:
        rep = verify(entry)
        payload["verify"] = [
            {
                "invariant": l.invariant,
                "provenance": l.provenance,
                "expected": str(l.expected),
                "got": str(l.got),
                "ok": l.ok,
            }
            for l in rep.lines
        ]
        lines.append(str(rep))
        if not rep.ok:
            status = FAIL
        if entry.name == "fake_base_space" and rep.ok:
            lines.append("non-realizable: obstruction Z/2 nonzero")
    if args.export:
        doc = _export_entry(entry)
        try:
            with open(args.export, "w", encoding="utf-8") as fh:
                fh.write(serialize.dumps(doc))
        except OSError as err:
            raise DocumentError("cannot write %s: %s" % (args.export, err.strerror or err)) from None
        lines.append("exported to %s" % args.export)
    _emit(args, payload, "\n".join(lines))
    return status


def _export_entry(entry):
    if entry.kind == "affine":
        doc = serialize.encode_document(complex=entry.payload.base, affine=entry.payload)
        if "polytope" in entry.extras:
            doc["polytope"] = serialize.encode_polytope(entry.extras["polytope"])
        return doc
    if entry.kind == "complex":
        return serialize.encode_document(complex=entry.payload)
    if entry.kind == "sheaf":
        X, F = entry.payload
        return serialize.encode_document(complex=X, sheaf=F)
    if entry.kind == "gluing":
        fb = entry.payload
        X, F = fb["piece_minus"]
        return serialize.encode_document(complex=X, sheaf=F)
    raise CatalogError("cannot export %s" % entry.name)


@lru_cache(None)
def _parser():
    """The argument parser, built once: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="torusbase",
        description=(
            "invariants of integral affine base spaces of singular Lagrangian "
            "torus fibrations"
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine readable output")
    sub = parser.add_subparsers(dest="verb")

    p = sub.add_parser("check", help="validate every section of a document")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("cohomology", help="sheaf cohomology of a document")
    p.add_argument("file")
    p.add_argument("--sheaf", default="document", help="document, R, Z, or Z^k")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--generators", action="store_true")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("monodromy", help="holonomy of the generating face loops")
    p.add_argument("file")
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("delzant", help="smoothness check of a polytope")
    p.add_argument("file")
    p.set_defaults(fn=cmd_delzant)

    p = sub.add_parser("moduli", help="symplectic moduli of an affine base")
    p.add_argument("file")
    p.set_defaults(fn=cmd_moduli)

    p = sub.add_parser("glue", help="pushout of two documents along shared cells")
    p.add_argument("file")
    p.add_argument("other")
    p.set_defaults(fn=cmd_glue)

    p = sub.add_parser("catalog", help="build, verify, export worked examples")
    p.add_argument("name", nargs="?")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--export", metavar="FILE")
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=cmd_catalog)
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return USAGE
    try:
        return args.fn(args)
    except TorusbaseError as err:
        print("error: %s" % err, file=sys.stderr)
        return USAGE if isinstance(err, DocumentError) else FAIL


if __name__ == "__main__":
    sys.exit(main())
