"""Print every canonical coordinate torusbase computes, for a byte-for-byte diff.

A change that must not move any answer (a refactor or a speed-up) is checked
by running this script in two checkouts and comparing the outputs:

    PYTHONHASHSEED=0 python3 tools/identity_dump.py > new.txt
    (cd ../parent && PYTHONHASHSEED=0 python3 tools/identity_dump.py) > old.txt
    cmp old.txt new.txt

The script imports the package from the ``src/`` next to it, so each
checkout dumps its own code.  For every catalog entry (R for affine entries,
the entry's own sheaf for sheaf entries, then constant Q, Z and Z/2) and for
the glued sheaf of ``fake_base_space`` it prints, in every degree: the group,
the coordinate orders, the relations, the generator cocycles, and the
presentation coefficients and coordinates of seeded combinations of the
generators shifted by seeded coboundaries.  Affine entries add the moduli,
the Chern coordinates and the realizability report; ``fake_base_space`` adds
the gluing obstruction, also for seeded coboundary shifts of its class.
"""

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from torusbase.affine import build_R_sheaf, lagrangian_moduli  # noqa: E402
from torusbase.catalog import build, catalog_names  # noqa: E402
from torusbase.sheaves import CohomologyClass, cohomology, constant_sheaf  # noqa: E402
from torusbase.surgery import (  # noqa: E402
    chern_class_coordinates,
    glue,
    gluing_obstruction,
    realizability_report_2d,
)


def fmt(v):
    return "[%s]" % " ".join(str(x) for x in v)


def dump_relations(h):
    P = h.presentation
    if hasattr(P, "relations"):
        return [fmt(r) for r in P.relations]
    # QuotientSpace: its reduced row echelon form, row by pivot
    return ["%d: %s" % (p, sorted((c, str(v)) for c, v in row.items())) for p, row in P._rows.items()]


def dump_sheaf(label, F, seed, out):
    rng = random.Random(seed)
    for k in range(F.base.dimension + 1):
        h = cohomology(F, k)
        out.append("%s H^%d = %s orders %s" % (label, k, h.group, h.presentation.coordinate_orders()))
        out.extend("  rel " + r for r in dump_relations(h))
        gens = h.generator_cocycles()
        out.extend("  gen " + fmt(g) for g in gens)
        for _ in range(3):
            v = F.zero_cochain(k)
            for g in gens:
                v = v + rng.randint(-3, 3) * g
            if k >= 1 and F.cochain_rank(k - 1):
                c = F.zero_cochain(k - 1)
                for i in range(len(c)):
                    c[i] = c[i] + rng.randint(-2, 2)
                v = v + F.coboundary(k - 1, c)
            coef = h.to_presentation_coords(v)
            out.append("  coef %s -> %s" % (fmt(coef), tuple(str(x) for x in h.coordinates(v))))


def constants(X):
    return [
        ("Q", constant_sheaf(X, 1, "Q")),
        ("Z", constant_sheaf(X, 1)),
        ("Z/2", constant_sheaf(X, 1, "Z", moduli=(2,))),
    ]


def dump_entry(name, out):
    entry = build(name)
    out.append("== %s (%s)" % (name, entry.kind))
    if entry.kind == "affine":
        S = entry.payload
        sheaves = [("R", build_R_sheaf(S))] + constants(S.base)
    elif entry.kind == "complex":
        sheaves = constants(entry.payload)
    elif entry.kind == "sheaf":
        X, F = entry.payload
        sheaves = [("sheaf", F)] + constants(X)
    else:
        X, F = entry.payload["piece_minus"]
        sheaves = [("piece_minus", F)] + constants(X)
    for i, (label, F) in enumerate(sheaves):
        dump_sheaf(label, F, 1000 * len(name) + i, out)
    if entry.kind == "affine":
        S = entry.payload
        out.append("moduli %s" % (lagrangian_moduli(S),))
        out.append("chern %s" % (tuple(str(c) for c in chern_class_coordinates(S)),))
        out.append(str(realizability_report_2d(S)))
    elif entry.kind == "sheaf":
        out.append(str(realizability_report_2d(entry.payload)))
    elif entry.kind == "gluing":
        dump_gluing(entry.payload, out)


def dump_gluing(fb, out):
    spec, minus, plus = fb["spec"], fb["class_minus"], fb["class_plus"]
    Z, F, _ = glue(spec)
    dump_sheaf("glued", F, 7, out)
    out.append(str(realizability_report_2d((Z, F))))
    over = plus.sheaf
    rng = random.Random(11)
    out.append(str(gluing_obstruction(spec, minus, plus)))
    for _ in range(4):
        y = over.zero_cochain(1)
        for i in range(len(y)):
            y[i] = y[i] + rng.randint(-2, 2)
        shifted = CohomologyClass(over, 2, plus.cocycle + over.coboundary(1, y))
        out.append(str(gluing_obstruction(spec, minus, shifted)))


def main():
    out = []
    for name in catalog_names():
        dump_entry(name, out)
    sys.stdout.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
