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

The affine section follows, for every affine entry, flat_torus:1..3 at sizes
3..5, ff_disk:1..3 and seeded rechartings with half-integer translations: the
star-walk transports and the wheel of every vertex, the monodromy images,
the fixed covector at every focus-focus vertex, the boundary word holonomy,
the validation report and the dhat image of every H^1 generator.  Matrices
and vectors print with repr, so an int where a Fraction was (or the reverse)
shows as a difference.
"""

import os
import random
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from torusbase.affine import (  # noqa: E402
    boundary_word_holonomy,
    build_I_sheaf,
    build_R_sheaf,
    dhat,
    fixed_covector,
    lagrangian_moduli,
    monodromy_rep,
    rechart,
    star_transports,
    validate_affine,
    vertex_wheel,
)
from torusbase.catalog import (  # noqa: E402
    build,
    catalog_names,
    ff_disk_surface,
    flat_torus_surface,
    klein_affine_surface,
)
from torusbase.errors import TorusbaseError  # noqa: E402
from torusbase.exact import eye, fracvec  # noqa: E402
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


def show(m):
    """repr of a numpy (A, t) pair or matrix, entry types included."""
    if isinstance(m, tuple):
        return repr((m[0].tolist(), m[1].tolist()))
    return repr(m.tolist())


def affine_surfaces():
    for name in catalog_names():
        entry = build(name)
        if entry.kind == "affine":
            yield name, entry.payload
    for m in (1, 2, 3):
        for size in (3, 4, 5):
            yield "flat_torus:%d size %d" % (m, size), flat_torus_surface(m, size=size)
    for k in (1, 2, 3):
        yield "ff_disk:%d" % k, ff_disk_surface(k)
    rng = random.Random(47)
    for label, surface in (
        ("ff_disk:2", lambda: ff_disk_surface(2)),
        ("flat_torus:2 size 3", lambda: flat_torus_surface(2, size=3)),
        ("klein_affine", klein_affine_surface),
    ):
        S = surface()
        for i in range(3):
            maps = {}
            for f in S.base.cells_of_dim(2):
                U = eye(2)
                U[0, 1] = rng.randint(-2, 2)
                if rng.random() < 0.5:
                    U = U.T
                c = fracvec([Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 2)])
                maps[f] = (U, c)
            yield "%s recharted %d" % (label, i), rechart(S, maps)


def dump_affine(label, S, out):
    out.append("== affine %s" % label)
    out.append("validate %s" % (validate_affine(S),))
    for v in S.base.cells_of_dim(0):
        faces, edges, closed, T = star_transports(S, v)
        out.append("star %s faces %s closed %s" % (v, faces, closed))
        out.extend("  T " + show(m) for m in T)
        wheel = vertex_wheel(S, v)
        out.append("  wheel %s" % (None if wheel is None else show(wheel),))
        if S.mark(v).kind == "focus_focus":
            xi = fixed_covector(wheel[0])
            out.append("  fixed covector %s" % (None if xi is None else repr(xi.tolist()),))
    rep = monodromy_rep(S)
    for loop, M in zip(rep.loops, rep.images):
        out.append("monodromy %s %s %s" % (loop.kind, loop.about, show(M)))
    try:
        out.append("boundary word holonomy %s" % (show(boundary_word_holonomy(S)),))
    except TorusbaseError as exc:
        out.append("boundary word holonomy: %s: %s" % (type(exc).__name__, exc))
    R = build_R_sheaf(S)
    _, ses = build_I_sheaf(S)
    target = cohomology(ses.i.source, 2)
    for g in cohomology(R, 1).generator_cocycles():
        _, coords = dhat(S, CohomologyClass(R, 1, g), ses, target=target)
        out.append("dhat %s -> %r" % (fmt(g), coords))


def main():
    out = []
    for name in catalog_names():
        dump_entry(name, out)
    for label, S in affine_surfaces():
        dump_affine(label, S, out)
    sys.stdout.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
