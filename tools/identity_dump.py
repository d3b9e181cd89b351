"""Print every canonical coordinate torusbase computes, for a byte-for-byte diff.

A change that must not move any answer (a refactor or a speed-up) is checked
by running this script in two checkouts and comparing the outputs:

    PYTHONHASHSEED=0 python3 tools/identity_dump.py > new.txt
    (cd ../parent && PYTHONHASHSEED=0 python3 tools/identity_dump.py) > old.txt
    cmp old.txt new.txt

The script imports the package from the ``src/`` next to it, and the dense
wrappers ``lattice_hnf`` and ``rref`` from ``tests/reference.py``, so each
checkout dumps its own code.  For every catalog entry (R for affine entries,
the entry's own sheaf for sheaf entries, then constant Q, Z and Z/2) and for
the glued sheaf of ``fake_base_space`` it prints, in every degree: the group,
the coordinate orders, the relations, the generator cocycles, and the
presentation coefficients and coordinates of seeded combinations of the
generators shifted by seeded coboundaries, and the echelon form of the rows
of the transposed differential d_k^T: ``lattice_hnf`` over Z, ``rref`` with
its pivot columns over Q, one line per nonzero row, its nonzero entries by
column.  Affine entries add the moduli,
the Chern coordinates and the realizability report; ``fake_base_space`` adds
the document (complex and sheaf, as ``encode_document`` writes it) of the
glued sheaf and of both pieces, every stalk iso of its gluing spec and its
inverse (by repr), and the gluing obstruction, also for seeded coboundary
shifts of its class.

The affine section follows, for every affine entry, flat_torus:1..3 at sizes
3..5, ff_disk:1..3 and seeded rechartings with half-integer translations: the
star-walk transports and the wheel of every vertex, the monodromy images,
the fixed covector at every focus-focus vertex, the boundary word holonomy,
the validation report and the dhat image of every H^1 generator.  Matrices
and vectors print with repr, so an int where a Fraction was (or the reverse)
shows as a difference.

The maps section covers the sequence 0 -> Q -> I -> R_Q -> 0 of every affine
entry, and a mod-2 and a mod-3 Bockstein sequence and a split sequence on the
base complex of every catalog entry (both pieces of ``fake_base_space``).  For
each it prints the validation report, the canonical coordinates of every
column of every connecting map (also with seeded randomized lifts), the
image dimension and surjectivity of every map of the long exact sequence,
rank and (over Z) torsion exactness at every group of it, and is_cocycle of
seeded vectors.  Then the restriction maps on cohomology into the overlaps
of ``fake_base_space`` and the report of its gluing spec.  Raw connecting-map
matrices are not printed: they hold the coefficients of a representative,
which may move with the lift; the canonical coordinates may not.

The automorphism section prints, for -1 on the constant Z sheaf of every
catalog base complex (both pieces of ``fake_base_space``) and for the quarter
rotation of ``flat_torus`` on R, whose cell map is not the identity, the
canonical coordinates of the push of every H^k generator.

The rational section eliminates seeded rational matrices (denominators up
to 6, some with zero rows, zero columns and dependent rows), so elimination
over Q meets entries that are not integers: for each it prints ``rref``
(rows and pivot columns), ``q_rank``, the ``QuotientSpace`` coordinates of
seeded rational vectors, and a ``LinearSystem`` solve over Q of a solvable
and of a seeded right-hand side.

The CLI section runs ``torusbase.cli.main`` in-process for every light
catalog entry (all but ``fake_base_space``), flat_torus:-2, 2 and 3 and
ff_disk:2 and 3, and prints the bytes of its ``catalog NAME --export`` file
and the stdout of ``catalog NAME --verify``; then the bytes of the
``fake_base_space`` piece export.  For every export it prints the exit code,
stdout and stderr of ``monodromy``, ``check`` and ``cohomology --sheaf Z
--degree 2`` on the file, and of ``moduli`` on every export with an affine
section, so the document encoder, writer and decoder run on every shape of
document.  Last come the exit code, stdout and stderr of ``catalog
sphere_24ff:2``, a parameter on an entry that takes none.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from reference import lattice_hnf, rref  # noqa: E402
from torusbase import serialize  # noqa: E402
from torusbase.affine import (  # noqa: E402
    boundary_word_holonomy,
    build_I_sheaf,
    build_R_sheaf,
    dhat,
    dual_matrix,
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
from torusbase.cli import main as cli_main  # noqa: E402
from torusbase.complexes import edge_between  # noqa: E402
from torusbase.errors import TorusbaseError  # noqa: E402
from torusbase.exact import (  # noqa: E402
    LinearSystem,
    QuotientSpace,
    eye,
    fracmat,
    fracvec,
    intmat,
    q_rank,
    unimodular_inverse,
)
from torusbase.sheaves import (  # noqa: E402
    CohomologyClass,
    SheafAutomorphism,
    SheafMap,
    ShortExactSequence,
    automorphism_action,
    cohomology,
    connecting_map,
    constant_sheaf,
    image_dimension,
    rank_exact_at,
    restriction_on_cohomology,
    torsion_exact_at,
)
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
        D = F.differential(k).T
        if F.ring == "Z":
            out.extend("  hnf d^T " + nonzeros(r) for r in lattice_hnf(D))
        else:
            E, pivots = rref(D)
            out.append("  rref d^T pivots %s" % (pivots,))
            out.extend("  rref d^T " + nonzeros(r) for r in E[:len(pivots)])


def nonzeros(row):
    """The nonzero entries of a matrix row as column:repr pairs."""
    return " ".join("%d:%r" % (c, v) for c, v in enumerate(row) if v != 0)


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
    for label, (X, G) in (("glued", (Z, F)), ("minus", fb["piece_minus"]), ("plus", fb["piece_plus"])):
        doc = serialize.encode_document(complex=X, sheaf=G)
        out.append("document %s\n%s" % (label, serialize.dumps(doc)))
    for c in sorted(spec.stalk_isos, key=repr):
        J = spec.stalk_isos[c]
        out.append("iso %r %s inverse %s" % (c, show(J), show(unimodular_inverse(J))))
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


def bockstein(X, m):
    """0 -> Z -m-> Z -> Z/m -> 0 on the complex X."""
    A, B = constant_sheaf(X, 1), constant_sheaf(X, 1)
    C = constant_sheaf(X, 1, "Z", moduli=(m,))
    i = SheafMap(A, B, {c: intmat([[m]]) for c in X.cells})
    p = SheafMap(B, C, {c: intmat([[1]]) for c in X.cells})
    return ShortExactSequence(i=i, p=p)


def split(X):
    """0 -> Z -> Z^2 -> Z -> 0 on the complex X, first summand in."""
    A, B, C = constant_sheaf(X, 1), constant_sheaf(X, 2), constant_sheaf(X, 1)
    i = SheafMap(A, B, {c: intmat([[1], [0]]) for c in X.cells})
    p = SheafMap(B, C, {c: intmat([[0, 1]]) for c in X.cells})
    return ShortExactSequence(i=i, p=p)


def catalog_bases(entry):
    """(label suffix, complex) for the base complex of a catalog entry, or
    both pieces of a gluing entry."""
    if entry.kind == "affine":
        return [("", entry.payload.base)]
    if entry.kind == "complex":
        return [("", entry.payload)]
    if entry.kind == "sheaf":
        return [("", entry.payload[0])]
    return [(" " + piece, entry.payload[piece][0]) for piece in ("piece_minus", "piece_plus")]


def map_sequences():
    for name in catalog_names():
        entry = build(name)
        if entry.kind == "affine":
            yield "%s I" % name, build_I_sheaf(entry.payload)[1]
        for piece, X in catalog_bases(entry):
            yield "%s%s mod 2" % (name, piece), bockstein(X, 2)
            yield "%s%s mod 3" % (name, piece), bockstein(X, 3)
            yield "%s%s split" % (name, piece), split(X)


def columns(f):
    """The canonical coordinates of every column of an induced map."""
    P = f.target.presentation
    return [tuple(str(x) for x in P.reduce(f.matrix[:, j])) for j in range(f.matrix.shape[1])]


def dump_map(label, f, out):
    out.append("  %s dim %d onto %s" % (label, image_dimension(f), f.is_surjective()))
    out.extend("    col %s" % (c,) for c in columns(f))


def dump_sequence(label, ses, seed, out):
    out.append("== maps %s" % label)
    out.append("validate %s" % (ses.validate(),))
    A, B, C = ses.A, ses.B, ses.C
    top = B.base.dimension
    res = lru_cache(None)(cohomology)
    rng = random.Random(seed)
    les = []
    for k in range(top + 1):
        les.append(("i%d" % k, ses.i.induced(res(A, k), res(B, k))))
        les.append(("p%d" % k, ses.p.induced(res(B, k), res(C, k))))
        if k < top:
            delta = connecting_map(ses, k, check=False)
            for s in range(2):
                moved = connecting_map(ses, k, rng=random.Random(seed + s), check=False)
                out.append("  delta%d lift %d %s" % (k, s, columns(moved) == columns(delta)))
            les.append(("delta%d" % k, delta))
    for name, f in les:
        dump_map(name, f, out)
    for (nf, f), (ng, g) in zip(les, les[1:]):
        exact = [rank_exact_at(f, g)]
        if A.ring == "Z":
            exact.append(torsion_exact_at(f, g))
        out.append("  exact at %s|%s %s" % (nf, ng, exact))
    for F, tag in ((A, "A"), (B, "B"), (C, "C")):
        for k in range(top + 1):
            gens = res(F, k).generator_cocycles()
            flags = []
            for trial in range(4):
                v = F.zero_cochain(k)
                for g in gens:
                    v = v + rng.randint(-2, 2) * g
                if trial % 2:
                    for j in range(len(v)):
                        if rng.random() < 0.3:
                            v[j] = v[j] + rng.randint(-1, 1)
                flags.append(F.is_cocycle(k, v))
            out.append("  cocycle %s%d %s" % (tag, k, flags))


def dump_overlaps(out):
    spec = build("fake_base_space").payload["spec"]
    out.append("== maps fake_base_space overlaps")
    out.append("spec %s" % (spec.validate(),))
    for F, sub, tag in ((spec.sheaf1, spec.overlap1, "1"), (spec.sheaf2, spec.overlap2, "2")):
        for k in range(sub.dimension + 1):
            f, _ = restriction_on_cohomology(F, sub, k)
            dump_map("restrict%s H^%d" % (tag, k), f, out)


def flat_torus_rotation():
    """The quarter rotation of flat_torus on R, with a cell map that is not
    the identity: vertex (i, j) goes to (-j, i), face (i, j) to (-j - 1, i)."""
    S = flat_torus_surface()
    n = 3

    def rot(c):
        if c[0] == "v":
            return ("v", -c[2] % n, c[1])
        if c[0] == "f":
            return ("f", (-c[2] - 1) % n, c[1])
        return edge_between(rot(c[1]), rot(c[2]))

    D = dual_matrix(intmat([[0, -1], [1, 0]]))
    return SheafAutomorphism(build_R_sheaf(S), {c: rot(c) for c in S.base.cells}, {c: D for c in S.base.cells})


def automorphisms():
    """-1 on the constant Z sheaf of every catalog base, then the flat torus rotation."""
    for name in catalog_names():
        for piece, X in catalog_bases(build(name)):
            minus = {c: intmat([[-1]]) for c in X.cells}
            yield "%s%s -1" % (name, piece), SheafAutomorphism(constant_sheaf(X, 1), {c: c for c in X.cells}, minus)
    yield "flat_torus rotation", flat_torus_rotation()


def dump_automorphism(label, aut, out):
    """The canonical coordinates of the push of every H^k generator."""
    F = aut.sheaf
    out.append("== automorphism %s valid %s" % (label, aut.validate().valid))
    for k in range(F.base.dimension + 1):
        h = cohomology(F, k)
        for g in h.generator_cocycles():
            moved = automorphism_action(aut, CohomologyClass(F, k, g))
            out.append("  H^%d %s -> %s" % (k, fmt(g), tuple(str(x) for x in h.coordinates(moved.cocycle))))


def rational_matrices():
    """Seeded rational matrices, entries with denominators 1..6, some with
    zero rows, zero columns and rows that depend on others, each with the
    rng that draws its probes."""
    rng = random.Random(900)
    for i in range(150):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
            for _ in range(m)
        ]
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            a, b, c = rng.randrange(m), rng.randrange(m), rng.randrange(m)
            if kind == 0:
                rows[a] = [Fraction(0)] * n
            elif kind == 1:
                col = rng.randrange(n)
                for r in rows:
                    r[col] = Fraction(0)
            else:
                f = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                rows[a] = [f * x + y for x, y in zip(rows[b], rows[c])]
        yield "rational %d" % i, fracmat(rows), random.Random(1000 + i)


def dump_rational(label, M, rng, out):
    m, n = M.shape
    E, pivots = rref(M)
    out.append("== %s %dx%d q_rank %d pivots %s" % (label, m, n, q_rank(M), pivots))
    out.extend("  rref " + nonzeros(r) for r in E[:len(pivots)])
    Q = QuotientSpace(n, M)
    for _ in range(3):
        x = fracvec([Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)])
        out.append("  coords %s -> %s" % (fmt(x), tuple(str(v) for v in Q.reduce(x))))
    # M x for a seeded x is solvable; a seeded b need not be
    x = fracvec([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])
    for b in (M.dot(x), fracvec([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)])):
        y = LinearSystem(M).solve(b, "Q")
        out.append("  solve %s -> %s" % (fmt(b), None if y is None else [repr(v) for v in y]))


def run_cli(argv):
    """(exit code, stdout, stderr) of the CLI on argv."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def dump_cli(out):
    light = [name for name in catalog_names() if name != "fake_base_space"]
    light += ["flat_torus:-2", "flat_torus:2", "flat_torus:3", "ff_disk:2", "ff_disk:3"]
    with tempfile.TemporaryDirectory() as tmp:
        for name in light + ["fake_base_space"]:
            path = os.path.join(tmp, "%s.json" % name.replace(":", "_"))
            run_cli(["catalog", name, "--export", path])
            with open(path, encoding="utf-8") as fh:
                out.append("== cli %s export\n%s" % (name, fh.read()))
            if name in light:
                out.append("== cli %s verify\n%s" % (name, run_cli(["catalog", name, "--verify"])[1]))
            verbs = [["monodromy"], ["check"], ["cohomology", "--sheaf", "Z", "--degree", "2"]]
            with open(path, encoding="utf-8") as fh:
                if "affine" in json.load(fh):
                    verbs.append(["moduli"])
            for argv in verbs:
                code, stdout, stderr = run_cli(argv[:1] + [path] + argv[1:])
                out.append("== cli %s %s exit %d\n%s%s" % (name, argv[0], code, stdout, stderr))
    for argv in (["catalog", "sphere_24ff:2"],):
        out.append("== cli %s exit %d\n%s%s" % ((" ".join(argv),) + run_cli(argv)))


def main():
    out = []
    for name in catalog_names():
        dump_entry(name, out)
    for label, S in affine_surfaces():
        dump_affine(label, S, out)
    for n, (label, ses) in enumerate(map_sequences()):
        dump_sequence(label, ses, 500 + n, out)
    dump_overlaps(out)
    for label, aut in automorphisms():
        dump_automorphism(label, aut, out)
    for label, M, rng in rational_matrices():
        dump_rational(label, M, rng, out)
    dump_cli(out)
    sys.stdout.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
