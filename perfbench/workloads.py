"""The four benchmark workloads: seeded inputs, timed call chains, goldens.

An *op* is one timed call chain into torusbase whose output is checked; a
*pass* is one complete instance of a workload, built from fresh objects so
that no cache inside a sheaf (differentials, offsets) carries over from the
previous pass.  Every input that varies is drawn from the run's seeded
``random.Random``, so the same seed gives the same inputs.

Why each workload exists, and which layer it stresses or bypasses:

sphere_moduli
    ``realizability_report_2d`` on sphere_24ff (42/120/80 cells, R-sheaf
    ranks 60/240/160, H^1(O,R) = Z^20), then a check that ``dhat`` is linear
    on classes: a seeded combination of three H^1 generators plus the
    coboundary of a seeded 0-cochain must map to the same combination of the
    generator images.  The Q path (``LinearSystem`` over Q, ``rref``,
    ``QuotientSpace``) and the dense I-differential product inside
    ``affine.dhat`` do most of the work.  Focus-focus vertices give
    non-invertible restriction maps, so Morse reduction cannot collapse
    everything here.
glued_3d
    ``glue`` the ``fake_base_space`` pieces, H^0..H^3 of the glued Z-sheaf
    (ranks 114/336/330/108) and ``gluing_obstruction`` with ``class_plus``
    shifted by the coboundary of a seeded overlap 1-cochain.  This is the Z
    path with torsion in three dimensions: ``snf``, ``hnf`` through
    ``preimage_lattice``, Z solves and ``PresentedGroup``.  No ``dhat``.
flat_torus_sweep
    A ladder of grid sizes n = 3..7 (n^2 faces), as one op that also
    reports the time of each size.  At each size, with a seeded Chern value
    m: ``chern_class_coordinates`` (must be (m, 0)), H^1(O,R) (must be Z^4)
    and ``lagrangian_moduli`` (must be (1, 1)).
    Every restriction map is invertible and the differentials are almost
    all zeros, so sparse elimination and Morse reduction show up here first,
    as a change in the scaling exponent rather than a constant factor.
catalog_cli
    Through ``cli.main`` in-process, for every light catalog entry (all but
    fake_base_space, which glued_3d covers) with seeded ``flat_torus:m`` and
    ``ff_disk:k``: ``catalog NAME --verify``, ``--export`` to a file,
    ``check`` that file and ``cohomology FILE --sheaf Z --degree 2``.  Many
    tiny matrices: ``exact`` does little, and the time goes to
    ``serialize``, ``complexes``, ``polytopes``, monodromy walks and CLI
    overhead.  A rewrite of the elimination core should leave it unchanged;
    per-call overhead added by such a rewrite shows up here.

Each workload has a ``full`` scale (the benchmark) and a ``smoke`` scale
(the smallest inputs that run the same call chains, for the benchmark's own
tests).  Goldens for both live in ``GOLDEN``; the ``full`` values are the
catalog goldens or values recorded at the seed commit.
"""

import contextlib
import io
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from torusbase import affine, catalog, cli, exact, sheaves, surgery


class Mismatch(Exception):
    """An op's output differs from its golden value."""


class SetupError(Exception):
    """A workload's inputs failed validation before any timing."""


def expect(what, got, want):
    if got != want:
        raise Mismatch("%s: expected %r, got %r" % (what, want, got))


GOLDEN = {
    "sphere_moduli": {
        "full": {"h2": "0", "moduli": (1, 1), "focus_focus": 24, "h1": "Z^20", "generators": 20, "c0_rank": 60},
        "smoke": {"h2": "Z^2", "moduli": (1, 1), "focus_focus": 0, "h1": "Z^4", "generators": 4, "c0_rank": 18},
    },
    "glued_3d": {
        "full": {
            "ranks": (114, 336, 330, 108),
            "groups": ("Z", "Z^3 ⊕ Z/2", "Z^2 ⊕ Z/2", "Z/2"),
            "obstruction": "Z/2",
            "coordinates": (1,),
        },
        "smoke": {
            "ranks": (9, 18, 9, 0),
            "groups": ("Z", "Z^2", "Z", "0"),
            "obstruction": "0",
            "coordinates": (),
        },
    },
    "flat_torus_sweep": {
        "full": {"sizes": (3, 4, 5, 6, 7), "h1": "Z^4", "moduli": (1, 1)},
        "smoke": {"sizes": (3, 4), "h1": "Z^4", "moduli": (1, 1)},
    },
    "catalog_cli": {
        # H^2 of the constant Z sheaf on each entry's complex, per CLI output
        "full": {
            "h2": {
                "cp2_triangle": "0",
                "ff_disk": "0",
                "flat_torus": "Z",
                "klein_affine": "Z/2",
                "kodaira_thurston": "Z",
                "rp2_12ff": "Z/2",
                "sphere_24ff": "Z",
                "torus_morse_graph": "0",
                "twisted_product_base": "Z",
            }
        },
        "smoke": {"h2": {"cp2_triangle": "0", "ff_disk": "0", "torus_morse_graph": "0"}},
    },
}


def rng_for(workload, seed):
    """The run's only source of varying inputs."""
    return random.Random("%s:%d" % (workload, seed))


def _intvec(values):
    return np.array([int(v) for v in values], dtype=object)


def _nonzero(rng, bound):
    return rng.choice([v for v in range(-bound, bound + 1) if v])


# ---------------------------------------------------------------------------
# sphere_moduli


def _sphere_surface(scale):
    if scale == "full":
        return catalog.build("sphere_24ff").payload
    return catalog.flat_torus_surface(1, size=3)


def sphere_setup(rng, scale, workdir):
    S = _sphere_surface(scale)
    rep = affine.validate_affine(S)
    if not rep.valid:
        raise SetupError("sphere surface invalid: %s" % rep)
    return {}


def sphere_pass(state, rng, scale):
    gold = GOLDEN["sphere_moduli"][scale]
    S = _sphere_surface(scale)
    picks = rng.sample(range(gold["generators"]), 3)
    coeffs = [_nonzero(rng, 3) for _ in picks]
    x0 = _intvec(rng.randint(-2, 2) for _ in range(gold["c0_rank"]))

    def op():
        rep = surgery.realizability_report_2d(S)
        expect("verdict", rep.verdict, "realizable")
        expect("H2(O,R)", rep.details["H2(O, R)"], gold["h2"])
        expect("moduli", tuple(rep.details["moduli (dim, lattice rank)"]), gold["moduli"])
        expect("focus_focus_points", rep.details["focus_focus_points"], gold["focus_focus"])
        R = affine.build_R_sheaf(S)
        _, ses = affine.build_I_sheaf(S)
        h1 = sheaves.cohomology(R, 1)
        expect("H1(O,R)", str(h1.group), gold["h1"])
        expect("rank C^0(R)", R.cochain_rank(0), gold["c0_rank"])
        gens = h1.generator_cocycles()
        expect("H1 generators", len(gens), gold["generators"])
        target = sheaves.cohomology(ses.i.source, 2)

        def image(cocycle):
            return affine.dhat(S, sheaves.CohomologyClass(R, 1, cocycle), ses, target=target)[1]

        images = [image(gens[i]) for i in picks]
        combo = R.differential(0).dot(x0)
        for c, i in zip(coeffs, picks):
            combo = combo + c * gens[i]
        want = tuple(sum(c * img[j] for c, img in zip(coeffs, images)) for j in range(len(images[0])))
        expect("dhat linearity", image(combo), want)

    return [("sphere_moduli", op)]


# ---------------------------------------------------------------------------
# glued_3d


def _small_gluing():
    """Two copies of a 3x3 grid torus glued along all of it (smoke scale)."""
    X1 = catalog.grid_torus_complex(3, 3)
    X2 = catalog.grid_torus_complex(3, 3)
    F1 = sheaves.constant_sheaf(X1, 1)
    shared = set(X1.cells)
    over1 = sheaves.subcomplex(X1, shared)
    spec = surgery.GluingSpec(
        complex1=X1,
        sheaf1=F1,
        complex2=X2,
        sheaf2=sheaves.constant_sheaf(X2, 1),
        overlap1=over1,
        overlap2=sheaves.subcomplex(X2, shared),
        cell_map={c: c for c in shared},
        stalk_isos={c: exact.eye(1) for c in shared},
    )
    over = sheaves.restrict_sheaf(F1, over1)
    gen = sheaves.cohomology(over, 2).generator_cocycles()[0]
    return {
        "spec": spec,
        "class_minus": sheaves.class_from_components(over, 2, {}),
        "class_plus": sheaves.CohomologyClass(over, 2, gen),
    }


def _gluing(scale):
    return catalog.fake_base_space() if scale == "full" else _small_gluing()


def glued_setup(rng, scale, workdir):
    bad = _gluing(scale)["spec"].validate()
    if bad:
        raise SetupError("gluing spec invalid: %s" % "; ".join(map(str, bad)))
    return {}


def glued_pass(state, rng, scale):
    gold = GOLDEN["glued_3d"][scale]
    fb = _gluing(scale)
    spec, minus, plus = fb["spec"], fb["class_minus"], fb["class_plus"]
    over = plus.sheaf
    y = _intvec(rng.randint(-2, 2) for _ in range(over.cochain_rank(1)))

    def op():
        _, F, _ = surgery.glue(spec)
        ranks = tuple(F.cochain_rank(k) for k in range(4))
        expect("cochain ranks", ranks, gold["ranks"])
        groups = [sheaves.cohomology(F, k).group for k in range(4)]
        expect("H^0..H^3", tuple(str(g) for g in groups), gold["groups"])
        # Euler characteristic: cochain ranks against free ranks of H^k
        expect(
            "euler characteristic",
            sum((-1) ** k * g.free_rank for k, g in enumerate(groups)),
            sum((-1) ** k * r for k, r in enumerate(ranks)),
        )
        shifted = sheaves.CohomologyClass(over, 2, plus.cocycle + over.differential(1).dot(y))
        rep = surgery.gluing_obstruction(spec, minus, shifted)
        expect("obstruction group", str(rep.group), gold["obstruction"])
        expect("obstruction element", tuple(rep.coordinates), gold["coordinates"])
        expect("obstruction nonzero", not rep.vanishes, any(gold["coordinates"]))

    return [("glued_3d", op)]


# ---------------------------------------------------------------------------
# flat_torus_sweep


def flat_setup(rng, scale, workdir):
    for n in GOLDEN["flat_torus_sweep"][scale]["sizes"]:
        S = catalog.flat_torus_surface(_nonzero(rng, 5), size=n)
        rep = affine.validate_affine(S)
        if not rep.valid:
            raise SetupError("flat torus of size %d invalid: %s" % (n, rep))
    return {}


def flat_pass(state, rng, scale):
    gold = GOLDEN["flat_torus_sweep"][scale]
    ladder = []
    for n in gold["sizes"]:
        m = _nonzero(rng, 5)
        ladder.append((n, m, catalog.flat_torus_surface(m, size=n)))

    def op():
        """The whole ladder; returns {faces: seconds} for the scaling fit."""
        times = {}
        for n, m, S in ladder:
            t0 = perf_counter()
            expect("chern at n=%d" % n, tuple(surgery.chern_class_coordinates(S)), (m, 0))
            expect("H1(O,R) at n=%d" % n, str(sheaves.cohomology(affine.build_R_sheaf(S), 1).group), gold["h1"])
            expect("moduli at n=%d" % n, tuple(affine.lagrangian_moduli(S)), gold["moduli"])
            times[n * n] = perf_counter() - t0
        return times

    return [("flat_torus_sweep", op)]


# ---------------------------------------------------------------------------
# catalog_cli


def catalog_setup(rng, scale, workdir):
    known = set(catalog.catalog_names())
    missing = sorted(set(GOLDEN["catalog_cli"][scale]["h2"]) - known)
    if missing:
        raise SetupError("catalog lacks entries %s" % ", ".join(missing))
    return {"dir": tempfile.mkdtemp(prefix="catalog_cli-", dir=workdir)}


def catalog_teardown(state):
    shutil.rmtree(state["dir"], ignore_errors=True)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise Mismatch("%s: exit %r, stderr %r" % (" ".join(argv), code, err.getvalue()[-200:]))
    return out.getvalue()


def _entry_ops(name, path, h2):
    """The four CLI ops on one catalog entry."""

    def verify():
        out = _cli(["catalog", name, "--verify"])
        if "catalog %s: all pass" % name not in out:
            raise Mismatch("catalog %s --verify: %r" % (name, out[-300:]))

    def export():
        out = _cli(["catalog", name, "--export", path])
        expect("export of %s" % name, out.rstrip().endswith("exported to %s" % path), True)

    def check():
        out = _cli(["check", path])
        expect("check of %s" % name, out.startswith("ok ("), True)

    def h2_z():
        out = _cli(["cohomology", path, "--sheaf", "Z", "--degree", "2"])
        expect("H^2(%s; Z)" % name, out.strip(), "H^2 = %s" % h2)

    return [("verify", verify), ("export", export), ("check", check), ("cohomology", h2_z)]


def catalog_pass(state, rng, scale):
    params = {"flat_torus": _nonzero(rng, 5), "ff_disk": rng.randint(1, 4)}
    ops = []
    for base, h2 in GOLDEN["catalog_cli"][scale]["h2"].items():
        name = "%s:%d" % (base, params[base]) if base in params else base
        ops += _entry_ops(name, os.path.join(state["dir"], "%s.json" % base), h2)
    return ops


@dataclass(frozen=True)
class Workload:
    setup: object  # (rng, scale, workdir) -> state; builds and validates inputs
    make_pass: object  # (state, rng, scale) -> [(label, op)], fresh inputs; an op may return {size: seconds}
    teardown: object = None  # (state) -> None


WORKLOADS = {
    "sphere_moduli": Workload(sphere_setup, sphere_pass),
    "glued_3d": Workload(glued_setup, glued_pass),
    "flat_torus_sweep": Workload(flat_setup, flat_pass),
    "catalog_cli": Workload(catalog_setup, catalog_pass, catalog_teardown),
}
