"""Each invariant once per object: a surface keeps its monodromy sheaf R, and
a sheaf keeps its cohomology per degree, with no reference cycle.

A ladder step of the flat torus asks three invariants of one surface, the
Chern class, H^1(O, R) and the moduli; R is built once for all three and
H^1(R) eliminated once.  What a sheaf keeps must not refer to the sheaf, or
the two are freed only by the cyclic garbage collector.
"""

import gc
import sys
import weakref

from torusbase import affine, sheaves
from torusbase.affine import build_R_sheaf, lagrangian_moduli, rechart
from torusbase.catalog import build, flat_torus_surface, verify
from torusbase.sheaves import cohomology, constant_sheaf
from torusbase.surgery import chern_class_coordinates, realizability_report_2d


def test_a_surface_keeps_its_monodromy_sheaf():
    S = flat_torus_surface(1, size=3)
    R = build_R_sheaf(S)
    assert build_R_sheaf(S) is R
    T = rechart(S, {})
    assert build_R_sheaf(T) is not R
    assert build_R_sheaf(T).restrictions.keys() == R.restrictions.keys()


def test_a_ladder_step_builds_R_once_and_eliminates_H1_once(monkeypatch):
    S = flat_torus_surface(2, size=3)
    builds, eliminated = [], []
    build, preimage = affine._build_R_sheaf, sheaves._preimage_rows

    def counting_build(surface):
        builds.append(surface)
        return build(surface)

    def counting_preimage(rows, n, target):
        eliminated.append(n)
        return preimage(rows, n, target)

    monkeypatch.setattr(affine, "_build_R_sheaf", counting_build)
    monkeypatch.setattr(sheaves, "_preimage_rows", counting_preimage)
    assert tuple(chern_class_coordinates(S)) == (2, 0)
    assert str(cohomology(build_R_sheaf(S), 1).group) == "Z^4"
    assert tuple(lagrangian_moduli(S)) == (1, 1)
    R = build_R_sheaf(S)
    assert builds == [S]
    # one elimination per degree: H^2(R) for the Chern class, H^1(R) once
    assert sorted(eliminated) == sorted([R.cochain_rank(2), R.cochain_rank(1)])
    assert R.cochain_rank(1) != R.cochain_rank(2)


def test_R_and_a_sheaf_with_its_cohomology_die_without_the_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        S = flat_torus_surface(1, size=3)
        assert tuple(lagrangian_moduli(S)) == (1, 1)  # R, H^1(R), R.constants and H^2(O; Q)
        R = build_R_sheaf(S)
        F = constant_sheaf(S.base, 1)
        h = cohomology(F, 1)
        assert len(h.generator_cocycles()) == 2
        refs = [weakref.ref(x) for x in (S, R, R.constants, F)]
        del S, R, F, h
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_a_returned_generator_is_the_callers_own():
    R = build_R_sheaf(flat_torus_surface(1, size=3))
    h = cohomology(R, 1)
    gens = h.generator_cocycles()
    want = [g.tolist() for g in gens]
    coords = [h.coordinates(g) for g in gens]
    for g in gens:
        g += 1
    again = cohomology(R, 1)
    assert [g.tolist() for g in again.generator_cocycles()] == want
    assert [again.coordinates(g) for g in again.generator_cocycles()] == coords
    assert [h.coordinates(g) for g in h.generator_cocycles()] == coords


def _count_calls(monkeypatch, module, name):
    """Calls to module.name, counted in every torusbase namespace holding it."""
    original, calls = getattr(module, name), []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod in list(sys.modules.values()):
        if mod.__name__.split(".")[0] == "torusbase" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_the_public_invariants_are_the_ones_asked(monkeypatch):
    from torusbase import surgery

    moduli = _count_calls(monkeypatch, affine, "lagrangian_moduli")
    chern = _count_calls(monkeypatch, surgery, "chern_class_coordinates")
    assert verify(build("flat_torus:3")).ok
    assert moduli and chern
    del moduli[:]
    realizability_report_2d(flat_torus_surface())
    assert len(moduli) == 1
