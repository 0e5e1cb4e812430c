"""Golden digests of the model layer.

Each model built from the toy instance is pinned by the SHA-256 of its
variables (name, kind, bounds, tag), constraints (name, terms in order,
sense, right-hand side, origin) and objective, and by the SHA-256 of its
MPS text.  Any change to variable or row order, to the order of the terms
inside a row, or to a name shows up here; a change to the model layer that
must not alter the models keeps these digests as they are.
"""

import hashlib

import pytest

from cttsolve.formulations import (DIVE_KINDS, PeriodAssignment,
                                   add_clique_cuts, add_implied_bound_cuts,
                                   add_pattern_cuts, build_dive,
                                   build_monolithic, build_surface,
                                   build_surface2, greedy_clique_cover)
from cttsolve.instance import build_conflict_graph
from cttsolve.milp import export_mps

GOLDEN = {
    "monolithic": (
        "6d58c330d216a9e0cb9f1506de5c1bb0e0871768ef46baf518e8f5619732911e",
        "04382fb2ac9bcd9859c7537d52bd94744c7cb9f386dd652ec6bdb2e0f86da8c6"),
    "surface": (
        "d098ae1fdafef5c7105bbcaebfe07f7f8c4d69e468486a2ffba5bd2d44be62ae",
        "45a6eae287f98cff867e2459f7a3bcf8753ca95380a6ae5fc859e81538d3beb6"),
    "surface2": (
        "037d168023473dcc5dc2148db8a0e4b5790060f637e13c65002a717a8c0593a4",
        "1807c879d45674f9b005cdc85873ee68a812965884ca5f02294965ff5f8ebf0b"),
    "period-fixed": (
        "d7423a7791ed87c2573729d941d414a48c4e7eacf19bb6ffc3ff72c81fd50369",
        "920d20b8296549164bb70595ea0784d3dc9fbf65198f49c734110bfbf34c5910"),
    "day-fixed": (
        "ec87fccf96c02f664b3c5f82f76fb6905373b240e546bf9c028ff476471cbc05",
        "dad0ab51922dc9ea113cb7d00349b86e9d4c11f6fa6225caf75aa8aa119fd92e"),
}


def model_digest(model) -> str:
    h = hashlib.sha256()
    for v in model.variables:
        h.update(repr((v.name, v.kind, v.lower, v.upper, v.tag)).encode())
        h.update(b"\n")
    for c in model.constraints:
        h.update(repr((c.name, c.terms, c.sense, c.rhs, c.origin)).encode())
        h.update(b"\n")
    h.update(repr((model.objective_terms, model.objective_constant)).encode())
    return h.hexdigest()


def with_cuts(model, instance):
    graph = build_conflict_graph(instance)
    add_clique_cuts(model, greedy_clique_cover(graph), graph)
    add_implied_bound_cuts(model)
    add_pattern_cuts(model)
    return model


BASIS = PeriodAssignment({
    "c1": frozenset({1, 2, 3}),
    "c2": frozenset({4, 5}),
    "c3": frozenset({4, 5}),
})


def build(name, instance):
    if name == "monolithic":
        return with_cuts(build_monolithic(instance), instance)
    if name == "surface":
        return with_cuts(build_surface(instance), instance)
    if name == "surface2":
        return with_cuts(build_surface2(instance), instance)
    # a dive as the strategies build it, from the surface's period
    # assignment: restrict, then implied-bound cuts
    model = build_dive(build_monolithic(instance).freeze(), name, BASIS)
    add_implied_bound_cuts(model)
    return model


@pytest.mark.parametrize("name", ["monolithic", "surface", "surface2",
                                  *DIVE_KINDS])
def test_model_digest(name, toy_instance):
    model = build(name, toy_instance)
    text = export_mps(model)
    got = (model_digest(model), hashlib.sha256(text.encode()).hexdigest())
    assert got == GOLDEN[name]
