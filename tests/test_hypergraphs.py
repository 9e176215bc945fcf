from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import runpy
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import FIXTURES
from helpers import (
    CORPUS,
    pencil_of,
    planted_witness_doc,
    pool_doc,
    random_pencil,
    reference_certify_general,
    reference_unbalanced,
)
from tropsdp.errors import CirculationExists, DimensionTooLarge, NotMetzler
from tropsdp import canonical_lift, hypergraphs, pencils
from tropsdp.hypergraphs import (
    Certificate,
    Edge,
    Hypergraph,
    Witness,
    _candidate_edges,
    build_tangent_hypergraph,
    certify_generic_general,
    farkas_direction,
    find_circulation,
    perturb_to_interior,
    result_to_obj,
)
from tropsdp.pencils import (
    SigmaChoice,
    _lattice as pencils_lattice,
    _sides as pencils_sides,
    decompose,
    general_member,
    load_pencil,
    metzler_strict_member,
    pencil_from_obj,
    stratum_restrict,
)
from tropsdp.polynomials import tropicalize
from tropsdp.puiseux import PuiseuxPoly as P, SeriesPolynomial, sval
from tropsdp.signed import neg, pos

Z = F(0)


@pytest.fixture(scope="module")
def hyp():
    return load_pencil(FIXTURES / "line_pencil.json")[0]


@pytest.fixture(scope="module")
def poly9():
    return load_pencil(FIXTURES / "polygon9.json")[0]


@pytest.fixture(scope="module")
def quad_ray():
    return load_pencil(FIXTURES / "quadrant_ray.json")[0]


def edge_set(graph):
    return {(e.tails, e.head) for e in graph.edges}


# a 2x2 matrix with Q_00 + Q_11 = 2|Q_01| (degenerate order-2 minor)
DEGENERATE = {(0, 0, 0): "+1", (0, 1, 1): "+3", (0, 0, 1): "-2"}


def test_tangent_hypergraph_examples(hyp):
    g = build_tangent_hypergraph(hyp, (Z, Z, Z))
    assert edge_set(g) == {((0,), 1), ((0,), 2), ((1, 2), 0)}
    assert build_tangent_hypergraph(hyp, (Z, F(-1), F(-1))).edges == ()
    degen = pencil_of(2, 2, {**DEGENERATE, (1, 0, 0): "+0", (1, 1, 1): "+0"})
    g2 = build_tangent_hypergraph(degen, (F(10), Z))
    assert ((0, 0), 0) in edge_set(g2)


def test_tangent_hypergraph_preconditions(hyp, quad_ray):
    with pytest.raises(NotMetzler):
        build_tangent_hypergraph(quad_ray, (Z, Z, Z))
    from tropsdp.signed import MINUS_INF

    with pytest.raises(ValueError):
        build_tangent_hypergraph(hyp, (Z, Z, MINUS_INF))


def test_find_circulation_examples(hyp):
    g = build_tangent_hypergraph(hyp, (Z, Z, Z))
    circ = find_circulation(g)
    assert circ is not None
    assert sum(circ.gamma) == 1 and all(v >= 0 for v in circ.gamma)
    self_loop = Hypergraph(1, (Edge((0, 0), 0),))
    got = find_circulation(self_loop)
    assert got is not None and got.gamma == (F(1),)
    single = Hypergraph(2, (Edge((0,), 1),))
    assert find_circulation(single) is None


def test_farkas_examples(hyp):
    assert farkas_direction(Hypergraph(3, ())) == (Z, Z, Z)
    single = Hypergraph(2, (Edge((0,), 1),))
    eta = farkas_direction(single)
    assert eta is not None and eta[0] > eta[1]
    g = build_tangent_hypergraph(hyp, (Z, Z, Z))
    assert farkas_direction(g) is None


def test_exactly_one_of_circulation_or_direction():
    rng = random.Random(41)
    all_edges = [
        Edge(tuple(sorted(t)), h)
        for t in list(itertools.product(range(3), repeat=1))
        + list(itertools.combinations_with_replacement(range(3), 2))
        for h in range(3)
    ]
    for _ in range(300):
        combo = tuple(
            sorted(
                rng.sample(all_edges, rng.randint(0, 4)),
                key=lambda e: (len(e.tails), e.tails, e.head),
            )
        )
        g = Hypergraph(3, combo)
        circ = find_circulation(g)
        eta = farkas_direction(g)
        assert (circ is None) != (eta is None)
        if eta is not None:
            for e in g.edges:
                assert sum(eta[v] for v in e.tails) > len(e.tails) * eta[e.head]


def test_one_pass_balance_matches_vertex_sums():
    rng = random.Random(61)
    verdicts = {True: 0, False: 0}
    repeated = 0
    for _ in range(400):
        nv = rng.randint(1, 5)
        edges = tuple(
            Edge(tuple(sorted(rng.choices(range(nv), k=rng.randint(1, 2)))), rng.randrange(nv))
            for _ in range(rng.randint(1, 7))
        )
        h = Hypergraph(nv, edges)
        circ = find_circulation(h)
        weights = [tuple(F(rng.randint(0, 3), rng.randint(1, 3)) for _ in edges)]
        if circ is not None:
            # balanced, and with one edge's weight raised
            k = rng.randrange(len(edges))
            weights += [circ.gamma, circ.gamma[:k] + (circ.gamma[k] + 1,) + circ.gamma[k + 1 :]]
            repeated += any(
                g and len(set(e.tails)) < len(e.tails) for e, g in zip(edges, circ.gamma)
            )
        for gamma in weights:
            want = reference_unbalanced(h, gamma)
            assert hypergraphs._unbalanced(h, gamma) == want, (h, gamma)
            verdicts[want is None] += 1
    assert min(verdicts.values()) > 50 and repeated > 5


def _minimal_circulating(h):
    """find_circulation's circulation of h when no proper subset of its
    edges circulates, else None."""
    circ = find_circulation(h)
    if circ is None:
        return None
    for k in range(len(h.edges)):
        if find_circulation(Hypergraph(h.n_vertices, h.edges[:k] + h.edges[k + 1 :])):
            return None
    return circ


def _generated(edges, size, n_vertices):
    """Everything the search's generator yields for edges at this size."""
    columns = list(zip(*hypergraphs._balance_rows(edges, range(n_vertices))))
    return list(hypergraphs._circulating_sets(edges, size, columns))


def test_circulating_sets_kernel_matches_lp():
    # one edge per active vertex as head, tails among the active vertices:
    # the generator yields the whole set exactly when it is a minimal
    # circulating set, and then with the LP's circulation, scaled
    rng = random.Random(62)
    seen = {"minimal": 0, "not minimal": 0, "self-loop": 0, "doubled tail": 0}
    for _ in range(400):
        nv = rng.randint(1, 6)
        active = sorted(rng.sample(range(nv), rng.randint(1, min(nv, 4))))
        edges = tuple(
            Edge(tuple(sorted(rng.choices(active, k=rng.randint(1, 2)))), head)
            for head in rng.sample(active, len(active))
        )
        h = Hypergraph(nv, edges)
        found = _generated(edges, len(edges), nv)
        circ = _minimal_circulating(h)
        assert bool(found) == (circ is not None), (h, found, circ)
        if not found:
            seen["not minimal"] += 1
            continue
        seen["minimal"] += 1
        [(combo, gamma)] = found
        assert combo == tuple(range(len(edges)))
        assert all(type(g) is int and g > 0 for g in gamma)
        assert tuple(F(g, sum(gamma)) for g in gamma) == circ.gamma
        assert hypergraphs._unbalanced(h, gamma) is None
        seen["self-loop"] += any(e.head in e.tails for e in edges)
        seen["doubled tail"] += any(e.tails[0] == e.tails[-1] != e.head for e in edges)
    assert min(seen.values()) > 30, seen


def test_minimal_circulating_sets_have_distinct_heads_exhaustive():
    # criterion 7's 3-vertex hypergraphs: each inclusion-minimal circulating
    # set has as many edges as active vertices, and distinct heads; and the
    # generator yields nothing on a head-covering set (distinct heads, tails
    # among them) that contains a circulating proper subset, so the search
    # needs no registry of the minimal sets it has found
    vertices = 3
    candidates = [
        Edge(tails, head)
        for tails in [(v,) for v in range(vertices)]
        + list(itertools.combinations_with_replacement(range(vertices), 2))
        for head in range(vertices)
    ]
    circulating: set = set()
    sizes = []
    covering = 0
    for size in range(1, 5):
        for combo in itertools.combinations(candidates, size):
            if any(combo[:k] + combo[k + 1 :] in circulating for k in range(size)):
                circulating.add(combo)  # circulates, but is not minimal
                heads = [e.head for e in combo]
                if len(set(heads)) == size and {v for e in combo for v in e.tails} <= set(heads):
                    assert _generated(combo, size, vertices) == [], combo
                    covering += 1
                continue
            circ = find_circulation(Hypergraph(vertices, combo))
            if circ is None:
                continue
            circulating.add(combo)
            heads = [e.head for e in combo]
            active = sorted({v for e in combo for v in e.tails} | set(heads))
            assert len(combo) == len(active) == len(set(heads)), combo
            [(indices, gamma)] = _generated(combo, size, vertices)
            assert indices == tuple(range(size))
            assert tuple(F(g, sum(gamma)) for g in gamma) == circ.gamma
            sizes.append(size)
    assert sorted(set(sizes)) == [1, 2, 3] and len(sizes) > 100, len(sizes)
    assert covering > 500, covering


def test_circulating_sets_match_brute_force_in_order():
    # the generator's sets, size by size, are the filtered
    # itertools.combinations: distinct heads, tails among the heads, a
    # circulation, and no circulating proper subset.  The order is what
    # keeps the search's first hit, and so every witness, as it is.
    rng = random.Random(2105)
    seen = {"self-loop": 0, "doubled self-loop": 0, "doubled tail": 0, "with a circulating subset": 0}
    yielded = set()
    for _ in range(60):
        nv = rng.randint(1, 4)
        pool = [Edge(tails, head) for head in range(nv)
                for tails in [(v,) for v in range(nv)]
                + list(itertools.combinations_with_replacement(range(nv), 2))]
        edges = rng.sample(pool, min(len(pool), rng.randint(2, 9)))
        for size in range(1, nv + 1):
            want = []
            for combo in itertools.combinations(range(len(edges)), size):
                chosen = tuple(edges[i] for i in combo)
                heads = {e.head for e in chosen}
                if len(heads) < size or not {v for e in chosen for v in e.tails} <= heads:
                    continue
                h = Hypergraph(nv, chosen)
                if _minimal_circulating(h) is not None:
                    want.append(combo)
                elif find_circulation(h) is not None:
                    seen["with a circulating subset"] += 1
            got = _generated(edges, size, nv)
            assert [combo for combo, _ in got] == want, (edges, size)
            for combo, gamma in got:
                chosen = [edges[i] for i in combo]
                assert all(g > 0 for g in gamma)
                assert hypergraphs._unbalanced(Hypergraph(nv, tuple(chosen)), gamma) is None
                yielded.add(size)
                seen["self-loop"] += any(e.tails == (e.head,) for e in chosen)
                seen["doubled self-loop"] += any(e.tails == (e.head, e.head) for e in chosen)
                seen["doubled tail"] += any(e.tails[0] == e.tails[-1] != e.head for e in chosen)
    assert yielded == {1, 2, 3, 4} and min(seen.values()) > 30, (yielded, seen)


def test_canonical_lift_entries(hyp):
    mats = canonical_lift(hyp).matrices
    # (-)3 -> -t^3 pattern: check the fixture's (-)0 entries and diagonal factor
    assert mats[0].entries[0][0] == P.monomial(12, 0)  # m*n = 12 on +0
    assert mats[1].entries[0][0] == P.monomial(-1, 0)  # -t^0 on (-)0
    assert mats[2].entries[0][0] == P.zero()  # -inf -> 0
    explicit = pencil_of(1, 1, {(0, 0, 0): neg(3)})
    assert canonical_lift(explicit).matrices[0].entries[0][0] == P.monomial(-1, 3)
    diag = pencil_of(3, 2, {(0, 0, 0): pos(2)})
    assert canonical_lift(diag).matrices[0].entries[0][0] == P.monomial(6, 2)


def test_canonical_lift_svals_match(hyp):
    mats = canonical_lift(hyp).matrices
    for k in range(hyp.n):
        for i in range(hyp.m):
            for j in range(hyp.m):
                entry = SeriesPolynomial(1, {(0,): mats[k].entries[i][j]})
                got = tropicalize(entry)
                want = hyp.matrices[k][i][j]
                if want.sign == 0:
                    assert got.is_zero()
                else:
                    assert got.coeffs[(0,)] == want
                assert sval(mats[k].entries[i][j]) == want


def test_canonical_lift_requires_metzler(quad_ray):
    with pytest.raises(NotMetzler):
        canonical_lift(quad_ray)


def _all_pairs(m):
    return frozenset(itertools.combinations(range(m), 2))


def test_certify_metzler_witness(hyp):
    res = certify_generic_general(hyp)
    assert isinstance(res, Witness)
    # a Metzler pencil is its own single piece
    assert res.sigma == _all_pairs(hyp.m) and res.diamond == ()
    g = build_tangent_hypergraph(hyp, res.x)
    assert g.edges == res.edges
    circ = find_circulation(g)
    assert circ is not None


def test_certify_metzler_certificate():
    diag = pencil_of(2, 2, {(0, 0, 0): "+0", (0, 1, 1): "+5", (1, 0, 0): "+1", (1, 1, 1): "+3"})
    assert isinstance(certify_generic_general(diag), Certificate)


#: pool classes and how many of their entries get a planted witness
PLANTED_WITNESSES = {"M3x3p7": 10, "N3x3p7": 10, "M4x4p7": 5, "N4x4p7": 5, "M5x5p7": 3,
                     "N5x5p7": 3}


@pytest.mark.parametrize("cls, count", PLANTED_WITNESSES.items())
def test_planted_witnesses_are_found(cls, count):
    # a cycle of tight diagonal edges at x* = 0, of length 2 and of length n,
    # makes each pencil non-generic by construction; the search must answer
    # with a witness that the benchmark's own checker accepts from its JSON
    check_witness = runpy.run_path(str(CORPUS.with_name("checks.py")))["check_witness"]
    for index in range(count):
        for length in (2, pool_doc(cls, index)["n"]):
            doc = planted_witness_doc(cls, index, length)
            res = certify_generic_general(pencil_from_obj(doc)[0], 9, 9)
            assert isinstance(res, Witness), (cls, index, length)
            assert check_witness(doc, result_to_obj(res)) is None, (cls, index, length)


def test_certificate_implies_no_grid_circulation():
    # soundness spot-check: scan a dense grid after a certificate
    rng = random.Random(42)
    found = 0
    while found < 5:
        p = random_pencil(rng, max_m=3, max_n=2, metzler=True, value_pool=7)
        try:
            res = certify_generic_general(p)
        except DimensionTooLarge:
            continue
        if not isinstance(res, Certificate):
            continue
        found += 1
        from tropsdp.oracle import grid_points

        for x in grid_points(p.n, -3, 3, F(1, 2)):
            g = build_tangent_hypergraph(p, x)
            assert find_circulation(g) is None


def test_certify_degenerate_minor_gives_witness():
    degen = pencil_of(2, 2, {**DEGENERATE, (1, 0, 0): "+0", (1, 1, 1): "+0"})
    res = certify_generic_general(degen)
    assert isinstance(res, Witness)
    assert res.sigma == _all_pairs(degen.m) and res.diamond == ()
    g = build_tangent_hypergraph(degen, res.x)
    assert find_circulation(g) is not None


def _count_decisions(monkeypatch):
    # every candidate reason is decided by the shortest-path test, one call
    # per reason; the simplex runs for the reason products
    decisions, lps = [], []
    test, simplex = hypergraphs.difference_feasible, hypergraphs.feasible_point
    monkeypatch.setattr(
        hypergraphs, "difference_feasible", lambda *a: decisions.append(a) or test(*a)
    )
    monkeypatch.setattr(hypergraphs, "feasible_point", lambda *a: lps.append(a) or simplex(*a))
    return decisions, lps


def test_single_edge_witness_reuses_the_filter_point(monkeypatch):
    # the witness is the lone edge (0, 0) -> 0, whose system the live-edge
    # filter already decided: one decision per distinct candidate reason,
    # and one LP, for the witness's point, as all four are differences
    degen = pencil_of(2, 2, {**DEGENERATE, (1, 0, 0): "+0", (1, 1, 1): "+0"})
    decisions, lps = _count_decisions(monkeypatch)
    res = certify_generic_general(degen)
    filter_calls = len({(r.eqs, r.ges) for rs in _candidate_edges(degen).values() for r in rs})
    assert len(decisions) == filter_calls == 4
    assert len(lps) == 1
    assert res == Witness(
        x=(Z, F(1)),
        edges=(Edge((0, 0), 0), Edge((0, 1), 0)),
        gamma=(F(1), Z),
        sigma=_all_pairs(2),
        diamond=(),
        stratum=(0, 1),
    )


def test_certify_bounds():
    big = pencil_of(5, 1, {(0, i, i): pos(i) for i in range(5)})
    with pytest.raises(DimensionTooLarge):
        certify_generic_general(big)
    with pytest.raises(DimensionTooLarge):
        certify_generic_general(big, max_m=5, max_n=0)
    certify_generic_general(big, max_m=5)


def test_certify_general_on_fixtures(hyp, quad_ray, poly9):
    res = certify_generic_general(hyp)
    assert isinstance(res, Witness)
    assert res.stratum == (0, 1, 2)
    obj = result_to_obj(res)
    assert obj["status"] == "witness"
    assert obj["x"] == ["0", "0", "0"]
    assert isinstance(certify_generic_general(quad_ray), Certificate)
    assert isinstance(certify_generic_general(poly9, max_m=9), Certificate)
    m1 = load_pencil(FIXTURES / "m1_distinct.json")[0]
    assert isinstance(certify_generic_general(m1), Certificate)
    assert result_to_obj(Certificate()) == {"status": "generic"}


def test_certify_general_witness_in_piece(quad_ray):
    # force a witness on a non-Metzler pencil by degenerate diagonal ties
    p = pencil_of(
        2,
        2,
        {(0, 0, 0): "+0", (0, 1, 1): "+0", (0, 0, 1): "+0", (1, 0, 0): "-0", (1, 1, 1): "-0"},
    )
    res = certify_generic_general(p)
    assert isinstance(res, Witness)
    piece = stratum_restrict(
        decompose(p, _choice_of(p.m, res.sigma, res.diamond)), res.stratum
    )
    g = build_tangent_hypergraph(piece, res.x)
    assert find_circulation(g) is not None


def _choice_of(m, sigma, diamond):
    return SigmaChoice(m, sigma, diamond)


def _sized_pencil(rng, m, n, metzler, value_pool, density=0.7):
    while True:
        p = random_pencil(rng, m, n, metzler, density, value_pool)
        if (p.m, p.n, p.is_metzler) == (m, n, metzler):
            return p


def _circulates_in_named_piece(p, res):
    piece = stratum_restrict(decompose(p, _choice_of(p.m, res.sigma, res.diamond)), res.stratum)
    g = build_tangent_hypergraph(piece, res.x)
    return g.edges == res.edges and find_circulation(g) is not None


def test_union_search_matches_reference_sweep():
    # one search per stratum over the atoms of every piece decides as the
    # piece-by-piece sweep does; on Metzler pencils it is the same search
    rng = random.Random(606)
    pencils = [load_pencil(path)[0] for path in sorted(FIXTURES.glob("*.json"))]
    for m, n, count in ((2, 3, 30), (3, 3, 30), (4, 3, 1)):
        for pool in (2, 7):
            pencils += [_sized_pencil(rng, m, n, False, pool) for _ in range(count)]
    pencils += [_sized_pencil(rng, 3, 3, True, pool) for pool in (2, 7) for _ in range(15)]
    # value pool 1 makes ties, hence witnesses; at n = 4 the reference still
    # enumerates (n + 1)-sets, which the search skips
    pencils += [_sized_pencil(rng, 3, 3, metz, 1) for metz in (True, False) for _ in range(10)]
    pencils += [_sized_pencil(rng, 4, 4, True, 1, density=1.0) for _ in range(8)]
    witnesses = {True: 0, False: 0}
    n4_witnesses = 0
    for p in pencils:
        max_m = max(p.m, 4)
        got = certify_generic_general(p, max_m=max_m)
        want = reference_certify_general(p, max_m=max_m)
        assert type(got) is type(want), p
        if isinstance(got, Witness):
            witnesses[p.is_metzler] += 1
            if p.is_metzler:
                assert got == want, p
                n4_witnesses += p.n == 4
            else:
                assert _circulates_in_named_piece(p, got), (p, got)
    assert witnesses[True] >= 2 and witnesses[False] >= 4, witnesses
    assert n4_witnesses >= 4, n4_witnesses


def test_stratum_points_extend_to_the_full_support():
    # the module's extension lemma, built: a point the search finds on a
    # proper stratum, with every missing coordinate set below the margin,
    # circulates on the full pencil in the piece its options name
    rng = random.Random(610)
    hits = 0
    for metzler, pool in [(True, 1), (False, 1), (True, 2), (False, 2)] * 100:
        p = random_pencil(rng, max_m=4, max_n=4, metzler=metzler, value_pool=pool)
        values = [a.value for mat in p.matrices for row in mat for a in row if a.sign]
        found = 0
        for size in range(1, p.n):
            for support in itertools.combinations(range(p.n), size):
                res = hypergraphs._circulating_point(stratum_restrict(p, support))
                if res is None:
                    continue
                x, options = res
                full = [min(x) - (max(values) - min(values)) - 1] * p.n
                for k, v in zip(support, x):
                    full[k] = v
                diamond = {q: d for q, d in options.items() if d != "sigma"}
                sigma = set(itertools.combinations(range(p.m), 2)) - diamond.keys()
                piece = decompose(p, SigmaChoice.make(p.m, sigma, diamond))
                graph = build_tangent_hypergraph(piece, full)
                assert find_circulation(graph) is not None, (p, support)
                found += 1
        if found:
            assert isinstance(certify_generic_general(p), Witness), p
        hits += found
    assert hits >= 200, hits


def test_certification_searches_once(monkeypatch):
    # one search on the full support decides every stratum
    calls = []
    real = hypergraphs._circulating_point
    monkeypatch.setattr(hypergraphs, "_circulating_point", lambda p: calls.append(p) or real(p))
    rng = random.Random(611)
    pencils = [load_pencil(path)[0] for path in sorted(FIXTURES.glob("*.json"))]
    pencils += [random_pencil(rng, 4, 4, metz, 0.7, pool)
                for metz in (True, False) for pool in (1, 7) for _ in range(10)]
    kinds = set()
    for p in pencils:
        calls.clear()
        res = certify_generic_general(p, max_m=max(p.m, 4))
        assert len(calls) == 1 and calls[0] is p, p
        kinds.add(type(res))
        if isinstance(res, Witness):
            assert res.stratum == tuple(range(p.n))
    assert kinds == {Certificate, Witness}


def _count_lps(monkeypatch):
    calls = []
    real = hypergraphs.feasible_point
    monkeypatch.setattr(hypergraphs, "feasible_point", lambda *a: calls.append(a) or real(*a))
    return calls


def test_tie_sum_filter_keeps_witnesses(monkeypatch):
    # the filter only skips reason products whose circulation-weighted tie
    # constants cannot cancel, so the witnesses are those of the plain search
    rng = random.Random(607)
    pencils = [_sized_pencil(rng, 3, 3, True, pool) for pool in (2, 7) for _ in range(20)]
    pencils += [_sized_pencil(rng, 4, 3, True, 2) for _ in range(5)]
    calls = _count_lps(monkeypatch)
    filtered = [certify_generic_general(p) for p in pencils]
    filtered_lps = len(calls)
    monkeypatch.setattr(hypergraphs, "_tie_sum", lambda chosen, gamma: 0)
    plain = [certify_generic_general(p) for p in pencils]
    assert filtered == plain
    assert sum(isinstance(r, Witness) for r in plain) >= 3
    assert filtered_lps < len(calls) - filtered_lps


def test_search_decides_sets_without_the_circulation_lp(monkeypatch):
    # the echelon of the generator decides every candidate set, each of at
    # most n edges; find_circulation runs only on a witness's tangent
    # hypergraph
    rng = random.Random(609)
    pencils = [_sized_pencil(rng, 3, 3, metzler, 1) for metzler in (True, False) for _ in range(10)]
    pencils += [_sized_pencil(rng, 4, 4, True, 7) for _ in range(3)]
    lps, sizes = [], []
    find, generate = hypergraphs.find_circulation, hypergraphs._circulating_sets

    def sets(edges, size, columns, *prefix):
        # the generator recurses through the module: count the search's calls
        if not prefix:
            sizes.append(size)
        return generate(edges, size, columns, *prefix)

    monkeypatch.setattr(hypergraphs, "find_circulation", lambda h: lps.append(h) or find(h))
    monkeypatch.setattr(hypergraphs, "_circulating_sets", sets)
    witnesses, largest = 0, set()
    for p in pencils:
        lps.clear()
        sizes.clear()
        res = certify_generic_general(p)
        witnesses += isinstance(res, Witness)
        assert len(lps) == isinstance(res, Witness) and max(sizes, default=0) <= p.n, p
        largest.add(max(sizes, default=0))
    assert witnesses >= 3 and {3, 4} <= largest, (witnesses, largest)


def test_live_filter_decides_each_edge_reason(monkeypatch):
    # the diagonal edge (1) -> 0 and the pair edge (0, 1) -> 0 both realize
    # the tie x1 - x0 = 2 with no maximality rows: one system, two edges.
    # Each edge's reason is decided on its own, by the negative-cycle test;
    # no memo spans edges, since equal systems are this rare
    p = pencil_of(2, 2, {(0, 0, 0): "-2", (1, 0, 0): "+0", (0, 1, 1): "+0", (0, 0, 1): "-1"})
    cand = _candidate_edges(p)
    assert {e.tails for e in cand} == {(1,), (0, 1)}
    assert len({(r.eqs, r.ges) for rs in cand.values() for r in rs}) == 1
    decisions, lps = _count_decisions(monkeypatch)
    assert isinstance(certify_generic_general(p), Certificate)
    assert len(decisions) == 2 and not lps


def test_simplex_runs_once_per_passing_product(monkeypatch):
    # every candidate reason, pair ties among them, takes its verdict from
    # the shortest-path test; feasible_point runs once per reason product
    # that passes the tie sum and _options, in order, and for nothing else
    rng = random.Random(612)
    pencils = [_sized_pencil(rng, m, m, metzler, pool) for m in (3, 4)
               for metzler in (True, False) for pool in (2, 7) for _ in range(5)]
    decisions, lps = _count_decisions(monkeypatch)
    passed = []
    options = hypergraphs._options

    def counted(chosen):
        picked = options(chosen)
        if picked is not None:
            passed.append((tuple(row for r in chosen for row in r.eqs),
                           tuple(row for r in chosen for row in r.ges)))
        return picked

    monkeypatch.setattr(hypergraphs, "_options", counted)
    ties = products = 0
    for p in pencils:
        for log in (decisions, lps, passed):
            log.clear()
        certify_generic_general(p)
        reasons = [r for rs in _candidate_edges(p).values() for r in rs]
        assert len(decisions) == len(reasons), p
        assert [(eqs, ges) for _, eqs, ges in lps] == passed, p
        ties += sum(any(sum(map(bool, c)) == 3 for c, _ in r.eqs) for r in reasons)
        products += len(passed)
    assert ties > 300 and products > 40, (ties, products)


#: sha256 of the first 30 witnesses of test_witness_bytes_are_pinned, one
#: generic stdout line each: the search's first hit, the circulation of its
#: tangent hypergraph and the piece it names must stay exact, beyond the
#: one fixture witness that GENERIC_DIGESTS pins.
WITNESS_DIGEST = "3511be5929a861b94461404ac5251657301a4ec4ba642ac1906e260603ee4023"


def test_witness_bytes_are_pinned():
    rng = random.Random(2121)
    digest, found, tried = hashlib.sha256(), 0, 0
    while found < 30:
        p = random_pencil(rng, max_m=4, max_n=5, metzler=tried % 2 == 0, value_pool=2)
        tried += 1
        if p.n < 3:
            continue
        res = certify_generic_general(p, 4, 5)
        if isinstance(res, Witness):
            digest.update((json.dumps(result_to_obj(res)) + "\n").encode())
            found += 1
    assert digest.hexdigest() == WITNESS_DIGEST, tried


@pytest.mark.parametrize("pool, verdict", [(2, Witness), (7, Certificate)])
def test_certify_reaches_5x3_pencils(pool, verdict):
    # 3^10 pieces times 7 strata were out of reach piece by piece
    p = _sized_pencil(random.Random(608), 5, 3, False, pool, density=1.0)
    start = time.monotonic()
    res = certify_generic_general(p, max_m=5)
    assert time.monotonic() - start < 5.0
    assert isinstance(res, verdict)
    assert isinstance(res, Certificate) or _circulates_in_named_piece(p, res)


def test_perturb_interior_point(poly9):
    x = (Z, F(2), F(5))
    eta, rho0 = perturb_to_interior(poly9, x)
    assert rho0 > 0
    x2 = tuple(v + rho0 * d for v, d in zip(x, eta))
    assert metzler_strict_member(poly9, x2)


def test_perturb_boundary_points(poly9):
    for a, b in [(1, 4), (4, 1), (8, 8), (2, 4), (F(7, 2), F(17, 4))]:
        x = (Z, F(a), F(b))
        from tropsdp.pencils import metzler_member

        if not metzler_member(poly9, x) or metzler_strict_member(poly9, x):
            continue
        eta, rho0 = perturb_to_interior(poly9, x)
        x2 = tuple(v + rho0 * d for v, d in zip(x, eta))
        assert metzler_strict_member(poly9, x2)
        # the bound must hold on the whole interval, spot-check the midpoint
        mid = tuple(v + rho0 / 2 * d for v, d in zip(x, eta))
        assert metzler_strict_member(poly9, mid)


def test_perturbation_makes_one_pass_at_the_point(poly9, monkeypatch):
    # one _lattice and one _sides pass at x give the edges, the slacks and
    # membership; the second pass is the strictness re-check at x2, whose
    # _lattice _perturbed takes once and returns.  pencils' refusal helper
    # takes the lattice of x, hypergraphs that of x2.  Neither metzler_member
    # nor build_tangent_hypergraph is called.
    x = next(x for x in ((Z, F(a), F(b)) for a, b in [(1, 4), (4, 1), (2, 4), (8, 8)])
             if general_member(poly9, x) and not metzler_strict_member(poly9, x))
    lattices = {"hypergraphs": [], "pencils": []}
    passes = []
    for name, module in (("hypergraphs", hypergraphs), ("pencils", pencils)):
        monkeypatch.setattr(module, "_lattice", lambda p, y, seen=lattices[name]:
                            seen.append(y) or pencils_lattice(p, y))
        monkeypatch.setattr(module, "_sides", lambda p, lattice:
                            passes.append(lattice) or pencils_sides(p, lattice))

    def refuse(*args):
        raise AssertionError("perturb_to_interior reached a separate pass")

    monkeypatch.setattr(pencils, "metzler_member", refuse)
    monkeypatch.setattr(hypergraphs, "build_tangent_hypergraph", refuse)
    eta, rho0 = perturb_to_interior(poly9, x)
    x2 = tuple(v + rho0 * d for v, d in zip(x, eta))
    assert x2 != x and passes == [pencils_lattice(poly9, y) for y in (x, x2)]
    assert {name: [tuple(y) for y in seen] for name, seen in lattices.items()} == {
        "pencils": [x], "hypergraphs": [x2]}


def test_perturbation_exits_after_one_pass_at_a_strict_point(poly9, monkeypatch):
    # a strict point has no tangent edge: the one _lattice and _sides pass
    # at x gives the zero direction and 1, with no LP and no re-check
    x = (Z, F(2), F(5))
    passes = []
    for module in (hypergraphs, pencils):
        monkeypatch.setattr(module, "_lattice", lambda p, y:
                            passes.append(("lattice", y)) or pencils_lattice(p, y))
        monkeypatch.setattr(module, "_sides", lambda p, lattice:
                            passes.append(("sides", lattice)) or pencils_sides(p, lattice))

    def refuse(*args):
        raise AssertionError("perturb_to_interior solved an LP at a strict point")

    monkeypatch.setattr(hypergraphs, "solve_nonneg", refuse)
    assert perturb_to_interior(poly9, x) == ((Z, Z, Z), 1)
    assert passes == [("lattice", x), ("sides", pencils_lattice(poly9, x))]


def test_perturb_rejects_circulation(hyp):
    with pytest.raises(CirculationExists):
        perturb_to_interior(hyp, (Z, Z, Z))


def test_perturb_rejects_nonmember(poly9):
    with pytest.raises(ValueError):
        perturb_to_interior(poly9, (Z, Z, Z))


def test_perturb_interior_gives_zero_direction(poly9):
    eta, rho0 = perturb_to_interior(poly9, (Z, F(2), F(5)))
    assert eta == (Z, Z, Z) and rho0 > 0


_BOGUS_KERNEL = """
from fractions import Fraction
import tropsdp.hypergraphs as hg
from tropsdp.errors import CertificateCheckFailed
from tropsdp.pencils import load_pencil
from tropsdp.puiseux import PuiseuxPoly, _divide

assert False, "asserts must be stripped in this run"
kernel = hg.solve_nonneg
two_cycle = hg.Hypergraph(2, (hg.Edge((0,), 1), hg.Edge((1,), 0)))
cases = {
    "gamma not normalized": (hg.find_circulation, ([Fraction(1), Fraction(1)], None)),
    "gamma unbalanced": (hg.find_circulation, ([Fraction(1), Fraction(0)], None)),
    "eta not strict": (hg.farkas_direction, (None, [Fraction(0)] * 3)),
}
for name, (call, bogus) in cases.items():
    hg.solve_nonneg = lambda rows, rhs: bogus
    try:
        call(two_cycle)
    except CertificateCheckFailed:
        print("raised:", name)
hg.solve_nonneg = kernel
line = load_pencil(FIXTURES + "/line_pencil.json")[0]
generator = hg._circulating_sets
searches = {
    "search gamma not positive": lambda size: (0,) * size,
    "search gamma unbalanced": lambda size: (1,) * (size - 1) + (2,),
}
for name, bogus in searches.items():
    hg._circulating_sets = lambda edges, size, columns: iter([(tuple(range(size)), bogus(size))])
    try:
        hg.certify_generic_general(line)
    except CertificateCheckFailed:
        print("raised:", name)
hg._circulating_sets = generator
cycle_test = hg.difference_feasible
for name, verdict in (("filter verdict without a point", True), ("filter verdict declined", None)):
    hg.difference_feasible = lambda n, eqs, ges=(): verdict
    try:
        hg.certify_generic_general(line)
    except CertificateCheckFailed:
        print("raised:", name)
hg.difference_feasible = cycle_test
hg.build_tangent_hypergraph = lambda pencil, x: hg.Hypergraph(pencil.n, ())
try:
    hg.certify_generic_general(line)
except CertificateCheckFailed:
    print("raised: witness without circulation")
hg.check_assumption_nondeg = lambda pencil: True
try:
    hg.certify_generic_general(load_pencil(FIXTURES + "/m1_distinct.json")[0])
except CertificateCheckFailed:
    print("raised: certificate with a degenerate minor")
hg._strict = lambda pencil, lattice: False
try:
    hg.perturb_to_interior(load_pencil(FIXTURES + "/polygon9.json")[0],
                           (Fraction(0), Fraction(8), Fraction(8)))
except CertificateCheckFailed:
    print("raised: perturbed point not strict")
try:
    _divide(PuiseuxPoly.constant(1), PuiseuxPoly.from_terms([(0, 1), (-1, 1)]))
except CertificateCheckFailed:
    print("raised: inexact division")
"""


def test_certificate_checks_survive_optimize():
    # the exact re-checks of kernel output must not be asserts, which -O strips
    src = Path(__file__).resolve().parent.parent / "src"
    code = _BOGUS_KERNEL.replace("FIXTURES", repr(str(FIXTURES)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised: gamma not normalized",
        "raised: gamma unbalanced",
        "raised: eta not strict",
        "raised: search gamma not positive",
        "raised: search gamma unbalanced",
        "raised: filter verdict without a point",
        "raised: filter verdict declined",
        "raised: witness without circulation",
        "raised: certificate with a degenerate minor",
        "raised: perturbed point not strict",
        "raised: inexact division",
    ]
