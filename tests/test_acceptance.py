"""Acceptance gate: one test per release criterion.

Each test prints a single ``ACCEPTANCE <n> PASS|FAIL`` line (visible in
live output) and asserts the criterion at its stated tolerance.
"""

import random
import time
from fractions import Fraction

import pytest

from morekg import vocab
from morekg.cq import CQ1_QUERY, CQ2_QUERY
from morekg.fixtures import generate_fixture
from morekg.ingestion import emit_kg, load_bundle
from morekg.ontology import build_schema
from morekg.privacy import apply_policy, audit_view, default_policy, policy_from_dict
from morekg.query import evaluate, parse_query, to_csv
from morekg.rdf import Graph, IRI, Literal, iri_value, literal_parts
from morekg.rules import builtin_ruleset, materialize
from morekg.serdes import (parse_ntriples, parse_turtle, write_ntriples,
                           write_turtle)

from graph_oracles import materialize_naive, naive_shortcut_inferences
from oracles import cq1_average_by_age, cq2_items_in_range

TOLERANCE = Fraction(1, 10**9)


def report(capsys, n, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = (" (%s)" % detail) if detail else ""
        print("ACCEPTANCE %d %s%s" % (n, status, suffix))
    assert ok, "criterion %d failed: %s" % (n, detail)


def build_graph(bundle):
    schema = build_schema(bundle.items)
    g = emit_kg(bundle, schema)
    g.update(schema.graph)
    return g


def test_criterion_1_cq1_fidelity(fixture_dir, fixture_materialized, capsys):
    oracle = cq1_average_by_age(fixture_dir)
    start = time.perf_counter()
    table = evaluate(fixture_materialized, parse_query(CQ1_QUERY), avg_places=12)
    elapsed = time.perf_counter() - start
    got = {int(literal_parts(r[0])[0]): Fraction(literal_parts(r[1])[0]) for r in table.rows}
    ok = (set(got) == set(oracle)
          and all(abs(got[a] - oracle[a]) < TOLERANCE for a in oracle)
          and elapsed < 1.0)
    report(capsys, 1, ok, "%d age groups, %.3fs" % (len(got), elapsed))


def test_criterion_2_cq2_fidelity(tmp_path, fixture_bundle, fixture_graph, capsys):
    generate_fixture(tmp_path / "old", seed=9, participants=5, items=3,
                     study_id="st90", year_start=2005, year_end=2010)
    generate_fixture(tmp_path / "edge", seed=11, participants=5, items=4,
                     study_id="st91", year_start=2013, year_end=2015)
    extra = [load_bundle(tmp_path / "old"), load_bundle(tmp_path / "edge")]
    g = fixture_graph.copy()
    for b in extra:
        g.update(build_graph(b))
    start = time.perf_counter()
    table = evaluate(g, parse_query(CQ2_QUERY))
    elapsed = time.perf_counter() - start
    got = {iri_value(r[0]).rsplit("#", 1)[1] for r in table.rows}
    expected = {vocab.camel_case(k)
                for k in cq2_items_in_range([fixture_bundle] + extra)}
    ok = got == expected and elapsed < 1.0
    report(capsys, 2, ok, "%d items, %.3fs" % (len(got), elapsed))


def test_criterion_3_subsumption_chains(fixture_graph, fixture_materialized, capsys):
    studies = [s for s, _, _ in
               fixture_graph.match(None, vocab.RDF_TYPE, vocab.MORE_STUDY)]
    procs = [s for s, _, _ in fixture_graph.match(
        None, vocab.RDF_TYPE, vocab.MORE_HANDGRIP_TEST_PROCESS)]
    ok = bool(studies) and bool(procs)
    for s in studies:
        typed = {o for _, _, o in fixture_materialized.match(s, vocab.RDF_TYPE)}
        ok = ok and {vocab.IAO_PLAN_SPECIFICATION,
                     vocab.IAO_INFORMATION_CONTENT_ENTITY} <= typed
    for p in procs:
        typed = {o for _, _, o in fixture_materialized.match(p, vocab.RDF_TYPE)}
        ok = ok and {vocab.OBI_ASSAY, vocab.BFO_PROCESS} <= typed
    report(capsys, 3, ok,
           "%d studies, %d handgrip processes" % (len(studies), len(procs)))


def test_criterion_4_shortcut_materialization(tmp_path, fixture_graph, capsys):
    generate_fixture(tmp_path / "big", seed=5, participants=170, items=2,
                     study_id="big01")
    big = build_graph(load_bundle(tmp_path / "big"))
    rs = builtin_ruleset()
    ok = True
    sizes = []
    for g in (fixture_graph, big):
        sizes.append(len(g))
        semi = materialize(g.copy(), rs)
        naive = materialize_naive(g, rs)
        inferred = set(semi.match(None, vocab.MORE_MEASURES_DISPOSITION, None))
        oracle = naive_shortcut_inferences(list(g))
        ok = ok and len(inferred) == len(oracle) and inferred == oracle
        ok = ok and semi == naive
    ok = ok and max(sizes) >= 9500  # exercise the stated scale
    report(capsys, 4, ok, "graph sizes %s" % sizes)


def test_criterion_5_round_trip(fixture_graph, capsys):
    rng = random.Random(20260823)
    terms = ([IRI("http://example.org/n%d" % i) for i in range(15)]
             + [Literal("%d.%d" % (i, i), iri_value(vocab.XSD_DECIMAL)) for i in range(5)]
             + [Literal("text %d" % i) for i in range(3)]
             + [Literal("hallo", lang="de")])
    ok = True
    for _ in range(500):
        g = Graph()
        for _ in range(rng.randint(0, 30)):
            g.add(terms[rng.randrange(15)], terms[rng.randrange(15)],
                  terms[rng.randrange(len(terms))])
        ok = ok and parse_ntriples(write_ntriples(g)) == g
        ok = ok and parse_turtle(write_turtle(g)) == g
    ok = ok and parse_ntriples(write_ntriples(fixture_graph)) == fixture_graph
    ok = ok and parse_turtle(write_turtle(fixture_graph)) == fixture_graph
    shuffled = Graph(sorted(set(fixture_graph), key=repr, reverse=True))
    ok = ok and write_ntriples(shuffled).encode() == \
        write_ntriples(fixture_graph).encode()
    report(capsys, 5, ok, "500 random graphs + fixture, both formats")


def test_criterion_6_privacy_soundness(fixture_graph, capsys):
    policy = default_policy()
    public = apply_policy(fixture_graph, policy, "public")
    denied = policy.denied_targets("public")
    ok = not any(p in denied for _, p, _ in public)
    ok = ok and len(audit_view(public, policy, "public")) == 0
    permissive = apply_policy(fixture_graph, policy, "researcher")
    ok = ok and permissive == fixture_graph

    rng = random.Random(99)
    predicates = ["more:hasAge", "more:hasBmi", "more:hasSex",
                  "more:hasHeight", "more:hasWeight", "more:Person"]
    levels = ("identifying", "health", "public")
    checked = 0
    for _ in range(20):
        annotations = {p: rng.choice(levels)
                       for p in predicates if rng.random() < 0.7}
        roles = {"open": {"allow": list(levels)}}
        for name in ("r1", "r2"):
            roles[name] = {"allow": rng.sample(levels, rng.randint(1, 3))}
        p = policy_from_dict({"annotations": annotations, "roles": roles})
        for name in roles:
            view = apply_policy(fixture_graph, p, name)
            ok = ok and len(audit_view(view, p, name)) == 0
            checked += 1
        ok = ok and apply_policy(fixture_graph, p, "open") == fixture_graph
    report(capsys, 6, ok, "%d randomized role views audited" % checked)


@pytest.mark.slow
def test_criterion_7_end_to_end_determinism(tmp_path, capsys):
    outputs = []
    times = []
    for run in ("run1", "run2"):
        start = time.perf_counter()
        d = tmp_path / run
        generate_fixture(d, seed=42, participants=10000, items=2,
                         study_id="big")
        g = build_graph(load_bundle(d))
        mat = materialize(g, builtin_ruleset())
        csv_out = to_csv(evaluate(mat, parse_query(CQ1_QUERY)))
        nt = write_ntriples(mat)
        times.append(time.perf_counter() - start)
        outputs.append((nt.encode("utf-8"), csv_out.encode("utf-8"),
                        (d / "results.csv").read_bytes()))
    ok = outputs[0] == outputs[1] and all(t < 60.0 for t in times)
    report(capsys, 7, ok,
           "runs %.1fs / %.1fs, %d triples" % (times[0], times[1],
                                               len(outputs[0][0].splitlines())))
