import pytest

from morekg import vocab
from morekg.bundle import BundleError
from morekg.bundle import TestItemDef as ItemDef
from morekg.ontology import (SubclassCycleError, apply_aliases, build_schema,
                             rdfs_closure)
from morekg.rdf import Graph, IRI

from graph_oracles import naive_rdfs_fixpoint

HANDGRIP = ItemDef("handgrip", "Handgrip", "grip strength", "kg")
SHUTTLE = ItemDef("shuttle_run", "Shuttle Run Test", "aerobic endurance",
                  "ml/kg/min")


class TestBuildSchema:
    def test_handgrip_axioms(self):
        schema = build_schema([HANDGRIP])
        g = schema.graph
        assert (vocab.MORE_HANDGRIP_TEST_PROCESS, vocab.RDFS_SUBCLASSOF,
                vocab.MORE_TEST_PROCESS) in g
        assert (IRI(vocab.MORE + "Handgrip"), vocab.RDF_TYPE,
                vocab.MORE_TEST_ITEM) in g

    def test_shuttle_run_process_subclass(self):
        schema = build_schema([SHUTTLE])
        assert (IRI(vocab.MORE + "ShuttleRunTestProcess"),
                vocab.RDFS_SUBCLASSOF, vocab.MORE_TEST_PROCESS) in schema.graph

    def test_empty_registry_fixed_axioms_only(self):
        schema = build_schema([])
        assert not list(schema.graph.match(None, vocab.RDF_TYPE, vocab.MORE_TEST_ITEM))
        assert (vocab.MORE_STUDY, vocab.RDFS_SUBCLASSOF,
                vocab.IAO_PLAN_SPECIFICATION) in schema.graph
        assert (vocab.IAO_PLAN_SPECIFICATION, vocab.RDFS_SUBCLASSOF,
                vocab.IAO_INFORMATION_CONTENT_ENTITY) in schema.graph

    def test_declared_properties(self):
        schema = build_schema([])
        for prop in vocab.DECLARED_PROPERTIES:
            assert (prop, vocab.RDF_TYPE, vocab.RDF_PROPERTY) in schema.graph

    def test_duplicate_key_rejected(self):
        with pytest.raises(BundleError):
            build_schema([HANDGRIP, HANDGRIP])

    def test_disposition_kind(self):
        schema = build_schema([HANDGRIP])
        kind = schema.disposition_kinds["handgrip"]
        assert kind == IRI(vocab.MORE + "GripStrengthDisposition")
        assert (kind, vocab.RDFS_SUBCLASSOF, vocab.BFO_DISPOSITION) in schema.graph
        assert schema.items["handgrip"].unit == "kg"

    def test_subclass_relation_acyclic(self):
        schema = build_schema([HANDGRIP, SHUTTLE])
        rdfs_closure(schema.graph)  # would raise on a cycle


class TestClosure:
    def test_study_subsumption_chain(self):
        schema = build_schema([HANDGRIP])
        g = Graph()
        s = IRI("http://example.org/study1")
        g.add(s, vocab.RDF_TYPE, vocab.MORE_STUDY)
        closed = rdfs_closure(g, schema)
        assert (s, vocab.RDF_TYPE, vocab.IAO_PLAN_SPECIFICATION) in closed
        assert (s, vocab.RDF_TYPE, vocab.IAO_INFORMATION_CONTENT_ENTITY) in closed

    def test_handgrip_process_typed_assay_and_process(self):
        schema = build_schema([HANDGRIP])
        g = Graph()
        p = IRI("http://example.org/proc1")
        g.add(p, vocab.RDF_TYPE, vocab.MORE_HANDGRIP_TEST_PROCESS)
        closed = rdfs_closure(g, schema)
        assert (p, vocab.RDF_TYPE, vocab.OBI_ASSAY) in closed
        assert (p, vocab.RDF_TYPE, vocab.BFO_PROCESS) in closed

    def test_idempotent(self, fixture_graph):
        once = rdfs_closure(fixture_graph)
        twice = rdfs_closure(once)
        assert once == twice

    def test_rdfs_closure_leaves_input_unchanged(self, fixture_graph):
        before = fixture_graph.copy()
        closed = rdfs_closure(fixture_graph)
        assert closed is not fixture_graph
        assert len(closed) > len(before)
        assert fixture_graph == before

    def test_monotone(self, fixture_graph):
        closed = rdfs_closure(fixture_graph)
        assert set(fixture_graph) <= set(closed)

    def test_matches_naive_fixpoint_oracle(self, fixture_graph):
        closed = rdfs_closure(fixture_graph)
        oracle = naive_rdfs_fixpoint(set(fixture_graph))
        assert set(closed) == oracle

    def test_order_independent(self, fixture_graph):
        ts = sorted(set(fixture_graph), key=repr)
        assert rdfs_closure(Graph(ts)) == rdfs_closure(Graph(reversed(ts)))

    def test_cycle_detected_and_named(self):
        g = Graph()
        a, b = IRI("http://example.org/A"), IRI("http://example.org/B")
        g.add(a, vocab.RDFS_SUBCLASSOF, b)
        g.add(b, vocab.RDFS_SUBCLASSOF, a)
        with pytest.raises(SubclassCycleError) as e:
            rdfs_closure(g)
        assert "example.org/A" in str(e.value) and "example.org/B" in str(e.value)

    def test_cycle_path_ignores_a_self_loop(self):
        a, b, c = (IRI("http://example.org/" + n) for n in "ABC")
        g = Graph([(a, vocab.RDFS_SUBCLASSOF, b), (b, vocab.RDFS_SUBCLASSOF, c),
                   (c, vocab.RDFS_SUBCLASSOF, c), (c, vocab.RDFS_SUBCLASSOF, a)])
        with pytest.raises(SubclassCycleError) as e:
            rdfs_closure(g)
        assert e.value.cycle == [a, b, c, a]


def test_apply_aliases_rewrites_iris():
    g = Graph()
    g.add(IRI("http://old/p1"), vocab.RDF_TYPE, IRI("http://old/C"))
    out = apply_aliases(g, {"http://old/C": "http://new/C"})
    assert (IRI("http://old/p1"), vocab.RDF_TYPE, IRI("http://new/C")) in out
    assert len(out) == 1
