import pytest

from morekg import vocab
from morekg.bundle import BundleError
from morekg.bundle import TestItemDef as ItemDef
from morekg.ontology import apply_aliases, build_schema, item_terms
from morekg.rdf import Graph, IRI
from morekg.rules import RuleSet, builtin_ruleset, materialize

from graph_oracles import naive_rdfs_fixpoint

HANDGRIP = ItemDef("handgrip", "Handgrip", "grip strength", "kg")
SHUTTLE = ItemDef("shuttle_run", "Shuttle Run Test", "aerobic endurance",
                  "ml/kg/min")
# RDFS entailment: the builtin subclass-transitivity and type-propagation rules
RDFS_RULES = RuleSet([r for r in builtin_ruleset()
                      if r.name in ("subclass-transitivity", "type-propagation")])


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


class TestItemTerms:
    def test_disposition_suffix_not_doubled(self):
        assert item_terms("handgrip", "grip disposition")[2] == \
            IRI(vocab.MORE + "GripDisposition")

    def test_build_schema_rejects_an_empty_item_name(self):
        # it would put more:TestProcess under itself
        with pytest.raises(BundleError, match="key '_' gives an empty item name"):
            build_schema([ItemDef("_", "Blank", "grip strength", "kg")])


class TestClosure:
    def test_study_subsumption_chain(self):
        g = build_schema([HANDGRIP]).graph
        s = IRI("http://example.org/study1")
        g.add(s, vocab.RDF_TYPE, vocab.MORE_STUDY)
        closed = materialize(g.copy(), RDFS_RULES)
        assert (s, vocab.RDF_TYPE, vocab.IAO_PLAN_SPECIFICATION) in closed
        assert (s, vocab.RDF_TYPE, vocab.IAO_INFORMATION_CONTENT_ENTITY) in closed

    def test_handgrip_process_typed_assay_and_process(self):
        g = build_schema([HANDGRIP]).graph
        p = IRI("http://example.org/proc1")
        g.add(p, vocab.RDF_TYPE, vocab.MORE_HANDGRIP_TEST_PROCESS)
        closed = materialize(g.copy(), RDFS_RULES)
        assert (p, vocab.RDF_TYPE, vocab.OBI_ASSAY) in closed
        assert (p, vocab.RDF_TYPE, vocab.BFO_PROCESS) in closed

    def test_idempotent(self, fixture_graph):
        once = materialize(fixture_graph.copy(), RDFS_RULES)
        twice = materialize(once.copy(), RDFS_RULES)
        assert once == twice

    def test_monotone(self, fixture_graph):
        closed = materialize(fixture_graph.copy(), RDFS_RULES)
        assert set(fixture_graph) <= set(closed)

    def test_matches_naive_fixpoint_oracle(self, fixture_graph):
        closed = materialize(fixture_graph.copy(), RDFS_RULES)
        oracle = naive_rdfs_fixpoint(set(fixture_graph))
        assert set(closed) == oracle

    def test_order_independent(self, fixture_graph):
        ts = sorted(set(fixture_graph), key=repr)
        assert materialize(Graph(ts), RDFS_RULES) == \
            materialize(Graph(reversed(ts)), RDFS_RULES)


def test_apply_aliases_rewrites_iris():
    g = Graph()
    g.add(IRI("http://old/p1"), vocab.RDF_TYPE, IRI("http://old/C"))
    out = apply_aliases(g, {"http://old/C": "http://new/C"})
    assert (IRI("http://old/p1"), vocab.RDF_TYPE, IRI("http://new/C")) in out
    assert len(out) == 1
