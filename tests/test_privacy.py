from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from morekg import vocab
from morekg.ontology import build_schema
from morekg.privacy import (LEVELS, GeneralizationSpec, Policy, PolicyError, Role,
                            apply_policy, audit_view, default_policy, load_policy,
                            policy_from_dict)
from morekg.rdf import Graph, IRI, Literal, iri_value
from morekg.rules import builtin_ruleset, materialize
from morekg.serdes import parse_turtle, write_turtle

from graph_oracles import (check_against_scan, reference_apply_policy,
                           reference_audit_violations)
from strategies import graphs, view_graphs, view_policies

EX = "http://example.org/"
AGE_BAND = IRI(iri_value(vocab.MORE_HAS_AGE) + "Band")

POLICY_YAML = """\
prefixes:
  ex: http://example.org/
annotations:
  more:hasAge: identifying
  more:hasBmi: health
  ex:Secret: identifying
roles:
  public:
    allow: [public]
    generalize:
      more:hasAge: {width: 5}
  researcher:
    allow: [public, health, identifying]
provenance: test policy
"""


def person_graph():
    g = Graph()
    p = IRI(EX + "p1")
    g.add(p, vocab.RDF_TYPE, vocab.MORE_PERSON)
    g.add(p, vocab.MORE_HAS_AGE, Literal("7", iri_value(vocab.XSD_INTEGER)))
    g.add(p, vocab.MORE_HAS_BMI, Literal("16.5", iri_value(vocab.XSD_DECIMAL)))
    g.add(p, vocab.MORE_HAS_HEIGHT, Literal("120.0", iri_value(vocab.XSD_DECIMAL)))
    return g


class TestPolicyModel:
    def test_unknown_level_rejected(self):
        with pytest.raises(PolicyError, match="secret"):
            policy_from_dict({"annotations": {"more:hasAge": "secret"},
                              "roles": {"r": {"allow": ["public"]}}})

    def test_no_roles_rejected(self):
        with pytest.raises(PolicyError, match="at least one role"):
            Policy(annotations={}, roles={})

    def test_unannotated_generalization_target_rejected(self):
        with pytest.raises(PolicyError, match="no sensitivity annotation"):
            Policy(annotations={},
                   roles={"r": Role("r", frozenset(["public"]),
                                    {vocab.MORE_HAS_AGE: GeneralizationSpec(5)})})

    def test_nonpositive_width_rejected(self):
        with pytest.raises(PolicyError, match="width"):
            GeneralizationSpec(0)

    @pytest.mark.parametrize("entry,message", [
        ({}, "generalization width must be a positive integer"),
        (5, "expected a mapping"),
        ([5], "expected a mapping"),
        ({"width": "wide"}, "generalization width must be a positive integer"),
        ({"width": 2.5}, "generalization width must be a positive integer"),
        ({"width": True}, "generalization width must be a positive integer"),
        ({"width": 5, "kind": "quantile"}, "unknown kind 'quantile'"),
    ])
    def test_malformed_generalize_entry_rejected(self, entry, message):
        with pytest.raises(PolicyError,
                           match="role public: generalize more:hasAge: " + message):
            policy_from_dict({
                "annotations": {"more:hasAge": "identifying"},
                "roles": {"public": {"allow": ["public"],
                                     "generalize": {"more:hasAge": entry}}},
            })

    @pytest.mark.parametrize("data,message", [
        ({"roles": {"public": 5}}, "role public: expected a mapping, got int"),
        ({"roles": {"public": {"allow": ["public"], "generalize": 5}}},
         "role public: generalize: expected a mapping, got int"),
        ({"annotations": ["x"], "roles": {"public": {}}},
         "annotations: expected a mapping, got list"),
        ({"roles": 5}, "roles: expected a mapping, got int"),
        ({"roles": {5: {"allow": ["public"]}}}, "roles: role name must be a string"),
        ({"prefixes": 5, "roles": {"public": {}}}, "prefixes: expected a mapping, got int"),
        ({"annotations": {"more:hasAge": "identifying"},
          "roles": {"public": {"generalize": {5: {"width": 5}}}}},
         "role public: generalize 5: target must be an IRI or CURIE string"),
        ({"roles": {"public": {"allow": "public"}}},
         "role public: allow: expected a list of levels, got 'public'"),
        ({"annotations": {5: "public"}, "roles": {"public": {}}},
         "annotations: target must be an IRI or CURIE string"),
        ({"prefixes": {"ex": 5}, "annotations": {"ex:a": "public"}, "roles": {"public": {}}},
         "prefixes: expected a prefix name and a namespace IRI string"),
    ])
    def test_malformed_section_names_it(self, data, message):
        with pytest.raises(PolicyError) as info:
            policy_from_dict(data)
        assert str(info.value).startswith(message)

    def test_band_kind_accepted(self):
        p = policy_from_dict({
            "annotations": {"more:hasAge": "identifying"},
            "roles": {"public": {"allow": ["public"], "generalize": {
                "more:hasAge": {"width": 10, "kind": "band"}}}},
        })
        assert p.role("public").generalizations[vocab.MORE_HAS_AGE].width == 10

    def test_unknown_role_lookup(self):
        with pytest.raises(PolicyError, match="nobody"):
            default_policy().role("nobody")

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "policy.yaml"
        path.write_text(POLICY_YAML, encoding="utf-8")
        p = load_policy(path)
        assert p.annotations[vocab.MORE_HAS_AGE] == "identifying"
        assert p.annotations[IRI(EX + "Secret")] == "identifying"
        assert p.role("public").generalizations[vocab.MORE_HAS_AGE].width == 5
        assert p.provenance == "test policy"

    def test_denied_targets(self):
        p = default_policy()
        assert vocab.MORE_HAS_AGE in p.denied_targets("public")
        assert vocab.MORE_HAS_BMI in p.denied_targets("public")
        assert not p.denied_targets("researcher")


class TestBandLabels:
    @pytest.mark.parametrize("value,width,label", [
        ("7", 5, "5–9"),
        ("10", 5, "10–14"),
        ("0", 5, "0–4"),
        ("-1", 5, "-5–-1"),
        ("16.5", 10, "10–19"),
    ])
    def test_floor_banding(self, value, width, label):
        spec = GeneralizationSpec(width)
        assert spec.band_label(Literal(value, iri_value(vocab.XSD_DECIMAL))) == label

    def test_non_numeric_yields_none(self):
        assert GeneralizationSpec(5).band_label(Literal("hi")) is None


class TestApplyPolicy:
    def test_public_view_bands_age_and_drops_bmi(self):
        view = apply_policy(person_graph(), default_policy(), "public")
        p = IRI(EX + "p1")
        assert not list(view.match(None, vocab.MORE_HAS_AGE, None))
        assert not list(view.match(None, vocab.MORE_HAS_BMI, None))
        assert (p, AGE_BAND, Literal("5–9")) in view
        assert (p, vocab.MORE_HAS_HEIGHT,
                Literal("120.0", iri_value(vocab.XSD_DECIMAL))) in view

    def test_permissive_role_view_equals_source(self):
        g = person_graph()
        view = apply_policy(g, default_policy(), "researcher")
        assert view == g
        assert view is not g

    def test_source_graph_unchanged(self):
        g = person_graph()
        before = set(g)
        apply_policy(g, default_policy(), "public")
        assert set(g) == before

    def test_denied_class_star_removed(self):
        p = policy_from_dict({
            "annotations": {"more:Person": "identifying"},
            "roles": {"public": {"allow": ["public"]}},
        })
        g = person_graph()
        g.add(IRI(EX + "proc"), vocab.OBI_HAS_PARTICIPANT, IRI(EX + "p1"))
        view = apply_policy(g, p, "public")
        # subject star and inbound references both disappear
        assert not any(IRI(EX + "p1") in (s, o) for s, _, o in view)
        assert IRI(EX + "proc") in {s for s, _, _ in view} or len(view) == 0

    def test_fixture_public_view_sound(self, fixture_graph):
        policy = default_policy()
        view = apply_policy(fixture_graph, policy, "public")
        denied = policy.denied_targets("public")
        assert not any(p in denied for _, p, _ in view)
        bands = list(view.match(None, AGE_BAND, None))
        assert len(bands) == 30  # one per participant

    def test_fixture_audit_clean(self, fixture_graph):
        policy = default_policy()
        for role in ("public", "researcher"):
            view = apply_policy(fixture_graph, policy, role)
            report = audit_view(view, policy, role)
            assert len(report) == 0
            assert report.checked == len(view)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_size=20))
    def test_view_soundness_property(self, g):
        policy = default_policy()
        view = apply_policy(g, policy, "public")
        assert not audit_view(view, policy, "public")
        assert set(view) <= set(g) | {
            t for t in view if t[1] == AGE_BAND}


class TestViewEqualsReference:
    """A view is the source's indexes filtered, plus band triples; it must
    equal the view built one triple at a time, leaf forms included, and
    answer every read as a scan of that view would."""

    @settings(max_examples=150, deadline=None)
    @given(view_graphs(), view_policies())
    def test_property(self, g, policy):
        source = set(g)
        view = apply_policy(g, policy, "r")
        reference = Graph(reference_apply_policy(g, policy, "r"))
        # __eq__ compares SPO; POS leaves must be in their one form too
        assert view == reference and view._pos == reference._pos
        check_against_scan(view, set(reference), source - set(reference))
        assert set(g) == source

    @pytest.mark.parametrize("role", ["public", "researcher"])
    def test_fixture(self, fixture_graph, role):
        view = apply_policy(fixture_graph, default_policy(), role)
        assert view == Graph(reference_apply_policy(fixture_graph, default_policy(), role))


def _entailment_targets(g):
    """The classes of ``g``'s schema and the declared properties, less
    those a builtin rule derives: the rules re-derive such a predicate
    from the allowed triples of its body, which no subclass or
    subproperty closure of the denied targets removes."""
    classes = set()
    for s, _, o in g.match(None, vocab.RDFS_SUBCLASSOF, None):
        classes |= {s, o}
    derived = {h[1] for r in builtin_ruleset() for h in r.head}
    return sorted(classes | (set(vocab.DECLARED_PROPERTIES) - derived),
                  key=iri_value)


class TestEntailment:
    def test_denied_superclass_covers_subclass_instances(self, fixture_graph):
        p = policy_from_dict({"annotations": {"more:TestProcess": "health"},
                              "roles": {"r": {"allow": ["public"]}}})
        view = apply_policy(fixture_graph, p, "r")
        assert not list(view.match(None, vocab.RDF_TYPE, vocab.MORE_HANDGRIP_TEST_PROCESS))
        assert not audit_view(materialize(view, builtin_ruleset()), p, "r")

    def test_denied_superproperty_covers_subproperty(self):
        sub = IRI(EX + "hasExactAge")
        g = person_graph()
        g.add(sub, vocab.RDFS_SUBPROPERTYOF, vocab.MORE_HAS_AGE)
        g.add(IRI(EX + "p1"), sub, Literal("7", iri_value(vocab.XSD_INTEGER)))
        view = apply_policy(g, default_policy(), "public")
        assert not list(view.match(None, sub, None))
        # the audit reads the subproperty as denied on the view it is given
        report = audit_view(g, default_policy(), "public")
        assert any(iri_value(sub) in v.reason for v in report.violations)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_view_audits_clean_after_materialize_property(self, fixture_graph, data):
        annotations = data.draw(st.dictionaries(
            st.sampled_from(_entailment_targets(fixture_graph)), st.sampled_from(LEVELS),
            max_size=6))
        p = Policy(annotations=annotations,
                   roles={"r": Role("r", frozenset(["public"]))})
        view = apply_policy(fixture_graph, p, "r")
        assert not audit_view(materialize(view, builtin_ruleset()), p, "r")


class TestAudit:
    def test_violations_reported(self):
        report = audit_view(person_graph(), default_policy(), "public")
        reasons = {v.reason for v in report.violations}
        assert any("hasAge" in r for r in reasons)
        assert any("hasBmi" in r for r in reasons)
        assert bool(report)

    def test_denied_class_instance_flagged(self):
        p = policy_from_dict({
            "annotations": {"more:Person": "identifying"},
            "roles": {"public": {"allow": ["public"]}},
        })
        report = audit_view(person_graph(), p, "public")
        assert any("denied class" in v.reason for v in report.violations)

    def test_report_renderings(self):
        report = audit_view(person_graph(), default_policy(), "public")
        assert report.to_text().startswith("audit: role=public")
        assert report.to_csv().splitlines()[0] == "subject,predicate,object,reason"


def _violations(report):
    return [(v.triple, v.reason) for v in report.violations]


class TestAuditOrder:
    """Violations come sorted by their N-Triples text, then by reason, so
    the report does not depend on how the view was built or read."""

    POLICY = policy_from_dict({
        "annotations": {"more:hasAge": "identifying", "more:hasBmi": "health",
                        "more:Person": "identifying"},
        "roles": {"public": {"allow": ["public"]}},
    })

    def test_same_order_whatever_the_insertion_order_or_layout(self, fixture_graph):
        ts = list(fixture_graph)
        graphs_ = [Graph(ts), Graph(reversed(ts)),
                   parse_turtle(write_turtle(fixture_graph))]
        reports = [audit_view(g, self.POLICY, "public") for g in graphs_]
        assert len(reports[0]) > 0
        assert _violations(reports[0]) == _violations(reports[1]) == _violations(reports[2])
        assert reports[0].to_text() == reports[1].to_text() == reports[2].to_text()

    def test_sorted_by_ntriples_text_then_reason(self, fixture_graph):
        keys = [(" ".join(v.triple), v.reason)
                for v in audit_view(fixture_graph, self.POLICY, "public").violations]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name", ["fixture_graph", "fixture_materialized"])
    def test_multiset_equals_scan(self, request, name):
        g = request.getfixturevalue(name)
        for policy, role in ((self.POLICY, "public"), (default_policy(), "public"),
                             (default_policy(), "researcher")):
            report = audit_view(g, policy, role)
            scan = reference_audit_violations(g, policy, role)
            assert Counter(_violations(report)) == Counter((v.triple, v.reason) for v in scan)
            assert report.checked == len(g)
