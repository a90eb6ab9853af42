import pytest
from hypothesis import given, settings

from morekg import vocab
from morekg.ontology import build_schema
from morekg.privacy import (GeneralizationSpec, Policy, PolicyError, Role,
                            annotate_schema, apply_policy, audit_view,
                            default_policy, load_policy, policy_from_dict)
from morekg.rdf import Graph, IRI, Literal, Triple

from strategies import graphs

EX = "http://example.org/"
AGE_BAND = IRI(vocab.MORE_HAS_AGE.value + "Band")

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
    g.add(p, vocab.MORE_HAS_AGE, Literal("7", vocab.XSD_INTEGER.value))
    g.add(p, vocab.MORE_HAS_BMI, Literal("16.5", vocab.XSD_DECIMAL.value))
    g.add(p, vocab.MORE_HAS_HEIGHT, Literal("120.0", vocab.XSD_DECIMAL.value))
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
        assert spec.band_label(Literal(value, vocab.XSD_DECIMAL.value)) == label

    def test_non_numeric_yields_none(self):
        assert GeneralizationSpec(5).band_label(Literal("hi")) is None


class TestApplyPolicy:
    def test_public_view_bands_age_and_drops_bmi(self):
        view = apply_policy(person_graph(), default_policy(), "public")
        p = IRI(EX + "p1")
        assert not list(view.match(None, vocab.MORE_HAS_AGE, None))
        assert not list(view.match(None, vocab.MORE_HAS_BMI, None))
        assert Triple(p, AGE_BAND, Literal("5–9")) in view
        assert Triple(p, vocab.MORE_HAS_HEIGHT,
                      Literal("120.0", vocab.XSD_DECIMAL.value)) in view

    def test_permissive_role_view_equals_source(self):
        g = person_graph()
        view = apply_policy(g, default_policy(), "researcher")
        assert view == g
        assert view is not g

    def test_source_graph_unchanged(self):
        g = person_graph()
        before = g.triples()
        apply_policy(g, default_policy(), "public")
        assert g.triples() == before

    def test_denied_class_star_removed(self):
        p = policy_from_dict({
            "annotations": {"more:Person": "identifying"},
            "roles": {"public": {"allow": ["public"]}},
        })
        g = person_graph()
        g.add(IRI(EX + "proc"), vocab.OBI_HAS_PARTICIPANT, IRI(EX + "p1"))
        view = apply_policy(g, p, "public")
        # subject star and inbound references both disappear
        assert not any(IRI(EX + "p1") in (t.subject, t.object) for t in view)
        assert IRI(EX + "proc") in {t.subject for t in view} or len(view) == 0

    def test_fixture_public_view_sound(self, fixture_graph):
        policy = default_policy()
        view = apply_policy(fixture_graph, policy, "public")
        denied = policy.denied_targets("public")
        assert not any(t.predicate in denied for t in view)
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
        assert view.triples() <= g.triples() | {
            t for t in view if t.predicate == AGE_BAND}


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


class TestAnnotateSchema:
    def test_levels_added_to_schema_graph(self, fixture_schema):
        out, warnings_ = annotate_schema(fixture_schema, default_policy())
        assert Triple(vocab.MORE_HAS_AGE, vocab.MORE_SENSITIVITY_LEVEL,
                      Literal("identifying")) in out
        assert Triple(vocab.MORE_HAS_BMI, vocab.MORE_SENSITIVITY_LEVEL,
                      Literal("health")) in out

    def test_unknown_target_warns_but_annotates(self, fixture_schema):
        out, warnings_ = annotate_schema(fixture_schema, default_policy())
        # hasPostalCode never occurs in emitted schemas
        assert any("hasPostalCode" in w for w in warnings_)
        assert Triple(IRI(vocab.MORE + "hasPostalCode"),
                      vocab.MORE_SENSITIVITY_LEVEL,
                      Literal("identifying")) in out
