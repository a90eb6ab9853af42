import csv
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from morekg import vocab
from morekg.bundle import (TABLES, BundleError, ParticipantRecord, ResultRecord,
                           StudyBundle, StudyMetadata)
from morekg.bundle import TestItemDef as ItemDef
from morekg.fixtures import generate_fixture
from morekg.ingestion import emit_kg, load_bundle, mint_iri, validate_bundle
from morekg.ontology import build_schema
from morekg.query import evaluate, parse_query, to_csv
from morekg.rdf import IRI, Literal, iri_value, is_iri, literal_parts
from morekg.serdes import write_ntriples

from graph_oracles import naive_rdfs_fixpoint
from oracles import count_expected_emission

MINIMAL = {
    "study.csv": "id,title,year_start,year_end,doi\nst01,Pilot,2018,2019,\n",
    "participants.csv": ("participant_id,age,sex,height_cm,weight_kg,bmi\n"
                         "p001,9,f,135.0,30.1,16.5\n"),
    "test_items.csv": ("key,label,disposition_label,unit,datatype\n"
                       "handgrip,Handgrip,grip strength,kg,"
                       "http://www.w3.org/2001/XMLSchema#decimal\n"),
    "results.csv": ("participant_id,test_item,value,session_date,trial\n"
                    "p001,handgrip,32.5,2018-06-12,\n"),
}


def write_bundle(tmp_path, overrides=None):
    files = dict(MINIMAL)
    files.update(overrides or {})
    for name, content in files.items():
        if content is not None:
            (tmp_path / name).write_text(content, encoding="utf-8")
    return tmp_path


class TestLoadBundle:
    # "135." and ".5" are xsd:decimal lexical forms too, kept as written
    @pytest.mark.parametrize("height, bmi", [("135.0", "16.5"), ("135.", "16.5"),
                                             ("135.0", ".5")])
    def test_minimal_counts(self, tmp_path, height, bmi):
        b = load_bundle(write_bundle(tmp_path, {"participants.csv":
                                                "participant_id,age,sex,height_cm,weight_kg,bmi\n"
                                                "p001,9,f,%s,30.1,%s\n" % (height, bmi)}))
        assert (len(b.participants), len(b.items), len(b.results)) == (1, 1, 1)
        assert (b.participants[0].height_cm, b.participants[0].bmi) == (height, bmi)

    def test_missing_file(self, tmp_path):
        write_bundle(tmp_path)
        (tmp_path / "participants.csv").unlink()
        with pytest.raises(BundleError, match="participants.csv"):
            load_bundle(tmp_path)

    def test_byte_order_marks_skipped(self, tmp_path):
        # spreadsheet programs save CSV as "UTF-8 with BOM"
        marked = tmp_path / "marked"
        marked.mkdir()
        for name, content in MINIMAL.items():
            (marked / name).write_text(content, encoding="utf-8-sig")
            assert (marked / name).read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_bundle(marked) == load_bundle(write_bundle(tmp_path))

    def test_header_mismatch(self, tmp_path):
        write_bundle(tmp_path, {"participants.csv": "pid,age\np001,9\n"})
        with pytest.raises(BundleError, match="header mismatch"):
            load_bundle(tmp_path)

    def test_dangling_participant_names_row(self, tmp_path):
        write_bundle(tmp_path, {"results.csv":
                                "participant_id,test_item,value,session_date,trial\n"
                                "ghost,handgrip,10.0,,\n"})
        with pytest.raises(BundleError, match="row 2.*ghost"):
            load_bundle(tmp_path)

    def test_dangling_item(self, tmp_path):
        write_bundle(tmp_path, {"results.csv":
                                "participant_id,test_item,value,session_date,trial\n"
                                "p001,situps,10.0,,\n"})
        with pytest.raises(BundleError, match="situps"):
            load_bundle(tmp_path)

    def test_non_numeric_value(self, tmp_path):
        write_bundle(tmp_path, {"results.csv":
                                "participant_id,test_item,value,session_date,trial\n"
                                "p001,handgrip,strong,,\n"})
        with pytest.raises(BundleError, match="non-numeric"):
            load_bundle(tmp_path)

    # an item's datatype must be one that a query reads as a number, and a
    # value must be a lexical form of its item's datatype
    def test_datatype_a_query_cannot_read_names_file_and_row(self, tmp_path):
        write_bundle(tmp_path, {"test_items.csv":
                                "key,label,disposition_label,unit,datatype\n"
                                "handgrip,Handgrip,grip strength,kg,decimal\n"})
        with pytest.raises(BundleError,
                           match=r"test_items\.csv row 2: datatype 'decimal' is not"):
            load_bundle(tmp_path)

    def test_value_outside_its_datatype_names_file_and_row(self, tmp_path):
        write_bundle(tmp_path, {
            "test_items.csv": ("key,label,disposition_label,unit,datatype\n"
                               "handgrip,Handgrip,grip strength,kg,"
                               "http://www.w3.org/2001/XMLSchema#integer\n"),
            "results.csv": ("participant_id,test_item,value,session_date,trial\n"
                            "p001,handgrip,28,2018-06-12,1\n"
                            "p001,handgrip,28.8,2018-06-12,2\n")})
        with pytest.raises(BundleError,
                           match=r"results\.csv row 3: non-numeric value '28\.8': "
                                 r"not a lexical form of .*#integer"):
            load_bundle(tmp_path)

    def test_duplicate_participant(self, tmp_path):
        write_bundle(tmp_path, {"participants.csv":
                                "participant_id,age,sex,height_cm,weight_kg,bmi\n"
                                "p001,9,f,135.0,30.1,16.5\n"
                                "p001,10,m,140.0,33.0,16.8\n"})
        with pytest.raises(BundleError, match="duplicate participant_id"):
            load_bundle(tmp_path)

    def test_duplicate_test_item_key_names_file_and_row(self, tmp_path):
        item = "handgrip,Handgrip,grip strength,kg,\n"
        write_bundle(tmp_path, {"test_items.csv":
                                "key,label,disposition_label,unit,datatype\n"
                                + item + item})
        with pytest.raises(BundleError,
                           match=r"test_items\.csv row 3: duplicate test item key 'handgrip'"):
            load_bundle(tmp_path)

    def test_duplicate_result_names_file_and_row(self, tmp_path):
        # the same participant, item, session date and trial, another value
        write_bundle(tmp_path, {"results.csv":
                                "participant_id,test_item,value,session_date,trial\n"
                                "p001,handgrip,32.5,2018-06-12,1\n"
                                "p001,handgrip,30.0,2018-06-12,2\n"
                                "p001,handgrip,31.0,2018-06-12,1\n"})
        with pytest.raises(BundleError,
                           match=r"results\.csv row 4: duplicate result for "
                                 r"\('p001', 'handgrip', '2018-06-12', '1'\)"):
            load_bundle(tmp_path)

    # each id that a minted IRI takes as a path segment is checked at load,
    # with its file and row, not when emission mints it
    @pytest.mark.parametrize("name, content, message", [
        ("study.csv", "id,title,year_start,year_end,doi\n..,Pilot,2018,2019,\n",
         r"study\.csv row 2: id '\.\.' is not an IRI path segment"),
        ("participants.csv", "participant_id,age,sex,height_cm,weight_kg,bmi\n"
         "p001,9,f,135.0,30.1,16.5\np 2,9,f,135.0,30.1,16.5\n",
         r"participants\.csv row 3: participant_id 'p 2' is not an IRI path segment"),
        ("participants.csv", "participant_id,age,sex,height_cm,weight_kg,bmi\n"
         "..,9,f,135.0,30.1,16.5\n",
         r"participants\.csv row 2: participant_id '\.\.' is not an IRI path segment"),
        ("test_items.csv", "key,label,disposition_label,unit,datatype\n"
         "hand grip,Handgrip,grip strength,kg,\n",
         r"test_items\.csv row 2: key 'hand grip' is not an IRI path segment"),
        ("test_items.csv", "key,label,disposition_label,unit,datatype\n"
         ".,Handgrip,grip strength,kg,\n",
         r"test_items\.csv row 2: key '\.' is not an IRI path segment"),
    ], ids=["study-dots", "participant-space", "participant-dots", "key-space", "key-dot"])
    def test_unmintable_id_names_file_and_row(self, tmp_path, name, content, message):
        write_bundle(tmp_path, {name: content})
        with pytest.raises(BundleError, match=message):
            load_bundle(tmp_path)

    # every other rule of a bundle is checked at load too, at its file and row
    _PARTICIPANT = "participant_id,age,sex,height_cm,weight_kg,bmi\n"
    _RESULT = "participant_id,test_item,value,session_date,trial\n"

    @pytest.mark.parametrize("overrides, message", [
        ({"study.csv": "id,title,year_start,year_end,doi\nST01,Pilot,2018,2019,\n"},
         r"study\.csv row 2: id 'ST01' is not an IRI path segment: lower-case"),
        ({"study.csv": "id,title,year_start,year_end,doi\nst01,Pilot,2019,2016,\n"},
         r"study\.csv row 2: year_start 2019 > year_end 2016"),
        ({"study.csv": "id,title,year_start,year_end,doi\nst01,Pilot,2_016,2019,\n"},
         r"study\.csv row 2: non-numeric year_start '2_016': not a lexical form of .*#integer"),
        ({"participants.csv": _PARTICIPANT + "p001,9,f,135.0,30.1,16.5\n"
          "p002,-3,f,135.0,30.1,16.5\n"},
         r"participants\.csv row 3: negative age -3"),
        ({"participants.csv": _PARTICIPANT + "p001,9,f,0.0,30.1,16.5\n"},
         r"participants\.csv row 2: non-positive height/weight"),
        # an Arabic-Indic digit three, which int() reads as 3
        ({"participants.csv": _PARTICIPANT + "p001,\u0663,f,135.0,30.1,16.5\n"},
         r"participants\.csv row 2: non-numeric age '\u0663': not a lexical form of .*#integer"),
        # p1 with grip_x and p1_grip with x would share .../p1_grip_x IRIs
        ({"participants.csv": _PARTICIPANT + "p1,9,f,135.0,30.1,16.5\n"
          "p1_grip,9,m,135.0,30.1,16.5\n",
          "test_items.csv": "key,label,disposition_label,unit,datatype\n"
          "grip_x,Grip X,grip strength,kg,\nx,X,x power,kg,\n",
          "results.csv": _RESULT + "p1,grip_x,10.0,2018-06-12,\np1_grip,x,20.0,2018-06-12,\n"},
         r"test_items\.csv row 3: participant 'p1_grip' with key 'x' mints the IRIs "
         r"of participant 'p1' with key 'grip_x'"),
        # an item's name is its camel-cased key: it must not be empty, and no
        # two keys may give one name; its disposition kind must be an IRI
        ({"test_items.csv": "key,label,disposition_label,unit,datatype\n"
          "_,Blank,grip strength,kg,\n"},
         r"test_items\.csv row 2: key '_' gives an empty item name"),
        ({"test_items.csv": "key,label,disposition_label,unit,datatype\n"
          "hand_grip,Hand grip,grip strength,kg,\nhandGrip,Hand grip,grip strength,lb,\n",
          "results.csv": _RESULT + "p001,hand_grip,32.5,2018-06-12,\n"
          "p001,handGrip,71.6,2018-06-12,\n"},
         r"test_items\.csv row 3: key 'handGrip' names the item "
         r"<https://w3id\.org/more#HandGrip>, as key 'hand_grip' does in row 2"),
        ({"test_items.csv": "key,label,disposition_label,unit,datatype\n"
          "handgrip,Handgrip,grip {strength},kg,\n"},
         r"test_items\.csv row 2: disposition_label 'grip \{strength\}' gives a class "
         r"name that is not an IRI"),
        # no item's individual is a schema class, whichever row comes first;
        # handgrip's process class is the fixed more:HandgripTestProcess
        ({"test_items.csv": "key,label,disposition_label,unit,datatype\n"
          "handgrip,Handgrip,grip strength,kg,\nhandgrip_test_process,Grip TP,grip tp,kg,\n"},
         r"test_items\.csv row 3: key 'handgrip_test_process' names the item "
         r"<https://w3id\.org/more#HandgripTestProcess>, the process class of key "
         r"'handgrip' in row 2"),
        ({"test_items.csv": "key,label,disposition_label,unit,datatype\n"
          "handgrip_test_process,Grip TP,grip tp,kg,\nhandgrip,Handgrip,grip strength,kg,\n"},
         r"test_items\.csv row 2: key 'handgrip_test_process' names the item "
         r"<https://w3id\.org/more#HandgripTestProcess>, the process class of key "
         r"'handgrip' in row 3"),
        ({"test_items.csv": "key,label,disposition_label,unit,datatype\n"
          "handgrip,Handgrip,grip strength,kg,\ntest_item,TI,ti,kg,\n"},
         r"test_items\.csv row 3: key 'test_item' names the item "
         r"<https://w3id\.org/more#TestItem>, a fixed schema class"),
        ({"test_items.csv": "key,label,disposition_label,unit,datatype\n"
          "grip_strength_disposition,G,g,kg,\nhandgrip,Handgrip,grip strength,kg,\n"},
         r"test_items\.csv row 2: key 'grip_strength_disposition' names the item "
         r"<https://w3id\.org/more#GripStrengthDisposition>, the disposition kind of key "
         r"'handgrip' in row 3"),
        ({"results.csv": _RESULT + "p001,handgrip,32.5,yesterday,\n"},
         r"results\.csv row 2: session_date 'yesterday' is not a YYYY-MM-DD calendar date"),
        ({"results.csv": _RESULT + "p001,handgrip,32.5,2018-06-12,1\n"
          "p001,handgrip,32.5,2018-02-30,2\n"},
         r"results\.csv row 3: session_date '2018-02-30' is not a YYYY-MM-DD calendar date"),
    ], ids=["study-uppercase", "year-order", "year-underscore", "age-negative",
            "height-zero", "age-non-ascii-digit", "colliding-pair", "item-name-empty",
            "item-name-twice", "disposition-kind-not-an-iri", "item-names-process-class",
            "item-names-later-process-class", "item-names-fixed-class",
            "item-names-disposition-kind", "date-word",
            "date-not-a-day"])
    def test_broken_rule_names_file_and_row(self, tmp_path, overrides, message):
        write_bundle(tmp_path, overrides)
        with pytest.raises(BundleError, match=message):
            load_bundle(tmp_path)

    # keys by the component rule's characters, with "_" and "-" so that some
    # camel-case to an empty name, and labels that do and do not make an IRI
    _KEYS = st.text(alphabet="abcAB_-.", min_size=1, max_size=6)
    _LABELS = st.one_of(st.sampled_from(["grip strength", "disposition", "grip Disposition",
                                         "_", "test process", "x {y}"]),
                        st.text(alphabet="abc D_-", min_size=1, max_size=6))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_KEYS, _LABELS), min_size=1, max_size=4,
                    unique_by=lambda item: item[0]))
    def test_admitted_registry_has_acyclic_subclass_graph(self, registry):
        """For every item registry that ``load_bundle`` admits, the
        ``rdfs:subClassOf`` graph of its schema has no cycle and no
        self-loop: its transitive closure relates no class to itself."""
        rows = io.StringIO()
        csv.writer(rows).writerows([TABLES["test_items"]] + [
            [key, "Item", label, "kg", ""] for key, label in registry])
        with tempfile.TemporaryDirectory() as d:
            write_bundle(Path(d), {"test_items.csv": rows.getvalue(),
                                   "results.csv": self._RESULT})
            try:
                items = load_bundle(d).items
            except BundleError:
                return
        subclass = build_schema(items).graph.match(None, vocab.RDFS_SUBCLASSOF, None)
        assert not [c for c, _, sup in naive_rdfs_fixpoint(subclass) if c == sup]

    def test_signed_age_loads(self, tmp_path):
        b = load_bundle(write_bundle(tmp_path, {"participants.csv": self._PARTICIPANT
                                                + "p001,+9,f,135.0,30.1,16.5\n"}))
        assert b.participants[0].age == 9

    def test_dotted_ids_that_are_not_dot_segments_load_and_build(self, tmp_path):
        b = load_bundle(write_bundle(tmp_path, {
            "participants.csv": ("participant_id,age,sex,height_cm,weight_kg,bmi\n"
                                 "...,9,f,135.0,30.1,16.5\n"),
            "results.csv": ("participant_id,test_item,value,session_date,trial\n"
                            "...,handgrip,32.5,2018-06-12,\n")}))
        g = emit_kg(b, build_schema(b.items))
        assert (mint_iri("st01", "person", "..."), vocab.RDF_TYPE, vocab.MORE_PERSON) in g

    def test_year_order_enforced(self, tmp_path):
        write_bundle(tmp_path, {"study.csv":
                                "id,title,year_start,year_end,doi\nst01,Pilot,2020,2018,\n"})
        with pytest.raises(BundleError, match="year_start"):
            load_bundle(tmp_path)

    def test_generated_fixture_counts(self, fixture_bundle):
        assert len(fixture_bundle.participants) == 30
        assert len(fixture_bundle.items) == 2
        assert len(fixture_bundle.results) == 60


class TestValidateBundle:
    def _bundle(self, bmi):
        return StudyBundle(
            metadata=StudyMetadata("st01", "Pilot", 2018, 2019),
            participants=[ParticipantRecord("p001", 9, "f", "150.0", "45.0", bmi)],
            items=[ItemDef("handgrip", "Handgrip", "grip strength", "kg")],
            results=[],
        )

    def test_consistent_bmi_no_warning(self):
        # 45 / 1.5^2 = 20.0
        assert len(validate_bundle(self._bundle("20.0")).warnings) == 0

    def test_inconsistent_bmi_warns(self):
        report = validate_bundle(self._bundle("25.0"))
        assert len(report.warnings) == 1
        assert "BMI" in report.warnings[0].message

    def test_within_tolerance_no_warning(self):
        assert len(validate_bundle(self._bundle("20.4")).warnings) == 0

    def test_age_outlier(self):
        b = self._bundle("20.0")
        b.participants.append(ParticipantRecord("p002", 130, None, "170.0", "70.0", "24.2"))
        report = validate_bundle(b)
        assert any("age outlier" in w.message for w in report.warnings)

    def test_empty_bundle_empty_report(self):
        b = StudyBundle(StudyMetadata("st01", "Pilot", 2018, 2019), [], [], [])
        assert len(validate_bundle(b)) == 0

    def test_report_does_not_mutate(self):
        b = self._bundle("25.0")
        before = list(b.participants)
        validate_bundle(b)
        assert b.participants == before


# Components of every kind mint_iri must tell apart: valid segments, dot
# segments, and texts with "/", "%", a space, a newline or non-ASCII.
_SEGMENT_RE = re.compile(r"[A-Za-z0-9_.~-]+")
_COMPONENTS = st.one_of(
    st.sampled_from(["", ".", "..", "...", "a.b", ".a", "st01", "p_1-x~", "p 2",
                     "a/b", "/", "50%", "%41", "\u00e9", "p\n"]),
    st.text(alphabet="ab.~_-/% \u00e9\n", max_size=6))


class TestMintIri:
    def test_person_iri(self):
        assert mint_iri("st01", "person", "p007") == IRI(
            "https://w3id.org/more/kg/st01/person/p007")

    def test_deterministic(self):
        assert mint_iri("st01", "person", "p007") == mint_iri("st01", "person", "p007")

    @pytest.mark.parametrize("components, message", [
        (("st01", "", "p007"), "empty kind component"),
        (("st01", "person", "p 1"), "invalid IRI component: 'p 1'"),
        # dot segments, which RFC 3986 resolves to another namespace
        ((".", "person", "p007"), r"invalid IRI component: '\.'"),
        (("..", "person", "p007"), r"invalid IRI component: '\.\.'"),
        (("st01", ".", "p007"), r"invalid IRI component: '\.'"),
        (("st01", "..", "p007"), r"invalid IRI component: '\.\.'"),
        (("st01", "person", "."), r"invalid IRI component: '\.'"),
        (("st01", "person", ".."), r"invalid IRI component: '\.\.'"),
    ])
    def test_bad_component_rejected(self, components, message):
        with pytest.raises(BundleError, match=message):
            mint_iri(*components)

    @pytest.mark.parametrize("components", [
        ("...", "person", "p007"), ("st01", "...", "p007"), ("st01", "person", "..."),
        ("a.b", "person", "p007"), ("st01", "a.b", "p007"), ("st01", "person", "a.b"),
    ])
    def test_dots_that_are_not_dot_segments_accepted(self, components):
        assert mint_iri(*components) == IRI(vocab.KG_BASE + "/".join(components))

    @given(st.tuples(*[_COMPONENTS] * 3))
    def test_agrees_with_the_component_rule(self, components):
        try:
            for name, component in zip(("study", "kind", "local"), components):
                if not component:
                    raise BundleError("empty %s component for minted IRI" % name)
                if component in (".", "..") or not _SEGMENT_RE.fullmatch(component):
                    raise BundleError("invalid IRI component: %r" % component)
            expected = IRI(vocab.KG_BASE + "/".join(components))
        except BundleError as e:
            with pytest.raises(BundleError) as got:
                mint_iri(*components)
            assert str(got.value) == str(e)
        else:
            assert mint_iri(*components) == expected

    def test_all_minted_iris_distinct(self, fixture_graph):
        subjects = {iri_value(s) for s, _, _ in fixture_graph
                    if is_iri(s) and iri_value(s).startswith("https://w3id.org/more/kg/")}
        kinds = {s.split("/")[6] for s in subjects}
        assert {"study", "person", "disposition", "plan", "process", "role",
                "datum", "valuespec"} <= kinds
        # process IRIs never collide with datum IRIs of the same rows
        processes = {s for s in subjects if "/process/" in s}
        datums = {s for s in subjects if "/datum/" in s}
        assert processes.isdisjoint(datums)


class TestEmitKg:
    def test_handgrip_value_specification(self, tmp_path):
        b = load_bundle(write_bundle(tmp_path))
        schema = build_schema(b.items)
        g = emit_kg(b, schema)
        value = Literal("32.5", iri_value(vocab.XSD_DECIMAL))
        vspecs = [s for s, _, _ in g.match(None, vocab.MORE_HAS_VALUE, value)]
        assert len(vspecs) == 1
        vs = vspecs[0]
        assert (vs, vocab.RDF_TYPE, vocab.OBI_VALUE_SPECIFICATION) in g
        assert (vs, vocab.MORE_HAS_UNIT, Literal("kg")) in g
        # the value has one path: the datum's only value object is vs
        datums = [s for s, _, _ in g.match(None, vocab.OBI_HAS_VALUE_SPECIFICATION, vs)]
        assert len(datums) == 1
        assert [o for _, _, o in g.match(datums[0], vocab.OBI_HAS_VALUE_SPECIFICATION)] \
            == [vs]

    def test_one_value_specification_per_datum(self, tmp_path):
        generate_fixture(tmp_path, seed=42, participants=5, items=2)
        b = load_bundle(tmp_path)
        schema = build_schema(b.items)
        g = emit_kg(b, schema)
        g.update(schema.graph)
        q = ("PREFIX obi: <http://purl.obolibrary.org/obo/OBI_> "
             "SELECT (COUNT(?v) AS ?n) WHERE { ?d obi:has_value_specification ?v . }")
        assert to_csv(evaluate(g, parse_query(q))) == "n\n10\n"
        assert g.count(None, vocab.RDF_TYPE, vocab.IAO_SCALAR_MEASUREMENT_DATUM) == 10

    def test_participant_without_results(self, tmp_path):
        write_bundle(tmp_path, {"results.csv":
                                "participant_id,test_item,value,session_date,trial\n"})
        b = load_bundle(tmp_path)
        g = emit_kg(b, build_schema(b.items))
        assert len(list(g.match(None, vocab.RDF_TYPE, vocab.MORE_PERSON))) == 1
        assert next(g.match(None, vocab.MORE_HAS_AGE, None))[2] == \
            Literal("9", iri_value(vocab.XSD_INTEGER))
        assert not list(g.match(None, vocab.OBI_HAS_SPECIFIED_OUTPUT, None))

    def test_triple_count_matches_walking_oracle(self, fixture_bundle, fixture_schema):
        g = emit_kg(fixture_bundle, fixture_schema)
        assert len(g) == count_expected_emission(fixture_bundle)

    def test_deterministic_emission(self, fixture_bundle, fixture_schema):
        g1 = emit_kg(fixture_bundle, fixture_schema)
        g2 = emit_kg(fixture_bundle, fixture_schema)
        assert g1 == g2
        assert write_ntriples(g1) == write_ntriples(g2)

    def test_trial_and_session_annotations(self, tmp_path):
        write_bundle(tmp_path, {"results.csv":
                                "participant_id,test_item,value,session_date,trial\n"
                                "p001,handgrip,32.5,2018-06-12,left\n"
                                "p001,handgrip,30.0,2018-06-12,right\n"})
        b = load_bundle(tmp_path)
        g = emit_kg(b, build_schema(b.items))
        trials = {literal_parts(o)[0] for _, _, o in g.match(None, vocab.MORE_HAS_TRIAL, None)}
        assert trials == {"left", "right"}
        # separate processes, one shared disposition
        procs = list(g.match(None, vocab.PATO_EXECUTES, None))
        assert len(procs) == 2
        disps = list(g.match(None, vocab.BFO_INHERES_IN, None))
        assert len(disps) == 1

    def test_pattern_completeness(self, fixture_graph):
        g = fixture_graph
        for proc, _, _ in g.match(None, vocab.PATO_EXECUTES, None):
            assert g.count(proc, vocab.OBI_HAS_SPECIFIED_OUTPUT, None) == 1
        for _, _, datum in g.match(None, vocab.OBI_HAS_SPECIFIED_OUTPUT, None):
            vs_objs = [o for _, _, o in g.match(datum, vocab.OBI_HAS_VALUE_SPECIFICATION)]
            assert len(vs_objs) == 1
            assert g.count(vs_objs[0], vocab.OBI_SPECIFIES_VALUE_OF, None) == 1

    def test_role_pattern(self, fixture_graph):
        g = fixture_graph
        for proc, _, _ in g.match(None, vocab.PATO_EXECUTES, None):
            participants = [o for _, _, o in g.match(proc, vocab.OBI_HAS_PARTICIPANT)]
            assert len(participants) == 1
            roles = [o for _, _, o in g.match(proc, vocab.OBI_REALIZES)
                     if (o, vocab.RDF_TYPE, vocab.OBI_EVALUANT_ROLE) in g]
            assert len(roles) == 1
            assert (participants[0], vocab.OBI_HAS_ROLE, roles[0]) in g

    def test_everything_linked_to_study(self, fixture_graph, fixture_bundle):
        study = mint_iri(fixture_bundle.metadata.id, "study", fixture_bundle.metadata.id)
        minted = {s for s, _, _ in fixture_graph
                  if is_iri(s)
                  and iri_value(s).startswith("https://w3id.org/more/kg/")
                  and s != study}
        for node in minted:
            assert (node, vocab.MORE_PART_OF_STUDY, study) in fixture_graph

    def test_years_emitted(self, fixture_graph, fixture_bundle):
        years = {int(literal_parts(o)[0]) for _, _, o in
                 fixture_graph.match(None, vocab.MORE_CONDUCTED_IN_YEAR, None)}
        assert years == set(fixture_bundle.metadata.years)

    def test_only_pseudonymous_ids_in_iris(self, fixture_graph, fixture_bundle):
        pids = {p.participant_id for p in fixture_bundle.participants}
        for s, _, _ in fixture_graph:
            if is_iri(s) and "/person/" in iri_value(s):
                assert iri_value(s).rsplit("/", 1)[1] in pids
