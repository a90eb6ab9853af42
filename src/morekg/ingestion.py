"""Load tabular study bundles, validate them, mint deterministic IRIs,
and emit the knowledge graph.

Emission follows the plan/process/datum pattern: each result row yields
an executed plan, a test process with an evaluant role for the
participant, a scalar measurement datum, and a value specification that
specifies the value of the participant's disposition.  A datum's value
has one path, ``?datum obi:has_value_specification ?vs . ?vs
more:hasValue ?value``.  The query-facing shortcut ``more:hasAge`` is
emitted alongside the full pattern.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Optional

from . import vocab
from .bundle import (
    BundleError,
    ParticipantRecord,
    ResultRecord,
    StudyBundle,
    StudyMetadata,
    TABLES,
    TestItemDef,
    ValidationReport,
)
from .ontology import OntologySchema
from .query import NUMERIC_LEXICAL
from .rdf import Graph, Literal, Term, iri_value


# The one rule for a minted IRI's path segment: characters that an IRI
# path holds unencoded, none of which ``rdf.IRI_EXCLUDED`` names, and not
# the dot segments "." and "..", which RFC 3986 resolves away.  A
# component with any other character is rejected, not percent-encoded.
_COMPONENT = r"(?!\.\.?(?:/|\Z))[A-Za-z0-9_.~-]+"
_COMPONENT_RE = re.compile(_COMPONENT + r"\Z")
# "study/kind/local": no component holds "/", so the joined path matches
# iff each of the three components does
_PATH_RE = re.compile(r"(?:{0}/){{2}}{0}\Z".format(_COMPONENT))
_DECIMAL_RE = NUMERIC_LEXICAL[iri_value(vocab.XSD_DECIMAL)]


def mint_iri(study_id: str, kind: str, local: str) -> Term:
    """Deterministic entity IRI ``KG_BASE + study/kind/local``.

    Each component must be a non-empty path segment by the one component
    rule: ASCII letters, digits and ``_.~-``, and not ``.`` or ``..``.
    ``load_bundle`` checks the ids a bundle gives by the same rule, so
    ``emit_kg`` never fails here on a loaded bundle."""
    path = "%s/%s/%s" % (study_id, kind, local)
    if not _PATH_RE.match(path):  # word the error by the first bad component
        for name, component in (("study", study_id), ("kind", kind), ("local", local)):
            if not component:
                raise BundleError("empty %s component for minted IRI" % name)
            if not _COMPONENT_RE.match(component):
                raise BundleError("invalid IRI component: %r" % component)
    return "<%s%s>" % (vocab.KG_BASE, path)  # the text IRI() builds


def _read_rows(base: Path, table: str) -> tuple[Path, list[dict]]:
    """The path of ``table``'s file in the bundle at ``base``, and its rows.
    A leading UTF-8 byte-order mark, as spreadsheet programs write, is skipped."""
    path = base / (table + ".csv")
    if not path.exists():
        raise BundleError("missing bundle file: %s" % path)
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        expected = TABLES[table]
        if list(header) != expected:
            raise BundleError(
                "%s: header mismatch, expected %s, got %s"
                % (path, ",".join(expected), ",".join(header))
            )
        return path, list(reader)


def _req(row: dict, field: str, path, rownum: int) -> str:
    value = (row.get(field) or "").strip()
    if not value:
        raise BundleError("%s row %d: missing %s" % (path, rownum, field))
    return value


def _component(row: dict, field: str, path, rownum: int) -> str:
    """A required id that a minted IRI takes as a path segment."""
    value = _req(row, field, path, rownum)
    if not _COMPONENT_RE.match(value):
        raise BundleError("%s row %d: %s %r is not an IRI path segment: ASCII "
                          "letters, digits and _.~-, not . or .."
                          % (path, rownum, field, value))
    return value


def _opt(row: dict, field: str) -> Optional[str]:
    value = (row.get(field) or "").strip()
    return value or None


def _int(value: str, what: str, path, rownum: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise BundleError("%s row %d: non-integer %s: %r" % (path, rownum, what, value)) from None


def _decimal(value: str, what: str, path, rownum: int) -> str:
    if not _DECIMAL_RE.fullmatch(value):
        raise BundleError("%s row %d: non-numeric %s: %r" % (path, rownum, what, value))
    return value


def load_bundle(dir_path) -> StudyBundle:
    base = Path(dir_path)

    spath, study_rows = _read_rows(base, "study")
    if len(study_rows) != 1:
        raise BundleError("%s: expected exactly 1 study row, got %d"
                          % (spath, len(study_rows)))
    row = study_rows[0]
    metadata = StudyMetadata(
        id=_component(row, "id", spath, 2),
        title=_req(row, "title", spath, 2),
        year_start=_int(_req(row, "year_start", spath, 2), "year_start", spath, 2),
        year_end=_int(_req(row, "year_end", spath, 2), "year_end", spath, 2),
        doi=_opt(row, "doi"),
    )

    ppath, rows = _read_rows(base, "participants")
    participants = []
    seen_pids: set[str] = set()
    for i, row in enumerate(rows, start=2):
        pid = _component(row, "participant_id", ppath, i)
        if pid in seen_pids:
            raise BundleError("%s row %d: duplicate participant_id %r" % (ppath, i, pid))
        seen_pids.add(pid)
        participants.append(ParticipantRecord(
            participant_id=pid,
            age=_int(_req(row, "age", ppath, i), "age", ppath, i),
            sex=_opt(row, "sex"),
            height_cm=_decimal(_req(row, "height_cm", ppath, i), "height_cm", ppath, i),
            weight_kg=_decimal(_req(row, "weight_kg", ppath, i), "weight_kg", ppath, i),
            bmi=_decimal(_req(row, "bmi", ppath, i), "bmi", ppath, i),
        ))

    ipath, rows = _read_rows(base, "test_items")
    items = []
    datatypes: dict[str, str] = {}  # test item key -> its datatype
    for i, row in enumerate(rows, start=2):
        key = _component(row, "key", ipath, i)
        if key in datatypes:
            raise BundleError("%s row %d: duplicate test item key %r" % (ipath, i, key))
        datatype = _opt(row, "datatype") or iri_value(vocab.XSD_DECIMAL)
        if datatype not in NUMERIC_LEXICAL:  # the datatypes a query reads as numbers
            raise BundleError("%s row %d: datatype %r is not a numeric XSD datatype IRI"
                              % (ipath, i, datatype))
        datatypes[key] = datatype
        items.append(TestItemDef(
            key=key,
            label=_req(row, "label", ipath, i),
            disposition_label=_req(row, "disposition_label", ipath, i),
            unit=_req(row, "unit", ipath, i),
            datatype=datatype,
        ))

    rpath, rows = _read_rows(base, "results")
    results = []
    seen_results: set[tuple] = set()
    for i, row in enumerate(rows, start=2):
        pid = _req(row, "participant_id", rpath, i)
        if pid not in seen_pids:
            raise BundleError("%s row %d: unknown participant %r" % (rpath, i, pid))
        item = _req(row, "test_item", rpath, i)
        datatype = datatypes.get(item)
        if datatype is None:
            raise BundleError("%s row %d: unknown test item %r" % (rpath, i, item))
        value = _req(row, "value", rpath, i)
        if not NUMERIC_LEXICAL[datatype].fullmatch(value):
            raise BundleError("%s row %d: non-numeric value %r: not a lexical form of %s"
                              % (rpath, i, value, datatype))
        record = ResultRecord(
            participant_id=pid,
            item=item,
            value=value,
            session_date=_opt(row, "session_date"),
            trial=_opt(row, "trial"),
        )
        dedup_key = (pid, item, record.session_date, record.trial)
        if dedup_key in seen_results:
            raise BundleError(
                "%s row %d: duplicate result for %s" % (rpath, i, dedup_key,)
            )
        seen_results.add(dedup_key)
        results.append(record)

    return StudyBundle(metadata=metadata, participants=participants,
                       items=items, results=results)


def validate_bundle(b: StudyBundle) -> ValidationReport:
    """Report-only consistency checks; never mutates the bundle."""
    report = ValidationReport()
    for p in b.participants:
        loc = "participant %s" % p.participant_id
        height_m = float(p.height_cm) / 100.0
        if height_m > 0:
            computed = float(p.weight_kg) / (height_m * height_m)
            if abs(computed - float(p.bmi)) > 0.5:
                report.add("warning", loc,
                           "BMI %s inconsistent with weight/height (computed %.2f)"
                           % (p.bmi, computed))
        if p.age > 120:
            report.add("warning", loc, "age outlier: %d" % p.age)

    seen_sessions: set[tuple] = set()
    for idx, r in enumerate(b.results, start=1):
        key = (r.participant_id, r.item, r.session_date, r.trial)
        if key in seen_sessions:
            report.add("warning", "result %d" % idx, "duplicate session %s" % (key,))
        seen_sessions.add(key)
    return report


def emit_kg(b: StudyBundle, schema: OntologySchema) -> Graph:
    """Emit the data-level graph for one study (schema triples not
    included; merge with ``schema.graph`` for a queryable KG)."""
    g = Graph()
    study_id = b.metadata.id
    study = mint_iri(study_id, "study", study_id)
    part_of = vocab.MORE_PART_OF_STUDY

    g.add(study, vocab.RDF_TYPE, vocab.MORE_STUDY)
    g.add(study, vocab.MORE_HAS_TITLE, Literal(b.metadata.title))
    for year in b.metadata.years:
        g.add(study, vocab.MORE_CONDUCTED_IN_YEAR,
              Literal(str(year), iri_value(vocab.XSD_INTEGER)))
    if b.metadata.doi:
        g.add(study, vocab.MORE_HAS_DOI, Literal(b.metadata.doi))

    item_iris = schema.item_iris
    for item in b.items:
        g.add(item_iris[item.key], part_of, study)

    persons: dict[str, Term] = {}
    dispositions: dict[tuple[str, str], Term] = {}
    for p in b.participants:
        person = mint_iri(study_id, "person", p.participant_id)
        persons[p.participant_id] = person
        g.add(person, vocab.RDF_TYPE, vocab.MORE_PERSON)
        g.add(person, vocab.MORE_HAS_AGE, Literal(str(p.age), iri_value(vocab.XSD_INTEGER)))
        if p.sex:
            g.add(person, vocab.MORE_HAS_SEX, Literal(p.sex))
        g.add(person, vocab.MORE_HAS_HEIGHT, Literal(p.height_cm, iri_value(vocab.XSD_DECIMAL)))
        g.add(person, vocab.MORE_HAS_WEIGHT, Literal(p.weight_kg, iri_value(vocab.XSD_DECIMAL)))
        g.add(person, vocab.MORE_HAS_BMI, Literal(p.bmi, iri_value(vocab.XSD_DECIMAL)))
        g.add(person, part_of, study)
        for item in b.items:
            disp = mint_iri(study_id, "disposition",
                            "%s_%s" % (p.participant_id, item.key))
            dispositions[(p.participant_id, item.key)] = disp
            g.add(disp, vocab.RDF_TYPE, schema.disposition_kinds[item.key])
            g.add(disp, vocab.BFO_INHERES_IN, person)
            g.add(disp, part_of, study)

    units = {key: Literal(item.unit) for key, item in schema.items.items()}
    counters: dict[tuple[str, str], int] = {}
    for r in b.results:
        n = counters.get((r.participant_id, r.item), 0) + 1
        counters[(r.participant_id, r.item)] = n
        local = "%s_%s_%d" % (r.participant_id, r.item, n)
        item_iri = item_iris[r.item]
        person = persons[r.participant_id]
        disp = dispositions[(r.participant_id, r.item)]

        plan = mint_iri(study_id, "plan", local)
        proc = mint_iri(study_id, "process", local)
        role = mint_iri(study_id, "role", local)
        datum = mint_iri(study_id, "datum", local)
        vspec = mint_iri(study_id, "valuespec", local)

        g.add(plan, vocab.RDF_TYPE, vocab.IAO_PLAN)
        g.add(plan, vocab.BFO_CONCRETIZES, item_iri)
        g.add(plan, part_of, study)

        g.add(proc, vocab.RDF_TYPE, schema.process_classes[r.item])
        g.add(proc, vocab.OBI_REALIZES, plan)
        g.add(proc, vocab.PATO_EXECUTES, item_iri)
        g.add(proc, vocab.OBI_HAS_PARTICIPANT, person)
        g.add(proc, part_of, study)
        if r.trial:
            g.add(proc, vocab.MORE_HAS_TRIAL, Literal(r.trial))
        if r.session_date:
            g.add(proc, vocab.MORE_HAS_SESSION_DATE,
                  Literal(r.session_date, iri_value(vocab.XSD_DATE)))

        g.add(role, vocab.RDF_TYPE, vocab.OBI_EVALUANT_ROLE)
        g.add(person, vocab.OBI_HAS_ROLE, role)
        g.add(proc, vocab.OBI_REALIZES, role)
        g.add(role, part_of, study)

        g.add(datum, vocab.RDF_TYPE, vocab.IAO_SCALAR_MEASUREMENT_DATUM)
        g.add(proc, vocab.OBI_HAS_SPECIFIED_OUTPUT, datum)
        g.add(datum, vocab.OBI_HAS_VALUE_SPECIFICATION, vspec)
        g.add(datum, part_of, study)

        g.add(vspec, vocab.RDF_TYPE, vocab.OBI_VALUE_SPECIFICATION)
        g.add(vspec, vocab.MORE_HAS_VALUE, Literal(r.value, schema.items[r.item].datatype))
        g.add(vspec, vocab.MORE_HAS_UNIT, units[r.item])
        g.add(vspec, vocab.OBI_SPECIFIES_VALUE_OF, disp)
        g.add(vspec, part_of, study)

    return g
