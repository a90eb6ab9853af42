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
from datetime import date
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
    ValidationIssue,
    ValidationReport,
)
from .ontology import FIXED_CLASSES, OntologySchema, item_terms
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
# Each id a bundle gives, as a rule and the words its error gives.  The
# study id holds no dot, so that it is also safe in a Turtle prefix name.
_SEGMENT_RULE = (_COMPONENT_RE, "ASCII letters, digits and _.~-, not . or ..")
_STUDY_ID_RULE = (re.compile(r"[a-z0-9_-]+\Z"), "lower-case ASCII letters, digits and _-")
# an xsd:date with no time zone, which must also be a calendar date
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}\Z")
_XSD_INTEGER = iri_value(vocab.XSD_INTEGER)
_XSD_DECIMAL = iri_value(vocab.XSD_DECIMAL)


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


def _component(row: dict, field: str, path, rownum: int, rule=_SEGMENT_RULE) -> str:
    """A required id that a minted IRI takes as a path segment."""
    value = _req(row, field, path, rownum)
    if not rule[0].match(value):
        raise BundleError("%s row %d: %s %r is not an IRI path segment: %s"
                          % (path, rownum, field, value, rule[1]))
    return value


def _number(row: dict, field: str, datatype: str, path, rownum: int) -> str:
    """A required cell holding a lexical form of the numeric ``datatype``,
    by the rule a query reads numbers with, kept as written."""
    value = _req(row, field, path, rownum)
    if not NUMERIC_LEXICAL[datatype].fullmatch(value):
        raise BundleError("%s row %d: non-numeric %s %r: not a lexical form of %s"
                          % (path, rownum, field, value, datatype))
    return value


def _opt(row: dict, field: str) -> Optional[str]:
    value = (row.get(field) or "").strip()
    return value or None


def _session_date(row: dict, path, rownum: int) -> Optional[str]:
    value = _opt(row, "session_date")
    if value is not None:
        try:  # fromisoformat also reads forms, such as 20180612, that xsd:date does not
            date.fromisoformat(value if _DATE_RE.match(value) else "")
        except ValueError:
            raise BundleError("%s row %d: session_date %r is not a YYYY-MM-DD "
                              "calendar date" % (path, rownum, value)) from None
    return value


def load_bundle(dir_path) -> StudyBundle:
    """Read the bundle at ``dir_path``.  Every rule of a bundle is checked
    here, once, and each error names its CSV file and row."""
    base = Path(dir_path)

    spath, study_rows = _read_rows(base, "study")
    if len(study_rows) != 1:
        raise BundleError("%s: expected exactly 1 study row, got %d"
                          % (spath, len(study_rows)))
    row = study_rows[0]
    metadata = StudyMetadata(
        id=_component(row, "id", spath, 2, _STUDY_ID_RULE),
        title=_req(row, "title", spath, 2),
        year_start=int(_number(row, "year_start", _XSD_INTEGER, spath, 2)),
        year_end=int(_number(row, "year_end", _XSD_INTEGER, spath, 2)),
        doi=_opt(row, "doi"),
    )
    if metadata.year_start > metadata.year_end:
        raise BundleError("%s row 2: year_start %d > year_end %d"
                          % (spath, metadata.year_start, metadata.year_end))

    ppath, rows = _read_rows(base, "participants")
    participants = []
    seen_pids: set[str] = set()
    for i, row in enumerate(rows, start=2):
        pid = _component(row, "participant_id", ppath, i)
        if pid in seen_pids:
            raise BundleError("%s row %d: duplicate participant_id %r" % (ppath, i, pid))
        seen_pids.add(pid)
        age = int(_number(row, "age", _XSD_INTEGER, ppath, i))
        height_cm, weight_kg, bmi = (_number(row, field, _XSD_DECIMAL, ppath, i)
                                     for field in ("height_cm", "weight_kg", "bmi"))
        if age < 0:
            raise BundleError("%s row %d: negative age %d" % (ppath, i, age))
        if float(height_cm) <= 0 or float(weight_kg) <= 0:
            raise BundleError("%s row %d: non-positive height/weight" % (ppath, i))
        participants.append(ParticipantRecord(pid, age, _opt(row, "sex"),
                                              height_cm, weight_kg, bmi))

    pids = [p.participant_id for p in participants]
    ipath, rows = _read_rows(base, "test_items")
    items = []
    datatypes: dict[str, str] = {}  # test item key -> its datatype
    # "<participant_id>_<key>", the IRI local of a disposition and the stem
    # of its results' locals -> the (participant, key) pair it names
    pairs: dict[str, tuple[str, str]] = {}
    names: dict[Term, tuple[str, int]] = {}  # item individual -> its key and row
    classes: dict[Term, str] = {}  # item class -> the key and row that give it
    for i, row in enumerate(rows, start=2):
        key = _component(row, "key", ipath, i)
        if key in datatypes:
            raise BundleError("%s row %d: duplicate test item key %r" % (ipath, i, key))
        datatype = _opt(row, "datatype") or _XSD_DECIMAL
        if datatype not in NUMERIC_LEXICAL:  # the datatypes a query reads as numbers
            raise BundleError("%s row %d: datatype %r is not a numeric XSD datatype IRI"
                              % (ipath, i, datatype))
        datatypes[key] = datatype
        for pid in pids:
            pair = pairs.setdefault("%s_%s" % (pid, key), (pid, key))
            if pair[1] != key:
                raise BundleError("%s row %d: participant %r with key %r mints the IRIs "
                                  "of participant %r with key %r" % ((ipath, i, pid, key) + pair))
        item = TestItemDef(
            key=key,
            label=_req(row, "label", ipath, i),
            disposition_label=_req(row, "disposition_label", ipath, i),
            unit=_req(row, "unit", ipath, i),
            datatype=datatype,
        )
        try:
            item_iri, proc_cls, kind_iri = item_terms(key, item.disposition_label)
        except BundleError as e:
            raise BundleError("%s row %d: %s" % (ipath, i, e)) from None
        if item_iri in names:
            raise BundleError("%s row %d: key %r names the item %s, as key %r does in row %d"
                              % ((ipath, i, key, item_iri) + names[item_iri]))
        names[item_iri] = (key, i)
        classes.setdefault(proc_cls, "the process class of key %r in row %d" % (key, i))
        classes.setdefault(kind_iri, "the disposition kind of key %r in row %d" % (key, i))
        items.append(item)
    # an item's individual is no schema class, whichever row comes first;
    # handgrip's process class is a fixed class, and that is no pun
    for item_iri, (key, i) in names.items():
        pun = classes.get(item_iri) or (item_iri in FIXED_CLASSES and "a fixed schema class")
        if pun:
            raise BundleError("%s row %d: key %r names the item %s, %s"
                              % (ipath, i, key, item_iri, pun))

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
        record = ResultRecord(
            participant_id=pid,
            item=item,
            value=_number(row, "value", datatype, rpath, i),
            session_date=_session_date(row, rpath, i),
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
    """Report-only consistency checks, each a warning; never mutates the
    bundle."""
    report = ValidationReport()
    for p in b.participants:
        loc = "participant %s" % p.participant_id
        height_m = float(p.height_cm) / 100.0
        if height_m > 0:
            computed = float(p.weight_kg) / (height_m * height_m)
            if abs(computed - float(p.bmi)) > 0.5:
                report.warnings.append(ValidationIssue(
                    loc, "BMI %s inconsistent with weight/height (computed %.2f)"
                    % (p.bmi, computed)))
        if p.age > 120:
            report.warnings.append(ValidationIssue(loc, "age outlier: %d" % p.age))
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
