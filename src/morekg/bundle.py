"""Tabular study-bundle data model and the bundle layout."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from . import vocab
from .rdf import iri_value


class BundleError(Exception):
    """Raised for structurally invalid bundles."""


# The bundle layout: table ``t`` is the file ``<t>.csv`` in the bundle
# directory, with exactly the columns ``TABLES[t]``, in this order.
TABLES = {
    "study": ["id", "title", "year_start", "year_end", "doi"],
    "participants": ["participant_id", "age", "sex", "height_cm", "weight_kg", "bmi"],
    "test_items": ["key", "label", "disposition_label", "unit", "datatype"],
    "results": ["participant_id", "test_item", "value", "session_date", "trial"],
}

_STUDY_ID_RE = re.compile(r"[a-z0-9_-]+\Z")


@dataclass(frozen=True)
class StudyMetadata:
    id: str
    title: str
    year_start: int
    year_end: int
    doi: Optional[str] = None

    def __post_init__(self):
        if not _STUDY_ID_RE.match(self.id):
            raise BundleError("study id must match [a-z0-9_-]+: %r" % self.id)
        if self.year_start > self.year_end:
            raise BundleError(
                "study %s: year_start %d > year_end %d"
                % (self.id, self.year_start, self.year_end)
            )

    @property
    def years(self) -> range:
        return range(self.year_start, self.year_end + 1)


@dataclass(frozen=True)
class ParticipantRecord:
    participant_id: str
    age: int
    sex: Optional[str]
    height_cm: str  # lexical decimal forms preserved for bit-exact output
    weight_kg: str
    bmi: str

    def __post_init__(self):
        if self.age < 0:
            raise BundleError("participant %s: negative age" % self.participant_id)
        if float(self.height_cm) <= 0 or float(self.weight_kg) <= 0:
            raise BundleError("participant %s: non-positive height/weight" % self.participant_id)


@dataclass(frozen=True)
class TestItemDef:
    key: str
    label: str
    disposition_label: str
    unit: str
    datatype: str = iri_value(vocab.XSD_DECIMAL)


@dataclass(frozen=True)
class ResultRecord:
    participant_id: str
    item: str
    value: str  # lexical form under the item datatype
    session_date: Optional[str] = None
    trial: Optional[str] = None


@dataclass
class StudyBundle:
    metadata: StudyMetadata
    participants: list[ParticipantRecord]
    items: list[TestItemDef]
    results: list[ResultRecord]


@dataclass
class ValidationIssue:
    severity: str  # warning | error
    location: str  # file/row or entity context
    message: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    def add(self, severity: str, location: str, message: str) -> None:
        self.issues.append(ValidationIssue(severity, location, message))

    @property
    def warnings(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "warning"]

    def __len__(self):
        return len(self.issues)

    def __bool__(self):
        return bool(self.issues)
