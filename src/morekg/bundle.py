"""Tabular study-bundle data model and the bundle layout.

The records are plain data; ``ingestion.load_bundle`` checks every rule
of a bundle, at its file and row."""

from __future__ import annotations

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


@dataclass(frozen=True)
class StudyMetadata:
    id: str
    title: str
    year_start: int
    year_end: int
    doi: Optional[str] = None

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
    location: str  # the entity it concerns
    message: str


@dataclass
class ValidationReport:
    warnings: list[ValidationIssue] = field(default_factory=list)

    def __len__(self):
        return len(self.warnings)
