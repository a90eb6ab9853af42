"""Independent answers computed from a study bundle itself: its CSV
files, scanned directly, or its loaded rows.

This module imports only the standard library, so a harness outside the
test suite can use it without importing morekg; the oracles that read
graphs and terms are in ``graph_oracles``.
"""

import csv
from fractions import Fraction
from pathlib import Path


def cq1_average_by_age(bundle_dir) -> dict[int, Fraction]:
    """Per-age average handgrip value straight from the CSVs."""
    base = Path(bundle_dir)
    ages = {}
    with open(base / "participants.csv", newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            ages[row["participant_id"]] = int(row["age"])
    sums: dict[int, Fraction] = {}
    counts: dict[int, int] = {}
    with open(base / "results.csv", newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            if row["test_item"] != "handgrip":
                continue
            age = ages[row["participant_id"]]
            sums[age] = sums.get(age, Fraction(0)) + Fraction(row["value"])
            counts[age] = counts.get(age, 0) + 1
    return {age: sums[age] / counts[age] for age in sums}


def cq2_items_in_range(bundles, lo=2015, hi=2020) -> set[str]:
    """Item keys of studies whose year span intersects [lo, hi]."""
    out = set()
    for b in bundles:
        if b.metadata.year_start <= hi and b.metadata.year_end >= lo:
            out |= {i.key for i in b.items}
    return out


def count_expected_emission(bundle) -> int:
    """Walk the bundle and count the triples emit_kg must produce."""
    n = 2  # study type + title
    n += bundle.metadata.year_end - bundle.metadata.year_start + 1
    if bundle.metadata.doi:
        n += 1
    n += len(bundle.items)  # item partOfStudy links
    for p in bundle.participants:
        n += 6  # type, age, height, weight, bmi, partOfStudy
        if p.sex:
            n += 1
        n += 3 * len(bundle.items)  # disposition: type, inheres_in, partOfStudy
    for r in bundle.results:
        n += 16  # plan(3) process(5) role(4) datum(4)
        n += 5   # value spec: type, value, unit, specifies_value_of, partOfStudy
        if r.trial:
            n += 1
        if r.session_date:
            n += 1
    return n
