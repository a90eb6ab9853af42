"""Deterministic synthetic study bundles for tests and benchmarks.

All randomness is confined here behind an explicit seed; the same seed
always produces byte-identical CSV files.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

from .bundle import TABLES, TestItemDef
from . import vocab
from .rdf import iri_value

BUILTIN_ITEMS = [
    TestItemDef("handgrip", "Handgrip", "grip strength", "kg",
                iri_value(vocab.XSD_DECIMAL)),
    TestItemDef("shuttle_run", "Shuttle Run Test", "aerobic endurance",
                "ml/kg/min", iri_value(vocab.XSD_DECIMAL)),
    TestItemDef("sit_and_reach", "Sit & Reach", "flexibility", "cm",
                iri_value(vocab.XSD_DECIMAL)),
    TestItemDef("twenty_meter_dash", "20 meter Dash", "sprint speed", "s",
                iri_value(vocab.XSD_DECIMAL)),
]

_VALUE_RANGES = {
    "handgrip": (5.0, 60.0),
    "shuttle_run": (20.0, 60.0),
    "sit_and_reach": (0.0, 40.0),
    "twenty_meter_dash": (3.0, 6.0),
}

AGE_GROUPS = (6, 7, 8, 9, 10, 11)


def generate_fixture(out_dir, seed: int = 42, participants: int = 30,
                     items: int = 2, study_id: str = "st01",
                     title: str = "Synthetic motor performance study",
                     year_start: int = 2016, year_end: int = 2019) -> Path:
    """Write a synthetic bundle; one result per participant per item."""
    if seed < 0 or participants < 0 or items <= 0:
        raise ValueError("seed/participants must be >= 0 and items > 0")
    if items > len(BUILTIN_ITEMS):
        raise ValueError("at most %d items supported" % len(BUILTIN_ITEMS))
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chosen = BUILTIN_ITEMS[:items]

    def write(table, rows):
        with open(out / (table + ".csv"), "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(TABLES[table])
            w.writerows(rows)

    write("study", [[study_id, title, year_start, year_end,
                      "10.5445/synthetic/%s" % study_id]])

    write("test_items", [[i.key, i.label, i.disposition_label, i.unit, i.datatype]
                         for i in chosen])

    participant_rows = []
    pids = []
    for n in range(1, participants + 1):
        pid = "p%03d" % n
        pids.append(pid)
        age = rng.choice(AGE_GROUPS)
        sex = rng.choice(["f", "m"])
        height = round(100.0 + age * 5.0 + rng.uniform(-10.0, 10.0), 1)
        bmi_target = rng.uniform(14.0, 22.0)
        weight = round(bmi_target * (height / 100.0) ** 2, 1)
        bmi = round(weight / (height / 100.0) ** 2, 1)
        participant_rows.append([pid, age, sex, "%.1f" % height,
                                 "%.1f" % weight, "%.1f" % bmi])
    write("participants", participant_rows)

    result_rows = []
    for pid in pids:
        for item in chosen:
            lo, hi = _VALUE_RANGES[item.key]
            value = round(rng.uniform(lo, hi), 1)
            year = rng.choice(range(year_start, year_end + 1))
            session = "%d-06-%02d" % (year, rng.randint(1, 28))
            result_rows.append([pid, item.key, "%.1f" % value, session, ""])
    write("results", result_rows)
    return out
