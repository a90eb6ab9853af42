"""Independent answers for the benchmark's queries, from the bundle CSVs.

No expected answer comes from morekg: each is computed by scanning
``participants.csv``, ``results.csv``, ``test_items.csv`` and
``study.csv`` directly, with exact rational arithmetic.  The per-age
CQ1 averages are ``cq1_average_by_age`` of the test suite's oracles,
which scans the same CSVs.  The checks compare query CSV output by value
(numbers within a tolerance, IRIs and counts exactly) rather than byte
for byte, so a change to how the graph models a value does not count as
a failure as long as the answers hold.
"""

from __future__ import annotations

import csv
import io
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import cq1_average_by_age  # noqa: E402

MORE = "https://w3id.org/more#"

# Query AVGs are rendered with 6 decimal places (round half up).
ROUNDING = Fraction(1, 2 * 10 ** 6)
TOLERANCE = 1e-9

DATE_LO, DATE_HI = "2017-01-01", "2018-12-31"
CQ2_YEARS = (2015, 2020)
BAND_WIDTH = 5


class OracleMismatch(Exception):
    pass


def item_iri(key: str) -> str:
    """``twenty_meter_dash`` -> ``https://w3id.org/more#TwentyMeterDash``."""
    parts = key.replace("-", " ").replace("_", " ").split()
    return MORE + "".join(p[:1].upper() + p[1:] for p in parts)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


class BundleFacts:
    """The facts the queries ask about, scanned once from a bundle."""

    def __init__(self, bundle_dir):
        base = Path(bundle_dir)
        self.cq1 = {str(age): avg for age, avg in cq1_average_by_age(base).items()}
        self.ages = {r["participant_id"]: int(r["age"])
                     for r in _rows(base / "participants.csv")}
        self.item_keys = [r["key"] for r in _rows(base / "test_items.csv")]
        study = _rows(base / "study.csv")[0]
        self.years = (int(study["year_start"]), int(study["year_end"]))
        self.results = [(r["participant_id"], r["test_item"],
                         Fraction(r["value"]), r["session_date"])
                        for r in _rows(base / "results.csv")]

    def _handgrip(self):
        return [(pid, v) for pid, item, v, _ in self.results if item == "handgrip"]

    def band_avg(self) -> dict[str, Fraction]:
        sums: dict = {}
        counts: Counter = Counter()
        for pid, v in self._handgrip():
            lo = self.ages[pid] // BAND_WIDTH * BAND_WIDTH
            band = "%d–%d" % (lo, lo + BAND_WIDTH - 1)
            sums[band] = sums.get(band, Fraction(0)) + v
            counts[band] += 1
        return {k: sums[k] / counts[k] for k in sums}

    def cq2(self) -> set[str]:
        lo, hi = CQ2_YEARS
        if self.years[0] <= hi and self.years[1] >= lo:
            return {item_iri(k) for k in self.item_keys}
        return set()

    def item_counts(self) -> dict[str, int]:
        return {item_iri(k): n
                for k, n in Counter(item for _, item, _, _ in self.results).items()}

    def date_range(self) -> Counter:
        return Counter(d for _, _, _, d in self.results if DATE_LO <= d <= DATE_HI)

    def top10(self) -> list[Fraction]:
        return sorted((v for _, v in self._handgrip()), reverse=True)[:10]

    def process_count(self) -> int:
        return len(self.results)


def _table(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise OracleMismatch("header %s, expected %s" % (rows[:1], header))
    return rows[1:]


def _check_avgs(rows, expected: dict) -> None:
    got = {k: v for k, v in rows}
    if set(got) != set(expected):
        raise OracleMismatch("groups %s, expected %s"
                             % (sorted(got), sorted(expected)))
    for k, exp in expected.items():
        if abs(Fraction(got[k]) - exp) > ROUNDING + Fraction(TOLERANCE):
            raise OracleMismatch("group %s: %s, expected %s"
                                 % (k, got[k], float(exp)))


def check(shape: str, text: str, facts: BundleFacts) -> None:
    """Raise OracleMismatch unless the query output ``text`` of ``shape``
    agrees with the answer computed from the bundle."""
    if shape in ("cq1", "cq1_shortcut"):
        _check_avgs(_table(text, ["age", "avgStrength"]), facts.cq1)
    elif shape == "band_avg":
        _check_avgs(_table(text, ["band", "avgStrength"]), facts.band_avg())
    elif shape == "cq2":
        got = [r[0] for r in _table(text, ["item"])]
        if len(got) != len(set(got)) or set(got) != facts.cq2():
            raise OracleMismatch("items %s, expected %s" % (got, sorted(facts.cq2())))
    elif shape == "item_counts":
        got = {r[0]: int(r[1]) for r in _table(text, ["item", "n"])}
        if got != facts.item_counts():
            raise OracleMismatch("counts %s, expected %s" % (got, facts.item_counts()))
    elif shape == "date_range":
        got = Counter(r[1] for r in _table(text, ["process", "date"]))
        if got != facts.date_range():
            raise OracleMismatch("%d dated rows, expected %d"
                                 % (sum(got.values()), sum(facts.date_range().values())))
    elif shape == "top10":
        got = [Fraction(r[0]) for r in _table(text, ["v"])]
        if sorted(got, reverse=True) != facts.top10():
            raise OracleMismatch("top values %s, expected %s"
                                 % ([str(v) for v in got], [str(v) for v in facts.top10()]))
    elif shape == "process_count":
        got = [int(r[0]) for r in _table(text, ["n"])]
        if got != [facts.process_count()]:
            raise OracleMismatch("count %s, expected %d" % (got, facts.process_count()))
    else:
        raise ValueError("no oracle for query shape %r" % shape)


def check_same_avgs(text_a: str, text_b: str) -> None:
    """CQ1 and its shortcut variant must give the same AVG per age."""
    a = dict(_table(text_a, ["age", "avgStrength"]))
    b = dict(_table(text_b, ["age", "avgStrength"]))
    if set(a) != set(b) or any(abs(float(a[k]) - float(b[k])) > TOLERANCE for k in a):
        raise OracleMismatch("CQ1 %s differs from its shortcut variant %s" % (a, b))
