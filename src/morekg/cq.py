"""Built-in competency queries and the case-based query test harness."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .query import evaluate, parse_query, to_csv
from .rdf import Graph

# CQ1: how does handgrip strength vary across age groups?
CQ1_QUERY = """\
PREFIX more: <https://w3id.org/more#>
PREFIX obi: <http://purl.obolibrary.org/obo/OBI_>
PREFIX iao: <http://purl.obolibrary.org/obo/IAO_>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

SELECT ?age (AVG(?strengthValue) AS ?avgStrength)
WHERE {
  ?test a more:HandgripTestProcess ;
        obi:has_specified_output ?datum ;
        obi:has_participant ?person .
  ?datum a iao:ScalarMeasurementDatum ;
         obi:has_value_specification ?vs .
  ?vs more:hasValue ?strengthValue .
  ?person more:hasAge ?age .
}
GROUP BY ?age
ORDER BY ?age
"""

# CQ2: which test items were included in studies conducted 2015-2020?
CQ2_QUERY = """\
PREFIX more: <https://w3id.org/more#>

SELECT DISTINCT ?item
WHERE {
  ?item a more:TestItem ;
        more:partOfStudy ?s .
  ?s more:conductedInYear ?y .
  FILTER(?y >= 2015 && ?y <= 2020)
}
"""

DECIMAL_TOLERANCE = 1e-9


@dataclass
class CqCase:
    name: str
    query_path: Path
    expected_path: Path
    role: Optional[str] = None


@dataclass
class CqResult:
    case: str
    passed: bool
    message: str = ""


@dataclass
class CqSummary:
    results: list[CqResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True iff there is a case and every case passed."""
        return bool(self.results) and all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            suffix = (": " + r.message) if r.message else ""
            lines.append("%s %s%s" % (status, r.case, suffix))
        n_pass = sum(1 for r in self.results if r.passed)
        if self.results:
            lines.append("%d/%d cases passed" % (n_pass, len(self.results)))
        else:
            lines.append("0 cases")
        return "".join(line + "\n" for line in lines)


def discover_cases(cases_dir) -> list[CqCase]:
    base = Path(cases_dir)
    if not base.is_dir():
        raise NotADirectoryError("no cases directory %s" % base)
    cases = []
    for query_path in sorted(base.glob("*.rq")):
        name = query_path.stem
        role_path = base / (name + ".role")
        role = role_path.read_text(encoding="utf-8").strip() if role_path.exists() else None
        cases.append(CqCase(
            name=name,
            query_path=query_path,
            expected_path=base / (name + ".expected.csv"),
            role=role,
        ))
    return cases


def _cells(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text))]


def compare_csv(expected: str, actual: str) -> Optional[str]:
    """Cell-by-cell diff; decimals compared within DECIMAL_TOLERANCE.  Returns a
    message describing the first mismatch, or None if equal."""
    exp, act = _cells(expected), _cells(actual)
    if not exp:
        return "expected file is empty"
    if exp[0] != (act[0] if act else []):
        return "header mismatch: expected %s, got %s" % (exp[0], act[0] if act else [])
    if len(exp) != len(act):
        return "row count mismatch: expected %d, got %d" % (len(exp) - 1, len(act) - 1)
    for i, (erow, arow) in enumerate(zip(exp[1:], act[1:]), start=1):
        if len(erow) != len(arow):
            return "row %d: column count mismatch" % i
        for j, (e, a) in enumerate(zip(erow, arow)):
            if e == a:
                continue
            try:
                if abs(float(e) - float(a)) <= DECIMAL_TOLERANCE:
                    continue
            except ValueError:
                pass
            return "row %d, column %d (%s): expected %r, got %r" % (
                i, j + 1, exp[0][j] if j < len(exp[0]) else "?", e, a)
    return None


def run_case(graph: Graph, case: CqCase, policy) -> CqResult:
    from .privacy import apply_policy
    if not case.expected_path.exists():
        return CqResult(case.name, False,
                        "missing expected file %s" % case.expected_path.name)
    try:
        ast = parse_query(case.query_path.read_text(encoding="utf-8"))
        g = apply_policy(graph, policy, case.role) if case.role else graph
        actual = to_csv(evaluate(g, ast))
    except Exception as e:
        return CqResult(case.name, False, "error: %s" % e)
    expected = case.expected_path.read_text(encoding="utf-8")
    diff = compare_csv(expected, actual)
    if diff:
        return CqResult(case.name, False, diff)
    return CqResult(case.name, True)


def run_cases(graph: Graph, cases_dir, policy) -> CqSummary:
    return CqSummary([run_case(graph, case, policy) for case in discover_cases(cases_dir)])
