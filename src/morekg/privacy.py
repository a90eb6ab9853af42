"""Sensitivity annotations, role policies, and filtered graph views.

Policies classify classes/properties as identifying, health, or public.
A role's view removes triples whose predicate carries a denied level,
removes the full star of every instance of a denied class, and can
replace denied numeric properties with banded string labels
(e.g. age 7 with width 5 becomes "5–9").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import yaml

from . import vocab
from .ontology import OntologySchema
from .query import numeric_value
from .rdf import Graph, IRI, Literal, PrefixMap, RdfError, Triple

LEVELS = ("identifying", "health", "public")


class PolicyError(Exception):
    pass


@dataclass(frozen=True)
class GeneralizationSpec:
    width: int

    def __post_init__(self):
        if type(self.width) is not int or self.width <= 0:  # bool is not a width
            raise PolicyError("generalization width must be a positive integer, got %r"
                              % (self.width,))

    def band_label(self, value) -> Optional[str]:
        num = numeric_value(value)
        if num is None:
            return None
        lo = math.floor(num / self.width) * self.width
        return "%d–%d" % (lo, lo + self.width - 1)


@dataclass
class Role:
    name: str
    allowed: frozenset[str]
    generalizations: dict[IRI, GeneralizationSpec] = field(default_factory=dict)

    @property
    def denied(self) -> frozenset[str]:
        return frozenset(LEVELS) - self.allowed


@dataclass
class Policy:
    annotations: dict[IRI, str]
    roles: dict[str, Role]
    provenance: str = ""

    def __post_init__(self):
        if not self.roles:
            raise PolicyError("policy must define at least one role")
        for role in self.roles.values():
            for target in role.generalizations:
                if target not in self.annotations:
                    raise PolicyError(
                        "generalization target %s carries no sensitivity annotation"
                        % target.value)

    def role(self, name: str) -> Role:
        try:
            return self.roles[name]
        except KeyError:
            raise PolicyError("unknown role %r" % name) from None

    def denied_targets(self, role_name: str) -> set[IRI]:
        role = self.role(role_name)
        return {t for t, level in self.annotations.items() if level in role.denied}


def _expand_target(key: str, pm: PrefixMap) -> IRI:
    if key.startswith("<") and key.endswith(">"):
        return IRI(key[1:-1])
    if "://" in key:
        return IRI(key)
    return pm.expand(key)


def policy_from_dict(data: dict, prefixes: Optional[PrefixMap] = None) -> Policy:
    pm = prefixes or PrefixMap.default()
    for prefix, ns in (data.get("prefixes") or {}).items():
        pm.register(prefix, ns)

    try:
        annotations: dict[IRI, str] = {}
        for key, level in (data.get("annotations") or {}).items():
            target = _expand_target(key, pm)
            if level not in LEVELS:
                raise PolicyError("unknown sensitivity level %r for %s"
                                  % (level, target.value))
            annotations[target] = level

        roles: dict[str, Role] = {}
        for name, spec in (data.get("roles") or {}).items():
            if name in roles:
                raise PolicyError("duplicate role %r" % name)
            spec = spec or {}
            allowed = frozenset(spec.get("allow") or ())
            unknown = allowed - set(LEVELS)
            if unknown:
                raise PolicyError("role %s: unknown level(s): %s"
                                  % (name, ", ".join(sorted(unknown))))
            generalizations = {}
            for key, gspec in (spec.get("generalize") or {}).items():
                try:
                    if not isinstance(gspec, dict):
                        raise PolicyError("expected a mapping with a width")
                    if gspec.get("kind", "band") != "band":
                        raise PolicyError("unknown kind %r (only band is supported)"
                                          % gspec["kind"])
                    generalizations[_expand_target(key, pm)] = GeneralizationSpec(
                        gspec.get("width"))
                except PolicyError as e:
                    raise PolicyError("role %s: generalize %s: %s" % (name, key, e)) from None
            roles[name] = Role(name=name, allowed=allowed,
                               generalizations=generalizations)
    except RdfError as e:
        raise PolicyError(str(e)) from None

    return Policy(annotations=annotations, roles=roles,
                  provenance=data.get("provenance", ""))


def load_policy(path) -> Policy:
    with open(path, encoding="utf-8") as f:
        data = yaml.safe_load(f)
    if not isinstance(data, dict):
        raise PolicyError("policy file %s: expected a mapping" % path)
    return policy_from_dict(data)


def annotate_schema(schema: OntologySchema, p: Policy) -> tuple[Graph, list[str]]:
    """Extend the schema graph with sensitivity-level triples.

    Returns the extended graph and warnings for targets not found in the
    schema vocabulary (the triple is still added)."""
    out = schema.graph.copy()
    warnings_: list[str] = []
    known: set = set()
    for s, pr, o in schema.graph:
        known.add(s)
        known.add(pr)
        if isinstance(o, IRI):
            known.add(o)
    for target, level in sorted(p.annotations.items(), key=lambda kv: kv[0].value):
        if target not in known:
            warnings_.append("annotation target not in schema vocabulary: %s"
                             % target.value)
        out.add(target, vocab.MORE_SENSITIVITY_LEVEL, Literal(level))
    schema.annotations = Graph(
        out.match(None, vocab.MORE_SENSITIVITY_LEVEL, None))
    return out, warnings_


def apply_policy(g: Graph, p: Policy, role_name: str) -> Graph:
    """Build the role's filtered/generalized view; source unchanged."""
    role = p.role(role_name)
    denied = p.denied_targets(role_name)
    if not denied:
        return g.copy()

    # instances of denied classes lose their entire star
    removed_nodes: set = set()
    for cls in denied:
        for t in g.match(None, vocab.RDF_TYPE, cls):
            removed_nodes.add(t.subject)

    view = Graph()
    for t in g:
        s, pr, o = t
        if s in removed_nodes or o in removed_nodes:
            continue
        if pr in denied:
            spec = role.generalizations.get(pr)
            if spec is not None:
                label = spec.band_label(o)
                if label is not None:
                    view.add(s, IRI(pr.value + "Band"), Literal(label))
            continue
        view.insert(t)
    return view


@dataclass
class AuditViolation:
    triple: Triple
    reason: str


@dataclass
class AuditReport:
    role: str
    violations: list[AuditViolation] = field(default_factory=list)
    checked: int = 0

    def __bool__(self):
        return bool(self.violations)

    def __len__(self):
        return len(self.violations)

    def to_text(self) -> str:
        lines = ["audit: role=%s checked=%d violations=%d"
                 % (self.role, self.checked, len(self.violations))]
        from .serdes import term_to_nt
        for v in self.violations:
            lines.append("VIOLATION %s %s %s : %s" % (
                term_to_nt(v.triple.subject), term_to_nt(v.triple.predicate),
                term_to_nt(v.triple.object), v.reason))
        return "".join(line + "\n" for line in lines)

    def to_csv(self) -> str:
        import csv
        import io
        from .serdes import term_to_nt
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["subject", "predicate", "object", "reason"])
        for v in self.violations:
            writer.writerow([term_to_nt(v.triple.subject),
                             term_to_nt(v.triple.predicate),
                             term_to_nt(v.triple.object), v.reason])
        return buf.getvalue()


def audit_view(view: Graph, p: Policy, role_name: str) -> AuditReport:
    """List every triple in the view that the role's policy forbids."""
    denied = p.denied_targets(role_name)
    report = AuditReport(role=role_name, checked=len(view))
    for t in view:
        if t.predicate in denied:
            report.violations.append(AuditViolation(
                t, "denied predicate %s" % t.predicate.value))
        if t.predicate == vocab.RDF_TYPE and t.object in denied:
            report.violations.append(AuditViolation(
                t, "instance of denied class %s" % t.object.value))
    return report


def default_policy() -> Policy:
    """Shipped policy: age/postal code identifying, BMI health; the
    public role sees only public data with 5-year age bands."""
    pm = PrefixMap.default()
    return policy_from_dict({
        "annotations": {
            "more:hasAge": "identifying",
            "more:hasPostalCode": "identifying",
            "more:hasBmi": "health",
        },
        "roles": {
            "public": {
                "allow": ["public"],
                "generalize": {"more:hasAge": {"width": 5}},
            },
            "researcher": {"allow": list(LEVELS)},
        },
        "provenance": "role-based permission/prohibition view policy "
                      "(ODRL-style lineage; not ODRL RDF)",
    }, pm)
