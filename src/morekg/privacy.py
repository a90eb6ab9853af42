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
from .query import numeric_value
from .rdf import Graph, IRI, Literal, PrefixMap, RdfError, Term, iri_value

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
    generalizations: dict[Term, GeneralizationSpec] = field(default_factory=dict)

    @property
    def denied(self) -> frozenset[str]:
        return frozenset(LEVELS) - self.allowed


@dataclass
class Policy:
    annotations: dict[Term, str]
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
                        % iri_value(target))

    def role(self, name: str) -> Role:
        try:
            return self.roles[name]
        except KeyError:
            raise PolicyError("unknown role %r" % name) from None

    def denied_targets(self, role_name: str) -> set[Term]:
        role = self.role(role_name)
        return {t for t, level in self.annotations.items() if level in role.denied}


def _expand_target(key, pm: PrefixMap) -> Term:
    if not isinstance(key, str):
        raise PolicyError("target must be an IRI or CURIE string, got %r" % (key,))
    if key.startswith("<") and key.endswith(">"):
        return IRI(key[1:-1])
    if "://" in key:
        return IRI(key)
    return pm.expand(key)


def _section(value, where: str) -> dict:
    """A policy section that must be a mapping; absent or empty reads as {}."""
    if not value:
        return {}
    if not isinstance(value, dict):
        raise PolicyError("%s: expected a mapping, got %s" % (where, type(value).__name__))
    return value


def policy_from_dict(data: dict) -> Policy:
    pm = PrefixMap.default()
    for prefix, ns in _section(data.get("prefixes"), "prefixes").items():
        if not isinstance(prefix, str) or not isinstance(ns, str):
            raise PolicyError("prefixes: expected a prefix name and a namespace "
                              "IRI string, got %r: %r" % (prefix, ns))
        pm.register(prefix, ns)

    try:
        annotations: dict[Term, str] = {}
        for key, level in _section(data.get("annotations"), "annotations").items():
            try:
                target = _expand_target(key, pm)
            except PolicyError as e:
                raise PolicyError("annotations: %s" % e) from None
            if level not in LEVELS:
                raise PolicyError("unknown sensitivity level %r for %s"
                                  % (level, iri_value(target)))
            annotations[target] = level

        roles: dict[str, Role] = {}
        for name, spec in _section(data.get("roles"), "roles").items():
            if not isinstance(name, str):
                raise PolicyError("roles: role name must be a string, got %r" % (name,))
            if name in roles:
                raise PolicyError("duplicate role %r" % name)
            spec = _section(spec, "role %s" % name)
            allow = spec.get("allow") or []
            if not isinstance(allow, list) or not all(isinstance(a, str) for a in allow):
                raise PolicyError("role %s: allow: expected a list of levels, got %r"
                                  % (name, allow))
            allowed = frozenset(allow)
            unknown = allowed - set(LEVELS)
            if unknown:
                raise PolicyError("role %s: unknown level(s): %s"
                                  % (name, ", ".join(sorted(unknown))))
            generalizations = {}
            generalize = _section(spec.get("generalize"), "role %s: generalize" % name)
            for key, gspec in generalize.items():
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


def _entailed(g: Graph, targets) -> set:
    """``targets`` plus every class or property of ``g`` below one of them
    through ``rdfs:subClassOf`` or ``rdfs:subPropertyOf``, at any depth:
    what an RDFS closure of ``g`` would type or relate as a target."""
    out = set(targets)
    todo = list(out)
    while todo:
        t = todo.pop()
        for rel in (vocab.RDFS_SUBCLASSOF, vocab.RDFS_SUBPROPERTYOF):
            for sub, _, _ in g.match(None, rel, t):
                if sub not in out:
                    out.add(sub)
                    todo.append(sub)
    return out


def apply_policy(g: Graph, p: Policy, role_name: str) -> Graph:
    """Build the role's filtered/generalized view; source unchanged.
    Subclasses and subproperties of a denied target are denied too, so
    the view still passes audit after an RDFS closure.  The view is the
    source's indexes filtered by ``Graph.without``, plus the band
    triples of the generalized predicates."""
    role = p.role(role_name)
    denied = _entailed(g, p.denied_targets(role_name))
    # instances of denied classes lose their entire star
    removed = {s for cls in denied for s, _, _ in g.match(None, vocab.RDF_TYPE, cls)}
    view = g.without(removed, denied)
    for pr, spec in role.generalizations.items():
        if pr not in denied:
            continue
        band = IRI(iri_value(pr) + "Band")
        for s, _, o in g.match(None, pr, None):
            if s in removed:
                continue
            label = spec.band_label(o)  # None unless a number, so never a node
            if label is not None:
                view.add(s, band, Literal(label))
    return view


@dataclass
class AuditViolation:
    triple: tuple[Term, Term, Term]
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
        for v in self.violations:
            lines.append("VIOLATION %s %s %s : %s" % (*v.triple, v.reason))
        return "".join(line + "\n" for line in lines)

    def to_csv(self) -> str:
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["subject", "predicate", "object", "reason"])
        for v in self.violations:
            writer.writerow([*v.triple, v.reason])
        return buf.getvalue()


def audit_view(view: Graph, p: Policy, role_name: str) -> AuditReport:
    """List every triple in the view that the role's policy forbids,
    reading denied targets as ``apply_policy`` does.  Violations are
    sorted by their N-Triples text, then by reason, whatever the order
    the view was built in."""
    denied = _entailed(view, p.denied_targets(role_name))
    violations = []
    for target in denied:
        violations += [AuditViolation(t, "denied predicate %s" % iri_value(target))
                       for t in view.match(None, target, None)]
        violations += [AuditViolation(t, "instance of denied class %s"
                                      % iri_value(target))
                       for t in view.match(None, vocab.RDF_TYPE, target)]
    violations.sort(key=lambda v: (" ".join(v.triple), v.reason))
    return AuditReport(role=role_name, violations=violations, checked=len(view))


def default_policy() -> Policy:
    """Shipped policy: age/postal code identifying, BMI health; the
    public role sees only public data with 5-year age bands."""
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
    })
