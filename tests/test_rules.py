from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from morekg import vocab
from morekg.ingestion import emit_kg
from morekg.rdf import BlankNode, Graph, IRI, Literal, PrefixMap, iri_value
from morekg.rules import (Rule, RuleError, RuleSet, RuleSyntaxError, Var,
                          builtin_ruleset, export_rules, join, materialize,
                          parse_rules, plan)

from graph_oracles import (as_dicts, materialize_naive, naive_shortcut_inferences,
                           reference_bgp_eval, reference_join)
from strategies import (ABSENT, graphs, one_graph_joins, rule_bodies,
                        rule_graphs, rules, two_graph_joins)

EX = "http://example.org/"


def iri(local):
    return IRI(EX + local)


def builtin(name):
    return next(r for r in builtin_ruleset() if r.name == name)


class TestRuleValidation:
    def test_unbound_head_variable(self):
        r = Rule("bad", ((Var("x"), vocab.RDF_TYPE, Var("c")),),
                 ((Var("x"), vocab.RDF_TYPE, Var("d")),))
        with pytest.raises(RuleError, match="d") as e:
            r.validate()
        assert (e.value.rule, e.value.part) == (r, Var("d"))

    def test_empty_body(self):
        r = Rule("bad", (), ((Var("x"), vocab.RDF_TYPE, Var("x")),))
        with pytest.raises(RuleError, match="empty body") as e:
            r.validate()
        assert (e.value.rule, e.value.part) == (r, "body")

    def test_duplicate_names_rejected(self):
        r = builtin("measures-disposition")
        with pytest.raises(RuleError, match="duplicate") as e:
            RuleSet([r, r])
        assert (e.value.rule, e.value.part) == (r, "name")

    # each reaches the disposition from the item: directly over the executed
    # process, or over the plan that concretizes the item
    @pytest.mark.parametrize("name,reach", [
        ("measures-disposition", [vocab.PATO_EXECUTES]),
        ("measures-disposition-via-plan",
         [vocab.BFO_CONCRETIZES, vocab.OBI_REALIZES]),
    ])
    def test_builtin_shortcut_shape(self, name, reach):
        r = builtin(name)
        assert [p[1] for p in r.body] == reach + [
            vocab.OBI_HAS_SPECIFIED_OUTPUT,
            vocab.OBI_HAS_VALUE_SPECIFICATION, vocab.OBI_SPECIFIES_VALUE_OF]
        assert r.head == ((r.body[0][2], vocab.MORE_MEASURES_DISPOSITION,
                           r.body[-1][2]),)

    def test_builtins_all_valid(self):
        names = ["subclass-transitivity", "type-propagation",
                 "measures-disposition", "measures-disposition-via-plan"]
        for name in names:
            builtin(name).validate()
        assert [r.name for r in builtin_ruleset()] == names


class TestMatchPattern:
    # pattern matching, through ``join``
    def test_binds_free_variables(self):
        g = Graph()
        g.add(iri("s"), vocab.RDF_TYPE, iri("C"))
        out = as_dicts(join([g], [(Var("x"), vocab.RDF_TYPE, Var("c"))]))
        assert out == [{"x": iri("s"), "c": iri("C")}]

    def test_respects_existing_bindings(self):
        g = Graph()
        g.add(iri("s1"), vocab.RDF_TYPE, iri("C"))
        g.add(iri("s2"), vocab.RDF_TYPE, iri("C"))
        binder = Graph([(iri("s2"), iri("p"), iri("o"))])
        body = [(Var("x"), iri("p"), iri("o")), (Var("x"), vocab.RDF_TYPE, Var("c"))]
        out = as_dicts(join([binder, g], body))
        assert out == [{"x": iri("s2"), "c": iri("C")}]

    def test_repeated_variable_must_agree(self):
        g = Graph()
        g.add(iri("a"), iri("p"), iri("a"))
        g.add(iri("a"), iri("p"), iri("b"))
        out = as_dicts(join([g], [(Var("x"), iri("p"), Var("x"))]))
        assert out == [{"x": iri("a")}]


A, B, C = Var("a"), Var("b"), Var("c")
P, Q = vocab.PATO_EXECUTES, vocab.OBI_REALIZES
N0, N1 = IRI(EX + "n0"), IRI(EX + "n1")
SMALL = Graph([(N0, P, N1), (N1, P, N0), (N0, P, N0),
               (N0, Q, N1), (N1, Q, Literal("v"))])


def _bag(bindings):
    return Counter(frozenset(b.items()) for b in bindings)


# self-loops, one of them on a term that is also the predicate
LOOPS = Graph([(P, P, P), (P, P, N0), (N0, P, N0),
               (N1, P, N1), (N0, Q, N0)])


class TestJoin:
    # the examples pin each shape of known positions; the first atom's
    # known positions are constants, later atoms' also earlier variables.
    # The drawn cases are bodies over the graph's terms, which rarely
    # join, and bodies drawn from the graph's own triples, which always do.
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(rule_graphs(), rule_bodies), one_graph_joins()))
    @example((SMALL, [(N0, P, N1)]))                    # (s, p, o)
    @example((SMALL, [(N0, P, A)]))                     # (s, p, ?)
    @example((SMALL, [(N0, A, N1)]))                    # (s, ?, o)
    @example((SMALL, [(A, P, N1)]))                     # (?, p, o)
    @example((SMALL, [(N0, A, B)]))                     # (s, ?, ?)
    @example((SMALL, [(A, P, B)]))                      # (?, p, ?)
    @example((SMALL, [(A, B, N1)]))                     # (?, ?, o)
    @example((SMALL, [(A, B, C)]))                      # (?, ?, ?)
    @example((SMALL, [(A, P, A)]))                      # repeated in one atom
    @example((SMALL, [(A, B, A), (A, B, C)]))           # repeated, then bound
    @example((SMALL, [(A, P, B), (B, C, A)]))           # (s, ?, o) from bindings
    @example((SMALL, [(A, P, B), (B, P, A), (A, Q, B)]))  # (s, p, o) likewise
    @example((SMALL, [(A, ABSENT, B)]))                 # absent constant
    @example((SMALL, [(A, P, B), (ABSENT, C, B)]))
    @example((LOOPS, [(A, A, A)]))                      # three times in one atom
    @example((LOOPS, [(A, A, A), (A, P, B)]))           # three times, then bound
    @example((LOOPS, [(A, P, A), (B, Q, B)]))           # two variables, each repeated
    def test_join_equals_brute_force(self, case):
        g, body = case
        assert _bag(as_dicts(join([g] * len(body), body))) == _bag(
            reference_bgp_eval(g, body))

    def test_atom_i_matches_in_graph_i(self):
        delta = Graph([(N1, P, N0)])
        body = [(A, P, B), (B, P, C)]
        assert _bag(as_dicts(join([delta, SMALL], body))) == _bag(
            [{"a": N1, "b": N0, "c": N1}, {"a": N1, "b": N0, "c": N0}])

    def test_atom_planned_first_keeps_its_graph(self):
        # the one-triple delta atom is joined first, yet still on delta
        delta = Graph([(N1, P, N0)])
        body = [(A, P, B), (B, P, C)]
        assert _bag(as_dicts(join([SMALL, delta], body))) == _bag(
            [{"a": N0, "b": N1, "c": N0}])

    def test_empty_body_has_one_empty_binding(self):
        assert as_dicts(join([], [])) == [{}]

    @settings(max_examples=200, deadline=None)
    @given(two_graph_joins(), st.data())
    def test_permuted_atoms_keep_their_graphs(self, case, data):
        graphs, body = case
        perm = data.draw(st.permutations(range(len(body))))
        expected = _bag(reference_join(graphs, body))
        assert _bag(as_dicts(join(graphs, body))) == expected
        assert _bag(as_dicts(join([graphs[i] for i in perm], [body[i] for i in perm]))) == expected


def _estimate(g, atom):
    return g.count(*(None if isinstance(t, Var) else t for t in atom))


class TestPlan:
    def test_each_atom_once_with_its_own_count(self):
        delta = Graph([(N1, P, N0)])
        graphs = [SMALL, delta, SMALL]
        body = [(A, P, B), (B, P, C), (A, Q, C)]
        order = plan(graphs, body)
        assert sorted(i for i, _ in order) == [0, 1, 2]
        assert all(est == _estimate(graphs[i], body[i]) for i, est in order)
        assert order[0] == (1, 1)  # the one-triple delta atom comes first

    def test_connected_atom_before_smaller_unconnected_one(self):
        # the first two tie at 2 matches, so body order picks atom 0; then
        # atom 2 shares ?a with it and goes before atom 1, which does not
        body = [(N0, P, A), (C, Q, B), (A, P, B)]
        assert plan([SMALL] * 3, body) == [(0, 2), (2, 3), (1, 2)]

    def test_absent_predicate_on_delta_estimates_zero(self):
        delta = Graph([(N1, Q, N0)])
        assert plan([SMALL, delta], [(A, P, B), (B, P, C)]) == [(1, 0), (0, 3)]


class TestMaterialize:
    def test_subclass_chain(self):
        g = Graph()
        a, b, c, d = (iri(n) for n in "ABCD")
        g.add(a, vocab.RDFS_SUBCLASSOF, b)
        g.add(b, vocab.RDFS_SUBCLASSOF, c)
        g.add(c, vocab.RDFS_SUBCLASSOF, d)
        out = materialize(g, builtin_ruleset())
        assert (a, vocab.RDFS_SUBCLASSOF, d) in out

    def test_type_propagated_to_all_ancestors(self):
        g = Graph()
        x, a, b, c = iri("x"), iri("A"), iri("B"), iri("C")
        g.add(x, vocab.RDF_TYPE, a)
        g.add(a, vocab.RDFS_SUBCLASSOF, b)
        g.add(b, vocab.RDFS_SUBCLASSOF, c)
        out = materialize(g, builtin_ruleset())
        assert (x, vocab.RDF_TYPE, b) in out
        assert (x, vocab.RDF_TYPE, c) in out

    def test_shortcut_on_minimal_chain(self):
        g = Graph()
        proc, item, datum, vs, disp = (iri(n) for n in
                                       ("proc", "item", "datum", "vs", "disp"))
        g.add(proc, vocab.PATO_EXECUTES, item)
        g.add(proc, vocab.OBI_HAS_SPECIFIED_OUTPUT, datum)
        g.add(datum, vocab.OBI_HAS_VALUE_SPECIFICATION, vs)
        g.add(vs, vocab.OBI_SPECIFIES_VALUE_OF, disp)
        out = materialize(g, builtin_ruleset())
        assert (item, vocab.MORE_MEASURES_DISPOSITION, disp) in out
        assert len(out) == 5

    def test_broken_chain_yields_nothing(self):
        g = Graph()
        g.add(iri("proc"), vocab.PATO_EXECUTES, iri("item"))
        g.add(iri("proc"), vocab.OBI_HAS_SPECIFIED_OUTPUT, iri("datum"))
        out = materialize(g, builtin_ruleset())
        assert not list(out.match(None, vocab.MORE_MEASURES_DISPOSITION, None))

    def test_literal_head_subject_skipped(self):
        # a rule instantiation that would need a literal subject is dropped
        r = Rule("flip", ((Var("s"), iri("p"), Var("o")),),
                 ((Var("o"), iri("q"), Var("s")),))
        g = Graph()
        g.add(iri("s"), iri("p"), Literal("v"))
        out = materialize(g, RuleSet([r]))
        assert len(out) == 1

    def test_extends_its_input(self, fixture_bundle, fixture_schema, fixture_graph,
                               fixture_materialized):
        g = fixture_graph.copy()
        out = materialize(g, builtin_ruleset())
        assert out is g
        assert out == fixture_materialized
        # no test has extended the session's emitted KG either
        emitted = emit_kg(fixture_bundle, fixture_schema)
        emitted.update(fixture_schema.graph)
        assert fixture_graph == emitted

    def test_idempotent(self, fixture_materialized):
        again = materialize(fixture_materialized.copy(), builtin_ruleset())
        assert again == fixture_materialized

    def test_shortcut_count_matches_nested_loop_oracle(self, fixture_graph,
                                                       fixture_materialized):
        oracle = naive_shortcut_inferences(list(fixture_graph))
        got = set(fixture_materialized.match(
            None, vocab.MORE_MEASURES_DISPOSITION, None))
        assert got == oracle
        # two items, one disposition per participant and item
        assert len(got) == 2 * 30

    def test_semi_naive_equals_naive_on_fixture(self, fixture_graph,
                                                fixture_materialized):
        assert fixture_materialized == materialize_naive(fixture_graph,
                                                         builtin_ruleset())

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_size=15), rule_graphs())
    def test_semi_naive_equals_naive_property(self, g, rule_g):
        # graphs()' random predicates match no rule body; rule_graphs()' do
        rs = parse_rules(RECURSIVE_RULE_TEXT)
        for h in (g, rule_g):
            assert materialize(h.copy(), rs) == materialize_naive(h, rs)

    def test_round_joins_two_triples_of_its_own_delta(self):
        # round 1 derives both body atoms of ``joined``; round 2 must join
        # them with each other, so the delta is part of the graph it
        # joins against
        rs = parse_rules("""
            left: ?a more:partOfStudy ?b => ?a more:left ?b .
            right: ?a more:partOfStudy ?b => ?a more:right ?b .
            joined: ?a more:left ?b & ?b more:right ?c => ?a more:joined ?c .
        """, include_builtins=False)
        g = Graph([(iri("a"), vocab.MORE_PART_OF_STUDY, iri("b")),
                   (iri("b"), vocab.MORE_PART_OF_STUDY, iri("c"))])
        out = materialize(g.copy(), rs)
        assert (iri("a"), IRI(vocab.MORE + "joined"), iri("c")) in out
        assert out == materialize_naive(g, rs)


RULE_TEXT = """
# transitive part-of
partof-trans: ?a more:partOfStudy ?b & ?b more:partOfStudy ?c
  => ?a more:partOfStudy ?c .
"""

# partof-swap is recursive but no closure: a derivation that one round
# misses is not re-derived by another path, so the fixpoint changes.
# partof-mirror binds a predicate variable, so that its second atom is
# matched with subject and object known and the predicate free.
RECURSIVE_RULE_TEXT = RULE_TEXT + """
partof-swap: ?a more:partOfStudy ?b & ?b obi:realizes ?c
  => ?c obi:realizes ?a .
partof-mirror: ?a more:partOfStudy ?b & ?b ?p ?a => ?a ?p ?b .
"""


class TestRuleSyntax:
    def test_parse_custom_rule(self):
        rs = parse_rules(RULE_TEXT, include_builtins=False)
        assert len(rs) == 1
        r = rs.rules[0]
        assert r.name == "partof-trans"
        assert r.body[0][1] == vocab.MORE_PART_OF_STUDY

    def test_builtins_merged_by_default(self):
        rs = parse_rules(RULE_TEXT)
        names = {r.name for r in rs}
        assert "partof-trans" in names
        assert "measures-disposition" in names

    def test_builtins_ignore_the_callers_prefixes(self):
        m = PrefixMap.default()
        m.register("more", EX)
        rs = parse_rules("r1: ?x more:p ?y => ?y more:p ?x .", prefixes=m)
        assert rs.rules[:-1] == builtin_ruleset().rules
        assert rs.rules[-1].body[0][1] == iri("p")

    def test_custom_rule_overrides_builtin_of_same_name(self):
        text = ("measures-disposition: ?i a more:TestItem "
                "=> ?i a more:TestItem .")
        rs = parse_rules(text)
        rules = [r for r in rs if r.name == "measures-disposition"]
        assert len(rules) == 1
        assert len(rules[0].body) == 1

    def test_a_keyword_and_literals(self):
        rs = parse_rules(
            'r1: ?x a more:Person & ?x more:hasAge 9 => ?x more:hasBmi 16.5 .',
            include_builtins=False)
        body = rs.rules[0].body
        assert body[0][1] == vocab.RDF_TYPE
        assert body[1][2] == Literal("9", iri_value(vocab.XSD_INTEGER))
        assert rs.rules[0].head[0][2] == Literal("16.5", iri_value(vocab.XSD_DECIMAL))

    def test_missing_arrow(self):
        with pytest.raises(RuleError, match="=>"):
            parse_rules("r1: ?x a more:Person .", include_builtins=False)

    def test_unbound_head_var_rejected(self):
        with pytest.raises(RuleError, match="not bound"):
            parse_rules("r1: ?x a more:Person => ?y a more:Person .",
                        include_builtins=False)

    # each fails at its offending token: the arrow after an empty body, an
    # unbound head variable, a repeated rule name
    @pytest.mark.parametrize("text,token", [
        ("r1: => ?x a more:C .", "=>"),
        ("r1: ?x a more:C => ?x more:p ?y .", "?y"),
        ("r0: ?x a more:C => ?x a more:E .", "r0"),
        ("r0: => ?x a more:E .", "r0"),
    ])
    def test_validation_error_reports_its_position(self, text, token):
        with pytest.raises(RuleSyntaxError) as e:
            parse_rules("r0: ?x a more:C => ?x a more:D .\n" + text,
                        include_builtins=False)
        assert (e.value.line, e.value.column) == (2, text.index(token) + 1)

    def test_error_reports_line(self):
        with pytest.raises(RuleError, match="line 2"):
            parse_rules("r1: ?x a more:Person => ?x a more:Person .\n"
                        "r2: ?x a more:Person => ?x a .",
                        include_builtins=False)

    def test_syntax_error_has_line_and_column(self):
        with pytest.raises(RuleSyntaxError) as e:
            parse_rules("r1: ?x a more:Person\n  => ?x more:p more:a/b .",
                        include_builtins=False)
        assert isinstance(e.value, RuleError)
        assert (e.value.line, e.value.column) == (2, 22)

    def test_terms_read_as_in_turtle(self):
        rs = parse_rules('r1 : ?x more: "v"@en & ?x a <http://a/\\u0041> '
                         '=> ?x more:p _:b .', include_builtins=False)
        rule, = rs
        assert rule.name == "r1"
        assert rule.body == ((Var("x"), IRI(vocab.MORE), Literal("v", lang="en")),
                             (Var("x"), vocab.RDF_TYPE, IRI("http://a/A")))
        assert rule.head == ((Var("x"), IRI(vocab.MORE + "p"), BlankNode("b")),)

    @pytest.mark.parametrize("term", [
        Literal("v", lang="en"),
        IRI(vocab.MORE),
        IRI(vocab.MORE + "a/b"),
    ])
    def test_export_round_trip_of_term(self, term):
        x = Var("x")
        rs = RuleSet([Rule("r1", ((x, vocab.RDF_TYPE, term),),
                           ((x, vocab.MORE_PART_OF_STUDY, term),))])
        assert list(parse_rules(export_rules(rs), include_builtins=False)) == \
            list(rs)

    @settings(max_examples=100, deadline=None)
    @given(rules())
    def test_export_round_trip_property(self, rs):
        assert list(parse_rules(export_rules(rs), include_builtins=False)) == \
            list(rs)

    def test_export_round_trip(self):
        rs = builtin_ruleset()
        again = parse_rules(export_rules(rs), include_builtins=False)
        assert list(again) == list(rs)

    def test_custom_rule_round_trip(self):
        rs = parse_rules(RULE_TEXT, include_builtins=False)
        assert list(parse_rules(export_rules(rs), include_builtins=False)) == \
            list(rs)

    def test_parsed_rules_evaluate(self, fixture_graph):
        rs = parse_rules(RULE_TEXT, include_builtins=False)
        out = materialize(fixture_graph.copy(), rs)
        # partOfStudy is flat in the emitted KG, so nothing new derives
        assert out == fixture_graph
