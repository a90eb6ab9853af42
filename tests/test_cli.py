import pytest

from morekg import vocab
from morekg.cli import main
from morekg.cq import CQ1_QUERY, CQ2_QUERY
from morekg.serdes import parse_file

AGE_QUERY = ("PREFIX more: <https://w3id.org/more#>\n"
             "SELECT ?p ?age WHERE { ?p more:hasAge ?age . }\n")


@pytest.fixture()
def bundle_dir(tmp_path):
    out = tmp_path / "bundle"
    assert main(["gen-fixture", str(out), "--seed", "42",
                 "--participants", "10", "--items", "2"]) == 0
    return out


@pytest.fixture()
def kg_path(bundle_dir, tmp_path):
    path = tmp_path / "kg.nt"
    assert main(["build", str(bundle_dir), "-o", str(path)]) == 0
    return path


class TestGenFixtureAndValidate:
    def test_gen_fixture_writes_four_csvs(self, bundle_dir):
        names = {p.name for p in bundle_dir.iterdir()}
        assert names == {"study.csv", "participants.csv", "test_items.csv",
                         "results.csv"}

    def test_gen_fixture_seed_deterministic(self, tmp_path):
        for d in ("one", "two"):
            assert main(["gen-fixture", str(tmp_path / d), "--seed", "7"]) == 0
        for name in ("study.csv", "participants.csv", "results.csv"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()

    def test_validate_reports_counts(self, bundle_dir, capsys):
        assert main(["validate", str(bundle_dir)]) == 0
        out = capsys.readouterr().out
        assert "10 participants, 2 items, 20 results" in out

    def test_validate_missing_dir_is_domain_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2


class TestBuild:
    def test_build_writes_parseable_ntriples(self, kg_path):
        g = parse_file(kg_path)
        assert len(g) > 0
        assert list(g.match(None, vocab.RDF_TYPE, vocab.MORE_STUDY))

    def test_build_turtle_equals_ntriples(self, bundle_dir, tmp_path):
        ttl = tmp_path / "kg.ttl"
        nt = tmp_path / "kg2.nt"
        assert main(["build", str(bundle_dir), "-o", str(ttl)]) == 0
        assert main(["build", str(bundle_dir), "-o", str(nt)]) == 0
        assert parse_file(ttl) == parse_file(nt)

    def test_build_materialize_adds_inferences(self, bundle_dir, tmp_path):
        plain = tmp_path / "plain.nt"
        mat = tmp_path / "mat.nt"
        assert main(["build", str(bundle_dir), "-o", str(plain)]) == 0
        assert main(["build", str(bundle_dir), "--materialize",
                     "-o", str(mat)]) == 0
        g = parse_file(mat)
        assert len(g) > len(parse_file(plain))
        assert list(g.match(None, vocab.MORE_MEASURES_DISPOSITION, None))

    def test_build_with_aliases(self, bundle_dir, tmp_path):
        table = tmp_path / "aliases.yaml"
        table.write_text("%s: http://purl.obolibrary.org/obo/OBI_0000299\n"
                         % vocab.OBI_HAS_SPECIFIED_OUTPUT.value,
                         encoding="utf-8")
        out = tmp_path / "aliased.nt"
        assert main(["build", str(bundle_dir), "--aliases", str(table),
                     "-o", str(out)]) == 0
        g = parse_file(out)
        assert not list(g.match(None, vocab.OBI_HAS_SPECIFIED_OUTPUT, None))
        from morekg.rdf import IRI
        assert list(g.match(None, IRI("http://purl.obolibrary.org/obo/OBI_0000299"),
                            None))


class TestMaterializeCommand:
    def test_materialize_file(self, kg_path, tmp_path, capsys):
        out = tmp_path / "mat.nt"
        assert main(["materialize", str(kg_path), "-o", str(out)]) == 0
        assert "materialized" in capsys.readouterr().out
        assert len(parse_file(out)) > len(parse_file(kg_path))

    def test_no_builtins_requires_rules(self, kg_path, tmp_path, capsys):
        assert main(["materialize", str(kg_path), "--no-builtins",
                     "-o", str(tmp_path / "x.nt")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_custom_rules_file(self, kg_path, tmp_path):
        rules = tmp_path / "extra.rules"
        rules.write_text("mirror: ?d bfo:inheres_in ?p => "
                         "?p bfo:inheres_in ?d .\n", encoding="utf-8")
        out = tmp_path / "mat.nt"
        assert main(["materialize", str(kg_path), "--rules", str(rules),
                     "--no-builtins", "-o", str(out)]) == 0
        g = parse_file(out)
        mirrored = [t for t in g.match(None, vocab.BFO_INHERES_IN, None)
                    if "/person/" in t.subject.value]
        assert mirrored
        assert len(g) > len(parse_file(kg_path))


class TestQueryCommand:
    def test_csv_output(self, kg_path, tmp_path, capsys):
        qfile = tmp_path / "cq1.rq"
        qfile.write_text(CQ1_QUERY, encoding="utf-8")
        assert main(["query", str(kg_path), str(qfile), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "age,avgStrength"
        assert len(lines) > 1

    def test_text_output_row_count(self, kg_path, tmp_path, capsys):
        qfile = tmp_path / "cq2.rq"
        qfile.write_text(CQ2_QUERY, encoding="utf-8")
        assert main(["query", str(kg_path), str(qfile)]) == 0
        assert "(2 rows)" in capsys.readouterr().out

    def test_places_flag(self, kg_path, tmp_path, capsys):
        qfile = tmp_path / "cq1.rq"
        qfile.write_text(CQ1_QUERY, encoding="utf-8")
        assert main(["query", str(kg_path), str(qfile), "--format", "csv",
                     "--places", "2"]) == 0
        first_avg = capsys.readouterr().out.splitlines()[1].split(",")[1]
        whole, frac = first_avg.split(".")
        assert len(frac) == 2

    def test_explain(self, kg_path, tmp_path, capsys):
        qfile = tmp_path / "cq1.rq"
        qfile.write_text(CQ1_QUERY, encoding="utf-8")
        assert main(["query", str(kg_path), str(qfile), "--explain"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 6

    def test_role_view_hides_age(self, kg_path, tmp_path, capsys):
        qfile = tmp_path / "ages.rq"
        qfile.write_text(AGE_QUERY, encoding="utf-8")
        assert main(["query", str(kg_path), str(qfile), "--role", "public",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == "p,age\n"

    def test_bad_query_is_domain_error(self, kg_path, tmp_path, capsys):
        qfile = tmp_path / "bad.rq"
        qfile.write_text("SELECT WHERE", encoding="utf-8")
        assert main(["query", str(kg_path), str(qfile)]) == 1
        assert "error:" in capsys.readouterr().err


class TestRedactAndAudit:
    def test_redacted_view_passes_audit(self, kg_path, tmp_path, capsys):
        view = tmp_path / "public.nt"
        assert main(["redact", str(kg_path), "--role", "public",
                     "-o", str(view)]) == 0
        assert main(["audit", str(view), "--role", "public"]) == 0
        assert "violations=0" in capsys.readouterr().out

    def test_full_graph_fails_public_audit(self, kg_path, capsys):
        assert main(["audit", str(kg_path), "--role", "public",
                     "--format", "csv"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "subject,predicate,object,reason"
        assert "hasAge" in out

    def test_policy_file_and_env(self, kg_path, tmp_path, capsys, monkeypatch):
        policy = tmp_path / "policy.yaml"
        policy.write_text(
            "annotations: {more:hasSex: identifying}\n"
            "roles: {public: {allow: [public]}}\n", encoding="utf-8")
        monkeypatch.setenv("MOREKG_POLICY", str(policy))
        view = tmp_path / "view.nt"
        assert main(["redact", str(kg_path), "--role", "public",
                     "-o", str(view)]) == 0
        g = parse_file(view)
        assert not list(g.match(None, vocab.MORE_HAS_SEX, None))
        assert list(g.match(None, vocab.MORE_HAS_AGE, None))  # not denied here

    @pytest.mark.parametrize("entry", ["{}", "5", "{width: wide}",
                                       "{width: 5, kind: quantile}"])
    def test_malformed_generalize_is_domain_error(self, kg_path, tmp_path,
                                                  capsys, entry):
        policy = tmp_path / "policy.yaml"
        policy.write_text(
            "annotations: {more:hasAge: identifying}\n"
            "roles: {public: {allow: [public], generalize: {more:hasAge: %s}}}\n"
            % entry, encoding="utf-8")
        view = tmp_path / "view.nt"
        assert main(["redact", str(kg_path), "--policy", str(policy),
                     "--role", "public", "-o", str(view)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: role public: generalize more:hasAge: ")
        assert "Traceback" not in err
        assert not view.exists()


class TestCqCommand:
    def _write_case(self, kg_path, cases, capsys):
        cases.mkdir()
        (cases / "cq1.rq").write_text(CQ1_QUERY, encoding="utf-8")
        qfile = cases / "cq1.rq"
        assert main(["query", str(kg_path), str(qfile), "--format", "csv"]) == 0
        (cases / "cq1.expected.csv").write_text(capsys.readouterr().out,
                                                encoding="utf-8")

    def test_cases_pass(self, kg_path, tmp_path, capsys):
        cases = tmp_path / "cases"
        self._write_case(kg_path, cases, capsys)
        assert main(["cq", str(kg_path), str(cases)]) == 0
        out = capsys.readouterr().out
        assert "PASS cq1" in out and "1/1 cases passed" in out

    def test_tampered_expectation_fails_with_location(self, kg_path, tmp_path,
                                                      capsys):
        cases = tmp_path / "cases"
        self._write_case(kg_path, cases, capsys)
        exp = cases / "cq1.expected.csv"
        lines = exp.read_text(encoding="utf-8").splitlines()
        age, _ = lines[1].split(",")
        lines[1] = age + ",999.000000"
        exp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["cq", str(kg_path), str(cases)]) == 1
        out = capsys.readouterr().out
        assert "FAIL cq1" in out
        assert "row 1, column 2" in out


class TestExports:
    def test_schema_export(self, tmp_path, capsys):
        out = tmp_path / "schema.ttl"
        assert main(["schema", "export", "-o", str(out)]) == 0
        g = parse_file(out)
        assert list(g.match(None, vocab.RDF_TYPE, vocab.MORE_TEST_ITEM))

    def test_rules_export_stdout(self, capsys):
        assert main(["rules", "export"]) == 0
        out = capsys.readouterr().out
        assert "measures-disposition:" in out
        assert "=>" in out
