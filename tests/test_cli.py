import hashlib
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time

import jsonschema
import pytest

from curvebound import cli, permgroup


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_m11_char3_survivor(capsys):
    code, out, _ = run(["enumerate", "--group", "m11", "--char", "3", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    survivors = [row for row in doc["rows"] if row["verdict"] == "survivor"]
    assert len(survivors) == 1
    assert survivors[0]["g"] == 26
    assert survivors[0]["e1"] == 72 and survivors[0]["e2"] == 11


def test_enumerate_alt7_char7_filtered(capsys):
    code, out, _ = run(["enumerate", "--group", "alt7", "--char", "7", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    even = [row for row in doc["rows"] if row.get("even_genus") is True]
    assert [row["g"] for row in even] == [586]
    assert all(not row["exceeds_hurwitz"] for row in even)
    assert not [row for row in doc["rows"] if row["verdict"] == "survivor"]


def test_enumerate_rejects_even_char(capsys):
    code, _, err = run(["enumerate", "--group", "alt7", "--char", "2"], capsys)
    assert code == 2
    assert "odd prime" in err


def test_enumerate_rejects_wrong_pair(capsys):
    code, out, err = run(["enumerate", "--group", "alt7", "--char", "11"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: characteristic 11 not supported for alt7 "
                   "(the characteristic must be an odd prime from (3, 5, 7))\n")


@pytest.mark.parametrize("argv", [["group-audit", "m12"], ["enumerate", "--group", "a5", "--char", "5"]],
                         ids=["group-audit", "enumerate"])
def test_unknown_group_is_refused_by_the_parser(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "invalid choice" in out.err


def test_json_output_roundtrips_byte_identically(capsys):
    _, first, _ = run(["enumerate", "--group", "alt7", "--char", "5", "--format", "json"], capsys)
    _, second, _ = run(["enumerate", "--group", "alt7", "--char", "5", "--format", "json"], capsys)
    assert first == second
    doc = json.loads(first)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == first


def test_json_matches_published_schema(capsys):
    import os

    schema_path = os.path.join(os.path.dirname(permgroup.__file__), "data", "report-schema-v1.json")
    with open(schema_path) as handle:
        schema = json.load(handle)
    for argv in (
        ["enumerate", "--group", "m11", "--char", "5", "--format", "json"],
        ["bounds", "prelim", "--format", "json"],
        ["prank", "--p", "3", "--curve", "y^2 = x^5 - x", "--oracle", "--format", "json"],
    ):
        _, out, _ = run(argv, capsys)
        jsonschema.validate(json.loads(out), schema)


def test_published_schema_rejects_an_agrees_summary(capsys):
    schema_path = os.path.join(os.path.dirname(permgroup.__file__), "data", "report-schema-v1.json")
    with open(schema_path) as handle:
        schema = json.load(handle)
    _, out, _ = run(["prank", "--p", "3", "--curve", "y^2 = x^5 - x", "--oracle", "--format", "json"], capsys)
    doc = json.loads(out)
    assert "agrees" in {row["verdict"] for row in doc["rows"]}  # a row may still agree
    doc["verdict_summary"] = "agrees"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


def test_published_schema_rejects_an_unsupported_summary(monkeypatch, capsys):
    """Only the zeta row can be unsupported (here genus 5 at p = 31, whose tower is
    above the point cap, refused before any count); the Cartier row always
    answers, so the summary holds or fails."""
    from curvebound import prank

    def no_count(model, r):
        raise AssertionError(f"counted points over GF(p^{r})")

    monkeypatch.setattr(prank, "count_points", no_count)
    schema_path = os.path.join(os.path.dirname(permgroup.__file__), "data", "report-schema-v1.json")
    with open(schema_path) as handle:
        schema = json.load(handle)
    code, out, _ = run(["prank", "--p", "31", "--curve", "y^2 = x^11 + x + 1", "--oracle", "--format", "json"],
                       capsys)
    doc = json.loads(out)
    assert code == 0 and doc["verdict_summary"] == "holds"
    jsonschema.validate(doc, schema)
    verdicts = {row["anchor"]: row["verdict"] for row in doc["rows"]}
    assert verdicts["cartier operator"] == "holds"
    assert verdicts["zeta point-count oracle"] == "unsupported"  # a row may still be unsupported
    doc["verdict_summary"] = "unsupported"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


def test_zeta_row_agrees_above_genus_3(capsys):
    """y^2 = x^9 + x + 1 over GF(3) has genus 4; its tower, up to 3^5, is inside the point cap."""
    code, out, _ = run(["prank", "--p", "3", "--curve", "y^2 = x^9 + x + 1", "--oracle", "--format", "json"],
                       capsys)
    rows = {row["anchor"]: row for row in json.loads(out)["rows"]}
    assert code == 0 and rows["model genus"]["genus"] == 4
    assert rows["zeta point-count oracle"]["verdict"] == "agrees"
    assert rows["zeta point-count oracle"]["zeta_p_rank"] == rows["cartier operator"]["stable_rank"] == 0


def test_a_failed_oracle_self_check_fails_the_report(monkeypatch, capsys):
    """One point too many over GF(3^3), the field that verifies L(t), is a failed
    verdict (exit 1), not an unsupported one."""
    from curvebound import prank
    honest = prank.count_points
    monkeypatch.setattr(prank, "count_points", lambda model, r: honest(model, r) + (r == 3))
    code, out, err = run(["prank", "--p", "3", "--curve", "y^2 = x^5 - x", "--oracle", "--format", "json"], capsys)
    doc = json.loads(out)
    zeta = {row["anchor"]: row for row in doc["rows"]}["zeta point-count oracle"]
    assert (code, err, doc["verdict_summary"]) == (1, "", "fails")
    assert zeta == {"anchor": "zeta point-count oracle", "verdict": "fails",
                    "reason": "point count over GF(p^3) is 29, L-polynomial predicts 28"}


def test_csv_output_quotes_rfc4180(capsys):
    code, out, _ = run(["enumerate", "--group", "alt7", "--char", "5", "--format", "csv"], capsys)
    assert code == 0
    assert "\r\n" in out
    import csv as csvmod
    import io

    rows = list(csvmod.reader(io.StringIO(out)))
    assert rows[0][0] == "schema_version"


def test_group_audit_alt7(capsys):
    code, out, _ = run(["group-audit", "alt7", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict_summary"] == "holds"
    by_anchor = {row["anchor"]: row for row in doc["rows"]}
    assert by_anchor["order by stabilizer chain"]["computed"] == 2520
    assert by_anchor["max solvable with cyclic complement over wild primes"]["computed"] == 36
    assert by_anchor["point stabilizer exhaustive closure"]["computed"] == 360


def test_group_audit_m11(capsys):
    code, out, _ = run(["group-audit", "m11", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_anchor = {row["anchor"]: row for row in doc["rows"]}
    assert by_anchor["order by stabilizer chain"]["computed"] == 7920
    assert by_anchor["sylow-3 normalizer order"]["computed"] == 144
    assert by_anchor["number of sylow-3 subgroups"]["computed"] == 55
    assert by_anchor["sylow-3 elementary abelian"]["computed"] is True


def test_group_audit_detects_corruption(tmp_path, monkeypatch, capsys):
    (tmp_path / "alt7.txt").write_text("degree: 7\n(1,2,3)\n")
    monkeypatch.setenv(permgroup.DATA_ENV_VAR, str(tmp_path))
    code, out, _ = run(["group-audit", "alt7", "--format", "json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict_summary"] == "fails"
    assert any(row["verdict"] == "fails" and row["anchor"] == "order by stabilizer chain" for row in doc["rows"])


def test_group_audit_missing_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(permgroup.DATA_ENV_VAR, str(tmp_path / "empty"))
    code, out, err = run(["group-audit", "alt7"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read generator file:")


GENERATOR_FILE_DEFECTS = {
    "missing": (None, "No such file or directory"),
    "unparsable line": ("(1,2,3,4,5,6,7,8,9,10,11)\n(1,2\n", "cannot parse permutation"),
    "bad header": ("degree: x\n(1,2,3)\n", "invalid literal for int()"),
    "empty": ("# no generators\n\n", "no generators"),
    "not ascii": ("(1,2,3) \u2192\n", "codec can't decode"),
    "degree over cap": ("degree: 1000000\n(1,2,3)\n", "degree 1000000 exceeds the cap of 100"),
    "point over cap": ("(1,2,3)\n(4,5,101)\n", "degree 101 exceeds the cap of 100"),
}


@pytest.mark.parametrize("defect", sorted(GENERATOR_FILE_DEFECTS))
@pytest.mark.parametrize("argv", [["group-audit", "m11"], ["enumerate", "--group", "m11", "--char", "3"]],
                         ids=["group-audit", "enumerate"])
def test_generator_file_defects_exit_2(argv, defect, tmp_path, monkeypatch, capsys):
    text, message = GENERATOR_FILE_DEFECTS[defect]
    if text is not None:
        (tmp_path / "m11.txt").write_text(text, encoding="utf-8")
    monkeypatch.setenv(permgroup.DATA_ENV_VAR, str(tmp_path))
    start = time.perf_counter()
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert time.perf_counter() - start < 1.0  # refused at once, however large the file claims to be
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read generator file:")
    assert message in err


def test_wrong_generator_group(tmp_path, monkeypatch, capsys):
    (tmp_path / "m11.txt").write_text("(1,2)\n(3,4)\n")
    monkeypatch.setenv(permgroup.DATA_ENV_VAR, str(tmp_path))
    code, out, err = run(["enumerate", "--group", "m11", "--char", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: the m11 generator file builds a group of order 4\n"
    code, out, _ = run(["group-audit", "m11", "--format", "json"], capsys)
    assert code == 1  # a file that builds the wrong group is a failed verdict for the audit
    doc = json.loads(out)
    assert doc["verdict_summary"] == "fails"
    assert [(row["anchor"], row["verdict"], row["computed"]) for row in doc["rows"]] == [
        ("order by stabilizer chain", "fails", 4)]


def test_a_wrong_order_stops_group_audit_at_the_order_row(tmp_path, monkeypatch, capsys):
    # six disjoint 3-cycles generate (Z/3)^6, order 729, under every cap; its
    # Sylow 3-subgroup has thousands of subgroups, so no p-subgroup search may run
    (tmp_path / "alt7.txt").write_text("".join(f"({3 * i + 1},{3 * i + 2},{3 * i + 3})\n" for i in range(6)))
    monkeypatch.setenv(permgroup.DATA_ENV_VAR, str(tmp_path))
    start = time.perf_counter()
    code, out, _ = run(["group-audit", "alt7", "--format", "json"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict_summary"] == "fails"
    assert [(row["anchor"], row["verdict"], row["computed"]) for row in doc["rows"]] == [
        ("order by stabilizer chain", "fails", 729)]


def test_a_group_above_the_element_scan_cap_is_refused_at_once(tmp_path, monkeypatch, capsys):
    # a 3-cycle and an 11-cycle through two of its points generate A12, of order 239,500,800;
    # group-audit stops at its order row before any element scan, and enumerate refuses it
    (tmp_path / "m11.txt").write_text("(1,2,3)\n(2,3,4,5,6,7,8,9,10,11,12)\n")
    monkeypatch.setenv(permgroup.DATA_ENV_VAR, str(tmp_path))
    start = time.perf_counter()
    code, out, err = run(["group-audit", "m11", "--format", "json"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["verdict_summary"] == "fails"
    assert [(row["anchor"], row["verdict"], row["computed"]) for row in doc["rows"]] == [
        ("order by stabilizer chain", "fails", 239500800)]
    code, out, err = run(["enumerate", "--group", "m11", "--char", "3"], capsys)
    assert (code, out, err) == (2, "", "error: the m11 generator file builds a group of order 239500800\n")


def test_same_order_other_group_is_refused(tmp_path, monkeypatch, capsys):
    # one permutation of cycle type 16+9+5+11: a cyclic group of order 7920 = |M11|
    cycles = [range(1, 17), range(17, 26), range(26, 31), range(31, 42)]
    (tmp_path / "m11.txt").write_text("".join(f"({','.join(map(str, c))})" for c in cycles) + "\n")
    monkeypatch.setenv(permgroup.DATA_ENV_VAR, str(tmp_path))
    code, out, err = run(["enumerate", "--group", "m11", "--char", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: the m11 generator file builds a group whose element orders are not [1, 2, 3, 4, 5, 6, 8, 11]\n"
    code, out, _ = run(["group-audit", "m11", "--format", "json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict_summary"] == "fails"
    by_anchor = {row["anchor"]: row for row in doc["rows"]}
    assert by_anchor["order by stabilizer chain"]["verdict"] == "holds"
    assert by_anchor["element order set"]["verdict"] == "fails"
    monkeypatch.delenv(permgroup.DATA_ENV_VAR)
    shipped = json.loads(run(["group-audit", "m11", "--format", "json"], capsys)[1])
    assert list(by_anchor) == [row["anchor"] for row in shipped["rows"]]  # the right order gets every row


@pytest.mark.parametrize("order, genus, message", [("7920", "1", "genus must be at least 2"),
                                                   ("0", "26", "order must be positive")])
def test_bounds_classification_rejects_bad_values(order, genus, message, capsys):
    code, out, err = run(["bounds", "main", "--order", order, "--genus", genus], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_bounds_all_holds(capsys):
    code, out, _ = run(["bounds", "all", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict_summary"] == "holds"
    slips = [row for row in doc["rows"] if row.get("printed_slip")]
    assert len(slips) == 4
    assert all(row["verdict"] == "fails" and row["as_documented"] for row in slips)
    regular = [row for row in doc["rows"] if not row.get("printed_slip")]
    assert all(row["verdict"] == "holds" for row in regular)


def test_bounds_unknown_chain(capsys):
    code, out, err = run(["bounds", "nosuch"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown chain 'nosuch'")


@pytest.mark.parametrize("argv", [["nonsense", "--order", "7920", "--genus", "26"],
                                  ["all", "--order", "7920", "--genus", "26"],
                                  ["headline", "--genus", "26", "--order", "7920"],
                                  ["main", "--order", "7920"]], ids=" ".join)
def test_bounds_classification_takes_only_main(argv, capsys):
    code, out, err = run(["bounds", *argv], capsys)
    assert (code, out) == (2, "")
    assert err == "error: classification is: bounds main --order N --genus g\n"


def test_bounds_classification(capsys):
    code, out, _ = run(["bounds", "main", "--order", "7920", "--genus", "26", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    verdicts = {row["anchor"].split()[1]: row["verdict"] for row in doc["rows"]}
    assert verdicts["main-7/4"] == "satisfies"
    assert verdicts["hurwitz"] == "violates"


def test_prank_command(capsys):
    code, out, _ = run(["prank", "--p", "3", "--curve", "y^2 = x^5 - x", "--oracle", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_anchor = {row["anchor"]: row for row in doc["rows"]}
    assert by_anchor["cartier operator"]["stable_rank"] == 2
    assert by_anchor["cartier operator"]["ordinary"] is True
    assert by_anchor["zeta point-count oracle"]["verdict"] == "agrees"


def test_prank_gamma_zero(capsys):
    code, out, _ = run(["prank", "--p", "5", "--curve", "y^2 = x^5 + 3*x + 1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_anchor = {row["anchor"]: row for row in doc["rows"]}
    assert by_anchor["cartier operator"]["stable_rank"] == 0
    assert by_anchor["cartier operator"]["ordinary"] is False


def test_prank_reads_a_nodal_model_on_its_smooth_model(capsys):
    """f = x^2 (x^5 + 3x + 1): the presentation has arithmetic genus 3, the curve genus 2."""
    code, out, _ = run(["prank", "--p", "5", "--curve", "y^2 = x^7 + 3*x^3 + x^2", "--oracle",
                        "--format", "json"], capsys)
    assert code == 0
    by_anchor = {row["anchor"]: row for row in json.loads(out)["rows"]}
    assert set(by_anchor["model genus"]) == {"anchor", "verdict", "genus", "m", "p", "f"}
    assert by_anchor["model genus"]["genus"] == 2
    assert by_anchor["model genus"]["f"] == "x^7 + 3x^3 + x^2"
    assert by_anchor["cartier operator"]["stable_rank"] == 0
    assert by_anchor["zeta point-count oracle"]["verdict"] == "agrees"
    assert by_anchor["zeta point-count oracle"]["l_polynomial"] == [1, 0, 0, 0, 25]


def test_prank_rejects_degenerate(capsys):
    code, out, err = run(["prank", "--p", "5", "--curve", "y^2 = x^2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    # x^5 - 1 = (x - 1)^5 over GF(5): a rational curve
    code, out, err = run(["prank", "--p", "5", "--curve", "y^2 = x^5 - 1"], capsys)
    assert (code, out, err) == (2, "", "error: model has genus 0\n")


@pytest.mark.parametrize("p, curve", [
    ("1000000000000000000000007", "y^2 = x^5 + x + 1"),  # trial division of a 25-digit prime p
    ("4001", "y^2 = x^5 + 3*x + 1"),  # f^2000 in the Cartier matrix
    ("0", "y^2 = x^5 - x"),  # reduction mod 0
    ("3", "y^2 = x^1001 + x + 1"),  # genus 500
    ("3", "y^2 = x^1000000000 + x + 1"),  # a list of 10^9 coefficients
    ("3", "y^1000000000000000003 = x^5 + x + 1"),  # trial division of a 19-digit prime m
], ids=["p-huge", "p-4001", "p-zero", "degree-1001", "degree-1e9", "m-huge"])
def test_prank_refuses_inputs_past_its_caps_at_once(p, curve, capsys):
    start = time.perf_counter()
    code, out, err = run(["prank", "--p", p, "--curve", curve], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_text_format_runs(capsys):
    code, out, _ = run(["group-audit", "alt7", "--format", "text"], capsys)
    assert code == 0
    assert "order by stabilizer chain" in out


# SHA-256 of each ``--format json`` report.  Reports promise byte-identical
# output for the same inputs, so a change to any of these bytes is a defect.
GOLDEN_REPORTS = [
    ("group-audit-alt7", ["group-audit", "alt7"],
     "160b074e9b02656d130758e01de75df7858c1809280bd8b481a2287f816441d9"),
    ("group-audit-m11", ["group-audit", "m11"],
     "a8d18260f8422a7473f8e6cdaa9f75454eb7dee5856c1ae78648f4539c49c3d5"),
    ("enumerate-alt7-3", ["enumerate", "--group", "alt7", "--char", "3"],
     "73064f2b6489f6cb281d5416b15ba353ec5cfdc8fc57637bbf1fe7e20c5790dc"),
    ("enumerate-alt7-5", ["enumerate", "--group", "alt7", "--char", "5"],
     "22b2f81d5dcb56cea45d20592f4360ddecd97a8bdcc28f6f7e99992e5052c10d"),
    ("enumerate-alt7-7", ["enumerate", "--group", "alt7", "--char", "7"],
     "9d573afafa67c61f4238f894cd776e37d6e58a9be6891b401f29f248e55dce3b"),
    ("enumerate-m11-3", ["enumerate", "--group", "m11", "--char", "3"],
     "8847e18015743a583e717e650c8f1660efc7581634815869d0b02b4ca634c836"),
    ("enumerate-m11-5", ["enumerate", "--group", "m11", "--char", "5"],
     "fc8c060ccbf8b682511286ae90b0a58739b92629d3294bd2cf3b9be4eda4ad8f"),
    ("enumerate-m11-11", ["enumerate", "--group", "m11", "--char", "11"],
     "c6246848370516c8f14b95383c4f90b155bcfa702b3603fbd780f0f4276f5702"),
    ("bounds-all", ["bounds", "all"],
     "8a0c4c808932d4df4b6a8e0e9bf1d66761177509161840a313cbb8a4acfdfb90"),
    ("bounds-main-7920-26", ["bounds", "main", "--order", "7920", "--genus", "26"],
     "48113e4dadf6a50fc52109aabf16406e415acb46428a13b545b610b0a722e660"),
    ("prank-oracle-p3", ["prank", "--p", "3", "--curve", "y^2 = x^5 - x", "--oracle"],
     "ab41787aaca228e905a90ce9b859288a7643aff458666b6dd07671753b2fc371"),
    ("prank-oracle-p7", ["prank", "--p", "7", "--curve", "y^2 = x^7 + 3*x + 1", "--oracle"],
     "1e0a3874099d1615a0d82d314cdbcc48ef74fb7b42194a1a8859e42aa86151bc"),
]


@pytest.mark.parametrize("argv, digest", [pytest.param(a, d, id=i) for i, a, d in GOLDEN_REPORTS])
def test_json_reports_match_golden_digests(argv, digest, capsys):
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [pytest.param(a, id=i) for i, a, _ in GOLDEN_REPORTS])
def test_csv_carries_the_json_rows(argv, capsys):
    """Same rows; the header is the sorted union of row keys; a cell is str(value),
    json.dumps of a list, and empty for None or a missing key."""
    import csv as csvmod
    import io

    rows = json.loads(run(argv + ["--format", "json"], capsys)[1])["rows"]
    table = list(csvmod.reader(io.StringIO(run(argv + ["--format", "csv"], capsys)[1])))
    keys = sorted({k for row in rows for k in row})
    assert table[1] == keys and len(table) - 2 == len(rows)

    def cell(value):
        return "" if value is None else json.dumps(value) if isinstance(value, list) else str(value)

    assert table[2:] == [[cell(row.get(k)) for k in keys] for row in rows]


def test_reports_do_not_depend_on_the_hash_seed():
    """Permutations hash as bytes, which follow PYTHONHASHSEED; no report may depend on that."""
    commands = [argv for _, argv, _ in GOLDEN_REPORTS if argv[0] in ("group-audit", "enumerate")]
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != permgroup.DATA_ENV_VAR}

    def stdout(argv, seed):
        return subprocess.run([sys.executable, "-m", "curvebound.cli", *argv, "--format", "json"],
                              env=dict(env, PYTHONPATH=src, PYTHONHASHSEED=seed),
                              capture_output=True, check=True).stdout

    for argv in commands + [["bounds", "all"]]:
        assert stdout(argv, "0") == stdout(argv, "1"), argv


def _readme_examples():
    """argv of each ``curvebound`` line in the ``sh`` block under README's "## CLI"."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.partition("#")[0])[1:] for line in block.splitlines()
            if line.startswith("curvebound ")]


def test_readme_cli_examples_cover_every_command():
    assert {argv[0] for argv in _readme_examples()} == {"enumerate", "group-audit", "bounds", "prank"}


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_cli_examples_run(argv, capsys):
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert (code, err) == (0, "")
    json.loads(out)
