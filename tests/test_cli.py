import hashlib
import json
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
    assert "characteristic 11 not supported for alt7" in err
    assert "odd prime" in err


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
    permgroup.load_group("m11")  # the shipped group is cached first and must not be reused
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
    permgroup.load_group("m11")
    (tmp_path / "m11.txt").write_text("(1,2)\n(3,4)\n")
    monkeypatch.setenv(permgroup.DATA_ENV_VAR, str(tmp_path))
    code, out, err = run(["enumerate", "--group", "m11", "--char", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: the m11 generator file builds a group of order 4\n"
    code, out, _ = run(["group-audit", "m11", "--format", "json"], capsys)
    assert code == 1  # a file that builds the wrong group is a failed verdict for the audit
    assert json.loads(out)["verdict_summary"] == "fails"


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
    code, out, _ = run(["prank", "--p", "5", "--curve", "y^2 = x^5 - 1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_anchor = {row["anchor"]: row for row in doc["rows"]}
    assert by_anchor["cartier operator"]["stable_rank"] == 0
    assert by_anchor["cartier operator"]["ordinary"] is False


def test_prank_rejects_degenerate(capsys):
    code, out, err = run(["prank", "--p", "5", "--curve", "y^2 = x^2"], capsys)
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
     "f6ee5d00cdb4464c6cbf1e600f8404c3953188c3a726918c3b85bef4f268c8ab"),
    ("bounds-main-7920-26", ["bounds", "main", "--order", "7920", "--genus", "26"],
     "48113e4dadf6a50fc52109aabf16406e415acb46428a13b545b610b0a722e660"),
    ("prank-oracle-p3", ["prank", "--p", "3", "--curve", "y^2 = x^5 - x", "--oracle"],
     "3a9e0ca8bb6fa3171a46be4c5eb837bfd84ab93c0b6580e1a697fba76d1daef9"),
    ("prank-oracle-p7", ["prank", "--p", "7", "--curve", "y^2 = x^7 + 3*x + 1", "--oracle"],
     "91535697ab8281b9de76b56b26016050fadc164e35789144586957df6c6ede3b"),
]


@pytest.mark.parametrize("argv, digest", [pytest.param(a, d, id=i) for i, a, d in GOLDEN_REPORTS])
def test_json_reports_match_golden_digests(argv, digest, capsys):
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
