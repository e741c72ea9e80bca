import json

import pytest

from spheremap import degree, load_certificate, parse
from spheremap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_writes_document(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, stdout, stderr = run(
        capsys, "construct", "--n", "2", "--d", "3", "--out", str(out)
    )
    assert code == 0
    assert "vertices: 8" in stdout
    assert "degree: 3" in stdout
    assert "vertex bound ((n+2)/n*|d| + 2n+2): 12" in stdout
    assert "bound met: yes" in stdout
    assert f"wrote: {out}" in stdout
    cert = load_certificate(out.read_text())
    assert cert.claimed_degree == 3


def test_construct_streams_document_to_stdout(capsys):
    code, stdout, stderr = run(capsys, "construct", "--n", "1", "--d", "2")
    assert code == 0
    assert json.loads(stdout)["dimension"] == 1  # document alone on stdout
    assert "vertices: 6" in stderr


def test_verify_passes(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, "construct", "--n", "3", "--d", "4", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "PASS" in stdout
    assert "degree: 4" in stdout
    assert "claimed degree: 4 (matches)" in stdout
    assert "consistent: True" in stdout


def test_verify_catches_tampered_degree(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, "construct", "--n", "2", "--d", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["metadata"]["claimed_degree"] = 7
    out.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", str(out))
    assert code == 1
    assert "FAIL: DegreeMismatch" in stderr
    assert "PASS" not in stdout


def test_verify_missing_file(capsys):
    code, _, stderr = run(capsys, "verify", "/no/such/file.json")
    assert code == 1
    assert stderr.startswith("FAIL:")


def test_search_finds_lambda(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, stdout, _ = run(
        capsys, "search", "--n", "1", "--d", "2",
        "--max-vertices", "6", "--out", str(out),
    )
    assert code == 0
    assert "lambda: 6" in stdout
    ls = parse(out.read_text())
    assert degree(ls).degree == 2


def test_search_reports_not_found(capsys):
    code, stdout, _ = run(
        capsys, "search", "--n", "1", "--d", "2", "--max-vertices", "5"
    )
    assert code == 0
    assert "lambda: NotFoundWithinBudget" in stdout


def test_search_budget_guard(capsys):
    code, _, stderr = run(
        capsys, "search", "--n", "2", "--d", "2", "--max-vertices", "40"
    )
    assert code == 1
    assert "FAIL: BudgetExceeded" in stderr


def test_table_text_and_json(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "rows": [
            {"n": 1, "d": 1, "v_max": 4},
            {"n": 3, "d": 2},
            {"n": 2, "d": 5},
        ]
    }))
    out = tmp_path / "table.json"
    code, stdout, _ = run(
        capsys, "table", "--spec", str(spec), "--out", str(out)
    )
    assert code == 0
    assert "exact_search" in stdout
    assert "exact_formula" in stdout
    assert "upper_bound" in stdout
    assert "not limits" in stdout
    payload = json.loads(out.read_text())
    by_status = {row["status"]: row for row in payload["rows"]}
    assert by_status["exact_search"]["lambda"] == 3
    assert by_status["exact_formula"]["lambda"] == 8
    assert by_status["exact_search"]["ratio_lambda_over_abs_d"] == "3"


def test_table_rejects_bad_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("[]")
    code, _, stderr = run(capsys, "table", "--spec", str(spec))
    assert code == 1
    assert "FAIL" in stderr


def test_suspend_round_trip(tmp_path, capsys):
    base = tmp_path / "base.json"
    lifted = tmp_path / "lifted.json"
    run(capsys, "construct", "--n", "1", "--d", "3", "--out", str(base))
    code, stdout, _ = run(
        capsys, "suspend", str(base), "--pivot", "2", "--out", str(lifted)
    )
    assert code == 0
    assert "dimension: 2" in stdout
    assert "degree: 3" in stdout
    cert = load_certificate(lifted.read_text())
    assert cert.vertex_count == 10
    code, stdout, _ = run(capsys, "verify", str(lifted))
    assert code == 0 and "PASS" in stdout


def test_suspend_bad_pivot(tmp_path, capsys):
    base = tmp_path / "base.json"
    run(capsys, "construct", "--n", "1", "--d", "1", "--out", str(base))
    code, _, stderr = run(capsys, "suspend", str(base), "--pivot", "42")
    assert code == 1
    assert "FAIL: PivotNotFound" in stderr


def test_insert_adds_degree(tmp_path, capsys):
    base = tmp_path / "base.json"
    bigger = tmp_path / "bigger.json"
    run(capsys, "construct", "--n", "2", "--d", "1", "--out", str(base))
    code, stdout, _ = run(
        capsys, "insert", str(base), "--facet", "1,2,3", "--out", str(bigger)
    )
    assert code == 0
    assert "vertices: 8" in stdout
    assert "degree: 3" in stdout


def test_insert_rejects_wrong_colors(tmp_path, capsys):
    base = tmp_path / "base.json"
    run(capsys, "construct", "--n", "2", "--d", "1", "--out", str(base))
    code, _, stderr = run(capsys, "insert", str(base), "--facet", "1,2,4")
    assert code == 1
    assert "FAIL: BadFacetColors" in stderr


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["explode"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["insert", "x.json", "--facet", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["insert", "x.json", "--facet", "1,a"])
    assert err.value.code == 2


def test_write_failure_exits_one(capsys):
    code, _, stderr = run(
        capsys, "construct", "--n", "1", "--d", "1",
        "--out", "/no-such-dir/x.json",
    )
    assert code == 1
    assert stderr.startswith("FAIL:")


@pytest.mark.parametrize("command", ["suspend", "insert"])
@pytest.mark.parametrize(
    "recipe",
    [
        [["insert"]],
        [["suspend", "x"]],
        [[5]],
        [["boundary_simplex", 5]],
        [["boundary_simplex", 2], ["insert", [1, 2, 3]], ["reverse"]],
        [["boundary_simplex", 99]],
        "not a list",
    ],
)
def test_untrusted_recipe_exits_one(tmp_path, capsys, command, recipe):
    base = tmp_path / "base.json"
    run(capsys, "construct", "--n", "2", "--d", "3", "--out", str(base))
    doc = json.loads(base.read_text())
    doc["metadata"]["recipe"] = recipe
    base.write_text(json.dumps(doc))
    argv = [command, str(base)] + (["--facet", "1,2,3"] if command == "insert" else [])
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stderr.startswith("FAIL: ValidationError: ")
    assert "Traceback" not in stdout + stderr
