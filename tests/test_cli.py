import importlib
import json
import time
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremap import cli, degree, load_certificate, parse
from spheremap.cli import main
from test_complexes import NON_SPHERES


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


@pytest.mark.parametrize("command", ["verify", "suspend"])
@pytest.mark.parametrize("recipe", [[["boundary_simplex", 3]], "nonsense"])
def test_verify_refuses_a_false_recipe_as_moves_do(tmp_path, capsys, command, recipe):
    out = tmp_path / "c.json"
    run(capsys, "construct", "--n", "2", "--d", "5", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["metadata"]["recipe"] = recipe
    out.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, command, str(out))
    assert code == 1
    assert stderr.startswith("FAIL: ValidationError: ")
    assert "PASS" not in stdout and "Traceback" not in stdout + stderr


def test_verify_refuses_a_non_orientable_complex_with_non_orientable_links(tmp_path, capsys):
    # the relabeled bundle is closed, connected and has a sphere's Euler
    # characteristic; the signed walks of the whole complex and of its
    # links find the conflicts, whatever signs the document states
    facets = NON_SPHERES["relabeled_double_suspended_twisted_sphere_bundle"]
    verts = sorted({v for f in facets for v in f})
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({
        "format_version": "1",
        "dimension": 5,
        "facets": [list(f) for f in facets],
        "labels": {str(v): i % 7 + 1 for i, v in enumerate(verts)},
        "orientation": [[1, *sorted(f)] for f in facets],
    }))
    code, stdout, stderr = run(capsys, "verify", str(path))
    assert code == 1
    assert stderr == (
        "FAIL: ValidationError: document fails sphere checks: ['orientable', 'vertex_links']\n"
    )
    assert "PASS" not in stdout


@pytest.mark.parametrize("n", [13, 20])
def test_verify_refuses_documents_above_the_build_caps(tmp_path, capsys, n):
    # the boundary of the (n+1)-simplex, whose sphere checks alone would
    # take seconds at n = 13 and far longer at n = 20
    verts = range(1, n + 3)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "format_version": "1",
        "dimension": n,
        "facets": [[v for v in verts if v != skip] for skip in verts],
        "labels": {str(v): v for v in verts},
    }))
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert stderr.startswith("FAIL: BudgetExceeded: ")
    assert "PASS" not in stdout and "Traceback" not in stdout + stderr


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


NINES = "9" * 4300  # the longest int the interpreter parses by default


@pytest.mark.parametrize(
    "n, d",
    [
        ("2", "100000000"),
        ("1000", "7"),
        # their vertex bound has 4,301 digits, past what str() renders
        pytest.param("3", NINES, id="3-nines"),
        pytest.param(NINES, "3", id="nines-3"),
    ],
)
def test_construct_budget_guard(capsys, n, d):
    code, stdout, stderr = run(capsys, "construct", "--n", n, "--d", d)
    assert code == 1
    assert stderr.startswith("FAIL: BudgetExceeded: ")
    assert "(dimension 12, 20000 vertices)" in stderr
    assert "Traceback" not in stdout + stderr


@pytest.mark.parametrize(
    "row", [{"n": 2, "d": 100000000}, {"n": 1000, "d": 7}, {"n": 1, "d": 400, "v_max": 1200}]
)
def test_table_budget_guard(tmp_path, capsys, row):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"rows": [row]}))
    code, stdout, stderr = run(capsys, "table", "--spec", str(path))
    assert code == 1
    assert stderr.startswith("FAIL: BudgetExceeded: ")
    assert "Traceback" not in stdout + stderr


def test_circle_search_budget_guard(capsys):
    code, stdout, stderr = run(
        capsys, "search", "--n", "1", "--d", "100000", "--max-vertices", "100000000"
    )
    assert code == 1
    assert stderr.startswith("FAIL: BudgetExceeded: ")
    assert "Traceback" not in stdout + stderr


@pytest.mark.parametrize("move", ["suspend", "insert"])
def test_moves_obey_build_caps(tmp_path, capsys, monkeypatch, move):
    # no move writes a document that loading it again would refuse
    constructions_mod = importlib.import_module("spheremap.constructions")
    base = tmp_path / "base.json"
    out = tmp_path / "out.json"
    run(capsys, "construct", "--n", "3", "--d", "6", "--out", str(base))
    cert = load_certificate(base.read_text())
    argv = [move, str(base), "--out", str(out)]
    size = cert.vertex_count + 1
    if move == "insert":
        facet = min(f for f, s in degree(cert.labeled).per_target_facet[5] if s == 1)
        argv += ["--facet", ",".join(map(str, facet))]
        size = cert.vertex_count + 5
    monkeypatch.setattr(constructions_mod, "MAX_BUILD_VERTICES", size - 1)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stderr.startswith("FAIL: BudgetExceeded: ")
    assert "Traceback" not in stdout + stderr
    assert not out.exists()
    monkeypatch.setattr(constructions_mod, "MAX_BUILD_VERTICES", size)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert load_certificate(out.read_text()).vertex_count == size


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
    text = out.read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    by_status = {row["status"]: row for row in payload["rows"]}
    assert by_status["exact_search"]["lambda"] == 3
    assert by_status["exact_formula"]["lambda"] == 8
    assert by_status["exact_search"]["ratio_lambda_over_abs_d"] == "3"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("to_file", [False, True])
def test_table_matches_golden_bytes(tmp_path, capsys, to_file):
    # the spec covers all four statuses and both ways a ratio is None
    # (d = 0, and a search that found nothing); the golden summary and
    # document are the bytes the table command wrote when they were recorded
    spec = str(GOLDEN / "table_spec.json")
    summary = (GOLDEN / "table_summary.txt").read_text()
    document = (GOLDEN / "table.json").read_text()
    if to_file:
        out = tmp_path / "table.json"
        code, stdout, stderr = run(capsys, "table", "--spec", spec, "--out", str(out))
        assert (code, stdout, stderr) == (0, f"{summary}wrote: {out}\n", "")
        assert out.read_bytes() == (GOLDEN / "table.json").read_bytes()
    else:
        code, stdout, stderr = run(capsys, "table", "--spec", spec)
        assert (code, stdout, stderr) == (0, document, summary)


def test_table_rejects_bad_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("[]")
    code, _, stderr = run(capsys, "table", "--spec", str(spec))
    assert code == 1
    assert "FAIL" in stderr


@pytest.mark.parametrize(
    "spec",
    [
        {"rows": [{"d": 3}]},
        {"rows": [{"n": 2, "d": 3, "v_max": "x"}]},
        {"rows": ["a"]},
        {"rows": [{"n": 2.0, "d": 3}]},
        {"rows": [{"n": 2, "d": True}]},
        {"rows": [{"n": 2, "d": 4, "vmax": 10}]},  # a misspelt budget, not an upper bound
        # 3|d| and n + 2 would have 4,301 digits, past what str() renders
        {"rows": [{"n": 1, "d": int("9" * 4300)}]},
        {"rows": [{"n": int("9" * 4300), "d": 1}]},
    ],
)
def test_table_rejects_bad_rows(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, stdout, stderr = run(capsys, "table", "--spec", str(path))
    assert code == 1
    assert stderr.startswith("FAIL: ValidationError: table row ")
    assert "Traceback" not in stdout + stderr


def test_table_refuses_a_row_too_large_to_print(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"rows": [{"n": 1, "d": int("9" * 4300)}]}))
    code, stdout, stderr = run(capsys, "table", "--spec", str(path))
    assert (code, stdout) == (1, "")
    assert stderr == "FAIL: ValidationError: table row n and d must have at most 100 digits\n"


def test_table_names_an_unknown_row_key(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"rows": [{"n": 2, "d": 4, "vmax": 10}]}))
    code, stdout, stderr = run(capsys, "table", "--spec", str(path))
    assert code == 1 and stdout == ""
    assert "unknown key 'vmax'" in stderr


# unreadable input: bytes that are not UTF-8, JSON nested past the parser's
# depth, or an integer past the interpreter's 4,300-digit limit
UNREADABLE = {
    "": (b"\xff\xfe\x00", "not UTF-8"),
    "-deep": (b"[" * 100_000 + b"]" * 100_000, "not valid JSON"),
    "-long-int": (b'{"format_version": "1", "dimension": 1' + b"0" * 5000 + b"}", "not valid JSON"),
}


@pytest.mark.parametrize(
    "command, kind",
    [
        pytest.param(command, kind, id=command + kind)
        for kind in UNREADABLE
        for command in ["verify", "suspend", "insert", "table"]
    ],
)
def test_non_utf8_input_exits_one(tmp_path, capsys, command, kind):
    content, reason = UNREADABLE[kind]
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    argv = {
        "verify": ["verify", str(path)],
        "suspend": ["suspend", str(path)],
        "insert": ["insert", str(path), "--facet", "1,2,3"],
        "table": ["table", "--spec", str(path)],
    }[command]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stderr.startswith("FAIL: DocumentSyntaxError: ")
    assert reason in stderr
    assert "Traceback" not in stdout + stderr


@pytest.mark.parametrize(
    "bad_id", [2.5, True, "1", None, [1]], ids=["float", "bool", "str", "null", "list"]
)
def test_verify_names_a_facet_id_that_is_not_an_int(tmp_path, capsys, bad_id):
    path = tmp_path / "bad.json"
    run(capsys, "construct", "--n", "2", "--d", "1", "--out", str(path))
    doc = json.loads(path.read_text())
    assert doc["facets"][0] == [1, 2, 3]
    doc["facets"][0] = [1, bad_id, 3]
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "verify", str(path))
    assert code == 1 and stdout == ""
    message = f"facets: facet {(1, bad_id, 3)} has a vertex id that is not an int"
    assert stderr == f"FAIL: ValidationError: {message}\n"


@pytest.mark.parametrize("with_orientation", [True, False])
def test_verify_computes_each_invariant_once(tmp_path, capsys, monkeypatch, with_orientation):
    # count the passes themselves, not the cached public wrappers, per
    # complex object with the document's facets: the document's own complex
    # comes first, and the sphere its recipe replay rebuilds is compared to
    # it and gets its degree computed, nothing else; an equal document takes
    # that degree report, so its own is never computed.  The orientation is
    # built only when the document has no orientation field: the sphere
    # verdict reads orientability off the walk closedness already made
    complexes_mod = importlib.import_module("spheremap.complexes")
    degree_mod = importlib.import_module("spheremap.degree")  # not the function

    out = tmp_path / "c.json"
    run(capsys, "construct", "--n", "3", "--d", "5", "--out", str(out))
    doc = json.loads(out.read_text())
    if not with_orientation:  # parse then orients the complex itself
        del doc["orientation"], doc["metadata"]
        out.write_text(json.dumps(doc))
    facets = tuple(tuple(f) for f in doc["facets"])
    calls = []  # (pass, complex), keeping each complex alive so identity is sound

    def counting(module, name, key, complex_of):
        original = getattr(module, name)

        def wrapper(x):
            if complex_of(x).facets == facets:
                calls.append((key, complex_of(x)))
            return original(x)

        monkeypatch.setattr(module, name, wrapper)

    counting(complexes_mod, "_closedness", "closedness", lambda c: c)
    counting(complexes_mod, "_orient", "orientation", lambda c: c)
    counting(degree_mod, "_degree_report", "degree", lambda ls: ls.complex)
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0 and "PASS" in stdout
    objects = []
    for _, c in calls:
        if not any(c is o for o in objects):
            objects.append(c)
    per_object = [Counter(key for key, c in calls if c is o) for o in objects]
    if with_orientation:  # the metadata holds the recipe
        expected = [{"closedness": 1}, {"degree": 1}]
    else:
        expected = [{"closedness": 1, "orientation": 1, "degree": 1}]
    assert per_object == expected


@pytest.mark.parametrize("with_orientation", [True, False])
def test_verify_walks_the_facet_graph_once(tmp_path, capsys, monkeypatch, with_orientation):
    # closedness, orientation, the shelling and coherence read one ridge map
    # of the document's complex, and closedness and orientation share one
    # walk of it: the star walk of the empty face
    complexes_mod = importlib.import_module("spheremap.complexes")
    out = tmp_path / "c.json"
    run(capsys, "construct", "--n", "3", "--d", "5", "--out", str(out))
    doc = json.loads(out.read_text())
    if not with_orientation:
        del doc["orientation"], doc["metadata"]
        out.write_text(json.dumps(doc))
    facets = tuple(tuple(f) for f in doc["facets"])
    walked, mapped = [], []
    original, ridge_map = complexes_mod._star_walks, complexes_mod._ridge_map

    def counting(complex, sizes, signed, rows=None):
        walked.append(complex.facets == facets and tuple(sizes) == (0,))
        return original(complex, sizes, signed, rows)

    monkeypatch.setattr(complexes_mod, "_star_walks", counting)
    monkeypatch.setattr(
        complexes_mod, "_ridge_map", lambda K: mapped.append(K.facets == facets) or ridge_map(K)
    )
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0 and "PASS" in stdout
    assert walked.count(True) == 1
    assert mapped.count(True) == 1


def test_documents_on_stdout_stand_alone(tmp_path, capsys):
    # without --out a document is all of stdout and its summary goes to
    # stderr; with --out the summary is on stdout and ends in "wrote:"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"rows": [{"n": 1, "d": 2, "v_max": 6}]}))
    out = tmp_path / "out.json"
    for argv, summary in (
        (["search", "--n", "1", "--d", "2", "--max-vertices", "6"], "lambda: 6"),
        (["table", "--spec", str(spec)], "not limits"),
    ):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 0
        document = json.loads(stdout)
        assert summary in stderr
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert code == 0 and stderr == ""
        assert json.loads(out.read_text()) == document
        assert summary in stdout
        assert stdout.endswith(f"wrote: {out}\n")


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


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        base = tmp_path / "base.json"
        assert run(capsys, "construct", "--n", "2", "--d", "3", "--out", str(base))[0] == 0
        assert run(capsys, "verify", str(base))[0] == 0
        assert run(capsys, "suspend", str(base))[0] == 0
        assert builds == []  # a well-formed command line builds no parser
        with pytest.raises(SystemExit):
            main(["explode"])
        assert builds == [1]
        with pytest.raises(SystemExit):
            main(["verify"])
        assert builds == [1]
        assert cli.build_parser() is not cli.build_parser()  # still a fresh one each call
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["insert", "-h"],
        ["explode"],
        ["insert", "x.json", "--facet", "1,a"],
        [],
        ["search", "--n", "1", "--d", "2", "--max-vertices"],
        ["construct", "--n", "2", "--d", "3", "--out", "-x"],
        ["construct", "--n", "1" + "0" * 4300, "--d", "3"],  # past the int() digit limit
    ],
)
def test_shared_parser_prints_what_a_fresh_one_does(capsys, argv):
    main(["construct", "--n", "1", "--d", "1"])  # the shared parser has parsed before
    capsys.readouterr()
    outputs = []
    for parse_args in (main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        outputs.append((err.value.code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == (0 if "-h" in argv else 2)
    assert outputs[0][1 if "-h" in argv else 2].startswith("usage: spheremap")


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["construct", "--n=2", "--d=3"], ["construct", "--n", "2", "--d", "3"]),
        (
            ["search", "--n", "1", "--d", "-6", "--max", "18"],
            ["search", "--n", "1", "--d", "-6", "--max-vertices", "18"],
        ),
        # argparse keeps the last value of a repeated flag
        (["construct", "--n", "5", "--d", "3", "--n", "2"], ["construct", "--n", "2", "--d", "3"]),
    ],
)
def test_command_lines_left_to_argparse_still_run(capsys, argv, plain):
    assert cli._read_argv(argv) is None
    assert cli._read_argv(plain) is not None
    code, stdout, stderr = run(capsys, *argv)
    assert code == 0
    assert (code, stdout, stderr) == run(capsys, *plain)


# values and near-misses of every kind argparse tells apart: flags and their
# abbreviations, "--flag=value", negative numbers, "--", "-", help, ints
# that only Python's int() reads, empty and spaced strings
TOKENS = [
    "--n", "--d", "--max-vertices", "--out", "--spec", "--pivot", "--facet", "--max",
    "--n=3", "-6", "-1.5", "--", "-", "-h", "３", "1_0", "", "1,a", "1,2,3", "2", "18",
    "x.json", "-x", "-３", " 4", "4 2", "construct", "--help", "-n", "0",
]
# the tokens above argparse reads as values, some of which no type converts
VALUES = ["-6", "３", "1_0", "", "1,a", "1,2,3", "2", "18", "x.json", " 4", "4 2", "0"]


@st.composite
def plain_command_lines(draw):
    """A command with its positionals and some of its flags, each with a
    token from VALUES, in any order."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, positionals, options = cli._COMMANDS[name]
    values = st.sampled_from(VALUES)
    groups = [[draw(values)] for _ in positionals] + [
        [flag, draw(values)]
        for flag, _, required, _ in options
        if required or draw(st.booleans())
    ]
    return [name, *chain.from_iterable(draw(st.permutations(groups)))]


def test_the_reader_agrees_with_argparse():
    accepted = []
    first = st.sampled_from([*cli._COMMANDS, "explode", *TOKENS])
    any_line = st.builds(
        lambda head, rest: [head, *rest], first, st.lists(st.sampled_from(TOKENS), max_size=8)
    )

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(st.one_of(plain_command_lines(), any_line))
    def agrees(argv):
        args = cli._read_argv(argv)
        if args is not None:
            accepted.append(argv)
            try:
                expected = cli.build_parser().parse_args(argv)
            except SystemExit:
                expected = None  # argparse refuses what the reader accepted
            assert args == expected

    agrees()
    assert {argv[0] for argv in accepted} == set(cli._COMMANDS)


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


@pytest.mark.parametrize("command", ["verify", "suspend"])
@pytest.mark.parametrize("key", ["format_version", "metadata", "colour"])
def test_literal_seed_with_another_key_exits_one(tmp_path, capsys, command, key):
    base = tmp_path / "base.json"
    run(capsys, "construct", "--n", "2", "--d", "3", "--out", str(base))
    doc = json.loads(base.read_text())
    literal = {k: doc[k] for k in ("dimension", "facets", "labels", "orientation")}
    doc["metadata"]["recipe"] = [["literal", {**literal, key: "1"}]]
    base.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, command, str(base))
    assert code == 1
    assert stderr == f"FAIL: ValidationError: recipe literal seed: unexpected key '{key}'\n"
    assert "Traceback" not in stdout + stderr
