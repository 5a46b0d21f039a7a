import contextlib
import io
import json
from pathlib import Path

import jsonschema
import pytest

from leavitt import cli

from conftest import family_graph

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DATA = HERE.parent / "data"

SCHEMA = json.loads((DATA / "report.schema.json").read_text())

GOLDEN_CASES = {
    "frame_toeplitz.txt": ["frame", "data/toeplitz.json"],
    "frame_y.txt": ["frame", "data/y.json"],
    "frame_loop.txt": ["frame", "data/loop.json"],
    "frame_rose2.txt": ["frame", "data/rose2.json"],
    "frame_line.txt": ["frame", "data/line.json"],
    "frame_g3.txt": ["frame", "data/g3.json"],
    "frame_twocycle.txt": ["frame", "data/twocycle.json"],
    "nf_toeplitz_gammaA.txt": [
        "nf", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json", "e e*",
    ],
    # rational coefficients that cancel to integers (1/2 + 1/2, 3/2 * 2/3)
    # and to fractions: an integral coefficient prints the same whether it
    # is held as an int or as a Fraction
    "nf_toeplitz_gammaA_rational.txt": [
        "nf", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
        "1/2 e e* + 1/2 e e* + 1/3 f f* + 1/6 f f* - 3/2 e f f* + 1/2 e f f* + 2/3 e - 2/3 e",
    ],
    "mul_toeplitz_gammaA_rational.txt": [
        "mul", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
        "1/2 e + 3/2 v - 1/3 f*", "2/3 e* + 2/3 v + 3/2 f",
    ],
    "check_spec_toeplitz_gammaA.json": [
        "check-spec", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json", "--json",
    ],
    "check_spec_toeplitz_gammaB.txt": [
        "check-spec", "--graph", "data/toeplitz.json", "--gamma", "data/gammaB.json",
    ],
    "verify_y_prec4.json": [
        "verify", "--graph", "data/y.json", "--auto-regular", "--prec", "4",
        "--suite", "all", "--json",
    ],
    "decompose_y_prec4.json": [
        "decompose", "--graph", "data/y.json", "--auto-regular", "--prec", "4", "--json",
    ],
    "specialize_twocycle.txt": ["specialize", "data/twocycle.json"],
    "verify_toeplitz_gammaB_prec4.txt": [
        "verify", "--graph", "data/toeplitz.json", "--gamma", "data/gammaB.json",
        "--prec", "4", "--suite", "all",
    ],
    "idempotent_toeplitz_gammaB.txt": [
        "idempotent", "--graph", "data/toeplitz.json", "--gamma", "data/gammaB.json",
        "--set", "w", "--prec", "4",
    ],
    "verify_twocycle_prec3.json": [
        "verify", "--graph", "data/twocycle.json", "--auto-regular", "--prec", "3",
        "--suite", "all", "--json",
    ],
    "ev_toeplitz_gammaA_prec6.txt": [
        "ev", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
        "--vertex", "v", "--prec", "6",
    ],
    "ev_toeplitz_gammaB_prec4.txt": [
        "ev", "--graph", "data/toeplitz.json", "--gamma", "data/gammaB.json",
        "--vertex", "v", "--prec", "4",
    ],
    "verify_toeplitz_gammaA_prec5.txt": [
        "verify", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
        "--prec", "5", "--suite", "all",
    ],
    # the first prime-field goldens: the text verdicts carry no coefficient,
    # and decompose prints e({b}) = a + b - f f* with -1 as 6
    "verify_toeplitz_gammaA_fp7_prec5.txt": [
        "verify", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
        "--field", "fp:7", "--prec", "5", "--suite", "all",
    ],
    "decompose_y_fp7_prec4.json": [
        "decompose", "--graph", "data/y.json", "--auto-regular", "--field", "fp:7",
        "--prec", "4", "--json",
    ],
    "verify_escalating5_lemma10_prec7-2.json": [
        "verify", "--graph", "tests/inputs/escalating5.json",
        "--gamma", "tests/inputs/escalating5_gamma.json", "--prec", "7/2", "--suite", "lemma10",
        "--json",
    ],
    # lemma 10 at K=5 on two graphs that are not frame-finite, where
    # building e(W) in full at each working precision took about 10 s
    "verify_escalating5_lemma10_prec5.json": [
        "verify", "--graph", "tests/inputs/escalating5.json",
        "--gamma", "tests/inputs/escalating5_gamma.json", "--prec", "5", "--suite", "lemma10",
        "--json",
    ],
    "verify_escalating6_lemma10_prec5.json": [
        "verify", "--graph", "tests/inputs/escalating6.json",
        "--gamma", "tests/inputs/escalating6_gamma.json", "--prec", "5", "--suite", "lemma10",
        "--json",
    ],
    "verify_escalating6_lemma10_prec9.json": [
        "verify", "--graph", "tests/inputs/escalating6.json",
        "--gamma", "tests/inputs/escalating6_gamma.json", "--prec", "9", "--suite", "lemma10",
        "--json",
    ],
    # a fractional level, and component separation, whose products take an
    # inexact e_w as their diagonal operand
    "verify_toeplitz_gammaA_lemma21_prec7-2.json": [
        "verify", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
        "--prec", "7/2", "--suite", "lemma21", "--json",
    ],
}


def invoke(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("fname", sorted(GOLDEN_CASES))
def test_golden_outputs(fname, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    committed = (GOLDEN / fname).read_bytes()
    _, first = invoke(GOLDEN_CASES[fname])
    _, second = invoke(GOLDEN_CASES[fname])
    assert first.encode() == committed
    assert second.encode() == committed


@pytest.mark.parametrize("family, n, K", [("rose", 4, 12), ("complete", 4, 6)])
def test_escalated_family_goldens(family, n, K, tmp_path):
    # the two vertex-series benchmark cases: their checks escalate the
    # working precision, and the goldens pin each achieved level (special
    # transfer reaches 137/6 on rose(4) and 73/6 on complete(4))
    path = tmp_path / f"{family}{n}.json"
    path.write_text(json.dumps(family_graph(family, n).to_json()))
    _, out = invoke(["verify", "--graph", str(path), "--auto-regular", "--prec", str(K),
                     "--suite", "all", "--json"])
    assert out.encode() == (GOLDEN / f"verify_{family}{n}_prec{K}.json").read_bytes()


@pytest.mark.parametrize(
    "fname",
    [f for f in sorted(GOLDEN_CASES) if f.endswith(".json") and f != "specialize_twocycle.txt"],
)
def test_json_outputs_validate_against_schema(fname, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    _, out = invoke(GOLDEN_CASES[fname])
    jsonschema.validate(json.loads(out), SCHEMA)


def test_idempotent_json_validates(monkeypatch):
    monkeypatch.chdir(HERE.parent)
    _, out = invoke(
        ["idempotent", "--graph", "data/toeplitz.json", "--gamma", "data/gammaB.json",
         "--set", "w", "--prec", "4", "--json"]
    )
    jsonschema.validate(json.loads(out), SCHEMA)


def test_exit_codes(monkeypatch, tmp_path):
    monkeypatch.chdir(HERE.parent)
    code, _ = invoke(["frame", "data/toeplitz.json"])
    assert code == 0
    # regularity report fails for the loop-special choice
    code, _ = invoke(
        ["check-spec", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json"]
    )
    assert code == 1
    # usage error
    code, _ = invoke(["frame"])
    assert code == 2
    code, _ = invoke(["no-such-command"])
    assert code == 2
    # a denominator that is zero in F_7 is a parse error, not a crash
    code, _ = invoke(
        ["nf", "--graph", "data/toeplitz.json", "--auto-regular", "--field", "fp:7", "1/7 v"]
    )
    assert code == 2
    # input errors
    code, _ = invoke(["frame", "data/absent.json"])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["v"], "edges": [], "x": 1}')
    code, _ = invoke(["frame", str(bad)])
    assert code == 2
    bad.write_text('{"vertices": ["v"], "edges": [{"name": "e", "src": ["v"], "dst": "v"}]}')
    code, _ = invoke(["frame", str(bad)])
    assert code == 2
    code, _ = invoke(
        ["nf", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json", "v + zz"]
    )
    assert code == 2
    code, _ = invoke(
        ["nf", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
         "--field", "fp:6", "v"]
    )
    assert code == 2
    code, _ = invoke(
        ["nf", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
         "--field", f"fp:{2**127 - 1}", "v"]
    )
    assert code == 2
    code, _ = invoke(
        ["verify", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
         "--prec", "-3", "--suite", "all"]
    )
    assert code == 2
    # numbers are digit runs: no underscores, signs or surrounding blanks
    for prec in ("1_0", " +3", "+3", "3 ", "1/2_0", "1/-2", "1/0", "1/2/3", ""):
        code, _ = invoke(
            ["ev", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
             "--vertex", "v", "--prec", prec]
        )
        assert code == 2, prec
    for field in ("fp:1_000_003", "fp: 5", "fp:+5", "fp:"):
        code, _ = invoke(
            ["nf", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
             "--field", field, "v"]
        )
        assert code == 2, field


def test_mul_and_ord(monkeypatch):
    monkeypatch.chdir(HERE.parent)
    code, out = invoke(
        ["mul", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
         "e e*", "e e*"]
    )
    assert code == 0 and out == "v - f f*\n"
    code, out = invoke(
        ["ord", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
         "e f f* e*"]
    )
    assert code == 0 and out == "4\n"
    code, out = invoke(
        ["ord", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json", "0"]
    )
    assert code == 0 and out == "inf\n"


def test_ev_command(monkeypatch):
    monkeypatch.chdir(HERE.parent)
    code, out = invoke(
        ["ev", "--graph", "data/toeplitz.json", "--gamma", "data/gammaB.json",
         "--vertex", "v", "--prec", "4"]
    )
    assert code == 0 and out == "e_v = v - e e*\n"


def test_prec_accepts_rationals(monkeypatch):
    monkeypatch.chdir(HERE.parent)
    code, out = invoke(
        ["ev", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
         "--vertex", "v", "--prec", "7/2"]
    )
    assert code == 0 and out == "e_v = v - f f* + O(V_7/2)\n"


def test_field_flag(monkeypatch):
    monkeypatch.chdir(HERE.parent)
    code, out = invoke(
        ["nf", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
         "--field", "fp:5", "1/2 v"]
    )
    assert code == 0 and out == "3 v\n"


def test_specialize_writes_file(monkeypatch, tmp_path):
    monkeypatch.chdir(HERE.parent)
    out_file = tmp_path / "gamma.json"
    code, out = invoke(["specialize", "data/y.json", "-o", str(out_file)])
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text()) == {"gamma": {"a": "e"}}


def test_idempotent_rejects_non_hereditary_set(monkeypatch):
    monkeypatch.chdir(HERE.parent)
    code, out = invoke(
        ["idempotent", "--graph", "data/toeplitz.json", "--gamma", "data/gammaA.json",
         "--set", "v", "--prec", "3"]
    )
    assert code == 2


def test_idempotent_finishes_on_exponential_arrival_graph(tmp_path):
    # escalation climbs to Kw=16, and the arrival paths into {v3} grow
    # exponentially in number with Kw, so they must not be listed one by one
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "vertices": ["v0", "v1", "v2", "v3", "v4"],
        "edges": [{"name": name, "src": src, "dst": dst} for name, src, dst in (
            ("e0", "v0", "v3"), ("e1", "v0", "v4"), ("e2", "v2", "v3"),
            ("e3", "v2", "v1"), ("e4", "v4", "v0"), ("e5", "v4", "v0"))],
    }))
    code, out = invoke(
        ["idempotent", "--graph", str(graph), "--auto-regular", "--set", "v3", "--prec", "1/2"]
    )
    assert code == 0
    assert "central-idempotent[{v3}]: pass" in out


def test_checks_exit_contract():
    # exit 1 only on non-refused failures
    from leavitt.structure import FAIL, PASS, REFUSED, Verdict

    ok = Verdict("a", PASS, None, None)
    refused = Verdict("b", REFUSED, None, None)
    bad = Verdict("c", FAIL, None, None)
    assert cli._checks_exit([ok, refused]) == 0
    assert cli._checks_exit([ok, bad]) == 1


def test_escalation_and_memory_errors_exit_2(monkeypatch, capsys):
    # exit 1 means "a check failed", so neither error may escape as a traceback
    from leavitt import structure
    from leavitt.completion import truncate

    monkeypatch.chdir(HERE.parent)
    argv = ["verify", "--graph", "data/y.json", "--auto-regular", "--prec", "4"]

    def uncertified(alg, W, Kw):  # certifies nothing, so escalation cannot converge
        return truncate(alg.zero(), 0)

    # every way a check escalates: a central-idempotent check, the
    # decomposition's partition and orthogonality, and the vertex laws
    cases = [
        ("arrival_idempotent", argv),
        ("arrival_idempotent",
         ["decompose", "--graph", "data/y.json", "--auto-regular", "--prec", "4"]),
        ("vertex_idempotent", [*argv, "--suite", "lemma19"]),
    ]
    for name, args in cases:
        with monkeypatch.context() as patch:
            patch.setattr(structure, name, uncertified)
            assert cli.run(args) == 2, args
        assert capsys.readouterr().err == (
            "error: working-precision escalation failed to converge\n"
        ), args

    def exhausted(alg, W, Kw):
        raise MemoryError

    # run() lets MemoryError through to in-process callers; main() exits 2
    monkeypatch.setattr(structure, "arrival_idempotent", exhausted)
    with pytest.raises(MemoryError):
        cli.run(argv)
    monkeypatch.setattr("sys.argv", ["leavitt", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "error: out of memory\n"
