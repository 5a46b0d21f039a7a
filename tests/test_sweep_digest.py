"""A committed digest of CLI output over a seeded sweep of small graphs.

The sweep runs ``random_graph(Random(1000 + i), 5, 9)`` for i < 40, each
under ``--auto-regular`` and under a ``random_specialization`` drawn from
the same generator, through three commands over the rationals: ``verify
--suite all --json`` at K = 2, text ``verify`` at K = 7/2 and ``decompose
--json`` at K = 3.  The first also runs over F_7, where it is the slowest
case.  Each graph then draws four ``random_monomial`` from the same
generator, and ``nf``, ``mul`` and ``ord`` run on expressions built from
them over both fields.  ``tests/golden/sweep_digest.json`` maps each case
id to the SHA-256 of its (exit code, stdout, stderr), so a change in output
names its case.  Every argument list is valid, and every expression starts
with a name, so no argparse message, whose wording varies between Python
versions, reaches the digest.

Regenerate the golden with ``PYTHONPATH=src python tests/test_sweep_digest.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path

from leavitt import LeavittAlgebra, cli

from conftest import random_graph, random_monomial, random_specialization

GOLDEN = Path(__file__).resolve().parent / "golden" / "sweep_digest.json"

GRAPHS = 40
COMMANDS = {
    "verify-all-json-2": ["verify", "--suite", "all", "--json", "--prec", "2"],
    "verify-text-7/2": ["verify", "--prec", "7/2"],
    "decompose-json-3": ["decompose", "--json", "--prec", "3"],
}
FIELDS = {"q": COMMANDS, "fp:7": {"verify-all-json-2": COMMANDS["verify-all-json-2"]}}
SPECIALIZATIONS = {
    "auto": ["--auto-regular"],
    "gamma": ["--gamma", "gamma.json"],
}


def _digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def _expression_commands(rng: random.Random, alg: LeavittAlgebra) -> dict:
    """``nf``, ``mul`` and ``ord`` on expressions over four random
    monomials, with coefficients up to 9, so some vanish over F_7."""
    m = [random_monomial(rng, alg) for _ in range(4)]
    c = [rng.randint(1, 9) for _ in range(3)]
    return {
        "nf": ["nf", f"{c[0]} {m[0]} ({m[1]})* - {m[2]}"],
        "mul": ["mul", f"{m[0]} + {c[1]} {m[2]}", f"{m[1]} - {m[3]}"],
        "ord": ["ord", f"{m[3]} + {c[2]} ({m[0]})*"],
    }


def sweep(workdir: Path) -> dict:
    """Case id -> digest; graph and specialization files go to ``workdir``,
    which must be the current directory, so no path reaches the output."""
    digests = {}
    for i in range(GRAPHS):
        rng = random.Random(1000 + i)
        g = random_graph(rng, 5, 9)
        gamma = random_specialization(rng, g)
        (workdir / "graph.json").write_text(json.dumps(g.to_json()))
        (workdir / "gamma.json").write_text(json.dumps(gamma.to_json()))
        expressions = _expression_commands(rng, LeavittAlgebra(gamma))
        for spec, spec_args in SPECIALIZATIONS.items():
            for field, commands in FIELDS.items():
                field_args = [] if field == "q" else ["--field", field]
                for command, args in {**commands, **expressions}.items():
                    argv = args[:1] + ["--graph", "graph.json"] + spec_args + field_args + args[1:]
                    digests[f"graph{1000 + i}/{spec}/{field}/{command}"] = _digest(argv)
    return digests


def test_sweep_output_matches_committed_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = sweep(tmp_path)
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    changed = [case for case in want if got[case] != want[case]]
    assert not changed, changed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            digests = sweep(Path(tmp))
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
