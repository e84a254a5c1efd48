"""The checks beyond tier-1: ci/run.py finds every script in ci/, runs
each in a fresh interpreter and fails when one fails, and the workflow
calls it instead of holding any Python of its own."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ci_run", ROOT / "ci" / "run.py")
ci_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_run)

CHECKS = ["bounds", "centrality_n7", "centre_basis_n6", "closed_forms_n7",
          "closed_forms_n8", "cold_cli", "eigen_n5_n6", "eigen_two_blocks",
          "fingerprint", "lines", "parser_agreement", "root_products_n7",
          "root_products_n8", "small_products", "squares_n6"]


def test_the_runner_finds_exactly_the_checks():
    assert [p.stem for p in ci_run.steps()] == CHECKS
    # a check runs with ci/ first on its path, so a name that a module
    # on PYTHONPATH also has would shadow that module in every check
    for name in CHECKS + ["_common"]:
        for where in ("src", "tests", "perfbench"):
            assert not (ROOT / where / f"{name}.py").exists()
            assert not (ROOT / where / name).is_dir()


def test_the_workflow_runs_the_checks_and_holds_no_python():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "run: python ci/run.py" in text
    assert "<<" not in text


def _script(tmp_path, name, body):
    path = tmp_path / f"{name}.py"
    path.write_text(body)
    return path


def test_the_runner_fails_when_a_check_fails(tmp_path, capfd):
    good = _script(tmp_path, "good", "print('fine')\n")
    bad = _script(tmp_path, "bad", "import sys\nprint('broken')\nsys.exit(1)\n")
    assert ci_run.run([bad, good]) == 1
    out = capfd.readouterr().out.splitlines()
    assert out[0] == "broken" and out[2] == "fine"
    assert [line.split()[:2] for line in out[1::2]] == [["FAIL", "bad"], ["PASS", "good"]]
    assert ci_run.run([good]) == 0
    assert capfd.readouterr().out.splitlines()[1].startswith("PASS good ")
