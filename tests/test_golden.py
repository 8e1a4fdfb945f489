"""Golden CLI output: every command on every file in tests/data, in --json
and text mode, plus the README iso example, run in-process through cli.run.

Each file under tests/golden holds one command's cases: argv (paths
relative to the repo root), exit code, stdout and stderr. Regenerate them
only for an intended output change, and name that change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from gforge.cli import COMMANDS, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
DATA = "tests/data"


def cases(command: str) -> list[list[str]]:
    argvs = [[command, "--input", f"{DATA}/{name}"]
             for name in sorted(os.listdir(os.path.join(ROOT, DATA)))]
    if command == "iso":
        argvs.append(["iso", "--input", f"{DATA}/swap.json",
                      "--input2", f"{DATA}/swap_normal.json"])
    return [argv + mode for argv in argvs for mode in ([], ["--json"])]


def run_case(argv: list[str]) -> dict:
    full = [os.path.join(ROOT, a) if a.startswith(DATA) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(full)
    return {"argv": argv, "code": code,
            "stdout": out.getvalue().replace(ROOT + os.sep, ""),
            "stderr": err.getvalue().replace(ROOT + os.sep, "")}


def golden_path(command: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{command}.json")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_output_matches_golden(command):
    with open(golden_path(command), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert [case["argv"] for case in expected] == cases(command)
    for case in expected:
        assert run_case(case["argv"]) == case


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for command in sorted(COMMANDS):
        with open(golden_path(command), "w", encoding="utf-8") as fh:
            json.dump([run_case(argv) for argv in cases(command)], fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
