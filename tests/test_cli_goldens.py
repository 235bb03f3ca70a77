"""Byte-for-byte CLI goldens on the shipped sample.

Each call runs ``cli.main`` in-process from the repository root with relative
paths, and its stdout, stderr and exit code must equal the recorded ones in
``goldens/cli.json``.  Usage errors (exit 2) include argparse's usage line,
whose wrapping depends on the terminal width, so COLUMNS is pinned to 80.
The goldens were recorded with Python 3.11; regenerate them only when an
output change is intended:

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
from itertools import product
from pathlib import Path

import pytest

from negbound.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens" / "cli.json"
SAMPLE = "configs/sample12.cfg"
MALFORMED = "tests/goldens/malformed.cfg"
MISSING = "tests/goldens/missing.cfg"
NU_P2 = ["--divisor", "3L - E1 - E6 - E10", "--curves",
         "tests/goldens/curves_p2.txt"]
NU_F2 = ["--divisor", "2F + M - E1 - E6 - E10", "--curves",
         "tests/goldens/curves_f2.txt", "--surface", "f 2"]


def cli_calls() -> list[list[str]]:
    calls = [[command, SAMPLE, *extra]
             for command in ("analyze", "dvalue", "dot")
             for extra in ([], ["--json"], ["--surface", "f 0"],
                           ["--surface", "f 3"])]
    modes = (["--pullback"], ["--epsilon", "1/2"], ["--epsilon", "3"],
             ["--epsilon", "0"], [])
    conventions = (["--n-convention", "stated"], ["--n-convention", "example"])
    surfaces = ([], ["--surface", "f 1"], ["--surface", "f 3"])
    calls += [["bounds", SAMPLE, *mode, *convention, *surface, *as_json]
              for mode, convention, surface, as_json
              in product(modes, conventions, surfaces, ([], ["--json"]))]
    calls += [["nu", SAMPLE, *nu, *as_json]
              for nu, as_json in product((NU_P2, NU_F2), ([], ["--json"]))]
    for path in (MALFORMED, MISSING):
        calls += [["analyze", path], ["dvalue", path, "--json"],
                  ["bounds", path, "--pullback"], ["nu", path, *NU_P2],
                  ["dot", path]]
    calls += [["analyze", SAMPLE, "--surface", "f -1"],
              ["bounds", SAMPLE, "--epsilon", "abc"],
              ["nu", SAMPLE, "--divisor", "3F", "--curves",
               "tests/goldens/curves_p2.txt"]]
    # --pullback takes no epsilon: a usage error, not a silently dropped value
    calls += [["bounds", SAMPLE, "--pullback", "--epsilon", "1/2"],
              ["bounds", SAMPLE, "--epsilon", "3", "--pullback", "--json"]]
    return calls


def run_cli(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def load_goldens() -> list[dict]:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


@pytest.fixture
def at_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("COLUMNS", "80")


def test_goldens_cover_the_calls():
    assert [g["args"] for g in load_goldens()] == cli_calls()


@pytest.mark.parametrize("golden", load_goldens(),
                         ids=lambda g: " ".join(g["args"]))
def test_cli_matches_golden(at_repo_root, golden):
    code, out, err = run_cli(golden["args"])
    assert (code, out, err) == (golden["code"], golden["stdout"],
                                golden["stderr"])


def test_output_file_matches_golden_stdout(at_repo_root, tmp_path):
    for golden in load_goldens():
        if golden["code"] != 0:
            continue
        target = tmp_path / "report.txt"
        code, out, err = run_cli(golden["args"] + ["--output", str(target)])
        assert (code, out, err) == (0, "", golden["stderr"])
        assert target.read_text(encoding="utf-8") == golden["stdout"]


def test_readme_sample_run_matches_the_cli(at_repo_root):
    # Each "$ negbound ..." line of the README's sample run, then the
    # lines it shows (stderr before stdout) up to the next blank line.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("Sample run:\n\n```\n", 1)[1].split("\n```\n", 1)[0]
    samples = [part.split("\n", 1) for part in block.split("\n\n")]
    assert len(samples) == 2
    for command, shown in samples:
        assert command.startswith("$ negbound ")
        code, out, err = run_cli(shlex.split(command)[2:])
        assert (code, err + out) == (0, shown + "\n"), command


def test_readme_library_example_runs(at_repo_root):
    # The README's Library block, line by line: a line that ends in a
    # "# value" comment is an expression whose repr is that value.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n\n```python\n", 1)[1].split("\n```\n", 1)[0]
    namespace: dict = {}
    shown = []
    for line in block.splitlines():
        code, _, value = line.partition("  # ")
        if value:
            assert repr(eval(code, namespace)) == value.strip(), line
            shown.append(value.strip())
        else:
            exec(line, namespace)
    assert len(shown) == 6


def record() -> None:
    os.chdir(REPO_ROOT)
    os.environ["COLUMNS"] = "80"
    goldens = []
    for args in cli_calls():
        code, out, err = run_cli(args)
        goldens.append({"args": args, "code": code, "stdout": out,
                        "stderr": err})
    GOLDENS.write_text(json.dumps(goldens, indent=1, ensure_ascii=False) + "\n",
                       encoding="utf-8")


if __name__ == "__main__":
    record()
