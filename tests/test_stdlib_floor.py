"""``tools/check_stdlib_floor.py``: ``src/`` needs nothing newer than
``requires-python``, and a planted call that does fails the check."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_stdlib_floor", REPO / "tools" / "check_stdlib_floor.py"
)
floor_lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(floor_lint)

FLOOR = (3, 10)


def test_the_floor_is_requires_python():
    assert floor_lint.python_floor() == FLOOR
    assert next(iter(floor_lint.NEWER_THAN_FLOOR)) == "binascii.a2b_base64(strict_mode=)"


def test_src_uses_nothing_newer_than_the_floor(capsys):
    assert floor_lint.main([]) == 0
    assert "stdlib-floor lint OK" in capsys.readouterr().out


@pytest.mark.parametrize(
    "planted, found",
    [
        ("import binascii\nbinascii.a2b_base64(text, strict_mode=True)\n",
         "binascii.a2b_base64(strict_mode=)"),
        ("import binascii as b\nb.a2b_base64(text, strict_mode=True)\n",
         "binascii.a2b_base64(strict_mode=)"),
        ("from binascii import a2b_base64 as decode\ndecode(text, strict_mode=True)\n",
         "binascii.a2b_base64(strict_mode=)"),
        ("import binascii, functools\n"
         "decode = functools.partial(binascii.a2b_base64, strict_mode=True)\n",
         "binascii.a2b_base64(strict_mode=)"),
        ("from typing import Self\n", "typing.Self"),
        ("import tomllib\n", "tomllib"),
        ("import os.path\nos.path.splitroot(path)\n", "os.path.splitroot"),
        ("raise ExceptionGroup('x', [])\n", "builtins.ExceptionGroup"),
    ],
    ids=["attribute", "aliased-module", "aliased-name", "partial", "from-import", "module",
         "dotted-module", "builtin"],
)
def test_a_planted_use_fails_the_check(tmp_path, capsys, planted, found):
    problems = floor_lint.check_source(planted, "planted.py", FLOOR)
    assert len(problems) == 1 and f" {found} is new in 3." in problems[0]
    assert floor_lint.check_source(planted, "planted.py", (3, 13)) == []
    path = tmp_path / "planted.py"
    path.write_text(planted)
    assert floor_lint.main([str(path)]) == 1
    assert found in capsys.readouterr().out


def test_what_the_floor_has_passes():
    allowed = "import binascii\nbinascii.a2b_base64(text)\nbase64.b64decode(text, validate=True)\n"
    assert floor_lint.check_source(allowed, "allowed.py", FLOOR) == []


def test_ci_api_lint_job_runs_the_check():
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    job = workflow[workflow.index("\n  api-lint:\n"):workflow.index("\n  scenario:\n")]
    assert "run: python tools/check_stdlib_floor.py\n" in job
