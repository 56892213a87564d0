#!/usr/bin/env python3
"""Stdlib-floor lint: ``src/`` uses no stdlib name or keyword argument
newer than the oldest CPython ``pyproject.toml`` supports.

CI's tier-1 matrix runs every supported CPython, but a workstation
usually has one, so a call that only a newer release accepts passes
locally and breaks the oldest interpreter.  This reads ``src/`` with
``ast`` and flags every use of an entry of ``NEWER_THAN_FLOOR`` whose
release is above ``requires-python``'s floor:

* a name (``module.name``, or a builtin) referenced in any spelling
  the module's imports allow: ``import m`` / ``import m as a`` /
  ``from m import name [as b]``, or the import itself;
* a keyword argument passed to such a name, directly or through
  ``functools.partial(m.name, keyword=...)``.

The table is explicit, not derived from the running interpreter: only
what it lists is caught.  Add an entry when a release adds a name or a
keyword the code might reach for.

    python tools/check_stdlib_floor.py [FILE_OR_DIR ...]   # default: src/

Exit status 0 when clean; 1 with one line per use otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent

#: ``module.name`` -> the release that added it; ``module.name(keyword=)``
#: -> the release that added that keyword; a bare ``module`` -> the
#: release that added the module.  Builtins are ``builtins.name``.
NEWER_THAN_FLOOR: Dict[str, Tuple[int, int]] = {
    # Strict base64 decoding: the JSON wire's decoder once used it,
    # which broke every decode on 3.10.
    "binascii.a2b_base64(strict_mode=)": (3, 11),
    # 3.11
    "tomllib": (3, 11),
    "builtins.ExceptionGroup": (3, 11),
    "builtins.BaseExceptionGroup": (3, 11),
    "asyncio.TaskGroup": (3, 11),
    "asyncio.Runner": (3, 11),
    "asyncio.timeout": (3, 11),
    "contextlib.chdir": (3, 11),
    "dataclasses.dataclass(weakref_slot=)": (3, 11),
    "datetime.UTC": (3, 11),
    "enum.StrEnum": (3, 11),
    "enum.verify": (3, 11),
    "enum.member": (3, 11),
    "enum.nonmember": (3, 11),
    "glob.glob(include_hidden=)": (3, 11),
    "hashlib.file_digest": (3, 11),
    "logging.getLevelNamesMapping": (3, 11),
    "math.cbrt": (3, 11),
    "math.exp2": (3, 11),
    "operator.call": (3, 11),
    "re.NOFLAG": (3, 11),
    "statistics.fmean(weights=)": (3, 11),
    "sys.exception": (3, 11),
    "typing.LiteralString": (3, 11),
    "typing.Never": (3, 11),
    "typing.NotRequired": (3, 11),
    "typing.Required": (3, 11),
    "typing.Self": (3, 11),
    "typing.assert_never": (3, 11),
    "typing.assert_type": (3, 11),
    "typing.dataclass_transform": (3, 11),
    "typing.reveal_type": (3, 11),
    # 3.12
    "itertools.batched": (3, 12),
    "math.sumprod": (3, 12),
    "os.path.splitroot": (3, 12),
    "random.binomialvariate": (3, 12),
    "shutil.rmtree(onexc=)": (3, 12),
    "sys.monitoring": (3, 12),
    "tempfile.NamedTemporaryFile(delete_on_close=)": (3, 12),
    "tempfile.TemporaryDirectory(delete=)": (3, 12),
    "typing.override": (3, 12),
    # 3.13
    "copy.replace": (3, 13),
    "math.fma": (3, 13),
    "warnings.deprecated": (3, 13),
    "typing.ReadOnly": (3, 13),
    "typing.TypeIs": (3, 13),
}


def python_floor(pyproject: Path = REPO / "pyproject.toml") -> Tuple[int, int]:
    """The ``>=X.Y`` of ``requires-python`` (read without ``tomllib``,
    which the floor itself may lack)."""
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', pyproject.read_text(), re.M)
    if found is None:
        raise SystemExit(f"{pyproject}: no requires-python = \">=X.Y\" line")
    return int(found[1]), int(found[2])


def _table(floor: Tuple[int, int]) -> Tuple[Dict[str, Tuple[int, int]], Dict[Tuple[str, str], Tuple[int, int]]]:
    """Split the entries above *floor* into names and (name, keyword)s."""
    names: Dict[str, Tuple[int, int]] = {}
    keywords: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for entry, release in NEWER_THAN_FLOOR.items():
        if release <= floor:
            continue
        if entry.endswith("=)"):
            name, keyword = entry[:-2].split("(")
            keywords[name, keyword] = release
        else:
            names[entry] = release
    return names, keywords


def check_source(source: str, filename: str, floor: Tuple[int, int]) -> List[str]:
    """One line per use in *source* of something newer than *floor*."""
    names, keywords = _table(floor)
    tree = ast.parse(source, filename)
    local: Dict[str, str] = {}
    problems: List[str] = []

    def report(node: ast.AST, what: str, release: Tuple[int, int]) -> None:
        problems.append(
            f"{filename}:{node.lineno}: {what} is new in {release[0]}.{release[1]};"
            f" requires-python is >={floor[0]}.{floor[1]}"
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local[alias.asname or alias.name.partition(".")[0]] = (
                    alias.name if alias.asname else alias.name.partition(".")[0]
                )
                if alias.name in names:
                    report(node, alias.name, names[alias.name])
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module in names:
                report(node, node.module, names[node.module])
            for alias in node.names:
                qualified = f"{node.module}.{alias.name}"
                local[alias.asname or alias.name] = qualified
                if qualified in names:
                    report(node, qualified, names[qualified])

    def qualify(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return local.get(expr.id, f"builtins.{expr.id}")
        if isinstance(expr, ast.Attribute):
            owner = qualify(expr.value)
            return None if owner is None else f"{owner}.{expr.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            qualified = qualify(node)
            if qualified in names and (isinstance(node, ast.Attribute) or qualified.startswith("builtins.")):
                report(node, qualified, names[qualified])
        elif isinstance(node, ast.Call):
            target = qualify(node.func)
            if target == "functools.partial" and node.args:
                target = qualify(node.args[0])
            for keyword in node.keywords:
                if (target, keyword.arg) in keywords:
                    report(node, f"{target}({keyword.arg}=)", keywords[target, keyword.arg])
    return problems


def _files(paths: Iterable[str]) -> Iterable[Path]:
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv: Optional[List[str]] = None) -> int:
    floor = python_floor()
    files = list(_files(argv or [str(REPO / "src")]))
    problems = [
        problem for path in files for problem in check_source(path.read_text(), str(path), floor)
    ]
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} use(s) newer than Python {floor[0]}.{floor[1]}")
        return 1
    print(f"stdlib-floor lint OK ({len(files)} files, Python >= {floor[0]}.{floor[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
