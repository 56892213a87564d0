#!/usr/bin/env python3
"""Public-API lint: every module under ``src/repro`` must declare
``__all__``, and ``__all__`` must be complete and honest.

Checked per module:

* ``__all__`` exists and is a literal list/tuple of strings.
* Every public top-level ``def`` / ``class`` (no leading underscore)
  appears in ``__all__`` — the export surface cannot silently grow.
* Every ``__all__`` entry is actually defined or imported in the
  module — no phantom exports.
* No duplicate entries.

Codec classes (public top-level classes named ``*Codec``) carry extra
structural checks — they are the wire-compatibility surface:

* a class-level ``name`` attribute (a string literal) identifying the
  codec in configuration and artifacts;
* paired transform methods: every ``encode_X`` has a ``decode_X``,
  every ``pack_X`` an ``unpack_X`` (and vice versa), every ``seal_X``
  an ``open_X`` (and vice versa).  A codec that can write a shape it
  cannot read back (or the reverse) is a wire-format bug waiting for
  a version bump.

The experiment registry is linted too: every entry with a ``run``
target must resolve to a callable and declare a help line and at least
one diffable artifact — ``python -m repro run`` and the CI scenario
matrix are generated from it.

Exit status 0 when clean; 1 with a per-module report otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def extract_all(tree: ast.Module) -> Optional[List[str]]:
    """Return the literal ``__all__`` list, or None if absent."""
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                value = node.value
                if not isinstance(value, (ast.List, ast.Tuple)):
                    return None
                names = []
                for element in value.elts:
                    if not isinstance(element, ast.Constant) or not isinstance(
                        element.value, str
                    ):
                        return None
                    names.append(element.value)
                return names
    return None


def public_definitions(tree: ast.Module) -> Set[str]:
    """Top-level public defs/classes (the must-export set)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                names.add(node.name)
    return names


def bound_names(tree: ast.Module) -> Set[str]:
    """Every top-level name the module defines, assigns, or imports."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING / fallback-import blocks: one level deep.
            for child in ast.walk(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    for alias in child.names:
                        names.add((alias.asname or alias.name).split(".")[0])
    return names


#: (forward prefix, reverse prefix, also require forward for reverse).
#: ``decode_X`` does not force ``encode_X`` because stamp/decode pairs
#: (e.g. ``stamp_deadline``/``decode_deadline``) are legitimate.
_CODEC_METHOD_PAIRS = (
    ("encode_", "decode_", False),
    ("pack_", "unpack_", True),
    ("seal_", "open_", True),
)


def codec_class_problems(tree: ast.Module) -> List[str]:
    """Structural lint for public ``*Codec`` classes."""
    problems: List[str] = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name.startswith("_") or not node.name.endswith("Codec"):
            continue
        has_name = False
        methods: Set[str] = set()
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.add(member.name)
            elif isinstance(member, ast.Assign):
                for target in member.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "name"
                        and isinstance(member.value, ast.Constant)
                        and isinstance(member.value.value, str)
                    ):
                        has_name = True
        if not has_name:
            problems.append(
                f"codec class {node.name}: missing class-level `name` string"
            )
        for forward, reverse, symmetric in _CODEC_METHOD_PAIRS:
            for method in sorted(methods):
                if method.startswith(forward):
                    partner = reverse + method[len(forward):]
                    if partner not in methods:
                        problems.append(
                            f"codec class {node.name}: {method} has no {partner}"
                        )
                elif symmetric and method.startswith(reverse):
                    partner = forward + method[len(reverse):]
                    if partner not in methods:
                        problems.append(
                            f"codec class {node.name}: {method} has no {partner}"
                        )
    return problems


#: The fleet package's contract surface: drills, CI gates and docs all
#: build against these names, so they must stay re-exported at the top.
_FLEET_REQUIRED_EXPORTS = {
    "HashRing",
    "Shard",
    "ShardDirectory",
    "ShardedPProxService",
    "FleetSupervisor",
    "ShardAutoscaler",
    "build_fleet",
    "domain_kill_plan",
    "placement_violations",
    "ring_point",
}


#: The drill is an experiment (it lives in ``repro.experiments.fleet``,
#: which ``repro.fleet`` must not import back); tests, docs and the
#: registry build against these re-exports.
_EXPERIMENTS_REQUIRED_EXPORTS = {"DrillRig", "FleetDrillResult", "run_fleet_drill"}


def fleet_surface_problems() -> Dict[str, List[str]]:
    """Structural lint for the ``repro.fleet`` privacy contract.

    * ``repro/fleet/__init__.py`` re-exports the full contract surface,
      and ``repro/experiments/__init__.py`` the drill that moved there;
    * every ring routing entry point (``route`` / ``successors`` on
      ``HashRing`` and ``ShardDirectory``) takes its key as a parameter
      literally named ``nonce`` — the signature documents, and the
      privacy audit assumes, that shard placement keys on the request
      nonce and never on a user-derived value.
    """
    problems: Dict[str, List[str]] = {}
    init_path = SRC / "fleet" / "__init__.py"
    ring_path = SRC / "fleet" / "ring.py"
    if not init_path.exists() or not ring_path.exists():
        problems["src/repro/fleet"] = ["fleet package missing"]
        return problems
    init_tree = ast.parse(init_path.read_text(encoding="utf-8"))
    exported = extract_all(init_tree) or []
    missing = _FLEET_REQUIRED_EXPORTS - set(exported)
    if missing:
        problems.setdefault(str(init_path.relative_to(SRC.parent.parent)), []).append(
            f"fleet surface not re-exported: {sorted(missing)}"
        )
    experiments_init = SRC / "experiments" / "__init__.py"
    exported = extract_all(ast.parse(experiments_init.read_text(encoding="utf-8"))) or []
    missing = _EXPERIMENTS_REQUIRED_EXPORTS - set(exported)
    if missing:
        problems.setdefault(str(experiments_init.relative_to(SRC.parent.parent)), []).append(
            f"drill surface not re-exported: {sorted(missing)}"
        )
    ring_tree = ast.parse(ring_path.read_text(encoding="utf-8"))
    for node in ring_tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name not in ("HashRing", "ShardDirectory"):
            continue
        for member in node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if member.name not in ("route", "successors"):
                continue
            args = [arg.arg for arg in member.args.args if arg.arg != "self"]
            if not args or args[0] != "nonce":
                problems.setdefault(
                    str(ring_path.relative_to(SRC.parent.parent)), []
                ).append(
                    f"{node.name}.{member.name}: routing key parameter must be "
                    f"named 'nonce', got {args[:1] or ['<none>']}"
                )
    return problems


def registry_problems() -> List[str]:
    """Import the registry and resolve every ``run`` target."""
    sys.path.insert(0, str(SRC.parent))
    from repro.experiments.registry import validate_index

    return validate_index()


def check_module(path: Path) -> List[str]:
    """Return lint problems for one module (empty = clean)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exported = extract_all(tree)
    if exported is None:
        return ["missing (or non-literal) __all__"]
    problems: List[str] = []
    duplicates = {name for name in exported if exported.count(name) > 1}
    if duplicates:
        problems.append(f"duplicate __all__ entries: {sorted(duplicates)}")
    missing = public_definitions(tree) - set(exported)
    if missing:
        problems.append(f"public but not in __all__: {sorted(missing)}")
    phantom = set(exported) - bound_names(tree)
    if phantom:
        problems.append(f"in __all__ but never defined: {sorted(phantom)}")
    problems.extend(codec_class_problems(tree))
    return problems


def main() -> int:
    failures: Dict[str, List[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        problems = check_module(path)
        if problems:
            failures[str(path.relative_to(SRC.parent.parent))] = problems
    for module, problems in fleet_surface_problems().items():
        failures.setdefault(module, []).extend(problems)
    problems = registry_problems()
    if problems:
        failures["src/repro/experiments/registry.py"] = problems
    if failures:
        print("public-API lint failed:\n")
        for module, problems in failures.items():
            for problem in problems:
                print(f"  {module}: {problem}")
        print(f"\n{len(failures)} module(s) with problems")
        return 1
    count = sum(1 for _ in SRC.rglob("*.py"))
    print(f"public-API lint OK ({count} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
