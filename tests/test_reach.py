"""``tools/reach.py``: how reached code maps to outermost functions, and
the allow-list's own rules.  Runs no leg and no probe."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", REPO / "tools" / "reach.py")
reach = sys.modules["reach"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

SOURCE = '''\
import abc
import functools

top_level_lambda = lambda: 0


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@deco
def decorated(x):
    return x + 1


def outer():
    def inner():
        return 1
    square = lambda v: v * v
    return inner() + square(2)


class Stub(abc.ABC):
    @abc.abstractmethod
    def must(self):
        """Subclasses answer."""

    class Nested:
        def deep(self):
            return 2


class Impl(Stub):
    def must(self):
        return [i for i in range(3)]

    @property
    def value(self):
        return 1

    @value.setter
    def value(self, new):
        pass
'''

PATH = "src/repro/synthetic.py"


def _code_objects(code, prefix=""):
    """(nesting path, code object) of *code* and every code nested in it."""
    path = prefix + code.co_name
    yield path, code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const, path + "/")


def _owner(functions, code):
    reached = reach.reached_functions(functions, [(PATH, code.co_firstlineno)])
    return next(iter(reached), None)


def test_outermost_functions_of_a_module():
    functions = reach.functions_of(SOURCE, "repro.synthetic", PATH)
    assert [f.key for f in functions] == [
        "repro.synthetic:deco",
        "repro.synthetic:decorated",
        "repro.synthetic:outer",
        "repro.synthetic:Stub.must",
        "repro.synthetic:Stub.Nested.deep",
        "repro.synthetic:Impl.must",
        "repro.synthetic:Impl.value",
        "repro.synthetic:Impl.value#2",
    ]
    decorated = functions[1]
    assert SOURCE.splitlines()[decorated.start - 1] == "@deco"
    assert decorated.lines == 3


def test_entered_code_counts_toward_its_outermost_function():
    functions = reach.functions_of(SOURCE, "repro.synthetic", PATH)
    owners = {}
    for path, code in _code_objects(compile(SOURCE, PATH, "exec")):
        owners.setdefault(path, set()).add(_owner(functions, code))
    # A decorator's wrapper counts toward the decorator; the decorated
    # def's own code starts at its decorator line.
    assert owners["<module>/deco/wrapper"] == {"repro.synthetic:deco"}
    assert owners["<module>/decorated"] == {"repro.synthetic:decorated"}
    # Nested defs and lambdas count toward the enclosing def.
    assert owners["<module>/outer/inner"] == {"repro.synthetic:outer"}
    assert owners["<module>/outer/<lambda>"] == {"repro.synthetic:outer"}
    # A method is Class.name, its comprehension counts toward it, and a
    # getter and its setter are two functions.
    assert owners["<module>/Impl/must"] == {"repro.synthetic:Impl.must"}
    assert owners["<module>/Impl/must/<listcomp>"] == {"repro.synthetic:Impl.must"}
    assert owners["<module>/Impl/value"] == {"repro.synthetic:Impl.value", "repro.synthetic:Impl.value#2"}
    # Module code, class bodies and a module-level lambda are no function.
    for name in ("<module>", "<module>/Stub", "<module>/Impl", "<module>/<lambda>"):
        assert owners[name] == {None}, name


def test_an_abstract_stub_nothing_enters_is_unreached():
    functions = reach.functions_of(SOURCE, "repro.synthetic", PATH)
    entered = [
        (PATH, code.co_firstlineno)
        for path, code in _code_objects(compile(SOURCE, PATH, "exec"))
        if path != "<module>/Stub/must"
    ]
    reached = reach.reached_functions(functions, entered)
    assert {f.key for f in functions} - reached == {"repro.synthetic:Stub.must"}


def test_check_fails_on_an_unreached_function_and_a_stale_entry(monkeypatch, capsys):
    functions = reach.functions_of(SOURCE, "repro.synthetic", PATH)
    monkeypatch.setattr(reach, "ALLOWED", {
        "repro.synthetic:Stub.must": (reach.STUB, ""),
        "repro.synthetic:gone": (reach.SAFETY, ""),
    })
    reached = {f.key for f in functions} - {"repro.synthetic:outer", "repro.synthetic:Stub.must"}
    problems = reach.check(functions, reached)
    assert problems == [
        f"{PATH}:19: repro.synthetic:outer (5 lines) is reached by no product leg",
        "allow-listed repro.synthetic:gone names no function",
    ]
    assert "allow-listed 3 (1 functions), unreached 5 (1 functions)" in capsys.readouterr().out


@pytest.fixture(scope="module")
def package():
    return reach.package_functions()


def test_every_allow_list_entry_names_a_function_and_a_reason(package):
    assert reach.allow_list_problems(package) == []
    assert set(reason for reason, _ in reach.ALLOWED.values()) <= set(reach.REASONS)
    assert len(reach.REASONS) == 4


@pytest.mark.parametrize(
    "entry, problem",
    [
        (("no reason at all", ""), "is not a reason"),
        ((reach.BENCH, ""), "a caller goes with"),
        ((reach.STUB, "benchmarks/ledger.py"), "a caller goes with"),
        ((reach.BENCH, "tests/test_lrs_cco.py"), "is not a benchmark script"),
        ((reach.BENCH, "benchmarks/ledger.py"), "does not mention _cmd_validate"),
    ],
)
def test_a_malformed_allow_list_entry_is_a_problem(monkeypatch, package, entry, problem):
    monkeypatch.setattr(reach, "ALLOWED", {"repro.__main__:_cmd_validate": entry})
    (found,) = reach.allow_list_problems(package)
    assert problem in found


def test_the_legs_are_the_product_runs():
    from repro.experiments.registry import EXPERIMENT_INDEX, runnable

    out = Path("out")
    scenarios = reach.legs("scenarios", out)
    assert [arguments[2] for _, _, arguments in scenarios] == list(runnable())
    examples = [label for label, _, _ in reach.legs("examples", out)]
    assert examples[-3:] == ["macro", "info", "validate"]
    assert "examples/capacity_planner.py" in examples
    papers = [arguments[0] for _, _, arguments in reach.legs("papers", out)]
    assert set(papers) == {e.bench for e in EXPERIMENT_INDEX.values() if not e.run}
    assert "tests/test_privacy_history.py" in papers  # sec63, redirect included


def test_ci_runs_every_leg_group_and_checks_their_union():
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    (groups,) = re.findall(r"^\s+legs: \[([^\]]+)\]$", workflow, flags=re.M)
    assert [name.strip() for name in groups.split(",")] == list(reach.GROUPS)
    job = workflow[workflow.index("\n  reach:\n"):]
    (loaded,) = re.findall(r"python tools/reach.py --check --load (.+)$", job, flags=re.M)
    assert loaded.split() == [f"reached-{group}.json" for group in reach.GROUPS]
    assert 'run_full(MACRO_FULL["f1"], 100, seed=3, runs=1' in reach.macro_program()
