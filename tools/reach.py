#!/usr/bin/env python3
"""Reach check: every function in ``src/repro`` is run by a product leg.

A *product leg* is something the repository runs for its own sake, not
to test itself:

* ``scenarios``: the ``python -m repro run`` scenarios of the registry;
* ``examples``: CI's examples (``tools/scenario_diff.py``'s
  ``EXAMPLES``), CI's macro leg (the ``MACRO`` program of the ``macro``
  job in ``.github/workflows/ci.yml``), ``python -m repro info`` and
  ``python -m repro validate``;
* ``papers``: the ``bench`` file of every registry entry without a
  ``run`` target (the paper's tables, figures and analyses, and the
  ablations), run by pytest with ``--benchmark-disable``.

Each leg runs in a fresh process under a ``sys.setprofile`` probe that
records every code object it enters.  A code object counts toward the
*outermost* ``src/repro`` function that contains it: a decorator's
wrapper, a nested def, a lambda or a comprehension count toward the def
they are written in, and a method is named ``Class.name``.

``--check`` fails on any outermost function that no leg reaches and that
:data:`ALLOWED` does not list, and on an :data:`ALLOWED` entry that names
no function.  Tier-1 is not a leg: "a test calls it" keeps nothing.

    python tools/reach.py --check                              # every leg
    python tools/reach.py --legs papers --save reached-papers.json
    python tools/reach.py --check --load reached-*.json        # union of saved legs

Exit status 0 when the check holds (or, without ``--check``, when every
leg ran); 1 otherwise, with one line per problem.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: Why a function no leg reaches may stay.  Nothing else is a reason.
STUB = "abstract or protocol stub"
SAFETY = "error, reject, recovery or pickling path only faulty input reaches"
BENCH = "entry point of a named micro-benchmark"
PENDING = "TimeSeries reader kept until ROADMAP 3(b) unblocks 4(d)"
REASONS = (STUB, SAFETY, BENCH, PENDING)

#: ``module:Qual.name`` -> (reason, caller).  *caller* is the
#: ``benchmarks/`` file that calls a :data:`BENCH` entry (the check
#: reads it for the name, as a whole word) and empty for the others.
ALLOWED: Dict[str, Tuple[str, str]] = {
    # -- interfaces: the subclasses' methods are what runs.
    "repro.crypto.provider:CryptoProvider.asym_encrypt": (STUB, ""),
    "repro.crypto.provider:CryptoProvider.asym_decrypt": (STUB, ""),
    "repro.lrs.baselines:Recommender.fit": (STUB, ""),
    "repro.lrs.baselines:Recommender.recommend": (STUB, ""),
    **{f"repro.rest.codec:WireCodec.{name}": (STUB, "") for name in (
        "wire_value", "blob_value", "pack_envelope", "unpack_envelope",
        "pack_response_fields", "unpack_response_fields", "pack_items", "unpack_items",
        "encode_request", "decode_request", "encode_response", "decode_response",
        "request_wire_size", "response_wire_size", "request_size_bytes",
        "response_size_bytes",
    )},
    "repro.simnet.clock:Periodic._period": (STUB, ""),
    "repro.simnet.clock:Periodic._step": (STUB, ""),
    "repro.simnet.loadbalancer:_HasPending.pending": (STUB, ""),
    "repro.simnet.loadbalancer:BalancingPolicy.choose": (STUB, ""),
    "repro.telemetry.registry:_Instrument.value": (STUB, ""),
    "repro.workload.scenario:_ClientLike.post": (STUB, ""),
    "repro.workload.scenario:_ClientLike.get": (STUB, ""),
    "repro.workload.scenario:_TrainableLrs.train": (STUB, ""),
    # -- what a failing OpenSSL call, a pickled key, a failing LRS, a
    # request under stale keys, a stale-generation enclave or a leaked
    # identifier runs; the product runs none of these on purpose.
    "repro.crypto.libcrypto:_fail": (SAFETY, ""),
    "repro.crypto.libcrypto:RsaHandle.__reduce__": (SAFETY, ""),
    "repro.crypto.rsa:_LoadedKey.__getstate__": (SAFETY, ""),
    "repro.overload.breaker:CircuitBreaker.record_failure": (SAFETY, ""),
    "repro.proxy.layers:transform_error_response": (SAFETY, ""),
    "repro.proxy.layers:_BatchCollector.skip": (SAFETY, ""),
    "repro.sgx.provisioning:KeyProvisioner.reprovision": (SAFETY, ""),
    "repro.telemetry.redaction:Violation.describe": (SAFETY, ""),
    "repro.telemetry.redaction:_marker_kind": (SAFETY, ""),
    "repro.telemetry.redaction:_redact": (SAFETY, ""),
    # The path of a redaction (no product event nests a container).
    "repro.telemetry.redaction:_join": (SAFETY, ""),
    "repro.telemetry.redaction:_preview": (SAFETY, ""),
    # -- timed by a micro-benchmark or read by the end-to-end ledger.
    "repro.crypto.envelope:EnvelopeCodec.seal_each": (BENCH, "benchmarks/ledger.py"),
    "repro.crypto.envelope:EnvelopeCodec.open_each": (BENCH, "benchmarks/ledger.py"),
    "repro.rest.messages:Response.with_fields": (BENCH, "benchmarks/ledger.py"),
    "repro.lrs.cco:CcoModel._rescored": (BENCH, "benchmarks/ledger.py"),
    "repro.crypto.provider:CryptoProvider.cache_stats": (BENCH, "benchmarks/e2e/harness.py"),
    # Called by nothing: the traced pass replaces it by name.
    "repro.obs.causal:CausalTracer.annotate": (BENCH, "benchmarks/e2e/harness.py"),
    # The ledger counts ``span`` records with it (``telemetry.spans_per_req``).
    "repro.telemetry.events:EventLog.of_kind": (BENCH, "benchmarks/e2e/harness.py"),
    # -- the sampled history ROADMAP 4(d) deletes once 3(b) lets it.
    "repro.telemetry.registry:TimeSeries.last": (PENDING, ""),
    "repro.telemetry.registry:TimeSeries.values": (PENDING, ""),
    "repro.telemetry.registry:TimeSeries.maximum": (PENDING, ""),
    "repro.telemetry.registry:TimeSeries.mean": (PENDING, ""),
    "repro.telemetry.registry:TimeSeries.window": (PENDING, ""),
}


@dataclass(frozen=True)
class Function:
    """One outermost function of ``src/repro``."""

    key: str  # ``module:Qual.name``
    path: str  # relative to the repository root
    start: int  # first decorator line
    end: int

    @property
    def lines(self) -> int:
        return self.end - self.start + 1


def _outermost(body: Iterable[ast.stmt], prefix: str) -> Iterator[Tuple[str, ast.AST]]:
    """(qualified name, node) of each def under *body* not inside another def."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _outermost(node.body, f"{prefix}{node.name}.")
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _outermost(getattr(node, field, ()), prefix)


def functions_of(source: str, module: str, path: str) -> List[Function]:
    """Every outermost function of one module's *source*.  A name defined
    twice (a property's getter and setter) is ``name``, then ``name#2``."""
    found: List[Function] = []
    seen: Dict[str, int] = {}
    for qualname, node in _outermost(ast.parse(source).body, ""):
        seen[qualname] = seen.get(qualname, 0) + 1
        suffix = f"#{seen[qualname]}" if seen[qualname] > 1 else ""
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        found.append(Function(f"{module}:{qualname}{suffix}", path, start, node.end_lineno))
    return found


def package_functions(root: Path = PACKAGE) -> List[Function]:
    """Every outermost function under *root*, in path and line order."""
    found: List[Function] = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        found += functions_of(path.read_text(), module, str(path.relative_to(REPO)))
    return found


def reached_functions(functions: List[Function], entered: Iterable[Tuple[str, int]]) -> Set[str]:
    """Keys of the *functions* containing an entered ``(path, first line)``."""
    spans: Dict[str, List[Function]] = {}
    for function in functions:
        spans.setdefault(function.path, []).append(function)
    reached: Set[str] = set()
    for path, line in entered:
        for function in spans.get(path, ()):
            if function.start <= line <= function.end:
                reached.add(function.key)
                break
    return reached


# ---------------------------------------------------------------- legs


def macro_program() -> str:
    """The Python program CI's ``macro`` job runs (its ``MACRO`` env)."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    start = next(i for i, line in enumerate(workflow) if line.strip() == "MACRO: |") + 1
    indent = len(workflow[start]) - len(workflow[start].lstrip())
    body = []
    for line in workflow[start:]:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        body.append(line[indent:])
    return "\n".join(body).strip() + "\n"


def legs(group: str, out_dir: Path) -> List[Tuple[str, str, List[str]]]:
    """(label, kind, arguments) of every leg in *group*; *kind* is how
    :func:`_probe_main` runs it: ``module``, ``script``, ``code`` or
    ``pytest``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.experiments.registry import EXPERIMENT_INDEX, runnable

    if group == "scenarios":
        return [
            (f"run {name}", "module", ["repro", "run", name, "--out-dir", str(out_dir / name)])
            for name in runnable()
        ]
    if group == "examples":
        tool = (REPO / "tools" / "scenario_diff.py").read_text()
        (listed,) = re.findall(r"^EXAMPLES = \(([^)]*)\)", tool, flags=re.M)
        return [
            (f"examples/{name}.py", "script", [str(REPO / "examples" / f"{name}.py")])
            for name in re.findall(r'"(\w+)"', listed)
        ] + [
            ("macro", "code", [macro_program()]),
            ("info", "module", ["repro", "info"]),
            ("validate", "module", ["repro", "validate"]),
        ]
    if group == "papers":
        benches = dict.fromkeys(e.bench for e in EXPERIMENT_INDEX.values() if not e.run)
        return [
            (bench, "pytest", [bench, "-q", "-p", "no:cacheprovider", "--benchmark-disable"])
            for bench in benches
        ]
    raise ValueError(f"unknown leg group {group!r}")


GROUPS = ("scenarios", "examples", "papers")

_BOOT = "import sys; sys.path.insert(0, {tools!r}); import reach; sys.exit(reach._probe_main())"


def _probe_main() -> int:
    """Child side: ``argv = [-c, out, kind, *arguments]``.  Runs the leg
    under the probe and writes the keys of the functions it reached to
    *out*, mapped against the source as it stands while the leg runs."""
    import runpy
    import threading

    out, kind, arguments = sys.argv[1], sys.argv[2], sys.argv[3:]
    entered: Set = set()
    add = entered.add

    def probe(frame, _event, _arg):
        add(frame.f_code)

    status = 0
    threading.setprofile(probe)
    sys.setprofile(probe)
    try:
        if kind == "module":
            sys.argv = list(arguments)
            runpy.run_module(arguments[0], run_name="__main__", alter_sys=True)
        elif kind == "script":
            sys.argv = list(arguments)
            runpy.run_path(arguments[0], run_name="__main__")
        elif kind == "code":
            exec(compile(arguments[0], "<leg>", "exec"), {"__name__": "__main__"})
        else:
            import pytest

            status = int(pytest.main(arguments))
    except SystemExit as exit_info:
        status = exit_info.code if isinstance(exit_info.code, int) else int(bool(exit_info.code))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(PACKAGE) + os.sep
    lines = {
        (str(Path(code.co_filename).relative_to(REPO)), code.co_firstlineno)
        for code in entered
        if code.co_filename.startswith(prefix)
    }
    Path(out).write_text(json.dumps(sorted(reached_functions(package_functions(), lines))))
    return status


def run_legs(groups: Iterable[str]) -> Tuple[Set[str], List[str]]:
    """Run every leg of *groups*, each in a fresh process under the probe;
    returns the keys of the functions they reached and the failed legs."""
    reached: Set[str] = set()
    failed: List[str] = []
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="1")
    boot = _BOOT.format(tools=str(REPO / "tools"))
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        for group in groups:
            for label, kind, arguments in legs(group, Path(scratch) / "out"):
                record = Path(scratch) / "reached.json"
                done = subprocess.run(
                    [sys.executable, "-c", boot, str(record), kind, *arguments],
                    cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True,
                )
                print(f"leg {label}: {'ok' if done.returncode == 0 else 'FAILED'}", flush=True)
                if done.returncode != 0:
                    failed.append(label)
                    sys.stderr.write(done.stderr[-4000:])
                if record.exists():
                    reached.update(json.loads(record.read_text()))
                    record.unlink()
    return reached, failed


# --------------------------------------------------------------- check


def allow_list_problems(functions: List[Function]) -> List[str]:
    """An entry naming no function, a reason not in :data:`REASONS`, or a
    :data:`BENCH` entry whose caller does not mention the name."""
    keys = {function.key for function in functions}
    problems = []
    for key, (reason, caller) in ALLOWED.items():
        if key not in keys:
            problems.append(f"allow-listed {key} names no function")
        if reason not in REASONS:
            problems.append(f"allow-listed {key}: {reason!r} is not a reason")
        elif (reason == BENCH) != bool(caller):
            problems.append(f"allow-listed {key}: a caller goes with {BENCH!r} only")
        elif caller:
            name = key.rsplit(":", 1)[1].rsplit(".", 1)[-1]
            where = REPO / caller
            if not re.match(r"benchmarks/(ledger\.py|e2e/\S+)$", caller):
                problems.append(f"allow-listed {key}: {caller} is not a benchmark script")
            elif not where.exists() or not re.search(rf"\b{re.escape(name)}\b", where.read_text()):
                problems.append(f"allow-listed {key}: {caller} does not mention {name}")
    return problems


def check(functions: List[Function], reached: Set[str]) -> List[str]:
    """Every problem ``--check`` reports, after a summary on stdout."""
    unreached = [f for f in functions if f.key not in reached and f.key not in ALLOWED]
    allowed = [f for f in functions if f.key not in reached and f.key in ALLOWED]
    reached_lines = sum(f.lines for f in functions if f.key in reached)
    print(
        f"{len(functions)} functions, {sum(f.lines for f in functions)} lines: "
        f"reached {reached_lines}, allow-listed {sum(f.lines for f in allowed)} "
        f"({len(allowed)} functions), unreached {sum(f.lines for f in unreached)} "
        f"({len(unreached)} functions)"
    )
    problems = [
        f"{f.path}:{f.start}: {f.key} ({f.lines} lines) is reached by no product leg"
        for f in unreached
    ]
    return problems + allow_list_problems(functions)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--legs", nargs="+", choices=GROUPS, default=None,
                        help="leg groups to run (default: all, unless --load)")
    parser.add_argument("--save", help="write the functions the legs reached to this file")
    parser.add_argument("--load", nargs="+", default=(),
                        help="add the functions earlier --save runs reached")
    parser.add_argument("--check", action="store_true",
                        help="fail on a function no leg reaches that ALLOWED does not list")
    args = parser.parse_args(argv)

    groups = args.legs if args.legs is not None else ([] if args.load else list(GROUPS))
    reached, failed = run_legs(groups)
    for saved in args.load:
        reached.update(json.loads(Path(saved).read_text()))
    if args.save:
        Path(args.save).write_text(json.dumps(sorted(reached), indent=0))
    problems = [f"leg {label} failed" for label in failed]
    if args.check:
        problems += check(package_functions(), reached)
    for problem in problems:
        print(problem)
    if args.check and not problems:
        print("reach check OK: every function is reached by a product leg or allow-listed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
