"""Dead-surface report: which functions of ``src/repro`` does nothing run?

Runs everything that drives the library — tier-1 (``pytest tests/``),
every benchmark (``pytest benchmarks/ --benchmark-disable`` and the
script mains behind ``make gate``), the examples and
``perf/run.py --selftest`` — under a ``sys.setprofile`` recorder, and
prints two lists of non-dunder functions:

* **never entered** — nothing calls them: delete after a confirming
  ``grep``, unless they are an abstract hook or a named exemption
  (ROADMAP item 6a);
* **entered only under tests/** — only a unit test calls them: the
  input to deleting function and test together.

Stdlib only (the ``coverage`` package is not installed).  The recorder
is a generated ``sitecustomize`` module on ``PYTHONPATH``, switched on
by an environment variable, so it follows every *child* interpreter:
the ``perf/`` workers, the ``tests/test_examples.py`` subprocesses and
the scripts ``make`` starts.  Each process writes the functions it
entered, keyed ``file:line`` by ``co_firstlineno`` — the line of the
first decorator, which is also how the AST side keys a definition.
(``perf/worker.py --mode calls`` swaps in cProfile for its timed phase;
the plain and traced runs of the same workloads still record.)

Report-only, not a CI gate::

    make dead-surface        # or: python tools/dead_surface.py
"""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "repro") + os.sep

#: The recorder, written out as ``sitecustomize.py``.  ``call`` events
#: carry the frame; a code object is looked at once.
HOOK = '''\
import atexit, os, sys, threading

_out = os.environ.get("DEAD_SURFACE_OUT")
if _out:
    _package = os.environ["DEAD_SURFACE_PACKAGE"]
    _seen, _entered = set(), set()

    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                _seen.add(code)
                filename = os.path.abspath(code.co_filename)
                if filename.startswith(_package):
                    _entered.add("%s:%d" % (filename, code.co_firstlineno))

    def _dump():
        sys.setprofile(None)
        name = "%s-%d.txt" % (os.environ["DEAD_SURFACE_TAG"], os.getpid())
        with open(os.path.join(_out, name), "w") as handle:
            handle.write("\\n".join(sorted(_entered)))

    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''

Function = Tuple[str, int, str, int]  # path, first line, qualified name, lines


def _definitions(node: ast.AST, prefix: str, path: str) -> Iterator[Function]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list] + [child.lineno])
            yield path, first, prefix + child.name, child.end_lineno - first + 1
            yield from _definitions(child, f"{prefix}{child.name}.", path)
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, f"{prefix}{child.name}.", path)
        else:
            yield from _definitions(child, prefix, path)


def defined_functions() -> List[Function]:
    """Every non-dunder function defined under ``src/repro``."""
    found: List[Function] = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for function in _definitions(tree, "", path):
            name = function[2].rsplit(".", 1)[-1]
            if not (name.startswith("__") and name.endswith("__")):
                found.append(function)
    return found


def drivers(scratch: str) -> List[Tuple[str, List[str]]]:
    """(tag, command) for everything that drives the library."""
    python = sys.executable
    examples = sorted(glob.glob(os.path.join(REPO, "examples", "*.py")))
    return [
        ("tests", [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/"]),
        ("drivers", [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "benchmarks/", "--benchmark-disable"]),
        ("drivers", ["make", "gate", f"PYTHON={python}",
                     f"SWISHMEM_BENCH_DIR={os.path.join(scratch, 'bench')}"]),
        *(("drivers", [python, example]) for example in examples),
        ("drivers", [python, os.path.join("perf", "run.py"), "--selftest"]),
    ]


def record(scratch: str) -> Tuple[Dict[str, Set[str]], List[str]]:
    """Run every driver under the recorder; returns the ``file:line``
    keys entered per tag and the commands that failed."""
    with open(os.path.join(scratch, "sitecustomize.py"), "w", encoding="utf-8") as handle:
        handle.write(HOOK)
    out = os.path.join(scratch, "entered")
    os.mkdir(out)
    path = [scratch, os.path.join(REPO, "src"), REPO]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    failed = []
    for tag, command in drivers(scratch):
        print(f"[dead-surface] {tag}: {' '.join(command)}", flush=True)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(path),
            DEAD_SURFACE_OUT=out,
            DEAD_SURFACE_PACKAGE=PACKAGE,
            DEAD_SURFACE_TAG=tag,
        )
        done = subprocess.run(command, cwd=REPO, env=env, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            failed.append(" ".join(command))
    entered: Dict[str, Set[str]] = {"tests": set(), "drivers": set()}
    for name in os.listdir(out):
        with open(os.path.join(out, name), "r", encoding="utf-8") as handle:
            entered[name.split("-", 1)[0]].update(handle.read().split("\n"))
    return entered, failed


def report(title: str, functions: List[Function]) -> None:
    lines = sum(function[3] for function in functions)
    print(f"\n== {title}: {len(functions)} functions, {lines} lines ==")
    per_file: Dict[str, int] = {}
    for path, _first, _name, size in functions:
        per_file[path] = per_file.get(path, 0) + size
    for path, size in sorted(per_file.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {size:5d}  {os.path.relpath(path, REPO)}")
    for path, first, name, size in functions:
        print(f"{os.path.relpath(path, REPO)}:{first}: {name} ({size} lines)")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="dead-surface-") as scratch:
        entered, failed = record(scratch)
    functions = [(f"{f[0]}:{f[1]}", f) for f in defined_functions()]
    everywhere = entered["tests"] | entered["drivers"]
    only_tests = entered["tests"] - entered["drivers"]
    report("never entered", [f for key, f in functions if key not in everywhere])
    report("entered only under tests/", [f for key, f in functions if key in only_tests])
    for command in failed:
        print(f"[dead-surface] FAILED, its coverage is partial: {command}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
