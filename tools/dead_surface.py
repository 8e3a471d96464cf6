"""Dead-surface gate: every function of ``src/repro`` is reached by a
driver, or is named in ``tools/dead_surface_allow.txt`` with its reason.

Runs everything that drives the library — tier-1 (``pytest tests/``),
every benchmark (``pytest benchmarks/ --benchmark-disable`` and the
script mains behind ``make gate``), the examples and
``perf/run.py --workload all`` (full scale: an operator's second lap
or a late recovery is not reached at ``--selftest``'s 1/20) — under a
``sys.setprofile`` recorder, and sorts the non-dunder functions nothing
but ``tests/`` accounts for into two lists:

* **never entered** — nothing calls them;
* **entered only under tests/** — only a unit test calls them.

Both lists are compared with the allow file and the run fails on a
listed function the file does not allow *and* on an allow line that no
longer matches (the function is gone, is now driven, or moved to the
other list), so the file can only shrink.

How to keep a function: reach it from a driver — a benchmark,
``make gate``, an example, a ``perf/`` workload — or add a line
``path: Qualified.name — reason`` under the list it is on, with a
reason from the classes the file's header names (an abstract hook; a
safety or give-up path; the fault model; lifecycle; a documented
feature a ROADMAP item builds on).  Anything else is deleted together
with the tests that were its only callers.

Stdlib only (the ``coverage`` package is not installed).  The recorder
is a generated ``sitecustomize`` module on ``PYTHONPATH``, switched on
by an environment variable, so it follows every *child* interpreter:
the ``perf/`` workers, the ``tests/test_examples.py`` subprocesses and
the scripts ``make`` starts.  Each process writes the functions it
entered, keyed ``file:line`` by ``co_firstlineno`` — the line of the
first decorator, which is also how the AST side keys a definition.
(``perf/worker.py --mode calls`` swaps in cProfile for its timed phase;
the plain and traced runs of the same workloads still record.)

    make dead-surface        # or: python tools/dead_surface.py  (~8 min)
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
ALLOW_FILE = os.path.join(REPO, "tools", "dead_surface_allow.txt")

#: The two lists, as the allow file's section headings name them.
NEVER, TESTS_ONLY = "never entered", "entered only under tests/"

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


def defined_functions(package: str = PACKAGE) -> List[Function]:
    """Every non-dunder function defined under ``package``."""
    found: List[Function] = []
    for path in sorted(glob.glob(os.path.join(package, "**", "*.py"), recursive=True)):
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
        ("drivers", [python, os.path.join("perf", "run.py"), "--workload", "all"]),
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


def classify(
    functions: List[Function], entered: Dict[str, Set[str]]
) -> Dict[str, List[Function]]:
    """The two lists: what no recorded process entered, and what only
    processes tagged ``tests`` entered."""
    everywhere = entered["tests"] | entered["drivers"]
    only_tests = entered["tests"] - entered["drivers"]
    keyed = [(f"{f[0]}:{f[1]}", f) for f in functions]
    return {
        NEVER: [f for key, f in keyed if key not in everywhere],
        TESTS_ONLY: [f for key, f in keyed if key in only_tests],
    }


Allowed = Dict[str, Dict[Tuple[str, str], str]]  # list -> (path, name) -> reason


def parse_allow(path: str) -> Allowed:
    """Read the allow file: ``[list]`` headings, then one
    ``path: Qualified.name — reason`` per line; ``#`` starts a comment.
    A line outside a heading, without a reason, or given twice is a
    ValueError."""
    allowed: Allowed = {NEVER: {}, TESTS_ONLY: {}}
    section = None
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                section = line.strip("[]")
                if section not in allowed:
                    raise ValueError(f"{path}:{number}: unknown list {line}")
                continue
            entry, _, reason = line.partition(" — ")
            where, _, name = entry.partition(": ")
            if section is None or not name or not reason.strip():
                raise ValueError(
                    f"{path}:{number}: expected 'path: Qualified.name — reason' under a [list]"
                )
            key = (where.strip(), name.strip())
            if any(key in entries for entries in allowed.values()):
                raise ValueError(f"{path}:{number}: {where}: {name} is allowed twice")
            allowed[section][key] = reason.strip()
    return allowed


def problems(lists: Dict[str, List[Function]], allowed: Allowed, root: str = REPO) -> List[str]:
    """Why the gate fails: every listed function without an allow line,
    and every allow line without its function on that list."""
    found = []
    for title in (NEVER, TESTS_ONLY):
        listed = {(os.path.relpath(f[0], root), f[2]): f for f in lists[title]}
        for key in sorted(listed.keys() - allowed[title].keys()):
            found.append(
                f"{key[0]}:{listed[key][1]}: {key[1]} is {title}: reach it from "
                f"a driver, delete it with its tests, or allow it with a reason"
            )
        for key in sorted(allowed[title].keys() - listed.keys()):
            found.append(
                f"stale allow line: {key[0]}: {key[1]} is not {title} "
                f"(gone, driven, or on the other list): remove the line"
            )
    return found


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
    allowed = parse_allow(ALLOW_FILE)
    with tempfile.TemporaryDirectory(prefix="dead-surface-") as scratch:
        entered, failed = record(scratch)
    lists = classify(defined_functions(), entered)
    for title in (NEVER, TESTS_ONLY):
        report(title, lists[title])
    for command in failed:
        print(f"[dead-surface] FAILED, its coverage is partial: {command}")
    found = problems(lists, allowed)
    for problem in found:
        print(f"[dead-surface] {problem}")
    if failed or found:
        return 1
    print("[dead-surface] OK: every listed function is allowed, every allow line matches")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
