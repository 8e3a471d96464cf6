"""Determinism lint: forbid unseeded ``random`` usage and CWD-relative
``sys.path`` hacks.

Every chaos run, benchmark, and failover test in this repo promises
byte-identical replays for a given seed.  One stray call into the
process-global :mod:`random` generator (``random.random()``,
``random.shuffle(...)``, ``from random import randint``) silently
breaks that promise — the global generator is shared, unseeded by
default, and perturbed by import order.

Similarly, ``sys.path.insert(0, ".")`` makes a script importable only
when launched from the repo root: results then depend on the caller's
working directory, the repro-killing cousin of wall-clock nondeterminism.
Paths must be derived from ``__file__`` (see ``benchmarks/common.py``).

This lint walks the AST of every Python file and flags:

* any attribute access on the ``random`` module (under any import
  alias) other than ``random.Random`` — constructing an explicitly
  seeded instance is the one sanctioned use;
* any ``from random import X`` where ``X`` is not ``Random``;
* any ``random.Random(<literal>)`` construction — a hard-coded seed
  (``random.Random(0)``) correlates supposedly independent streams and
  hides from the experiment-seed sweep; seeds must be derived, e.g.
  ``random.Random(derive_seed(root, name))`` or ``SeededRng.stream()``;
* any ``sys.path.insert(...)`` / ``sys.path.append(...)`` whose path
  argument is a *relative* string literal (``"."``, ``""``, ``".."``,
  ``"src"``...) — ``__file__``-derived expressions are fine.

* inside ``src/repro/obs/`` only: any wall-clock read — ``time.time()``
  / ``time.time_ns()`` (under any import alias or ``from time import``)
  and ``datetime.now()`` / ``utcnow()`` / ``today()``.  The
  observability layer feeds replay digests and committed benchmark
  sidecars, so its outputs must be pure functions of sim time carried
  by the caller.  ``time.perf_counter`` stays allowed: it is a
  host-cost clock, measuring the harness rather than the simulation.

* also inside ``src/repro/obs/`` only: float accumulation via ``sum()``
  over unordered dict iteration — ``sum(d.values())``,
  ``sum(v for v in d.values())``, ``sum(c for k, c in d.items())``.
  Float addition is not associative, so the result depends on dict
  iteration order; committed sidecars compare these values exactly
  across interpreter builds.  Wrapping the iterable in ``sorted(...)``
  pins the order and is the sanctioned escape hatch.

* inside ``src/repro/{sim,net,switch,core,protocols}`` only: any use of
  ``copy.deepcopy`` (under any import alias, or ``from copy import
  deepcopy``).  These packages are the per-packet path; a deep copy
  there walks every header, message and register value of every
  multicast, mirror and duplicate copy — about 70 % of the host time
  of an EWO workload before ``Packet.clone()`` became a structural
  copy.  Copy the levels the code assigns to and share the immutable
  values below them (see the copy contract in ``repro/net/packet.py``).

* inside ``src/repro/{core,protocols,chaos,nf,net,switch}`` only: any
  import of an observability sink — the modules ``repro.obs.metrics``,
  ``flightrec``, ``accessprof`` and ``slo``, or their classes through
  ``repro.obs`` — outside an ``if TYPE_CHECKING:`` block.  Protocol
  code reports each step with one ``obs.emit(...)``
  (``repro/obs/spine.py``) and only the spine calls sinks; the
  dataplane (``net``, ``switch``) counts on the device and a registry
  reads it (``MetricsRegistry.add_source``).  A second path into a
  sink is how a late-attached sink gets missed.  Annotations may name
  the classes, recorded data is read off ``deployment.flight_recorder``
  and friends (``render_timeline``, ``snapshot``) without importing
  anything, and ``net`` / ``switch`` may import the one value type a
  device keeps for the registry to fold,
  ``from repro.obs.metrics import Histogram``.

* inside ``src/repro/{core,protocols,chaos}`` only: any assignment
  (plain, augmented or annotated) to an underscore attribute reached
  through another object's attribute — ``a.b._c = ...``.  That is one
  object rewriting the private layout of something a third object
  owns (how a recovery wipe once reset ``state.pending._next_seq``);
  the owner gets a method (``PendingTable.reset()``,
  ``SroGroupState.wipe()``) so its layout can change in one place.
  ``self._x = ...`` and ``a._x = ...`` are not flagged.

* inside ``src/repro`` only: a module-level ``itertools.count(...)``
  (under any import alias, or ``from itertools import count``).  A
  counter the module owns is shared by every world the process builds,
  so an id drawn from it depends on what ran earlier in the process —
  and benchmarks and the schedule explorer build many worlds per
  process.  Number from the object that owns the sequence
  (``FailoverCoordinator._transfer_seq``, the per-switch token numbers
  of ``SroEngine``).  Three remain, allowed by name until ROADMAP
  item 1 retires them: ``net/packet._packet_ids``,
  ``workload/flows._flow_ports``, ``analysis/history._op_ids`` — none
  feeds a digest, a span or a ``wire_size``.

``src/repro/sim/random.py`` is exempt: it is the module that wraps the
stdlib generator behind :class:`SeededRng`, the seam everything else
must go through.

Run from the repo root (CI does)::

    python tools/lint_determinism.py [paths...]

Exits non-zero and prints ``path:line: message`` for each violation.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import List, Tuple

#: Paths (relative to the repo root) scanned when none are given.
DEFAULT_ROOTS = ("src", "benchmarks", "tests", "tools", "examples")

#: The one module allowed to touch stdlib ``random`` directly.
EXEMPT_SUFFIX = os.path.join("repro", "sim", "random.py")

#: The one attribute of the ``random`` module code may use: the
#: explicitly seeded generator class.
ALLOWED_ATTR = "Random"

#: Wall-clock reads are forbidden under this path fragment (the
#: observability layer, whose exports feed replay digests).
WALLCLOCK_SCOPE = os.path.join("repro", "obs") + os.sep

#: Wall-clock attributes of the ``time`` module (``perf_counter`` and
#: friends stay allowed — they time the harness, not the simulation).
WALLCLOCK_TIME_ATTRS = frozenset({"time", "time_ns"})

#: Wall-clock constructors on ``datetime``/``date`` classes.
WALLCLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

def _package_scopes(*packages: str) -> Tuple[str, ...]:
    """The path fragments of ``src/repro/<package>/``."""
    return tuple(os.path.join("repro", package) + os.sep for package in packages)


#: ``copy.deepcopy`` is forbidden under these path fragments: the
#: packages on the per-packet path.
DEEPCOPY_SCOPES = _package_scopes("sim", "net", "switch", "core", "protocols")

DEEPCOPY_MESSAGE = (
    "copy.deepcopy on the per-packet path walks every object a packet "
    "references; copy the levels the code assigns to and share the "
    "immutable values below (see the copy contract in repro/net/packet.py)"
)

#: Direct sink imports are forbidden under these path fragments: the
#: packages that report through the observability spine, and the
#: dataplane, whose devices count for a registry to read.
SINK_SCOPES = _package_scopes("core", "protocols", "chaos", "nf", "net", "switch")

#: ... of which the dataplane may ``from repro.obs.metrics import
#: Histogram``: the value type behind ``switch.queue_wait_seconds``.
VALUE_TYPE_SCOPES = _package_scopes("net", "switch")

SINK_MODULES = frozenset(
    f"repro.obs.{module}" for module in ("metrics", "flightrec", "accessprof", "slo")
)

#: The sinks' classes and singletons as ``repro.obs`` re-exports them.
SINK_NAMES = frozenset({
    "MetricsRegistry", "Counter", "Gauge",
    "Histogram", "FlightRecorder", "AccessProfiler", "SLOMonitor",
    "metrics", "flightrec", "accessprof", "slo",
})

SINK_MESSAGE = (
    "imports an observability sink below the spine; protocol code "
    "reports the step with obs.emit(...) and a rule in "
    "repro/obs/events.py, a device counts in its own stats for "
    "MetricsRegistry.add_source to read (import under "
    "`if TYPE_CHECKING:` for annotations only)"
)

#: Assigning ``a.b._c`` is forbidden under these path fragments: the
#: packages whose replica state sits behind its owning engine.
PRIVATE_POKE_SCOPES = _package_scopes("core", "protocols", "chaos")

PRIVATE_POKE_MESSAGE = (
    "assigns a private attribute of an object reached through another "
    "object ('{target}'); give the owner a method that does it "
    "(PendingTable.reset(), SroGroupState.wipe()) so its layout stays "
    "in one place"
)

#: Module-level ``itertools.count`` is forbidden under this path
#: fragment: the library package.
GLOBAL_COUNTER_SCOPE = os.sep + "repro" + os.sep

#: ... except these, by module path suffix and name (ROADMAP item 1).
ALLOWED_GLOBAL_COUNTERS = frozenset({
    (os.path.join("net", "packet.py"), "_packet_ids"),
    (os.path.join("workload", "flows.py"), "_flow_ports"),
    (os.path.join("analysis", "history.py"), "_op_ids"),
})

GLOBAL_COUNTER_MESSAGE = (
    "module-level itertools.count ('{name}') is shared by every world "
    "in the process, so its ids depend on what ran earlier; number from "
    "the object that owns the sequence instead"
)

Violation = Tuple[str, int, str]


def _module_level_counters(tree: ast.Module, path: str) -> List[Violation]:
    """Flag ``NAME = itertools.count(...)`` statements of the module body."""
    modules, functions = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "itertools")
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            functions.update(a.asname or a.name for a in node.names if a.name == "count")
    violations = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        if not (
            (isinstance(func, ast.Name) and func.id in functions)
            or (
                isinstance(func, ast.Attribute)
                and func.attr == "count"
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
            )
        ):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            name = ast.unparse(target)
            if not any(path.endswith(suffix) and name == allowed
                       for suffix, allowed in ALLOWED_GLOBAL_COUNTERS):
                violations.append((path, node.lineno, GLOBAL_COUNTER_MESSAGE.format(name=name)))
    return violations


class _RandomUseVisitor(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        check_wallclock: bool = False,
        check_deepcopy: bool = False,
        check_sinks: bool = False,
        histogram_ok: bool = False,
        check_private_pokes: bool = False,
    ) -> None:
        self.path = path
        # One flag gates both obs-scope checks: wall-clock reads and
        # float sums over unordered dict iteration.
        self.check_wallclock = check_wallclock
        self.check_deepcopy = check_deepcopy
        self.check_sinks = check_sinks
        self.histogram_ok = histogram_ok
        self.check_private_pokes = check_private_pokes
        #: Depth of enclosing ``if TYPE_CHECKING:`` bodies.
        self.type_checking = 0
        self.copy_aliases: set = set()
        self.aliases: set = set()
        self.random_class_aliases: set = set()
        self.sys_aliases: set = set()
        self.time_aliases: set = set()
        self.datetime_aliases: set = set()
        self.datetime_classes: set = set()
        self.violations: List[Violation] = []

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        guard = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        self.visit(test)
        self.type_checking += guard
        for child in node.body:
            self.visit(child)
        self.type_checking -= guard
        for child in node.orelse:
            self.visit(child)

    def _check_private_poke(self, target: ast.expr) -> None:
        """Flag ``a.b._c`` as an assignment target (``a.b.__dunder__``,
        ``self._c`` and ``a._c`` pass)."""
        if (
            self.check_private_pokes
            and isinstance(target, ast.Attribute)
            and target.attr.startswith("_")
            and not target.attr.endswith("__")
            and isinstance(target.value, ast.Attribute)
        ):
            self.violations.append((
                self.path,
                target.lineno,
                PRIVATE_POKE_MESSAGE.format(target=ast.unparse(target)),
            ))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_private_poke(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_private_poke(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_private_poke(node.target)
        self.generic_visit(node)

    def _sink_import(self, node: ast.AST) -> None:
        if self.check_sinks and not self.type_checking:
            self.violations.append((self.path, node.lineno, SINK_MESSAGE))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in SINK_MODULES:
                self._sink_import(node)
            if alias.name == "random":
                self.aliases.add(alias.asname or alias.name)
            if alias.name == "sys":
                self.sys_aliases.add(alias.asname or alias.name)
            if alias.name == "time":
                self.time_aliases.add(alias.asname or alias.name)
            if alias.name == "datetime":
                self.datetime_aliases.add(alias.asname or alias.name)
            if alias.name == "copy":
                self.copy_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # sys.path.insert(0, "<relative>") / sys.path.append("<relative>")
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("insert", "append")
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "path"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in self.sys_aliases
        ):
            path_arg = node.args[-1] if node.args else None
            if (
                isinstance(path_arg, ast.Constant)
                and isinstance(path_arg.value, str)
                and not os.path.isabs(path_arg.value)
            ):
                self.violations.append((
                    self.path,
                    node.lineno,
                    f"sys.path.{func.attr} of relative path "
                    f"{path_arg.value!r} depends on the caller's CWD; "
                    f"derive the path from __file__ instead "
                    f"(see benchmarks/common.py)",
                ))
        self._check_literal_seed(node)
        if self.check_wallclock:
            self._check_unordered_sum(node)
        self.generic_visit(node)

    def _check_literal_seed(self, node: ast.Call) -> None:
        """Flag ``random.Random(<literal>)`` under any import alias.

        A hard-coded seed silently correlates streams (two components
        seeded with 0 produce identical draws) and pins the component
        outside the experiment seed sweep.  Seeds must be derived:
        ``random.Random(derive_seed(root, name))`` or
        ``SeededRng.stream(name)`` (see src/repro/sim/random.py).
        """
        func = node.func
        is_random_ctor = (
            isinstance(func, ast.Attribute)
            and func.attr == ALLOWED_ATTR
            and isinstance(func.value, ast.Name)
            and func.value.id in self.aliases
        ) or (
            isinstance(func, ast.Name) and func.id in self.random_class_aliases
        )
        if not is_random_ctor or not node.args:
            return
        seed_arg = node.args[0]
        if isinstance(seed_arg, ast.Constant):
            self.violations.append((
                self.path,
                node.lineno,
                f"random.Random({seed_arg.value!r}) with a literal seed "
                f"correlates independent streams; derive the seed instead "
                f"(repro.sim.random.derive_seed / SeededRng.stream)",
            ))

    @staticmethod
    def _unordered_dict_iter(expr: ast.expr) -> str:
        """Return ``values``/``items`` when ``expr`` is a bare
        ``X.values()`` / ``X.items()`` call, else an empty string."""
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("values", "items")
            and not expr.args
            and not expr.keywords
        ):
            return expr.func.attr
        return ""

    def _check_unordered_sum(self, node: ast.Call) -> None:
        """Flag ``sum()`` whose iterable walks a dict in hash order.

        Float addition is order-sensitive; committed sidecars compare
        these aggregates exactly.  ``sorted(...)`` around the iterable
        pins the order and escapes the lint.
        """
        if not (isinstance(node.func, ast.Name) and node.func.id == "sum" and node.args):
            return
        arg = node.args[0]
        method = self._unordered_dict_iter(arg)
        if not method and isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for comp in arg.generators:
                method = self._unordered_dict_iter(comp.iter)
                if method:
                    break
        if method:
            self.violations.append((
                self.path,
                node.lineno,
                f"sum() over unordered dict iteration (.{method}()) "
                f"inside the observability layer; float accumulation "
                f"order must be pinned — wrap the iterable in "
                f"sorted(...)",
            ))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and (
            node.module in SINK_MODULES
            or (
                node.module == "repro.obs"
                and any(alias.name in SINK_NAMES for alias in node.names)
            )
        ) and not (
            self.histogram_ok
            and node.module == "repro.obs.metrics"
            and [alias.name for alias in node.names] == ["Histogram"]
        ):
            self._sink_import(node)
        if node.module == "random" and node.level == 0:
            for alias in node.names:
                if alias.name == ALLOWED_ATTR:
                    self.random_class_aliases.add(alias.asname or alias.name)
                else:
                    self.violations.append((
                        self.path,
                        node.lineno,
                        f"'from random import {alias.name}' pulls from the "
                        f"unseeded process-global generator; use "
                        f"repro.sim.random.SeededRng (or random.Random)",
                    ))
        if self.check_deepcopy and node.module == "copy" and node.level == 0:
            for alias in node.names:
                if alias.name == "deepcopy":
                    self.violations.append((self.path, node.lineno, DEEPCOPY_MESSAGE))
        if node.module == "datetime" and node.level == 0:
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.datetime_classes.add(alias.asname or alias.name)
        if self.check_wallclock and node.module == "time" and node.level == 0:
            for alias in node.names:
                if alias.name in WALLCLOCK_TIME_ATTRS:
                    self.violations.append((
                        self.path,
                        node.lineno,
                        f"'from time import {alias.name}' reads the wall "
                        f"clock inside the observability layer; take sim "
                        f"time from the caller instead",
                    ))
        self.generic_visit(node)

    def _is_datetime_class(self, value: ast.expr) -> bool:
        if isinstance(value, ast.Name):
            return value.id in self.datetime_classes
        return (
            isinstance(value, ast.Attribute)
            and value.attr in ("datetime", "date")
            and isinstance(value.value, ast.Name)
            and value.value.id in self.datetime_aliases
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in self.aliases
            and node.attr != ALLOWED_ATTR
        ):
            self.violations.append((
                self.path,
                node.lineno,
                f"'{node.value.id}.{node.attr}' uses the unseeded "
                f"process-global generator; use repro.sim.random.SeededRng "
                f"(or construct a seeded random.Random)",
            ))
        if (
            self.check_deepcopy
            and node.attr == "deepcopy"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.copy_aliases
        ):
            self.violations.append((self.path, node.lineno, DEEPCOPY_MESSAGE))
        if self.check_wallclock:
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in self.time_aliases
                and node.attr in WALLCLOCK_TIME_ATTRS
            ):
                self.violations.append((
                    self.path,
                    node.lineno,
                    f"'{node.value.id}.{node.attr}' reads the wall clock "
                    f"inside the observability layer (its exports feed "
                    f"replay digests); take sim time from the caller "
                    f"instead",
                ))
            elif node.attr in WALLCLOCK_DATETIME_ATTRS and self._is_datetime_class(node.value):
                self.violations.append((
                    self.path,
                    node.lineno,
                    f"'datetime.{node.attr}' reads the wall clock inside "
                    f"the observability layer (its exports feed replay "
                    f"digests); take sim time from the caller instead",
                ))
        self.generic_visit(node)


def lint_file(path: str) -> List[Violation]:
    if path.endswith(EXEMPT_SUFFIX):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, f"syntax error: {exc.msg}")]
    normalized = os.path.normpath(os.path.abspath(path))
    visitor = _RandomUseVisitor(
        path,
        check_wallclock=WALLCLOCK_SCOPE in normalized,
        check_deepcopy=any(scope in normalized for scope in DEEPCOPY_SCOPES),
        check_sinks=any(scope in normalized for scope in SINK_SCOPES),
        histogram_ok=any(scope in normalized for scope in VALUE_TYPE_SCOPES),
        check_private_pokes=any(scope in normalized for scope in PRIVATE_POKE_SCOPES),
    )
    visitor.visit(tree)
    if GLOBAL_COUNTER_SCOPE in normalized:
        visitor.violations.extend(_module_level_counters(tree, path))
    return visitor.violations


def lint_paths(paths: List[str]) -> List[Violation]:
    violations: List[Violation] = []
    for root in paths:
        if os.path.isfile(root):
            violations.extend(lint_file(root))
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [
                d for d in dirnames
                if d not in ("__pycache__",) and not d.endswith(".egg-info")
            ]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    violations.extend(lint_file(os.path.join(dirpath, name)))
    return violations


def main(argv: List[str]) -> int:
    roots = argv or [r for r in DEFAULT_ROOTS if os.path.isdir(r)]
    violations = lint_paths(roots)
    for path, line, message in violations:
        print(f"{path}:{line}: {message}")
    if violations:
        print(f"determinism lint: {len(violations)} violation(s)")
        return 1
    print("determinism lint: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
