"""The determinism lint: the repo is clean, and violations are caught.

Chaos replays and benchmark digests are only byte-identical per seed if
no code path reaches the process-global :mod:`random` generator.  The
lint in ``tools/lint_determinism.py`` enforces that statically; these
tests pin its behavior and keep the tree clean under it.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT_PATH = os.path.join(REPO_ROOT, "tools", "lint_determinism.py")

spec = importlib.util.spec_from_file_location("lint_determinism", LINT_PATH)
lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint)


class TestRepoIsClean:
    def test_cli_passes_on_repo(self):
        proc = subprocess.run(
            [sys.executable, LINT_PATH],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "determinism lint: OK" in proc.stdout

    def test_scans_all_source_roots(self):
        roots = [
            r for r in lint.DEFAULT_ROOTS
            if os.path.isdir(os.path.join(REPO_ROOT, r))
        ]
        assert "src" in roots and "benchmarks" in roots and "tests" in roots


class TestViolationsCaught:
    def _lint_source(self, tmp_path, source):
        target = tmp_path / "snippet.py"
        target.write_text(source)
        return lint.lint_file(str(target))

    @pytest.mark.parametrize(
        "source",
        [
            "import random\nrandom.random()\n",
            "import random\nrandom.seed(42)\n",
            "import random\nx = random.randint(0, 9)\n",
            "import random as rnd\nrnd.shuffle([1, 2])\n",
            "from random import randint\n",
            "from random import Random, choice\n",
        ],
    )
    def test_global_generator_use_flagged(self, tmp_path, source):
        violations = self._lint_source(tmp_path, source)
        assert len(violations) == 1
        path, line, message = violations[0]
        assert line > 0
        assert "unseeded" in message

    @pytest.mark.parametrize(
        "source",
        [
            # derived seeds are the sanctioned construction
            "import random\nrng = random.Random(derive_seed(0, 'x'))\n",
            "import random\nrng = random.Random(seed)\n",
            "from random import Random\nrng = Random(derive_seed(1, 'y'))\n",
            # no-arg Random() seeds from the OS; out of this rule's scope
            "import random\nrng = random.Random()\n",
            "from repro.sim.random import SeededRng\n",
            # attribute named like the module on another object is fine
            "class C:\n    random = 1\nc = C()\nc.random\n",
            # a different class merely named Random is not random.Random
            "class Random:\n    pass\nrng = Random(7)\n",
        ],
    )
    def test_seeded_use_allowed(self, tmp_path, source):
        assert self._lint_source(tmp_path, source) == []

    @pytest.mark.parametrize(
        "source",
        [
            "import random\nrng = random.Random(7)\n",
            "import random\nrng = random.Random(0)\n",
            "from random import Random\nrng = Random(7)\n",
            "from random import Random as R\nrng = R(42)\n",
            "import random as rnd\nrng = rnd.Random('salt')\n",
        ],
    )
    def test_literal_seed_flagged(self, tmp_path, source):
        violations = self._lint_source(tmp_path, source)
        assert len(violations) == 1
        path, line, message = violations[0]
        assert line > 0
        assert "literal seed" in message
        assert "derive" in message

    @pytest.mark.parametrize(
        "source",
        [
            'import sys\nsys.path.insert(0, ".")\n',
            'import sys\nsys.path.insert(0, "")\n',
            'import sys\nsys.path.append("src")\n',
            'import sys as system\nsystem.path.insert(0, ".")\n',
        ],
    )
    def test_cwd_relative_sys_path_flagged(self, tmp_path, source):
        violations = self._lint_source(tmp_path, source)
        assert len(violations) == 1
        assert "CWD" in violations[0][2]

    @pytest.mark.parametrize(
        "source",
        [
            # __file__-derived: the sanctioned pattern
            "import os\nimport sys\n"
            "sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))\n",
            # absolute literal is CWD-independent
            'import sys\nsys.path.insert(0, "/opt/somewhere")\n',
            # path methods on other objects are not sys.path
            'route = object()\nroute.path.insert(0, ".")\n',
        ],
    )
    def test_file_derived_sys_path_allowed(self, tmp_path, source):
        assert self._lint_source(tmp_path, source) == []

    def _lint_packaged_source(self, tmp_path, package, source):
        """Place the snippet under a repro/<package>/ directory so the
        rules scoped to that package apply."""
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / "snippet.py"
        target.write_text(source)
        return lint.lint_file(str(target))

    def _lint_obs_source(self, tmp_path, source):
        return self._lint_packaged_source(tmp_path, "obs", source)

    @pytest.mark.parametrize(
        "source",
        [
            "import time\ntime.time()\n",
            "import time\nstamp = time.time_ns()\n",
            "import time as clk\nclk.time()\n",
            "from time import time\n",
            "from datetime import datetime\ndatetime.now()\n",
            "import datetime\ndatetime.datetime.utcnow()\n",
            "from datetime import date\ndate.today()\n",
        ],
    )
    def test_wall_clock_in_obs_flagged(self, tmp_path, source):
        violations = self._lint_obs_source(tmp_path, source)
        assert len(violations) == 1
        assert "wall clock" in violations[0][2]

    @pytest.mark.parametrize(
        "source",
        [
            # the sim profiler's host-cost clock stays allowed
            "import time\nclock = time.perf_counter\n",
            # parsing/formatting does not read the clock
            "from datetime import datetime\n"
            "datetime.fromtimestamp(0.0)\n",
            # attribute named like the module on another object is fine
            "class C:\n    time = 1\nC().time\n",
        ],
    )
    def test_non_wall_clock_time_use_allowed(self, tmp_path, source):
        assert self._lint_obs_source(tmp_path, source) == []

    def test_wall_clock_outside_obs_not_flagged(self, tmp_path):
        """The rule is scoped: benchmark harness code may read the host
        clock (it reports wall time, not simulated results)."""
        violations = self._lint_source(tmp_path, "import time\ntime.time()\n")
        assert violations == []

    @pytest.mark.parametrize(
        "source",
        [
            "d = {}\ntotal = sum(d.values())\n",
            "d = {}\ntotal = sum(v for v in d.values())\n",
            "d = {}\ntotal = sum(c for k, c in d.items())\n",
            "d = {}\ntotal = sum([v * 2 for v in d.values()])\n",
            "d = {}\ntotal = sum(c for k, c in d.items() if k != 'x')\n",
        ],
    )
    def test_sum_over_unordered_dict_in_obs_flagged(self, tmp_path, source):
        violations = self._lint_obs_source(tmp_path, source)
        assert len(violations) == 1
        assert "unordered dict iteration" in violations[0][2]
        assert "sorted" in violations[0][2]

    @pytest.mark.parametrize(
        "source",
        [
            # sorted(...) pins the accumulation order — sanctioned
            "d = {}\ntotal = sum(sorted(d.values()))\n",
            "d = {}\ntotal = sum(c for k, c in sorted(d.items()))\n",
            # lists/tuples iterate in a fixed order already
            "xs = []\ntotal = sum(xs)\n",
            "xs = []\ntotal = sum(x * 2 for x in xs)\n",
            # non-sum consumers of dict views are out of scope
            "d = {}\ntotal = max(d.values(), default=0)\n",
            # a method merely named sum on another object is not sum()
            "class C:\n    def sum(self, xs):\n        return 0\n"
            "d = {}\nC().sum(d.values())\n",
        ],
    )
    def test_ordered_or_non_dict_sum_in_obs_allowed(self, tmp_path, source):
        assert self._lint_obs_source(tmp_path, source) == []

    def test_sum_over_dict_outside_obs_not_flagged(self, tmp_path):
        """Scoped like the wall-clock rule: only obs feeds committed
        sidecars that compare float aggregates exactly."""
        violations = self._lint_source(tmp_path, "d = {}\ntotal = sum(d.values())\n")
        assert violations == []

    @pytest.mark.parametrize("package", ["sim", "net", "switch", "core", "protocols"])
    @pytest.mark.parametrize(
        "source",
        [
            "import copy\ndup = copy.deepcopy(object())\n",
            "import copy as cp\nclone = cp.deepcopy\n",
            "from copy import deepcopy\n",
            "from copy import copy, deepcopy as dc\n",
        ],
    )
    def test_deepcopy_on_packet_path_flagged(self, tmp_path, package, source):
        violations = self._lint_packaged_source(tmp_path, package, source)
        assert len(violations) == 1
        assert "copy.deepcopy" in violations[0][2]
        assert "copy contract" in violations[0][2]

    @pytest.mark.parametrize(
        "source",
        [
            # a shallow copy is the sanctioned tool
            "import copy\ndup = copy.copy(object())\n",
            "from copy import copy\n",
            # a method merely named deepcopy on another object
            "class C:\n    def deepcopy(self):\n        return self\nC().deepcopy()\n",
        ],
    )
    def test_shallow_copy_on_packet_path_allowed(self, tmp_path, source):
        assert self._lint_packaged_source(tmp_path, "net", source) == []

    def test_deepcopy_off_the_packet_path_not_flagged(self, tmp_path):
        """Scoped: analysis, observability exports, tests and tools may
        deep-copy (the clone-contract tests use it as the reference)."""
        source = "import copy\ndup = copy.deepcopy(object())\n"
        assert self._lint_source(tmp_path, source) == []
        assert self._lint_packaged_source(tmp_path, "obs", source) == []

    @pytest.mark.parametrize(
        "package", ["core", "protocols", "chaos", "nf", "net", "switch"]
    )
    @pytest.mark.parametrize(
        "source",
        [
            "from repro.obs.metrics import MetricsRegistry\n",
            "from repro.obs.metrics import Histogram, Counter\n",
            "from repro.obs.flightrec import FlightRecorder\n",
            "import repro.obs.accessprof\n",
            "from repro.obs import SLOMonitor\n",
            "from repro.obs import slo as slo_module\n",
            "def late():\n    from repro.obs.slo import SLOMonitor\n",
            "if not TYPE_CHECKING:\n    pass\nelse:\n    pass\n"
            "from repro.obs.metrics import Counter\n",
        ],
    )
    def test_sink_import_in_protocol_layer_flagged(self, tmp_path, package, source):
        violations = self._lint_packaged_source(tmp_path, package, source)
        assert len(violations) == 1
        assert "obs.emit" in violations[0][2]

    @pytest.mark.parametrize(
        "source",
        [
            # annotations only
            "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
            "    from repro.obs.metrics import MetricsRegistry\n"
            "    from repro.obs import FlightRecorder\n",
            "import typing\nif typing.TYPE_CHECKING:\n    import repro.obs.slo\n",
            # the spine, its vocabulary and the causal clock are the API
            "from repro.obs.spine import ObsSpine\nfrom repro.obs.events import SWITCH\n"
            "from repro.obs.causal import CausalClock\nfrom repro.obs import ObsSpine\n",
        ],
    )
    def test_spine_and_annotation_imports_allowed(self, tmp_path, source):
        assert self._lint_packaged_source(tmp_path, "protocols", source) == []

    def test_dataplane_may_keep_a_histogram_value_and_nothing_else(self, tmp_path):
        """A device owns the ``Histogram`` a registry folds; the type is
        the one ``repro.obs.metrics`` name ``net`` / ``switch`` may import."""
        source = "from repro.obs.metrics import Histogram\n"
        for package in ("net", "switch"):
            assert self._lint_packaged_source(tmp_path, package, source) == []
            for other in ("from repro.obs import Histogram\n", "import repro.obs.metrics\n"):
                assert len(self._lint_packaged_source(tmp_path, package, other)) == 1
        assert len(self._lint_packaged_source(tmp_path, "core", source)) == 1

    def test_sink_import_outside_the_protocol_layer_not_flagged(self, tmp_path):
        """Scoped: analysis, benchmarks and tests build sinks freely."""
        source = "from repro.obs.metrics import MetricsRegistry, Counter\n"
        assert self._lint_source(tmp_path, source) == []
        for package in ("obs", "analysis", "sim"):
            assert self._lint_packaged_source(tmp_path, package, source) == []

    @pytest.mark.parametrize("package", ["core", "protocols", "chaos"])
    @pytest.mark.parametrize(
        "source",
        [
            "def wipe(state):\n    state.pending._next_seq = [0]\n",
            "def bump(self):\n    self.table._count += 1\n",
            "def note(a):\n    a.b._c: int = 0\n",
        ],
    )
    def test_private_poke_through_another_object_flagged(self, tmp_path, package, source):
        violations = self._lint_packaged_source(tmp_path, package, source)
        assert len(violations) == 1
        assert violations[0][1] == 2
        assert "give the owner a method" in violations[0][2]

    @pytest.mark.parametrize(
        "source",
        [
            # an object's own layout, and a module's own helper objects
            "class C:\n    def __init__(self):\n        self._x = 0\n",
            "def reset(cell):\n    cell._value = None\n",
            # public attributes and reads are not layout pokes
            "def f(a):\n    a.b.c = 1\n    return a.b._c\n",
            "def g(a):\n    a.b._items.append(1)\n    a.b._slots[0] = 1\n",
        ],
    )
    def test_own_and_public_attribute_assignment_allowed(self, tmp_path, source):
        assert self._lint_packaged_source(tmp_path, "protocols", source) == []

    def test_private_poke_outside_the_engine_packages_not_flagged(self, tmp_path):
        """Scoped: tests and tools may reach into a replica to tamper."""
        source = "def tamper(state):\n    state.pending._next_seq = [9]\n"
        assert self._lint_source(tmp_path, source) == []
        assert self._lint_packaged_source(tmp_path, "obs", source) == []

    @pytest.mark.parametrize(
        "source",
        [
            "import itertools\n_ids = itertools.count(1)\n",
            "import itertools as it\n_ids: object = it.count()\n",
            "from itertools import count\n_ids = count(30000)\n",
        ],
    )
    def test_module_level_counter_in_the_library_flagged(self, tmp_path, source):
        violations = self._lint_packaged_source(tmp_path, "protocols", source)
        assert len(violations) == 1
        assert violations[0][1] == 2
        assert "'_ids'" in violations[0][2] and "owns the sequence" in violations[0][2]

    @pytest.mark.parametrize(
        "source",
        [
            # an object's own sequence, however it is spelled
            "import itertools\nclass C:\n    def __init__(self):\n"
            "        self._seq = itertools.count(1)\n",
            "import itertools\ndef ids():\n    return itertools.count(1)\n",
            # other itertools, other counts
            "import itertools\nPAIRS = list(itertools.product('ab', repeat=2))\n",
            "N = 'abca'.count('a')\n",
        ],
    )
    def test_owned_sequences_and_other_counts_allowed(self, tmp_path, source):
        assert self._lint_packaged_source(tmp_path, "protocols", source) == []

    def test_module_level_counter_allowed_by_name_and_outside_the_library(self, tmp_path):
        """The three that remain pass only under their own module and
        name; benchmarks, tests and tools are out of scope."""
        source = "import itertools\n_packet_ids = itertools.count(1)\n"
        directory = tmp_path / "repro" / "net"
        directory.mkdir(parents=True)
        (directory / "packet.py").write_text(source)
        assert lint.lint_file(str(directory / "packet.py")) == []
        (directory / "link.py").write_text(source)
        assert len(lint.lint_file(str(directory / "link.py"))) == 1
        assert self._lint_source(tmp_path, source) == []
        for suffix, name in lint.ALLOWED_GLOBAL_COUNTERS:
            module = os.path.join(REPO_ROOT, "src", "repro", suffix)
            with open(module, encoding="utf-8") as handle:
                assert f"\n{name} = itertools.count(" in handle.read(), (suffix, name)

    def test_exempt_module_skipped(self):
        exempt = os.path.join(REPO_ROOT, "src", lint.EXEMPT_SUFFIX)
        assert os.path.exists(exempt)
        assert lint.lint_file(exempt) == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        violations = self._lint_source(tmp_path, "def broken(:\n")
        assert len(violations) == 1
        assert "syntax error" in violations[0][2]
