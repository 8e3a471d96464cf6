"""Meta tests: documentation stays consistent with the code on disk."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO_ROOT / name).read_text(encoding="utf-8")


class TestDesignDocIndex:
    def test_every_indexed_bench_file_exists(self):
        design = read("DESIGN.md")
        referenced = set(re.findall(r"`(benchmarks/bench_\w+\.py)`", design))
        assert referenced, "DESIGN.md lost its experiment index"
        for path in sorted(referenced):
            assert (REPO_ROOT / path).exists(), f"DESIGN.md references missing {path}"

    def test_every_bench_file_is_indexed(self):
        design = read("DESIGN.md")
        on_disk = {
            f"benchmarks/{p.name}"
            for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")
            # the simulator-performance group guards the harness, not a
            # paper experiment, so it lives outside the index
            if p.name != "bench_simulator_performance.py"
        }
        for path in sorted(on_disk):
            assert path in design, f"{path} missing from DESIGN.md's index"

    def test_layout_block_matches_the_source_tree(self):
        """DESIGN.md section 2: every file it names exists and every
        module of every ``src/repro`` package is named."""
        section = read("DESIGN.md").split("## 2. Repository layout")[1]
        block = section.split("```")[1].split("\ntests/")[0]
        listed, package = set(), ""
        for line in block.splitlines():
            entry = line.split("#")[0]
            directory = re.match(r"  (\w+)/", entry)
            if directory:
                package = directory.group(1) + "/"
            elif re.match(r"  \w", entry):  # a module of src/repro itself
                package = ""
            listed.update(package + name for name in re.findall(r"\w+\.py", entry))
        source = REPO_ROOT / "src" / "repro"
        for path in sorted(listed):
            assert (source / path).exists(), f"DESIGN.md lists missing src/repro/{path}"
        on_disk = {
            str(p.relative_to(source))
            for pattern in ("*.py", "*/*.py")
            for p in source.glob(pattern)
            if p.name != "__init__.py"
        }
        assert on_disk - listed == set(), "modules missing from DESIGN.md's layout"

    def test_experiments_doc_covers_every_experiment_id(self):
        design = read("DESIGN.md")
        experiments = read("EXPERIMENTS.md")
        ids = set(re.findall(r"^\| ([A-Z]\d) \|", design, flags=re.MULTILINE))
        assert len(ids) >= 15
        for experiment_id in sorted(ids):
            assert f"## {experiment_id} " in experiments or f"| {experiment_id} |" in experiments, (
                f"experiment {experiment_id} not recorded in EXPERIMENTS.md"
            )


class TestReadme:
    def test_mentions_all_example_scripts(self):
        readme = read("README.md")
        for script in (REPO_ROOT / "examples").glob("*.py"):
            assert script.name in readme, f"{script.name} not documented in README"

    def test_quickstart_snippet_runs(self):
        """The README's code snippet must stay executable."""
        readme = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks, "README lost its python snippet"
        snippet = blocks[0]
        namespace: dict = {}
        exec(snippet, namespace)  # raises if the public API drifted

    def test_documents_offline_install(self):
        assert "setup.py develop" in read("README.md")


class TestPackaging:
    def test_version_consistent(self):
        import repro

        pyproject = read("pyproject.toml")
        match = re.search(r'^version = "([^"]+)"', pyproject, flags=re.MULTILINE)
        assert match is not None
        assert repro.__version__ == match.group(1)

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, f"repro.{name} missing"

    def test_subpackage_exports_resolve(self):
        import importlib

        for module_name in (
            "repro.sim", "repro.net", "repro.switch", "repro.core",
            "repro.protocols", "repro.crdt", "repro.sketch", "repro.nf",
            "repro.workload", "repro.analysis",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert getattr(module, name, None) is not None, (
                    f"{module_name}.{name} missing"
                )
