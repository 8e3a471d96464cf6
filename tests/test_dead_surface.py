"""The dead-surface gate's comparison logic, on a two-function tree.

``tools/dead_surface.py`` takes minutes to record what the drivers
enter; what it then *does* with the recording — sort functions into the
two lists, read the allow file, fail on an unlisted function or a stale
allow line — is pure and is pinned here.
"""

import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL_PATH = os.path.join(REPO_ROOT, "tools", "dead_surface.py")

spec = importlib.util.spec_from_file_location("dead_surface", TOOL_PATH)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

SOURCE = '''\
class Engine:
    def driven(self):
        return 1

    @property
    def only_tested(self):
        return 2


def never_called():
    return 3
'''


@pytest.fixture
def tree(tmp_path):
    """(root, module path, its functions keyed by name)."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    module = package / "engine.py"
    module.write_text(SOURCE)
    functions = tool.defined_functions(str(package) + os.sep)
    return str(tmp_path), str(module), {f[2]: f for f in functions}


def write_allow(tmp_path, *lines):
    path = tmp_path / "allow.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def lists_for(tree, tests=(), drivers=()):
    _root, module, functions = tree
    key = lambda name: f"{module}:{functions[name][1]}"
    entered = {"tests": {key(n) for n in tests}, "drivers": {key(n) for n in drivers}}
    return tool.classify(list(functions.values()), entered)


class TestClassify:
    def test_definitions_are_keyed_by_first_decorator_line(self, tree):
        _root, _module, functions = tree
        assert sorted(functions) == ["Engine.driven", "Engine.only_tested", "never_called"]
        assert functions["Engine.only_tested"][1] == 5  # the @property line
        assert functions["Engine.only_tested"][3] == 3

    def test_two_lists(self, tree):
        lists = lists_for(
            tree, tests=["Engine.driven", "Engine.only_tested"], drivers=["Engine.driven"]
        )
        assert [f[2] for f in lists[tool.NEVER]] == ["never_called"]
        assert [f[2] for f in lists[tool.TESTS_ONLY]] == ["Engine.only_tested"]


class TestGate:
    ALLOW = (
        "# a comment, then the two lists",
        "[never entered]",
        "src/repro/engine.py: never_called — hook: overridden",
        "",
        "[entered only under tests/]",
        "src/repro/engine.py: Engine.only_tested — safety: a give-up path",
    )

    def _lists(self, tree):
        return lists_for(
            tree, tests=["Engine.driven", "Engine.only_tested"], drivers=["Engine.driven"]
        )

    def test_match_passes(self, tree, tmp_path):
        allowed = tool.parse_allow(write_allow(tmp_path, *self.ALLOW))
        assert allowed[tool.TESTS_ONLY] == {
            ("src/repro/engine.py", "Engine.only_tested"): "safety: a give-up path"
        }
        assert tool.problems(self._lists(tree), allowed, root=tree[0]) == []

    def test_unlisted_function_fails(self, tree, tmp_path):
        allowed = tool.parse_allow(write_allow(tmp_path, *self.ALLOW[:3]))
        (problem,) = tool.problems(self._lists(tree), allowed, root=tree[0])
        assert problem.startswith("src/repro/engine.py:5: Engine.only_tested is entered only")

    def test_stale_allow_line_fails(self, tree, tmp_path):
        """A driver now reaches the function: its line must go."""
        allowed = tool.parse_allow(write_allow(tmp_path, *self.ALLOW))
        lists = lists_for(
            tree,
            tests=["Engine.driven", "Engine.only_tested"],
            drivers=["Engine.driven", "Engine.only_tested"],
        )
        (problem,) = tool.problems(lists, allowed, root=tree[0])
        assert problem.startswith("stale allow line: src/repro/engine.py: Engine.only_tested")

    def test_a_line_under_the_wrong_list_is_both_unlisted_and_stale(self, tree, tmp_path):
        """Its only test went: the function moved to *never entered*."""
        allowed = tool.parse_allow(write_allow(tmp_path, *self.ALLOW))
        lists = lists_for(tree, tests=["Engine.driven"], drivers=["Engine.driven"])
        found = tool.problems(lists, allowed, root=tree[0])
        assert len(found) == 2
        assert "Engine.only_tested is never entered" in found[0]
        assert found[1].startswith("stale allow line")

    @pytest.mark.parametrize(
        "lines",
        [
            ("src/repro/engine.py: never_called — before any heading",),
            ("[never entered]", "src/repro/engine.py: never_called"),
            ("[never entered]", "src/repro/engine.py: never_called — "),
            ("[sometimes entered]",),
            ("[never entered]", "src/repro/engine.py: f — a", "[entered only under tests/]",
             "src/repro/engine.py: f — b"),
        ],
    )
    def test_malformed_allow_file_rejected(self, tmp_path, lines):
        with pytest.raises(ValueError):
            tool.parse_allow(write_allow(tmp_path, *lines))


class TestCommittedAllowFile:
    def test_parses_and_names_existing_functions(self):
        """Cheap half of the gate, run in tier-1: every allow line names
        a function that exists (the expensive half — that nothing drives
        it — is ``make dead-surface``)."""
        allowed = tool.parse_allow(tool.ALLOW_FILE)
        defined = {(os.path.relpath(f[0], REPO_ROOT), f[2]) for f in tool.defined_functions()}
        for title, entries in allowed.items():
            assert entries.keys() <= defined, sorted(entries.keys() - defined)
        assert len(allowed[tool.NEVER]) == 5
