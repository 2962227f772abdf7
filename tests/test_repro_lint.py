"""Tests for the ``repro_lint`` static-analysis framework and its rules.

Each rule gets a *catching* fixture (known-bad code the rule must flag) and a
*passing* fixture (idiomatic code the rule must leave alone), so a regression
in either direction — rules going blind or rules going trigger-happy — fails
loudly.  The framework itself (suppressions, the meta rule, the reporters,
the file walker and the CLI) is covered alongside, and a final self-check
lints the real ``src`` tree.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro_lint import (
    JSON_SCHEMA_VERSION,
    META_RULE_ID,
    FileContext,
    all_rules,
    known_rule_ids,
    lint_paths,
    lint_source,
    render_text,
    to_json_dict,
)
from repro_lint import reach
from repro_lint.rules import CONSTRAINT_TYPES, SCALAR_TYPES, UnvalidatedConfigFieldRule
from repro_lint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parent.parent

SRC_PATH = "src/repro/caching/example.py"  # a simulated-clock module
TEST_PATH = "tests/test_example.py"


def rule_ids(result):
    return sorted(v.rule for v in result.violations)


# --------------------------------------------------------------------- registry
class TestRegistry:
    def test_all_six_rules_registered(self):
        # R0 is the framework's own suppression-audit meta rule; R1-R6 are
        # the AST rules.  All seven ids are valid in disable= comments.
        assert known_rule_ids() == {"R0", "R1", "R2", "R3", "R4", "R5", "R6"}

    def test_meta_rule_is_reserved(self):
        assert META_RULE_ID == "R0"
        assert META_RULE_ID not in {rule.id for rule in all_rules()}

    def test_rules_carry_rationale(self):
        for rule in all_rules():
            assert rule.rationale, f"{rule.id} has no rationale"


# ----------------------------------------------------------------- R1 fixtures
class TestBareRandomState:
    def test_catches_np_random_module_functions(self):
        bad = "import numpy as np\nids = np.random.randint(0, 10, size=4)\n"
        result = lint_source(bad, SRC_PATH)
        assert rule_ids(result) == ["R1"]

    def test_catches_np_random_seed(self):
        result = lint_source("import numpy as np\nnp.random.seed(0)\n", SRC_PATH)
        assert rule_ids(result) == ["R1"]

    def test_catches_stdlib_random_module_state(self):
        # Both the import site and the use site are flagged.
        result = lint_source("import random\nx = random.random()\n", SRC_PATH)
        assert rule_ids(result) == ["R1", "R1"]

    def test_catches_aliased_import(self):
        bad = "import numpy.random as npr\nx = npr.rand(3)\n"
        result = lint_source(bad, SRC_PATH)
        assert rule_ids(result) == ["R1"]

    def test_allows_explicit_generators(self):
        good = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "gen = np.random.Generator(np.random.PCG64(3))\n"
        )
        assert lint_source(good, SRC_PATH).clean

    def test_allows_stdlib_random_instances(self):
        # Explicitly seeded Random instances are fine; the bare-module import
        # is what carries the global state, so the instance must come in via
        # a from-import.
        good = "from random import Random\nrng = Random(11)\nx = rng.random()\n"
        assert lint_source(good, SRC_PATH).clean

    def test_rng_home_module_is_exempt(self):
        bad = "import numpy as np\nnp.random.seed(0)\n"
        assert lint_source(bad, "src/repro/utils/rng.py").clean
        # ... but only that module.
        assert not lint_source(bad, "src/repro/utils/validation.py").clean


# ----------------------------------------------------------------- R2 fixtures
class TestWallClock:
    def test_catches_time_time_in_sim_module(self):
        bad = "import time\nnow = time.time()\n"
        result = lint_source(bad, SRC_PATH)
        assert rule_ids(result) == ["R2"]

    def test_catches_from_import_alias(self):
        # Import site and aliased call site are both flagged.
        bad = "from time import perf_counter as pc\nstart = pc()\n"
        result = lint_source(bad, SRC_PATH)
        assert rule_ids(result) == ["R2", "R2"]

    def test_catches_datetime_now(self):
        bad = "import datetime\nstamp = datetime.datetime.now()\n"
        result = lint_source(bad, SRC_PATH)
        assert rule_ids(result) == ["R2"]

    def test_partitioning_package_is_allowlisted(self):
        # Partitioning runtime is measured wall-clock by design (the paper's
        # placement cost is real compute, not simulated time).
        good = "import time\nstart = time.perf_counter()\n"
        assert lint_source(good, "src/repro/partitioning/kmeans.py").clean

    def test_non_repro_files_are_out_of_scope(self):
        ok = "import time\nnow = time.time()\n"
        assert lint_source(ok, "benchmarks/bench_example.py").clean
        assert lint_source(ok, TEST_PATH).clean


# ----------------------------------------------------------------- R3 fixtures
class TestTimeUnitMix:
    def test_catches_us_assigned_from_seconds(self):
        result = lint_source("timeout_us = window_s\n", SRC_PATH)
        assert rule_ids(result) == ["R3"]

    def test_catches_keyword_argument_mismatch(self):
        result = lint_source("run(timeout_us=window_s)\n", SRC_PATH)
        assert rule_ids(result) == ["R3"]

    def test_allows_explicit_conversion_call(self):
        good = (
            "from repro.utils.units import s_to_us\n"
            "timeout_us = s_to_us(window_s)\n"
        )
        assert lint_source(good, SRC_PATH).clean

    def test_allows_arithmetic_conversion(self):
        assert lint_source("timeout_us = window_s * 1_000_000\n", SRC_PATH).clean

    def test_allows_same_unit_assignment(self):
        assert lint_source("timeout_us = other_us\n", SRC_PATH).clean


# ----------------------------------------------------------------- R4 fixtures
CONFIG_PATH = "src/repro/core/config.py"
DECLARED_HEADER = (
    "from dataclasses import dataclass\n"
    "from typing import Annotated, Optional\n"
    "from repro.utils.validation import AtLeast, Positive, validate_fields\n"
)


def lint_r4(source, rel_path):
    """R4 alone: the shared header imports more than each fixture reads."""
    return lint_source(source, rel_path, rules=[UnvalidatedConfigFieldRule()])


def declared_class(*field_lines, name="ServingConfig"):
    """A validated dataclass with the given field lines."""
    body = "".join(f"    {line}\n" for line in field_lines)
    return (
        DECLARED_HEADER
        + f"@dataclass(frozen=True)\nclass {name}:\n"
        + body
        + "    def __post_init__(self):\n        validate_fields(self)\n"
    )


class TestUnvalidatedConfigField:
    def test_catches_undeclared_scalar_field(self):
        # An undeclared scalar field: validate_fields type-checks it but has
        # no range to apply.
        bad = declared_class(
            "batch_size: Annotated[int, AtLeast(1)] = 8", "linger_us: float = 50.0"
        )
        result = lint_r4(bad, CONFIG_PATH)
        assert rule_ids(result) == ["R4"]
        assert "linger_us" in result.violations[0].message
        assert "declares no constraint" in result.violations[0].message

    def test_catches_missing_validator_entirely(self):
        bad = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class ClusterConfig:\n"
            "    num_nodes: int = 4\n"
        )
        result = lint_source(bad, CONFIG_PATH)
        assert rule_ids(result) == ["R4"]

    def test_a_check_call_in_post_init_is_not_a_declaration(self):
        # The contract before constraints moved onto the fields: an ``int``
        # field checked by ``check_positive`` passed, and 2.5 constructed.
        bad = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class ServingConfig:\n"
            "    batch_size: int = 8\n"
            "    def __post_init__(self):\n"
            "        check_positive(self.batch_size, 'batch_size')\n"
        )
        result = lint_source(bad, CONFIG_PATH)
        assert rule_ids(result) == ["R4"]
        assert "validate_fields" in result.violations[0].message

    def test_catches_int_field_with_a_float_only_constraint(self):
        bad = declared_class("batch_size: Annotated[int, Positive] = 8")
        result = lint_r4(bad, CONFIG_PATH)
        assert rule_ids(result) == ["R4"]
        assert "is int, but `Positive` fits float only" in result.violations[0].message

    def test_catches_int_field_with_a_float_minimum(self):
        bad = declared_class("batch_size: Annotated[int, AtLeast(1.0)] = 8")
        assert rule_ids(lint_r4(bad, CONFIG_PATH)) == ["R4"]

    def test_catches_none_default_without_optional(self):
        bad = declared_class("seed: Annotated[int, AtLeast(0)] = None")
        result = lint_r4(bad, CONFIG_PATH)
        assert rule_ids(result) == ["R4"]
        assert "defaults to None but is not Optional[int]" in result.violations[0].message

    def test_catches_unknown_constraint(self):
        bad = declared_class("rate: Annotated[float, Huge] = 1.0")
        result = lint_r4(bad, CONFIG_PATH)
        assert rule_ids(result) == ["R4"]
        assert "is not a constraint" in result.violations[0].message

    def test_passes_when_every_field_declares_a_fitting_constraint(self):
        good = declared_class(
            "batch_size: Annotated[int, AtLeast(1)] = 8",
            "rate: Annotated[float, Positive] = 1.0",
            "floor: Annotated[float, AtLeast(1.0)] = 1.0",
            "seed: Annotated[Optional[int], AtLeast(0)] = None",
            "cap: Annotated[int | None, AtLeast(1)] = None",
            "enabled: bool = True",
        )
        assert lint_source(good, CONFIG_PATH).clean

    def test_non_scalar_and_init_false_fields_are_exempt(self):
        good = declared_class(
            "steps: Sequence[int] = ()",
            "_count: int = field(default=0, init=False)",
        )
        assert lint_r4(good, CONFIG_PATH).clean

    def test_any_class_calling_validate_fields_is_checked(self):
        bad = declared_class("capacity: int = 1", name="DeviceModel")
        result = lint_r4(bad, "src/repro/nvm/device.py")
        assert rule_ids(result) == ["R4"]
        assert "DeviceModel" in result.violations[0].message

    def test_classvar_fields_are_ignored(self):
        good = (
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n"
            "@dataclass\n"
            "class BandanaConfig:\n"
            "    kind: ClassVar[str] = 'bandana'\n"
            "    def __post_init__(self):\n"
            "        pass\n"
        )
        assert lint_source(good, CONFIG_PATH).clean

    def test_other_class_names_are_out_of_scope(self):
        ok = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class SomeOtherConfig:\n"
            "    knob: int = 1\n"
        )
        assert lint_source(ok, CONFIG_PATH).clean

    def test_constraint_table_matches_the_validator(self):
        # R4 reads declarations statically; repro.utils.validation applies
        # them.  Both must agree on which field types each constraint fits.
        from repro.utils import validation

        runtime = {
            "Positive": validation.Positive,
            "NonNegative": validation.NonNegative,
            "Fraction": validation.Fraction,
            "NonEmpty": validation.NonEmpty,
            "AtLeast": validation.AtLeast(1),
            "OneOf": validation.OneOf(1, "a"),
        }
        assert set(runtime) == set(CONSTRAINT_TYPES)
        for name, constraint in runtime.items():
            assert {t.__name__ for t in constraint.types} == set(CONSTRAINT_TYPES[name])
        assert validation.AtLeast(1.0).types == (float,)
        assert set(SCALAR_TYPES) == {t.__name__ for t in validation.SCALAR_TYPES}


# ----------------------------------------------------------------- R5 fixtures
class TestFloatEquality:
    def test_catches_float_literal_equality(self):
        result = lint_source("assert report.hit_rate == 0.5\n", TEST_PATH)
        assert rule_ids(result) == ["R5"]

    def test_catches_negated_float_literal(self):
        result = lint_source("assert delta != -0.25\n", TEST_PATH)
        assert rule_ids(result) == ["R5"]

    def test_allows_pytest_approx(self):
        good = (
            "import pytest\n"
            "def test_x():\n"
            "    assert report.hit_rate == pytest.approx(0.5)\n"
        )
        assert lint_source(good, TEST_PATH).clean

    def test_allows_integer_equality(self):
        assert lint_source("assert count == 3\n", TEST_PATH).clean

    def test_only_applies_to_tests(self):
        src = "ok = value == 0.5\n"
        assert lint_source(src, SRC_PATH).clean
        assert not lint_source(src, TEST_PATH).clean


# --------------------------------------------------------------- suppressions
# ----------------------------------------------------------------- R6 fixtures
class TestUnusedImport:
    def test_catches_unused_imports(self):
        bad = (
            "import numpy as np\n"
            "from typing import Dict, Optional\n"
            "def f(x: Dict[str, int]) -> int:\n"
            "    return len(x)\n"
        )
        result = lint_source(bad, SRC_PATH)
        assert rule_ids(result) == ["R6", "R6"]
        assert {v.message for v in result.violations} == {
            "`np` is imported but never used",
            "`Optional` is imported but never used",
        }

    def test_allows_re_exports_string_annotations_and_noqa(self):
        # __init__.py re-exports anything; elsewhere __all__ names, names
        # read only in string annotations and # noqa lines are exempt.
        reexport = "from repro.workloads.trace import Trace\n"
        assert lint_source(reexport, "src/repro/workloads/__init__.py").clean
        good = (
            "from __future__ import annotations\n"
            "import _bootstrap  # noqa: F401\n"
            "import os.path\n"
            "from typing import TYPE_CHECKING, List\n"
            "from repro.caching.replay import ReplayStats\n"
            "if TYPE_CHECKING:\n"
            "    from repro.workloads.trace import Trace\n"
            "__all__ = ['ReplayStats']\n"
            "def f(trace: List['Trace']) -> str:\n"
            "    return os.path.join('a', 'b')\n"
        )
        assert lint_source(good, SRC_PATH).clean


class TestSuppressions:
    def test_disable_comment_suppresses_violation(self):
        src = "import time\nnow = time.time()  # repro-lint: disable=R2\n"
        result = lint_source(src, SRC_PATH)
        assert result.clean
        assert result.suppressed == 1

    def test_disable_comment_is_rule_scoped(self):
        # The comment names R1 but the violation is R2: not suppressed, and
        # the unused R1 suppression is itself reported.
        src = "import time\nnow = time.time()  # repro-lint: disable=R1\n"
        result = lint_source(src, SRC_PATH)
        assert rule_ids(result) == [META_RULE_ID, "R2"]

    def test_multiple_rules_in_one_comment(self):
        src = (
            "import random  # repro-lint: disable=R1\n"
            "def test_x():\n"
            "    assert random.random() == 0.5  # repro-lint: disable=R1,R5\n"
        )
        result = lint_source(src, TEST_PATH)
        assert result.clean
        assert result.suppressed == 3

    def test_unused_suppression_is_reported(self):
        src = "x = 1  # repro-lint: disable=R5\n"
        result = lint_source(src, TEST_PATH)
        assert rule_ids(result) == [META_RULE_ID]
        assert "unused suppression" in result.violations[0].message

    def test_unknown_rule_id_is_reported(self):
        src = "x = 1  # repro-lint: disable=R99\n"
        result = lint_source(src, SRC_PATH)
        assert rule_ids(result) == [META_RULE_ID]
        assert "R99" in result.violations[0].message


# ------------------------------------------------------------------ reporters
class TestReporters:
    def _dirty_result(self):
        return lint_source("import time\nnow = time.time()\n", SRC_PATH)

    def test_text_report_format(self):
        text = render_text(self._dirty_result())
        assert f"{SRC_PATH}:2:" in text
        assert "R2" in text
        assert "repro-lint: 1 violation in 1 files (0 suppressed)" in text

    def test_json_schema(self):
        doc = to_json_dict(self._dirty_result())
        assert doc["schema_version"] == JSON_SCHEMA_VERSION
        assert doc["clean"] is False
        assert doc["files_checked"] == 1
        assert doc["suppressed"] == 0
        assert doc["violation_counts"] == {"R2": 1}
        (violation,) = doc["violations"]
        assert set(violation) == {"rule", "name", "path", "line", "col", "message"}
        assert violation["rule"] == "R2"
        assert violation["name"] == "wall-clock"
        assert violation["path"] == SRC_PATH
        assert violation["line"] == 2

    def test_json_round_trips(self):
        from repro_lint import render_json

        doc = json.loads(render_json(self._dirty_result()))
        assert doc["schema_version"] == JSON_SCHEMA_VERSION


# ---------------------------------------------------------------- file walker
class TestWalkerAndPaths:
    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "caching"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import time\nnow = time.time()\n")
        (pkg / "good.py").write_text("x = 1\n")
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "bad.py").write_text("import time\nt = time.time()\n")
        result = lint_paths(["src"], root=tmp_path)
        assert result.files_checked == 2  # __pycache__ skipped
        assert rule_ids(result) == ["R2"]
        assert result.violations[0].path == "src/repro/caching/bad.py"

    def test_syntax_error_becomes_meta_violation(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        result = lint_paths([str(bad)], root=tmp_path)
        assert rule_ids(result) == [META_RULE_ID]
        assert "does not parse" in result.violations[0].message

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths(["no/such/dir"], root=tmp_path)


# ------------------------------------------------------------------------ CLI
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["--root", str(tmp_path), "ok.py"]) == 0

    def test_exit_one_on_violations(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nnow = time.time()\n")
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "sim.py").write_text("import time\nnow = time.time()\n")
        assert main(["--root", str(tmp_path), "src"]) == 1
        assert "R2" in capsys.readouterr().out

    def test_exit_two_on_usage_error(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path)]) == 2
        assert main(["--root", str(tmp_path), "nope"]) == 2

    def test_json_output(self, tmp_path, capsys):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "sim.py").write_text("import time\nnow = time.time()\n")
        assert main(["--root", str(tmp_path), "--json", "src"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == JSON_SCHEMA_VERSION
        assert doc["violation_counts"] == {"R2": 1}

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in sorted(known_rule_ids() - {META_RULE_ID}):
            assert rule_id in out

    def test_module_entry_point(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro_lint", "--root", str(tmp_path), "ok.py"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------- import tracking
class TestFileContext:
    def test_module_resolution(self):
        ctx = FileContext("x", "pass", rel_path="src/repro/caching/engine.py")
        assert ctx.module == "repro.caching.engine"
        assert not ctx.is_test

    def test_test_detection(self):
        ctx = FileContext("x", "pass", rel_path="tests/test_engine.py")
        assert ctx.module is None
        assert ctx.is_test

    def test_dotted_name_expands_aliases(self):
        ctx = FileContext(
            "x",
            "import numpy as np\nfrom time import perf_counter as pc\n",
            rel_path=SRC_PATH,
        )
        import ast as ast_mod

        node = ast_mod.parse("np.random.seed").body[0].value
        assert ctx.dotted_name(node) == "numpy.random.seed"
        node = ast_mod.parse("pc").body[0].value
        assert ctx.dotted_name(node) == "time.perf_counter"


# ------------------------------------------------------------------ self-check
class TestRepoSelfCheck:
    def test_repo_is_lint_clean(self, repo_lint_result):
        result = repo_lint_result
        assert result.files_checked > 50
        dirty = "\n".join(
            f"{v.path}:{v.line} {v.rule} {v.message}"
            for v in result.sorted_violations()
        )
        assert result.clean, f"repo must be repro-lint clean:\n{dirty}"


# -------------------------------------------------------- flow-reachability audit
TOY_MODULE = '''\
import functools


def used():
    return 1


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


def unused():
    return 3


class Box:
    def used_method(self):
        return used()

    def unused_method(self):
        return 4
'''

#: Drops "its" profiler, re-installs the current one, runs a call counter of
#: its own (perfbench's timing pattern) and writes a file into the tree.
TOY_FLOW = '''\
import sys

from toy.mod import Box, decorated

sys.setprofile(None)
sys.setprofile(sys.getprofile())
events = []
sys.setprofile(lambda frame, event, arg: events.append(event))
Box().used_method()
sys.setprofile(None)
assert "call" in events, "the flow's own profiler must still see its calls"
decorated()
with open("written.txt", "w") as handle:
    handle.write("flow output")
'''

TOY_FLOWS = (reach.Flow("toy", ("flow.py",)),)
TOY_PACKAGE = "src/toy"


def toy_key(qualname):
    return f"src/toy/mod.py::{qualname}"


@pytest.fixture
def toy_tree(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY_MODULE)
    (tmp_path / "flow.py").write_text(TOY_FLOW)
    return tmp_path


def write_reach(root, verdicts, figure_only=(), fields=None, params=None):
    doc = {
        "verdicts": verdicts,
        "figure_only": list(figure_only),
        "fields": fields or {},
        "params": params or {},
    }
    (root / reach.REACH_FILE).write_text(json.dumps(doc))


#: A config class R4 knows by name.  ``steps`` is normalised to a tuple, so
#: the flow's ``[1, 2]`` equals the default and is not a setting.
TOY_CONFIG = '''\
import dataclasses
from typing import Sequence


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    rate: float = 1.0
    depth: int = 4
    steps: Sequence[int] = (1, 2)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        assert self.rate > 0 and self.depth > 0
'''

CONFIG_FLOWS = TOY_FLOWS + (reach.Flow("configs", ("config_flow.py",)),)
#: Verdicts for the toy module's unreached defs, so only fields are at issue.
TOY_VERDICTS = {toy_key("unused"): "keep: toy", toy_key("Box.unused_method"): "keep: toy"}


def conf_key(field):
    return f"src/toy/conf.py::ScenarioConfig.{field}"


#: Defaulted parameters: a positional tail, a keyword-only one, one an array
#: sets, a method's, and a generator's that its body rebinds.
TOY_PARAMS = '''\
def scale(values, factor=1.0, *, offset=0):
    return [v * factor + offset for v in values]


def pick(values, weights=None):
    return values if weights is None else weights


def countdown(start=3):
    while start:
        yield start
        start -= 1


class Meter:
    def read(self, unit="us"):
        return unit
'''

#: Sets ``factor`` (a value) and ``weights`` (an array); passes ``offset`` and
#: ``unit`` only as their defaults; rebinds ``start`` inside the generator.
PARAMS_FLOW = '''\
import numpy as np

from toy.params import Meter, countdown, pick, scale

scale([1], factor=2.0)
scale([1], offset=0)
pick([1], weights=np.zeros(3))
Meter().read("us")
assert list(countdown()) == [3, 2, 1]
'''

PARAM_FLOWS = TOY_FLOWS + (reach.Flow("params", ("params_flow.py",)),)


def param_key(qualname):
    return f"src/toy/params.py::{qualname}"


@pytest.fixture
def param_tree(toy_tree):
    (toy_tree / "src" / "toy" / "params.py").write_text(TOY_PARAMS)
    (toy_tree / "params_flow.py").write_text(PARAMS_FLOW)
    return toy_tree


#: Verdicts for the parameters the toy flow never sets but one.
UNSET_PARAMS = {
    param_key("scale(offset)"): "keep: toy",
    param_key("countdown(start)"): "keep: toy",
}


#: Defaults behind the shapes the recorder has to unwrap: a decorated
#: function, a closure, a static and a class method; and, for the AST side,
#: positional-only, keyword-only, starred, async and lambda parameters.
TOY_SHAPES = '''\
import functools


def traced(function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return function(*args, **kwargs)

    return wrapper


@traced
def wrapped(x, limit=10):
    return min(x, limit)


def outer(scale=1):
    def inner(x, shift=0):
        return x * scale + shift

    return inner


class Shapes:
    @staticmethod
    def static(x, base=2):
        return x**base

    @classmethod
    def build(cls, size=1):
        return size


def positional(a, b=1, /, c=2, *args, d, e=3, **kwargs):
    return a


async def fetch(key, timeout=1.0):
    return key


handler = lambda event=None: event
'''

#: Sets every defaulted parameter of the shapes but ``outer``'s.
SHAPES_FLOW = '''\
from toy.shapes import Shapes, outer, wrapped

assert wrapped(5, limit=3) == 3
assert outer()(1, shift=4) == 5
assert Shapes.static(3, base=3) == 27
assert Shapes.build(size=2) == 2
'''


def shape_key(qualname):
    return f"src/toy/shapes.py::{qualname}"


@pytest.fixture
def shapes_tree(toy_tree):
    (toy_tree / "src" / "toy" / "shapes.py").write_text(TOY_SHAPES)
    (toy_tree / "shapes_flow.py").write_text(SHAPES_FLOW)
    return toy_tree


class _Unanswerable:
    def __eq__(self, other):
        raise ValueError("no truth value")


_DEFAULT_ARRAY = np.zeros(3)


@pytest.fixture
def config_tree(toy_tree):
    (toy_tree / "src" / "toy" / "conf.py").write_text(TOY_CONFIG)
    (toy_tree / "config_flow.py").write_text(
        "from toy.conf import ScenarioConfig\n\nScenarioConfig(rate=2.0, steps=[1, 2])\n"
    )
    return toy_tree


class TestReach:
    def test_function_defs_key_decorated_defs_by_decorator_line(self, toy_tree):
        defs = reach.function_defs(toy_tree, TOY_PACKAGE)
        lines = {key: line for (_path, line), (key, _n) in defs.items()}
        assert lines[toy_key("decorated")] == TOY_MODULE.splitlines().index(
            "@functools.lru_cache(maxsize=None)"
        ) + 1
        assert set(lines) == {
            toy_key(name)
            for name in ("used", "decorated", "unused", "Box.used_method", "Box.unused_method")
        }

    def test_reach_survives_the_flow_resetting_the_profiler(self, toy_tree):
        reached = reach.run_flows(toy_tree, TOY_FLOWS, TOY_PACKAGE)
        defs = reach.function_defs(toy_tree, TOY_PACKAGE)
        keys = {defs[site][0] for site in reached["toy"].sites}
        assert keys == {toy_key("used"), toy_key("decorated"), toy_key("Box.used_method")}

    def test_flow_writes_leave_the_real_tree_clean(self, toy_tree):
        before = sorted(p.relative_to(toy_tree) for p in toy_tree.rglob("*"))
        reach.run_flows(toy_tree, TOY_FLOWS, TOY_PACKAGE)
        assert sorted(p.relative_to(toy_tree) for p in toy_tree.rglob("*")) == before
        assert not (toy_tree / "written.txt").exists()

    def test_unreached_def_without_verdict_fails(self, toy_tree):
        write_reach(toy_tree, {toy_key("unused"): "keep: toy"})
        problems = reach.check(toy_tree, TOY_FLOWS, TOY_PACKAGE)
        assert problems == [f"unreached without verdict: {toy_key('Box.unused_method')}"]

    def test_every_unreached_def_with_a_verdict_passes(self, toy_tree):
        write_reach(
            toy_tree,
            {toy_key("unused"): "delete", toy_key("Box.unused_method"): "keep: toy"},
        )
        assert reach.check(toy_tree, TOY_FLOWS, TOY_PACKAGE) == []

    def test_stale_and_malformed_entries_fail(self, toy_tree):
        write_reach(
            toy_tree,
            {
                toy_key("unused"): "maybe later",
                toy_key("Box.unused_method"): "keep: toy",
                toy_key("gone"): "keep: deleted since",
                toy_key("used"): "keep: now reached",
            },
            figure_only=[toy_key("decorated")],
        )
        problems = reach.check(toy_tree, TOY_FLOWS, TOY_PACKAGE)
        assert any("bad verdict" in p and toy_key("unused") in p for p in problems)
        assert f"stale verdict: {toy_key('gone')} no longer exists" in problems
        assert f"stale verdict: {toy_key('used')} is reached by toy" in problems
        assert f"stale figure_only: {toy_key('decorated')} is reached by toy" in problems
        assert len(problems) == 4

    def test_write_keeps_verdicts_and_splits_figure_only(self, toy_tree):
        (toy_tree / "figures.py").write_text("from toy.mod import unused\nunused()\n")
        flows = TOY_FLOWS + (reach.Flow("figures", ("figures.py",), cheap=False),)
        write_reach(toy_tree, {toy_key("Box.unused_method"): "keep: toy"})
        summary = reach.write(toy_tree, flows, TOY_PACKAGE)
        doc = reach.load_reach(toy_tree)
        assert doc == {
            "verdicts": {toy_key("Box.unused_method"): "keep: toy"},
            "figure_only": [toy_key("unused")],
            "fields": {},
            "params": {},
        }
        assert summary["unreached"] == 1 and summary["missing_verdicts"] == 0
        # The check, which runs only the cheap flows, accepts the result.
        assert reach.check(toy_tree, flows, TOY_PACKAGE) == []

    def test_failing_flow_is_an_error_not_an_undercount(self, toy_tree):
        (toy_tree / "broken.py").write_text("raise SystemExit(3)\n")
        with pytest.raises(reach.FlowFailed, match="exited 3"):
            reach.run_flows(toy_tree, (reach.Flow("broken", ("broken.py",)),), TOY_PACKAGE)

    def test_set_fields_are_compared_after_normalisation(self, config_tree):
        assert reach.config_fields(config_tree, TOY_PACKAGE) == {
            conf_key("rate"), conf_key("depth"), conf_key("steps")
        }
        reached = reach.run_flows(config_tree, CONFIG_FLOWS, TOY_PACKAGE)
        # ``steps=[1, 2]`` is the default once __post_init__ froze it.
        assert reached["configs"].fields == {conf_key("rate")}
        assert reached["toy"].fields == set()

    def test_never_set_field_without_verdict_fails(self, config_tree):
        write_reach(config_tree, TOY_VERDICTS, fields={conf_key("depth"): "keep: toy"})
        problems = reach.check(config_tree, CONFIG_FLOWS, TOY_PACKAGE)
        assert problems == [f"never-set field without verdict: {conf_key('steps')}"]

    def test_stale_and_malformed_field_entries_fail(self, config_tree):
        write_reach(
            config_tree,
            TOY_VERDICTS,
            fields={
                conf_key("depth"): "keep: toy",
                conf_key("steps"): "later",
                conf_key("gone"): "keep: deleted since",
                conf_key("rate"): "keep: a flow sets it now",
            },
        )
        problems = reach.check(config_tree, CONFIG_FLOWS, TOY_PACKAGE)
        assert f"stale field verdict: {conf_key('gone')} no longer exists" in problems
        assert f"stale field verdict: {conf_key('rate')} is set by configs" in problems
        assert any("bad verdict" in p and conf_key("steps") in p for p in problems)
        assert len(problems) == 3

    def test_write_keeps_field_verdicts(self, config_tree):
        write_reach(
            config_tree,
            TOY_VERDICTS,
            fields={conf_key("depth"): "keep: toy", conf_key("gone"): "keep: stale"},
        )
        summary = reach.write(config_tree, CONFIG_FLOWS, TOY_PACKAGE)
        doc = reach.load_reach(config_tree)
        assert doc["fields"] == {conf_key("depth"): "keep: toy", conf_key("steps"): ""}
        assert summary["fields"] == 3 and summary["never_set"] == 2
        assert summary["missing_verdicts"] == 1

    def test_field_without_default_is_set_and_default_factory_is_compared(
        self, config_tree
    ):
        (config_tree / "src" / "toy" / "loader.py").write_text(
            "import dataclasses\n"
            "from typing import Tuple\n\n\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class TraceLoaderConfig:\n"
            "    path: str\n"
            "    labels: Tuple[str, ...] = dataclasses.field(default_factory=tuple)\n\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'labels', tuple(self.labels))\n"
        )
        (config_tree / "loader_flow.py").write_text(
            "from toy.loader import TraceLoaderConfig\n\n"
            "TraceLoaderConfig(path='trace.npz', labels=[])\n"
        )
        flows = (reach.Flow("loader", ("loader_flow.py",)),)
        reached = reach.run_flows(config_tree, flows, TOY_PACKAGE)
        # ``path`` has no default, so it is always set; ``labels=[]`` is the
        # factory's ``()`` once __post_init__ froze it.
        assert reached["loader"].fields == {"src/toy/loader.py::TraceLoaderConfig.path"}

    def test_config_class_outside_the_package_is_not_recorded(self, config_tree):
        # Same name as a config class under the package, but defined by the
        # flow itself: its settings are not the package's.
        (config_tree / "local_flow.py").write_text(
            "import dataclasses\n\n\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class ScenarioConfig:\n"
            "    rate: float = 1.0\n\n"
            "    def __post_init__(self):\n"
            "        assert self.rate > 0\n\n\n"
            "ScenarioConfig(rate=3.0)\n"
        )
        flows = (reach.Flow("local", ("local_flow.py",)),)
        reached = reach.run_flows(config_tree, flows, TOY_PACKAGE)
        assert reached["local"].fields == set()

    def test_param_defaults_are_the_positional_tail_and_keyword_only(self, param_tree):
        assert reach.param_defaults(param_tree, TOY_PACKAGE) == {
            param_key(name)
            for name in (
                "scale(factor)",
                "scale(offset)",
                "pick(weights)",
                "countdown(start)",
                "Meter.read(unit)",
            )
        }

    def test_a_param_is_set_by_a_value_or_an_array_not_by_its_default(self, param_tree):
        reached = reach.run_flows(param_tree, PARAM_FLOWS, TOY_PACKAGE)
        # ``offset=0`` and ``"us"`` are the defaults; ``countdown`` rebinds
        # ``start`` between resumptions, which is no call setting it.
        assert reached["params"].params == {
            param_key("scale(factor)"),
            param_key("pick(weights)"),
        }
        assert reached["toy"].params == set()

    def test_never_set_param_without_verdict_fails(self, param_tree):
        write_reach(param_tree, TOY_VERDICTS, params=UNSET_PARAMS)
        problems = reach.check(param_tree, PARAM_FLOWS, TOY_PACKAGE)
        assert problems == [
            f"never-set parameter without verdict: {param_key('Meter.read(unit)')}"
        ]

    def test_params_a_flow_sets_need_no_verdict(self, param_tree):
        params = {**UNSET_PARAMS, param_key("Meter.read(unit)"): "keep: toy"}
        write_reach(param_tree, TOY_VERDICTS, params=params)
        assert reach.check(param_tree, PARAM_FLOWS, TOY_PACKAGE) == []

    def test_stale_and_malformed_param_entries_fail(self, param_tree):
        write_reach(
            param_tree,
            TOY_VERDICTS,
            params={
                **UNSET_PARAMS,
                param_key("Meter.read(unit)"): "later",
                param_key("scale(factor)"): "keep: a flow sets it now",
                param_key("scale(gone)"): "keep: deleted since",
            },
        )
        problems = reach.check(param_tree, PARAM_FLOWS, TOY_PACKAGE)
        assert f"stale param verdict: {param_key('scale(gone)')} no longer exists" in problems
        assert f"stale param verdict: {param_key('scale(factor)')} is set by params" in problems
        assert any("bad verdict" in p and param_key("Meter.read(unit)") in p for p in problems)
        assert len(problems) == 3

    def test_write_keeps_param_verdicts(self, param_tree):
        write_reach(
            param_tree,
            TOY_VERDICTS,
            params={param_key("scale(offset)"): "keep: toy", param_key("gone(x)"): "keep: stale"},
        )
        summary = reach.write(param_tree, PARAM_FLOWS, TOY_PACKAGE)
        doc = reach.load_reach(param_tree)
        assert doc["params"] == {
            param_key("scale(offset)"): "keep: toy",
            param_key("countdown(start)"): "",
            param_key("Meter.read(unit)"): "",
        }
        assert summary["params"] == 5 and summary["params_never_set"] == 3
        assert summary["missing_verdicts"] == 2

    def test_param_defaults_of_every_parameter_shape(self, shapes_tree):
        # Only ``def`` parameters with a default count: not ``d`` (keyword-only
        # without one), not ``*args`` / ``**kwargs``, not a lambda's.
        keys = {key for key in reach.param_defaults(shapes_tree, TOY_PACKAGE) if "shapes" in key}
        assert keys == {
            shape_key(name)
            for name in (
                "wrapped(limit)",
                "outer(scale)",
                "outer.<locals>.inner(shift)",
                "Shapes.static(base)",
                "Shapes.build(size)",
                "positional(b)",
                "positional(c)",
                "positional(e)",
                "fetch(timeout)",
            )
        }

    def test_decorated_nested_static_and_class_methods_are_recorded(self, shapes_tree):
        flows = (reach.Flow("shapes", ("shapes_flow.py",)),)
        reached = reach.run_flows(shapes_tree, flows, TOY_PACKAGE)
        assert reached["shapes"].params == {
            shape_key("wrapped(limit)"),
            shape_key("outer.<locals>.inner(shift)"),
            shape_key("Shapes.static(base)"),
            shape_key("Shapes.build(size)"),
        }

    @pytest.mark.parametrize(
        "value, default, is_default",
        [
            (None, None, True),
            (0, 0, True),
            (0.0, 0, True),
            (np.float64(2.5), 2.5, True),
            ("us", "us", True),
            ((1, 2), (1, 2), True),
            (_DEFAULT_ARRAY, _DEFAULT_ARRAY, True),
            (1, 0, False),
            (None, 0, False),
            (0, None, False),
            ("ms", "us", False),
            (np.zeros(3), None, False),
            (np.array([1.0]), 1.0, False),
            (np.zeros(3), _DEFAULT_ARRAY, False),
            (_Unanswerable(), 0, False),
        ],
        ids=[
            "none-is-none",
            "equal-int",
            "equal-float-and-int",
            "numpy-scalar",
            "equal-str",
            "equal-tuple",
            "the-default-array-itself",
            "other-int",
            "none-for-int",
            "int-for-none",
            "other-str",
            "array-for-none",
            "array-equal-to-scalar",
            "equal-but-other-array",
            "eq-raises",
        ],
    )
    def test_argument_is_default_by_identity_then_equality(self, value, default, is_default):
        # An array is always a setting unless it is the default object
        # itself; an ``__eq__`` that cannot answer counts as set.
        assert reach._is_default_arg(value, default) is is_default

    def test_committed_reach_file_is_consistent_with_the_tree(self):
        # The static half of ``--check``: no flow runs, so this stays cheap.
        doc = reach.load_reach(REPO_ROOT)
        keys = {key for key, _lines in reach.function_defs(REPO_ROOT).values()}
        verdicts = doc["verdicts"]
        assert set(verdicts) <= keys and set(doc["figure_only"]) <= keys
        assert not set(verdicts) & set(doc["figure_only"])
        bad = {k: v for k, v in verdicts.items() if not reach.VERDICT_RE.match(v)}
        assert bad == {}
        fields = doc["fields"]
        assert set(fields) <= reach.config_fields(REPO_ROOT)
        assert {k: v for k, v in fields.items() if not v.startswith("keep: ")} == {}
        params = doc["params"]
        assert set(params) <= reach.param_defaults(REPO_ROOT)
        assert {k: v for k, v in params.items() if not v.startswith("keep: ")} == {}
