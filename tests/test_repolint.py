"""Determinism lint (``tools/repolint.py``)."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "repolint", REPO_ROOT / "tools" / "repolint.py"
)
repolint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(repolint)


def lint_source(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return repolint.lint_paths([str(path)])


class TestGlobalRandom:
    def test_unseeded_global_rng_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py", "import random\nx = random.random()\n"
        )
        assert [f.code for f in findings] == ["RL001"]
        assert findings[0].line == 2

    def test_seeded_instance_allowed(self, tmp_path):
        assert not lint_source(
            tmp_path, "mod.py", "import random\nrng = random.Random(7)\n"
        )

    def test_flagged_anywhere_not_just_core(self, tmp_path):
        findings = lint_source(
            tmp_path, "cli/main.py", "import random\nrandom.shuffle([])\n"
        )
        assert [f.code for f in findings] == ["RL001"]


class TestWallClock:
    def test_time_time_flagged_in_core(self, tmp_path):
        findings = lint_source(
            tmp_path, "core/monitor.py", "import time\nt = time.time()\n"
        )
        assert [f.code for f in findings] == ["RL002"]

    def test_datetime_now_flagged_in_testing(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "testing/campaign.py",
            "import datetime\nnow = datetime.datetime.now()\n",
        )
        assert [f.code for f in findings] == ["RL002"]

    def test_wall_clock_fine_outside_deterministic_subtrees(self, tmp_path):
        assert not lint_source(
            tmp_path, "obs/timing.py", "import time\nt = time.time()\n"
        )

    def test_monotonic_sources_fine_everywhere(self, tmp_path):
        assert not lint_source(
            tmp_path,
            "core/monitor.py",
            "import time\na = time.perf_counter()\nb = time.monotonic()\n",
        )


class TestAsyncBlocking:
    def test_time_sleep_flagged_in_fleet_async(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "fleet/service.py",
            "import time\nasync def run():\n    time.sleep(1)\n",
        )
        assert [f.code for f in findings] == ["RL003"]
        assert findings[0].line == 3

    def test_sync_socket_use_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "fleet/service.py",
            "import socket\n"
            "async def dial():\n"
            "    sock = socket.create_connection(('h', 1))\n",
        )
        assert [f.code for f in findings] == ["RL003"]

    def test_sync_http_use_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "fleet/push.py",
            "import http.client\n"
            "import urllib.request\n"
            "async def push():\n"
            "    conn = http.client.HTTPConnection('h')\n"
            "    urllib.request.urlopen('http://h')\n",
        )
        assert [f.code for f in findings] == ["RL003", "RL003"]
        assert [f.line for f in findings] == [4, 5]

    def test_asyncio_sleep_allowed(self, tmp_path):
        assert not lint_source(
            tmp_path,
            "fleet/service.py",
            "import asyncio\nasync def run():\n    await asyncio.sleep(1)\n",
        )

    def test_sleep_in_sync_function_allowed(self, tmp_path):
        # Blocking in plain functions is fine (executors call them
        # off-loop), even in a module that also has async defs.
        assert not lint_source(
            tmp_path,
            "fleet/service.py",
            "import time\n"
            "async def run():\n"
            "    pass\n"
            "def worker():\n"
            "    time.sleep(1)\n",
        )

    def test_sync_helper_nested_in_async_allowed(self, tmp_path):
        assert not lint_source(
            tmp_path,
            "fleet/service.py",
            "import time\n"
            "async def run():\n"
            "    def block():\n"
            "        time.sleep(1)\n"
            "    return block\n",
        )

    def test_blocking_fine_outside_fleet(self, tmp_path):
        assert not lint_source(
            tmp_path,
            "obs/poller.py",
            "import time\nasync def run():\n    time.sleep(1)\n",
        )


class TestListRoundTrips:
    def test_tolist_flagged_in_core(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "core/evaluator.py",
            "def f(col):\n    return col.tolist()\n",
        )
        assert [f.code for f in findings] == ["RL004"]
        assert "tolist" in findings[0].message

    def test_tolist_flagged_in_logs(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "logs/trace.py",
            "def f(values):\n    return values.tolist()\n",
        )
        assert [f.code for f in findings] == ["RL004"]

    def test_array_of_list_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "core/windows.py",
            "import numpy as np\n"
            "def f(xs):\n"
            "    return np.array(list(xs))\n",
        )
        assert [f.code for f in findings] == ["RL004"]
        assert "np.array(list" in findings[0].message

    def test_serialization_modules_allowlisted(self, tmp_path):
        assert not lint_source(
            tmp_path,
            "logs/format.py",
            "def dump(col):\n    return col.tolist()\n",
        )
        # The trace-file serializer is the only allowlisted module; any
        # other logs/ file is a hot path.
        findings = lint_source(
            tmp_path,
            "logs/store.py",
            "import numpy as np\n"
            "def load(xs):\n"
            "    return np.array(list(xs))\n",
        )
        assert [f.code for f in findings] == ["RL004"]

    def test_fine_outside_hot_paths(self, tmp_path):
        assert not lint_source(
            tmp_path, "obs/metrics.py", "def f(col):\n    return col.tolist()\n"
        )
        assert not lint_source(
            tmp_path,
            "cli.py",
            "import numpy as np\nx = np.array(list(range(3)))\n",
        )

    def test_asarray_and_plain_array_allowed(self, tmp_path):
        assert not lint_source(
            tmp_path,
            "core/resampler.py",
            "import numpy as np\n"
            "a = np.asarray([1, 2])\n"
            "b = np.array([1, 2])\n"
            "c = np.fromiter(range(3), dtype=float)\n",
        )

    def test_tolist_with_args_is_not_the_ndarray_method(self, tmp_path):
        # Some APIs spell a parameterised conversion `obj.tolist(copy)`;
        # only the zero-arg ndarray signature is the boxing round-trip.
        assert not lint_source(
            tmp_path, "core/oracle.py", "def f(o):\n    return o.tolist(1)\n"
        )


class TestLayering:
    def test_module_level_testing_import_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "analysis/audit.py",
            "from repro.testing.campaign import table1_tests\n",
        )
        assert [f.code for f in findings] == ["RL005"]
        assert "repro.testing" in findings[0].message

    def test_module_level_fleet_import_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "analysis/rollups.py", "import repro.fleet.shard\n"
        )
        assert [f.code for f in findings] == ["RL005"]
        assert "repro.fleet" in findings[0].message

    def test_from_repro_import_package_flagged(self, tmp_path):
        # `from repro import testing` only names the package through
        # its alias list, but binds the same module at import time.
        findings = lint_source(
            tmp_path, "analysis/checks.py", "from repro import testing\n"
        )
        assert [f.code for f in findings] == ["RL005"]

    def test_one_finding_per_statement(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "analysis/audit.py",
            "from repro.testing.campaign import InjectionTest, table1_tests\n",
        )
        assert [f.code for f in findings] == ["RL005"]

    def test_function_level_import_allowed(self, tmp_path):
        # The sanctioned lazy pattern audit.py uses: the harness only
        # loads when a caller actually crosses the layer boundary.
        assert not lint_source(
            tmp_path,
            "analysis/audit.py",
            "def planned(tests):\n"
            "    from repro.testing.campaign import table1_tests\n"
            "    return table1_tests()\n",
        )

    def test_lower_layer_imports_allowed(self, tmp_path):
        assert not lint_source(
            tmp_path,
            "analysis/automata.py",
            "from repro.core.ast import Always\n"
            "from repro.analysis.intervals import Interval\n",
        )

    def test_harness_imports_fine_outside_analysis(self, tmp_path):
        assert not lint_source(
            tmp_path,
            "testing/campaign.py",
            "from repro.fleet.shard import StreamShard\n",
        )


class TestRealTree:
    def test_src_repro_is_clean(self):
        assert repolint.lint_paths([str(REPO_ROOT / "src" / "repro")]) == []

    def test_main_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "core" / "bad.py"
        dirty.parent.mkdir()
        dirty.write_text("import time\ntime.time()\n")
        assert repolint.main([str(dirty)]) == 1
        assert "RL002" in capsys.readouterr().out
        assert repolint.main([str(REPO_ROOT / "src" / "repro")]) == 0
        assert "clean" in capsys.readouterr().out
