"""The native kernels' build cache and the no-compiler fallback.

Faults are injected by substitution, as elsewhere in the suite: a
compiler lookup that finds nothing, a damaged cached library.
"""

import logging
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.obs import snapshot
from repro.predictors import make_predictor_spec
from repro.sim import native, simulate_vectorized, vectorized
from repro.sim.fsm_scan import segmented_counter_predictions
from repro.workloads import make_workload

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """An unloaded kernel library over an empty cache in ``tmp_path``;
    the suite's own library comes back afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(vectorized, "_TRACE_CACHE", weakref.WeakKeyDictionary())
    return tmp_path


@pytest.fixture
def counted_builds(monkeypatch):
    builds = []
    real = native.build

    def counting(cc, target):
        builds.append(target)
        return real(cc, target)

    monkeypatch.setattr(native, "build", counting)
    return builds


def _stream(seed=3, n=4000):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 64, size=n), rng.random(n) < 0.6


class TestFallback:
    def test_no_compiler_is_bit_identical_and_warns_once(
        self, fresh, monkeypatch, caplog
    ):
        trace = make_workload("espresso", length=3000, seed=2)
        specs = [
            make_predictor_spec("gshare", rows=64, cols=4),
            make_predictor_spec("pas", rows=16, cols=4, bht_entries=64,
                                bht_assoc=4),
            make_predictor_spec(
                "tournament",
                component_a=make_predictor_spec("bimodal", cols=64),
                component_b=make_predictor_spec("gshare", rows=64),
                chooser_rows=64,
            ),
        ]
        native_results = [simulate_vectorized(s, trace) for s in specs]
        native_stream = segmented_counter_predictions(*_stream())
        assert native._lib

        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(vectorized, "_TRACE_CACHE", weakref.WeakKeyDictionary())
        monkeypatch.setattr(native, "compiler", lambda: None)
        # An empty cache: the loader has to build and cannot.
        monkeypatch.setenv("XDG_CACHE_HOME", str(fresh / "empty"))
        with caplog.at_level(logging.WARNING, logger="repro.sim.native"):
            fallback = [simulate_vectorized(s, trace) for s in specs]
            fallback_stream = segmented_counter_predictions(*_stream())
        assert native.library() is None
        warnings = [r for r in caplog.records if r.name == "repro.sim.native"]
        assert len(warnings) == 1
        assert "unavailable" in warnings[0].getMessage()
        for fast, slow in zip(native_results, fallback):
            assert np.array_equal(fast.predictions, slow.predictions)
            assert fast.first_level_miss_rate == slow.first_level_miss_rate
        assert np.array_equal(native_stream, fallback_stream)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--benchmark", "compress", "--length", "2000",
             "--sizes", "4", "5", "--no-cache"],
            ["fig10", "--length", "2000", "--sizes", "4", "5", "--no-cache"],
        ],
        ids=["fig4", "fig10"],
    )
    def test_run_stdout_identical_without_compiler(
        self, fresh, monkeypatch, caplog, capsys, argv
    ):
        """``repro run`` through the Python loops prints the bytes the
        C kernels print, without one call into C."""
        if native.compiler() is None:
            pytest.skip("no C compiler")
        assert main(["run", *argv]) == 0
        assert snapshot()["counters"]["sim.native_calls"] > 0
        native_out = capsys.readouterr().out

        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(vectorized, "_TRACE_CACHE", weakref.WeakKeyDictionary())
        monkeypatch.setattr(native, "compiler", lambda: None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(fresh / "empty"))
        with caplog.at_level(logging.WARNING, logger="repro.sim.native"):
            assert main(["run", *argv]) == 0
        assert capsys.readouterr().out == native_out
        assert snapshot()["counters"]["sim.native_calls"] == 0
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "repro.sim.native"]
        assert len(warnings) == 1
        assert "native kernels unavailable" in warnings[0]

    def test_failed_build_falls_back(self, fresh, monkeypatch, caplog):
        monkeypatch.setattr(native, "compiler", lambda: "/bin/false")
        with caplog.at_level(logging.WARNING, logger="repro.sim.native"):
            assert native.library() is None
            assert native.library() is None
        assert len(caplog.records) == 1
        assert not list(fresh.rglob("*.so"))


class TestBuildCache:
    def test_built_under_xdg_cache_home(self, fresh, counted_builds):
        if native.compiler() is None:
            pytest.skip("no C compiler")
        assert native.library() is not None
        (built,) = counted_builds
        assert built.parent == fresh / "repro"
        assert built.exists()
        assert [p.name for p in built.parent.iterdir()] == [built.name]

    def test_second_load_does_not_compile(
        self, fresh, counted_builds, monkeypatch
    ):
        if native.compiler() is None:
            pytest.skip("no C compiler")
        assert native.library() is not None
        monkeypatch.setattr(native, "_lib", None)

        def no_compiler():
            raise AssertionError("the compiler was looked up")

        monkeypatch.setattr(native, "compiler", no_compiler)
        assert native.library() is not None
        assert len(counted_builds) == 1

    def test_truncated_library_is_rebuilt(
        self, fresh, counted_builds, monkeypatch
    ):
        if native.compiler() is None:
            pytest.skip("no C compiler")
        expected = segmented_counter_predictions(*_stream())
        # Damage a cached file no process has mapped: build one into an
        # empty cache without loading it, then cut it short.
        monkeypatch.setenv("XDG_CACHE_HOME", str(fresh / "damaged"))
        monkeypatch.setattr(native, "_lib", None)
        built = native.library_path(native.SOURCE.read_bytes())
        native.build(native.compiler(), built)
        with open(built, "r+b") as handle:
            handle.truncate(100)
        assert np.array_equal(
            segmented_counter_predictions(*_stream()), expected
        )
        assert counted_builds[-2:] == [built, built]
        assert built.stat().st_size > 100

    def test_key_follows_source_and_flags(self, monkeypatch):
        a = native.library_path(b"int x;")
        assert native.library_path(b"int y;") != a
        monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-g",))
        assert native.library_path(b"int x;") != a

    def test_concurrent_builds_into_one_cache(self, tmp_path):
        if native.compiler() is None:
            pytest.skip("no C compiler")
        script = (
            "import numpy as np\n"
            "from repro.sim import native\n"
            "from repro.sim.fsm_scan import segmented_counter_predictions\n"
            "assert native.library() is not None\n"
            "p = segmented_counter_predictions(np.arange(9) % 3,"
            " np.arange(9) % 2 == 0)\n"
            "print(''.join('1' if x else '0' for x in p))\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=str(SRC))
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        outputs = [proc.communicate(timeout=120) for proc in procs]
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
            assert out.strip() == "111101111"
        libraries = list((tmp_path / "repro").iterdir())
        assert len(libraries) == 1 and libraries[0].suffix == ".so"

    def test_import_touches_nothing(self, tmp_path):
        """Importing the engines does not import the loader, and
        importing the loader builds, hashes and loads nothing."""
        script = (
            "import sys\n"
            "import repro.cli, repro.sim.vectorized\n"
            "assert 'repro.sim.native' not in sys.modules\n"
            "from repro.sim import native\n"
            "assert native._lib is None\n"
            "assert 'subprocess' not in sys.modules, 'subprocess'\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
        assert not (tmp_path / "repro").exists()
