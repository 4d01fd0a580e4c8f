"""Tests for the code pass (repo-invariant lint) and the check CLI."""

import json
import textwrap

from repro.check.lint import lint_paths, lint_source
from repro.cli import main


def lint(source, **kwargs):
    return lint_source(
        textwrap.dedent(source), filename="fixture.py", **kwargs
    )


def checks(findings):
    return [f.check for f in findings]


class TestBareExcept:
    def test_flagged(self):
        findings = lint(
            """
            try:
                pass
            except:
                pass
            """
        )
        assert checks(findings) == ["code.bare-except"]
        assert findings[0].severity == "error"
        assert findings[0].location == "fixture.py:4"

    def test_named_handler_is_fine(self):
        assert lint("try:\n    pass\nexcept ValueError:\n    pass\n") == []


class TestMutableDefault:
    def test_literal_defaults_flagged(self):
        findings = lint("def f(a=[], b={}, *, c=set()):\n    pass\n")
        assert checks(findings) == ["code.mutable-default"] * 3

    def test_none_and_tuple_are_fine(self):
        assert lint("def f(a=None, b=(), c=0):\n    pass\n") == []


class TestHotLoop:
    SOURCE = """
        def index(trace):
            for i in range(len(trace)):
                pass
        """

    def test_flagged_in_hot_file(self):
        findings = lint(self.SOURCE, is_hot=True)
        assert checks(findings) == ["code.hot-loop"]

    def test_not_flagged_in_cold_file(self):
        assert lint(self.SOURCE) == []

    def test_iterating_the_trace_is_flagged(self):
        findings = lint(
            "def f(trace):\n    for b in trace.pc:\n        pass\n",
            is_hot=True,
        )
        assert checks(findings) == ["code.hot-loop"]

    def test_length_bounded_while_is_flagged(self):
        findings = lint(
            "def f(xs):\n    i = 0\n    while i < len(xs):\n        i += 1\n",
            is_hot=True,
        )
        assert checks(findings) == ["code.hot-loop"]

    def test_log_pass_while_is_not_flagged(self):
        # fsm_scan's doubling scan: bounded by a plain name, not len().
        assert (
            lint(
                "def f(total):\n"
                "    distance = 1\n"
                "    while distance < total:\n"
                "        distance *= 2\n",
                is_hot=True,
            )
            == []
        )

    def test_allow_marker_suppresses(self):
        findings = lint(
            "def f(trace):\n"
            "    for i in range(len(trace)):  # check: allow(hot-loop)\n"
            "        pass\n",
            is_hot=True,
        )
        assert findings == []


class TestHotLoopProvenance:
    """Hot for-loops pass on trip-count provenance, not file trivia."""

    def test_range_over_register_width_names_is_fine(self):
        assert (
            lint(
                "def f(bits, slots):\n"
                "    for age in range(1, bits + 1):\n"
                "        pass\n"
                "    for i in range(slots):\n"
                "        pass\n"
                "    for s in range(1 << counter_bits):\n"
                "        pass\n",
                is_hot=True,
            )
            == []
        )

    def test_range_over_spec_attributes_is_fine(self):
        assert (
            lint(
                "def f(spec):\n"
                "    for bit in range(spec.counter_bits):\n"
                "        pass\n",
                is_hot=True,
            )
            == []
        )

    def test_literal_tuple_iteration_is_fine(self):
        assert (
            lint(
                "def f(base, skew1, skew2):\n"
                "    for bank in (base, skew1, skew2):\n"
                "        pass\n",
                is_hot=True,
            )
            == []
        )

    def test_range_over_arbitrary_name_is_flagged(self):
        findings = lint(
            "def f(n):\n    for i in range(n):\n        pass\n",
            is_hot=True,
        )
        assert checks(findings) == ["code.hot-loop"]

    def test_iterating_an_array_is_flagged(self):
        findings = lint(
            "def f(indices):\n    for i in indices:\n        pass\n",
            is_hot=True,
        )
        assert checks(findings) == ["code.hot-loop"]

    def test_cold_files_stay_unconstrained(self):
        assert (
            lint("def f(n):\n    for i in range(n):\n        pass\n") == []
        )


class TestHotTime:
    def test_flagged_in_hot_file(self):
        findings = lint(
            "import time\n\ndef f():\n    return time.perf_counter()\n",
            is_hot=True,
        )
        assert checks(findings) == ["code.hot-time"]

    def test_fine_in_cold_file(self):
        assert (
            lint("import time\n\ndef f():\n    return time.time()\n") == []
        )


class TestMetricName:
    def test_undeclared_literal_flagged(self):
        findings = lint('counter("sweep.bogus").inc()\n')
        assert checks(findings) == ["code.metric-name"]

    def test_declared_name_is_fine(self):
        assert lint('counter("sweep.points_computed").inc()\n') == []

    def test_dynamic_names_are_ignored(self):
        assert lint("counter(name).inc()\n") == []


class TestRawWrite:
    def test_write_mode_warns(self):
        findings = lint('open("out.csv", "w")\n')
        assert checks(findings) == ["code.raw-write"]
        assert findings[0].severity == "warning"

    def test_read_mode_is_fine(self):
        assert lint('open("in.csv")\n') == []
        assert lint('open("in.csv", "r")\n') == []

    def test_writer_module_is_exempt(self):
        assert lint('open("tmp", "w")\n', is_writer=True) == []

    def test_allow_marker_suppresses(self):
        assert (
            lint('open("sink", "w")  # check: allow(raw-write)\n') == []
        )


class TestVersionGate:
    def test_dis_opmap_flagged_outside_compat(self):
        findings = lint('code = dis.opmap["POP_JUMP_IF_TRUE"]\n')
        assert checks(findings) == ["code.version-gate"]
        assert findings[0].severity == "error"

    def test_sys_monitoring_flagged_outside_compat(self):
        findings = lint("events = sys.monitoring.events\n")
        assert checks(findings) == ["code.version-gate"]

    def test_compat_module_is_exempt(self):
        assert (
            lint('code = dis.opmap["NOP"]\n', is_compat=True) == []
        )
        assert lint("m = sys.monitoring\n", is_compat=True) == []

    def test_other_attributes_are_fine(self):
        assert lint("names = dis.opname\n") == []
        assert lint("v = sys.version_info\n") == []

    def test_allow_marker_suppresses(self):
        assert (
            lint(
                'x = dis.opmap["NOP"]  # check: allow(version-gate)\n'
            )
            == []
        )


class TestSetIter:
    def test_set_literal_iteration_flagged(self):
        findings = lint(
            "for x in {1, 2, 3}:\n    pass\n", is_analysis=True
        )
        assert checks(findings) == ["code.set-iter"]
        assert findings[0].severity == "error"

    def test_set_call_and_union_flagged(self):
        findings = lint(
            "for x in set(xs) | {0}:\n    pass\n", is_analysis=True
        )
        assert checks(findings) == ["code.set-iter"]

    def test_set_comprehension_flagged(self):
        findings = lint(
            "for x in {y for y in ys}:\n    pass\n", is_analysis=True
        )
        assert checks(findings) == ["code.set-iter"]

    def test_sorted_set_is_fine(self):
        assert (
            lint("for x in sorted({1, 2}):\n    pass\n", is_analysis=True)
            == []
        )

    def test_non_analysis_modules_are_exempt(self):
        assert lint("for x in {1, 2}:\n    pass\n") == []

    def test_allow_marker_suppresses(self):
        assert (
            lint(
                "for x in {1, 2}:  # check: allow(set-iter)\n    pass\n",
                is_analysis=True,
            )
            == []
        )


class TestDtypeWidth:
    def test_missing_dtype_on_state_array_is_a_warning(self):
        findings = lint(
            """
            import numpy as np
            def build(bits):
                counters = np.zeros(1 << bits)
                return counters
            """
        )
        assert checks(findings) == ["code.dtype-width"]
        assert findings[0].severity == "warning"

    def test_narrow_dtype_under_register_width_size_is_an_error(self):
        findings = lint(
            """
            import numpy as np
            def build(bits):
                table = np.zeros(1 << bits, dtype=np.int8)
                return table
            """
        )
        assert checks(findings) == ["code.dtype-width"]
        assert findings[0].severity == "error"

    def test_positional_dtype_and_pow_are_seen(self):
        findings = lint(
            """
            import numpy as np
            def build(row_bits):
                state_bank = np.full(2 ** row_bits, 1, np.uint16)
                return state_bank
            """
        )
        assert checks(findings) == ["code.dtype-width"]
        assert findings[0].severity == "error"

    def test_explicit_wide_dtype_is_fine(self):
        assert (
            lint(
                """
                import numpy as np
                def build(bits):
                    counters = np.zeros(1 << bits, dtype=np.int64)
                    return counters
                """
            )
            == []
        )

    def test_narrow_dtype_without_width_risk_is_fine(self):
        assert (
            lint(
                """
                import numpy as np
                def build(n):
                    counters = np.zeros(n, dtype=np.int8)
                    return counters
                """
            )
            == []
        )

    def test_unhinted_target_is_exempt(self):
        assert (
            lint(
                """
                import numpy as np
                def build(bits):
                    mask = np.zeros(1 << bits)
                    return mask
                """
            )
            == []
        )

    def test_allow_marker_suppresses(self):
        source = (
            "import numpy as np\n"
            "def build(bits):\n"
            "    counters = np.zeros(1 << bits, dtype=np.int8)"
            "  # check: allow(dtype-width)\n"
            "    return counters\n"
        )
        assert lint(source) == []


class TestSyntaxHandling:
    def test_unparseable_source_is_a_finding(self):
        findings = lint("def f(:\n")
        assert checks(findings) == ["code.syntax"]
        assert findings[0].severity == "error"


class TestRepoIsClean:
    def test_package_has_no_lint_errors(self):
        findings = [
            f for f in lint_paths() if f.severity in ("warning", "error")
        ]
        assert findings == [], [f.render() for f in findings]


class TestCheckCli:
    def test_check_is_the_code_pass_and_strict_clean(self, capsys):
        assert main(["check", "--strict", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passes"] == ["code"]

    def test_check_all_on_repo_is_clean(self, capsys):
        # With no --path, the one pass covers the whole package.
        assert main(["check"]) == 0
        assert capsys.readouterr().out.endswith("-> OK\n")

    def test_code_pass_default_invocation(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "code.coverage" in out

    def test_hot_path_fixture_exits_1_with_json_finding(
        self, tmp_path, capsys
    ):
        hot = tmp_path / "sim" / "vectorized.py"
        hot.parent.mkdir()
        hot.write_text(
            "def index_stream(spec, trace):\n"
            "    out = []\n"
            "    for i in range(len(trace)):\n"
            "        out.append(i)\n"
            "    return out\n"
        )
        code = main(["check", "--path", str(tmp_path), "--json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        findings = [
            f for f in report["findings"] if f["check"] == "code.hot-loop"
        ]
        assert len(findings) == 1
        assert findings[0]["severity"] == "error"
        assert findings[0]["location"].endswith("vectorized.py:3")

    def test_strict_escalates_warnings(self, tmp_path, capsys):
        fixture = tmp_path / "module.py"
        fixture.write_text('open("out.txt", "w")\n')
        relaxed = main(["check", "--path", str(tmp_path)])
        capsys.readouterr()
        strict = main(
            ["check", "--path", str(tmp_path), "--strict"]
        )
        assert (relaxed, strict) == (0, 1)
        assert "-> FAIL" in capsys.readouterr().out

    def test_unknown_pass_rejected_by_parser(self):
        try:
            main(["check", "bogus"])
        except SystemExit as exit_info:
            assert exit_info.code == 2
        else:  # pragma: no cover - argparse always raises
            raise AssertionError("argparse accepted an unknown pass")
