"""Tests for the performance-measurement lesson module."""

import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.perf import (
    Machine,
    amdahl_speedup,
    efficiency,
    gustafson_speedup,
    karp_flatt_metric,
    measure,
    measure_pair,
    roofline_analysis,
    scaling_table,
)
from repro.perf.roofline import A100_LIKE, EPYC_LIKE
from repro.perf.timers import loops_for


class TestTimers:
    def test_measure_returns_positive_times(self):
        m = measure(lambda: sum(range(1000)), repeats=3, warmup=1)
        assert m.minimum > 0
        assert m.minimum <= m.median <= m.mean * 1.5

    def test_measure_name_from_function(self):
        def my_kernel():
            return 1

        assert measure(my_kernel, repeats=2).name == "my_kernel"

    def test_measure_pair_detects_slower(self):
        fast = lambda: sum(range(100))  # noqa: E731
        slow = lambda: sum(range(50_000))  # noqa: E731
        _, _, speedup = measure_pair(slow, fast, repeats=3, warmup=1)
        assert speedup > 2.0

    def test_measure_pair_sizes_each_side_separately(self):
        calls = {"base": 0, "cand": 0}

        def base():
            calls["base"] += 1

        def cand():
            calls["cand"] += 1

        measure_pair(base, cand, repeats=3, warmup=1, inner_loops=(2, 50))
        assert calls == {"base": 1 + 3 * 2, "cand": 1 + 3 * 50}

    def test_loops_for_sizes_a_sample_past_one_millisecond(self):
        assert loops_for(lambda: None) > 1
        assert loops_for(lambda: time.sleep(0.002)) == 1

    def test_speedup_over(self):
        a = measure(lambda: None, repeats=2)
        b = measure(lambda: None, repeats=2)
        assert a.speedup_over(b) == pytest.approx(b.minimum / a.minimum)

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)


class TestRoofline:
    def test_ridge_point(self):
        m = Machine("m", peak_gflops=100.0, bandwidth_gbs=10.0)
        assert m.ridge_intensity == 10.0

    def test_memory_bound_kernel(self):
        m = Machine("m", peak_gflops=100.0, bandwidth_gbs=10.0)
        point = roofline_analysis(m, "stream", flops=1e9, bytes_moved=1e9)
        assert point.bound == "memory"
        assert point.attainable_gflops == pytest.approx(10.0)

    def test_compute_bound_kernel(self):
        m = Machine("m", peak_gflops=100.0, bandwidth_gbs=10.0)
        point = roofline_analysis(m, "gemm", flops=1e12, bytes_moved=1e9)
        assert point.bound == "compute"
        assert point.attainable_gflops == pytest.approx(100.0)

    def test_attainable_capped_at_peak(self):
        m = Machine("m", peak_gflops=100.0, bandwidth_gbs=10.0)
        assert m.attainable_gflops(1e9) == 100.0

    def test_reference_machines_sane(self):
        assert A100_LIKE.peak_gflops > EPYC_LIKE.peak_gflops
        assert A100_LIKE.bandwidth_gbs > EPYC_LIKE.bandwidth_gbs
        assert A100_LIKE.ridge_intensity > 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Machine("bad", peak_gflops=0.0, bandwidth_gbs=1.0)


class TestScalingLaws:
    def test_amdahl_limit(self):
        # serial fraction 0.1 -> asymptotic speedup 10
        s = amdahl_speedup(0.1, 1_000_000)
        assert s == pytest.approx(10.0, rel=1e-3)

    def test_amdahl_single_worker_is_one(self):
        assert amdahl_speedup(0.3, 1) == pytest.approx(1.0)

    def test_gustafson_linear_when_fully_parallel(self):
        np.testing.assert_allclose(gustafson_speedup(0.0, np.array([1, 4, 16])), [1, 4, 16])

    def test_gustafson_exceeds_amdahl(self):
        n = 64
        assert gustafson_speedup(0.2, n) > amdahl_speedup(0.2, n)

    def test_efficiency(self):
        assert efficiency(8.0, 16) == pytest.approx(0.5)

    def test_karp_flatt_recovers_serial_fraction(self):
        s = 0.15
        speedup = float(amdahl_speedup(s, 32))
        assert karp_flatt_metric(speedup, 32) == pytest.approx(s, rel=1e-9)

    def test_karp_flatt_rejects_single_worker(self):
        with pytest.raises(ValueError):
            karp_flatt_metric(1.0, 1)

    @given(st.floats(0.01, 0.9), st.integers(2, 1024))
    def test_amdahl_monotone_bounded(self, serial, n):
        s = float(amdahl_speedup(serial, n))
        assert 1.0 <= s <= 1.0 / serial + 1e-9

    def test_scaling_table_renders(self):
        out = scaling_table(0.1, [1, 2, 4])
        assert isinstance(out, str)
        assert "Amdahl" in out
        assert len(out.splitlines()) == 6

    def test_scaling_table_rejects_unknown_law(self):
        with pytest.raises(ValueError):
            scaling_table(0.1, [1], law="sunway")


class TestSectionProfiler:
    def test_accumulates_calls(self):
        from repro.perf import SectionProfiler

        prof = SectionProfiler()
        for _ in range(3):
            with prof.section("work"):
                sum(range(100))
        stats = prof.stats("work")
        assert stats.calls == 3
        assert stats.total_s > 0
        assert stats.mean_s == pytest.approx(stats.total_s / 3)

    def test_nesting_qualifies_names(self):
        from repro.perf import SectionProfiler

        prof = SectionProfiler()
        with prof.section("outer"):
            with prof.section("inner"):
                pass
        assert prof.stats("outer/inner").calls == 1
        # Unqualified lookup works when unambiguous.
        assert prof.stats("inner").calls == 1

    def test_outer_includes_inner_time(self):
        from repro.perf import SectionProfiler

        prof = SectionProfiler()
        with prof.section("outer"):
            with prof.section("inner"):
                sum(range(50_000))
        assert prof.stats("outer").total_s >= prof.stats("outer/inner").total_s

    def test_ambiguous_lookup_raises(self):
        from repro.perf import SectionProfiler

        prof = SectionProfiler()
        with prof.section("a"):
            with prof.section("x"):
                pass
        with prof.section("b"):
            with prof.section("x"):
                pass
        with pytest.raises(KeyError, match="ambiguous"):
            prof.stats("x")

    def test_unknown_section_raises(self):
        from repro.perf import SectionProfiler

        with pytest.raises(KeyError):
            SectionProfiler().stats("nope")

    def test_report_renders_percentages(self):
        from repro.perf import SectionProfiler

        prof = SectionProfiler()
        with prof.section("only"):
            sum(range(1000))
        out = prof.report()
        assert isinstance(out, str)
        assert "only" in out
        assert "% of top" in out

    def test_reset_guards_open_sections(self):
        from repro.perf import SectionProfiler

        prof = SectionProfiler()
        with pytest.raises(RuntimeError):
            with prof.section("open"):
                prof.reset()
        prof.reset()
        assert prof.total_s == 0.0

    def test_exception_still_records(self):
        from repro.perf import SectionProfiler

        prof = SectionProfiler()
        with pytest.raises(ValueError):
            with prof.section("boom"):
                raise ValueError("x")
        assert prof.stats("boom").calls == 1


class TestTimingVerdictsUnderLoad:
    def test_p1_and_p3_verdicts_hold_beside_a_busy_competitor(self):
        """P1's and P3's wall-clock verdicts survive a CPU-bound neighbour.

        Each timed sample lasts at least 1 ms and the verdicts read the
        best of at least five interleaved repeats, so one scheduler stall
        cannot flip a claim; P1's vectorized side used to be a single
        ~12 us sample.
        """
        from repro.api import RunRequest, execute_request

        competitor = subprocess.Popen(
            [sys.executable, "-c", "while True: pass"]
        )
        try:
            failed = []
            for _ in range(20):
                summary = execute_request(
                    RunRequest(ids=("P1", "P3"), smoke=True, cache=False)
                )
                failed += [
                    (check.claim, check.observed)
                    for verdict in summary.verdicts()
                    for check in verdict.checks
                    if not check.passed
                ]
        finally:
            competitor.kill()
            competitor.wait(timeout=10)
        assert failed == []
