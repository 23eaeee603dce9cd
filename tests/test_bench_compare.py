"""The perf-regression gate: same-machine fail, cross-machine skip."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = (
    Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
)
_spec = importlib.util.spec_from_file_location("bench_compare", _SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _payload(mean_s: float, *, brand: str = "cpu-a", name: str = "bench_x"):
    return {
        "machine_info": {
            "machine": "x86_64",
            "system": "Linux",
            "cpu": {"brand_raw": brand, "count": 1, "arch": "X86_64"},
        },
        "benchmarks": [{"name": name, "stats": {"mean": mean_s}}],
    }


class TestCompare:
    def test_same_machine_within_threshold_passes(self):
        code, lines = bench_compare.compare(
            _payload(1.0), _payload(1.2), 0.30
        )
        assert code == 0
        assert any(line.startswith("ok:") for line in lines)

    def test_same_machine_regression_fails(self):
        code, lines = bench_compare.compare(
            _payload(1.0), _payload(1.5), 0.30
        )
        assert code == 1
        assert any("regressed" in line for line in lines)

    def test_different_machine_skips_with_note(self):
        code, lines = bench_compare.compare(
            _payload(1.0), _payload(9.0, brand="cpu-b"), 0.30
        )
        assert code == 0
        assert lines[0].startswith("SKIP")
        assert any("cpu.brand_raw" in line for line in lines)

    def test_missing_benchmark_fails(self):
        code, lines = bench_compare.compare(
            _payload(1.0), _payload(1.0, name="bench_y"), 0.30
        )
        assert code == 1
        assert "FAIL: bench_x missing from the current run" in lines
        assert any("no common benchmarks" in line for line in lines)

    def test_missing_benchmark_on_another_machine_skips(self):
        code, lines = bench_compare.compare(
            _payload(1.0), _payload(1.0, brand="cpu-b", name="bench_y"),
            0.30,
        )
        assert code == 0
        assert lines[0].startswith("SKIP")

    def test_extra_benchmark_in_current_run_passes(self):
        current = _payload(1.0)
        current["benchmarks"].append(
            {"name": "bench_y", "stats": {"mean": 5.0}}
        )
        code, _ = bench_compare.compare(_payload(1.0), current, 0.30)
        assert code == 0

    def test_main_round_trips_files(self, tmp_path):
        import json

        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(_payload(1.0)))
        cur.write_text(json.dumps(_payload(2.0)))
        assert bench_compare.main([str(base), str(cur)]) == 1
        assert (
            bench_compare.main(
                [str(base), str(cur), "--threshold", "1.5"]
            )
            == 0
        )
