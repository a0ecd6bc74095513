"""Chrome-trace export and the report assembler."""

import json

import pytest

from repro.gpu.clock import TaskGraph, schedule_graph
from repro.gpu.trace import tasks_to_chrome_trace, write_chrome_trace
from repro.report import build_report


@pytest.fixture
def scheduled_tasks():
    g = TaskGraph()
    a = g.add("potrf", "cpu0", 1e-3, category="potrf")
    b = g.add("h2d", "gpu0.h2d", 5e-4, category="copy")
    g.add("trsm", "gpu0.compute", 2e-3, deps=(a, b), category="trsm")
    schedule_graph(g)
    return g.tasks


class TestChromeTrace:
    def test_event_structure(self, scheduled_tasks):
        doc = tasks_to_chrome_trace(scheduled_tasks)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(slices) == 3
        assert len(metas) == 3          # one thread_name per engine
        names = {m["args"]["name"] for m in metas}
        assert names == {"cpu0", "gpu0.h2d", "gpu0.compute"}

    def test_times_scaled_to_microseconds(self, scheduled_tasks):
        doc = tasks_to_chrome_trace(scheduled_tasks)
        trsm = next(e for e in doc["traceEvents"] if e.get("name") == "trsm")
        assert trsm["dur"] == pytest.approx(2e-3 * 1e6)
        assert trsm["ts"] == pytest.approx(1e-3 * 1e6)  # starts after potrf

    def test_unscheduled_rejected(self):
        g = TaskGraph()
        g.add("x", "cpu0", 1.0)
        with pytest.raises(ValueError):
            tasks_to_chrome_trace(g.tasks)

    def test_engine_rows_ordered_by_kind(self):
        # regression: engine tids must follow _ENGINE_ORDER (cpu, gpu,
        # nic) even when the task stream mentions the engines in a
        # different order
        g = TaskGraph()
        a = g.add("k0", "rank1.nic", 1e-4, category="comm")
        b = g.add("k1", "gpu0.compute", 1e-3, deps=(a,), category="syrk")
        c = g.add("k2", "gpu0.h2d", 5e-4, deps=(b,), category="copy")
        g.add("k3", "cpu0", 1e-3, deps=(c,), category="potrf")
        schedule_graph(g)
        doc = tasks_to_chrome_trace(g.tasks)
        metas = sorted(
            (e for e in doc["traceEvents"] if e["ph"] == "M"),
            key=lambda e: e["tid"],
        )
        assert [m["args"]["name"] for m in metas] == [
            "cpu0", "gpu0.compute", "gpu0.h2d", "rank1.nic"
        ]
        assert [m["tid"] for m in metas] == [0, 1, 2, 3]

    def test_engine_rows_group_node_major(self):
        # regression: namespaced engines (node{i}./rank{i}.) group by
        # node first, then by kind within the node; un-namespaced lanes
        # keep their old position ahead of every node
        g = TaskGraph()
        a = g.add("k0", "node1.nic", 1e-4, category="comm")
        b = g.add("k1", "node1.cpu", 1e-3, deps=(a,), category="potrf")
        c = g.add("k2", "node0.gpu", 5e-4, deps=(b,), category="syrk")
        d = g.add("k3", "node0.cpu", 1e-3, deps=(c,), category="potrf")
        g.add("k4", "cpu0", 1e-3, deps=(d,), category="potrf")
        schedule_graph(g)
        doc = tasks_to_chrome_trace(g.tasks)
        metas = sorted(
            (e for e in doc["traceEvents"] if e["ph"] == "M"),
            key=lambda e: e["tid"],
        )
        assert [m["args"]["name"] for m in metas] == [
            "cpu0", "node0.cpu", "node0.gpu", "node1.cpu", "node1.nic"
        ]

    def test_write_round_trip(self, scheduled_tasks, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, scheduled_tasks)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc

    def test_factorization_trace_end_to_end(self, lap2d_small, tmp_path):
        from repro.multifrontal.numeric import price_serial
        from repro.symbolic import symbolic_factorize
        from repro.policies import make_policy
        from repro.gpu import SimulatedNode

        sf = symbolic_factorize(lap2d_small, ordering="amd")
        node = SimulatedNode()
        # collect every scheduled task through a tracking wrapper run
        rp = price_serial(sf, make_policy("P3"), node)
        # reconstruct a small trace from the records (coarse per-call)
        g = TaskGraph()
        for r in rp.records[:20]:
            g.add(f"fu:{r.sid}", "cpu0", max(r.end - r.start, 1e-9))
        schedule_graph(g)
        path = tmp_path / "factor.json"
        write_chrome_trace(path, g.tasks)
        assert path.exists()


class TestReport:
    def test_builds_from_fixture_dir(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table7_end_to_end.txt").write_text("TABLE7\n")
        (results / "zzz_custom.txt").write_text("CUSTOM\n")
        out = tmp_path / "REPORT.md"
        n = build_report(str(results), str(out))
        assert n == 2
        text = out.read_text()
        assert "## table7_end_to_end" in text
        assert text.index("table7_end_to_end") < text.index("zzz_custom")

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_report(str(tmp_path / "nope"), str(tmp_path / "r.md"))

    def test_real_results_if_present(self, tmp_path):
        import os

        results = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "benchmarks", "results"
        )
        if not os.path.isdir(results):
            pytest.skip("benchmarks not run yet")
        out = tmp_path / "REPORT.md"
        n = build_report(results, str(out))
        assert n >= 10
        assert "Table VII" in out.read_text()
