"""Tests for the ``python -m repro`` experiment runner and verify gate."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.harness.registry import REGISTRY


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_unknown_experiment(self, capsys):
        assert main(["e99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_quick_e1(self, capsys):
        assert main(["e1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out
        assert "max_degree" in out
        assert "completed in" in out

    def test_quick_e5(self, capsys):
        assert main(["e5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "lemma29_bound" in out

    def test_quick_e12(self, capsys):
        assert main(["e12", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "threshold_T" in out

    def test_every_quick_thunk_runs(self):
        """Every experiment's quick variant returns at least one row."""
        for key, (_, _, quick) in EXPERIMENTS.items():
            rows = quick()
            assert rows, key


@pytest.fixture
def results_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


class TestVerify:
    def test_verify_quick_passes_and_writes_json(self, capsys, results_env):
        assert main(["verify", "--quick", "--only", "e1,e11"]) == 0
        out = capsys.readouterr().out
        assert "all 2 claims hold" in out
        for cid in ("e1", "e11"):
            rec = json.loads((results_env / f"{cid}.json").read_text())
            assert rec["claim"] == cid
            assert rec["passed"] is True
            assert rec["profile"] == "quick"
            assert rec["rows"], cid

    def test_only_filters_claims(self, capsys, results_env):
        assert main(["verify", "--quick", "--only", "e5"]) == 0
        capsys.readouterr()
        assert (results_env / "e5.json").exists()
        assert not (results_env / "e1.json").exists()

    def test_malformed_id_exits_2(self, capsys, results_env):
        assert main(["verify", "--quick", "--only", "e1,bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        # The error names every valid claim id, not just "try 'list'".
        for cid in REGISTRY:
            assert cid in err

    def test_verify_list_prints_claim_table(self, capsys, results_env):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        for cid in REGISTRY:
            assert cid in out
        assert "Lemma 2.1" in out
        assert not any(results_env.iterdir())  # nothing ran, nothing written

    def test_failing_claim_exits_1(self, capsys, results_env, monkeypatch):
        broken = dataclasses.replace(
            REGISTRY["e1"], check=lambda rows, profile: ["deliberately broken"]
        )
        monkeypatch.setitem(REGISTRY, "e1", broken)
        assert main(["verify", "--quick", "--only", "e1"]) == 1
        err = capsys.readouterr().err
        assert "FAIL e1: deliberately broken" in err
        rec = json.loads((results_env / "e1.json").read_text())
        assert rec["passed"] is False
        assert rec["failures"] == ["deliberately broken"]

    def test_jobs_parallel_path(self, capsys, results_env):
        assert main(["verify", "--quick", "--jobs", "2", "--only", "e1,e5"]) == 0
        assert "all 2 claims hold" in capsys.readouterr().out
        assert (results_env / "e1.json").exists()
        assert (results_env / "e5.json").exists()


@pytest.fixture
def obs_off_after():
    yield
    from repro import obs

    obs.disable()


class TestTraceCapture:
    def test_experiment_trace_writes_artifacts(self, capsys, results_env, tmp_path, obs_off_after):
        tdir = tmp_path / "trace"
        assert main(["e6", "--quick", "--trace", str(tdir)]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        for name in ("trace.jsonl", "trace.chrome.json", "series.json", "metrics.json"):
            assert (tdir / name).is_file(), name
        doc = json.loads((tdir / "trace.chrome.json").read_text())
        assert doc["traceEvents"], "chrome trace has no events"
        assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(doc["traceEvents"][0])

    def test_report_reconciles_series(self, capsys, results_env, tmp_path, obs_off_after):
        """Acceptance: per-step series in a traced e6 run sum exactly to
        the final RoutingStats of each simulation."""
        tdir = tmp_path / "trace"
        assert main(["e6", "--quick", "--trace", str(tdir)]) == 0
        capsys.readouterr()
        assert main(["report", str(tdir)]) == 0
        out = capsys.readouterr().out
        assert "phase-time breakdown" in out
        assert "per-step series summary" in out
        assert "reconciled" in out and "yes" in out
        # Reconcile programmatically too, run by run.
        from repro.obs.metrics import StepSeries

        runs = json.loads((tdir / "series.json").read_text())["runs"]
        assert runs
        for rec in runs:
            series = StepSeries.from_dict(rec)
            assert series.reconcile(rec["final_stats"]) == [], rec["name"]

    def test_verify_trace_section_in_results_json(self, capsys, results_env, tmp_path, obs_off_after):
        tdir = tmp_path / "trace"
        assert main(["verify", "--quick", "--only", "e6", "--trace", str(tdir)]) == 0
        capsys.readouterr()
        rec = json.loads((results_env / "e6.json").read_text())
        assert rec["trace"]["events"], "claim result carries no span events"
        assert rec["trace"]["series"], "claim result carries no step series"
        names = {e["name"] for e in rec["trace"]["events"]}
        assert "claim.e6" in names
        assert "engine.step" in names
        assert (tdir / "trace.chrome.json").is_file()

    def test_report_missing_dir_exits_2(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "no such trace directory" in capsys.readouterr().err

    def test_report_requires_path(self, capsys):
        assert main(["report"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_untraced_run_leaves_obs_disabled(self, capsys, results_env):
        from repro.obs import trace as obs_trace

        assert main(["verify", "--quick", "--only", "e5"]) == 0
        capsys.readouterr()
        assert obs_trace.active() is None


class TestProcessBackendTrace:
    def test_dynamic_process_trace_has_worker_events(
        self, capsys, tmp_path, obs_off_after
    ):
        """Satellite fix: a traced process-backend churn run must carry
        worker-side span events, not just the parent's."""
        import os

        tdir = tmp_path / "trace"
        assert main([
            "dynamic", "--n", "200", "--churn", "0.02", "--steps", "5",
            "--parallel", "--backend", "process", "--workers", "2",
            "--trace", str(tdir),
        ]) == 0
        out = capsys.readouterr().out
        assert "backend: process" in out
        events = [
            json.loads(line) for line in (tdir / "trace.jsonl").read_text().splitlines()
        ]
        pids = {e["pid"] for e in events}
        assert os.getpid() in pids
        assert len(pids) >= 3, f"no worker events in trace, pids={pids}"
        names = {e["name"] for e in events}
        assert "pool.apply_batch" in names
        assert "pool.batch" in names  # executed in the workers
        assert (tdir / "metrics.om").is_file()
        text = (tdir / "metrics.om").read_text()
        assert text.endswith("# EOF\n")
        assert 'name="pool.batches"' in text


class TestDynamicTiles:
    """``dynamic --tiles`` / ``--no-halo-filter`` on the process backend."""

    BASE = [
        "dynamic", "--n", "120", "--churn", "0.02", "--steps", "3",
        "--parallel", "--backend", "process", "--workers", "2",
    ]

    def test_pinned_tile_shape_runs_clean(self, capsys):
        assert main(self.BASE + ["--tiles", "3,3", "--mac"]) == 0
        out = capsys.readouterr().out
        assert "backend: process" in out
        assert "edge-for-edge equal" in out
        assert "row-for-row equal" in out
        assert "diffs replayed" in out

    def test_tile_count_and_no_halo_filter(self, capsys):
        assert main(self.BASE + ["--tiles", "6", "--no-halo-filter"]) == 0
        out = capsys.readouterr().out
        assert "backend: process" in out
        assert "suppressed: 0" in out  # broadcast mode never defers

    def test_malformed_tiles_exits_2(self, capsys):
        assert main(self.BASE + ["--tiles", "bogus"]) == 2
        assert "--tiles expects" in capsys.readouterr().err
        assert main(self.BASE + ["--tiles", "0,3"]) == 2
        assert main(self.BASE + ["--tiles", "1,2,3"]) == 2

    @pytest.mark.parametrize("backend", ["thread", "auto"])
    def test_removed_backends_exit_2(self, capsys, backend):
        with pytest.raises(SystemExit) as exc:
            main(["dynamic", "--parallel", "--backend", backend])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_parse_tiles_values(self):
        from repro.__main__ import _parse_tiles

        assert _parse_tiles(None) is None
        assert _parse_tiles("8") == 8
        assert _parse_tiles("4,2") == (4, 2)
        assert _parse_tiles(" 3 , 3 ") == (3, 3)
        with pytest.raises(ValueError):
            _parse_tiles("-1")


class TestTop:
    def _fake_store(self, tmp_path):
        from repro.obs import telemetry

        store = tmp_path / "store"
        store.mkdir()
        (store / "store.json").write_text(json.dumps({"name": "unit"}))
        telemetry.TelemetryWriter(store / "telemetry.jsonl", interval=0.0).write({
            "kind": "campaign",
            "ts": 1.0,
            "name": "unit",
            "cells": {"total": 4, "done": 3, "failed": 0, "remaining": 1},
            "workers": {"9": {"cells": 3, "cell_seconds": 0.4, "rss_bytes": 1e7}},
            "parent": {"pid": 8, "rss_bytes": 2e7, "cpu_user_s": 1.0, "cpu_sys_s": 0.1},
            "elapsed_s": 2.0,
            "rate_cells_per_s": 1.5,
        })
        return store

    def test_top_renders_store(self, capsys, tmp_path):
        store = self._fake_store(tmp_path)
        assert main(["top", str(store)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'unit'" in out
        assert "3/4 done" in out
        assert "workers — 1 processes" in out

    def test_top_missing_store_exits_2(self, capsys, tmp_path):
        assert main(["top", str(tmp_path / "nope")]) == 2
        assert "store.json" in capsys.readouterr().err

    def test_top_store_without_telemetry(self, capsys, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "store.json").write_text(json.dumps({"name": "unit"}))
        assert main(["top", str(store)]) == 0
        assert "no telemetry.jsonl snapshots yet" in capsys.readouterr().out


class TestDynamicEventsIO:
    """``dynamic --events-out`` / ``--events-in`` record/replay round-trip."""

    def test_record_then_replay_round_trips(self, capsys, tmp_path):
        from repro.dynamic.events import event_trace_from_dict

        path = tmp_path / "trace.json"
        base = ["dynamic", "--n", "60", "--churn", "0.02", "--steps", "10", "--seed", "7"]
        assert main(base + ["--events-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"event trace written to {path}" in out
        recorded = event_trace_from_dict(json.loads(path.read_text()))
        assert len(recorded) == 12  # round(0.02 * 60 * 10)

        # Replaying against the same pointset (same --n/--seed) applies
        # the identical trace and still matches the from-scratch rebuild.
        assert main(base + ["--events-in", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"replaying {len(recorded)} events from {path}" in out
        assert "edge-for-edge equal" in out
        assert f"events={len(recorded)}" not in out  # table formats with spaces

    def test_replay_and_rerecord_is_identity(self, capsys, tmp_path):
        from repro.dynamic.events import event_trace_from_dict

        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        base = ["dynamic", "--n", "50", "--churn", "0.02", "--steps", "8", "--seed", "3"]
        assert main(base + ["--events-out", str(first)]) == 0
        assert main(base + ["--events-in", str(first), "--events-out", str(second)]) == 0
        capsys.readouterr()
        assert event_trace_from_dict(json.loads(first.read_text())) == event_trace_from_dict(
            json.loads(second.read_text())
        )

    def test_events_in_missing_file_exits_2(self, capsys, tmp_path):
        rc = main(["dynamic", "--n", "50", "--events-in", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot load events" in capsys.readouterr().err
