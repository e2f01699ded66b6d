"""CLI and one-call API tests for the admission-control service."""

from __future__ import annotations

import json

import pytest

from repro.api import admit, admit_many
from repro.cli import main
from repro.io import save_system, system_to_dict
from repro.regions.store import MemoryRegionStore
from repro.service import DecisionCache
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)


@pytest.fixture
def batch_jsonl(tmp_path):
    """Six bare-system lines, the minimal batch input format."""
    path = tmp_path / "batch.jsonl"
    lines = [
        json.dumps(system_to_dict(generate_system(LIGHT, seed)))
        for seed in range(6)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestAdmitSingle:
    def test_admit_saved_system(self, tmp_path, capsys):
        path = tmp_path / "system.json"
        save_system(generate_system(LIGHT, 0), path)
        assert main(["admit", "--load", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ADMIT under" in out or "REJECT" in out
        assert "per-protocol" in out

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        assert main(["admit"]) == 2
        assert "--load FILE or --jsonl FILE" in capsys.readouterr().err
        path = tmp_path / "system.json"
        save_system(generate_system(LIGHT, 0), path)
        assert (
            main(["admit", "--load", str(path), "--jsonl", str(path)]) == 2
        )

    def test_malformed_jsonl_line_names_file_and_line(self, tmp_path):
        from repro.errors import ConfigurationError

        path = tmp_path / "batch.jsonl"
        path.write_text('{"not json\n')
        with pytest.raises(ConfigurationError, match=r"batch\.jsonl:1:"):
            main(["admit", "--jsonl", str(path)])

    def test_protocol_subset_flag(self, tmp_path, capsys):
        path = tmp_path / "system.json"
        save_system(generate_system(LIGHT, 0), path)
        assert (
            main(["admit", "--load", str(path), "--protocols", "RG"]) == 0
        )
        out = capsys.readouterr().out
        assert "RG=" in out and "DS=" not in out


class TestAdmitBatch:
    def test_jsonl_round_trip_deterministic(self, tmp_path, batch_jsonl):
        """ISSUE acceptance: same decisions with cache on, off, and
        after a persisted-cache restart."""
        outs = {name: tmp_path / f"{name}.jsonl" for name in "abc"}
        cache_file = tmp_path / "cache.jsonl"
        assert (
            main(
                [
                    "admit", "--jsonl", str(batch_jsonl),
                    "--out", str(outs["a"]),
                    "--cache-file", str(cache_file),
                    "--workers", "1",
                ]
            )
            == 0
        )
        assert cache_file.exists()
        # warm restart from the persisted cache
        assert (
            main(
                [
                    "admit", "--jsonl", str(batch_jsonl),
                    "--out", str(outs["b"]),
                    "--cache-file", str(cache_file),
                    "--workers", "1",
                ]
            )
            == 0
        )
        # no cache at all
        assert (
            main(
                [
                    "admit", "--jsonl", str(batch_jsonl),
                    "--out", str(outs["c"]),
                    "--no-cache", "--workers", "1",
                ]
            )
            == 0
        )
        texts = [outs[name].read_text() for name in "abc"]
        assert texts[0] == texts[1] == texts[2]
        assert len(texts[0].splitlines()) == 6

    def test_stats_flag_reports_cache(self, batch_jsonl, capsys):
        assert (
            main(
                [
                    "admit", "--jsonl", str(batch_jsonl),
                    "--workers", "1", "--stats",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "admissions: 6 requests" in err
        assert "cache:" in err

    def test_region_file_is_persisted(self, tmp_path, batch_jsonl, capsys):
        """Regression: the controller's region store was never closed,
        so ``--region-file`` stayed unwritten after reported builds."""
        regions = tmp_path / "regions.jsonl"
        command = [
            "admit", "--jsonl", str(batch_jsonl),
            "--region-backend", "memory",
            "--region-file", str(regions),
            "--region-build-threshold", "1",
            "--stats",
        ]
        assert main(command) == 0
        assert "6 builds" in capsys.readouterr().err
        assert len(MemoryRegionStore(path=regions)) == 6
        # A restart warm-starts from the file: no build, all shape hits.
        assert main(command) == 0
        err = capsys.readouterr().err
        assert "0 builds" in err and "6 hits" in err

    def test_request_documents_carry_their_options(self, tmp_path, capsys):
        from repro.service import AdmissionRequest, request_to_dict

        path = tmp_path / "requests.jsonl"
        request = AdmissionRequest(
            system=generate_system(LIGHT, 0),
            protocols=("RG",),
            request_id="only-rg",
        )
        path.write_text(json.dumps(request_to_dict(request)) + "\n")
        assert main(["admit", "--jsonl", str(path), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "RG=" in out and "DS=" not in out


class TestAdmitBench:
    def test_reports_speedup(self, capsys):
        assert (
            main(
                [
                    "admit-bench",
                    "--systems", "8",
                    "--tasks", "4",
                    "--processors", "3",
                    "--workers", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cold cache:" in out
        assert "warm cache:" in out
        assert "speedup:" in out

    def test_cache_file_is_persisted(self, tmp_path):
        """Regression: ``--cache-file`` promised to persist back, but
        the controller's cache was never saved or closed."""
        cache_file = tmp_path / "cache.jsonl"
        command = [
            "admit-bench",
            "--systems", "4",
            "--tasks", "4",
            "--processors", "3",
            "--workers", "1",
            "--cache-file", str(cache_file),
        ]
        assert main(command) == 0
        assert len(DecisionCache(path=cache_file)) == 4


class TestSuiteWorkers:
    COMMON = [
        "--systems", "2",
        "--subtasks", "2",
        "--utilizations", "0.5",
        "--tasks", "3",
        "--processors", "2",
        "--horizon-periods", "4",
    ]

    def test_parallel_suite_matches_serial(self, capsys):
        assert main(["suite", *self.COMMON]) == 0
        serial = capsys.readouterr().out
        assert main(["suite", *self.COMMON, "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "Figure 12" in serial


class TestOneCallApi:
    def test_admit_single(self):
        decision = admit(generate_system(LIGHT, 0))
        assert decision.admitted
        assert decision.protocol in ("DS", "PM", "MPM", "RG")

    def test_admit_options_pass_through(self):
        decision = admit(generate_system(LIGHT, 0), protocols=("RG",))
        assert set(decision.schedulable) == {"RG"}

    def test_admit_many_matches_singles(self):
        systems = [generate_system(LIGHT, seed) for seed in range(3)]
        batch = admit_many(systems, workers=1)
        assert batch == [admit(system) for system in systems]

    def test_admit_many_reuses_cache(self):
        cache = DecisionCache()
        systems = [generate_system(LIGHT, seed) for seed in range(3)]
        admit_many(systems, workers=1, cache=cache)
        admit_many(systems, workers=1, cache=cache)
        assert cache.stats().hits == 3
