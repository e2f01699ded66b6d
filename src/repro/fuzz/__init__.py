"""Differential conformance fuzzing: simulator vs. analysis oracles.

The fuzzer generates seeded random systems with the paper's workload
generator, runs all four protocols through the simulator, and checks a
registry of paper-derived oracles on every run -- trace invariants,
analysis soundness, PM==MPM schedule identity, Release Guard
conformance, and exhaustive-search cross-checks on small systems.  Any
failure is delta-debugged to a minimal counterexample and persisted to
a JSONL corpus that the test suite replays forever after.

Entry points: :func:`~repro.fuzz.campaign.run_campaign` (budgeted
campaigns, process-pool parallel), :func:`~repro.fuzz.campaign.fuzz_one`
(one seeded case), and the ``repro-rts fuzz`` / ``fuzz-replay`` CLI
subcommands.
"""

from repro._facade import lazy_exports

__all__ = [
    "ORACLES",
    "PROFILES",
    "CampaignReport",
    "CaseOutcome",
    "CheckedReleaseGuard",
    "Counterexample",
    "FuzzCase",
    "Oracle",
    "ReplayOutcome",
    "ShrinkResult",
    "append_counterexample",
    "build_case",
    "check_case",
    "fuzz_one",
    "load_corpus",
    "oracle_names",
    "replay_corpus",
    "run_campaign",
    "shrink_system",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.fuzz.campaign": (
            "PROFILES",
            "CampaignReport",
            "CaseOutcome",
            "fuzz_one",
            "run_campaign",
        ),
        "repro.fuzz.corpus": (
            "Counterexample",
            "ReplayOutcome",
            "append_counterexample",
            "load_corpus",
            "replay_corpus",
        ),
        "repro.fuzz.oracles": (
            "ORACLES",
            "Oracle",
            "check_case",
            "oracle_names",
        ),
        "repro.fuzz.runner": ("CheckedReleaseGuard", "FuzzCase", "build_case"),
        "repro.fuzz.shrink": ("ShrinkResult", "shrink_system"),
    },
)
