"""The experiment registry: registration rules, config tiers, smoke runs."""

import pytest

from repro.exp.registry import (
    Experiment,
    all_experiments,
    experiment_ids,
    get_experiment,
    register,
    resolve_ids,
)
from repro.exp.result import ExpResult

EXPECTED_IDS = [
    "T1", "T2", "T3", "N1", "F1",
    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
    "R1", "C1", "P1", "P2", "P3",
]


class TestCatalog:
    def test_whole_catalog_registered(self):
        assert experiment_ids() == EXPECTED_IDS

    def test_every_experiment_has_metadata(self):
        for exp in all_experiments():
            assert exp.id and exp.title and exp.paper_claim
            assert isinstance(exp.DEFAULT, dict) and exp.DEFAULT

    def test_smoke_tier_only_overrides_known_keys(self):
        for exp in all_experiments():
            assert set(exp.SMOKE) <= set(exp.DEFAULT), exp.id

    def test_lookup_is_case_insensitive(self):
        assert get_experiment("e5").id == "E5"
        assert get_experiment("E5") is get_experiment("e5")

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("E99")

    def test_resolve_ids_expands_all(self):
        assert resolve_ids(["all"]) == EXPECTED_IDS
        assert resolve_ids([]) == EXPECTED_IDS
        assert resolve_ids(["t1", "E10"]) == ["T1", "E10"]

    def test_resolve_ids_keeps_the_first_of_repeated_ids(self):
        assert resolve_ids(["T1", "T3", "t3", "T3"]) == ["T1", "T3"]
        assert resolve_ids(["T3", "T1", "T3"]) == ["T3", "T1"]


class TestRegistration:
    def test_duplicate_id_rejected(self):
        class Duplicate(Experiment):
            id = "T1"
            title = "imposter"

        with pytest.raises(ValueError, match="duplicate experiment id"):
            register(Duplicate)
        assert get_experiment("T1").title != "imposter"

    def test_missing_id_rejected(self):
        class Anonymous(Experiment):
            title = "no id"

        with pytest.raises(ValueError, match="non-empty id and title"):
            register(Anonymous)

    def test_smoke_overriding_unknown_keys_rejected(self):
        class BadSmoke(Experiment):
            id = "ZZ-bad-smoke"
            title = "bad smoke tier"
            DEFAULT = {"n": 1}
            SMOKE = {"m": 2}

        with pytest.raises(ValueError, match="unknown keys"):
            register(BadSmoke)


class TestConfigResolution:
    def test_default_tier(self):
        exp = get_experiment("T2")
        assert exp.resolve_config() == dict(exp.DEFAULT)

    def test_smoke_tier_overlays_default(self):
        exp = get_experiment("T2")
        config = exp.resolve_config(smoke=True)
        assert config["n_seeds"] == exp.SMOKE["n_seeds"]
        for key in set(exp.DEFAULT) - set(exp.SMOKE):
            assert config[key] == exp.DEFAULT[key]

    def test_explicit_overrides_win_over_smoke(self):
        exp = get_experiment("T2")
        config = exp.resolve_config({"n_seeds": 5}, smoke=True)
        assert config["n_seeds"] == 5

    def test_unknown_override_key_raises(self):
        exp = get_experiment("T2")
        with pytest.raises(KeyError, match="unknown config key"):
            exp.resolve_config({"bogus_knob": 1})

    def test_seeds_argument_maps_to_n_seeds(self):
        exp = get_experiment("T3")
        result = exp.run(smoke=True, seeds=1, cache=False)
        assert result.config["n_seeds"] == 1

    def test_seeds_argument_ignored_without_n_seeds_knob(self):
        exp = get_experiment("P1")
        assert "n_seeds" not in exp.DEFAULT
        result = exp.run(smoke=True, seeds=3, cache=False)
        assert "n_seeds" not in result.config


class TestSmokeRuns:
    """A few experiments actually executed at the CI tier."""

    @pytest.mark.parametrize("exp_id", ["T1", "E1", "R1", "P1"])
    def test_smoke_run_produces_blocks_and_tables(self, exp_id):
        exp = get_experiment(exp_id)
        result = exp.run(smoke=True, cache=False)
        assert isinstance(result, ExpResult)
        assert result.experiment == exp_id
        assert result.values  # at least one block of values
        assert result.report().strip()  # renders at least one table

    def test_check_returns_verdict_with_observations(self):
        exp = get_experiment("T1")
        verdict = exp.check(exp.run(smoke=True, cache=False))
        assert verdict is not None
        assert verdict.experiment == "T1"
        for c in verdict.checks:
            assert c.claim
            assert isinstance(c.passed, bool)
