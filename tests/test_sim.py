"""Tests for the mobile-service lifecycle simulation."""


import pytest

from repro.datasets import INFOCOM06
from repro.errors import ParameterError
from repro.obs.instrument import counting
from repro.sim import MobileServiceSimulation, SimConfig


@pytest.fixture(scope="module")
def finished_sim():
    sim = MobileServiceSimulation(
        INFOCOM06,
        SimConfig(
            num_users=25,
            steps=8,
            upload_period=3,
            query_probability=0.4,
            drift_sigma=0.5,
            seed=7,
        ),
    )
    sim.run()
    return sim


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(num_users=1)
        with pytest.raises(ParameterError):
            SimConfig(steps=0)
        with pytest.raises(ParameterError):
            SimConfig(query_probability=1.5)
        with pytest.raises(ParameterError):
            SimConfig(drift_sigma=-1)
        with pytest.raises(ParameterError):
            SimConfig(upload_period=0)


class TestLifecycle:
    def test_initial_enrollment_complete(self):
        sim = MobileServiceSimulation(
            INFOCOM06, SimConfig(num_users=10, steps=1, seed=8)
        )
        assert len(sim.server.tier) == 10

    def test_history_length(self, finished_sim):
        assert len(finished_sim.history) == 8
        assert [m.step for m in finished_sim.history] == list(range(8))

    def test_uploads_follow_period(self, finished_sim):
        total_uploads = sum(m.uploads for m in finished_sim.history)
        # each user uploads roughly steps / period times
        expected = 25 * (8 // 3)
        assert total_uploads >= expected

    def test_queries_happen(self, finished_sim):
        assert sum(m.queries for m in finished_sim.history) > 0

    def test_groups_tracked(self, finished_sim):
        last = finished_sim.history[-1]
        assert last.num_groups >= 1
        assert 1 <= last.largest_group <= 25

    def test_verified_results_are_mostly_true_matches(self, finished_sim):
        summary = finished_sim.summary()
        if summary["verified_results"] > 0:
            assert summary["match_precision"] >= 0.8

    def test_summary_shape(self, finished_sim):
        summary = finished_sim.summary()
        assert summary["steps"] == 8
        assert summary["uploads"] > 0
        assert 0 <= summary["group_change_rate"] <= 1

    def test_summary_requires_run(self):
        sim = MobileServiceSimulation(
            INFOCOM06, SimConfig(num_users=5, steps=1, seed=9)
        )
        with pytest.raises(ParameterError):
            sim.summary()


class TestVerification:
    def test_one_auth_cipher_per_upload_and_result(self):
        sim = MobileServiceSimulation(
            INFOCOM06, SimConfig(num_users=25, steps=8, seed=5)
        )
        results = []
        handle_query = sim.server.handle_query

        def recording(request):
            result = handle_query(request)
            results.append(result)
            return result

        sim.server.handle_query = recording
        with counting() as ops:
            sim.run()
        uploads = sum(m.uploads for m in sim.history)
        non_empty = sum(1 for result in results if result.entries)
        # results carry several entries, so a cipher per entry would differ
        assert sum(len(r.entries) for r in results) > non_empty > 0
        # Auth seals each upload and Vf opens each non-empty result under
        # one auth cipher; nothing else in a step schedules an AES key
        assert ops.get("aes_key_schedule") == uploads + non_empty


class TestRestartRecovery:
    def test_simulation_survives_server_restart(self, tmp_path):
        """Mid-run, persist the store, 'restart' the server, continue."""
        from repro.server.service import SMatchServer

        sim = MobileServiceSimulation(
            INFOCOM06,
            SimConfig(
                num_users=15,
                steps=3,
                upload_period=2,
                query_probability=0.3,
                seed=12,
            ),
        )
        sim.step()
        stored = sim.server.tier.export_store().all_profiles()
        with SMatchServer(data_dir=tmp_path) as durable:
            durable.tier.import_profiles(list(stored.values()))

        with SMatchServer(
            query_k=sim.config.query_k, data_dir=tmp_path
        ) as restarted:
            sim.server = restarted
            sim.step()
            sim.step()
            assert len(sim.history) == 3
            assert len(sim.server.tier) == 15


class TestDrift:
    def test_zero_drift_zero_group_changes(self):
        sim = MobileServiceSimulation(
            INFOCOM06,
            SimConfig(
                num_users=15,
                steps=6,
                upload_period=2,
                drift_sigma=0.0,
                query_probability=0.0,
                seed=10,
            ),
        )
        sim.run()
        assert sum(m.group_changes for m in sim.history) == 0

    def test_heavy_drift_causes_churn(self):
        sim = MobileServiceSimulation(
            INFOCOM06,
            SimConfig(
                num_users=15,
                steps=10,
                upload_period=2,
                drift_sigma=4.0,
                query_probability=0.0,
                seed=11,
            ),
        )
        sim.run()
        assert sum(m.group_changes for m in sim.history) > 0

    def test_values_stay_in_domain(self, finished_sim):
        for profile in finished_sim.profiles.values():
            profile.schema.check_values(profile.values)
