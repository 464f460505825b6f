"""Tests for the reinforcement-learning substrate (section 2.8)."""

import numpy as np
import pytest

from repro.rl import (
    CatchEnv,
    CrossingEnv,
    DQNAgent,
    DQNConfig,
    ReliabilityStudyConfig,
    ReplayBuffer,
    SnackEnv,
    Transition,
    build_q_network,
    make_env,
    reliability_study,
    train_agent,
)
from repro.utils.rng import spawn_children


class TestEnvironments:
    @pytest.mark.parametrize("name", ["crossing", "catch", "snack"])
    def test_reset_observation_shape(self, name):
        env = make_env(name, size=5, seed=0)
        obs = env.reset()
        assert obs.shape == env.observation_shape
        assert obs.min() >= 0.0

    @pytest.mark.parametrize("name", ["crossing", "catch", "snack"])
    def test_episodes_terminate(self, name):
        env = make_env(name, size=5, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            env.reset()
            done = False
            steps = 0
            while not done:
                _, _, done = env.step(int(rng.integers(0, env.n_actions)))
                steps += 1
                assert steps <= env.max_steps + 1

    def test_unknown_env_rejected(self):
        with pytest.raises(ValueError, match="unknown env"):
            make_env("pong")

    def test_invalid_action_rejected(self):
        env = CatchEnv(size=5, seed=0)
        env.reset()
        with pytest.raises(ValueError):
            env.step(99)

    def test_catch_rewards_at_bottom_only(self):
        env = CatchEnv(size=5, seed=2)
        env.reset()
        rewards = []
        done = False
        while not done:
            _, r, done = env.step(0)
            rewards.append(r)
        assert all(r == 0.0 for r in rewards[:-1])
        assert rewards[-1] in (-1.0, 1.0)

    def test_crossing_reach_top_rewards(self):
        env = CrossingEnv(size=5, seed=3)
        env.reset()
        total, done = 0.0, False
        while not done:
            _, r, done = env.step(1)  # always up
            total += r
        assert r in (1.0, -1.0)  # reached top or hit a car

    def test_snack_pellet_ends_episode(self):
        env = SnackEnv(size=5, seed=4)
        obs = env.reset()
        # Drive straight toward the pellet using ground-truth positions.
        done = False
        for _ in range(30):
            ar, ac = env._agent
            pr, pc = env._pellet
            if ar > pr:
                action = 0
            elif ar < pr:
                action = 1
            elif ac > pc:
                action = 2
            else:
                action = 3
            _, r, done = env.step(action)
            if done:
                break
        assert done

    def test_deterministic_given_seed(self):
        a = CatchEnv(size=5, seed=7)
        b = CatchEnv(size=5, seed=7)
        np.testing.assert_array_equal(a.reset(), b.reset())


class TestReplayBuffer:
    def _t(self, v):
        s = np.full((2, 2, 1), float(v))
        return Transition(s, 0, float(v), s, False)

    def test_push_and_len(self):
        buf = ReplayBuffer(4, (2, 2, 1), seed=0)
        for i in range(3):
            buf.push(self._t(i))
        assert len(buf) == 3

    def test_ring_eviction(self):
        buf = ReplayBuffer(2, (2, 2, 1), seed=0)
        for i in range(5):
            buf.push(self._t(i))
        assert len(buf) == 2
        states, _, rewards, _, _ = buf.sample(32)
        assert set(np.unique(rewards)).issubset({3.0, 4.0})

    def test_sample_shapes(self):
        buf = ReplayBuffer(8, (3, 3, 2), seed=1)
        s = np.zeros((3, 3, 2))
        for i in range(8):
            buf.push(Transition(s, i % 2, 0.5, s, bool(i % 3 == 0)))
        states, actions, rewards, next_states, dones = buf.sample(16)
        assert states.shape == (16, 3, 3, 2)
        assert actions.dtype == int
        assert dones.dtype == bool

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(4, (1,), seed=0).sample(1)


class TestQNetworks:
    @pytest.mark.parametrize("family", ["cnn", "attention"])
    def test_output_shape(self, family):
        net = build_q_network((5, 5, 2), 4, family, width=8, seed=0)
        out = net.predict(np.zeros((3, 5, 5, 2)))
        assert out.shape == (3, 4)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            build_q_network((5, 5, 2), 4, "mlp-mixer")

    def test_families_differ_architecturally(self):
        cnn = build_q_network((5, 5, 2), 4, "cnn", width=8, seed=0)
        attn = build_q_network((5, 5, 2), 4, "attention", width=8, seed=0)
        assert cnn.n_parameters != attn.n_parameters


class TestDQN:
    def test_epsilon_schedule_decays(self):
        env = CatchEnv(size=5, seed=0)
        agent = DQNAgent(env, "cnn", DQNConfig(episodes=10, epsilon_decay_episodes=10))
        assert agent.epsilon_at(0) == pytest.approx(1.0)
        assert agent.epsilon_at(10) == pytest.approx(0.05)
        assert agent.epsilon_at(5) < agent.epsilon_at(2)

    def test_greedy_action_uses_q(self):
        env = CatchEnv(size=5, seed=0)
        agent = DQNAgent(env, "cnn", width=4, seed=0)
        obs = env.reset()
        action = agent.act(obs, epsilon=0.0)
        qvals = agent.q.predict(obs[None])[0]
        assert action == int(np.argmax(qvals))

    def test_target_sync_copies_weights(self):
        env = CatchEnv(size=5, seed=0)
        agent = DQNAgent(env, "cnn", width=4, seed=0)
        for p in agent.q.parameters():
            p.value += 1.0
        agent._sync_target()
        for pq, pt in zip(agent.q.parameters(), agent.target.parameters()):
            np.testing.assert_array_equal(pq.value, pt.value)

    def test_catch_learns_with_cnn(self):
        cfg = DQNConfig(episodes=60, epsilon_decay_episodes=40)
        agent, returns = train_agent("catch", "cnn", config=cfg, size=6, seed=0)
        assert agent.evaluate(20) > 0.5  # mostly catches
        assert len(returns) == 60

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DQNConfig(gamma=1.5)
        with pytest.raises(ValueError):
            DQNConfig(epsilon_start=0.1, epsilon_end=0.5)


class TestReliability:
    def test_study_grid_shape(self):
        cfg = DQNConfig(episodes=8, warmup_transitions=20)
        reports = reliability_study(
            ReliabilityStudyConfig(
                env_names=("catch",), families=("cnn", "attention"), dqn=cfg,
                size=5, width=6, eval_episodes=5,
            ),
            seeds=spawn_children(0, 2),
            cache=False,
        ).reports
        assert len(reports) == 2
        assert {r.family for r in reports} == {"cnn", "attention"}
        for r in reports:
            assert len(r.per_seed_returns) == 2
            assert 0.0 <= r.reliability <= 1.0

    def test_reliability_counts_threshold(self):
        from repro.rl.reliability import ReliabilityReport

        rep = ReliabilityReport("e", "f", (1.0, -1.0, 0.5), threshold=0.0)
        assert rep.reliability == pytest.approx(2 / 3)
        assert rep.lower_quartile < rep.mean_return

    def test_rejects_zero_seeds(self):
        with pytest.raises(ValueError):
            reliability_study(
                ReliabilityStudyConfig(env_names=("catch",), families=("cnn",)),
                seeds=[],
            )


class TestDoubleDQN:
    def test_double_dqn_targets_bounded_by_vanilla(self):
        """Double-DQN's bootstrap value never exceeds the vanilla max."""
        env = CatchEnv(size=5, seed=0)
        agent = DQNAgent(env, "cnn", DQNConfig(double_dqn=True), width=4, seed=0)
        # Desynchronize online and target nets so the bound is non-trivial.
        for p in agent.q.parameters():
            p.value += np.random.default_rng(0).normal(0, 0.1, p.value.shape)
        obs = np.stack([env.reset() for _ in range(8)])
        online = agent.q.predict(obs)
        target = agent.target.predict(obs)
        double_vals = target[np.arange(8), online.argmax(axis=1)]
        vanilla_vals = target.max(axis=1)
        assert np.all(double_vals <= vanilla_vals + 1e-12)

    def test_double_dqn_trains(self):
        cfg = DQNConfig(episodes=30, epsilon_decay_episodes=20, double_dqn=True)
        agent, returns = train_agent("catch", "cnn", config=cfg, size=5, seed=1)
        assert len(returns) == 30
        assert np.isfinite(agent.evaluate(5))
