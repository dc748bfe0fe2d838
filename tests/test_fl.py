import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseagg import fl, rng
from phaseagg.codec import QuantizationConfig
from phaseagg.config import parse_config
from phaseagg.errors import DivergenceError, ShapeError


def scenario(**overrides):
    data = {
        "name": "test",
        "clients": 8,
        "dimension": 8,
        "samples_per_client": 32,
        "grouping": {"mode": "two-group"},
        "protocol_version": "alg1",
        "quantization": {"clip": 1.0, "levels": 65536},
        "modulation": "auto",
        "fec": {"scheme": "none"},
        "dropout": {"probability": 0.0},
        "delayed_client": None,
        "rounds": 30,
        "learning_rate": 0.1,
        "seed": 3,
    }
    data.update(overrides)
    return parse_config(data)


class TestGradient:
    def test_zero_at_generating_parameter(self):
        datasets, theta_star = fl.make_synthetic_task(4, 6, 16, seed=1)
        for ds in datasets:
            grad = fl.compute_gradient(theta_star, ds)
            assert np.all(np.abs(grad) <= 1e-10)

    def test_hand_computed_single_sample(self):
        ds = fl.ClientDataset(features=np.array([[1.0]]), targets=np.array([0.0]),
                              owner=0)
        grad = fl.compute_gradient(np.array([2.0]), ds)
        assert grad[0] == pytest.approx(2.0)

    def test_matches_finite_differences(self):
        gen = np.random.default_rng(2)
        eps = 1e-6
        for _ in range(100):
            d = int(gen.integers(1, 6))
            n = int(gen.integers(1, 10))
            x = gen.standard_normal((n, d))
            y = gen.standard_normal(n)
            ds = fl.ClientDataset(features=x, targets=y, owner=0)
            theta = gen.standard_normal(d)
            grad = fl.compute_gradient(theta, ds)

            def loss_at(v):
                r = x @ v - y
                return float(r @ r) / (2 * n)

            for k in range(d):
                step = np.zeros(d)
                step[k] = eps
                numeric = (loss_at(theta + step) - loss_at(theta - step)) / (2 * eps)
                assert grad[k] == pytest.approx(numeric, rel=1e-6, abs=1e-8)

    def test_shape_mismatch(self):
        ds = fl.ClientDataset(features=np.ones((2, 3)), targets=np.zeros(2), owner=0)
        with pytest.raises(ShapeError):
            fl.compute_gradient(np.zeros(2), ds)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ShapeError):
            fl.ClientDataset(features=np.ones((0, 3)), targets=np.zeros(0), owner=0)


class TestBatchedGradients:
    """One batched gradient over the stacked data equals the per-client path."""

    @settings(max_examples=60, deadline=None)
    @given(clients=st.integers(1, 6), samples=st.integers(1, 24),
           dimension=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.0, 1e-300, 1e-9, 1.0, 1e3, 1e12]),
           levels=st.sampled_from([2, 16, 65536]), noise=st.sampled_from([0.0, 0.5]))
    def test_digits_equal_per_client_digits(self, clients, samples, dimension, seed,
                                            scale, levels, noise):
        datasets, _ = fl.make_synthetic_task(clients, dimension, samples, seed, noise)
        theta = scale * np.random.default_rng(seed).standard_normal(dimension)
        cfg = QuantizationConfig.with_auto_modulus(1.0, levels, max_clients=clients)
        # The per-client oracle reads its own copies, allocated apart from the stack.
        copies = [fl.ClientDataset(features=ds.features.copy(), targets=ds.targets.copy(),
                                   owner=ds.owner) for ds in datasets]
        grads = fl.client_gradients(theta, datasets)
        assert np.array_equal(grads, np.stack([fl.compute_gradient(theta, ds)
                                               for ds in copies]))
        digits = fl.client_digits(theta, datasets, cfg)
        expected = np.stack([fl.quantized_digits(theta, ds, cfg) for ds in copies])
        assert digits.dtype == expected.dtype
        assert np.array_equal(digits, expected)

    @settings(max_examples=60, deadline=None)
    @given(clients=st.integers(1, 6), samples=st.integers(1, 24),
           dimension=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.0, 1e-300, 1e-9, 1.0, 1e3, 1e12]),
           levels=st.sampled_from([2, 16, 65536]), noise=st.sampled_from([0.0, 0.5]))
    def test_one_residual_gives_the_loss_and_the_digits(self, clients, samples, dimension,
                                                        seed, scale, levels, noise):
        datasets, _ = fl.make_synthetic_task(clients, dimension, samples, seed, noise)
        theta = scale * np.random.default_rng(seed).standard_normal(dimension)
        cfg = QuantizationConfig.with_auto_modulus(1.0, levels, max_clients=clients)
        residual = fl.client_residuals(theta, datasets)
        loss = fl.sample_loss(theta, datasets, residual=residual)
        assert loss.hex() == fl.sample_loss(theta, datasets).hex()
        digits = fl.client_digits(theta, datasets, cfg, residual=residual)
        expected = fl.client_digits(theta, datasets, cfg)
        assert digits.dtype == expected.dtype
        assert np.array_equal(digits, expected)

    @settings(max_examples=60, deadline=None)
    @given(clients=st.integers(1, 40), samples=st.integers(1, 40),
           dimension=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.0, 1e-9, 1.0, 1e3]), noise=st.sampled_from([0.0, 0.5]))
    def test_sample_loss_equals_a_per_client_loop(self, clients, samples, dimension,
                                                  seed, scale, noise):
        datasets, _ = fl.make_synthetic_task(clients, dimension, samples, seed, noise)
        theta = scale * np.random.default_rng(seed).standard_normal(dimension)
        total = 0.0
        for ds in datasets:
            residual = ds.features.copy() @ theta - ds.targets.copy()
            total += float(residual @ residual) / 2.0
        expected = total / (clients * samples)
        # Bit for bit: the losses reach history.csv and its golden digest.
        assert fl.sample_loss(theta, datasets) == expected

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_stacked_task_keeps_the_per_client_stream(self, noise):
        datasets, true_theta = fl.make_synthetic_task(3, 4, 5, seed=11, noise=noise)
        gen = rng.keyed_generator(11, rng.DATA_DOMAIN)
        assert np.array_equal(true_theta, gen.standard_normal(4))
        for ds in datasets:
            x = gen.standard_normal((5, 4))
            y = x @ true_theta
            if noise > 0:
                y = y + noise * gen.standard_normal(5)
            assert np.array_equal(ds.features, x)
            assert np.array_equal(ds.targets, y)

    def test_client_gradients_refuse_a_theta_of_another_dimension(self):
        datasets, _ = fl.make_synthetic_task(3, 4, 5, seed=1)
        with pytest.raises(ShapeError):
            fl.client_gradients(np.zeros(3), datasets)


class TestSgdUpdate:
    def test_hand_arithmetic(self):
        out = fl.sgd_update(np.array([1.0, 1.0]), np.array([0.5, 0.5]), 0.1)
        assert np.allclose(out, [0.95, 0.95])

    def test_zero_gradient_fixed_point(self):
        theta = np.array([3.0, -2.0])
        assert np.array_equal(fl.sgd_update(theta, np.zeros(2), 0.1), theta)

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            fl.sgd_update(np.array([1.0]), np.array([np.inf]), 0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fl.sgd_update(np.zeros(2), np.zeros(3), 0.1)


class TestTraining:
    def test_baseline_loss_decreases_to_under_one_percent(self):
        config = scenario(rounds=200)
        history = fl.run_training(config, "plaintext")
        losses = [row.loss for row in history.rows]
        # monotone until the loss first drops below 1% of the start; after
        # that the trajectory sits at the quantization floor and may jitter
        target = 0.01 * losses[0]
        crossing = next(i for i, l in enumerate(losses) if l < target)
        assert all(b < a for a, b in zip(losses[:crossing + 1], losses[1:crossing + 1]))
        assert all(l < target for l in losses[crossing:])
        final = fl.sample_loss(
            history.thetas[-1],
            fl.make_synthetic_task(8, 8, 32, seed=3)[0],
        )
        assert final < 0.01 * losses[0]

    def test_secure_equals_plaintext_bitwise(self):
        config = scenario(rounds=40)
        secure = fl.run_training(config, "secure")
        plain = fl.run_training(config, "plaintext")
        assert len(secure.thetas) == len(plain.thetas)
        for a, b in zip(secure.thetas, plain.thetas):
            assert np.array_equal(a, b)

    def test_secure_equals_plaintext_under_alg2_and_dropouts(self):
        config = scenario(
            clients=8, protocol_version="alg2", rounds=12,
            dropout={"fixed": {"3": [1], "7": [5]}},
            quantization={"clip": 1.0, "levels": 256},
        )
        secure = fl.run_training(config, "secure")
        plain = fl.run_training(config, "plaintext")
        for a, b in zip(secure.thetas, plain.thetas):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["secure", "plaintext"])
    def test_each_round_computes_one_residual_at_its_parameters(self, mode, monkeypatch):
        config = scenario(protocol_version="alg2", rounds=5, dropout={"fixed": {"2": [1]}})
        seen = []
        original = fl.client_residuals

        def recorded(theta, datasets):
            seen.append(theta.copy())
            return original(theta, datasets)

        monkeypatch.setattr(fl, "client_residuals", recorded)
        history = fl.run_training(config, mode)
        # The loss and the digits share the round's residual: one per round,
        # at the parameters the round starts from.
        assert len(seen) == len(history.rows) == 5
        for theta, start in zip(seen, [np.zeros(8)] + history.thetas):
            assert np.array_equal(theta, start)

    def test_quantized_mean_close_to_unquantized_at_high_levels(self):
        config = scenario(rounds=1)
        datasets, _ = fl.make_synthetic_task(8, 8, 32, seed=3)
        cfg = config.quantization()
        theta = np.zeros(8)
        grads = [fl.compute_gradient(theta, ds) for ds in datasets]
        clipped = [np.clip(g, -1, 1) for g in grads]
        digits = np.sum([fl.quantized_digits(theta, ds, cfg) for ds in datasets],
                        axis=0)
        from phaseagg.codec import dequantize_mean

        quantized_mean = dequantize_mean(digits, 8, cfg)
        exact_mean = np.mean(clipped, axis=0)
        assert np.all(np.abs(quantized_mean - exact_mean) <= cfg.clip / (cfg.levels - 1))

    def test_loss_threshold_stops_early(self):
        config = scenario(rounds=200, loss_threshold=0.5)
        history = fl.run_training(config, "plaintext")
        assert len(history.rows) < 200

    def test_history_rows_carry_counters(self):
        config = scenario(rounds=3)
        history = fl.run_training(config, "secure")
        assignment = config.build_assignment()
        l = assignment.plus_size()
        for row in history.rows:
            assert row.phase_estimations == l * (8 - l)
            assert row.uplink == 8
