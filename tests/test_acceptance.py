"""Acceptance gate: one test per shipped criterion, one printed verdict line each.

Criteria 1 and 2 need the fetched kidney-disease table (see README;
``dinet fetch-data``) and skip cleanly when it is absent.  Everything else
runs offline.
"""

import itertools
import json
import time

import numpy as np
import pytest

from dinet import (
    ConditionalMatrix,
    DiscreteDistribution,
    IBProblem,
    QuantizedDataset,
    Topology,
    check_bounds,
    compose_full_matrix,
    ib_step,
    make_synthetic_ckd,
    mi_flow,
    mux_combine,
    mux_split,
    predict_quantized,
    solve_ib,
    train_network,
)
from dinet.cli import (
    DatasetConfig,
    ExperimentConfig,
    QuantizerConfig,
    config_from_dict,
    main,
    prepare_dataset,
    run_experiment,
    train_on,
)
from dinet.infotheory import entropy, mutual_information
from dinet.network import quantize_features
from tests.test_analysis import brute_force_compose, random_model


def verdict(cid: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def ckd_config(path, n_out, n_train, stratify, runs, seed=20240601):
    return config_from_dict({
        "dataset": {"path": str(path), "format": "arff", "target": "class",
                    "positive_class": "ckd"},
        "model": {"beta": 5.0, "n_out": n_out},
        "split": {"n_train": n_train, "stratify": stratify,
                  "positive_fraction": 0.5},
        "prediction": {"mode": "stochastic"},
        "runs": runs,
        "seed": seed,
    })


class TestCriterion1KidneyHoldout:
    def test_mean_test_metrics_match_reference(self, ckd_arff):
        cfg = ckd_config(ckd_arff, n_out=2, n_train=320, stratify="none", runs=200)
        data = prepare_dataset(cfg)
        t0 = time.time()
        report = run_experiment(cfg, data)
        elapsed = time.time() - t0
        acc = report["test"]["mean"]["accuracy"]
        f1 = report["test"]["mean"]["f1"]
        ok = abs(acc - 0.9762) <= 0.03 and abs(f1 - 0.9709) <= 0.04
        assert verdict(
            "1 kidney 320/80 n_out=2",
            ok,
            f"mean test acc={acc:.4f} (target 0.9762±0.03), "
            f"f1={f1:.4f} (target 0.9709±0.04), {elapsed:.0f}s/200 runs",
        )


class TestCriterion2KidneyOverfitting:
    def test_training_exceeds_test(self, ckd_arff):
        cfg = ckd_config(ckd_arff, n_out=3, n_train=200, stratify="balanced", runs=200)
        data = prepare_dataset(cfg)
        report = run_experiment(cfg, data)
        train_acc = report["train"]["mean"]["accuracy"]
        test_acc = report["test"]["mean"]["accuracy"]
        ok = (train_acc >= 0.98 and abs(test_acc - 0.9303) <= 0.03
              and train_acc > test_acc)
        assert verdict(
            "2 kidney 200/200 n_out=3 overfitting",
            ok,
            f"mean train acc={train_acc:.4f} (>=0.98), mean test acc={test_acc:.4f} "
            f"(target 0.9303±0.03), train>test={train_acc > test_acc}",
        )


def random_ib_problem(rng, beta):
    n_in = int(rng.integers(2, 17))
    n_class = int(rng.integers(2, 5))
    n_out = int(rng.integers(2, min(n_in, 6) + 1))
    return IBProblem(
        px=DiscreteDistribution(rng.dirichlet(np.ones(n_in))),
        py_given_x=ConditionalMatrix(rng.dirichlet(np.ones(n_class), size=n_in)),
        beta=beta,
        n_out=n_out,
    )


class TestCriterion3OfflineProperties:
    def test_a_solver_battery(self):
        rng = np.random.default_rng(314)
        betas = [0.1, 1.0, 5.0, 20.0]
        tol = 1e-8
        worst_resid = 0.0
        converged = 0
        for t in range(50):
            prob = random_ib_problem(rng, betas[t % 4])
            sol = solve_ib(prob, tol=tol, seed=t)
            chan = sol.channel.p
            assert np.abs(chan.sum(axis=1) - 1.0).max() < 1e-9
            i_y_in = mutual_information(prob.px.probs, prob.py_given_x.p)
            assert sol.diagnostics.i_y_out <= i_y_in + 1e-9
            cap = min(entropy(prob.px.probs), np.log2(prob.n_out))
            assert sol.diagnostics.i_in_out <= cap + 1e-9
            if sol.diagnostics.converged:
                converged += 1
                resid = np.abs(ib_step(prob, sol.channel).p - chan).max()
                worst_resid = max(worst_resid, resid)
                assert resid < 1e-6
        assert verdict(
            "3a solver battery",
            True,
            f"{converged}/50 converged, worst residual {worst_resid:.2e}, "
            "stochasticity/DPI/capacity all inside tolerance",
        )

    def test_b_small_beta_limit(self):
        rng = np.random.default_rng(315)
        worst = 0.0
        for t in range(50):
            prob = random_ib_problem(rng, 0.001)
            sol = solve_ib(prob, seed=t)
            worst = max(worst, sol.diagnostics.i_in_out)
            assert sol.diagnostics.i_in_out < 0.01
        assert verdict("3b beta->0 limit", True,
                       f"max I(in;out) {worst:.2e} < 0.01 bits on 50 problems")

    def test_c_kronecker_oracle(self):
        rng = np.random.default_rng(316)
        worst = 0.0
        for t in range(20):
            model = random_model(2 if t % 2 == 0 else 4, rng)
            fast = compose_full_matrix(model).p
            slow = brute_force_compose(model)
            worst = max(worst, np.abs(fast - slow).max())
            assert np.abs(fast - slow).max() < 1e-9
        assert verdict("3c kronecker oracle", True,
                       f"20 random trees, worst |fast-brute| {worst:.2e}")

    def test_d_mux_bounds_on_trained_models(self):
        checked = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            y = rng.integers(0, 2, 300)
            cols = (y.copy(), np.where(rng.random(300) < 0.7, y, rng.integers(0, 2, 300)))
            data = QuantizedDataset(columns=cols, cardinalities=(2, 2),
                                    labels=y, n_class=2)
            topo = Topology(cards=(2, 2), n_out=(2, 2))
            model = train_network(data, topo, beta=10.0, seed=seed)
            assert check_bounds(mi_flow(model, data), tol=1e-6) == []
            checked += 1
        for seed in range(2):
            cfg = ExperimentConfig()
            cfg.dataset = DatasetConfig(format="synthetic", positive_class="sick")
            cfg.quantizer = QuantizerConfig(default_levels=10)
            raw = make_synthetic_ckd(300, seed=seed)
            model, _ = train_on(raw, cfg, seed=seed)
            assert check_bounds(mi_flow(model, quantize_features(model, raw)), tol=1e-6) == []
            checked += 1
        assert verdict("3d mux sandwich bounds", True,
                       f"zero violations on {checked} trained models (tol 1e-6)")

    def test_e_mux_round_trip(self):
        cases = 0
        for radices in itertools.product((2, 3, 4, 5), repeat=2):
            grid = list(itertools.product(*[range(r) for r in radices]))
            vecs = [np.array(v) for v in zip(*grid)]
            back = mux_split(mux_combine(vecs, radices), radices)
            assert all(np.array_equal(a, b) for a, b in zip(vecs, back))
            cases += 1
        for radices in itertools.product((2, 3, 4, 5), repeat=3):
            grid = list(itertools.product(*[range(r) for r in radices]))
            vecs = [np.array(v) for v in zip(*grid)]
            back = mux_split(mux_combine(vecs, radices), radices)
            assert all(np.array_equal(a, b) for a, b in zip(vecs, back))
            cases += 1
        assert verdict("3e mux round-trip", True,
                       f"exhaustive identity on {cases} radix lists up to (5,5,5)")

    def test_f_xor_higher_layer_synthesis(self):
        """Two features whose xor is the target; each alone is irrelevant.

        Passes because the layer-0 nodes (n_in <= n_out) keep their inputs
        instead of collapsing them, so the joint node sees both features.
        """
        accs = []
        for seed in range(100):
            rng = np.random.default_rng(40_000 + seed)
            x0 = rng.integers(0, 2, 200)
            x1 = rng.integers(0, 2, 200)
            y = x0 ^ x1
            data = QuantizedDataset(columns=(x0, x1), cardinalities=(2, 2),
                                    labels=y, n_class=2)
            topo = Topology(cards=(2, 2), n_out=(2, 2))
            model = train_network(data, topo, beta=10.0, seed=seed)
            preds = predict_quantized(model, data, seed=seed, mode="ensemble",
                                      repeats=25)
            accs.append(float((preds == y).mean()))
        mean_acc = float(np.mean(accs))
        assert verdict(
            "3f xor ensemble training accuracy",
            mean_acc >= 0.95,
            f"mean accuracy {mean_acc:.4f} over 100 seeds (required >= 0.95)",
        )


class TestCriterion4Determinism:
    def test_repeat_invocations_byte_identical(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"format": "synthetic", "positive_class": "sick",
                        "synthetic_rows": 200, "synthetic_seed": 5},
            "quantizer": {"default_levels": 8},
            "model": {"n_out": 2},
            "split": {"n_train": 100},
            "runs": 3,
            "seed": 12,
        }))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["experiment", "--config", str(cfg_path), "--quiet",
                         "--set", f"outputs.metrics={out}"])
            capsys.readouterr()
            assert code == 0
            outs.append(out.read_bytes())
        assert verdict("4 determinism", outs[0] == outs[1],
                       f"two invocations, {len(outs[0])} bytes each, identical")
        assert outs[0] == outs[1]


class TestCriterion5TopologyCounts:
    def test_counts_and_layer_sizes(self):
        for D in (2, 4, 8, 16):
            layers = int(np.log2(D)) + 1
            topo = Topology(cards=[4] * D, n_out=[3] * (layers - 1) + [2])
            assert sum(topo.layer_sizes) == 2 * D - 1
            assert sum(map(len, topo.mux_groups)) == D - 1
        topo24 = Topology(cards=[4] * 24, n_out=(3, 3, 3, 3, 2))
        ok = topo24.layer_sizes == (24, 12, 6, 3, 1)
        assert verdict(
            "5 topology counts",
            ok,
            "2D-1 nodes / D-1 mixers for D in {2,4,8,16}; "
            f"D=24 layers {topo24.layer_sizes}",
        )
