"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with ``pytest -s`` to see
them inline).

The training-based criteria share session-scoped CLI runs on the bundled
synthetic 3-class task at pinned seeds, so the whole module is
deterministic end to end.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from textboost import baselines, boosting, cli
from textboost import encoder as enc

from conftest import assert_run_contract, jsonl_lines, random_batch
from gradcheck import REL_TOL, check_group

SEED = 7
TASK_SEED = 2024


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ----------------------------------------------------------------------
# shared session runs
# ----------------------------------------------------------------------

def _base_config(task_dir: Path, out_dir: Path) -> dict:
    return {
        "seed": SEED,
        "train_path": str(task_dir / "train.tsv"),
        "dev_path": str(task_dir / "dev.tsv"),
        "corpus_path": str(task_dir / "corpus.txt"),
        "encoder": {"d_model": 32, "n_layers": 2, "n_heads": 2, "d_ffn": 64,
                    "max_seq_len": 24, "dropout_rate": 0.1},
        "boost": {"rounds": 6, "init_strategy": "incremental",
                  "sharing_mode": "privacy", "vote": "soft"},
        "train": {"lr": 1e-3, "batch_size": 32, "epochs": 3},
        "pretrain": {"steps": 2500},
        "fusion": {"depth": 1, "max_epochs": 20, "patience": 3},
        "distill": {"total_steps": 600},
        "bag": {"learning_rates": [5e-4, 1e-3, 2e-3]},
        "out_dir": str(out_dir),
    }


@pytest.fixture(scope="session")
def acc_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def task_dir(acc_root):
    d = acc_root / "task"
    assert cli.main(["gen-data", "--out", str(d), "--seed", str(TASK_SEED),
                     "--train-size", "2000", "--dev-size", "600",
                     "--corpus-size", "6000"]) == 0
    return d


@pytest.fixture(scope="session")
def small_task_dir(acc_root):
    # the init-strategy comparison runs in the label-starved regime where
    # warm starts matter; dev and corpus streams are shared with the main task
    d = acc_root / "task600"
    assert cli.main(["gen-data", "--out", str(d), "--seed", str(TASK_SEED),
                     "--train-size", "600", "--dev-size", "600",
                     "--corpus-size", "6000"]) == 0
    return d


@pytest.fixture(scope="session")
def main_config(acc_root, task_dir):
    out = acc_root / "runs"
    cfg_path = acc_root / "config.json"
    cfg_path.write_text(json.dumps(_base_config(task_dir, out), indent=2))
    return cfg_path, out


@pytest.fixture(scope="session")
def boost_run(main_config):
    cfg_path, out = main_config
    assert cli.main(["train-boost", "--config", str(cfg_path)]) == 0
    run_dir = next(p for p in out.iterdir() if p.name.startswith("train-boost-"))
    return run_dir, json.loads((run_dir / "metrics.json").read_text())


def _compare(cfg_path: Path, out: Path, *flags: str) -> list:
    """The rows of the compare.json that ``compare`` writes into ``out``. Both
    compare runs share one out root, so the dir is found by its run_id."""
    assert cli.main(["compare", "--config", str(cfg_path), *flags]) == 0
    run_id = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])["run_id"]
    return json.loads((out / run_id / "compare.json").read_text())


@pytest.fixture(scope="session")
def fractions_run(main_config, boost_run):
    cfg_path, out = main_config
    return _compare(cfg_path, out, "--axes", "fraction", "--fractions", "0.05,0.2,1.0")


@pytest.fixture(scope="session")
def bag_run(main_config, boost_run):
    cfg_path, out = main_config
    lines = jsonl_lines(out)
    assert cli.main(["train-bag", "--config", str(cfg_path)]) == 0
    return assert_run_contract(out, "train-bag", lines)


@pytest.fixture(scope="session")
def distill_run(main_config, boost_run):
    cfg_path, out = main_config
    run_dir, _ = boost_run
    assert cli.main(["distill", "--teacher-dir", str(run_dir),
                     "--config", str(cfg_path)]) == 0
    ddir = next(p for p in out.iterdir() if p.name.startswith("distill-"))
    return ddir, json.loads((ddir / "metrics.json").read_text())


@pytest.fixture(scope="session")
def compare_run(acc_root, small_task_dir, main_config):
    # the main out root: the 600-row task has the main task's corpus, so its
    # trunk is the main task's cached one, pretrained once for both
    _, out = main_config
    cfg_path = acc_root / "config600.json"
    cfg_path.write_text(json.dumps(_base_config(small_task_dir, out), indent=2))
    rows = _compare(cfg_path, out, "--axes", "init_strategy")
    assert len(list(out.glob("store/*/pretrained_*/pretrained.bgv"))) == 1
    return rows


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_c01_alpha_identity():
    worst = max(abs(boosting.compute_alpha((K - 1) / K, K)) for K in (2, 3, 5, 10, 31))
    _report("c01 alpha-identity", worst < 1e-12,
            f"max |alpha(chance)| = {worst:.2e} over K in {{2,3,5,10,31}}, tol 1e-12")


def test_c02_oracle_equivalence():
    checks = baselines.oracle_trajectories(5)
    assert [len(c.engine) for c in checks] == [len(c.oracle) for c in checks] == [5, 5, 5]
    worst = max(c.deviation for c in checks)
    _report("c02 oracle-equivalence", worst <= baselines.ORACLE_TOL,
            f"max trajectory deviation {worst:.2e} over 3 datasets x 5 rounds, tol 1e-12")


def test_c03_gradient_correctness():
    cfg = enc.EncoderConfig(vocab_size=24, K=3, d_model=16, n_layers=2, n_heads=2,
                            d_ffn=32, max_seq_len=12, dropout_rate=0.1)
    model = enc.TransformerModel(cfg, seed=11)
    rng = np.random.default_rng(23)
    batch = random_batch(rng, vocab_size=24, B=4, L=9)
    weights = rng.uniform(0.5, 3.0, size=batch.n)  # weighted path, weights != 1
    _, _, grad = model.clf_loss_and_grad(batch, batch.labels, weights)

    def clf_loss():
        l, _, _ = model.clf_loss_and_grad(batch, batch.labels, weights)
        return l

    worst = 0.0
    for name, _ in model.layout.entries:
        worst = max(worst, check_group(model.params, clf_loss, grad,
                                       model.layout.slice_of(name), rng, max_checks=10))

    ids = batch.ids.copy()
    rows = np.array([0, 1, 2, 3])
    cols = np.array([1, 2, 1, 2])
    targets = ids[rows, cols].copy()
    ids[rows, cols] = 4
    _, mgrad = model.mlm_loss_and_grad(ids, batch.lengths, rows, cols, targets)

    def mlm_loss():
        l, _ = model.mlm_loss_and_grad(ids, batch.lengths, rows, cols, targets)
        return l

    for name, _ in model.layout.entries:
        if name.startswith("cls."):
            continue
        worst = max(worst, check_group(model.params, mlm_loss, mgrad,
                                       model.layout.slice_of(name), rng, max_checks=8))
    _report("c03 gradient-correctness", worst < REL_TOL,
            f"worst FD relative error {worst:.2e} across all parameter groups, tol 1e-4")


def test_c04_weight_update_law():
    # boost_train asserts the law on every round of every run; here the
    # recorded trajectories are re-verified directly from first principles
    checked = 0
    ok = True
    for check in baselines.oracle_trajectories(5):
        ds, y = check.dataset, check.dataset.labels
        w = np.full(len(y), 1.0 / len(y))
        for r, e in zip(check.ensemble.rounds, check.engine):
            wrong = r.model.predict_proba(ds).argmax(axis=1) != y
            expected = np.sum(w[~wrong]) + math.exp(e["alpha"]) * np.sum(w[wrong])
            ok &= bool(np.isclose(e["weights"].sum(), expected, rtol=1e-12, atol=0))
            if wrong.any() and not wrong.all():
                before = np.sum(w[wrong]) / np.sum(w)
                after = np.sum(e["weights"][wrong]) / e["weights"].sum()
                ok &= after > before
            w = e["weights"]
            checked += 1
    _report("c04 weight-update-law", ok and checked == 15,
            f"total-mass law and strict misclassified-mass growth held on {checked} rounds")


def test_c05_boosting_gain(boost_run):
    _, rec = boost_run
    single = rec["accuracies"]["single"]
    fusion = rec["accuracies"]["boost_fusion"]
    _report("c05 boosting-gain", fusion >= single + 2.0,
            f"boost-fusion {fusion:.2f} vs single {single:.2f}, delta {fusion - single:+.2f} >= 2.0")


def test_c06_small_data_amplification(fractions_run):
    rows = {r["cell"]["fraction"]: r["delta"] for r in fractions_run}
    deltas = [rows[f] for f in (0.05, 0.2, 1.0)]
    inversions = sum(1 for a, b in zip(deltas, deltas[1:]) if b > a + 1e-9)
    ok = deltas[0] > deltas[-1] and inversions <= 1
    _report("c06 small-data-amplification", ok,
            "delta(0.05)={:+.2f} delta(0.2)={:+.2f} delta(1.0)={:+.2f}, "
            "endpoints strict, {} adjacent inversion(s) <= 1".format(*deltas, inversions))


def test_c07_fusion_vs_vote(boost_run):
    _, rec = boost_run
    vote = rec["accuracies"]["boost_vote"]
    fusion = rec["accuracies"]["boost_fusion"]
    _report("c07 fusion-vs-vote", fusion >= vote - 1.0,
            f"fusion {fusion:.2f} vs soft vote {vote:.2f}, tolerance -1.0")


def test_c08_boost_vs_bagging(boost_run, bag_run):
    fusion = boost_run[1]["accuracies"]["boost_fusion"]
    bag = bag_run["accuracies"]["bag"]
    _report("c08 boost-vs-bagging", fusion >= bag - 0.5,
            f"boost-fusion {fusion:.2f} vs bagging {bag:.2f}, tolerance -0.5")


def test_c09_distillation(distill_run, boost_run):
    _, rec = distill_run
    acc = rec["accuracies"]
    m_eff = rec["extras"]["m_effective"]
    ratio = rec["extras"]["param_ratio"]
    ok = (acc["distilled"] >= acc["single"]
          and acc["distilled"] >= acc["teacher"] - 1.0
          and 0.5 / m_eff <= ratio <= 1.0 / m_eff)
    _report("c09 distillation", ok,
            f"student {acc['distilled']:.2f} vs single {acc['single']:.2f} and "
            f"teacher {acc['teacher']:.2f}; param ratio {ratio:.4f} ~ 1/{m_eff}")


def test_c10_init_strategy_ordering(compare_run):
    scores = {r["cell"]["init_strategy"]: r["boost_fusion"] for r in compare_run}
    others = {k: v for k, v in scores.items() if k != "random"}
    ok = all(scores["random"] < v for v in others.values())
    detail = " ".join(f"{k}={v:.2f}" for k, v in sorted(scores.items()))
    _report("c10 init-strategy-ordering", ok, f"random strictly worst of four: {detail}")


def _cli_in_a_child(argv: list[str], blas_threads: int) -> None:
    """Run the CLI on ``argv`` in a child process whose OpenBLAS starts at
    ``blas_threads`` threads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "textboost.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_c11_determinism(acc_root, task_dir, boost_run, distill_run, main_config):
    """The rerun runs in a child that starts OpenBLAS at another thread count
    than this process, so it also shows that the bytes do not depend on it."""
    cfg_path, _ = main_config
    out2 = acc_root / "rerun"
    cfg = json.loads(cfg_path.read_text())
    cfg["out_dir"] = str(out2)
    cfg2 = acc_root / "config_rerun.json"
    cfg2.write_text(json.dumps(cfg, indent=2))

    threads = 2 if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else 1
    _cli_in_a_child(["train-boost", "--config", str(cfg2)], threads)
    boost2 = next(p for p in out2.iterdir() if p.name.startswith("train-boost-"))
    _cli_in_a_child(["distill", "--teacher-dir", str(boost2), "--config", str(cfg2)], threads)
    distill2 = next(p for p in out2.iterdir() if p.name.startswith("distill-"))

    boost1, _ = boost_run
    distill1, _ = distill_run
    identical = []
    for name in ("ensemble.bge", "fusion.bgf", "single.bgv", "pretrained.bgv"):
        identical.append((boost1 / name).read_bytes() == (boost2 / name).read_bytes())
    identical.append((distill1 / "model.bgv").read_bytes() == (distill2 / "model.bgv").read_bytes())

    def strip(path):
        rec = json.loads((path / "metrics.json").read_text())
        rec.pop("wall_time_s")
        rec.pop("timing")
        return rec

    identical.append(strip(boost1) == strip(boost2))
    identical.append(strip(distill1) == strip(distill2))
    _report("c11 determinism", all(identical),
            f"rerun at OPENBLAS_NUM_THREADS={threads} artifacts byte-identical: "
            + ", ".join(str(x) for x in identical))
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cores < 2:
        pytest.skip("rerun byte-identical, but on one core OpenBLAS runs one thread at any "
                    "setting, so the thread count was not varied")
