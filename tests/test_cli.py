import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from textboost import cli, fusion
from textboost import encoder as enc

from conftest import assert_run_contract


def write_config(path: Path, task_dir: Path, out_dir: Path, **extra) -> Path:
    cfg = {
        "seed": 13,
        "train_path": str(task_dir / "train.tsv"),
        "dev_path": str(task_dir / "dev.tsv"),
        "corpus_path": str(task_dir / "corpus.txt"),
        "encoder": {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ffn": 32,
                    "max_seq_len": 24, "dropout_rate": 0.1},
        "boost": {"rounds": 2, "init_strategy": "incremental",
                  "sharing_mode": "privacy", "vote": "soft"},
        "train": {"lr": 2e-3, "batch_size": 32, "epochs": 2},
        "pretrain": {"steps": 150, "lr": 1e-3, "batch_size": 32},
        "fusion": {"depth": 1, "hidden_multiple": 4, "lr": 1e-3, "batch_size": 32,
                   "max_epochs": 4, "patience": 2},
        "distill": {"total_steps": 30, "init_strategy": "pretrained",
                    "lr": 1e-3, "batch_size": 32},
        "bag": {"learning_rates": [5e-4, 1e-3]},
        "out_dir": str(out_dir),
    }
    cfg.update(extra)
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("task")
    rc = cli.main([
        "gen-data", "--out", str(d), "--seed", "99",
        "--train-size", "400", "--dev-size", "120", "--corpus-size", "800",
    ])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def boost_run(task_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    cfg_path = write_config(out / "config.json", task_dir, out)
    rc = cli.main(["train-boost", "--config", str(cfg_path)])
    assert rc == 0
    run_dirs = [p for p in out.iterdir() if p.is_dir() and p.name.startswith("train-boost-")]
    assert len(run_dirs) == 1
    return out, cfg_path, run_dirs[0]


class TestGenData:
    def test_writes_all_files(self, task_dir):
        for name in ("train.tsv", "dev.tsv", "corpus.txt", "meta.json"):
            assert (task_dir / name).exists()
        lines = (task_dir / "train.tsv").read_text().strip().splitlines()
        assert len(lines) == 400
        labels = {line.split("\t")[0] for line in lines}
        assert labels == {"alpha", "beta", "gamma"}


class TestTrainBoost:
    def test_artifacts_present(self, boost_run):
        _, _, run_dir = boost_run
        for name in ("config.json", "vocab.tsv", "task.json", "ensemble.bge",
                     "fusion.bgf", "single.bgv", "pretrained.bgv",
                     "round_log.jsonl", "train_log.jsonl", "metrics.json"):
            assert (run_dir / name).exists(), name
        step_log = [json.loads(l) for l in
                    (run_dir / "train_log.jsonl").read_text().splitlines()]
        assert all({"round", "step", "loss", "lr"} <= set(rec) for rec in step_log)

    def test_metrics_record_shape(self, boost_run):
        out, _, _ = boost_run
        rec = assert_run_contract(out, "train-boost", 0)
        for key in ("single", "boost_vote", "boost_fusion"):
            assert 0.0 <= rec["accuracies"][key] <= 100.0

    def test_missing_train_file_exit_2(self, task_dir, tmp_path):
        cfg_path = write_config(
            tmp_path / "c.json", task_dir, tmp_path,
            train_path=str(tmp_path / "nope.tsv"),
        )
        rc = cli.main(["train-boost", "--config", str(cfg_path)])
        assert rc == 2

    def test_missing_seed_exit_2(self, task_dir, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", task_dir, tmp_path, seed=None)
        assert cli.main(["train-boost", "--config", str(cfg_path)]) == 2

    def test_unknown_config_key_exit_2(self, task_dir, tmp_path):
        cfg = json.loads(write_config(tmp_path / "c.json", task_dir, tmp_path).read_text())
        cfg["bogus_key"] = 1
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert cli.main(["train-boost", "--config", str(tmp_path / "c.json")]) == 2

    def test_single_round_vote_equals_single_model(self, task_dir, tmp_path):
        cfg = json.loads(write_config(tmp_path / "c.json", task_dir, tmp_path).read_text())
        cfg["boost"]["rounds"] = 1
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert cli.main(["train-boost", "--config", str(tmp_path / "c.json")]) == 0
        run_dir = next(p for p in tmp_path.iterdir() if p.name.startswith("train-boost-"))
        rec = json.loads((run_dir / "metrics.json").read_text())
        assert rec["accuracies"]["boost_vote"] == rec["accuracies"]["single"]
        assert rec["extras"]["m_effective"] == 1

    def test_rerun_is_deterministic(self, boost_run, tmp_path):
        out, cfg_path, run_dir = boost_run
        cfg = json.loads(cfg_path.read_text())
        cfg["out_dir"] = str(tmp_path / "rerun")
        cfg2 = tmp_path / "c2.json"
        cfg2.write_text(json.dumps(cfg))
        assert cli.main(["train-boost", "--config", str(cfg2)]) == 0
        rerun_dir = next(p for p in (tmp_path / "rerun").iterdir()
                         if p.name.startswith("train-boost-"))
        for name in ("ensemble.bge", "fusion.bgf", "single.bgv"):
            assert (rerun_dir / name).read_bytes() == (run_dir / name).read_bytes(), name
        a = json.loads((rerun_dir / "metrics.json").read_text())
        b = json.loads((run_dir / "metrics.json").read_text())
        for rec in (a, b):
            rec.pop("wall_time_s"), rec.pop("timing"), rec.pop("run_id")
        assert a == b


class TestConfigErrors:
    @pytest.mark.parametrize("command, extra", [
        ("train-boost", {"pretrain": {"steps": 0}, "boost": {"init_strategy": "incremental"}}),
        ("train-boost", {"pretrain": {"steps": 0}, "boost": {"init_strategy": "pretrained"}}),
        # a softreg config keeps the default distill.init_strategy "pretrained"
        ("distill", {"learner": "softreg", "boost": {"init_strategy": "random"}}),
        ("distill", {"distill": {"init_strategy": "incremental"}}),
        ("distill", {"distill": {"init_strategy": "finetuning"}}),
    ])
    def test_exit_2_and_no_run_dir(self, boost_run, task_dir, tmp_path, command, extra):
        _, _, teacher_dir = boost_run
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", task_dir, out, **extra)
        argv = [command, "--config", str(cfg_path)]
        if command == "distill":
            argv += ["--teacher-dir", str(teacher_dir)]
        assert cli.main(argv) == 2
        assert not out.exists() or not any(out.iterdir())


class TestScoredOnce:
    def test_pipeline_scores_no_round_model_after_boosting(self, task_dir, tmp_path,
                                                           monkeypatch):
        from textboost import boosting, fusion
        from textboost import encoder as enc

        cfg_path = write_config(
            tmp_path / "config.json", task_dir, tmp_path / "out", learner="softreg",
            boost={"rounds": 3, "init_strategy": "random", "sharing_mode": "privacy",
                   "vote": "soft"},
        )
        cfg = cli.RunConfig.load(cfg_path)
        cfg.validate()
        bundle = cli.prepare_task(cfg)
        real_boost_train = boosting.boost_train
        real_predict = boosting.NeuralRoundModel.predict_proba
        late_calls = []

        def counting_predict(model, dataset):
            late_calls.append(dataset)
            return real_predict(model, dataset)

        def boost_then_count(*args, **kwargs):
            out = real_boost_train(*args, **kwargs)
            monkeypatch.setattr(boosting.NeuralRoundModel, "predict_proba", counting_predict)
            return out

        monkeypatch.setattr(boosting, "boost_train", boost_then_count)
        result = cli.run_boost_pipeline(cfg, bundle)
        assert late_calls == []

        # the accuracies of scoring every round model again
        ens, head, dev = result["ensemble"], result["head"], bundle.dev
        vote_preds, _ = boosting.vote_predict(ens, dev)
        fusion_preds, _ = fusion.fusion_predict(ens, head, dev)
        single = enc.model_from_snapshot(result["single_snapshot"])
        assert result["accuracies"] == {
            "single": enc.evaluate_accuracy(single, dev),
            "boost_vote": float((vote_preds == dev.labels).mean() * 100.0),
            "boost_fusion": float((fusion_preds == dev.labels).mean() * 100.0),
        }


class TestEval:
    def test_eval_on_training_set_matches_round_log(self, boost_run, task_dir, capsys):
        _, _, run_dir = boost_run
        rc = cli.main(["eval", "--model-dir", str(run_dir),
                       "--data", str(task_dir / "train.tsv")])
        assert rc == 0
        report = json.loads((run_dir / "eval_train.json").read_text())
        # single-model consistency is checked via the boost_vote of M rounds;
        # here confirm bookkeeping: confusion rows sum to supports
        for rep in report.values():
            conf = np.array(rep["confusion"])
            assert conf.sum(axis=1).tolist() == rep["support"]
            assert 0.0 <= rep["accuracy"] <= 100.0

    def test_single_model_eval_matches_round1_train_acc(self, boost_run, task_dir, tmp_path):
        _, _, run_dir = boost_run
        single_dir = tmp_path / "single"
        single_dir.mkdir()
        for name in ("vocab.tsv", "task.json"):
            (single_dir / name).write_bytes((run_dir / name).read_bytes())
        (single_dir / "model.bgv").write_bytes((run_dir / "single.bgv").read_bytes())
        rc = cli.main(["eval", "--model-dir", str(single_dir),
                       "--data", str(task_dir / "train.tsv")])
        assert rc == 0
        report = json.loads((single_dir / "eval_train.json").read_text())
        round_log = [json.loads(l) for l in (run_dir / "round_log.jsonl").read_text().splitlines()]
        assert np.isclose(report["model"]["accuracy"], round_log[0]["train_acc"], atol=1e-9)

    def test_empty_dataset_is_error(self, boost_run, tmp_path):
        _, _, run_dir = boost_run
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert cli.main(["eval", "--model-dir", str(run_dir), "--data", str(empty)]) == 1

    def test_unknown_label_is_config_error(self, boost_run, tmp_path):
        _, _, run_dir = boost_run
        bad = tmp_path / "bad.tsv"
        bad.write_text("delta\tsome text\n")
        assert cli.main(["eval", "--model-dir", str(run_dir), "--data", str(bad)]) == 2


class TestFractions:
    def test_single_fraction_consistent_with_boost(self, boost_run, tmp_path):
        out, cfg_path, run_dir = boost_run
        cfg = json.loads(cfg_path.read_text())
        cfg["out_dir"] = str(tmp_path)
        cfg2 = tmp_path / "c.json"
        cfg2.write_text(json.dumps(cfg))
        rc = cli.main(["fractions", "--config", str(cfg2), "--fractions", "1.0"])
        assert rc == 0
        rec = assert_run_contract(tmp_path, "fractions", 0)
        frac_dir = tmp_path / rec["run_id"]
        rows = json.loads((frac_dir / "fractions.json").read_text())
        assert len(rows) == 1
        boost_rec = json.loads((run_dir / "metrics.json").read_text())
        assert np.isclose(rows[0]["delta"],
                          boost_rec["accuracies"]["boost_fusion"]
                          - boost_rec["accuracies"]["single"], atol=1e-9)
        assert rows[0]["train_size"] == 400

    def test_row_bookkeeping_and_validation(self, boost_run, tmp_path):
        _, cfg_path, _ = boost_run
        cfg = json.loads(cfg_path.read_text())
        cfg["out_dir"] = str(tmp_path)
        cfg2 = tmp_path / "c.json"
        cfg2.write_text(json.dumps(cfg))
        assert cli.main(["fractions", "--config", str(cfg2), "--fractions", "0.5,1.5"]) == 2
        rc = cli.main(["fractions", "--config", str(cfg2), "--fractions", "0.5,1.0"])
        assert rc == 0
        frac_dir = next(p for p in tmp_path.iterdir() if p.name.startswith("fractions-"))
        rows = json.loads((frac_dir / "fractions.json").read_text())
        assert [r["fraction"] for r in rows] == [0.5, 1.0]
        assert rows[0]["train_size"] in (199, 200, 201)  # stratified rounding


class TestCompare:
    def test_sharing_axis_two_runs(self, boost_run, tmp_path):
        _, cfg_path, _ = boost_run
        cfg = json.loads(cfg_path.read_text())
        cfg["out_dir"] = str(tmp_path)
        cfg2 = tmp_path / "c.json"
        cfg2.write_text(json.dumps(cfg))
        rc = cli.main(["compare", "--config", str(cfg2), "--axes", "sharing_mode"])
        assert rc == 0
        rec = assert_run_contract(tmp_path, "compare", 0)
        assert set(rec["accuracies"].values()) == {None}
        comp_dir = tmp_path / rec["run_id"]
        rows = json.loads((comp_dir / "compare.json").read_text())
        assert len(rows) == 2
        assert {r["cell"]["sharing_mode"] for r in rows} == {"privacy", "sharing"}
        assert all(r["status"] == "ok" for r in rows)

    def test_unknown_axis_exit_2(self, boost_run, tmp_path):
        _, cfg_path, _ = boost_run
        assert cli.main(["compare", "--config", str(cfg_path), "--axes", "nope"]) == 2

    def test_grid_is_product_of_axes(self, boost_run, tmp_path):
        _, cfg_path, _ = boost_run
        cfg = json.loads(cfg_path.read_text())
        cfg["out_dir"] = str(tmp_path)
        cfg["boost"]["rounds"] = 1
        cfg2 = tmp_path / "c.json"
        cfg2.write_text(json.dumps(cfg))
        rc = cli.main(["compare", "--config", str(cfg2),
                       "--axes", "sharing_mode,ensemble_kind"])
        assert rc == 0
        comp_dir = next(p for p in tmp_path.iterdir() if p.name.startswith("compare-"))
        rows = json.loads((comp_dir / "compare.json").read_text())
        assert len(rows) == 4


class TestDistillCmd:
    def test_distill_from_teacher_dir(self, boost_run, tmp_path):
        out, cfg_path, run_dir = boost_run
        cfg = json.loads(cfg_path.read_text())
        cfg["out_dir"] = str(tmp_path)
        cfg2 = tmp_path / "c.json"
        cfg2.write_text(json.dumps(cfg))
        rc = cli.main(["distill", "--teacher-dir", str(run_dir), "--config", str(cfg2)])
        assert rc == 0
        rec = assert_run_contract(tmp_path, "distill", 0)
        ddir = tmp_path / rec["run_id"]
        acc = rec["accuracies"]
        assert acc["single"] is not None
        assert acc["teacher"] is not None
        assert acc["distilled"] is not None
        assert (ddir / "model.bgv").exists()
        # parameter ratio: one base vs M bases + fusion head
        assert 0 < rec["extras"]["param_ratio"] < 1.0 / (rec["extras"]["m_effective"] - 0.5)
        assert rec["timing"]["student_inference_s"] < rec["timing"]["teacher_inference_s"]

    def test_missing_teacher_exit_2(self, tmp_path):
        assert cli.main(["distill", "--teacher-dir", str(tmp_path)]) == 2


def no_training(monkeypatch):
    """Make every MLM pretraining and every distillation fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("a command trained that should only have read artifacts")

    monkeypatch.setattr(enc, "pretrain_mlm", fail)
    monkeypatch.setattr(cli.distill_mod, "distill_train", fail)


class TestFusionCmd:
    def test_retrains_head_and_keeps_the_run_record(self, boost_run, task_dir, tmp_path,
                                                    monkeypatch):
        _, _, source = boost_run
        run_dir = tmp_path / source.name
        shutil.copytree(source, run_dir)
        # an out root with no pretraining cache, so a pretrain would call pretrain_mlm
        out = tmp_path / "out"
        cfg = json.loads((run_dir / "config.json").read_text())
        cfg["out_dir"] = str(out)
        (run_dir / "config.json").write_text(json.dumps(cfg))
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}

        no_training(monkeypatch)
        assert cli.main(["fusion", "--run-dir", str(run_dir), "--depth", "2"]) == 0
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        rec = assert_run_contract(out, "fusion", 0)
        assert rec["extras"]["depth"] == 2
        fusion_dir = out / rec["run_id"]
        head = fusion.FusionHead.load(fusion_dir / "fusion.bgf")
        assert len(head.dims) - 2 == 2
        assert (fusion_dir / "ensemble.bge").read_bytes() == before["ensemble.bge"]
        fusion_cfg = json.loads((fusion_dir / "config.json").read_text())
        assert fusion_cfg["fusion"]["depth"] == 2
        assert not list(out.glob("pretrained_*.bgv"))
        # the fusion dir is a model dir of its own: eval scores the new head
        assert cli.main(["eval", "--model-dir", str(fusion_dir),
                         "--data", str(task_dir / "dev.tsv")]) == 0
        report = json.loads((fusion_dir / "eval_dev.json").read_text())
        assert report["boost_fusion"]["accuracy"] == rec["accuracies"]["boost_fusion"]


class TestArtifactErrors:
    def test_eval_of_a_truncated_ensemble_exits_2(self, boost_run, task_dir, tmp_path):
        _, _, source = boost_run
        model_dir = tmp_path / source.name
        shutil.copytree(source, model_dir)
        blob = (model_dir / "ensemble.bge").read_bytes()
        (model_dir / "ensemble.bge").write_bytes(blob[: len(blob) // 2])
        assert cli.main(["eval", "--model-dir", str(model_dir),
                         "--data", str(task_dir / "dev.tsv")]) == 2
        assert not (model_dir / "eval_dev.json").exists()

    def test_distill_with_a_head_of_another_ensemble_exits_2(self, boost_run, tmp_path,
                                                             monkeypatch):
        out, cfg_path, source = boost_run
        teacher = tmp_path / source.name
        shutil.copytree(source, teacher)
        head = fusion.FusionHead.load(teacher / "fusion.bgf")
        fusion.FusionHead(head.dims, head.params, ensemble_hash="0" * 64).save(
            teacher / "fusion.bgf")
        # the pretraining cache of boost_run, so that the student's trunk is read
        out2 = tmp_path / "out"
        out2.mkdir()
        for cache in out.glob("pretrained_*.bgv"):
            shutil.copy(cache, out2 / cache.name)
        cfg = json.loads(cfg_path.read_text())
        cfg["out_dir"] = str(out2)
        (tmp_path / "c.json").write_text(json.dumps(cfg))

        no_training(monkeypatch)
        assert cli.main(["distill", "--teacher-dir", str(teacher),
                         "--config", str(tmp_path / "c.json")]) == 2
        assert not (out2 / "metrics.jsonl").exists()


class TestPretraining:
    @pytest.mark.parametrize("learner, steps, encoded", [
        ("transformer", 150, True), ("transformer", 0, False), ("softreg", 150, False)])
    def test_corpus_encoded_only_when_pretraining(self, task_dir, tmp_path, learner, steps,
                                                  encoded):
        cfg = cli.RunConfig.load(write_config(
            tmp_path / "c.json", task_dir, tmp_path, learner=learner,
            pretrain={"steps": steps, "lr": 1e-3, "batch_size": 32}))
        assert bool(cli.prepare_task(cfg).corpus_ids) == encoded

    def test_truncated_cache_entry_is_retrained_and_replaced(self, task_dir, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(
            tmp_path / "c.json", task_dir, out,
            boost={"rounds": 1, "init_strategy": "incremental", "sharing_mode": "privacy",
                   "vote": "soft"},
            train={"lr": 3e-3, "batch_size": 16, "epochs": 3},
            pretrain={"steps": 20, "lr": 1e-3, "batch_size": 32},
        )
        argv = ["train-boost", "--config", str(cfg_path)]
        assert cli.main(argv) == 0
        (cache,) = out.glob("pretrained_*.bgv")
        (run_dir,) = out.glob("train-boost-*")
        names = ("ensemble.bge", "fusion.bgf", "single.bgv", "pretrained.bgv")
        first = {name: (run_dir / name).read_bytes() for name in names}
        good = cache.read_bytes()
        cache.write_bytes(good[: len(good) // 2])  # what a crash mid-write leaves
        assert cli.main(argv) == 0
        assert {name: (run_dir / name).read_bytes() for name in names} == first
        assert cache.read_bytes() == good
        assert not list(out.glob("*.tmp"))


class TestOracleCheck:
    def test_oracle_check_passes(self, tmp_path, capsys):
        rc = cli.main(["oracle-check", "--out", str(tmp_path), "--rounds", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worst deviation" in out
        assert (tmp_path / "trajectory_0_engine.jsonl").exists()
        assert (tmp_path / "trajectory_0_oracle.jsonl").exists()


class TestOutRootEnv:
    def test_env_var_sets_default_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "envroot"))
        rc = cli.main(["oracle-check", "--rounds", "2"])
        assert rc == 0
        assert (tmp_path / "envroot" / "oracle-check").is_dir()
