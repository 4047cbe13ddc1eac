import errno
import hashlib
import json
import os
import shutil
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from textboost import artifacts, boosting, cli, fusion, synthetic
from textboost import encoder as enc

from conftest import assert_run_contract, count_fits, make_token_dataset


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
        "pretrain": {"steps": 150},
        "fusion": {"depth": 1, "max_epochs": 4, "patience": 2},
        "distill": {"total_steps": 30},
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
def other_task(tmp_path_factory):
    """A second, smaller task (its vocabulary is not task_dir's) and the run
    dir of a softreg ensemble trained on it: (the task dir, the run dir)."""
    d = tmp_path_factory.mktemp("other")
    assert cli.main(["gen-data", "--out", str(d), "--seed", "5", "--train-size", "300",
                     "--dev-size", "60", "--corpus-size", "100"]) == 0
    cfg_path = write_config(
        d / "c.json", d, d / "out", learner="softreg",
        boost={"rounds": 2, "init_strategy": "random", "sharing_mode": "privacy",
               "vote": "soft"})
    assert cli.main(["train-boost", "--config", str(cfg_path)]) == 0
    (run_dir,) = (d / "out").glob("train-boost-*")
    return d, run_dir


@pytest.fixture(scope="module")
def boost_run(task_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    cfg_path = write_config(out / "config.json", task_dir, out)
    rc = cli.main(["train-boost", "--config", str(cfg_path)])
    assert rc == 0
    run_dirs = [p for p in out.iterdir() if p.is_dir() and p.name.startswith("train-boost-")]
    assert len(run_dirs) == 1
    return out, cfg_path, run_dirs[0]


def copy_trunk(out: Path, into: Path) -> None:
    """Copy the pretraining cache of the out root ``out`` to its path under ``into``."""
    for cache in out.glob("store/*/pretrained_*/pretrained.bgv"):
        (into / cache.relative_to(out)).parent.mkdir(parents=True)
        shutil.copy(cache, into / cache.relative_to(out))


def _fail(*args, **kwargs):
    raise AssertionError("a command did work that should only have read artifacts")


def no_training(monkeypatch):
    """Make every MLM pretraining and every distillation fail the test."""
    monkeypatch.setattr(enc, "pretrain_mlm", _fail)
    monkeypatch.setattr(cli.distill_mod, "distill_train", _fail)


@pytest.fixture(scope="module")
def fusion_run(boost_run, tmp_path_factory):
    """``fusion --depth 2`` on a copy of boost_run's dir, with training made to
    fail and an out root that holds no pretraining cache: (the out root, the
    copy, the copy's files before the run)."""
    _, _, source = boost_run
    tmp = tmp_path_factory.mktemp("fusion")
    run_dir = tmp / source.name
    shutil.copytree(source, run_dir)
    out = tmp / "out"
    cfg = json.loads((run_dir / "config.json").read_text())
    cfg["out_dir"] = str(out)
    (run_dir / "config.json").write_text(json.dumps(cfg))
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    with pytest.MonkeyPatch.context() as mp:
        no_training(mp)
        assert cli.main(["fusion", "--run-dir", str(run_dir), "--depth", "2"]) == 0
    return out, run_dir, before


@pytest.fixture(scope="module")
def distill_run(boost_run, tmp_path_factory):
    """``distill --config`` from a copy of boost_run's dir without its
    config.json, into an out root of its own: (the out root, the run's
    record)."""
    _, cfg_path, source = boost_run
    teacher = tmp_path_factory.mktemp("teacher") / source.name
    shutil.copytree(source, teacher, ignore=shutil.ignore_patterns("config.json"))
    out = tmp_path_factory.mktemp("distill")
    cfg = json.loads(cfg_path.read_text())
    cfg["out_dir"] = str(out)
    (out / "c.json").write_text(json.dumps(cfg))
    assert cli.main(["distill", "--teacher-dir", str(teacher),
                     "--config", str(out / "c.json")]) == 0
    return out, assert_run_contract(out, "distill", 0)


@pytest.fixture(scope="module")
def bag_run(boost_run, task_dir, tmp_path_factory):
    """``train-bag`` into an out root that holds boost_run's pretraining cache,
    so the trunk is read, not trained again: (the out root, the run's record)."""
    out = tmp_path_factory.mktemp("bag")
    copy_trunk(boost_run[0], out)
    cfg_path = write_config(out / "c.json", task_dir, out)
    assert cli.main(["train-bag", "--config", str(cfg_path)]) == 0
    return out, assert_run_contract(out, "train-bag", 0)


class TestGenData:
    def test_writes_all_files(self, task_dir):
        for name in ("train.tsv", "dev.tsv", "corpus.txt", "meta.json"):
            assert (task_dir / name).exists()
        lines = (task_dir / "train.tsv").read_text().strip().splitlines()
        assert len(lines) == 400
        labels = {line.split("\t")[0] for line in lines}
        assert labels == {"alpha", "beta", "gamma"}

    @pytest.mark.parametrize("flags", [
        ["--train-size", "-5"], ["--dev-size", "0"], ["--noise", "1.5"], ["--noise", "nan"],
        ["--hard-fraction", "2"], ["--seed", "-1"]], ids=" ".join)
    def test_bad_flag_exits_2_and_writes_nothing(self, tmp_path, flags):
        argv = ["gen-data", "--out", str(tmp_path / "task"), "--seed", "1", *flags]
        assert cli.main(argv) == 2
        assert not (tmp_path / "task").exists()


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
        assert step_log[0]["round"] == 1  # no source fine-tune under incremental
        rec = json.loads((run_dir / "metrics.json").read_text())
        assert "source_fine_tune_steps" not in rec["extras"]

    def test_finetuning_source_fit_is_logged_as_round_0(self, task_dir, tmp_path):
        cfg_path = write_config(
            tmp_path / "c.json", task_dir, tmp_path, learner="softreg",
            boost={"rounds": 2, "init_strategy": "finetuning", "sharing_mode": "privacy",
                   "vote": "soft"})
        assert cli.main(["train-boost", "--config", str(cfg_path)]) == 0
        (run_dir,) = tmp_path.glob("train-boost-*")
        rounds = [json.loads(l)["round"] for l in
                  (run_dir / "train_log.jsonl").read_text().splitlines()]
        assert rounds == sorted(rounds) and set(rounds) == {0, 1, 2}
        rec = json.loads((run_dir / "metrics.json").read_text())
        assert rec["extras"]["source_fine_tune_steps"] == rounds.count(0) == rounds.count(1)

    def test_a_warm_rerun_reads_the_step_log_back_in_columns(self, task_dir, tmp_path,
                                                              monkeypatch):
        """The store gives a step log in the form its fit made, cold or warm,
        so a warm finetuning run counts its source fine-tune from the columns
        read back and writes the run dir of the cold run."""
        cfg_path = write_config(
            tmp_path / "c.json", task_dir, tmp_path, learner="softreg",
            boost={"rounds": 2, "init_strategy": "finetuning", "sharing_mode": "privacy",
                   "vote": "soft"})
        argv = ["train-boost", "--config", str(cfg_path)]
        assert cli.main(argv) == 0
        (run_dir,) = tmp_path.glob("train-boost-*")
        cold = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "metrics.json"}
        cold_rec = json.loads((run_dir / "metrics.json").read_text())
        fits, loaded, real_load = count_fits(monkeypatch), [], cli._load

        def load(path):
            loaded.append(real_load(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "_load", load)
        assert cli.main(argv) == 0
        assert fits == {}
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()
                if p.name != "metrics.json"} == cold
        warm_rec = json.loads((run_dir / "metrics.json").read_text())
        assert warm_rec["extras"] == cold_rec["extras"]
        assert warm_rec["extras"]["source_fine_tune_steps"] > 0
        assert warm_rec["round_log"] == cold_rec["round_log"]
        (log,) = [part for part in loaded if isinstance(part, enc.StepLog)]
        assert log == [json.loads(line) for line in cold["train_log.jsonl"].splitlines()]

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
        out = tmp_path / "out"
        # a made-up key, and every key whose value now lives in the code
        for section, key in ((None, "bogus_key"), (None, "vocab_min_count"),
                             ("pretrain", "lr"), ("pretrain", "batch_size"),
                             ("fusion", "hidden_multiple"), ("fusion", "lr"),
                             ("fusion", "batch_size"), ("distill", "init_strategy"),
                             ("distill", "lr"), ("distill", "batch_size")):
            cfg = json.loads(write_config(tmp_path / "c.json", task_dir, out).read_text())
            (cfg[section] if section else cfg)[key] = 1
            (tmp_path / "c.json").write_text(json.dumps(cfg))
            assert cli.main(["train-boost", "--config", str(tmp_path / "c.json")]) == 2, key
        assert not out.exists()

    def test_readme_configuration_reference_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration reference", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == cli._DEFAULTS

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


# the keys of write_config's config, each with values it must reject; null
# is a bad value of every key but corpus_path and out_dir, which may be null
_BAD_VALUES = {
    "seed": [None, 1.5], "train_path": [None], "dev_path": [None], "corpus_path": [],
    "learner": [None, "svm"], "out_dir": [],
    "encoder.d_model": [None, 0, 16.0], "encoder.n_layers": [None, 0],
    "encoder.n_heads": [None, 0, 3], "encoder.d_ffn": [None, 0],
    "encoder.max_seq_len": [None, 1, 2], "encoder.dropout_rate": [None, 1, 1.5],
    "boost.rounds": [None, 0], "boost.init_strategy": [None, "warm"],
    "boost.sharing_mode": [None, "both"], "boost.vote": [None, "hard"],
    "train.lr": [None, 0], "train.batch_size": [None, 0], "train.epochs": [None, 1.5],
    "pretrain.steps": [None, 2.0],
    "fusion.depth": [None, 4], "fusion.max_epochs": [None, 0], "fusion.patience": [None, 0.5],
    "distill.total_steps": [None, 0],
    "bag.learning_rates": [None, [0.001], [float("nan"), 0.001], [True, 0.001], [-1, 0.001]],
}
# wrong for every key (a string only where the key is not a free string)
_BAD_ANY = [True, False, "no-such-file", [], ["a", "b"], {}, {"a": 1},
            float("nan"), float("inf"), float("-inf"), -1, -0.5]


def _bad_values_of(key: str) -> list:
    return _BAD_VALUES[key] + [v for v in _BAD_ANY if key != "out_dir" or not isinstance(v, str)]


class TestConfigErrors:
    @pytest.mark.parametrize("command, extra", [
        ("train-boost", {"pretrain": {"steps": 0}, "boost": {"init_strategy": "incremental"}}),
        ("train-boost", {"pretrain": {"steps": 0}, "boost": {"init_strategy": "pretrained"}}),
        ("distill", {"distill": {"total_steps": 2.5}}),
        ("distill", {"distill": {"total_steps": "600"}}),
        ("distill", {"fusion": {"max_epochs": 0}}),
        # values the config cannot hold
        ("train-boost", {"train": {"lr": -1}}),
        ("train-boost", {"train": {"lr": "fast"}}),
        ("train-boost", {"fusion": {"depth": 7}}),
        ("train-boost", {"encoder": {"d_model": 30, "n_heads": 4}}),
        ("train-boost", {"boost": {"rounds": 0}}),
        ("train-bag", {"bag": {"learning_rates": [0.001]}}),
        ("train-boost", {"pretrain": {"steps": -5}, "boost": {"init_strategy": "random"}}),
        ("train-boost", {"pretrain": {"steps": "5"}}),
        ("train-bag", {"bag": {"learning_rates": 0.001}}),
        ("train-bag", {"bag": {"learning_rates": ["fast", "slow"]}}),
        ("distill", {"distill": {"total_steps": 0}}),
        # a bool is not an integer, and a number is finite
        *[pytest.param("train-boost", extra, id=name) for name, extra in (
            ("seed-true", {"seed": True}),
            ("seed-1.5", {"seed": 1.5}),
            ("seed-negative", {"seed": -1}),
            ("seed-str", {"seed": "abc"}),
            ("seed-object", {"seed": {}}),
            ("rounds-true", {"boost": {"rounds": True}}),
            ("patience-true", {"fusion": {"patience": True}}),
            ("depth-1.5", {"fusion": {"depth": 1.5}}),
            ("epochs-1.5", {"train": {"epochs": 1.5}}),
            ("lr-nan", {"train": {"lr": float("nan")}}),
            ("lr-inf", {"train": {"lr": float("inf")}}),
            ("d_model-float", {"encoder": {"d_model": 32.0}}),
            # room for CLS, SEP and one token to mask
            ("max_seq_len-1", {"encoder": {"max_seq_len": 1}}),
            ("max_seq_len-2-pretraining", {"encoder": {"max_seq_len": 2}}),
        )],
        pytest.param("train-bag", {"bag": {"learning_rates": [float("nan"), 0.001]}},
                     id="rates-nan"),
        pytest.param("train-boost", lambda task_dir: {"train_path": str(task_dir)},
                     id="train_path-a-dir"),
        pytest.param("train-boost", [1], id="top-level-list"),
    ])
    def test_exit_2_and_no_run_dir(self, boost_run, task_dir, tmp_path, command, extra):
        _, _, teacher_dir = boost_run
        out = tmp_path / "out"
        if callable(extra):
            extra = extra(task_dir)
        if isinstance(extra, list):
            cfg_path = tmp_path / "c.json"
            cfg_path.write_text(json.dumps(extra))
        else:
            cfg_path = write_config(tmp_path / "c.json", task_dir, out, **extra)
        argv = [command, "--config", str(cfg_path)]
        if command == "distill":
            argv += ["--teacher-dir", str(teacher_dir)]
        assert cli.main(argv) == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("train, dev, corpus", [
        pytest.param("", "alpha\tone\n", None, id="empty-train"),
        pytest.param("alpha\tone\nbeta no tab\n", "alpha\tone\n", None, id="malformed-line"),
        pytest.param("alpha\tone\nbeta\ttwo\n", "alpha\tone\n", "\n  \n", id="blank-corpus"),
        pytest.param("alpha\tone\nalpha\ttwo\n", "alpha\tone\n", None, id="one-label"),
    ])
    def test_bad_task_data_exits_2_and_no_run_dir(self, task_dir, tmp_path, train, dev, corpus):
        out = tmp_path / "out"
        paths = {}
        for key, text in (("train_path", train), ("dev_path", dev), ("corpus_path", corpus)):
            if text is not None:
                paths[key] = str(tmp_path / key)
                (tmp_path / key).write_text(text)
        cfg_path = write_config(tmp_path / "c.json", task_dir, out, **paths)
        if corpus is None:
            cfg = json.loads(cfg_path.read_text())
            cfg["corpus_path"] = None
            cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["train-boost", "--config", str(cfg_path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("train, dev, message", [
        pytest.param("alpha\tone\nbeta no tab\n", "alpha\tone\n",
                     "{train}:2: expected 2 or 3 tab-separated fields, got 1", id="malformed"),
        pytest.param("alpha\tone\nbeta\ttwo\t \n", "alpha\tone\n", "{train}:2: empty text_b",
                     id="blank-text-b"),
        pytest.param("alpha\tone\nbeta\ttwo\n", "\n\n", "{dev}: no examples found",
                     id="empty-dev"),
        pytest.param("alpha\tone\nbeta\ttwo\n", "gamma\tx\nalpha\ty\ndelta\tz\n",
                     "dev labels missing from training data: ['delta', 'gamma']",
                     id="dev-only-labels"),
    ])
    def test_bad_task_data_is_named_in_the_message(self, task_dir, tmp_path, capsys, train,
                                                   dev, message):
        paths = {"train_path": tmp_path / "train.tsv", "dev_path": tmp_path / "dev.tsv"}
        paths["train_path"].write_text(train)
        paths["dev_path"].write_text(dev)
        cfg_path = write_config(tmp_path / "c.json", task_dir, tmp_path / "out",
                                **{k: str(v) for k, v in paths.items()})
        assert cli.main(["train-boost", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: " + message.format(
            train=paths["train_path"], dev=paths["dev_path"]) + "\n"
        assert not (tmp_path / "out").exists()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad=st.sampled_from(sorted(_BAD_VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(_bad_values_of(key)))))
    def test_one_bad_value_fails_every_config_driven_command(self, boost_run, task_dir,
                                                            tmp_path, monkeypatch, bad):
        """The test config with one key set to a value of a wrong type or out of
        range: every command that reads a config exits 2, before it trains or
        makes a run dir."""
        key, value = bad
        no_training(monkeypatch)
        teacher = tmp_path / "teacher"
        if not teacher.exists():
            shutil.copytree(boost_run[2], teacher)
        cfg = json.loads(write_config(tmp_path / "c.json", task_dir, tmp_path / "out").read_text())
        section, _, leaf = key.rpartition(".")
        (cfg[section] if section else cfg)[leaf] = value
        for path in (tmp_path / "c.json", teacher / "config.json"):
            path.write_text(json.dumps(cfg))
        config = ["--config", str(tmp_path / "c.json")]
        for argv in (["train-boost", *config], ["train-bag", *config],
                     ["compare", *config, "--axes", "ensemble_kind"],
                     ["distill", "--teacher-dir", str(boost_run[2]), *config],
                     ["fusion", "--run-dir", str(teacher)]):
            assert cli.main(argv) == 2, (argv[0], key, value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "teacher"]


class TestScoredOnce:
    def test_pipeline_scores_no_round_model_after_boosting(self, task_dir, tmp_path,
                                                           monkeypatch):
        from textboost import boosting, fusion
        from textboost import encoder as enc

        out = tmp_path / "out"
        cfg_path = write_config(
            tmp_path / "config.json", task_dir, out, learner="softreg",
            boost={"rounds": 3, "init_strategy": "random", "sharing_mode": "privacy",
                   "vote": "soft"},
        )
        real_boost_train = boosting.boost_train
        real_predict = boosting.NeuralRoundModel.predict_proba
        late_calls = []

        def counting_predict(model, dataset):
            late_calls.append(dataset)
            return real_predict(model, dataset)

        def boost_then_count(*args, **kwargs):
            result = real_boost_train(*args, **kwargs)
            monkeypatch.setattr(boosting.NeuralRoundModel, "predict_proba", counting_predict)
            return result

        monkeypatch.setattr(boosting, "boost_train", boost_then_count)
        assert cli.main(["train-boost", "--config", str(cfg_path)]) == 0
        assert late_calls == []
        monkeypatch.undo()

        # the accuracies of scoring every saved round model again
        (run_dir,) = out.glob("train-boost-*")
        ens = boosting.BoostEnsemble.load(run_dir / "ensemble.bge")
        head = fusion.FusionHead.load(run_dir / "fusion.bgf")
        dev = cli.prepare_task(cli.RunConfig.load(cfg_path)).dev
        vote_preds, _ = boosting.vote_predict(ens, dev)
        fusion_preds, _ = fusion.fusion_predict(ens, head, dev)
        single = enc.model_from_snapshot(enc.ModelSnapshot.load(run_dir / "single.bgv"))
        rec = json.loads((run_dir / "metrics.json").read_text())
        assert {k: v for k, v in rec["accuracies"].items() if v is not None} == {
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
        assert cli.main(["eval", "--model-dir", str(run_dir), "--data", str(empty)]) == 2
        assert not (run_dir / "eval_empty.json").exists()

    def test_malformed_dataset_is_config_error(self, boost_run, tmp_path):
        _, _, run_dir = boost_run
        bad = tmp_path / "bad.tsv"
        bad.write_text("alpha\tsome text\nbeta without a tab\n")
        assert cli.main(["eval", "--model-dir", str(run_dir), "--data", str(bad)]) == 2
        assert not (run_dir / "eval_bad.json").exists()

    def test_unknown_label_is_config_error(self, boost_run, tmp_path):
        _, _, run_dir = boost_run
        bad = tmp_path / "bad.tsv"
        bad.write_text("delta\tsome text\n")
        assert cli.main(["eval", "--model-dir", str(run_dir), "--data", str(bad)]) == 2

    def test_unknown_labels_are_listed_sorted(self, boost_run, tmp_path, capsys):
        _, _, run_dir = boost_run
        bad = tmp_path / "bad.tsv"
        bad.write_text("epsilon\tsome text\nalpha\tmore\ndelta\tother text\n")
        assert cli.main(["eval", "--model-dir", str(run_dir), "--data", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: dataset labels unknown to this model: ['delta', 'epsilon']\n")
        assert not (run_dir / "eval_bad.json").exists()


def compare(cfg_path: Path, out: Path, *flags: str) -> tuple[dict, list]:
    """Run ``compare`` into ``out``: (its record, the rows of its compare.json)."""
    assert cli.main(["compare", "--config", str(cfg_path), *flags]) == 0
    rec = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
    return rec, json.loads((out / rec["run_id"] / "compare.json").read_text())


def config_into(cfg_path: Path, out: Path, **boost) -> Path:
    """A copy of the config at ``cfg_path`` that writes into ``out``."""
    cfg = json.loads(cfg_path.read_text())
    cfg["out_dir"] = str(out)
    cfg["boost"].update(boost)
    out.mkdir(parents=True, exist_ok=True)
    (out / "c.json").write_text(json.dumps(cfg))
    return out / "c.json"


class TestFractions:
    """The ``fraction`` axis of ``compare``."""

    def test_single_fraction_consistent_with_boost(self, boost_run, tmp_path):
        out, cfg_path, run_dir = boost_run
        cfg2 = config_into(cfg_path, tmp_path)
        assert cli.main(["compare", "--config", str(cfg2),
                         "--axes", "fraction", "--fractions", "1.0"]) == 0
        rec = assert_run_contract(tmp_path, "compare", 0)
        rows = json.loads((tmp_path / rec["run_id"] / "compare.json").read_text())
        assert len(rows) == 1
        boost_rec = json.loads((run_dir / "metrics.json").read_text())
        # the 1.0 cell is train-boost's run of the same config, to the bit
        assert rows[0]["delta"] == (boost_rec["accuracies"]["boost_fusion"]
                                    - boost_rec["accuracies"]["single"])
        assert rows[0]["train_size"] == 400

    def test_row_bookkeeping_and_validation(self, boost_run, tmp_path):
        _, cfg_path, _ = boost_run
        cfg2 = config_into(cfg_path, tmp_path / "out")
        for bad in ("0.5,1.5", "0.5,abc", "0.5,,1", "0.5,0.5"):
            assert cli.main(["compare", "--config", str(cfg2), "--axes", "fraction",
                             "--fractions", bad]) == 2, bad
        assert not any((tmp_path / "out").glob("compare-*"))
        _, rows = compare(cfg2, tmp_path / "out", "--axes", "fraction", "--fractions", "0.5,1.0")
        assert [r["cell"]["fraction"] for r in rows] == [0.5, 1.0]
        assert rows[0]["train_size"] in (199, 200, 201)  # stratified rounding
        assert rows[1]["train_size"] == 400
        for r in rows:
            assert r["status"] == "ok" and r["bag"] is None
            assert r["delta"] == r["boost_fusion"] - r["single"]

    def test_a_failed_fraction_is_reported_and_the_grid_goes_on(self, boost_run, tmp_path,
                                                                capsys):
        _, cfg_path, _ = boost_run
        cfg2 = config_into(cfg_path, tmp_path, rounds=1)
        # 0.001 of about 133 rows a class leaves every class empty
        _, rows = compare(cfg2, tmp_path, "--axes", "fraction", "--fractions", "0.001,1.0")
        assert [r["status"] for r in rows] == ["failed", "ok"]
        assert "empty" in rows[0]["error"]
        assert "fraction=0.001: FAILED" in capsys.readouterr().err


class TestCompare:
    def test_sharing_axis_two_runs(self, boost_run, tmp_path):
        _, cfg_path, _ = boost_run
        cfg2 = config_into(cfg_path, tmp_path)
        rc = cli.main(["compare", "--config", str(cfg2), "--axes", "sharing_mode"])
        assert rc == 0
        rec = assert_run_contract(tmp_path, "compare", 0)
        assert set(rec["accuracies"].values()) == {None}
        comp_dir = tmp_path / rec["run_id"]
        rows = json.loads((comp_dir / "compare.json").read_text())
        assert len(rows) == 2
        assert {r["cell"]["sharing_mode"] for r in rows} == {"privacy", "sharing"}
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["train_size"] == 400 for r in rows)

    def test_unknown_axis_exit_2(self, boost_run, tmp_path):
        _, cfg_path, _ = boost_run
        cfg2 = config_into(cfg_path, tmp_path / "out")
        for flags in (["nope"], ["sharing_mode,sharing_mode"], ["fraction,init_strategy,fraction"],
                      [","], ["ensemble_kind", "--fractions", "0.05"]):
            assert cli.main(["compare", "--config", str(cfg2), "--axes", *flags]) == 2, flags
        assert not any((tmp_path / "out").glob("compare-*"))

    def test_grid_is_product_of_axes(self, boost_run, tmp_path):
        _, cfg_path, _ = boost_run
        cfg2 = config_into(cfg_path, tmp_path, rounds=1)
        first, rows = compare(cfg2, tmp_path, "--axes", "sharing_mode,ensemble_kind")
        assert len(rows) == 4
        # a second grid of the same config gets a dir of its own
        second, rows = compare(cfg2, tmp_path, "--axes", "fraction,ensemble_kind",
                               "--fractions", "0.5,1.0")
        assert first["run_id"] != second["run_id"]
        assert len(json.loads((tmp_path / first["run_id"] / "compare.json").read_text())) == 4
        assert [(r["cell"]["fraction"], r["cell"]["ensemble_kind"]) for r in rows] == [
            (0.5, "boost"), (0.5, "bag"), (1.0, "boost"), (1.0, "bag")]
        assert all(r["status"] == "ok" for r in rows)
        # the bag of a 0.5 cell trains on the 0.5 cell's subsample
        assert rows[1]["train_size"] == rows[0]["train_size"] < rows[2]["train_size"] == 400
        assert rows[1]["bag"] is not None and rows[1]["delta"] is None


class TestDistillCmd:
    def test_distill_from_teacher_dir(self, distill_run):
        out, rec = distill_run
        ddir = out / rec["run_id"]
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

    def test_malformed_teacher_record_exits_2_before_training(self, boost_run, tmp_path,
                                                             monkeypatch):
        teacher = tmp_path / "teacher"
        shutil.copytree(boost_run[2], teacher)
        (teacher / "metrics.json").write_text("[1,2")
        cfg = json.loads(boost_run[1].read_text())
        cfg["out_dir"] = str(tmp_path / "out")
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        no_training(monkeypatch)
        assert cli.main(["distill", "--teacher-dir", str(teacher),
                         "--config", str(tmp_path / "c.json")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["smaller-vocab", "larger-vocab", "label-names",
                                      "max_seq_len"])
    def test_a_config_of_another_task_exits_2_before_training(self, boost_run, other_task,
                                                             task_dir, tmp_path, monkeypatch,
                                                             case):
        """The student trains on ids the teacher reads: the config's vocabulary,
        label names and max_seq_len must be the teacher dir's."""
        teacher, task, extra = boost_run[2], other_task[0], {}
        if case == "larger-vocab":
            teacher, task = other_task[1], task_dir
        elif case == "label-names":
            task = task_dir
            for name in ("train_path", "dev_path"):
                text = (task_dir / f"{name[:-5]}.tsv").read_text()
                (tmp_path / name).write_text(text.replace("alpha\t", "delta\t"))
                extra[name] = str(tmp_path / name)
        elif case == "max_seq_len":
            task = task_dir
            extra["encoder"] = {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ffn": 32,
                                "max_seq_len": 20}
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "c.json", task, out, **extra)
        no_training(monkeypatch)
        assert cli.main(["distill", "--teacher-dir", str(teacher),
                         "--config", str(cfg_path)]) == 2
        assert not out.exists()

    def test_a_run_without_a_trunk_distills_a_random_student(self, task_dir, tmp_path,
                                                             monkeypatch):
        cfg_path = write_config(
            tmp_path / "c.json", task_dir, tmp_path, learner="softreg",
            boost={"rounds": 2, "init_strategy": "random", "sharing_mode": "privacy",
                   "vote": "soft"})
        assert cli.main(["train-boost", "--config", str(cfg_path)]) == 0
        (teacher,) = tmp_path.glob("train-boost-*")
        trunks = []
        real = cli.distill_mod.distill_train

        def spy(*args, pretrained=None, **kwargs):
            trunks.append(pretrained)
            return real(*args, pretrained=pretrained, **kwargs)

        monkeypatch.setattr(cli.distill_mod, "distill_train", spy)
        assert cli.main(["distill", "--teacher-dir", str(teacher)]) == 0
        assert trunks == [None]
        rec = assert_run_contract(tmp_path, "distill", 1)
        student = enc.ModelSnapshot.load(tmp_path / rec["run_id"] / "model.bgv")
        assert student.config.kind == "softreg"


class TestTrainBag:
    def test_one_ensemble_that_eval_reports_as_bag(self, bag_run, task_dir, capsys):
        out, rec = bag_run
        run_dir = out / rec["run_id"]
        assert (run_dir / "ensemble.bge").is_file()
        assert not list(run_dir.glob("bag_member_*.bgv"))
        capsys.readouterr()
        assert cli.main(["eval", "--model-dir", str(run_dir),
                         "--data", str(task_dir / "dev.tsv")]) == 0
        acc = rec["accuracies"]["bag"]
        assert f"== bag ==\naccuracy: {acc:.2f}\n" in capsys.readouterr().out
        report = json.loads((run_dir / "eval_dev.json").read_text())
        assert list(report) == ["bag"]
        assert report["bag"]["accuracy"] == acc


@pytest.mark.parametrize("command, fixture", [
    ("train-boost", "boost_run"), ("fusion", "fusion_run"), ("distill", "distill_run"),
    ("train-bag", "bag_run")])
def test_eval_reads_the_run_dir_of_every_command_that_leaves_a_model(request, task_dir,
                                                                     command, fixture):
    out = request.getfixturevalue(fixture)[0]
    (run_dir,) = out.glob(f"{command}-*")
    assert cli.main(["eval", "--model-dir", str(run_dir),
                     "--data", str(task_dir / "train.tsv")]) == 0


def test_a_discrete_eval_writes_a_report_of_its_own(boost_run, task_dir, tmp_path):
    model_dir = tmp_path / boost_run[2].name
    shutil.copytree(boost_run[2], model_dir, ignore=shutil.ignore_patterns("eval_*.json"))
    argv = ["eval", "--model-dir", str(model_dir), "--data", str(task_dir / "dev.tsv")]
    assert cli.main(argv) == 0
    soft = (model_dir / "eval_dev.json").read_bytes()
    assert cli.main([*argv, "--vote", "discrete"]) == 0
    assert (model_dir / "eval_dev.json").read_bytes() == soft
    discrete = json.loads((model_dir / "eval_dev_discrete.json").read_text())
    # the head does not vote, so only boost_vote may differ
    assert discrete["boost_fusion"] == json.loads(soft)["boost_fusion"]


class TestFusionCmd:
    def test_retrains_head_and_keeps_the_run_record(self, fusion_run, task_dir):
        out, run_dir, before = fusion_run
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        rec = assert_run_contract(out, "fusion", 0)
        assert rec["extras"]["depth"] == 2
        fusion_dir = out / rec["run_id"]
        head = fusion.FusionHead.load(fusion_dir / "fusion.bgf")
        assert len(head.dims) - 2 == 2
        assert (fusion_dir / "ensemble.bge").read_bytes() == before["ensemble.bge"]
        fusion_cfg = json.loads((fusion_dir / "config.json").read_text())
        assert fusion_cfg["fusion"]["depth"] == 2
        assert not list(out.glob("store/*/pretrained_*/pretrained.bgv"))
        # the fusion dir is a model dir of its own: eval scores the new head
        assert cli.main(["eval", "--model-dir", str(fusion_dir),
                         "--data", str(task_dir / "dev.tsv")]) == 0
        report = json.loads((fusion_dir / "eval_dev.json").read_text())
        assert report["boost_fusion"]["accuracy"] == rec["accuracies"]["boost_fusion"]


    def test_a_config_of_another_task_exits_2(self, boost_run, other_task, tmp_path):
        """A run dir whose config now names other data files: the head would
        read ids its ensemble never saw."""
        run_dir = tmp_path / boost_run[2].name
        shutil.copytree(boost_run[2], run_dir)
        write_config(run_dir / "config.json", other_task[0], tmp_path / "out")
        assert cli.main(["fusion", "--run-dir", str(run_dir)]) == 2
        assert not (tmp_path / "out").exists()

    def test_a_bag_and_a_boost_dir_of_one_config_get_two_fusion_dirs(self, boost_run, bag_run,
                                                                     task_dir, tmp_path, capsys):
        out = tmp_path / "out"
        sources = {}
        for kind, source in (("boost", boost_run[2]), ("bag", bag_run[0] / bag_run[1]["run_id"])):
            sources[kind] = tmp_path / source.name
            shutil.copytree(source, sources[kind])
            cfg = json.loads((source / "config.json").read_text())
            cfg["out_dir"] = str(out)
            (sources[kind] / "config.json").write_text(json.dumps(cfg))
        assert sources["boost"].name[-12:] == sources["bag"].name[-12:]  # one config
        records = {}
        for kind, source in sources.items():
            assert cli.main(["fusion", "--run-dir", str(source)]) == 0
            records[kind] = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
        assert len(list(out.glob("fusion-*"))) == 2
        assert records["boost"]["accuracies"].get("bag_fusion") is None
        assert records["boost"]["accuracies"]["boost_fusion"] is not None
        assert records["bag"]["accuracies"]["boost_fusion"] is None
        bag_fusion = records["bag"]["accuracies"]["bag_fusion"]
        bag_dir = out / records["bag"]["run_id"]
        capsys.readouterr()
        assert cli.main(["eval", "--model-dir", str(bag_dir),
                         "--data", str(task_dir / "dev.tsv")]) == 0
        assert f"== bag_fusion ==\naccuracy: {bag_fusion:.2f}\n" in capsys.readouterr().out
        assert list(json.loads((bag_dir / "eval_dev.json").read_text())) == ["bag", "bag_fusion"]


def _rewrite(edit):
    """A change of a text file that rewrites its text through ``edit``."""
    return lambda path: path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def _task_with_a_fourth_class(text):
    task = json.loads(text)
    return json.dumps({**task, "label_names": [*task["label_names"], "delta"], "K": 4})


def _bind_to(ensemble_hash):
    """A change of a fusion head file that binds the head to ``ensemble_hash``."""
    def bind(path):
        head = fusion.FusionHead.load(path)
        fusion.FusionHead(head.dims, head.params, ensemble_hash=ensemble_hash).save(path)
    return bind


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


# a change of one file of a run dir that no command may read past
_BAD_RUN_DIRS = {
    "truncated-ensemble": ("ensemble.bge", _truncate),
    "head-of-another-ensemble": ("fusion.bgf", _bind_to("0" * 64)),
    # well formed, but 20 ids against the model's vocabulary
    "vocab-cut": ("vocab.tsv", _rewrite(lambda text: "".join(text.splitlines(True)[:20]))),
    # well formed, but K=4 against the model's 3
    "task-fourth-class": ("task.json", _rewrite(_task_with_a_fourth_class)),
    # well formed, but sequences longer than the model's 24 positions
    "task-longer-sequences": ("task.json", _rewrite(lambda text: text.replace(
        '"max_seq_len": 24', '"max_seq_len": 40'))),
    "task-missing": ("task.json", Path.unlink),
    # well formed, but the learner is not the model's
    "task-other-learner": ("task.json", _rewrite(lambda text: text.replace(
        '"learner": "transformer"', '"learner": "softreg"'))),
}


class TestArtifactErrors:
    @staticmethod
    def eval_of_a_changed_copy(boost_run, task_dir, tmp_path, name, change) -> int:
        """``eval`` of a copy of boost_run's dir whose file ``name`` went
        through ``change``; checks that no report was written."""
        _, _, source = boost_run
        model_dir = tmp_path / source.name
        shutil.copytree(source, model_dir)
        change(model_dir / name)
        rc = cli.main(["eval", "--model-dir", str(model_dir), "--data", str(task_dir / "dev.tsv")])
        assert not (model_dir / "eval_dev.json").exists()
        return rc

    def test_eval_with_an_unbound_fusion_head_exits_2(self, boost_run, task_dir, tmp_path):
        assert self.eval_of_a_changed_copy(boost_run, task_dir, tmp_path, "fusion.bgf",
                                           _bind_to("")) == 2

    @pytest.mark.parametrize("name, change", [
        pytest.param("vocab.tsv", _rewrite(lambda text: text + "notab\n"), id="vocab-no-tab"),
        pytest.param("vocab.tsv", _rewrite(lambda text: text + "word\tseven\n"),
                     id="vocab-bad-id"),
        pytest.param("vocab.tsv", _rewrite(lambda text: text.replace("[CLS]", "[CLZ]")),
                     id="vocab-reserved"),
        pytest.param("task.json", _rewrite(lambda text: text[: len(text) // 2]), id="task-cut"),
        pytest.param("task.json", _rewrite(lambda text: text.replace('"K": 3', '"K": 4')),
                     id="task-K-not-its-labels"),
    ])
    def test_eval_with_a_malformed_or_mismatched_vocabulary_or_task_exits_2(
            self, boost_run, task_dir, tmp_path, name, change):
        assert self.eval_of_a_changed_copy(boost_run, task_dir, tmp_path, name, change) == 2

    @pytest.mark.parametrize("case", list(_BAD_RUN_DIRS))
    @pytest.mark.parametrize("command", ["fusion", "distill", "eval"])
    def test_a_bad_run_dir_exits_2_before_any_work(self, boost_run, task_dir, tmp_path,
                                                   monkeypatch, command, case):
        """Each command that reads a run dir reads and checks it whole before
        it makes a run dir, pretrains, trains or scores."""
        out, cfg_path, source = boost_run
        model_dir = tmp_path / source.name
        shutil.copytree(source, model_dir, ignore=shutil.ignore_patterns("eval_*.json"))
        # the pretraining cache of boost_run, so that a student's trunk would be read
        out2 = tmp_path / "out"
        out2.mkdir()
        copy_trunk(out, out2)
        cfg = json.loads(cfg_path.read_text())
        cfg["out_dir"] = str(out2)
        for path in (model_dir / "config.json", tmp_path / "c.json"):
            path.write_text(json.dumps(cfg))
        name, change = _BAD_RUN_DIRS[case]
        change(model_dir / name)
        before = sorted(out2.rglob("*"))

        no_training(monkeypatch)
        monkeypatch.setattr(boosting.BoostEnsemble, "predict_proba_per_round", _fail)
        flags = {"fusion": ["--run-dir", str(model_dir)],
                 "distill": ["--teacher-dir", str(model_dir), "--config", str(tmp_path / "c.json")],
                 "eval": ["--model-dir", str(model_dir), "--data", str(task_dir / "dev.tsv")]}
        assert cli.main([command, *flags[command]]) == 2
        assert sorted(out2.rglob("*")) == before
        assert not list(model_dir.glob("eval_*.json"))


def _sharing_copy(ensemble: boosting.BoostEnsemble) -> boosting.BoostEnsemble:
    """The weight-sharing ensemble of a privacy ensemble's heads on its first
    round's trunk."""
    trunk = ensemble.rounds[0].model.snapshot
    return boosting.BoostEnsemble(
        K=ensemble.K, learner_kind=ensemble.learner_kind, sharing_mode="sharing",
        rounds=[boosting.BoostRound(
            index=r.index, alpha=r.alpha, err=r.err,
            model=boosting.SharedHeadRoundModel(
                head=r.model.snapshot.params[trunk.layout.head].copy(), trunk=trunk))
            for r in ensemble.rounds])


def count_serializations(monkeypatch) -> list:
    """Record every ``ensemble_to_bytes`` call from now on: the ensembles serialized."""
    real, calls = boosting.ensemble_to_bytes, []

    def counting(ensemble):
        calls.append(ensemble)
        return real(ensemble)

    monkeypatch.setattr(boosting, "ensemble_to_bytes", counting)
    return calls


class TestOneHashPerEnsemble:
    """An ensemble keeps its key: the sha256 of the ``.bge`` bytes it was read
    from or written to, else of its bytes when first asked. The binding
    checks, the stage keys and the run's source use that key."""

    EXPECTED = {"privacy": ("privacy", "boost"), "bag": ("privacy", "bag"),
                "sharing": ("sharing", "boost")}

    @pytest.fixture
    def dirs(self, boost_run, bag_run, tmp_path):
        """A boost dir, a bag dir, and a copy of the boost dir that holds the
        weight-sharing ensemble of its heads, with its fusion head bound to it."""
        sharing = tmp_path / "sharing"
        shutil.copytree(boost_run[2], sharing, ignore=shutil.ignore_patterns("eval_*.json"))
        ensemble = _sharing_copy(boosting.BoostEnsemble.load(sharing / "ensemble.bge"))
        ensemble.save(sharing / "ensemble.bge")
        _bind_to(ensemble.content_hash())(sharing / "fusion.bgf")
        return {"privacy": boost_run[2], "bag": bag_run[0] / bag_run[1]["run_id"],
                "sharing": sharing}

    def test_the_key_is_the_content_hash(self, dirs, monkeypatch):
        calls = count_serializations(monkeypatch)
        for kind, path in dirs.items():
            trained = cli.TrainedDir.read(path, need_ensemble=True)
            ensemble = trained.ensemble
            key = ensemble.content_hash()
            assert cli._key_of(trained) == [key, cli._key_of(trained.head)]
            assert not calls, f"reading the {kind} dir serialized its ensemble"
            assert (ensemble.sharing_mode, ensemble.ensemble_kind) == self.EXPECTED[kind]
            assert key == hashlib.sha256((path / "ensemble.bge").read_bytes()).hexdigest()
            assert key == hashlib.sha256(boosting.ensemble_to_bytes(ensemble)).hexdigest()
            calls.clear()

    def test_each_command_serializes_its_ensemble_only_to_write_or_guard_it(
            self, task_dir, tmp_path, monkeypatch):
        """A fitted ensemble is serialized once, by the store's write, and once
        more by ``train_fusion``'s check that training left it as it was; a
        read one never, as its key is the sha256 of the bytes it was read from."""
        out = tmp_path / "out"
        argv = ["train-boost", "--config",
                str(TestStore.config(task_dir, out, tmp_path / "c.json"))]
        calls = count_serializations(monkeypatch)

        def serializations(*argv) -> int:
            calls.clear()
            assert cli.main(list(argv)) == 0
            return len(calls)

        assert serializations(*argv) == 2  # cold
        assert serializations(*argv) == 0  # warm
        (boost_dir,) = out.glob("train-boost-*")
        assert serializations("fusion", "--run-dir", str(boost_dir)) == 0
        assert serializations("fusion", "--run-dir", str(boost_dir), "--depth", "2") == 1
        assert serializations("distill", "--teacher-dir", str(boost_dir)) == 0
        assert serializations("eval", "--model-dir", str(boost_dir),
                              "--data", str(task_dir / "dev.tsv")) == 0

    def test_compare_serializes_each_fitted_ensemble_to_write_or_guard_it(
            self, task_dir, tmp_path, monkeypatch):
        """Two boosted ensembles, each written and guarded, and one bag, written
        once for its two cells; a warm rerun reads every ensemble."""
        out = tmp_path / "out"
        cfg_path = TestStore.config(task_dir, out, tmp_path / "c.json", boost={
            "rounds": 1, "init_strategy": "incremental", "sharing_mode": "privacy",
            "vote": "soft"})
        calls = count_serializations(monkeypatch)
        for expected in (5, 0):  # cold, warm
            calls.clear()
            _, rows = compare(cfg_path, out, "--axes", "ensemble_kind,sharing_mode")
            assert [r["status"] for r in rows] == ["ok"] * 4
            assert len(calls) == expected

    def test_eval_serializes_no_ensemble(self, dirs, task_dir, tmp_path, monkeypatch):
        calls = count_serializations(monkeypatch)
        for kind, path in dirs.items():
            model_dir = tmp_path / "eval" / kind
            shutil.copytree(path, model_dir, ignore=shutil.ignore_patterns("eval_*.json"))
            assert cli.main(["eval", "--model-dir", str(model_dir),
                             "--data", str(task_dir / "dev.tsv")]) == 0
            assert not calls, kind
        assert {"boost_fusion"} < set(json.loads((model_dir / "eval_dev.json").read_text()))

    @pytest.mark.parametrize("command", ["fusion", "distill", "eval"])
    def test_a_head_bound_to_another_ensemble_exits_2(self, dirs, task_dir, tmp_path, command):
        """The boost dir with the sharing dir's head, which reads features of
        the same width but is bound to the sharing ensemble."""
        model_dir = tmp_path / "mixed"
        shutil.copytree(dirs["privacy"], model_dir, ignore=shutil.ignore_patterns("eval_*.json"))
        shutil.copy(dirs["sharing"] / "fusion.bgf", model_dir / "fusion.bgf")
        flags = {"fusion": ["--run-dir", str(model_dir)],
                 "distill": ["--teacher-dir", str(model_dir)],
                 "eval": ["--model-dir", str(model_dir), "--data", str(task_dir / "dev.tsv")]}
        assert cli.main([command, *flags[command]]) == 2
        assert not list(model_dir.glob("eval_*.json"))


class TestPretraining:
    @pytest.mark.parametrize("learner, steps, encoded", [
        ("transformer", 150, True), ("transformer", 0, False), ("softreg", 150, False)])
    def test_corpus_encoded_only_when_pretraining(self, task_dir, tmp_path, learner, steps,
                                                  encoded):
        cfg = cli.RunConfig.load(write_config(
            tmp_path / "c.json", task_dir, tmp_path, learner=learner,
            pretrain={"steps": steps}))
        assert bool(cli.prepare_task(cfg).corpus_ids) == encoded

    @pytest.mark.parametrize("command, entry, refits", [
        pytest.param("train-boost", "store/*/pretrained_*/pretrained.bgv", {"pretrain_mlm": 1},
                     id="trunk"),
        pytest.param("train-boost", "store/*/boost_*/ensemble.bge", {"fit_round": 1},
                     id="ensemble"),
        pytest.param("train-boost", "store/*/fusion_*/fusion.bgf", {"train_fusion": 1}, id="head"),
        pytest.param("train-bag", "store/*/bag_*/ensemble.bge", {"bag_train": 2}, id="bag"),
    ])
    def test_truncated_cache_entry_is_retrained_and_replaced(self, task_dir, tmp_path,
                                                             monkeypatch, command, entry, refits):
        """A store entry cut by a crash is fitted again, alone, and replaced
        with its old bytes; the run dir's artifacts do not change."""
        out = tmp_path / "out"
        cfg_path = write_config(
            tmp_path / "c.json", task_dir, out,
            boost={"rounds": 1, "init_strategy": "incremental", "sharing_mode": "privacy",
                   "vote": "soft"},
            train={"lr": 3e-3, "batch_size": 16, "epochs": 3},
            pretrain={"steps": 20},
        )
        argv = [command, "--config", str(cfg_path)]
        assert cli.main(argv) == 0
        (cache,) = out.glob(entry)
        (run_dir,) = out.glob(f"{command}-*")

        def artifacts():
            return {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "metrics.json"}

        first = artifacts()
        good = cache.read_bytes()
        cache.write_bytes(good[: len(good) // 2])  # what a crash mid-write leaves
        fits = count_fits(monkeypatch)
        assert cli.main(argv) == 0
        assert fits == refits
        assert artifacts() == first
        assert cache.read_bytes() == good
        assert not list(out.rglob("*.tmp"))

    def test_another_source_writes_new_entries_and_reads_none_of_the_old(
            self, task_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg_path = write_config(
            tmp_path / "c.json", task_dir, out,
            boost={"rounds": 1, "init_strategy": "incremental", "sharing_mode": "privacy",
                   "vote": "soft"},
            pretrain={"steps": 20})
        argv = ["train-boost", "--config", str(cfg_path)]
        assert cli.main(argv) == 0
        entries = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()
                   and p.name != "metrics.jsonl" and not p.parent.name.startswith("train-boost-")}
        assert len(entries) == 6  # trunk, head and the ensemble's four files
        monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
        fits = count_fits(monkeypatch)
        assert cli.main(argv) == 0
        assert fits == {"pretrain_mlm": 1, "fit_round": 1, "train_fusion": 1}
        assert {p: p.read_bytes() for p in entries} == entries
        assert len(list(out.glob("store/*/pretrained_*/pretrained.bgv"))) == len(
            list(out.glob("store/*/boost_*"))) == 2


class TestStore:
    """Each trained stage is fitted once per key: repeats across compare
    cells and commands are read from the out root's store."""

    @staticmethod
    def config(task_dir, out, path, **extra):
        return write_config(
            path, task_dir, out, pretrain={"steps": 20},
            train={"lr": 3e-3, "batch_size": 16, "epochs": 3},
            bag={"learning_rates": [5e-4, 1e-3, 2e-3]}, **extra)

    def test_compare_fits_each_bag_member_once_across_sharing_modes(self, task_dir, tmp_path,
                                                                   monkeypatch):
        out = tmp_path / "out"
        cfg_path = self.config(task_dir, out, tmp_path / "c.json", boost={
            "rounds": 1, "init_strategy": "incremental", "sharing_mode": "privacy",
            "vote": "soft"})
        fits = count_fits(monkeypatch)
        real, scored = boosting.BoostEnsemble.predict_proba_per_round, []

        def scoring(ensemble, dataset):
            scored.append((ensemble.ensemble_kind, dataset.n))
            return real(ensemble, dataset)

        monkeypatch.setattr(boosting.BoostEnsemble, "predict_proba_per_round", scoring)
        _, rows = compare(cfg_path, out, "--axes", "ensemble_kind,sharing_mode")
        assert [r["status"] for r in rows] == ["ok"] * 4
        assert rows[2]["bag"] == rows[3]["bag"] is not None
        assert fits["bag_train"] == 3
        assert fits == {"pretrain_mlm": 1, "fit_round": 2, "train_fusion": 2, "bag_train": 3}
        # the bag of both sharing modes is one object, so its dev set is scored once
        dev_rows = len((task_dir / "dev.tsv").read_text().splitlines())
        assert scored.count(("bag", dev_rows)) == 1

    def test_the_full_fraction_after_train_boost_fits_nothing(self, task_dir, tmp_path,
                                                              monkeypatch):
        out = tmp_path / "out"
        cfg_path = self.config(task_dir, out, tmp_path / "c.json")
        assert cli.main(["train-boost", "--config", str(cfg_path)]) == 0
        boost_rec = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
        fits = count_fits(monkeypatch)
        _, rows = compare(cfg_path, out, "--axes", "fraction", "--fractions", "1.0")
        assert fits == {}
        assert {k: rows[0][k] for k in ("single", "boost_vote", "boost_fusion")} == {
            k: boost_rec["accuracies"][k] for k in ("single", "boost_vote", "boost_fusion")}

    def test_configs_that_differ_only_outside_the_bag_fit_one_bag(self, task_dir, tmp_path,
                                                                  monkeypatch):
        out = tmp_path / "out"
        fits = count_fits(monkeypatch)
        for i, extra in enumerate([
                {}, {"boost": {"rounds": 4, "init_strategy": "finetuning",
                               "sharing_mode": "sharing", "vote": "discrete"}},
                {"fusion": {"depth": 3, "max_epochs": 2, "patience": 0},
                 "distill": {"total_steps": 7}}]):
            cfg_path = self.config(task_dir, out, tmp_path / f"c{i}.json", **extra)
            assert cli.main(["train-bag", "--config", str(cfg_path)]) == 0
        bags = sorted(out.glob("train-bag-*"))
        assert len(bags) == 3
        assert len({(d / "ensemble.bge").read_bytes() for d in bags}) == 1
        assert fits == {"pretrain_mlm": 1, "bag_train": 3}

    def test_softreg_configs_that_differ_only_in_encoder_fit_one_ensemble(self, task_dir,
                                                                          tmp_path, monkeypatch):
        """Softreg's model config holds no ``encoder`` value, so its key holds none."""
        out = tmp_path / "out"
        fits = count_fits(monkeypatch)
        for d_model in (16, 32):
            cfg_path = write_config(
                tmp_path / "c.json", task_dir, out, learner="softreg",
                boost={"rounds": 2, "init_strategy": "random", "sharing_mode": "privacy",
                       "vote": "soft"},
                encoder={"d_model": d_model, "n_layers": 1, "n_heads": 2, "d_ffn": 32,
                         "max_seq_len": 24, "dropout_rate": 0.1})
            assert cli.main(["train-boost", "--config", str(cfg_path)]) == 0
        assert len(list(out.glob("train-boost-*"))) == 2
        assert fits == {"fit_round": 2, "train_fusion": 1}

    def test_fusion_of_a_run_dir_at_its_own_config_fits_no_head(self, task_dir, tmp_path,
                                                               monkeypatch):
        """The head is keyed by the ensemble's bytes, so ``fusion`` reads the
        head that ``train-boost`` stored for the same ensemble."""
        out = tmp_path / "out"
        cfg_path = self.config(task_dir, out, tmp_path / "c.json")
        assert cli.main(["train-boost", "--config", str(cfg_path)]) == 0
        (boost_dir,) = out.glob("train-boost-*")
        fits = count_fits(monkeypatch)
        assert cli.main(["fusion", "--run-dir", str(boost_dir)]) == 0
        assert fits == {}
        (fusion_dir,) = out.glob("fusion-*")
        assert (fusion_dir / "fusion.bgf").read_bytes() == (boost_dir / "fusion.bgf").read_bytes()

    def test_distill_of_a_copied_teacher_dir_fits_no_student(self, task_dir, tmp_path,
                                                            monkeypatch):
        """The teacher is keyed by its ensemble's and head's bytes, not its path."""
        out = tmp_path / "out"
        cfg_path = self.config(task_dir, out, tmp_path / "c.json")
        assert cli.main(["train-boost", "--config", str(cfg_path)]) == 0
        (teacher,) = out.glob("train-boost-*")
        assert cli.main(["distill", "--teacher-dir", str(teacher)]) == 0
        copy = tmp_path / "elsewhere" / teacher.name
        shutil.copytree(teacher, copy)
        fits = count_fits(monkeypatch)
        assert cli.main(["distill", "--teacher-dir", str(copy)]) == 0
        assert fits == {}

    def test_train_boost_into_a_fresh_out_root_fits_every_round(self, task_dir, tmp_path,
                                                                monkeypatch):
        cfg_path = self.config(task_dir, tmp_path / "out", tmp_path / "c.json")
        fits = count_fits(monkeypatch)
        assert cli.main(["train-boost", "--config", str(cfg_path)]) == 0
        assert fits == {"pretrain_mlm": 1, "fit_round": 2, "train_fusion": 1}


def _raise(*args, **kwargs):
    raise boosting.BoostingError("no base learner beat chance")


@pytest.mark.parametrize("command, module, fit", [
    pytest.param("train-boost", boosting, "boost_train", id="train-boost"),
    pytest.param("train-bag", cli.baselines, "bag_train", id="train-bag"),
    pytest.param("distill", cli.distill_mod, "distill_train", id="distill")])
def test_a_fit_that_raises_exits_1_and_leaves_no_run_dir(boost_run, tmp_path, monkeypatch,
                                                        command, module, fit):
    out, cfg_path, teacher = boost_run
    out2 = tmp_path / "out"
    copy_trunk(out, out2)
    cfg = json.loads(cfg_path.read_text())
    cfg["out_dir"] = str(out2)
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    monkeypatch.setattr(module, fit, _raise)
    flags = ["--teacher-dir", str(teacher)] if command == "distill" else []
    assert cli.main([command, "--config", str(tmp_path / "c.json"), *flags]) == 1
    assert not list(out2.glob(f"{command}-*"))


def test_a_dataset_key_hashes_the_arrays_in_place():
    """A dataset's key is the digest of its label names and of each array's
    dtype, shape and bytes, as ``tobytes`` gives them, and hashing over 1 MB
    of ids copies none of them."""
    ds = make_token_dataset(np.random.default_rng(0), n=20000, max_len=10)
    assert ds.packed.ids.nbytes >= 1e6
    h = hashlib.sha256(json.dumps(ds.label_names).encode())
    for a in (ds.packed.ids, ds.packed.lengths, ds.labels):
        h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    tracemalloc.start()
    try:
        key = cli._key_of(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert key == h.hexdigest()
    assert peak < 64 * 1024, f"{peak} bytes"


# the trained files of a train-boost dir, by the stage whose entry holds each
_TRAINED = {"ensemble.bge": "boost", "single.bgv": "boost", "round_log.jsonl": "boost",
            "train_log.jsonl": "boost", "fusion.bgf": "fusion", "pretrained.bgv": "pretrained"}


class TestLinks:
    """A run dir's trained files are hard links to the store's entries."""

    @staticmethod
    def train_boost(task_dir, tmp_path) -> tuple[list, Path, Path]:
        """A train-boost into a fresh out root: (its argv, the out root, the run dir)."""
        out = tmp_path / "out"
        argv = ["train-boost", "--config",
                str(TestStore.config(task_dir, out, tmp_path / "c.json"))]
        assert cli.main(argv) == 0
        (run_dir,) = out.glob("train-boost-*")
        return argv, out, run_dir

    @staticmethod
    def entries(out: Path) -> dict:
        """The one entry file of each trained file, by its name."""
        entries = {}
        for name, stage in _TRAINED.items():
            (entries[name],) = out.glob(f"store/*/{stage}_*/{name}")
        return entries

    def test_every_trained_file_is_a_link_and_a_warm_rerun_keeps_them(self, task_dir,
                                                                       tmp_path, monkeypatch):
        argv, out, run_dir = self.train_boost(task_dir, tmp_path)
        assert {p.name for p in run_dir.iterdir()} == {
            *_TRAINED, "config.json", "vocab.tsv", "task.json", "metrics.json"}
        entries = self.entries(out)
        first = {name: entry.read_bytes() for name, entry in entries.items()}
        for name, entry in entries.items():
            assert os.path.samefile(entry, run_dir / name)
            assert entry.stat().st_nlink == 2
        fits = count_fits(monkeypatch)
        assert cli.main(argv) == 0
        assert fits == {}
        assert self.entries(out) == entries
        for name, entry in entries.items():
            assert os.path.samefile(entry, run_dir / name)
            assert entry.read_bytes() == first[name]
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize("code", [pytest.param(errno.EXDEV, id="EXDEV"),
                                      pytest.param(errno.EPERM, id="EPERM")])
    def test_a_file_system_that_refuses_links_gets_copies(self, task_dir, tmp_path,
                                                          monkeypatch, code):
        def refuse(src, dst):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "link", refuse)
        _, out, run_dir = self.train_boost(task_dir, tmp_path)
        for name, entry in self.entries(out).items():
            assert not os.path.samefile(entry, run_dir / name)
            assert (run_dir / name).read_bytes() == entry.read_bytes()
        assert not list(out.rglob("*.tmp"))

    def test_a_new_file_at_a_run_dir_path_leaves_the_entry(self, task_dir, tmp_path):
        _, out, run_dir = self.train_boost(task_dir, tmp_path)
        for name, entry in self.entries(out).items():
            before = entry.read_bytes()
            artifacts.write(run_dir / name, b"replaced")
            assert entry.read_bytes() == before
            assert (run_dir / name).read_bytes() == b"replaced"


class TestStreamedText:
    """At the boost-softreg size no split's rows are held whole: gen-data
    writes each line as it draws it, and prepare_task reads each TSV a line
    at a time, once to check it and once to encode it."""

    SIZES = {"train_size": 12000, "dev_size": 3000, "corpus_size": 100}

    @staticmethod
    def peak(fn):
        """(``fn()``, the tracemalloc peak in bytes while it ran)."""
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_gen_data_and_prepare_task_peak_near_their_arrays(self, tmp_path):
        cfg = synthetic.SynthConfig(noise=0.03, hard_fraction=0.25, seed=2024, **self.SIZES)
        # the first draws make the one-time allocations of numpy's generator
        synthetic.write_task(tmp_path / "first", replace(cfg, train_size=3, dev_size=3))
        _, peak = self.peak(lambda: synthetic.write_task(tmp_path, cfg))
        assert peak < 0.5 * 2**20  # 4.3 MB with every split's rows held
        config = cli.RunConfig.load(write_config(tmp_path / "c.json", tmp_path, tmp_path,
                                                 learner="softreg", corpus_path=None))
        bundle, peak = self.peak(lambda: cli.prepare_task(config))
        arrays = sum(a.nbytes for ds in (bundle.train, bundle.dev)
                     for a in (ds.packed.ids, ds.packed.lengths, ds.labels))
        assert (bundle.train.n, bundle.dev.n) == (12000, 3000)
        assert peak < 1.8 * arrays  # 3.2 times with every split's rows held


class TestOracleCheck:
    def test_oracle_check_passes(self, tmp_path, capsys):
        rc = cli.main(["oracle-check", "--out", str(tmp_path), "--rounds", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worst deviation" in out
        assert (tmp_path / "trajectory_0_engine.jsonl").exists()
        assert (tmp_path / "trajectory_0_oracle.jsonl").exists()

    def test_zero_rounds_exits_2_and_writes_nothing(self, tmp_path):
        assert cli.main(["oracle-check", "--out", str(tmp_path / "o"), "--rounds", "0"]) == 2
        assert not (tmp_path / "o").exists()


class TestOutRootEnv:
    def test_env_var_sets_default_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "envroot"))
        rc = cli.main(["oracle-check", "--rounds", "2"])
        assert rc == 0
        assert (tmp_path / "envroot" / "oracle-check").is_dir()
