"""The pairing and comparison rules of ``tools/cmp_trees.py``, on small
hand-made output trees (the pipeline itself is not run here)."""

import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "cmp_trees", Path(__file__).parents[1] / "tools" / "cmp_trees.py")
cmp_trees = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cmp_trees)


def tree(root: Path, run_id: str, files: dict, wall_time: float = 1.0) -> Path:
    """An output tree: a task file, one run dir with its record, and ``files``
    (paths under ``out``) with their text."""
    record = json.dumps({"run_id": run_id, "accuracies": {"single": 80.0},
                         "wall_time_s": wall_time, "timing": {"x": wall_time}}) + "\n"
    for path, text in {"task/train.tsv": "a\tb\n", "out/metrics.jsonl": record,
                       f"out/{run_id}/metrics.json": record,
                       **{f"out/{k}": v for k, v in files.items()}}.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text)
    return root


def test_records_skip_the_volatile_fields_and_a_rekeyed_entry_is_paired(tmp_path):
    run = "train-boost-aaaaaaaaaaaa"
    a = tree(tmp_path / "a", run, {f"{run}/model.bge": "m", "pretrained_0123456789abcdef.bgv": "t"})
    b = tree(tmp_path / "b", run, {f"{run}/model.bge": "m", "pretrained_fedcba9876543210.bgv": "t",
                                   "boost_00112233445566ff/ensemble.bge": "new"}, wall_time=2.0)
    differ, only_a, only_b, rekeyed, same = cmp_trees.compare(a, b)
    assert (differ, only_a) == ([], [])
    assert only_b == ["out/boost_00112233445566ff/ensemble.bge"]
    assert rekeyed == ["out/pretrained_0123456789abcdef.bgv -> "
                       "out/pretrained_fedcba9876543210.bgv"]
    assert same == 5  # train.tsv, metrics.jsonl, metrics.json, model.bge, the trunk


def test_a_renamed_run_dir_is_compared_file_by_file(tmp_path):
    a = tree(tmp_path / "a", "run-000000000000", {"run-000000000000/model.bge": "m",
                                                  "run-000000000000/log.jsonl": "x"})
    b = tree(tmp_path / "b", "run-111111111111", {"run-111111111111/model.bge": "M"})
    differ, only_a, only_b, rekeyed, same = cmp_trees.compare(a, b)
    # the records name their run dir, so they differ with it
    a_dir, b_dir = "out/run-000000000000", "out/run-111111111111"
    assert sorted(differ) == ["out/metrics.jsonl <> out/metrics.jsonl",
                              f"{a_dir}/metrics.json <> {b_dir}/metrics.json",
                              f"{a_dir}/model.bge <> {b_dir}/model.bge"]
    assert (only_a, only_b, same) == (["out/run-000000000000/log.jsonl"], [], 1)
    assert rekeyed == []  # run dirs pair by their records' order


def test_rekeyed_entries_of_one_stage_are_paired_by_their_bytes(tmp_path):
    run = "train-boost-aaaaaaaaaaaa"
    a = tree(tmp_path / "a", run, {"boost_0000000000000001/ensemble.bge": "one",
                                   "boost_0000000000000002/ensemble.bge": "two",
                                   "fusion_0000000000000003.bgf": "h1",
                                   "fusion_0000000000000004.bgf": "h2"})
    b = tree(tmp_path / "b", run, {"boost_1000000000000000/ensemble.bge": "two",
                                   "boost_2000000000000000/ensemble.bge": "one",
                                   "fusion_3000000000000000.bgf": "h2",
                                   "fusion_4000000000000000.bgf": "h3"})
    differ, only_a, only_b, rekeyed, same = cmp_trees.compare(a, b)
    assert differ == []
    assert (only_a, only_b) == (["out/fusion_0000000000000003.bgf"],
                                ["out/fusion_4000000000000000.bgf"])
    assert rekeyed == ["out/boost_0000000000000001 -> out/boost_2000000000000000",
                       "out/boost_0000000000000002 -> out/boost_1000000000000000",
                       "out/fusion_0000000000000004.bgf -> out/fusion_3000000000000000.bgf"]
    assert same == 6  # train.tsv, metrics.jsonl, metrics.json, two ensembles, one head


def test_store_dirs_of_two_sources_pair_and_so_do_their_entries(tmp_path):
    run = "train-boost-aaaaaaaaaaaa"
    entries = {"pretrained_0123456789abcdef/pretrained.bgv": "t",
               "boost_00112233445566ff/ensemble.bge": "e",
               "fusion_fedcba9876543210/fusion.bgf": "h"}
    a = tree(tmp_path / "a", run, {f"store/aaaaaaaaaaaa/{k}": v for k, v in entries.items()})
    b = tree(tmp_path / "b", run, {f"store/bbbbbbbbbbbb/{k}": v for k, v in entries.items()})
    # the three entries and three other files; a store dir per source is no re-keying
    assert cmp_trees.compare(a, b) == ([], [], [], [], 6)


def test_pair_rows_hold_whole_cut_and_cut_away_second_texts():
    """At the pipeline's ``max_seq_len``, on texts of gen-data's 7 to 13
    tokens, the pair rows' ``text_b`` is kept whole, cut, or cut away."""
    from textboost.textdata import SEP_ID, RawExample, build_vocab, encode

    rows = [[f"c{i % 2}", " ".join(f"w{i}_{j}" for j in range(7 + i % 7))] for i in range(12)]
    pairs = cmp_trees.pair_rows(rows)
    assert [p[0] for p in pairs] == [r[0] for r in rows]
    vocab = build_vocab([text for _, text in rows])
    kinds = set()
    for label, a, b in pairs:
        ids, _ = encode(RawExample(label, a, b), vocab, {"c0": 0, "c1": 1},
                        cmp_trees.CONFIG["encoder"]["max_seq_len"])
        kept = len(ids) - ids.index(SEP_ID) - 2  # b's tokens between the two SEPs
        kinds.add("whole" if kept == len(b.split()) else "cut away" if kept == 0 else "cut")
    assert kinds == {"whole", "cut", "cut away"}


def test_src_lines_counts_every_python_file_under_src_textboost(tmp_path):
    """``wc -l``'s total over ``src/textboost/**/*.py``, at any depth; other
    files and a last line without a newline do not count."""
    files = {"a": {"src/textboost/cli.py": "x\ny\n", "src/textboost/encoder/nnops.py": "z\n",
                   "src/textboost/encoder/deep/k.py": "1\n2\n3", "src/textboost/notes.txt": "n\n",
                   "tools/t.py": "t\n"},
             "b": {"src/textboost/cli.py": "x\n"}}
    for side, tree_files in files.items():
        for path, text in tree_files.items():
            (tmp_path / side / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / path).write_text(text)
    assert [cmp_trees.src_lines(tmp_path / side) for side in files] == [5, 1]
