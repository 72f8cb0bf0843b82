"""Command-line interface: generate → label → train → recommend round trip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, PRESETS, build_parser, main
from repro.db.io import load_dataset, save_dataset


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_all_experiments_have_drivers(self):
        import importlib
        for name, (module_name, _) in EXPERIMENTS.items():
            module = importlib.import_module(f"repro.experiments.{module_name}")
            assert hasattr(module, "run"), name

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.seed is None
        assert args.out == "dataset.npz"

    def test_recommend_requires_advisor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend", "ds.npz"])


class TestGenerate:
    def test_random_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "ds.npz")
        assert main(["generate", "--seed", "5", "--out", out]) == 0
        dataset = load_dataset(out)
        assert len(dataset.tables) >= 1
        assert "wrote" in capsys.readouterr().out

    def test_preset_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "imdb.npz")
        assert main(["generate", "--preset", "imdb-light", "--out", out]) == 0
        dataset = load_dataset(out)
        assert len(dataset.tables) == 6  # Table I: IMDB-light has 6 tables

    def test_generate_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        main(["generate", "--seed", "9", "--out", a])
        main(["generate", "--seed", "9", "--out", b])
        da, db = load_dataset(a), load_dataset(b)
        assert da.table_names == db.table_names
        for name in da.table_names:
            for col in da[name].column_names:
                np.testing.assert_array_equal(da[name][col], db[name][col])

    def test_all_presets_generate(self, tmp_path):
        for preset in PRESETS:
            out = str(tmp_path / f"{preset}.npz")
            assert main(["generate", "--preset", preset, "--out", out]) == 0


class TestLabelAndRecommend:
    @pytest.fixture(scope="class")
    def dataset_file(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli") / "ds.npz")
        main(["generate", "--seed", "3", "--out", path])
        return path

    @pytest.fixture(scope="class")
    def advisor_file(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli_train")
        advisor = str(tmp / "advisor.npz")
        cache = str(tmp / "cache")
        code = main(["train", "--corpus", "8", "--fast", "--out", advisor,
                     "--cache", cache])
        assert code == 0
        return advisor

    def test_label_prints_model_table(self, dataset_file, capsys):
        assert main(["label", dataset_file, "--fast"]) == 0
        out = capsys.readouterr().out
        assert "best model:" in out
        for model in ("BayesCard", "DeepDB", "MSCN", "LW-NN"):
            assert model in out

    def test_label_percentile_metric(self, dataset_file, capsys):
        assert main(["label", dataset_file, "--fast", "--metric", "p95",
                     "--weight", "0.5"]) == 0
        assert "p95" in capsys.readouterr().out

    def test_train_then_recommend(self, advisor_file, dataset_file, capsys):
        code = main(["recommend", dataset_file, "--advisor", advisor_file,
                     "--weight", "0.9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended model:" in out
        assert "ranking:" in out

    def test_recommend_with_custom_k(self, advisor_file, dataset_file, capsys):
        assert main(["recommend", dataset_file, "--advisor", advisor_file,
                     "--k", "1"]) == 0
        assert "recommended model:" in capsys.readouterr().out

    def test_serve_batch(self, advisor_file, dataset_file, tmp_path, capsys):
        other = str(tmp_path / "other.npz")
        main(["generate", "--seed", "11", "--out", other])
        code = main(["serve", dataset_file, other, "--advisor", advisor_file,
                     "--weight", "0.8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 2 recommendations" in out
        assert "embedding cache (in-memory)" in out
        assert "neighbor search: exact" in out

    def test_serve_repeat_in_one_batch_is_a_cache_hit(
            self, advisor_file, dataset_file, tmp_path, capsys):
        other = str(tmp_path / "other.npz")
        main(["generate", "--seed", "11", "--out", other])
        capsys.readouterr()
        code = main(["serve", dataset_file, dataset_file, other,
                     "--advisor", advisor_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 3 recommendations" in out
        assert "embedding cache (in-memory): 1 hits / 2 misses" in out

    def test_serve_at_float32_tier(self, advisor_file, dataset_file,
                                   tmp_path, capsys):
        """A float32-saved advisor is served at its own tier and keeps the
        float64 advisor's pick."""
        from repro.core.persistence import load_advisor, save_advisor

        assert main(["recommend", dataset_file, "--advisor",
                     advisor_file]) == 0
        recommended = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("recommended model:")][0]
        model = recommended.split(":")[1].strip()
        advisor = load_advisor(advisor_file)
        advisor.set_dtype("float32")
        float32_file = str(tmp_path / "advisor32.npz")
        save_advisor(advisor, float32_file)
        code = main(["serve", dataset_file, "--advisor", float32_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 1 recommendations" in out
        assert f"-> {model}" in out
        assert "(float32 tier)" in out

    @pytest.mark.parametrize("flag", [
        ["--cache-dir", "cache"], ["--workers", "2"],
        ["--dtype", "float32"], ["--serving-dtype", "float32"]])
    def test_serve_has_no_serving_knobs(self, advisor_file, dataset_file,
                                        flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", dataset_file, "--advisor",
                                       advisor_file, *flag])


class TestRecommendUserErrors:
    """User error on `repro recommend` is one stderr line and exit 2."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        from repro.core.advisor import AutoCE, AutoCEConfig
        from repro.core.dml import DMLConfig
        from repro.core.persistence import save_advisor
        from repro.datagen.multi_table import generate_dataset
        from repro.datagen.spec import random_spec
        from repro.testbed.scores import DatasetLabel

        tmp = tmp_path_factory.mktemp("recommend_errors")
        datasets = [generate_dataset(random_spec(
            40 + i, ranges={"num_tables": (1, 2)})) for i in range(4)]
        labels = [DatasetLabel(("A", "B"), [1.0 + i % 2, 2.0 - i % 2],
                               [0.001, 0.002]) for i in range(4)]
        advisor = AutoCE(AutoCEConfig(hidden_dim=8, embedding_dim=4,
                                      use_incremental=False,
                                      dml=DMLConfig(epochs=1, batch_size=4)))
        advisor.fit(datasets, labels)
        advisor_path = str(tmp / "advisor.npz")
        save_advisor(advisor, advisor_path)
        dataset_path = str(tmp / "ds.npz")
        save_dataset(datasets[0], dataset_path)
        return advisor_path, dataset_path

    @staticmethod
    def assert_user_error(code, capsys, fragment):
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ") and fragment in lines[0]
        assert "Traceback" not in captured.err

    def test_valid_request_still_succeeds(self, files, capsys):
        advisor, dataset = files
        assert main(["recommend", dataset, "--advisor", advisor,
                     "--k", "2"]) == 0
        assert "recommended model:" in capsys.readouterr().out

    def test_missing_advisor(self, files, capsys):
        code = main(["recommend", files[1], "--advisor",
                     "/nonexistent/advisor.npz"])
        self.assert_user_error(code, capsys, "cannot load advisor")

    def test_corrupt_advisor(self, files, tmp_path, capsys):
        bad = tmp_path / "advisor.npz"
        bad.write_bytes(b"this is not an npz payload")
        code = main(["recommend", files[1], "--advisor", str(bad)])
        self.assert_user_error(code, capsys, "cannot load advisor")

    def test_missing_dataset(self, files, capsys):
        code = main(["recommend", "/nonexistent/ds.npz",
                     "--advisor", files[0]])
        self.assert_user_error(code, capsys, "cannot load dataset")

    @pytest.mark.parametrize("payload", [b"not an npz payload",
                                         b"PK\x03\x04 torn zip"])
    def test_corrupt_dataset(self, files, tmp_path, capsys, payload):
        bad = tmp_path / "ds.npz"
        bad.write_bytes(payload)
        code = main(["recommend", str(bad), "--advisor", files[0]])
        self.assert_user_error(code, capsys, "cannot load dataset")

    def test_dataset_file_without_a_dataset(self, files, capsys):
        # A valid .npz that is not a dataset (here: the advisor file).
        code = main(["recommend", files[0], "--advisor", files[0]])
        self.assert_user_error(code, capsys, "cannot load dataset")

    @pytest.mark.parametrize("weight", ["-0.1", "1.5", "nan"])
    def test_weight_outside_unit_interval(self, files, capsys, weight):
        code = main(["recommend", files[1], "--advisor", files[0],
                     "--weight", weight])
        self.assert_user_error(code, capsys, "--weight")

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one(self, files, capsys, k):
        code = main(["recommend", files[1], "--advisor", files[0],
                     "--k", k])
        self.assert_user_error(code, capsys, "--k")


class TestOtherSubcommandUserErrors:
    """User error on `generate`, `label`, `train` and batch `serve` is one
    stderr line and exit 2, never a traceback."""

    @pytest.fixture(scope="class")
    def dataset_file(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("user_errors") / "ds.npz")
        assert main(["generate", "--seed", "3", "--out", path]) == 0
        return path

    @pytest.mark.parametrize("argv, fragment", [
        (["generate", "--out", "/nonexistent/dir/x.npz"], "cannot write"),
        (["label", "/nonexistent/missing.npz", "--fast"],
         "cannot load dataset"),
        (["label", "{dataset}", "--fast", "--weight", "7"], "--weight"),
        (["train", "--corpus", "0", "--fast"], "--corpus"),
        (["train", "--corpus", "2", "--fast", "--cache", "{cache}",
          "--out", "/nonexistent/dir/advisor.npz"], "cannot write"),
        (["serve", "{dataset}", "/nonexistent/missing.npz",
          "--advisor", "/nonexistent/advisor.npz"], "cannot load dataset"),
    ], ids=["generate-unwritable-out", "label-missing-dataset",
            "label-weight-out-of-range", "train-empty-corpus",
            "train-unwritable-out", "serve-missing-dataset"])
    def test_one_line_and_exit_2(self, dataset_file, tmp_path, capsys, argv,
                                 fragment):
        capsys.readouterr()
        argv = [arg.format(dataset=dataset_file, cache=tmp_path / "labels")
                for arg in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ") and fragment in lines[0]
        assert "Traceback" not in captured.err


class TestTrainOutCheck:
    """`repro train` rejects an unusable --out before any labeling."""

    @pytest.mark.parametrize("out", ["/nonexistent/dir/advisor.npz",
                                     "{file}/advisor.npz"],
                             ids=["missing-dir", "parent-is-a-file"])
    def test_fails_before_build_corpus(self, tmp_path, capsys, monkeypatch,
                                       out):
        def build_corpus(*args, **kwargs):
            raise AssertionError("build_corpus ran before the --out check")

        monkeypatch.setattr("repro.experiments.corpus.build_corpus",
                            build_corpus)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where the output directory should be")
        out = out.format(file=blocker)
        code = main(["train", "--corpus", "2", "--fast", "--out", out])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"error: cannot write {out!r}")


class TestModels:
    def test_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "BayesCard" in out and "FLAT" in out


class TestServeFaultTolerance:
    """`repro serve` robustness: readable failures and daemon mode."""

    @pytest.fixture(scope="class")
    def dataset_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve_ds")
        paths = []
        for seed in (3, 4):
            path = str(tmp / f"ds{seed}.npz")
            main(["generate", "--seed", str(seed), "--out", path])
            paths.append(path)
        return paths

    @pytest.fixture(scope="class")
    def advisor_file(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve_train")
        advisor = str(tmp / "advisor.npz")
        code = main(["train", "--corpus", "8", "--fast", "--out", advisor,
                     "--cache", str(tmp / "cache")])
        assert code == 0
        return advisor

    def test_missing_advisor_is_a_readable_exit_2(self, dataset_files,
                                                  capsys):
        code = main(["serve", dataset_files[0],
                     "--advisor", "/nonexistent/advisor.npz"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot load advisor")
        assert "Traceback" not in captured.err

    def test_corrupt_advisor_is_a_readable_exit_2(self, dataset_files,
                                                  tmp_path, capsys):
        bad = tmp_path / "advisor.npz"
        bad.write_bytes(b"this is not an npz payload")
        code = main(["serve", dataset_files[0], "--advisor", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_no_datasets_without_daemon_is_exit_2(self, advisor_file, capsys):
        code = main(["serve", "--advisor", advisor_file])
        assert code == 2
        assert "no datasets" in capsys.readouterr().err

    def test_daemon_serves_stdin_paths_and_reports_bad_ones(
            self, advisor_file, dataset_files, capsys, monkeypatch):
        import io

        lines = f"{dataset_files[0]}\n\n/no/such/dataset.npz\n{dataset_files[1]}\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code = main(["serve", "--daemon", "--advisor", advisor_file])
        assert code == 0
        captured = capsys.readouterr()
        assert "served 2 recommendations" in captured.out
        assert "/no/such/dataset.npz -> ERROR:" in captured.err

    def test_daemon_survives_corrupt_dataset_and_batches_bitforbit(
            self, advisor_file, dataset_files, tmp_path, capsys, monkeypatch):
        """The daemon stream: good paths, a missing path and a corrupt
        dataset file.  The process must survive all three, serve the good
        ones, and the coalesced batched answers must be bit-for-bit equal
        to a serial (--max-batch 1) run of the same stream."""
        import io

        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(b"not an npz payload at all")
        lines = (f"{dataset_files[0]}\n/no/such/dataset.npz\n{corrupt}\n"
                 f"{dataset_files[1]}\n{dataset_files[0]}\n")

        def run(*extra):
            monkeypatch.setattr("sys.stdin", io.StringIO(lines))
            code = main(["serve", "--daemon", "--advisor", advisor_file,
                         *extra])
            assert code == 0
            return capsys.readouterr()

        serial = run("--max-batch", "1", "--batch-window-ms", "0")
        coalesced = run()
        picks = lambda out: [line for line in out.splitlines()
                             if "->" in line and "ERROR" not in line]
        assert picks(coalesced.out) == picks(serial.out)
        assert len(picks(coalesced.out)) == 3
        for captured in (serial, coalesced):
            assert "served 3 recommendations" in captured.out
            assert "/no/such/dataset.npz -> ERROR:" in captured.err
            assert f"{corrupt} -> ERROR:" in captured.err
            assert "Traceback" not in captured.err
