import hashlib
import os

from fairlists.cli import GLOBAL_BETA_GRID, GLOBAL_LAMBDA_GRID, LOCAL_BETA_GRID, main
from fairlists.synth import biased_dataset


def write_synth(tmp_path, n=120, seed=20240501):
    d, b = biased_dataset(n, seed=seed)
    data = tmp_path / "data.csv"
    with open(data, "w") as fh:
        fh.write(",".join(d.feature_names + ["y"]) + "\n")
        for i in range(d.n_rows):
            cells = [str(int(v)) for v in d.features[i]] + [str(int(d.labels[i]))]
            fh.write(",".join(cells) + "\n")
    preds = tmp_path / "preds.csv"
    with open(preds, "w") as fh:
        fh.write("prediction\n")
        for v in b.preds:
            fh.write("%d\n" % v)
    return str(data), str(preds)


def data_args(data):
    return ["--data", data, "--sensitive", "s", "--label", "y"]


class TestBasicCommands:
    def test_mine(self, tmp_path):
        data, _ = write_synth(tmp_path)
        out = tmp_path / "mine"
        assert main(["mine", *data_args(data), "--output", str(out)]) == 0
        lines = (out / "antecedents.csv").read_text().strip().splitlines()
        assert lines[0] == "id,feature,negated,support"
        assert len(lines) > 1
        assert (out / "manifest.txt").exists()

    def test_learn(self, tmp_path):
        data, _ = write_synth(tmp_path)
        out = tmp_path / "learn"
        assert main(["learn", *data_args(data), "--output", str(out)]) == 0
        models = (out / "models.txt").read_text().strip().splitlines()
        assert len(models) == 1
        assert len(models[0].split("\t")) == 7

    def test_enumerate_with_one_model_equals_learn(self, tmp_path):
        data, _ = write_synth(tmp_path)
        out_l = tmp_path / "l"
        out_e = tmp_path / "e"
        assert main(["learn", *data_args(data), "--output", str(out_l)]) == 0
        assert (
            main(
                [
                    "enumerate",
                    *data_args(data),
                    "--beta",
                    "0",
                    "--lambda",
                    "0.005",
                    "--max-models",
                    "1",
                    "--output",
                    str(out_e),
                ]
            )
            == 0
        )
        assert (out_l / "models.txt").read_text() == (out_e / "models.txt").read_text()

    def test_usage_error_exit_code(self):
        assert main(["learn"]) == 1
        assert main(["no-such-command"]) == 1

    def test_data_error_exit_code(self, tmp_path):
        data, _ = write_synth(tmp_path)
        assert (
            main(["learn", "--data", data, "--sensitive", "nope", "--label", "y", "--output", str(tmp_path / "x")])
            == 2
        )

    def test_strict_budget_exit_code(self, tmp_path):
        data, _ = write_synth(tmp_path)
        out = tmp_path / "b"
        code = main(
            ["learn", *data_args(data), "--node-budget", "3", "--strict", "--output", str(out)]
        )
        assert code == 3
        # without --strict the run degrades gracefully
        assert main(["learn", *data_args(data), "--node-budget", "3", "--output", str(out)]) == 0


class TestGlobalCommand:
    def test_grid_layout_and_outputs(self, tmp_path):
        data, preds = write_synth(tmp_path)
        out = tmp_path / "glob"
        code = main(
            [
                "global",
                *data_args(data),
                "--blackbox",
                preds,
                "--max-length",
                "2",
                "--max-models",
                "5",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        # default grid: 2 lambdas x 6 betas = 12 cells
        assert GLOBAL_LAMBDA_GRID == [0.005, 0.01]
        assert GLOBAL_BETA_GRID == [0.0, 0.1, 0.2, 0.5, 0.7, 0.9]
        cells = [p for p in os.listdir(out) if p.startswith("l")]
        assert len(cells) == 12
        assert (out / "l0.005_b0" / "models.txt").exists()
        tradeoff = (out / "tradeoff.csv").read_text().strip().splitlines()
        assert tradeoff[0] == "model_id,lambda,beta,objective,fidelity,unfairness,K"
        assert len(tradeoff) > 12
        audit = (out / "audit.csv").read_text().strip().splitlines()
        assert audit[0] == "feature,score,rank,model_tag"
        assert any(line.endswith(",blackbox") for line in audit[1:])
        # each cell's selected model is audited under "<cell>:model<id>"
        tags = {line.rsplit(",", 1)[1] for line in audit[1:]}
        for cell in cells:
            manifest = (out / cell / "manifest.txt").read_text().splitlines()
            selected = dict(line.split("=", 1) for line in manifest)["selected"]
            assert (selected != "none") == ("%s:model%s" % (cell, selected) in tags)

    def test_strict_budget_exit_code(self, tmp_path):
        data, preds = write_synth(tmp_path)
        args = [
            "global",
            *data_args(data),
            "--blackbox",
            preds,
            "--lambda",
            "0.005",
            "--beta",
            "0.2",
            "--max-length",
            "2",
            "--max-models",
            "5",
            "--node-budget",
            "1",
        ]
        out = tmp_path / "strict"
        assert main([*args, "--strict", "--output", str(out)]) == 3
        # the files are still written before the exit code is chosen
        assert (out / "l0.005_b0.2" / "models.txt").exists()
        assert (out / "audit.csv").exists()
        assert main([*args, "--output", str(tmp_path / "lenient")]) == 0

    def test_explicit_grid_and_split(self, tmp_path):
        data, preds = write_synth(tmp_path, n=200)
        out = tmp_path / "glob2"
        code = main(
            [
                "global",
                *data_args(data),
                "--blackbox",
                preds,
                "--lambda",
                "0.005",
                "--beta",
                "0.2",
                "--split",
                "0.4,0.4,0.2",
                "--seed",
                "3",
                "--max-length",
                "2",
                "--max-models",
                "5",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        manifest = (out / "l0.005_b0.2" / "manifest.txt").read_text()
        assert "baseline_unfairness=" in manifest
        assert "test_fidelity=" in manifest or "selected=none" in manifest

    def test_thread_determinism(self, tmp_path):
        data, preds = write_synth(tmp_path, n=150)
        args = [
            "global",
            *data_args(data),
            "--blackbox",
            preds,
            "--lambda",
            "0.005",
            "--beta",
            "0",
            "--beta",
            "0.5",
            "--max-length",
            "2",
            "--max-models",
            "10",
        ]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main([*args, "--threads", "1", "--output", str(out)]) == 0
        for name in ("tradeoff.csv", "audit.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for cell in ("l0.005_b0", "l0.005_b0.5"):
            assert (outs[0] / cell / "models.txt").read_bytes() == (
                outs[1] / cell / "models.txt"
            ).read_bytes()
        # the drivers are serial: any other thread count is a usage error
        assert main([*args, "--threads", "4", "--output", str(tmp_path / "t4")]) == 1
        assert not (tmp_path / "t4").exists()

    def test_seed_without_split_is_rejected(self, tmp_path, capsys):
        data, preds = write_synth(tmp_path, n=200)
        args = ["global", *data_args(data), "--blackbox", preds, "--lambda", "0.005", "--beta", "0.2",
                "--max-length", "2", "--max-models", "5", "--seed", "1"]
        assert main([*args, "--output", str(tmp_path / "nosplit")]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "nosplit").exists()
        split = tmp_path / "split"
        assert main([*args, "--split", "0.4,0.4,0.2", "--output", str(split)]) == 0
        assert "seed=1" in (split / "manifest.txt").read_text().splitlines()


class TestLocalCommand:
    def test_coverage_outputs(self, tmp_path):
        data, preds = write_synth(tmp_path, n=150)
        out = tmp_path / "loc"
        code = main(
            [
                "local",
                *data_args(data),
                "--blackbox",
                preds,
                "--beta",
                "0.1",
                "--beta",
                "0.9",
                "--max-length",
                "2",
                "--max-models",
                "10",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        coverage = (out / "coverage.csv").read_text().strip().splitlines()
        assert coverage[0] == "beta,coverage"
        assert len(coverage) == 3
        cdf = (out / "cdf.csv").read_text().strip().splitlines()
        assert cdf[0] == "beta,unfairness,cumulative_fraction"
        last = cdf[-1].split(",")
        assert float(last[2]) == 1.0
        assert LOCAL_BETA_GRID == [0.1, 0.3, 0.5, 0.7, 0.9]

    def test_rerun_is_byte_identical(self, tmp_path):
        data, preds = write_synth(tmp_path, n=120)
        args = [
            "local",
            *data_args(data),
            "--blackbox",
            preds,
            "--beta",
            "0.5",
            "--max-length",
            "2",
            "--max-models",
            "10",
        ]
        a = tmp_path / "a"
        bdir = tmp_path / "b"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(bdir)]) == 0
        assert (a / "coverage.csv").read_bytes() == (bdir / "coverage.csv").read_bytes()
        assert (a / "cdf.csv").read_bytes() == (bdir / "cdf.csv").read_bytes()


    def test_seed_other_than_zero_is_rejected(self, tmp_path, capsys):
        data, preds = write_synth(tmp_path, n=120)
        args = ["local", *data_args(data), "--blackbox", preds, "--beta", "0.5", "--max-length", "2"]
        assert main([*args, "--seed", "1", "--output", str(tmp_path / "s1")]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "s1").exists()
        default = tmp_path / "default"
        explicit = tmp_path / "s0"
        assert main([*args, "--output", str(default)]) == 0
        assert main([*args, "--seed", "0", "--output", str(explicit)]) == 0
        for name in ("coverage.csv", "cdf.csv"):
            assert (default / name).read_bytes() == (explicit / name).read_bytes()
        assert "seed=0" in (default / "manifest.txt").read_text().splitlines()

    def test_threads_other_than_one_are_rejected(self, tmp_path):
        data, preds = write_synth(tmp_path, n=120)
        args = ["local", *data_args(data), "--blackbox", preds, "--beta", "0.5", "--max-length", "2"]
        assert main([*args, "--threads", "2", "--output", str(tmp_path / "t2")]) == 1
        assert not (tmp_path / "t2").exists()
        out = tmp_path / "t1"
        assert main([*args, "--threads", "1", "--output", str(out)]) == 0
        assert "threads=1" in (out / "manifest.txt").read_text().splitlines()

    def test_strict_budget_exit_code(self, tmp_path):
        data, preds = write_synth(tmp_path, n=200)
        args = [
            "local",
            *data_args(data),
            "--blackbox",
            preds,
            "--beta",
            "0.5",
            "--max-length",
            "2",
            "--max-models",
            "3",
            "--node-budget",
            "1",
        ]
        out = tmp_path / "strict"
        assert main([*args, "--strict", "--output", str(out)]) == 3
        # the files are still written before the exit code is chosen
        assert (out / "coverage.csv").exists()
        assert (out / "cdf.csv").exists()
        assert main([*args, "--output", str(tmp_path / "lenient")]) == 0


class TestIncludeSensitive:
    # sha256 of the result files as written before --include-sensitive
    # reached the drivers' mining
    UNFLAGGED = {
        "g/l0.005_b0.2/models.txt": "4a32cd1958c1be08a4cbe236628612d6e0f8c728ae8c00f364fc6febeb2aed6d",
        "g/tradeoff.csv": "5bef8f4065a5731db8b539f518520eee5be7455bc3e697c24c0082c29ae6b549",
        "g/audit.csv": "ae1a9f9102bbb274b090b18aeacc6bad67141bfff51b38284ff0ad8833d4f771",
        "l/coverage.csv": "a24d24bf90c607c722db42fd4c25513dc22a54c293c915372d06c446483b6550",
        "l/cdf.csv": "79c7b865f9d0cdf918792d4af1b997e8385e06a547afac337dd880c0d4aa4289",
    }

    def run_drivers(self, tmp_path, *flag):
        data, preds = write_synth(tmp_path)
        common = [*data_args(data), "--blackbox", preds, *flag]
        g = tmp_path / "g"
        grid = ["--lambda", "0.005", "--beta", "0.2", "--max-length", "3", "--max-models", "5"]
        assert main(["global", *common, *grid, "--output", str(g)]) == 0
        l = tmp_path / "l"
        cohort = ["--beta", "0.5", "--max-length", "2", "--max-models", "10"]
        assert main(["local", *common, *cohort, "--output", str(l)]) == 0
        return {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.UNFLAGGED
        }

    def test_result_files_unchanged_without_the_flag(self, tmp_path):
        assert self.run_drivers(tmp_path) == self.UNFLAGGED

    def test_flag_reaches_global(self, tmp_path):
        got = self.run_drivers(tmp_path, "--include-sensitive")
        assert got["g/l0.005_b0.2/models.txt"] != self.UNFLAGGED["g/l0.005_b0.2/models.txt"]
        manifest = (tmp_path / "g" / "manifest.txt").read_text().splitlines()
        assert "include_sensitive=True" in manifest


class TestPrepAndReport:
    def test_prep_recipe_round_trip(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "age,job,sex,income\n"
            "25,blue,M,0\n"
            "42,white,F,1\n"
            "61,blue,F,0\n"
            "33,white,M,1\n"
        )
        recipe = tmp_path / "recipe.txt"
        recipe.write_text(
            "age buckets=[30,50]\n"
            "job onehot\n"
            "sex sensitive\n"
            "income label\n"
        )
        out = tmp_path / "prep.csv"
        assert main(["prep", "--input", str(raw), "--recipe", str(recipe), "--output", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert "age_le_30" in header and "age_gt_50" in header
        assert "job_blue" in header and "job_white" in header
        assert "sex" in header and "income" in header
        # the produced file loads cleanly
        assert (
            main(
                [
                    "mine",
                    "--data",
                    str(out),
                    "--sensitive",
                    "sex",
                    "--label",
                    "income",
                    "--min-support",
                    "0.0",
                    "--output",
                    str(tmp_path / "m"),
                ]
            )
            == 0
        )

    def test_audit_command(self, tmp_path):
        data, preds = write_synth(tmp_path)
        out = tmp_path / "aud"
        model = tmp_path / "model.txt"
        model.write_text("0:1;default:0\n")
        code = main(
            [
                "audit",
                *data_args(data),
                "--model",
                str(model),
                "--blackbox",
                preds,
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "audit.csv").read_text().strip().splitlines()
        tags = {line.split(",")[-1] for line in lines[1:]}
        assert "surrogate" in tags

    def test_report_command(self, tmp_path, capsys):
        data, _ = write_synth(tmp_path)
        run = tmp_path / "run"
        assert main(["learn", *data_args(data), "--output", str(run)]) == 0
        out = tmp_path / "rep"
        assert main(["report", *data_args(data), "--run", str(run), "--output", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "model 0" in text
        assert "if " in text
