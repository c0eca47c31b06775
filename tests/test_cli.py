import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fairlists
from fairlists import cli, dataset, enumeration, rationalize, search
from fairlists.cli import GLOBAL_BETA_GRID, GLOBAL_LAMBDA_GRID, LOCAL_BETA_GRID, main
from fairlists.dataset import group_rows, load_csv, mine_antecedents, row_class_ids
from fairlists.rationalize import load_predictions
from fairlists.synth import biased_dataset


def write_synth(tmp_path, n=120, seed=20240501):
    d = biased_dataset(n, seed=seed)
    data = tmp_path / "data.csv"
    with open(data, "w") as fh:
        fh.write(",".join(d.feature_names + ["y"]) + "\n")
        for i in range(d.n_rows):
            cells = [str(int(v)) for v in d.features[i]] + [str(int(d.labels[i]))]
            fh.write(",".join(cells) + "\n")
    preds = tmp_path / "preds.csv"
    with open(preds, "w") as fh:
        fh.write("prediction\n")
        for v in d.labels:
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

    def test_learn_takes_no_max_models(self, tmp_path):
        # learn finds one model, so it has no model count to ignore
        data, _ = write_synth(tmp_path)
        out = tmp_path / "learn"
        assert main(["learn", *data_args(data), "--max-models", "3", "--output", str(out)]) == 1
        assert not out.exists()

    def test_sp_is_an_unknown_metric(self, tmp_path, capsys):
        # dp is the one name of demographic parity: sp is an unknown choice
        data, _ = write_synth(tmp_path)
        out = tmp_path / "enum"
        assert main(["enumerate", *data_args(data), "--metric", "sp", "--output", str(out)]) == 1
        assert "invalid choice: 'sp'" in capsys.readouterr().err
        assert not out.exists()

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


class TestGlobalSharedProblem:
    # sha256 of the result files of the run below as written when every cell
    # mined and prepared its own search; manifests without their path lines
    DIGESTS = {
        "audit.csv": "76fb573c76cfd6ba8e72a09c7ba3c3c8e6ade6651a351293e6defe6f83c4c5b8",
        "manifest.txt": "0a1463e38b359a51b93c1b906afc5d659510f144746529900ae3f2b19a9b5887",
        "tradeoff.csv": "b2df176ddcd81520996a63e78a3c9fa6210d2ff9e78cc4eac5b3d2829ba7978b",
        "l0.005_b0/manifest.txt": "a5bccc1ed292cac61353a42990431933e3a8371b9ad2f844561d2ecfbb9093bb",
        "l0.005_b0/models.txt": "c7513d5e9fe888586b93ad4ee28d87c814ebc6fbe6a29122b019e3edb5a401de",
        "l0.005_b0.5/manifest.txt": "a5bccc1ed292cac61353a42990431933e3a8371b9ad2f844561d2ecfbb9093bb",
        "l0.005_b0.5/models.txt": "935358b2410d506744b5c55dc5a343f753f9beb31949bd1b0561ffb6af3d7a92",
        "l0.01_b0/manifest.txt": "a5bccc1ed292cac61353a42990431933e3a8371b9ad2f844561d2ecfbb9093bb",
        "l0.01_b0/models.txt": "d03061014695cfb7794fe1861a60c7f9559679a6d1e73828d590631aa94d9658",
        "l0.01_b0.5/manifest.txt": "a5bccc1ed292cac61353a42990431933e3a8371b9ad2f844561d2ecfbb9093bb",
        "l0.01_b0.5/models.txt": "a4d731474a2b463a4406156e5dbcaadf8d8d7cb315daf1b87ab841ea8a1f8173",
    }

    def test_grid_mines_once_and_writes_the_same_files(self, tmp_path, monkeypatch):
        mined = []

        def counted(*args, **kwargs):
            mined.append(args[0])
            return mine_antecedents(*args, **kwargs)

        monkeypatch.setattr(cli, "mine_antecedents", counted)
        monkeypatch.setattr(rationalize, "mine_antecedents", counted)
        data, preds = write_synth(tmp_path, n=300)
        out = tmp_path / "g"
        args = ["global", *data_args(data), "--blackbox", preds, "--lambda", "0.005", "--lambda", "0.01",
                "--beta", "0", "--beta", "0.5", "--split", "0.3,0.5,0.2", "--seed", "2",
                "--max-length", "2", "--max-models", "5", "--output", str(out)]
        assert main(args) == 0
        assert len(mined) == 1
        got = {}
        for name in self.DIGESTS:
            lines = (out / name).read_bytes().splitlines(keepends=True)
            if name.endswith("manifest.txt"):
                lines = [line for line in lines if not line.startswith((b"data=", b"blackbox=", b"output="))]
            got[name] = hashlib.sha256(b"".join(lines)).hexdigest()
        assert got == self.DIGESTS


    def test_the_suing_rows_are_grouped_once(self, tmp_path, monkeypatch):
        # every cell's audit, the black box's audit and oracle, and every
        # equivalent-points mask read one grouping of the suing rows
        grouped = []

        def counted(group):
            def f(bits):
                grouped.append(bits.shape[0])
                return group(bits)

            return f

        monkeypatch.setattr(dataset, "group_rows", counted(group_rows))
        # the masks group the distinct rows by their classes alone
        monkeypatch.setattr(search, "row_class_ids", counted(row_class_ids))
        data, preds = write_synth(tmp_path, n=300)
        args = ["global", *data_args(data), "--blackbox", preds, "--lambda", "0.005", "--lambda", "0.01",
                "--beta", "0", "--beta", "0.5", "--split", "0.3,0.5,0.2", "--seed", "2",
                "--max-length", "2", "--max-models", "5", "--output", str(tmp_path / "g")]
        assert main(args) == 0
        assert grouped.count(int(0.5 * 300)) == 1
        # the masks group the distinct rows on their allowed columns
        assert len(grouped) > 1

    def test_repeated_runs_keep_no_memory(self, tmp_path):
        # nothing a run computes outlives it: after the first runs fill
        # whatever the interpreter and numpy cache, memory stays flat
        data, preds = write_synth(tmp_path, n=10000)
        args = ["global", *data_args(data), "--blackbox", preds, "--lambda", "0.01", "--beta", "0.5",
                "--split", "0.3,0.5,0.2", "--max-length", "1", "--max-models", "3", "--output", str(tmp_path / "g")]
        sizes = []
        tracemalloc.start()
        try:
            for _ in range(10):
                assert main(args) == 0
                gc.collect()
                sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        # a grouping kept per run would hold at least 8 bytes a suing row a
        # run; the interpreter's own caches grow by a few KB over the runs
        assert max(sizes[2:]) - sizes[1] < 8 * 5000


class TestGlobalMemo:
    def test_each_distinct_selection_is_audited_and_tested_once(self, tmp_path, monkeypatch):
        calls = {"flip_influence": 0, "predict": 0, "unfairness_of": 0}
        for name in calls:
            def counted(*args, _f=getattr(rationalize, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(rationalize, name, counted)
        cells = []

        def cell(*args, **kwargs):
            cells.append(args[1])
            return rationalize.rationalize_global(*args, **kwargs)

        monkeypatch.setattr(cli, "rationalize_global", cell)
        data, preds = write_synth(tmp_path, n=300)
        out = tmp_path / "g"
        args = ["global", *data_args(data), "--blackbox", preds, "--lambda", "0.005", "--lambda", "0.01",
                "--beta", "0", "--beta", "0.2", "--beta", "0.9", "--split", "0.3,0.5,0.2", "--seed", "2",
                "--max-length", "2", "--max-models", "5", "--output", str(out)]
        assert main(args) == 0
        selected = []
        for name in sorted(os.listdir(out)):
            if not name.startswith("l"):
                continue
            manifest = dict(line.split("=", 1) for line in (out / name / "manifest.txt").read_text().splitlines())
            if manifest["selected"] != "none":
                models = (out / name / "models.txt").read_text().splitlines()
                selected.append(models[int(manifest["selected"])].split("\t")[6])
        assert len(cells) == 6
        # the cells share selections, so a per-cell audit would run more often
        assert len(set(selected)) < len(selected)
        assert calls == {"flip_influence": len(set(selected)), "predict": len(set(selected)), "unfairness_of": 1}

    @pytest.mark.parametrize("beta", ["0", "0.5"])
    def test_an_undefined_baseline_fails_before_any_search(self, tmp_path, monkeypatch, capsys, beta):
        # the black box approves no one in group 1, so its cpa rate on that
        # group's approved rows is undefined; the search, which would fail
        # on it only with beta > 0, is never reached
        d = biased_dataset(400)
        data = tmp_path / "data.csv"
        rows = np.column_stack([d.features, d.labels])
        np.savetxt(data, rows, fmt="%d", delimiter=",", header=",".join(d.feature_names + ["y"]), comments="")
        preds = tmp_path / "preds.csv"
        np.savetxt(preds, d.labels * (d.sensitive == 0), fmt="%d", header="prediction", comments="")
        searched = []

        def recorded(*args):
            searched.append(args)
            return enumeration.enumerate_cells(*args)

        monkeypatch.setattr(cli, "enumerate_cells", recorded)
        args = ["global", *data_args(str(data)), "--blackbox", str(preds), "--metric", "cpa", "--beta", beta,
                "--max-length", "2", "--output", str(tmp_path / "g")]
        assert main(args) == 2
        assert "conditional rate with zero denominator" in capsys.readouterr().err
        assert searched == []


class TestSingleSearchDefaults:
    # sha256 of the result files of learn and enumerate runs with every
    # search flag at its default; manifests without their path lines, so the
    # default of each flag is pinned through its manifest line
    DIGESTS = {
        "learn": {
            "models.txt": "b9200e0cc939d01e80479b662c8baf646d78baae1daf831edf9f8a0c8c5d62db",
            "tradeoff.csv": "5494424be73329d2c2bfea96b4bddd97f0a96a7b6e9b6b15b4fe4f7668bb6fa2",
            "manifest.txt": "c07c9946629b3bd6a28f77ce11ccd8aa45923b3fcaf5bf2f051c7a178a8fb62e",
        },
        "enumerate": {
            "models.txt": "711d40b25a9606d7308985c8ab1b4b900455f82d1366fa09833da0f2b5086c9b",
            "tradeoff.csv": "92005fa51bd8e708ea83c543cbd1d719c865e785596f994672b0444a94c3c30c",
            "manifest.txt": "ba9758284e1ce56bf91a500f43f15c81e244f738a20ce60501a3129c3d2d43ec",
        },
    }

    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_default_flags_write_the_same_files(self, tmp_path, command):
        data, _ = write_synth(tmp_path, n=200)
        out = tmp_path / command
        assert main([command, *data_args(data), "--output", str(out)]) == 0
        got = {}
        for name in self.DIGESTS[command]:
            lines = (out / name).read_bytes().splitlines(keepends=True)
            if name == "manifest.txt":
                lines = [line for line in lines if not line.startswith((b"data=", b"output="))]
            got[name] = hashlib.sha256(b"".join(lines)).hexdigest()
        assert got == self.DIGESTS[command]


class TestBadValues:
    # (command and flags, the flag the error names); each would otherwise be
    # a ValueError traceback
    CASES = [
        (["learn", "--beta", "2"], "--beta"),
        (["learn", "--lambda", "-1"], "--lambda"),
        (["learn", "--max-length", "-1"], "--max-length"),
        (["learn", "--node-budget", "0"], "--node-budget"),
        (["enumerate", "--max-models", "0"], "--max-models"),
        (["mine", "--min-support", "0.7"], "--min-support"),
        (["global", "--split", "0,0.5,0.5"], "--split"),
        (["global", "--split", "0.5,0.5"], "--split"),
        (["global", "--split", "a,b,c"], "--split"),
        (["global", "--beta", "0.5", "--beta", "2"], "--beta"),
        (["global", "--max-models", "0"], "--max-models"),
        # a second value of a flag the command reads only once
        (["learn", "--lambda", "0.005", "--lambda", "0.5"], "--lambda"),
        (["enumerate", "--beta", "0.1", "--beta", "0.9"], "--beta"),
        (["local", "--lambda", "0.005", "--lambda", "0.5"], "--lambda"),
        # a neighborhood size that would otherwise be replaced or ignored
        (["local", "--k", "0"], "--k"),
        (["local", "--k", "-3"], "--k"),
        (["local", "--k-frac", "0"], "--k-frac"),
        (["local", "--k-frac", "1.5"], "--k-frac"),
        (["local", "--k", "30", "--k-frac", "0.5"], "--k"),
        # a cohort value that is not a 0/1 cell, which used to read as an empty cohort
        (["local", "--minority-value", "5"], "--minority-value"),
        (["local", "--negative-class", "2"], "--negative-class"),
        # an audit of nothing, which used to write a header-only audit.csv
        (["audit"], "--model"),
    ]

    @pytest.mark.parametrize("argv,flag", CASES, ids=[" ".join(argv) for argv, _ in CASES])
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, argv, flag):
        data, preds = write_synth(tmp_path)
        command, *flags = argv
        if command in ("global", "local"):
            flags = ["--blackbox", preds, "--max-length", "2", *flags]
        out = tmp_path / "out"
        assert main([command, *data_args(data), *flags, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % flag)
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "age foo", "age buckets=[x]", "age", "age buckets=[30,30]", "age buckets=[40,30]",
            # one directive per column, even the same one again
            "sex drop", "income sensitive", "sex sensitive",
        ],
    )
    def test_bad_recipe_line(self, tmp_path, capsys, line):
        raw = tmp_path / "raw.csv"
        raw.write_text("age,sex,income\n25,M,0\n42,F,1\n")
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("sex sensitive\nincome label\n%s\n" % line)
        out = tmp_path / "prep.csv"
        assert main(["prep", "--input", str(raw), "--recipe", str(recipe), "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --recipe: recipe line 3: ")
        assert not out.exists()

    def test_a_second_directive_names_both_lines(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("a,sex,income\n1,M,0\n2,F,1\n")
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("a drop\nsex sensitive\nincome label\na onehot\n")
        out = tmp_path / "prep.csv"
        assert main(["prep", "--input", str(raw), "--recipe", str(recipe), "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: --recipe: recipe line 4: column 'a' already has a directive on line 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows,message",
        [
            ("25,M,0\n42, ,1\n", "row 1, column 'sex': missing cell"),
            ("25,M,0\nold,F,1\n", "row 1, column 'age': bucketized column must be numeric, got 'old'"),
        ],
    )
    def test_bad_prep_cell_names_its_row_and_column(self, tmp_path, capsys, rows, message):
        raw = tmp_path / "raw.csv"
        raw.write_text("age,sex,income\n" + rows)
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("age buckets=[30]\nsex sensitive\nincome label\n")
        out = tmp_path / "prep.csv"
        assert main(["prep", "--input", str(raw), "--recipe", str(recipe), "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()


    def test_sensitive_column_equal_to_label(self, tmp_path, capsys):
        data, _ = write_synth(tmp_path)
        out = tmp_path / "out"
        assert main(["mine", "--data", data, "--sensitive", "y", "--label", "y", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: --sensitive: the sensitive column 'y' is also the label\n"
        assert not out.exists()

    def test_repeated_header_name(self, tmp_path, capsys):
        # the second 'a' column used to be written over the first
        raw = tmp_path / "raw.csv"
        raw.write_text("a,a,s,y\n1,0,0,1\n1,0,1,0\n")
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("s sensitive\ny label\n")
        out = tmp_path / "prep.csv"
        assert main(["prep", "--input", str(raw), "--recipe", str(recipe), "--output", str(out)]) == 2
        mine_out = tmp_path / "mine"
        assert main(["mine", "--data", str(raw), "--sensitive", "s", "--label", "y", "--output", str(mine_out)]) == 2
        message = "error: column 'a' appears more than once in the header of %s\n" % raw
        assert capsys.readouterr().err == message * 2
        assert not out.exists() and not mine_out.exists()

    def test_output_name_written_by_two_columns(self, tmp_path, capsys):
        # the onehot column 'a' with category 'x' and the column 'a_x' would
        # both write 'a_x', a header that mine rejects
        raw = tmp_path / "raw.csv"
        raw.write_text("a,a_x,s,y\nx,1,0,1\nz,0,1,0\n")
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("a onehot\ns sensitive\ny label\n")
        out = tmp_path / "prep.csv"
        assert main(["prep", "--input", str(raw), "--recipe", str(recipe), "--output", str(out)]) == 2
        message = "error: output column 'a_x' comes from column 'a' and from column 'a_x' of %s\n" % raw
        assert capsys.readouterr().err == message
        assert not out.exists()


class TestInputErrors:
    """Malformed prep, recipe and prediction files exit 2 with one error
    line and write nothing."""

    def prep(self, tmp_path, raw_text, recipe_text):
        raw = tmp_path / "raw.csv"
        raw.write_text(raw_text)
        recipe = tmp_path / "recipe.txt"
        recipe.write_text(recipe_text)
        out = tmp_path / "prep.csv"
        return main(["prep", "--input", str(raw), "--recipe", str(recipe), "--output", str(out)]), raw, out

    @pytest.mark.parametrize(
        "raw_text,recipe_text,message",
        [
            ("", "s sensitive\ny label\n", "%s has no header row"),
            ("a,s,y\n", "s sensitive\ny label\n", "%s has no data rows"),
            ("a,s,y\n0,1,0\n", "s sensitive\n", "recipe must mark exactly one label column"),
            ("a,s,y\n0,1,0\n", "y label\n", "recipe must mark exactly one sensitive column"),
            ("a,s,y\n0,1,0\n", "s sensitive\ny label\nwage drop\n", "recipe column 'wage' not in %s"),
        ],
        ids=["empty file", "header only", "no label", "no sensitive", "unknown column"],
    )
    def test_bad_prep_input(self, tmp_path, capsys, raw_text, recipe_text, message):
        code, raw, out = self.prep(tmp_path, raw_text, recipe_text)
        assert code == 2
        assert capsys.readouterr().err == "error: %s\n" % (message % raw if "%s" in message else message)
        assert not out.exists()

    def test_header_only_predictions(self, tmp_path, capsys):
        data, _ = write_synth(tmp_path, n=20)
        preds = tmp_path / "preds.csv"
        preds.write_text("prediction\n")
        # every driver that reads predictions checks their alignment first
        for command in ("audit", "global", "local"):
            out = tmp_path / command
            assert main([command, *data_args(data), "--blackbox", str(preds), "--output", str(out)]) == 2
            assert capsys.readouterr().err == "error: 0 predictions vs 20 rows\n"
            assert not out.exists()

    def test_local_names_misaligned_predictions_before_a_bad_cohort_flag(self, tmp_path, capsys):
        # the predictions label the rows as soon as they are read, before
        # the cohort flags are checked
        data, _ = write_synth(tmp_path, n=20)
        preds = tmp_path / "preds.csv"
        preds.write_text("prediction\n1\n")
        for flag in (["--minority-value", "5"], ["--negative-class", "2"]):
            out = tmp_path / "out"
            assert main(["local", *data_args(data), "--blackbox", str(preds), *flag, "--output", str(out)]) == 2
            assert capsys.readouterr().err == "error: 1 predictions vs 20 rows\n"
            assert not out.exists()

    def test_blackbox_audit_with_no_known_flip(self, tmp_path):
        # the two feature rows differ in every column, so each flip leaves
        # the rows the lookup knows: no feature is scored
        data = tmp_path / "far.csv"
        data.write_text("a,s,y\n0,0,0\n1,1,1\n0,0,1\n1,1,0\n")
        preds = tmp_path / "preds.csv"
        preds.write_text("0\n1\n1\n0\n")
        out = tmp_path / "aud"
        assert main(["audit", *data_args(str(data)), "--blackbox", str(preds), "--output", str(out)]) == 0
        assert (out / "audit.csv").read_text() == "feature,score,rank,model_tag\n"


class TestLocalCommand:
    # sha256 of the result files of a default 5-beta run, as written when
    # each beta rebuilt the cohort; the manifest without its path lines
    SWEEP_DIGESTS = {
        "coverage.csv": "6e6210d1a241c311ddb1bc21a99395733bb74acc87ebd958c0348b64e2526ac8",
        "cdf.csv": "7df8f688225c8dc36cbea0f8ceb3b2eeb83fbe7826e0f61e1f4bd572158fa9b9",
        "manifest.txt": "478dce073fe24463255b2332a102b5b83cdc6f0940cac234cef2dca28ba8b32e",
    }

    def test_beta_sweep_writes_the_same_files(self, tmp_path):
        data, preds = write_synth(tmp_path, n=200)
        out = tmp_path / "l"
        args = ["local", *data_args(data), "--blackbox", preds, "--max-length", "2", "--max-models", "5"]
        assert main([*args, "--output", str(out)]) == 0
        got = {}
        for name in self.SWEEP_DIGESTS:
            lines = (out / name).read_bytes().splitlines(keepends=True)
            if name == "manifest.txt":
                assert b"beta=0.1,0.3,0.5,0.7,0.9\n" in lines
                lines = [line for line in lines if not line.startswith((b"data=", b"blackbox=", b"output="))]
            got[name] = hashlib.sha256(b"".join(lines)).hexdigest()
        assert got == self.SWEEP_DIGESTS

    @pytest.mark.parametrize("flags,k", [([], 20), (["--k", "30"], 30), (["--k-frac", "0.5"], 100)])
    def test_neighborhood_size(self, tmp_path, flags, k):
        data, preds = write_synth(tmp_path, n=200)
        out = tmp_path / "l"
        args = ["local", *data_args(data), "--blackbox", preds, "--beta", "0.5", "--max-length", "1"]
        assert main([*args, *flags, "--output", str(out)]) == 0
        assert ("k=%d\n" % k) in (out / "manifest.txt").read_text()

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


def file_flag_command(tmp_path, flag):
    """A command that reads the file given by `flag`, with good files for
    every flag; the caller puts its own path after `flag`."""
    data, preds = write_synth(tmp_path)
    raw = tmp_path / "raw.csv"
    raw.write_text("age,sex,income\n25,M,0\n42,F,1\n")
    recipe = tmp_path / "recipe.txt"
    recipe.write_text("sex sensitive\nincome label\n")
    model = tmp_path / "model.txt"
    model.write_text("0:1;default:0\n")
    run = tmp_path / "run"
    run.mkdir()
    return {
        "--data": ["mine", *data_args(data)],
        "--blackbox": ["audit", *data_args(data), "--blackbox", preds],
        "--recipe": ["prep", "--input", str(raw), "--recipe", str(recipe)],
        "--input": ["prep", "--input", str(raw), "--recipe", str(recipe)],
        "--model": ["audit", *data_args(data), "--model", str(model)],
        "--run": ["report", *data_args(data), "--run", str(run)],
    }[flag]


class TestMissingFiles:
    """A file flag naming a missing path exits 2 with one line naming it,
    not a FileNotFoundError traceback."""

    @pytest.mark.parametrize("flag", ["--data", "--blackbox", "--recipe", "--input", "--model", "--run"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, flag):
        command = file_flag_command(tmp_path, flag)
        out = tmp_path / "out"
        missing = str(tmp_path / "missing")
        command[command.index(flag) + 1] = missing
        assert main([*command, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        path = os.path.join(missing, "models.txt") if flag == "--run" else missing
        assert err.startswith("error: %s: " % path)
        assert err.count("\n") == 1
        assert not out.exists()


LONG_CELL = b'"' + b"x" * 200_000 + b'"'


class TestUnreadableFiles:
    """An input file with bytes that do not decode as UTF-8 text, or with a
    csv field over the csv module's limit, exits 2 with one line naming it,
    not a traceback."""

    # "<flag> [what]" -> the bytes of the file given by that flag
    CONTENTS = {
        "--data header": b"a,s\xe9,y\n0,1,0\n1,0,1\n",
        "--data body": b"a,s,y\n0,1,0\n1,\xff,1\n",
        "--data long field": b"a,s,y\n0,1,0\n1," + LONG_CELL + b",1\n",
        "--blackbox": b"prediction\n0\n\xff\n1\n",
        "--input": b"age,sex,income\n25,M,0\n42,F\xe9,1\n",
        "--input long field": b"age,sex,income\n25,M,0\n42," + LONG_CELL + b",1\n",
        "--recipe": b"sex sensitive\nincome label\n# \xe9\n",
        "--model": b"0:1;default:0 \xe9\n",
        "--run": b"0\t0.1\t0.1\t0.0\t0.9\t1\t0:1;default:0\xff\n",
    }

    @pytest.mark.parametrize("case", list(CONTENTS))
    def test_exits_2_naming_the_file(self, tmp_path, capsys, case):
        flag = case.split()[0]
        command = file_flag_command(tmp_path, flag)
        out = tmp_path / "out"
        bad = tmp_path / "bad"
        bad.mkdir()
        path = bad / "models.txt" if flag == "--run" else bad / "file"
        path.write_bytes(self.CONTENTS[case])
        command[command.index(flag) + 1] = str(bad if flag == "--run" else path)
        assert main([*command, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % path)
        assert err.count("\n") == 1
        assert not out.exists()

    def test_a_late_byte_is_named_without_a_chunk_position(self, tmp_path, capsys):
        # the text layer decodes 8 KB at a time, so the codec's position
        # would count from the last chunk's start, not the file's
        data = tmp_path / "big.csv"
        data.write_bytes(b"a,s,y\n" + b"0,1,0\n" * 3000 + b"1,\xe9,1\n")
        assert main(["mine", *data_args(str(data)), "--output", str(tmp_path / "out")]) == 2
        message = "error: %s: byte 0xe9 does not decode as utf-8 (invalid continuation byte)\n" % data
        assert capsys.readouterr().err == message


BOM = b"\xef\xbb\xbf"


def main_in_the_c_locale(*argvs):
    """Run `main` on each argv in turn, in a fresh interpreter under the C
    locale with UTF-8 mode off, where the locale's text encoding is ASCII.
    Returns the exit codes, which the child prints as the last line of its
    stdout, and the bytes that `main` wrote to stdout before them."""
    env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(fairlists.__file__)), env.get("PYTHONPATH", "")])
    script = "import json, sys; from fairlists.cli import main; print(json.dumps([main(a) for a in json.loads(sys.argv[1])]))"
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env, capture_output=True, check=True)
    *printed, codes = done.stdout.splitlines(keepends=True)
    return json.loads(codes), b"".join(printed)


class TestUtf8Files:
    """Every input is decoded as UTF-8, whatever the locale, and a UTF-8
    byte-order mark before its first line is dropped; every output file is
    written as UTF-8."""

    @pytest.mark.parametrize("pad", ["", " "], ids=["clean", "padded"])
    def test_a_bom_before_the_data_header(self, tmp_path, pad):
        # s is the first column, so a kept mark would join its name; a clean
        # body takes the numpy path, a padded one the csv module's
        body = "s,a,b,y\n" + "".join(
            "%s%d,%d,%d,%d\n" % (pad, i % 2, i // 2 % 2, i // 4 % 2, i % 3 == 0) for i in range(16)
        )
        results = []
        for mark in (b"", BOM):
            data = tmp_path / ("data%d.csv" % len(mark))
            data.write_bytes(mark + body.encode())
            assert load_csv(data, "s", "y").feature_names == ["s", "a", "b"]
            out = tmp_path / ("mine%d" % len(mark))
            assert main(["mine", "--data", str(data), "--sensitive", "s", "--label", "y", "--output", str(out)]) == 0
            results.append((out / "antecedents.csv").read_bytes())
        assert results[0] == results[1]

    def test_a_bom_before_a_recipe(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_bytes(BOM + b"sex,age,income\nM,25,0\nF,42,1\nF,61,0\nM,33,1\n")
        results = []
        for mark in (b"", BOM):
            recipe = tmp_path / ("recipe%d.txt" % len(mark))
            recipe.write_bytes(mark + b"sex sensitive\nage buckets=[30,50]\nincome label\n")
            out = tmp_path / ("prep%d.csv" % len(mark))
            assert main(["prep", "--input", str(raw), "--recipe", str(recipe), "--output", str(out)]) == 0
            results.append(out.read_bytes())
        assert results[0] == results[1] == b"sex,age_le_30,age_30_50,age_gt_50,income\n1,1,0,0,0\n0,0,1,0,1\n0,0,0,1,0\n1,0,1,0,1\n"

    def test_a_bom_before_headerless_predictions(self, tmp_path):
        # a kept mark would make the first prediction a header: 299 predictions
        data, preds = write_synth(tmp_path, n=300)
        with open(preds, "rb") as fh:
            lines = fh.read().split(b"\n", 1)[1]
        results = []
        for mark in (b"", BOM):
            path = tmp_path / ("bare%d.csv" % len(mark))
            path.write_bytes(mark + lines)
            np.testing.assert_array_equal(load_predictions(path), load_predictions(preds))
            out = tmp_path / ("audit%d" % len(mark))
            assert main(["audit", *data_args(data), "--blackbox", str(path), "--output", str(out)]) == 0
            results.append((out / "audit.csv").read_bytes())
        assert results[0] == results[1]

    def test_a_non_ascii_column_name_round_trips_through_prep_and_mine(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_bytes("âge,sexe,revenu\n25,M,0\n42,F,1\n61,F,0\n33,M,1\n".encode("utf-8"))
        recipe = tmp_path / "recipe.txt"
        recipe.write_bytes("âge buckets=[30,50]\nsexe sensitive\nrevenu label\n".encode("utf-8"))
        outputs = {}
        for where in ("here", "c_locale"):
            prepped = tmp_path / where / "data.csv"
            mined = tmp_path / where / "mine"
            prepped.parent.mkdir()
            argvs = (
                ["prep", "--input", str(raw), "--recipe", str(recipe), "--output", str(prepped)],
                ["mine", "--data", str(prepped), "--sensitive", "sexe", "--label", "revenu",
                 "--min-support", "0", "--output", str(mined)],
            )
            if where == "here":
                assert [main(argv) for argv in argvs] == [0, 0]
            else:
                assert main_in_the_c_locale(*argvs) == ([0, 0], b"")
            outputs[where] = (prepped.read_bytes(), (mined / "antecedents.csv").read_bytes())
        assert outputs["here"] == outputs["c_locale"]
        prepped, antecedents = outputs["here"]
        assert prepped.startswith("âge_le_30,âge_30_50,âge_gt_50,sexe,revenu\n".encode("utf-8"))
        assert "\n0,âge_le_30,0,".encode("utf-8") in antecedents

    def test_report_prints_a_non_ascii_column_name_as_utf8(self, tmp_path):
        # under the C locale, print would encode the name as ASCII and fail
        raw = tmp_path / "raw.csv"
        raw.write_bytes("âge,sexe,revenu\n25,M,0\n42,F,1\n61,F,0\n33,M,1\n".encode("utf-8"))
        recipe = tmp_path / "recipe.txt"
        recipe.write_bytes("âge buckets=[30,50]\nsexe sensitive\nrevenu label\n".encode("utf-8"))
        data = ["--data", str(tmp_path / "data.csv"), "--sensitive", "sexe", "--label", "revenu", "--min-support", "0"]
        codes, printed = main_in_the_c_locale(
            ["prep", "--input", str(raw), "--recipe", str(recipe), "--output", str(tmp_path / "data.csv")],
            ["learn", *data, "--output", str(tmp_path / "learn")],
            ["report", *data, "--run", str(tmp_path / "learn"), "--output", str(tmp_path / "report")],
        )
        assert codes == [0, 0, 0]
        assert printed == (tmp_path / "report" / "report.txt").read_bytes()
        # âge_30_50 is the label: the one rule names it
        assert "if âge_30_50 then 1 else 0".encode("utf-8") in printed


class TestAuditMiningFlags:
    """Without --model, audit mines nothing, so a mining flag is rejected."""

    @pytest.mark.parametrize(
        "flags",
        [["--min-support", "0.9"], ["--min-support", "0.1"], ["--no-negations"], ["--include-sensitive"]],
        ids=" ".join,
    )
    def test_blackbox_only_rejects_mining_flags(self, tmp_path, capsys, flags):
        data, preds = write_synth(tmp_path)
        out = tmp_path / "aud"
        assert main(["audit", *data_args(data), "--blackbox", preds, *flags, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: %s: " % flags[0])
        assert not out.exists()

    def test_mining_flags_act_with_a_model(self, tmp_path):
        data, preds = write_synth(tmp_path)
        model = tmp_path / "model.txt"
        model.write_text("0:1;default:0\n")
        out = tmp_path / "aud"
        flags = ["--min-support", "0.1", "--no-negations", "--include-sensitive"]
        assert main(["audit", *data_args(data), "--model", str(model), "--blackbox", preds, *flags, "--output", str(out)]) == 0


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
            "# a comment line is skipped\n"
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

    def test_audit_of_a_model_and_the_black_box_groups_the_rows_once(self, tmp_path, monkeypatch):
        grouped = []

        def counted(bits):
            grouped.append(bits.shape[0])
            return group_rows(bits)

        monkeypatch.setattr(dataset, "group_rows", counted)
        data, preds = write_synth(tmp_path)
        model = tmp_path / "model.txt"
        model.write_text("0:1;1:0;default:0\n")
        out = tmp_path / "aud"
        assert main(["audit", *data_args(data), "--model", str(model), "--blackbox", preds, "--output", str(out)]) == 0
        assert grouped == [120]
        tags = [line.split(",")[-1] for line in (out / "audit.csv").read_text().splitlines()[1:]]
        assert set(tags) == {"surrogate", "blackbox"}

    @pytest.mark.parametrize("text", ["999:1;default:0", "garbage"])
    def test_audit_reports_a_bad_model_before_a_bad_predictions_file(self, tmp_path, capsys, text):
        data, _ = write_synth(tmp_path)
        model = tmp_path / "model.txt"
        model.write_text(text + "\n")
        preds = tmp_path / "short.csv"
        preds.write_text("prediction\n0\n1\n")
        out = tmp_path / "aud"
        args = ["audit", *data_args(data), "--model", str(model), "--blackbox", str(preds), "--output", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: %s: " % model)
        model.write_text("0:1;default:0\n")
        assert main(args) == 2
        assert capsys.readouterr().err == "error: 2 predictions vs 120 rows\n"
        assert not out.exists()

    def test_report_command(self, tmp_path, capsys):
        data, _ = write_synth(tmp_path)
        run = tmp_path / "run"
        assert main(["learn", *data_args(data), "--output", str(run)]) == 0
        out = tmp_path / "rep"
        assert main(["report", *data_args(data), "--run", str(run), "--output", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "model 0" in text
        assert "if " in text


class TestRuleListErrors:
    """A malformed rule list exits 2 naming the file it was read from."""

    def run_report(self, tmp_path, capsys, models_txt):
        data, _ = write_synth(tmp_path)
        run = tmp_path / "run"
        run.mkdir()
        (run / "models.txt").write_text(models_txt)
        out = tmp_path / "rep"
        code = main(["report", *data_args(data), "--run", str(run), "--output", str(out)])
        assert not out.exists()
        return code, capsys.readouterr().err

    def test_audit_model_that_is_not_a_rule_list(self, tmp_path, capsys):
        data, _ = write_synth(tmp_path)
        model = tmp_path / "model.txt"
        model.write_text("garbage\n")
        out = tmp_path / "aud"
        assert main(["audit", *data_args(data), "--model", str(model), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: bad canonical rule list" % model)
        assert not out.exists()

    def test_report_line_whose_list_is_malformed(self, tmp_path, capsys):
        code, err = self.run_report(tmp_path, capsys, "0\t0.1\t0.1\t0.0\t0.9\t1\tnot-a-list\n")
        assert code == 2
        assert "models.txt line 1: bad canonical rule list" in err

    def test_report_line_with_an_unknown_antecedent(self, tmp_path, capsys):
        good = "0\t0.1\t0.1\t0.0\t0.9\t1\t0:1;default:0\n"
        code, err = self.run_report(tmp_path, capsys, good + "1\t0.1\t0.1\t0.0\t0.9\t1\t99:1;default:0\n")
        assert code == 2
        assert "models.txt line 2: antecedent id 99" in err

    def test_report_line_missing_fields(self, tmp_path, capsys):
        code, err = self.run_report(tmp_path, capsys, "\n0\t0.1\t0:1;default:0\n")
        assert code == 2
        assert "models.txt line 2: 3 fields, expected 7" in err
