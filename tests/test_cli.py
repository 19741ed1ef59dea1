import argparse
import json
import os
import re

import numpy as np
import pytest

from phenomnn import cli
from phenomnn.cli import main
from phenomnn.data import load_dataset, make_splits
from phenomnn.model import ModelConfig
from phenomnn.train import TrainConfig


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def toy_hypergraph(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    return str(path)


@pytest.fixture()
def synthetic_dir(tmp_path):
    out = str(tmp_path / "ds")
    assert main(["gen-synthetic", "--out", out, "--seed", "0",
                 "--nodes-per-community", "20", "--edges", "25", "--feature-dim", "5"]) == 0
    return out


def test_step_bound_trivial_prints_one(toy_hypergraph, capsys):
    rc = main(["step-bound", "--hypergraph", toy_hypergraph,
               "--set", "lambda0=0", "--set", "lambda1=0"])
    assert rc == 0
    out = capsys.readouterr().out
    bound = float(out.split("step bound (simple):")[1].split()[0])
    assert bound == 1.0
    assert "certificate: trivial" in out


def test_gen_synthetic_roundtrip(synthetic_dir):
    ds = load_dataset(synthetic_dir)
    assert ds.hypergraph.n == 40
    assert ds.n_classes == 2


def test_train_writes_outputs(synthetic_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["train", "--data", synthetic_dir, "--out", out, "--seed", "1",
               "--set", "epochs=5", "--set", "prop_step=2", "--set", "hidden=8",
               "--set", "dropout=0.0"])
    assert rc == 0
    assert os.path.isfile(os.path.join(out, "metrics.json"))
    assert os.path.isfile(os.path.join(out, "epochs.csv"))
    assert os.path.isfile(os.path.join(out, "checkpoint.json"))
    assert "test acc" in capsys.readouterr().out


def test_eval_on_checkpoint(synthetic_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    main(["train", "--data", synthetic_dir, "--out", out, "--seed", "1",
          "--set", "epochs=3", "--set", "prop_step=2", "--set", "hidden=8",
          "--set", "dropout=0.0"])
    rc = main(["eval", "--data", synthetic_dir, "--checkpoint",
               os.path.join(out, "checkpoint.json"), "--split", "test"])
    assert rc == 0
    assert "test accuracy" in capsys.readouterr().out


@pytest.mark.parametrize("case, cause", [
    ("no-predictor", "no key 'predictor'"),
    ("empty-predictor", "predictor.w0 has shape (0,), expected (0, 5)"),
    ("stacked-predictor", "predictor.w0 has shape (2, 5, 5), expected (2, 5)"),
    ("short-bias", "predictor.b0 has shape (1,), expected (5,)"),
    ("fractional-layers", "config key 't_layers' must be an integer, got 2.5"),
    ("no-alpha", "no key 'alpha'"),
    ("not-an-object", "not a recognized checkpoint"),
    ("nan-h0", "h0 holds a non-finite value"),
    ("infinite-classifier", "classifier.w holds a non-finite value"),
])
def test_eval_rejects_a_checkpoint_that_describes_no_model(synthetic_dir, tmp_path, capsys, case, cause):
    # hidden equals the 5 features, so a predictor of zero or two layers would
    # still run, and a bias of length 1 would broadcast
    out = tmp_path / "run"
    assert main(["train", "--data", synthetic_dir, "--out", str(out), "--seed", "1",
                 "--set", "epochs=2", "--set", "prop_step=2", "--set", "hidden=5"]) == 0
    path = out / "checkpoint.json"
    payload = json.loads(path.read_text())
    pred = payload["predictor"]
    if case == "no-predictor":
        del payload["predictor"]
    elif case == "empty-predictor":
        pred["w"], pred["b"] = [], []
    elif case == "stacked-predictor":
        pred["w"], pred["b"] = [pred["w"]] * 2, [pred["b"]] * 2
    elif case == "short-bias":
        pred["b"] = pred["b"][:1]
    elif case == "fractional-layers":
        payload["config"]["t_layers"] = 2.5
    elif case == "no-alpha":  # not ModelConfig's default alpha
        del payload["config"]["alpha"]
    elif case == "nan-h0":  # the simple variant never reads h0
        payload["h0"][0][0] = float("nan")
    elif case == "infinite-classifier":
        payload["classifier"]["w"][1][0] = float("inf")
    else:
        payload = [payload]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["eval", "--data", synthetic_dir, "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and cause in err


def test_eval_rejects_a_dataset_of_another_feature_width(synthetic_dir, tmp_path, capsys):
    wide = str(tmp_path / "wide")
    assert main(["gen-synthetic", "--out", wide, "--seed", "0", "--nodes-per-community", "20",
                 "--edges", "25", "--feature-dim", "8"]) == 0
    out = tmp_path / "run"
    assert main(["train", "--data", wide, "--out", str(out), "--seed", "1",
                 "--set", "epochs=2", "--set", "prop_step=2", "--set", "hidden=4"]) == 0
    path = out / "checkpoint.json"
    capsys.readouterr()
    assert main(["eval", "--data", synthetic_dir, "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: predictor.w0 takes 8 features, the dataset has 5" in err


def test_eval_rejects_a_dataset_of_more_classes_than_the_classifier(synthetic_dir, tmp_path, capsys):
    three = str(tmp_path / "three")
    assert main(["gen-synthetic", "--out", three, "--seed", "0", "--communities", "3", "--nodes-per-community", "20",
                 "--edges", "25", "--feature-dim", "5"]) == 0
    runs = {}
    for name, data in (("two", synthetic_dir), ("three", three)):
        runs[name] = tmp_path / f"run-{name}" / "checkpoint.json"
        assert main(["train", "--data", data, "--out", str(runs[name].parent), "--seed", "1",
                     "--set", "epochs=2", "--set", "prop_step=2", "--set", "hidden=4"]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", three, "--checkpoint", str(runs["two"])]) == 1
    err = capsys.readouterr().err
    assert f"error: {runs['two']}: the classifier scores 2 classes, the dataset has 3" in err
    # a dataset of fewer classes than the classifier scores is still evaluated
    assert main(["eval", "--data", synthetic_dir, "--checkpoint", str(runs["three"])]) == 0
    assert "test accuracy" in capsys.readouterr().out


def test_train_repeats_summary(synthetic_dir, tmp_path):
    out = str(tmp_path / "runs")
    rc = main(["train", "--data", synthetic_dir, "--out", out, "--seed", "0",
               "--repeats", "3", "--set", "epochs=3", "--set", "prop_step=2",
               "--set", "hidden=8", "--set", "dropout=0.0", "--set", "resplit=true"])
    assert rc == 0
    summary = json.loads((tmp_path / "runs" / "summary.json").read_text())
    assert summary["repeats"] == 3
    accs = [r["final_test_acc"] for r in summary["runs"]]
    assert abs(summary["mean_test_acc"] - np.mean(accs)) <= 1e-12
    assert abs(summary["std_test_acc"] - np.std(accs)) <= 1e-12
    # each run keeps its descent trace: one row per layer plus the start
    assert all(len(r["energy_trace"]) == 2 + 1 for r in summary["runs"])


def test_serial_repeats_load_the_dataset_once(synthetic_dir, tmp_path, monkeypatch):
    common = ["--data", synthetic_dir, "--set", "epochs=3", "--set", "prop_step=2", "--set", "hidden=8",
              "--set", "dropout=0.3", "--set", "resplit=true"]
    calls = []

    def counted(directory):
        calls.append(directory)
        return load_dataset(directory)

    monkeypatch.setattr(cli, "load_dataset", counted)
    assert main(["train", "--out", str(tmp_path / "runs"), "--seed", "4", "--repeats", "3", *common]) == 0
    assert calls == [synthetic_dir]
    summary = json.loads((tmp_path / "runs" / "summary.json").read_text())
    # each run equals a run of its seed alone, which loads its own dataset
    for run in summary["runs"]:
        single = tmp_path / f"seed{run['seed']}"
        assert main(["train", "--out", str(single), "--seed", str(run["seed"]), *common]) == 0
        alone = json.loads((single / "metrics.json").read_text())
        assert {k: v for k, v in run.items() if k not in ("seed", "wall_time")} == {
            k: v for k, v in alone.items() if k != "wall_time"
        }


def test_train_parallel_repeats(synthetic_dir, tmp_path):
    out = str(tmp_path / "pruns")
    rc = main(["train", "--data", synthetic_dir, "--out", out, "--seed", "0",
               "--repeats", "2", "--parallel", "2", "--set", "epochs=2",
               "--set", "prop_step=2", "--set", "hidden=8", "--set", "dropout=0.0"])
    assert rc == 0
    summary = json.loads((tmp_path / "pruns" / "summary.json").read_text())
    assert summary["repeats"] == 2 and len(summary["runs"]) == 2


@pytest.mark.parametrize("repeats", [["--repeats", "1"], ["--repeats", "2"], ["--repeats", "2", "--parallel"]])
def test_train_on_a_dataset_that_fails_to_load_makes_no_output_directory(synthetic_dir, tmp_path, capsys, repeats):
    # every file is there, so only loading the dataset finds the fault
    path = os.path.join(synthetic_dir, "features.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    out = tmp_path / "run"
    rc = main(["train", "--data", synthetic_dir, "--out", str(out), *repeats,
               "--set", "epochs=2", "--set", "prop_step=2", "--set", "hidden=8"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "features.csv:4" in err and "column 1" in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-2", "2.5", "x", ""])
def test_parallel_rejects_a_thread_count_that_is_not_a_positive_integer(synthetic_dir, tmp_path, capsys, threads):
    # 0 and -2 are integers that would start no worker; argparse rejects the others
    out = tmp_path / "pruns"
    argv = ["train", "--data", synthetic_dir, "--out", str(out), "--repeats", "2", "--parallel", threads,
            "--set", "epochs=2", "--set", "prop_step=2", "--set", "hidden=8"]
    if threads in ("0", "-2"):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --parallel must be at least 1, got {threads}\n"
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument --parallel: invalid int value: {threads!r}" in capsys.readouterr().err
    assert not out.exists()


def test_energy_trace_csv(synthetic_dir, capsys):
    rc = main(["energy-trace", "--data", synthetic_dir, "--steps", "4",
               "--set", "prop_step=2", "--set", "hidden=8"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "iteration,energy,feasible,grad_norm"
    assert len(lines) == 6
    energies = [float(l.split(",")[1]) for l in lines[1:]]
    assert energies == sorted(energies, reverse=True)  # descent trace


def test_energy_trace_general_variant(synthetic_dir, capsys):
    rc = main(["energy-trace", "--data", synthetic_dir, "--steps", "3",
               "--set", "variant=general", "--set", "hidden=6", "--set", "alpha=0.02"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "iteration,energy,feasible,grad_norm"
    assert len(lines) == 5


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_train_rejects_repeats_below_one(synthetic_dir, tmp_path, capsys, repeats):
    out = tmp_path / "runs"
    rc = main(["train", "--data", synthetic_dir, "--out", str(out), "--repeats", repeats,
               "--set", "epochs=2", "--set", "prop_step=2", "--set", "hidden=8"])
    assert rc == 1
    assert f"--repeats must be at least 1, got {repeats}" in capsys.readouterr().err
    assert not out.exists()


def test_energy_trace_rejects_negative_steps(synthetic_dir, tmp_path, capsys):
    out = tmp_path / "trace"
    rc = main(["energy-trace", "--data", synthetic_dir, "--out", str(out), "--steps", "-3",
               "--set", "hidden=8"])
    assert rc == 1
    assert "--steps must be at least 0, got -3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "-1"],
    ["train", "--set", "seed=-1"],
    ["energy-trace", "--seed", "-1"],
    ["check-gradients", "--seed", "-1"],
])
def test_negative_seed_is_rejected(synthetic_dir, tmp_path, capsys, argv):
    # PCG64 would reject it with "expected non-negative integer", naming nothing
    rc = main([*argv, "--data", synthetic_dir, "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == "error: config key 'seed' must be at least 0, got -1\n"
    assert not (tmp_path / "run").exists()


def test_gen_synthetic_rejects_a_negative_seed(tmp_path, capsys):
    rc = main(["gen-synthetic", "--out", str(tmp_path / "ds"), "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--edges", "-1", "edges must be >= 0, got -1"),
        ("--noise-std", "-1", "noise_std must be nonnegative and finite, got -1.0"),
        ("--noise-std", "nan", "noise_std must be nonnegative and finite, got nan"),
        ("--noise-std", "inf", "noise_std must be nonnegative and finite, got inf"),
    ],
    ids=["edges-negative", "noise-negative", "noise-nan", "noise-inf"],
)
def test_gen_synthetic_rejects_a_setting_outside_its_range(flag, value, message, tmp_path, capsys):
    rc = main(["gen-synthetic", "--out", str(tmp_path / "ds"), "--seed", "0", flag, value])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("command", ["train", "energy-trace", "check-gradients"])
def test_an_absurd_width_exits_with_one_line(synthetic_dir, tmp_path, capsys, command):
    # 10^16 columns put the first array past any address space but under numpy's size
    # limit, so its allocation fails at once, as a MemoryError, and is never attempted
    args = {"train": ["--data", synthetic_dir, "--out", str(tmp_path / "run")],
            "energy-trace": ["--data", synthetic_dir], "check-gradients": []}[command]
    capsys.readouterr()
    assert main([command, *args, "--set", "hidden=10000000000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()  # train removes the --out it made for a failed run


@pytest.mark.parametrize("command, alpha, extra", [
    ("energy-trace", "1e200", ["--steps", "3"]),
    ("train", "1e155", ["--set", "prop_step=1", "--set", "epochs=2"]),
], ids=["energy-trace", "train"])
def test_a_trace_that_is_not_finite_exits_with_one_line(tmp_path, capsys, command, alpha, extra):
    # a step of alpha = 1e200 takes the first iterate past the float range, and one of
    # 1e155 its energy: the trace stops at iteration 1, naming it and alpha, with no
    # warning (a warning fails this test), and train writes no metrics.json
    data, run = str(tmp_path / "toy"), tmp_path / "run"
    assert main(["gen-synthetic", "--out", data, "--seed", "1"]) == 0
    out = ["--out", str(run)] if command == "train" else []
    capsys.readouterr()
    assert main([command, "--data", data, *out, "--set", f"alpha={alpha}", "--set", "hidden=4", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: descent_trace: energy or gradient not finite at iteration 1 "
                            f"(alpha={float(alpha)})\n")
    assert captured.out == "" and not run.exists()


@pytest.mark.parametrize("repeats", [[], ["--repeats", "2"]])
def test_train_stops_before_its_runs_if_out_cannot_be_made(synthetic_dir, tmp_path, capsys, monkeypatch, repeats):
    out = tmp_path / "run"
    out.write_text("kept")
    monkeypatch.setattr(cli, "_single_run", lambda *args: pytest.fail("a run started"))
    assert main(["train", "--data", synthetic_dir, "--out", str(out), *repeats]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.read_text() == "kept"


def test_a_failed_run_leaves_an_out_that_was_there(synthetic_dir, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    assert main(["train", "--data", synthetic_dir, "--out", str(out), "--set", "hidden=10000000000000000"]) == 1
    assert os.listdir(out) == ["notes.txt"]


def test_step_bound_reads_only_the_hypergraph_of_a_dataset(tmp_path, capsys):
    data = tmp_path / "ds"
    data.mkdir()
    for text in ("3 2\n0 1\n1 2\n", "# sizes\n3 2\n0 1\n  # edge 1\n1 2\n"):
        (data / "hypergraph.txt").write_text(text)
        assert main(["step-bound", "--data", str(data), "--set", "lambda0=0", "--set", "lambda1=0"]) == 0
        assert "step bound (simple): 1 " in capsys.readouterr().out



@pytest.mark.parametrize("value", ["5", '["a"]', "true"])
@pytest.mark.parametrize("command", ["step-bound", "train"])
def test_dataset_key_that_is_not_a_string_is_rejected(synthetic_dir, tmp_path, monkeypatch, capsys, command, value):
    # JSON reads 5 as an int: step-bound passed it to os.path.join, which raised a
    # TypeError, and train read it as the directory 5, which is a dataset here
    monkeypatch.chdir(tmp_path)
    os.rename(synthetic_dir, tmp_path / "5")
    out = tmp_path / "run"
    train_flags = ["--out", str(out), "--set", "epochs=1"] if command == "train" else []
    assert main([command, "--set", f"dataset={value}", *train_flags]) == 1
    assert capsys.readouterr().err == f"error: config key 'dataset' must be a string, got {json.loads(value)!r}\n"
    assert not out.exists()
    # as a JSON string it names the directory
    assert main([command, "--set", 'dataset="5"', *train_flags]) == 0

def test_step_bound_without_a_hypergraph_names_both_flags(capsys):
    assert main(["step-bound"]) == 1
    assert capsys.readouterr().err == "error: step-bound needs --data or --hypergraph\n"


@pytest.mark.parametrize("source", ["data", "config"])
def test_step_bound_rejects_a_dataset_and_a_hypergraph_together(toy_hypergraph, tmp_path, capsys, source):
    # the dataset from --data or from the config's dataset key; either way one
    # of the two hypergraphs would be ignored, so neither is read
    data = tmp_path / "ds"
    data.mkdir()
    (data / "hypergraph.txt").write_text("4 1\n0 1 2 3\n")
    if source == "data":
        given = ["--data", str(data)]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"dataset": str(data)}))
        given = ["--config", str(config)]
    assert main(["step-bound", *given, "--hypergraph", toy_hypergraph]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: step-bound takes --data (or the config key 'dataset') or --hypergraph, not both\n"


def test_energy_trace_zero_steps_is_one_row(synthetic_dir, capsys):
    rc = main(["energy-trace", "--data", synthetic_dir, "--steps", "0",
               "--set", "prop_step=2", "--set", "hidden=8"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "iteration,energy,feasible,grad_norm"
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_check_gradients_cli(synthetic_dir, capsys):
    rc = main(["check-gradients", "--data", synthetic_dir, "--samples", "10",
               "--set", "prop_step=2", "--set", "hidden=6", "--set", "variant=general"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]


@pytest.mark.parametrize("flag, value, message", [
    ("--samples", "0", "samples must be at least 1, got 0"),
    ("--step", "0", "step must be positive and finite, got 0.0"),
    ("--step", "nan", "step must be positive and finite, got nan"),
])
def test_check_gradients_cli_rejects_a_check_of_nothing(synthetic_dir, capsys, flag, value, message):
    rc = main(["check-gradients", "--data", synthetic_dir, flag, value,
               "--set", "prop_step=2", "--set", "hidden=6"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: check_gradients: {message}\n"


def test_readme_lists_exactly_the_config_keys():
    # the README's CLI section names every key in its "Keys mirror ..." sentence,
    # so a key added or removed in CONFIG_DEFAULTS must be added or removed there
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(r"Keys mirror[^:]*:(.*?)\.", section, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", sentence)) == sorted(cli.CONFIG_DEFAULTS)


def test_unknown_config_key_rejected(synthetic_dir, capsys):
    rc = main(["train", "--data", synthetic_dir, "--set", "learning_rate=0.1"])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("relu_mode", "every_step"), ("optimizer", "adam"),
                                        ("dropout_inputs", "true"), ("dropout_features", "true"),
                                        ("weight_decay", "0.001"), ("strict_alpha", "false")])
def test_removed_config_keys_are_unknown(synthetic_dir, capsys, key, value):
    # one layer (ReLU at every step), one optimizer (Adam) without weight decay,
    # both dropout masks whenever dropout > 0, and no check of alpha against the
    # sufficient step bounds: none of these is a key any longer
    rc = main(["train", "--data", synthetic_dir, "--set", f"{key}={value}"])
    assert rc == 1
    assert f"--set: unknown config keys ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("resplit=False", "config key 'resplit' must be true or false, got 'False'"),
    ("resplit=1", "config key 'resplit' must be true or false, got 1"),
    ("hidden=true", "config key 'hidden' must be an integer, got True"),
    ("prop_step=2.5", "config key 'prop_step' must be an integer, got 2.5"),
    ("epochs=ten", "config key 'epochs' must be an integer, got 'ten'"),
    ("alpha=NaN", "config key 'alpha' must be a finite number, got nan"),
    ("lr=Infinity", "config key 'lr' must be a finite number, got inf"),
    ("lambda0=false", "config key 'lambda0' must be a finite number, got False"),
    ('dropout="0.1"', "config key 'dropout' must be a finite number, got '0.1'"),
    ("lambda1=1" + "0" * 400, "config key 'lambda1' must be a finite number, got 1000"),
])
def test_config_value_of_the_wrong_type_is_rejected(synthetic_dir, tmp_path, capsys, setting, message):
    # "False" is a string, which bool() would read as true; 2.5 layers would
    # truncate to 2, and true to a width of 1
    out = tmp_path / "run"
    rc = main(["train", "--data", synthetic_dir, "--out", str(out), "--set", setting])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"patience": 2.0}, "config key 'patience' must be an integer, got 2.0"),
    ([["lr", 0.1]], "a config must be a JSON object, got list"),
    (5, "a config must be a JSON object, got int"),
])
def test_config_file_is_checked(synthetic_dir, tmp_path, capsys, config, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    rc = main(["train", "--data", synthetic_dir, "--config", str(path)])
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("patience=0", "early_stop_patience must be >= 1, got 0"),
    ("lambda1=-0.5", "lambda1 must be nonnegative and finite, got -0.5"),
])
def test_config_value_out_of_range_is_rejected(synthetic_dir, tmp_path, capsys, setting, message):
    out = tmp_path / "run"
    rc = main(["train", "--data", synthetic_dir, "--out", str(out), "--set", setting, "--set", "epochs=50"])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("setting", ["patience=0", "lambda1=-0.5", "prop_step=0"])
def test_config_value_out_of_range_makes_no_output_directory(synthetic_dir, tmp_path, setting):
    out = tmp_path / "run"
    assert main(["train", "--data", synthetic_dir, "--out", str(out), "--set", setting]) == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["patience", "prop_step", "hidden"])
def test_range_error_names_the_config_key(synthetic_dir, capsys, key):
    # the config fields these keys set are early_stop_patience, t_layers and d
    assert main(["train", "--data", synthetic_dir, "--set", f"{key}=0"]) == 1
    assert f"(the config key '{key}')" in capsys.readouterr().err


@pytest.mark.parametrize("resplit, splits", [("false", 0), ("true", 1)])
def test_resplit_takes_json_booleans(synthetic_dir, tmp_path, monkeypatch, resplit, splits):
    # the string "false" would read as true: only the JSON true draws new splits
    calls = []

    def counted(n, seed):
        calls.append(n)
        return make_splits(n, seed=seed)

    monkeypatch.setattr(cli, "make_splits", counted)
    got = main(["train", "--data", synthetic_dir, "--out", str(tmp_path / "run"), "--set", f"resplit={resplit}",
                "--set", "epochs=1", "--set", "prop_step=2", "--set", "hidden=4"])
    assert got == 0
    assert len(calls) == splits


def test_unknown_flag_is_error(toy_hypergraph):
    with pytest.raises(SystemExit) as exc:
        main(["step-bound", "--hypergraph", toy_hypergraph, "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [
    ("eval", "--out"), ("eval", "--seed"), ("eval", "--preset"), ("eval", "--set"), ("eval", "--config"),
    ("step-bound", "--out"), ("step-bound", "--seed"),
])
def test_flags_a_subcommand_would_not_read_are_unrecognized(synthetic_dir, tmp_path, capsys, command, flag):
    # eval reads no seed, writes nothing, and takes every setting but the dataset from the
    # checkpoint; the step bound is taken at H0 = H1 = I
    out = tmp_path / "d"
    value = {"--out": str(out), "--seed": "5", "--preset": "cora_coauthorship_simple", "--set": "variant=general",
             "--config": str(tmp_path / "run.json")}[flag]
    given = ["--checkpoint", str(tmp_path / "ck.json")] if command == "eval" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", synthetic_dir, *given, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err
    assert not out.exists()


def test_each_subcommand_takes_its_flags():
    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {f for a in p._actions for f in a.option_strings if f != "-h"}
             for name, p in subcommands.choices.items()}
    common = {"--help", "--config", "--preset", "--set", "--seed", "--out", "--data"}
    assert flags == {
        "train": common | {"--repeats", "--parallel"},
        "eval": {"--help", "--data", "--checkpoint", "--split"},
        "energy-trace": common | {"--steps"},
        "check-gradients": common | {"--samples", "--step"},
        "step-bound": common - {"--seed", "--out"} | {"--hypergraph"},
        "gen-synthetic": {"--help", "--out", "--seed", "--communities", "--nodes-per-community", "--edges",
                          "--edge-size-min", "--edge-size-max", "--p-intra", "--feature-dim", "--noise-std"},
    }


def test_eval_needs_a_dataset_directory(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", str(tmp_path / "ck.json")])
    assert exc.value.code == 2
    assert "the following arguments are required: --data" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("step-bound", "prop_step", 2), ("step-bound", "seed", 3), ("step-bound", "lr", 0.5), ("step-bound", "hidden", 4),
    ("energy-trace", "epochs", 7), ("energy-trace", "resplit", True), ("check-gradients", "dropout", 0.5),
])
def test_set_rejects_a_key_the_subcommand_does_not_read(synthetic_dir, tmp_path, capsys, command, key, value):
    # the bound is taken at H0 = H1 = I and reads no depth, width or seed; nothing but train trains
    width = [] if command == "step-bound" else ["--set", "hidden=4"]
    rc = main([command, "--data", synthetic_dir, *width, "--set", f"{key}={json.dumps(value)}"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --set: {command} does not read config key {key!r}\n"
    # a config file, like a preset, may hold the whole run's keys
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    extra = ["--samples", "4"] if command == "check-gradients" else []
    assert main([command, "--data", synthetic_dir, *width, "--config", str(path), *extra]) == 0


def test_run_settings_default_to_the_published_values():
    assert ModelConfig() == ModelConfig("simple", 16, 64, 0.1, 1.0, 1.0)
    assert TrainConfig() == TrainConfig(0.01, 0.0, 200, 0, 100)
    assert cli.CONFIG_DEFAULTS == {
        "dataset": None, "variant": "simple", "prop_step": 16, "hidden": 64, "alpha": 0.1, "lambda0": 1.0,
        "lambda1": 1.0, "lr": 0.01, "dropout": 0.0, "epochs": 200, "seed": 0, "patience": 100, "resplit": False,
    }


def test_preset_loading(synthetic_dir, tmp_path):
    # presets carry published hyperparameters; override the heavy ones for speed
    out = str(tmp_path / "preset_run")
    rc = main(["train", "--data", synthetic_dir, "--preset", "cora_coauthorship_simple",
               "--out", out, "--set", "epochs=2", "--set", "prop_step=2",
               "--set", "hidden=8", "--set", "lambda0=1", "--set", "lambda1=1",
               "--set", "dropout=0.0"])
    assert rc == 0


def test_unknown_preset_lists_options(capsys):
    rc = main(["train", "--preset", "not_a_preset"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown preset" in err and "cora_coauthorship_simple" in err


def test_train_rejects_non_finite_features(synthetic_dir, tmp_path, capsys):
    path = os.path.join(synthetic_dir, "features.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    row = lines[3].split(",")
    row[2] = "nan"
    lines[3] = ",".join(row)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    out = tmp_path / "run"
    rc = main(["train", "--data", synthetic_dir, "--out", str(out), "--set", "epochs=3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "features.csv:4" in err and "column 3" in err
    assert not (out / "checkpoint.json").exists()


def test_missing_dataset_is_single_line_error(capsys):
    rc = main(["train", "--data", "/nonexistent/dir"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


@pytest.mark.parametrize("repeats", [["--repeats", "1"], ["--repeats", "2"], ["--repeats", "2", "--parallel"]])
@pytest.mark.parametrize("data", [[], ["--data", "/nonexistent/dir"], ["--data", "partial"]])
def test_train_without_a_dataset_makes_no_output_directory(tmp_path, monkeypatch, capsys, data, repeats):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "partial").mkdir()
    (tmp_path / "partial" / "hypergraph.txt").write_text("3 1\n0 1\n")
    out = tmp_path / "X"
    assert main(["train", "--out", str(out), *data, *repeats]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and ("no dataset given" in err or "missing dataset file" in err)
    assert not out.exists()


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("train", "eval", "energy-trace", "check-gradients", "step-bound", "gen-synthetic"):
        assert cmd in out
