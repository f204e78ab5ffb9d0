"""End-to-end command-line flows on temporary directories."""

import argparse
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import saco.align as al
import saco.coding as cd
from saco.cli import build_parser, main
from saco.selection import naive_greedy
from saco.tensorio import read_tensor, write_tensor


def run_ok(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out


def run_fail(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    return captured.err


# every option string of each subcommand, "--help" aside
OPTIONS = {
    "gen": "--kind --out --classes --points-per-class --train-per-class --test-per-class "
           "--pool-size --feature-dim --per-view --seed",
    "select": "--features --patches --out --config --set",
    "code": "--dict-features --dict-patches --selection --query-features --query-patches --out "
            "--config --set",
    "train": "--features --images --out --config --set",
    "predict": "--model --features --images --out",
    "pipeline": "--train-dir --test-dir --out --config --set",
    "bench-greedy": "--m --k --k-nn --lazy-only --seed",
    "plot-layout": "--features --patches --selection --out --title",
}
# the required options of each subcommand, with placeholder values
REQUIRED = {
    "gen": ["--kind", "blobs2d", "--out", "x"],
    "select": ["--features", "f", "--patches", "p", "--out", "o"],
    "code": ["--dict-features", "f", "--dict-patches", "p", "--query-features", "f",
             "--query-patches", "p", "--out", "o"],
    "train": ["--features", "f", "--images", "i", "--out", "o"],
    "predict": ["--model", "m", "--features", "f", "--images", "i", "--out", "o"],
    "pipeline": ["--train-dir", "t", "--test-dir", "t", "--out", "o"],
}


def test_each_subcommand_takes_exactly_its_options():
    # a new flag is a new option to test and document, so it shows up here
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(s for a in p._actions for s in a.option_strings
                        if s not in ("-h", "--help")) for name, p in sub.choices.items()}
    assert got == {name: sorted(options.split()) for name, options in OPTIONS.items()}
    assert sum(map(len, got.values())) == 47


def gen_blobs(capsys, out, seed=0, classes=3, points=40):
    return run_ok(capsys, [
        "gen", "--kind", "blobs2d", "--out", str(out), "--classes", str(classes),
        "--points-per-class", str(points), "--seed", str(seed),
    ])


class TestGen:
    def test_blobs_writes_dataset(self, tmp_path, capsys):
        out = gen_blobs(capsys, tmp_path / "d")
        assert "blobs2d" in out
        assert (tmp_path / "d" / "candidates_patches.csv").exists()
        assert (tmp_path / "d" / "candidates_features.skt").exists()
        assert (tmp_path / "d" / "manifest.txt").read_text().splitlines() == [
            "generator = blobs2d", "seed = 0",
        ]

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        gen_blobs(capsys, tmp_path / "a", seed=3)
        gen_blobs(capsys, tmp_path / "b", seed=3)
        for name in ("candidates_patches.csv", "candidates_features.skt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_changes_output(self, tmp_path, capsys):
        gen_blobs(capsys, tmp_path / "a", seed=0)
        gen_blobs(capsys, tmp_path / "b", seed=1)
        assert (tmp_path / "a" / "candidates_features.skt").read_bytes() != (
            tmp_path / "b" / "candidates_features.skt"
        ).read_bytes()

    @pytest.mark.parametrize("option", [
        ["gen", "--set", "seed=5"], ["gen", "--config", "run.cfg"],
        *[[command, "--seed", "5"] for command in ("select", "code", "train", "predict",
                                                   "pipeline")],
        ["predict", "--set", "seed=5"], ["predict", "--config", "run.cfg"],
    ])
    def test_config_options_are_usage_errors(self, tmp_path, capsys, monkeypatch, option):
        # each setting has one way in: gen reads no configuration, so it takes
        # --seed only; a command that reads one takes its seed from it; predict
        # takes none, since nothing in a configuration changes a prediction
        command, *flags = option
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED[command], *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_negative_seed_flag(self, tmp_path, capsys):
        err = run_fail(capsys, ["gen", "--kind", "blobs2d", "--out", str(tmp_path / "x"),
                                "--seed", "-1"])
        assert "InvalidConfigError: --seed must be a non-negative integer, got -1" in err
        assert not (tmp_path / "x").exists()

    def test_spatial_texture_split(self, tmp_path, capsys):
        run_ok(capsys, [
            "gen", "--kind", "spatial-texture", "--out", str(tmp_path / "st"),
            "--classes", "2", "--train-per-class", "2", "--test-per-class", "2",
            "--pool-size", "16", "--feature-dim", "8", "--seed", "0",
        ])
        for name in ("train_patches.csv", "train_features.skt",
                     "test_patches.csv", "test_features.skt"):
            assert (tmp_path / "st" / name).exists()

    @pytest.mark.parametrize("pool_size", ["0", "-4"])
    def test_spatial_texture_pool_size_is_a_count(self, tmp_path, capsys, pool_size):
        err = run_fail(capsys, ["gen", "--kind", "spatial-texture", "--out", str(tmp_path / "st"),
                                "--pool-size", pool_size])
        assert f"pool_size must be >= 1, got {pool_size}" in err
        assert not list((tmp_path / "st").iterdir())

    def test_viewpoints_pgm_files(self, tmp_path, capsys):
        run_ok(capsys, ["gen", "--kind", "viewpoints", "--out", str(tmp_path / "vp"),
                        "--per-view", "2", "--seed", "0"])
        index = (tmp_path / "vp" / "images.csv").read_text().splitlines()
        header_at = next(i for i, ln in enumerate(index) if not ln.startswith("#"))
        assert index[header_at] == "image_id,view,rotation_deg,file"
        rows = index[header_at + 1:]
        assert len(rows) == 4
        first = rows[0].split(",")
        img = al.read_pgm(tmp_path / "vp" / first[3])
        assert img.shape == (64, 64)


@pytest.fixture()
def blob_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    gen_blobs(capsys, out, seed=1)
    return out


def select_args(data, out, k=5, extra=()):
    return [
        "select", "--features", str(data / "candidates_features.skt"),
        "--patches", str(data / "candidates_patches.csv"), "--out", str(out),
        "--set", f"dict_size={k}", "--set", "k_nn=8", *extra,
    ]


class TestSelect:
    def test_writes_selection_csv(self, blob_dataset, tmp_path, capsys):
        out = tmp_path / "sel.csv"
        stdout = run_ok(capsys, select_args(blob_dataset, out, k=3))
        assert "selected 3 exemplars" in stdout
        lines = out.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert not any(ln.startswith("# algorithm") for ln in comments)
        # the header names the K that ran
        assert "# dict_size = 3" in comments and "# k_nn = 8" in comments
        data_rows = [ln for ln in lines if ln and not ln.startswith("#")][1:]
        assert len(data_rows) == 3
        for step, row in enumerate(data_rows):
            s, pid, gain, evals = row.split(",")
            assert int(s) == step
            float(gain)
            assert int(evals) > 0

    def test_deterministic_rerun(self, blob_dataset, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(capsys, select_args(blob_dataset, a))
        run_ok(capsys, select_args(blob_dataset, b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input(self, tmp_path, capsys):
        err = run_fail(capsys, select_args(tmp_path, tmp_path / "s.csv"))
        assert "missing input file" in err

    def test_bad_override_key(self, blob_dataset, tmp_path, capsys):
        err = run_fail(capsys, select_args(blob_dataset, tmp_path / "s.csv",
                                           extra=["--set", "warp=9"]))
        assert "unknown config key" in err

    @pytest.mark.parametrize("override, message", [
        ("=5", "empty key in '=5'"), ("justakey", "expected 'key = value', got 'justakey'")])
    def test_malformed_override_is_quoted(self, blob_dataset, tmp_path, capsys, override,
                                          message):
        out = tmp_path / "s.csv"
        err = run_fail(capsys, select_args(blob_dataset, out, extra=["--set", override]))
        assert message in err and not out.exists()

    def test_selection_key_is_rejected_naming_pipeline(self, blob_dataset, tmp_path, capsys):
        # select once ran greedy under a "# selection = random" header
        out = tmp_path / "s.csv"
        err = run_fail(capsys, select_args(blob_dataset, out, extra=["--set", "selection=random"]))
        assert err.startswith("error: InvalidConfigError: config key 'selection = random'")
        assert "'saco pipeline'" in err and not out.exists()
        run_ok(capsys, select_args(blob_dataset, out, extra=["--set", "selection=greedy"]))

    def test_config_file_applies(self, blob_dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k_nn = 8\nlambda_s = 0.5\ndict_size = 3\n")
        out = tmp_path / "s.csv"
        run_ok(capsys, [
            "select", "--features", str(blob_dataset / "candidates_features.skt"),
            "--patches", str(blob_dataset / "candidates_patches.csv"),
            "--out", str(out), "--config", str(cfg),
        ])
        assert any(ln.startswith("# lambda_s = 0.5") for ln in out.read_text().splitlines())


def code_args(data, sel, out, extra=()):
    return [
        "code",
        "--dict-features", str(data / "candidates_features.skt"),
        "--dict-patches", str(data / "candidates_patches.csv"),
        "--selection", str(sel),
        "--query-features", str(data / "candidates_features.skt"),
        "--query-patches", str(data / "candidates_patches.csv"),
        "--out", str(out), *extra,
    ]


class TestCode:
    def test_codes_against_selected_dictionary(self, blob_dataset, tmp_path, capsys):
        sel = tmp_path / "sel.csv"
        run_ok(capsys, select_args(blob_dataset, sel, k=2))
        out = tmp_path / "codes.skt"
        run_ok(capsys, code_args(blob_dataset, sel, out))
        codes = read_tensor(out)
        assert codes.shape == (120, 2)
        assert np.all(np.isfinite(codes))
        sidecar = (str(out) + ".config.txt")
        assert "coder = saco2" in open(sidecar).read()

    def test_sidecar_echoes_only_the_coder_keys(self, blob_dataset, tmp_path, capsys):
        # the seed and the selection keys do not change a code
        sel = tmp_path / "sel.csv"
        run_ok(capsys, select_args(blob_dataset, sel, k=2))
        outs = [tmp_path / f"codes{seed}.skt" for seed in (0, 3)]
        for seed, out in zip((0, 3), outs):
            run_ok(capsys, code_args(blob_dataset, sel, out, ["--set", f"seed={seed}"]))
        sidecars = [open(str(out) + ".config.txt", "rb").read() for out in outs]
        assert sidecars[0] == sidecars[1]
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert sidecars[0].decode().splitlines() == [
            "coder = saco2", "lambda1 = 0.1", "lambda2 = 1.0", "spatial_weighting = true",
            "weight_epsilon = 0.1", "weight_kernel = linear", "weight_scale = 0.5"]

    def test_warns_naming_the_unconverged_patches(self, blob_dataset, tmp_path, capsys,
                                                  monkeypatch):
        sel = tmp_path / "sel.csv"
        run_ok(capsys, select_args(blob_dataset, sel, k=2))
        monkeypatch.setattr(cd, "FISTA_MAX_ITER", 1)
        assert main(code_args(blob_dataset, sel, tmp_path / "codes.skt",
                              ["--set", "coder=iterative"])) == 0
        err = capsys.readouterr().err
        assert "warning: 120 of 120 patches stopped unconverged after 1 iterations" in err

    @pytest.mark.parametrize("extra", [(), ("--set", "coder=iterative")])
    def test_converged_codes_print_no_warning(self, blob_dataset, tmp_path, capsys, extra):
        sel = tmp_path / "sel.csv"
        run_ok(capsys, select_args(blob_dataset, sel, k=2))
        assert main(code_args(blob_dataset, sel, tmp_path / "codes.skt", extra)) == 0
        assert "warning" not in capsys.readouterr().err


# file text, the line an error must name, and what it must say
BAD_SELECTIONS = {
    "negative id": ("step,patch_id,gain,evaluations\n0,-1,0.5,3\n", 2, "patch id -1"),
    "id out of range": ("# k = 1\nstep,patch_id,gain,evaluations\n0,120,0.5,3\n", 3,
                        "patch id 120 outside [0, 120)"),
    "missing header": ("0,4,0.5,3\n", 1, "expected header"),
    "malformed row": ("step,patch_id,gain,evaluations\n0,x,0.5,3\n", 2, "malformed row"),
    "repeated id": ("step,patch_id,gain,evaluations\n0,5,0.5,3\n1,7,0.4,6\n2,5,0.3,9\n", 4,
                    "patch id 5 repeats line 2"),
}


@pytest.mark.parametrize("command", ["code", "plot-layout"])
@pytest.mark.parametrize("case", sorted(BAD_SELECTIONS))
def test_bad_selection_csv_names_file_and_line(blob_dataset, tmp_path, capsys, command, case):
    text, line, detail = BAD_SELECTIONS[case]
    sel = tmp_path / "sel.csv"
    sel.write_text(text)
    feats, patches = (str(blob_dataset / "candidates_features.skt"),
                      str(blob_dataset / "candidates_patches.csv"))
    if command == "code":
        argv = ["code", "--dict-features", feats, "--dict-patches", patches,
                "--query-features", feats, "--query-patches", patches]
    else:
        argv = ["plot-layout", "--features", feats, "--patches", patches]
    err = run_fail(capsys, argv + ["--selection", str(sel), "--out", str(tmp_path / "o")])
    assert f"{sel}:{line}: {detail}" in err


def test_zero_width_dictionary_names_its_shape(tmp_path, capsys):
    csv, skt = tmp_path / "p.csv", tmp_path / "f.skt"
    csv.write_text("id,image_id,label,x,y\n" + "".join(f"{i},0,0,0.5,0.5\n" for i in range(4)))
    write_tensor(skt, np.zeros((4, 0)))
    err = run_fail(capsys, ["code", "--dict-features", str(skt), "--dict-patches", str(csv),
                            "--query-features", str(skt), "--query-patches", str(csv),
                            "--out", str(tmp_path / "c.skt")])
    assert "got features (4, 0)" in err
    assert not (tmp_path / "c.skt").exists()


# patch row to corrupt, its new CSV text (None: a NaN feature row instead),
# and what the error must say after naming the file and the row's line
BAD_PATCH_FILES = {
    "non-numeric label": (0, "0,0,zero,0.5,0.5", "malformed row '0,0,zero,0.5,0.5'"),
    "missing field": (1, "1,0,0.5,0.5", "malformed row '1,0,0.5,0.5'"),
    "id past int64": (4, f"{2**63},0,0,0.5,0.5", f"malformed row '{2**63},0,0,0.5,0.5'"),
    "nan coordinate": (2, "2,0,0,nan,0.5", "coords: non-finite value nan at row 2, column 0"),
    "coordinate out of range": (3, "3,0,0,0.5,1.5", "patch row 3: coord (0.5, 1.5) outside"),
    # the pipeline's pool reader rejects the same row in the same words
    "negative image id": (2, "2,-1,0,0.5,0.5", "negative id, image id or label"),
    "nan feature": (5, None, "feature tensor: non-finite value nan at row 5, column 0"),
}


@pytest.mark.parametrize("command", ["select", "code", "plot-layout"])
@pytest.mark.parametrize("case", sorted(BAD_PATCH_FILES))
def test_bad_patch_file_names_file_and_line(blob_dataset, tmp_path, capsys, command, case):
    row, new_text, detail = BAD_PATCH_FILES[case]
    lines = (blob_dataset / "candidates_patches.csv").read_text().splitlines()
    first = lines.index("id,image_id,label,x,y") + 1
    feats = read_tensor(blob_dataset / "candidates_features.skt")
    if new_text is None:
        feats[row] = np.nan
    else:
        lines[first + row] = new_text
    csv, skt = tmp_path / "bad.csv", tmp_path / "bad.skt"
    csv.write_text("\n".join(lines) + "\n")
    write_tensor(skt, feats)
    if command == "select":
        argv = select_args(tmp_path, tmp_path / "s.csv")
        argv[argv.index("--features") + 1], argv[argv.index("--patches") + 1] = str(skt), str(csv)
    elif command == "code":
        argv = ["code", "--dict-features", str(skt), "--dict-patches", str(csv),
                "--query-features", str(skt), "--query-patches", str(csv),
                "--out", str(tmp_path / "c.skt")]
    else:
        argv = ["plot-layout", "--features", str(skt), "--patches", str(csv),
                "--out", str(tmp_path / "p.svg")]
    err = run_fail(capsys, argv)
    assert f"{csv}:{first + row + 1}: {detail}" in err


def pooled_problem(tmp_path, n=30):
    rng = np.random.default_rng(14)
    X = np.vstack([
        rng.normal((-2.0, 0.0), 0.2, size=(n, 2)),
        rng.normal((2.0, 0.0), 0.2, size=(n, 2)),
    ])
    labels = [0] * n + [1] * n
    feats = tmp_path / "pooled.skt"
    write_tensor(feats, X)
    images = tmp_path / "images.csv"
    images.write_text(
        "image_id,label\n" + "".join(f"{i},{lab}\n" for i, lab in enumerate(labels))
    )
    return feats, images


class TestTrainPredict:
    def test_roundtrip_reaches_full_accuracy(self, tmp_path, capsys):
        feats, images = pooled_problem(tmp_path)
        prefix = tmp_path / "model"
        run_ok(capsys, ["train", "--features", str(feats), "--images", str(images),
                        "--out", str(prefix),
                        "--set", "svm_reg=0.1", "--set", "svm_epochs=150"])
        assert read_tensor(str(prefix) + ".w.skt").shape == (2, 2)
        meta = (tmp_path / "model.meta.txt").read_text().splitlines()
        assert meta == ["n_classes = 2", "dim = 2", "svm_epochs = 150", "svm_reg = 0.1"]

        out = tmp_path / "pred.csv"
        stdout = run_ok(capsys, ["predict", "--model", str(prefix),
                                 "--features", str(feats), "--images", str(images),
                                 "--out", str(out)])
        assert "accuracy 1.0000" in stdout
        # no configuration echoed: none could change a prediction
        rows = out.read_text().splitlines()
        assert rows[0] == "image_id,true_label,pred_label,score_0,score_1"
        assert len(rows) == 61

    def test_row_count_mismatch(self, tmp_path, capsys):
        feats, images = pooled_problem(tmp_path)
        prefix = tmp_path / "model"
        run_ok(capsys, ["train", "--features", str(feats), "--images", str(images),
                        "--out", str(prefix)])
        images.write_text("image_id,label\n0,0\n1,1\n")
        err = run_fail(capsys, ["train", "--features", str(feats),
                                "--images", str(images), "--out", str(tmp_path / "m")])
        assert "feature rows" in err
        out = tmp_path / "pred.csv"
        err = run_fail(capsys, ["predict", "--model", str(prefix), "--features", str(feats),
                                "--images", str(images), "--out", str(out)])
        assert "InvalidInputError: 60 feature rows vs 2 labeled images" in err
        assert not out.exists()

    def test_predict_rejects_an_empty_image_list(self, tmp_path, capsys):
        feats, images = pooled_problem(tmp_path)
        prefix = tmp_path / "model"
        run_ok(capsys, ["train", "--features", str(feats), "--images", str(images),
                        "--out", str(prefix)])
        write_tensor(feats, np.zeros((0, 2)))
        images.write_text("image_id,label\n")
        out = tmp_path / "pred.csv"
        err = run_fail(capsys, ["predict", "--model", str(prefix), "--features", str(feats),
                                "--images", str(images), "--out", str(out)])
        assert f"InvalidInputError: {images}: no labeled images" in err
        assert not out.exists()

    def test_train_rejects_an_empty_image_list(self, tmp_path, capsys):
        feats, images = pooled_problem(tmp_path)
        write_tensor(feats, np.zeros((0, 2)))
        images.write_text("image_id,label\n")
        err = run_fail(capsys, ["train", "--features", str(feats), "--images", str(images),
                                "--out", str(tmp_path / "model")])
        assert f"InvalidInputError: {images}: no labeled images" in err
        assert not (tmp_path / "model.w.skt").exists()

    def test_train_rejects_bad_rows_naming_them(self, tmp_path, capsys):
        feats, images = pooled_problem(tmp_path)
        images.write_text("image_id,label\n" + "".join(f"{i},{i % 2}\n" for i in range(59))
                          + "59,-1\n")
        err = run_fail(capsys, ["train", "--features", str(feats), "--images", str(images),
                                "--out", str(tmp_path / "m")])
        assert f"InvalidInputError: {images}:61: negative label -1" in err
        feats, images = pooled_problem(tmp_path)
        X = read_tensor(feats)
        X[5, 0] = np.nan
        write_tensor(feats, X)
        err = run_fail(capsys, ["train", "--features", str(feats), "--images", str(images),
                                "--out", str(tmp_path / "m")])
        assert (f"InvalidInputError: {feats}: features: non-finite value nan at row 5, "
                f"column 0") in err
        assert not (tmp_path / "m.w.skt").exists()

    @pytest.mark.parametrize("rank0, detail", [
        (True, "features must have shape (*, *), got ()"),
        (False, "features: non-finite value nan at row 2, column 1"),
    ], ids=["0-d", "nan-row"])
    def test_train_names_the_features_file(self, tmp_path, capsys, rank0, detail):
        feats, images = pooled_problem(tmp_path)
        X = read_tensor(feats)
        X[2, 1] = np.nan
        write_tensor(feats, np.array(1.0) if rank0 else X)
        err = run_fail(capsys, ["train", "--features", str(feats), "--images", str(images),
                                "--out", str(tmp_path / "m")])
        assert f"InvalidInputError: {feats}: {detail}" in err
        assert not (tmp_path / "m.w.skt").exists()

    @pytest.mark.parametrize("part, value", [
        ("b", np.zeros(1)),                       # one bias against three classes
        ("w", np.full((3, 2), np.nan)),
    ])
    def test_predict_rejects_a_bad_model_naming_it(self, tmp_path, capsys, part, value):
        feats, images = pooled_problem(tmp_path)
        prefix = tmp_path / "model"
        write_tensor(str(prefix) + ".w.skt", np.ones((3, 2)))
        write_tensor(str(prefix) + ".b.skt", np.zeros(3))
        write_tensor(f"{prefix}.{part}.skt", value)
        out = tmp_path / "pred.csv"
        err = run_fail(capsys, ["predict", "--model", str(prefix), "--features", str(feats),
                                "--images", str(images), "--out", str(out)])
        assert f"InvalidInputError: model {prefix}: " in err
        assert not out.exists()

    def test_predict_rejects_an_empty_model_naming_it(self, tmp_path, capsys):
        # a model of no classes once failed in numpy's argmax of an empty sequence
        feats, images = pooled_problem(tmp_path)
        prefix = tmp_path / "model"
        write_tensor(str(prefix) + ".w.skt", np.zeros((0, 2)))
        write_tensor(str(prefix) + ".b.skt", np.zeros(0))
        out = tmp_path / "pred.csv"
        err = run_fail(capsys, ["predict", "--model", str(prefix), "--features", str(feats),
                                "--images", str(images), "--out", str(out)])
        assert (f"InvalidInputError: model {prefix}: model needs at least one class and one "
                f"weight column, got weights (0, 2)") in err
        assert not out.exists()

    def test_predict_rejects_a_wrong_feature_width_naming_both_files(self, tmp_path, capsys):
        feats, images = pooled_problem(tmp_path)
        prefix = tmp_path / "model"
        write_tensor(str(prefix) + ".w.skt", np.ones((2, 3)))
        write_tensor(str(prefix) + ".b.skt", np.zeros(2))
        out = tmp_path / "pred.csv"
        err = run_fail(capsys, ["predict", "--model", str(prefix), "--features", str(feats),
                                "--images", str(images), "--out", str(out)])
        assert (f"InvalidInputError: {feats}, model {prefix}: features must have shape (*, 3), "
                f"got (60, 2)") in err
        assert not out.exists()

    def test_predict_rejects_a_non_finite_feature_row_naming_it(self, tmp_path, capsys):
        feats, images = pooled_problem(tmp_path)
        prefix = tmp_path / "model"
        run_ok(capsys, ["train", "--features", str(feats), "--images", str(images),
                        "--out", str(prefix)])
        X = read_tensor(feats)
        X[2, 1] = np.nan
        write_tensor(feats, X)
        out = tmp_path / "pred.csv"
        err = run_fail(capsys, ["predict", "--model", str(prefix), "--features", str(feats),
                                "--images", str(images), "--out", str(out)])
        assert (f"InvalidInputError: {feats}, model {prefix}: features: non-finite value nan "
                f"at row 2") in err
        assert not out.exists()

    def test_bad_image_header(self, tmp_path, capsys):
        feats, images = pooled_problem(tmp_path)
        for text, line, detail in [
            ("id,label\n0,0\n", 1, "expected header 'image_id,label'"),
            ("image_id,label\n0,0\n1,1,0\n", 3, "malformed row '1,1,0'"),
            ("image_id,label\n0,0\n1,zero\n", 3, "malformed row '1,zero'"),
            ("image_id,label\n0,0\n-3,1\n", 3, "negative image id -3"),
        ]:
            images.write_text(text)
            err = run_fail(capsys, ["train", "--features", str(feats),
                                    "--images", str(images), "--out", str(tmp_path / "m")])
            assert f"{images}:{line}: {detail}" in err


class TestPipeline:
    PIPE_SETS = [
        "--set", "dict_size=6", "--set", "candidates_per_image=10",
        "--set", "patches_per_image=10", "--set", "k_nn=6",
        "--set", "svm_epochs=30", "--set", "svm_reg=0.01",
    ]

    @pytest.fixture()
    def texture_dirs(self, tmp_path, capsys):
        data = tmp_path / "st"
        run_ok(capsys, [
            "gen", "--kind", "spatial-texture", "--out", str(data),
            "--classes", "2", "--train-per-class", "3", "--test-per-class", "3",
            "--pool-size", "16", "--feature-dim", "8", "--seed", "0",
        ])
        return data

    def test_end_to_end_artifacts(self, texture_dirs, tmp_path, capsys):
        out = tmp_path / "run"
        stdout = run_ok(capsys, ["pipeline", "--train-dir", str(texture_dirs),
                                 "--test-dir", str(texture_dirs), "--out", str(out),
                                 "--set", "seed=3", *self.PIPE_SETS])
        assert "pipeline accuracy" in stdout
        for name in ("selection.csv", "dictionary_patches.csv",
                     "dictionary_features.skt", "predictions.csv", "report.txt"):
            assert (out / name).exists(), name
        for name in ("selection.csv", "dictionary_patches.csv", "predictions.csv"):
            assert "# seed = 3" in (out / name).read_text().splitlines(), name
        report = (out / "report.txt").read_text()
        assert "accuracy = " in report
        assert "confusion_rows_true_cols_pred =" in report

    def test_rerun_is_byte_identical(self, texture_dirs, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_ok(capsys, ["pipeline", "--train-dir", str(texture_dirs),
                            "--test-dir", str(texture_dirs), "--out", str(out),
                            *self.PIPE_SETS])
        for name in ("selection.csv", "dictionary_features.skt",
                     "predictions.csv", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_nan_config_value_fails_before_any_stage(self, texture_dirs, tmp_path, capsys):
        out = tmp_path / "run"
        err = run_fail(capsys, ["pipeline", "--train-dir", str(texture_dirs),
                                "--test-dir", str(texture_dirs), "--out", str(out),
                                *self.PIPE_SETS, "--set", "lambda1=nan"])
        assert "InvalidConfigError: lambda1 must be finite and >= 0, got nan" in err
        assert not out.exists()

    def test_negative_seed_fails_before_any_stage(self, texture_dirs, tmp_path, capsys):
        out = tmp_path / "run"
        err = run_fail(capsys, ["pipeline", "--train-dir", str(texture_dirs),
                                "--test-dir", str(texture_dirs), "--out", str(out),
                                *self.PIPE_SETS, "--set", "seed=-1"])
        assert "InvalidConfigError: seed must be a non-negative integer, got -1" in err
        assert not out.exists()

    @pytest.mark.parametrize("column", [0, 1, 2], ids=["id", "image_id", "label"])
    def test_negative_field_names_the_file_and_line(self, texture_dirs, tmp_path, capsys,
                                                    column):
        # every row of image 0 gets a negative id, image id or label; its first
        # row is line 4, after two comment lines and the header
        csv = texture_dirs / "train_patches.csv"
        lines = csv.read_text().splitlines(keepends=True)
        for ln in range(4, len(lines) + 1):
            fields = lines[ln - 1].split(",")
            if fields[1] == "0":
                fields[column] = "-1"
                lines[ln - 1] = ",".join(fields)
        csv.write_text("".join(lines))
        err = run_fail(capsys, ["pipeline", "--train-dir", str(texture_dirs),
                                "--test-dir", str(texture_dirs), "--out", str(tmp_path / "run"),
                                *self.PIPE_SETS])
        assert f"{csv}:4: negative id, image id or label" in err

    def test_missing_dir(self, tmp_path, capsys):
        err = run_fail(capsys, ["pipeline", "--train-dir", str(tmp_path / "none"),
                                "--test-dir", str(tmp_path / "none"),
                                "--out", str(tmp_path / "out")])
        assert "missing input file" in err


class TestBenchGreedy:
    def test_small_instance_agrees(self, capsys):
        stdout = run_ok(capsys, ["bench-greedy", "--m", "40", "--k", "4",
                                 "--k-nn", "6", "--seed", "0"])
        assert "identical selections" in stdout

    def test_divergence_names_the_step(self, capsys, monkeypatch):
        # lazy greedy returns naive greedy's selection at any weights, so a
        # naive run whose third pick differs stands in for a broken lazy greedy
        picks = []

        def diverging_naive(*args):
            res = naive_greedy(*args)
            picks.append(res.ids[2])
            res.ids[2] = (res.ids[2] + 1) % 40
            return res

        monkeypatch.setattr("saco.cli.naive_greedy", diverging_naive)
        err = run_fail(capsys, ["bench-greedy", "--m", "40", "--k", "4",
                                "--k-nn", "6", "--seed", "0"])
        lazy, naive = picks[0], (picks[0] + 1) % 40
        assert f"diverge at step 2: lazy chose {lazy}, naive chose {naive}" in err

    def test_lazy_only_skips_naive(self, capsys):
        stdout = run_ok(capsys, ["bench-greedy", "--m", "40", "--k", "4",
                                 "--k-nn", "6", "--seed", "0", "--lazy-only"])
        assert "naive" not in stdout


class TestPlotLayout:
    def test_svg_is_well_formed(self, blob_dataset, tmp_path, capsys):
        sel = tmp_path / "sel.csv"
        run_ok(capsys, select_args(blob_dataset, sel, k=3))
        out = tmp_path / "layout.svg"
        # markup characters in a title are written escaped
        for title in ("demo", "A & B", "x < y"):
            run_ok(capsys, [
                "plot-layout",
                "--features", str(blob_dataset / "candidates_features.skt"),
                "--patches", str(blob_dataset / "candidates_patches.csv"),
                "--selection", str(sel), "--out", str(out), "--title", title,
            ])
            root = ET.parse(out).getroot()
            assert root.tag.endswith("svg")
            assert len(list(root.iter())) > 10
            assert title in [el.text for el in root.iter() if el.tag.endswith("text")]

    def test_selection_rings_row_positions_not_the_id_column(self, tmp_path, capsys):
        # selection ids are row positions; this file's id column is 10-13
        patches, feats = tmp_path / "p.csv", tmp_path / "p.skt"
        patches.write_text("id,image_id,label,x,y\n10,0,0,0.1,0.1\n11,0,0,0.25,0.75\n"
                           "12,0,1,0.5,0.5\n13,0,1,0.9,0.9\n")
        write_tensor(feats, np.eye(4))
        sel = tmp_path / "sel.csv"
        sel.write_text("step,patch_id,gain,evaluations\n0,1,0.5,4\n")
        out = tmp_path / "layout.svg"
        run_ok(capsys, ["plot-layout", "--features", str(feats), "--patches", str(patches),
                        "--selection", str(sel), "--out", str(out)])
        rings = [el for el in ET.parse(out).getroot().iter()
                 if el.tag.endswith("circle") and el.get("fill") == "none"]
        dots = [el for el in ET.parse(out).getroot().iter()
                if el.tag.endswith("circle") and el.get("fill") != "none"]
        assert len(rings) == 1
        assert (rings[0].get("cx"), rings[0].get("cy")) == (dots[1].get("cx"), dots[1].get("cy"))
