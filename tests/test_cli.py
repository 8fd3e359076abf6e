import json

import numpy as np
import pytest

from refinedet_edge import cli
from refinedet_edge import config as C
from refinedet_edge import evaluate as ev
from refinedet_edge import postprocess as pp
from refinedet_edge.head import build_model
from refinedet_edge.profiler import ProfileReport
from refinedet_edge.weights import WeightBundle, load_wts, save_wts


def write_cfg(tmp_path, filename="model.cfg", **overrides):
    """A desk-size model: 64 px input keeps bench invocations quick."""
    fields = dict(name="t", backbone="resnet18", input_size=64, head_depth=128,
                  width_multiplier=0.0625, num_classes=4, seed=1)
    fields.update(overrides)
    spec = C.ModelSpec(**fields)
    path = tmp_path / filename
    C.write_config(path, spec)
    return path


# ---------------------------------------------------------------------------
# build


def test_build_prints_structure(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert cli.main(["build", str(path)]) == 0
    out = capsys.readouterr().out
    assert "model: t" in out
    assert "backbone: resnet18 (head depth 128, width multiplier 0.0625)" in out
    assert "input: 64x64" in out
    assert "anchors: 255" in out  # (8^2 + 4^2 + 2^2 + 1) * 3 ratios
    assert "parameters:" in out and "trainable" in out
    assert out.count("level ") == 4
    assert "stride 8" in out and "stride 64" in out


def test_build_saves_weights(tmp_path, capsys):
    path = write_cfg(tmp_path)
    wts = tmp_path / "t.wts"
    assert cli.main(["build", str(path), "--weights", str(wts)]) == 0
    out = capsys.readouterr().out
    assert f"weights: wrote {wts} (digest 0x" in out
    # the file holds build_model's weights, byte for byte
    spec = C.parse_file(path)
    bundle = build_model(spec).weights
    save_wts(tmp_path / "want.wts", bundle, spec.name)
    assert wts.read_bytes() == (tmp_path / "want.wts").read_bytes()
    assert f"(digest {bundle.digest():#018x})" in out


def test_build_verbose_notes(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert cli.main(["build", str(path), "--verbose"]) == 0
    assert "note:" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes


def test_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["build", str(tmp_path / "absent.cfg")]) == 2
    assert "file not found" in capsys.readouterr().err


def test_directory_config_exits_2(tmp_path, capsys):
    assert cli.main(["build", str(tmp_path)]) == 2
    assert f"error: {tmp_path}: Is a directory" in capsys.readouterr().err


def test_bad_config_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("name = t\n")  # format_version missing
    assert cli.main(["build", str(path)]) == 3
    assert "format_version" in capsys.readouterr().err


def test_non_finite_config_exits_3(tmp_path, capsys):
    path = tmp_path / "inf.cfg"
    path.write_text("format_version = 1\nname = t\nwidth_multiplier = inf\n")
    assert cli.main(["build", str(path)]) == 3
    assert "width_multiplier must be finite" in capsys.readouterr().err


def test_negative_seed_config_exits_3(tmp_path, capsys):
    path = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("seed = 1", "seed = -3"))
    assert cli.main(["bench", str(path), "--runs", "3", "--warmup", "1"]) == 3
    assert f"{path}: seed must be >= 0, got -3" in capsys.readouterr().err


def test_strict_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "odd.cfg"
    path.write_text("format_version = 1\nname = t\nmystery = 1\n")
    assert cli.main(["build", str(path), "--strict"]) == 3
    assert "mystery" in capsys.readouterr().err
    # lenient: same file builds
    assert cli.main(["build", str(path)]) == 0


def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_no_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# bench / report


def test_bench_text_json_and_report_round_trip(tmp_path, capsys):
    path = write_cfg(tmp_path)
    json_path = tmp_path / "report.json"
    rc = cli.main(["bench", str(path), "--runs", "4", "--warmup", "1",
                   "--json", str(json_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "model: t" in out
    assert "fps:" in out
    assert "backbone" in out and "nms" in out

    report = ProfileReport.from_json(json_path.read_text())
    assert report.model == "t"
    assert report.runs == 4 and report.warmup == 1

    assert cli.main(["report", str(json_path)]) == 0
    assert "model: t" in capsys.readouterr().out
    assert cli.main(["report", str(json_path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("stage,mean_ms,std_ms,samples")


def test_bench_csv_and_strip_timings(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert cli.main(["bench", str(path), "--runs", "3", "--warmup", "1",
                     "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("stage,mean_ms,std_ms,samples")
    assert cli.main(["bench", str(path), "--runs", "3", "--warmup", "1",
                     "--strip-timings"]) == 0
    assert "fps: -" in capsys.readouterr().out


def test_bench_with_saved_weights(tmp_path, capsys):
    path = write_cfg(tmp_path)
    wts = tmp_path / "t.wts"
    assert cli.main(["build", str(path), "--weights", str(wts)]) == 0
    capsys.readouterr()
    assert cli.main(["bench", str(path), "--runs", "3", "--warmup", "1",
                     "--weights", str(wts)]) == 0
    assert "fps:" in capsys.readouterr().out


def test_bench_rejects_mismatched_weights(tmp_path, capsys):
    path_t = write_cfg(tmp_path)
    wts = tmp_path / "t.wts"
    cli.main(["build", str(path_t), "--weights", str(wts)])
    capsys.readouterr()
    path_u = write_cfg(tmp_path, filename="u.cfg", name="u")
    assert cli.main(["bench", str(path_u), "--runs", "3", "--warmup", "1",
                     "--weights", str(wts)]) == 3
    err = capsys.readouterr().err
    assert "weights file is for model 't', config names 'u'" in err


def test_bench_rejects_corrupt_weights(tmp_path, capsys):
    path = write_cfg(tmp_path)
    wts = tmp_path / "t.wts"
    assert cli.main(["build", str(path), "--weights", str(wts)]) == 0
    wts.write_bytes(wts.read_bytes() + b"junk")
    capsys.readouterr()
    assert cli.main(["bench", str(path), "--runs", "3", "--warmup", "1",
                     "--weights", str(wts)]) == 3
    err = capsys.readouterr().err
    assert f"error: {wts}: header line 'data " in err and "after the header" in err


def test_bench_rejects_nan_weights(tmp_path, capsys):
    path = write_cfg(tmp_path)
    wts = tmp_path / "t.wts"
    assert cli.main(["build", str(path), "--weights", str(wts)]) == 0
    bundle, name = load_wts(wts)
    tensors = {n: a.copy() for n, a in bundle.items()}
    first = next(iter(tensors))
    tensors[first].flat[0] = np.nan
    save_wts(wts, WeightBundle(tensors.items()), name)
    capsys.readouterr()
    assert cli.main(["bench", str(path), "--runs", "3", "--warmup", "1",
                     "--weights", str(wts)]) == 3
    assert "objectness logits have" in capsys.readouterr().err


@pytest.mark.parametrize("dims", ["4611686018427387905 4", str(2**64)], ids=["wraps-int64", "2**64"])
def test_bench_rejects_overflowing_dims(tmp_path, capsys, dims):
    wts = tmp_path / "huge.wts"
    save_wts(wts, WeightBundle([("t", np.zeros(4, np.float32))]), "t")
    wts.write_bytes(wts.read_bytes().replace(b"tensor t 4\n", f"tensor t {dims}\n".encode(), 1))
    assert cli.main(["bench", str(write_cfg(tmp_path)), "--runs", "3", "--warmup", "1",
                     "--weights", str(wts)]) == 3
    assert f"error: {wts}: manifest declares" in capsys.readouterr().err


def test_report_rejects_garbage_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert cli.main(["report", str(path)]) == 3
    assert "not a profile report" in capsys.readouterr().err


def saved_report(tmp_path, capsys):
    """A real report as a dict: `bench --json` on the desk-size model."""
    path = tmp_path / "report.json"
    assert cli.main(["bench", str(write_cfg(tmp_path)), "--runs", "3", "--warmup", "1",
                     "--json", str(path)]) == 0
    capsys.readouterr()
    return json.loads(path.read_text())


@pytest.mark.parametrize("edit, fragment", [
    (lambda r: r.update(stages=[s for s in r["stages"] if s["name"] != "total"]), "no 'total' stage"),
    (lambda r: r["stages"][0].update(mean_ms=None), "'mean_ms' is NoneType, not float"),
    (lambda r: r.update(runs="3"), "'runs' is str, not int"),
    (lambda r: r.update(environment=[1]), "'environment' is list, not dict"),
    (lambda r: r.update(sum_check_ok=1), "'sum_check_ok' is int, not bool"),
    (lambda r: r.update(warmup=True), "'warmup' is bool, not int"),
    (lambda r: r.update(notes=[1]), "'notes' holds a non-string"),
    (lambda r: r["stages"].append("total"), "a StageStat is str"),
], ids=["no-total", "null-mean", "string-runs", "list-environment", "int-flag", "bool-warmup",
        "int-note", "string-stage"])
def test_report_rejects_mistyped_fields(tmp_path, capsys, edit, fragment):
    report = saved_report(tmp_path, capsys)
    edit(report)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(report))
    assert cli.main(["report", str(path)]) == 3
    assert f"not a profile report: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize("edit, fragment", [
    (lambda r: r.update(runs=2, warmup=5), "runs 2 with warmup 5; needs runs > warmup >= 0"),
    (lambda r: r.update(warmup=-1), "runs 3 with warmup -1"),
    (lambda r: r["stages"][0].update(samples=5), "has 5 samples"),
    (lambda r: r["stages"][0].update(mean_ms=-1.0), "mean_ms -1.0"),
    (lambda r: r["stages"][0].update(std_ms=float("inf")), "std_ms inf"),
    (lambda r: r["stages"][-1].update(mean_ms=float("nan")), "'total' has 2 samples, mean_ms nan"),
    (lambda r: r["stages"][-1].update(mean_ms=0.0), "total mean_ms 0.0"),
    (lambda r: r.update(fps=-5.0), "fps -5.0"),
    (lambda r: r.update(fps=float("inf")), "fps inf"),
], ids=["runs-below-warmup", "negative-warmup", "samples-mismatch", "negative-mean", "infinite-std",
        "nan-total", "zero-total", "negative-fps", "infinite-fps"])
def test_report_rejects_impossible_values(tmp_path, capsys, edit, fragment):
    report = saved_report(tmp_path, capsys)
    edit(report)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(report))
    assert cli.main(["report", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: not a profile report: ") and fragment in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_two_triples(tmp_path, capsys):
    path = write_cfg(tmp_path)
    rc = cli.main(["sweep", str(path), "--runs", "3", "--warmup", "1",
                   "--nms", "50,25,0.2;400,200,0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "model: t" in out
    assert "(50,25,0.2)" in out and "(400,200,0.1)" in out


def test_sweep_rejects_malformed_triples(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert cli.main(["sweep", str(path), "--nms", "50,25"]) == 3
    assert "bad NMS triple" in capsys.readouterr().err
    assert cli.main(["sweep", str(path), "--nms", ";"]) == 3
    assert "no NMS triples" in capsys.readouterr().err


def test_parse_triples_values():
    triples = cli._parse_triples("400,200,0.1; 1000 , 500 , 0.01")
    assert triples == [pp.NmsParams(400, 200, 0.1), pp.NmsParams(1000, 500, 0.01)]
    with pytest.raises(ValueError, match="bad NMS triple"):
        cli._parse_triples("400,xx,0.1")


# ---------------------------------------------------------------------------
# eval


def eval_files(tmp_path):
    boxes = np.array([[10.0, 10.0, 30.0, 30.0], [50.0, 50.0, 70.0, 80.0]],
                     dtype=np.float32)
    dets = {"img-1": pp.DetectionSet(boxes=boxes,
                                     scores=np.array([0.9, 0.8], dtype=np.float32),
                                     class_ids=np.array([1, 2], dtype=np.int64))}
    gts = {"img-1": ev.GroundTruth(boxes=boxes.copy(),
                                   class_ids=np.array([1, 2], dtype=np.int64),
                                   ignore=np.array([False, False]))}
    dpath = tmp_path / "dets.csv"
    gpath = tmp_path / "gt.csv"
    pp.write_detections(dpath, dets)
    ev.write_ground_truth(gpath, gts)
    return dpath, gpath


def test_eval_text_output(tmp_path, capsys):
    dpath, gpath = eval_files(tmp_path)
    assert cli.main(["eval", str(dpath), str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "AP@0.50: 1.0000" in out
    assert "AP@0.95: 1.0000" in out
    assert "mAP@[0.50:0.95]: 1.0000" in out


@pytest.mark.parametrize("which", [0, 1], ids=["detections", "ground-truth"])
def test_eval_reads_past_a_byte_order_mark(tmp_path, capsys, which):
    paths = eval_files(tmp_path)
    assert cli.main(["eval", *map(str, paths)]) == 0
    plain = capsys.readouterr().out
    assert "mAP@[0.50:0.95]: 1.0000" in plain
    paths[which].write_bytes(b"\xef\xbb\xbf" + paths[which].read_bytes())
    assert cli.main(["eval", *map(str, paths)]) == 0
    assert capsys.readouterr().out == plain


def test_eval_csv_output(tmp_path, capsys):
    dpath, gpath = eval_files(tmp_path)
    assert cli.main(["eval", str(dpath), str(gpath), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "threshold,ap"
    assert len(lines) == 12  # 10 thresholds + header + mean
    assert lines[1].startswith("0.50,")
    assert lines[-1] == "mean,1.0"


def test_eval_missing_file_exits_2(tmp_path, capsys):
    dpath, gpath = eval_files(tmp_path)
    assert cli.main(["eval", str(tmp_path / "nope.csv"), str(gpath)]) == 2


def test_eval_directories_exit_2(tmp_path, capsys):
    assert cli.main(["eval", str(tmp_path), str(tmp_path)]) == 2
    assert f"error: {tmp_path}: Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("which, record", [
    ("detections", "img-1,1,10,10,20,20,nan"),
    ("ground truth", "img-1,1,10,10,-20,20"),
    ("ground truth", "img-1,1,10,10,20,20,2"),
], ids=["nan-score", "negative-width", "flag-2"])
def test_eval_bad_record_exits_3(tmp_path, capsys, which, record):
    dpath, gpath = eval_files(tmp_path)
    path = dpath if which == "detections" else gpath
    path.write_text(path.read_text() + record + "\n")
    assert cli.main(["eval", str(dpath), str(gpath)]) == 3
    assert f"{path}:3: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fixtures


def test_fixtures_writes_50_configs(tmp_path, capsys):
    out_dir = tmp_path / "fx"
    assert cli.main(["fixtures", str(out_dir)]) == 0
    assert f"wrote 50 configs to {out_dir}" in capsys.readouterr().out
    files = sorted(out_dir.iterdir())
    assert len(files) == 50
    assert files[0].name.endswith("exp01.cfg") or files[0].name == "exp01.cfg"
    spec = C.parse_file(files[0])
    assert spec.width_multiplier == C.FIXTURE_WIDTH_MULTIPLIER


def test_fixtures_into_a_file_exits_2(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    assert cli.main(["fixtures", str(path)]) == 2
    assert f"error: {path}: File exists" in capsys.readouterr().err
