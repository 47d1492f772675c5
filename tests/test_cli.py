import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_metrics import oracle_ods_counts, oracle_region, oracle_skeletonize
from wavescan import cli, fileio
from wavescan.cli import _CONFIG_KEYS, build_parser, main, parse_config_text
from wavescan.errors import ConfigError
from wavescan.metrics import ODS_THRESHOLDS
from wavescan.pipeline import PipelineConfig, default_weights
from wavescan.scanorder import ScanKind
from wavescan.synth import SynthConfig, generate_sample
from wavescan.weights import WeightStore

SRC = Path(__file__).resolve().parents[1] / "src"


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_cli(*argv):
    """``python -m wavescan argv`` in a fresh interpreter; returns (exit code, stderr)."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-m", "wavescan", *argv], capture_output=True,
                          text=True, env=env, timeout=300)
    return proc.returncode, proc.stderr


def oracle_cldice(pred: np.ndarray, gt: np.ndarray) -> float:
    skel_p, skel_g = oracle_skeletonize(pred), oracle_skeletonize(gt)
    n_p, n_g = int(skel_p.sum()), int(skel_g.sum())
    if n_p == 0 or n_g == 0:
        return float(n_p == n_g)
    tprec = int((skel_p & gt).sum()) / n_p
    tsens = int((skel_g & pred).sum()) / n_g
    return 2.0 * tprec * tsens / (tprec + tsens) if tprec + tsens else 0.0


def oracle_eval_csv(pred_dir: Path, gt_dir: Path, threshold: float) -> bytes:
    """The CSV ``wavescan eval`` should write, recounted with the enumeration oracles."""
    def fmt(value):
        return f"{float(value):.6g}"

    rows, preds, gts = [], [], []
    for path in sorted(pred_dir.glob("*.pgm")):
        pred = fileio.load_pgm(path)
        gt = fileio.load_pgm(gt_dir / path.name) >= 128.0 / 255.0
        preds.append(pred)
        gts.append(gt)
        miou, f1, precision, recall = oracle_region(pred, gt, threshold)
        rows.append([path.name, fmt(threshold), fmt(miou), fmt(f1), fmt(precision),
                     fmt(recall), fmt(oracle_cldice(pred >= threshold, gt))])
    best_f1, best_t = -1.0, None
    for t, tp, fp, fn in zip(ODS_THRESHOLDS, *oracle_ods_counts(preds, gts)):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        if f1 > best_f1:
            best_f1, best_t = f1, t
    mean_cldice = np.mean([float(r[6]) for r in rows])
    rows.append(["ODS", fmt(best_t), "", fmt(best_f1), "", "", ""])
    rows.append(["MEAN_CLDICE", "", "", "", "", "", fmt(mean_cldice)])
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["image_id", "threshold", "miou", "f1", "precision", "recall", "cldice"])
    writer.writerows(rows)
    return text.getvalue().encode()


class TestConfigParsing:
    def test_defaults_when_empty(self):
        cfg = parse_config_text([])
        assert cfg == PipelineConfig()

    def test_full_config(self):
        cfg = parse_config_text([
            "channels = 8,16,32,64",
            "policy = GEEG",
            "# comment line",
            "assign = ll=z,lh=v,hl=h,hh=snake",
            "steps = 2",
            "probes = 16",
            "seed = 42",
            "gate = unit",
        ])
        assert cfg.channels == (8, 16, 32, 64)
        assert cfg.policy == "GEEG"
        assert cfg.assign.ll is ScanKind.ZORDER
        assert cfg.asgp.steps == 2
        assert cfg.asgp.probes == 16
        assert cfg.seed == 42
        assert cfg.gate_mode == "unit"

    def test_seed_override(self):
        cfg = parse_config_text(["seed = 1"], seed_override=9)
        assert cfg.seed == 9

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text(["no equals sign"])

    @pytest.mark.parametrize("line", ["probs = 7", "Gate_Mode = unit", "stride = 2"])
    def test_unknown_key_rejected_by_name(self, line):
        key = line.partition("=")[0].strip().lower()
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config_text(["seed = 1", line])

    @pytest.mark.parametrize("line", ["max_offset = nan", "max_offset = inf", "max_offset = -inf",
                                      "max_offset = far", "seed = -1", "channels = ",
                                      "channels = 16,,64,128", "steps = two", "probes = 1.5"])
    def test_bad_value_rejected_by_key(self, line):
        key = line.partition("=")[0].strip()
        with pytest.raises(ConfigError, match=key):
            parse_config_text([line])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(_CONFIG_KEYS),
        st.one_of(st.text(alphabet=st.characters(blacklist_characters="\n\r#",
                                                 blacklist_categories=("Cs",)), max_size=12),
                  st.integers(-3, 300).map(str),
                  st.floats(allow_nan=True, allow_infinity=True).map(repr),
                  st.lists(st.integers(-4, 200), min_size=1, max_size=5)
                  .map(lambda cs: ",".join(map(str, cs))),
                  st.sampled_from(["EEGG", "GGGG", "EGX", "unit", "probe",
                                   "ll=z,lh=v,hl=h,hh=snake", "ll=spiral"])),
    ), max_size=6))
    def test_fuzzed_config_parses_or_raises_value_error(self, items):
        lines = [f"{key} = {value}" for key, value in items]
        try:
            cfg = parse_config_text(lines)
        except ValueError:  # ConfigError is a ValueError
            return
        assert isinstance(cfg, PipelineConfig)


class TestSubcommands:
    def test_dwt_roundtrip_passes(self, capsys, tmp_path):
        out_csv = tmp_path / "dwt.csv"
        assert main(["dwt-roundtrip", "--size", "64", "--seed", "1",
                     "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "max reconstruction error" in out
        header, rows = read_csv(out_csv)
        assert rows[0][-1] == "1"

    @pytest.mark.parametrize("size", [3, 5, 9])
    def test_dwt_roundtrip_passes_at_odd_size(self, size, tmp_path):
        out_csv = tmp_path / "dwt.csv"
        assert main(["dwt-roundtrip", "--size", str(size), "--out", str(out_csv)]) == 0
        header, rows = read_csv(out_csv)
        assert dict(zip(header, rows[0]))["pass"] == "1"

    def test_scan_bench_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan-bench", "--sizes", "8,16", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["kind", "H", "W", "locality_cost", "build_time_ns",
                          "serialize_throughput_elems_per_s"]
        assert len(rows) == 12  # 6 kinds x 2 sizes
        raster8 = [r for r in rows if r[0] == "raster" and r[1] == "8"][0]
        assert float(raster8[3]) == pytest.approx(4.5)

    def test_synth_gen_writes_samples_and_manifest(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth-gen", "--seed", "3", "--out-dir", str(out),
                     "--size", "32", "--count", "2"]) == 0
        header, rows = read_csv(out / "manifest.csv")
        assert header[0] == "sample"
        assert len(rows) == 2
        assert (out / "image_000.pgm").exists()
        assert (out / "gt_001.pgm").exists()
        assert (out / "skeleton_000.pgm").exists()

    def test_probe_demo_outputs(self, tmp_path):
        out = tmp_path / "probes"
        assert main(["probe-demo", "--size", "32", "--seed", "0", "--probes", "9",
                     "--steps", "2", "--out-dir", str(out)]) == 0
        header, rows = read_csv(out / "probes.csv")
        assert header == ["t", "i", "x", "y"]
        assert len(rows) == 9 * 3  # initial coords plus two steps
        for name in ("m0.pgm", "m1.pgm", "m.pgm"):
            img = fileio.load_pgm(out / name)
            assert img.shape == (32, 32)

    def test_forward_runs_on_pgm(self, tmp_path):
        sample = generate_sample(SynthConfig(height=32, width=32, seed=1,
                                             orientation="bezier", width_max=3))
        img_path = tmp_path / "in.pgm"
        fileio.save_pgm(img_path, sample.image.data[0])
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("seed = 4\nsteps = 1\nprobes = 9\n")
        out_path = tmp_path / "mask.pgm"
        assert main(["forward", "--image", str(img_path), "--out", str(out_path),
                     "--config", str(cfg_path)]) == 0
        mask = fileio.load_pgm(out_path)
        assert mask.shape == (32, 32)

    def test_forward_unknown_config_key_is_one_error_line(self, tmp_path, capsys):
        img_path = tmp_path / "in.pgm"
        fileio.save_pgm(img_path, np.zeros((32, 32)))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("seed = 4\nprobs = 7\n")
        out_path = tmp_path / "mask.pgm"
        assert main(["forward", "--image", str(img_path), "--out", str(out_path),
                     "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key 'probs'")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_forward_nan_max_offset_is_one_error_line(self, tmp_path, capsys):
        img_path = tmp_path / "in.pgm"
        fileio.save_pgm(img_path, np.zeros((32, 32)))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("max_offset = nan\n")
        out_path = tmp_path / "mask.pgm"
        assert main(["forward", "--image", str(img_path), "--out", str(out_path),
                     "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: max_offset must be positive and finite")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_forward_with_weight_bundle(self, tmp_path):
        cfg = PipelineConfig(seed=7)
        weights = default_weights(cfg)
        wpath = tmp_path / "w.fgw"
        weights.save(wpath)
        sample = generate_sample(SynthConfig(height=32, width=32, seed=2,
                                             orientation="diagonal"))
        img_path = tmp_path / "in.pgm"
        fileio.save_pgm(img_path, sample.image.data[0])
        out_a = tmp_path / "a.pgm"
        out_b = tmp_path / "b.pgm"
        assert main(["forward", "--image", str(img_path), "--weights", str(wpath),
                     "--out", str(out_a)]) == 0
        assert main(["forward", "--image", str(img_path), "--weights", str(wpath),
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("fault, block", [("nan", "s1.align.b1"), ("missing", "stem.w")])
    def test_forward_bad_weight_bundle_is_one_error_line(self, tmp_path, fault, block):
        blocks = {name: arr.copy() for name, arr in default_weights(PipelineConfig()).items()}
        if fault == "nan":
            blocks[block].flat[0] = np.nan
        else:
            del blocks[block]
        wpath = tmp_path / "w.fgw"
        WeightStore(blocks).save(wpath)
        img_path = tmp_path / "in.pgm"
        fileio.save_pgm(img_path, np.random.default_rng(0).uniform(size=(64, 64)))
        out = tmp_path / "mask.pgm"
        code, err = run_cli("forward", "--image", str(img_path), "--weights", str(wpath),
                            "--out", str(out))
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(block) in err
        assert not out.exists()

    def test_forward_assign_flag_changes_output(self, tmp_path):
        sample = generate_sample(SynthConfig(height=32, width=32, seed=5,
                                             orientation="horizontal"))
        img_path = tmp_path / "in.pgm"
        fileio.save_pgm(img_path, sample.image.data[0])
        out_a = tmp_path / "a.pgm"
        out_b = tmp_path / "b.pgm"
        assert main(["forward", "--image", str(img_path), "--out", str(out_a),
                     "--seed", "0"]) == 0
        assert main(["forward", "--image", str(img_path), "--out", str(out_b),
                     "--seed", "0", "--assign", "lh=v,hl=h"]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_forward_missing_image_reports_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.pgm"
        code = main(["forward", "--image", str(missing), "--out", str(tmp_path / "o.pgm")])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_eval_perfect_predictions_reach_ods_one(self, tmp_path):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for i in range(3):
            sample = generate_sample(SynthConfig(height=32, width=32, seed=i,
                                                 orientation="bezier", width_max=3))
            fileio.save_pgm(pred_dir / f"{i}.pgm", sample.gt.astype(float))
            fileio.save_pgm(gt_dir / f"{i}.pgm", sample.gt.astype(float))
        out = tmp_path / "eval.csv"
        assert main(["eval", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["image_id", "threshold"]
        ods_row = [r for r in rows if r[0] == "ODS"][0]
        assert float(ods_row[3]) == 1.0
        cld_row = [r for r in rows if r[0] == "MEAN_CLDICE"][0]
        assert float(cld_row[6]) == 1.0

    @pytest.mark.parametrize("threshold", [0.5, 0.6, 128 / 255, 0.01, 0.99])
    def test_eval_csv_matches_enumeration_oracles(self, tmp_path, threshold):
        # Thick, noisy predictions as in the benchmark's eval pairs, one pair
        # whose prediction is its mask, and one whose prediction holds every
        # PGM code 0-255, so each code's hit and ODS bin is checked against
        # its float v / 255.  PGM levels 51, 102, 153 and 204 read back as
        # exactly 0.2, 0.4, 0.6 and 0.8, on the ODS thresholds.  0.6 and
        # 128 / 255 are codes' own values; 0.5, 0.01 and 0.99 fall between codes.
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        rng = np.random.default_rng(17)
        for i in range(5):
            gt = generate_sample(SynthConfig(height=48, width=40, curves=2, width_max=3,
                                             orientation="bezier", seed=30 + i)).gt
            pred = gt.astype(float)
            if i < 4:
                thick = np.pad(gt, 1)
                thick = thick[1:-1, 1:-1] | thick[:-2, 1:-1] | thick[2:, 1:-1] \
                    | thick[1:-1, :-2] | thick[1:-1, 2:]
                pred = np.clip(0.7 * thick + 0.15 + rng.normal(0.0, 0.2, gt.shape), 0.0, 1.0)
            fileio.save_pgm(pred_dir / f"pair{i}.pgm", pred)
            fileio.save_pgm(gt_dir / f"pair{i}.pgm", gt.astype(float))
        gt = generate_sample(SynthConfig(height=48, width=40, curves=2, width_max=3,
                                         orientation="bezier", seed=35)).gt
        every_code = rng.permutation(np.arange(gt.size) % 256).astype(np.uint8)
        fileio.save_pgm(pred_dir / "pair5.pgm", every_code.reshape(gt.shape))
        fileio.save_pgm(gt_dir / "pair5.pgm", gt.astype(float))
        out = tmp_path / "eval.csv"
        assert main(["eval", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--out", str(out), "--threshold", str(threshold)]) == 0
        want = oracle_eval_csv(pred_dir, gt_dir, threshold)
        assert out.read_bytes() == want
        assert want.splitlines()[5] == b"pair4.pgm,%g,1,1,1,1,1" % threshold

    def test_eval_unwritable_out_is_one_error_line(self, tmp_path, capsys):
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
            fileio.save_pgm(tmp_path / sub / "0.pgm", np.eye(32))
        out = tmp_path / "missing_dir" / "o.csv"
        assert main(["eval", "--pred-dir", str(tmp_path / "pred"),
                     "--gt-dir", str(tmp_path / "gt"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_eval_malformed_pgm_is_one_error_line(self, tmp_path, capsys):
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "0.pgm").write_bytes(b"P5\n4 4\n255\n")
        assert main(["eval", "--pred-dir", str(tmp_path / "pred"),
                     "--gt-dir", str(tmp_path / "gt"), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "pixel data" in err and str(tmp_path / "pred" / "0.pgm") in err

    def test_eval_empty_dirs_fail(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert main(["eval", "--pred-dir", str(tmp_path / "a"),
                     "--gt-dir", str(tmp_path / "b")]) == 1
        assert capsys.readouterr().err.startswith("error: no matching .pgm pairs")

    @pytest.mark.parametrize("orientation", ["horizontal", "vertical"])
    def test_mismatch_demo_aligned_wins(self, tmp_path, orientation, capsys):
        out = tmp_path / "mismatch.csv"
        code = main(["mismatch-demo", "--orientation", orientation,
                     "--size", "32", "--seed", "1", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["position", "row", "col", "aligned_response", "swapped_response"]
        aligned = np.mean([float(r[3]) for r in rows])
        swapped = np.mean([float(r[4]) for r in rows])
        assert aligned > swapped

    def test_bench_small(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--size", "32", "--runs", "10", "--out", str(out),
                     "--ops", "dwt,ssm_scan_parallel"]) == 0
        header, rows = read_csv(out)
        assert header[0] == "op"
        ops = [r[0] for r in rows]
        assert "dwt_haar" in ops
        assert "ssm_scan_parallel" in ops
        for row in rows:
            assert int(row[2]) >= 10

    def test_bench_ops_match_full_names_as_prefixes(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--size", "32", "--runs", "10", "--out", str(out),
                     "--ops", "dwt_haar,serialize_roundtrip"]) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["dwt_haar", "serialize_roundtrip"]

    # One malformed input per subcommand; {tmp} is the test's scratch directory.
    @pytest.mark.parametrize("argv, says", [
        (["dwt-roundtrip", "--size", "0", "--out", "{tmp}/d.csv"], "dimensions must be positive"),
        (["scan-bench", "--sizes", "8,x", "--out", "{tmp}/s.csv"], "--sizes"),
        (["probe-demo", "--probes", "0", "--out-dir", "{tmp}/p"], "at least one probe"),
        (["forward", "--image", "{tmp}/missing.pgm", "--out", "{tmp}/m.pgm"],
         "cannot read image"),
        (["eval", "--pred-dir", "{tmp}", "--gt-dir", "{tmp}", "--out", "{tmp}/e.csv"],
         "no matching .pgm pairs"),
        (["synth-gen", "--count", "0", "--out-dir", "{tmp}/g"], "--count"),
        (["mismatch-demo", "--size", "2", "--out", "{tmp}/x.csv"], "at least 4x4"),
        (["bench", "--size", "0", "--out", "{tmp}/b.csv"], "dimensions must be positive"),
        (["bench", "--size", "32", "--ops", "scan,nothing", "--out", "{tmp}/b.csv"],
         "no benchmark op starts with 'scan', 'nothing'"),
    ])
    def test_malformed_input_is_one_error_line(self, tmp_path, argv, says):
        code, err = run_cli(*(a.format(tmp=tmp_path) for a in argv))
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_main_parser_is_reused_and_build_parser_is_fresh(self, monkeypatch):
        assert cli._main_parser() is cli._main_parser()
        parser = build_parser()
        assert parser is not build_parser() and parser is not cli._main_parser()
        # main runs the command bound to the module name at call time.
        calls = []
        monkeypatch.setattr(cli, "cmd_dwt_roundtrip", lambda args: calls.append(args) or 7)
        assert main(["dwt-roundtrip", "--size", "4"]) == 7
        assert main(["dwt-roundtrip", "--size", "6"]) == 7
        assert [a.size for a in calls] == [4, 6]

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
