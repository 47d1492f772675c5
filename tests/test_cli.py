import csv

import numpy as np
import pytest

from wavescan import fileio
from wavescan.cli import main, parse_config_text
from wavescan.errors import ConfigError
from wavescan.pipeline import PipelineConfig, default_weights
from wavescan.scanorder import ScanKind
from wavescan.synth import SynthConfig, generate_sample


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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


class TestSubcommands:
    def test_dwt_roundtrip_passes(self, capsys, tmp_path):
        out_csv = tmp_path / "dwt.csv"
        assert main(["dwt-roundtrip", "--size", "64", "--seed", "1",
                     "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "max reconstruction error" in out
        header, rows = read_csv(out_csv)
        assert rows[0][-1] == "1"

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
                     "--ops", "dwt,ssm_recurrence"]) == 0
        header, rows = read_csv(out)
        assert header[0] == "op"
        ops = [r[0] for r in rows]
        assert "dwt_haar" in ops
        assert any(o.startswith("ssm_recurrence[") for o in ops)
        for row in rows:
            assert int(row[2]) >= 10

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
