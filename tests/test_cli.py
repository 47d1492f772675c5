import argparse
import contextlib
import csv
import dataclasses
import io
import os
import subprocess
import sys
import tempfile
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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of inputs that malformed-input cases read: small PGMs and a config."""
    path = tmp_path_factory.mktemp("inputs")
    for side in (20, 32):
        fileio.save_pgm(path / f"{side}x{side}.pgm", np.zeros((side, side)))
    for name, line in (("stride2", "stem_stride = 2"), ("stride3", "stem_stride = 3"),
                       ("gate", "gate = bogus"), ("policy", "policy = EEX"),
                       ("channels", "channels = 16,32"), ("steps", "steps = x"),
                       ("no_equals", "seed")):
        (path / f"{name}.cfg").write_text(line + "\n")
    return path


def run_cli(*argv):
    """``python -m wavescan argv`` in a fresh interpreter; returns (exit code, stderr)."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-m", "wavescan", *argv], capture_output=True,
                          text=True, env=env, timeout=300)
    return proc.returncode, proc.stderr


def subcommand_names():
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return sorted(subparsers.choices)


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


def config_settings(cfg, prefix=""):
    """Every leaf field of a config dataclass by dotted path, nested dataclasses walked."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            out.update(config_settings(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


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
        assert cfg.steps == 2
        assert cfg.probes == 16
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

    @pytest.mark.parametrize("line", ["seed = -1", "channels = ", "channels = 16,,64,128",
                                      "steps = two", "probes = 1.5"])
    def test_bad_value_rejected_by_key(self, line):
        key = line.partition("=")[0].strip()
        with pytest.raises(ConfigError, match=key):
            parse_config_text([line])

    # One config line per setting, each to a value other than its default.
    SETTING_LINES = {
        "channels": "channels = 8,16,32,64",
        "stem_stride": "stem_stride = 2",
        "policy": "policy = GGEE",
        "assign.ll": "assign = ll=z",
        "assign.lh": "assign = lh=v",
        "assign.hl": "assign = hl=h",
        "assign.hh": "assign = hh=snake",
        "steps": "steps = 2",
        "probes": "probes = 16",
        "state_dim": "state_dim = 4",
        "gate_mode": "gate = unit",
        "seed": "seed = 3",
    }

    def test_every_setting_has_a_config_line(self):
        # A field that no config line can set is a knob without a caller.
        default = config_settings(PipelineConfig())
        assert sorted(default) == sorted(self.SETTING_LINES)
        for path, line in self.SETTING_LINES.items():
            got = config_settings(parse_config_text([line]))
            assert [k for k in default if got[k] != default[k]] == [path], line

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

    def test_forward_fixed_design_key_is_one_error_line(self, tmp_path, capsys):
        # The stem kernel and the offset bound are constants, so a config
        # that still sets either one is refused, not silently ignored.
        img_path = tmp_path / "in.pgm"
        fileio.save_pgm(img_path, np.zeros((32, 32)))
        cfg_path = tmp_path / "cfg.txt"
        out_path = tmp_path / "mask.pgm"
        for line in ("max_offset = 0.25", "stem_kernel = 3"):
            cfg_path.write_text(line + "\n")
            assert main(["forward", "--image", str(img_path), "--out", str(out_path),
                         "--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: unknown config key '{line.split()[0]}'")
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

    # One malformed input per subcommand; {tmp} is the test's scratch directory.
    @pytest.mark.parametrize("argv, says", [
        (["forward", "--image", "{inputs}/32x32.pgm", "--assign", "ll=bogus",
          "--out", "{tmp}/m.pgm"],
         "unknown scan kind 'bogus'"),
        (["forward", "--image", "{inputs}/32x32.pgm", "--assign", "lh",
          "--out", "{tmp}/m.pgm"],
         "bad assignment entry 'lh', want band=kind"),
        (["probe-demo", "--probes", "0", "--out-dir", "{tmp}/p"],
         "--probes must be at least 1, got 0"),
        (["forward", "--image", "{tmp}/missing.pgm", "--out", "{tmp}/m.pgm"],
         "cannot read image"),
        (["eval", "--pred-dir", "{tmp}", "--gt-dir", "{tmp}", "--out", "{tmp}/e.csv"],
         "no matching .pgm pairs"),
        (["synth-gen", "--count", "0", "--out-dir", "{tmp}/g"], "--count"),
        (["mismatch-demo", "--size", "2", "--out", "{tmp}/x.csv"],
         "--size must be at least 4, got 2"),
        (["forward", "--image", "{inputs}/32x32.pgm", "--config", "{tmp}/missing.cfg",
          "--out", "{tmp}/m.pgm"], "cannot read config"),
        (["forward", "--image", "{inputs}/32x32.pgm", "--weights", "{tmp}/missing.fgw",
          "--out", "{tmp}/m.pgm"], "cannot read weights"),
        (["forward", "--image", "{inputs}/32x32.pgm", "--assign", "xx=h",
          "--out", "{tmp}/m.pgm"],
         "bad assignment entry 'xx=h', want band=kind"),
        # Config files forward refuses ({inputs} holds them), named by key or value.
        (["forward", "--image", "{inputs}/32x32.pgm", "--config", "{inputs}/gate.cfg",
          "--out", "{tmp}/m.pgm"],
         "unknown gate mode 'bogus'"),
        (["forward", "--image", "{inputs}/32x32.pgm", "--config", "{inputs}/policy.cfg",
          "--out", "{tmp}/m.pgm"],
         "policy must be 4 letters from E/G, got 'EEX'"),
        (["forward", "--image", "{inputs}/32x32.pgm", "--config", "{inputs}/channels.cfg",
          "--out", "{tmp}/m.pgm"],
         "need 4 stage widths, got 2"),
        (["forward", "--image", "{inputs}/32x32.pgm", "--config", "{inputs}/stride3.cfg",
          "--out", "{tmp}/m.pgm"],
         "stem stride must be 1 or 2"),
        # Flags checked against their lower bound, named with the value given.
        (["probe-demo", "--steps", "-1", "--out-dir", "{tmp}/p"],
         "--steps must be at least 0, got -1"),
        (["probe-demo", "--probes", "-3", "--out-dir", "{tmp}/p"],
         "--probes must be at least 1, got -3"),
        # Config lines forward cannot parse.
        (["forward", "--image", "{inputs}/32x32.pgm", "--config", "{inputs}/no_equals.cfg",
          "--out", "{tmp}/m.pgm"],
         "bad config line 'seed', want key=value"),
        (["forward", "--image", "{inputs}/32x32.pgm", "--config", "{inputs}/steps.cfg",
          "--out", "{tmp}/m.pgm"],
         "config key 'steps' wants an integer, got 'x'"),
        (["synth-gen", "--size", "6", "--out-dir", "{tmp}/g"],
         "--size must be at least 7, got 6"),
        (["probe-demo", "--size", "5", "--out-dir", "{tmp}/p"],
         "--size must be at least 7, got 5"),
        (["synth-gen", "--size", "3", "--orientation", "vertical", "--out-dir", "{tmp}/g"],
         "--size must be at least 4, got 3"),
        (["synth-gen", "--texture", "inf", "--out-dir", "{tmp}/g"],
         "--texture must be finite, got inf"),
        (["synth-gen", "--contrast", "nan", "--out-dir", "{tmp}/g"],
         "--contrast must be finite, got nan"),
        # Images forward cannot run, at stem stride 1 and 2 ({inputs} holds them).
        (["forward", "--image", "{inputs}/20x20.pgm", "--out", "{tmp}/m.pgm"],
         "--image {inputs}/20x20.pgm: input must be at least 32x32, got 20x20"),
        (["forward", "--image", "{inputs}/32x32.pgm", "--config", "{inputs}/stride2.cfg",
          "--out", "{tmp}/m.pgm"],
         "--image {inputs}/32x32.pgm: input must be at least 64x64, got 32x32"),
        (["synth-gen", "--curves", "0", "--out-dir", "{tmp}/g"],
         "--curves must be at least 1, got 0"),
        (["synth-gen", "--width-min", "0", "--out-dir", "{tmp}/g"],
         "--width-min must be at least 1, got 0"),
        (["synth-gen", "--width-min", "3", "--width-max", "2", "--out-dir", "{tmp}/g"],
         "--width-max must be at least 3, got 2"),
        # Seeds, the eval threshold and the synth ranges, checked before any work.
        (["synth-gen", "--contrast", "1.5", "--out-dir", "{tmp}/g"],
         "--contrast must lie in (0, 1], got 1.5"),
        (["synth-gen", "--seed", "-1", "--out-dir", "{tmp}/g"],
         "--seed must be at least 0, got -1"),
        (["probe-demo", "--seed", "-1", "--out-dir", "{tmp}/p"],
         "--seed must be at least 0, got -1"),
        (["mismatch-demo", "--seed", "-1", "--out", "{tmp}/x.csv"],
         "--seed must be at least 0, got -1"),
        (["forward", "--image", "{inputs}/32x32.pgm", "--seed", "-1", "--out", "{tmp}/m.pgm"],
         "--seed must be at least 0, got -1"),
        (["eval", "--pred-dir", "{tmp}", "--gt-dir", "{tmp}", "--threshold", "1.5",
          "--out", "{tmp}/e.csv"], "--threshold must lie in (0, 1), got 1.5"),
        (["eval", "--pred-dir", "{tmp}", "--gt-dir", "{tmp}", "--threshold", "nan",
          "--out", "{tmp}/e.csv"], "--threshold must lie in (0, 1), got nan"),
        (["synth-gen", "--contrast", "0", "--out-dir", "{tmp}/g"],
         "--contrast must lie in (0, 1], got 0.0"),
        (["synth-gen", "--texture", "-1", "--out-dir", "{tmp}/g"],
         "--texture must be at least 0, got -1.0"),
    ])
    def test_malformed_input_is_one_error_line(self, tmp_path, inputs, argv, says):
        code, err = run_cli(*(a.format(tmp=tmp_path, inputs=inputs) for a in argv))
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says.format(inputs=inputs) in err
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_main_parser_is_reused_and_build_parser_is_fresh(self, monkeypatch):
        assert cli._main_parser() is cli._main_parser()
        parser = build_parser()
        assert parser is not build_parser() and parser is not cli._main_parser()
        # main runs the command bound to the module name at call time.
        calls = []
        monkeypatch.setattr(cli, "cmd_synth_gen", lambda args: calls.append(args) or 7)
        assert main(["synth-gen", "--size", "4"]) == 7
        assert main(["synth-gen", "--size", "6"]) == 7
        assert [a.size for a in calls] == [4, 6]

    @pytest.mark.parametrize("message", [
        "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64",
        "",
    ])
    def test_memory_error_is_one_error_line(self, monkeypatch, capsys, message):
        def exhausted(args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "cmd_synth_gen", exhausted)
        assert main(["synth-gen", "--size", "100000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv, says", [
        (["synth-gen", "--out-dir", "{tmp}/s"], "error: out of memory: Unable to allocate 4.00 EiB"),
        (["probe-demo", "--out-dir", "{tmp}/p"], "error: out of memory: Unable to allocate 4.00 EiB"),
        (["mismatch-demo", "--out", "{tmp}/m.csv"], "error: out of memory: Unable to allocate 4.00 EiB"),
    ])
    def test_size_numpy_refuses_is_one_error_line(self, tmp_path, capsys, argv, says):
        # A 2**31 side asks numpy for 4 EiB, which it refuses before allocating anything.
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--size", "2147483648"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(says) and err.count("\n") == 1

    def test_every_subcommand_has_its_command(self):
        # main looks cmd_<name> up by name, so a subparser without one would end in a KeyError.
        names = subcommand_names()
        commands = {name[len("cmd_"):] for name in vars(cli) if name.startswith("cmd_")}
        assert {name.replace("-", "_") for name in names} == commands

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# Small arguments for every subcommand; {out} is a fresh directory per run and
# {src} holds one synthetic sample (image.pgm, gt.pgm, skeleton.pgm).
_RERUN_ARGV = {
    "probe-demo": ["--size", "16", "--probes", "9", "--steps", "2", "--out-dir", "{out}"],
    "forward": ["--image", "{src}/image.pgm", "--out", "{out}/m.pgm"],
    "eval": ["--pred-dir", "{src}", "--gt-dir", "{src}", "--out", "{out}/e.csv"],
    "synth-gen": ["--size", "16", "--count", "2", "--out-dir", "{out}"],
    "mismatch-demo": ["--size", "32", "--out", "{out}/x.csv"],
}


@pytest.mark.parametrize("command", subcommand_names())
def test_every_subcommand_is_deterministic(tmp_path, capsys, command):
    src = tmp_path / "src"
    assert main(["synth-gen", "--size", "32", "--seed", "5", "--out-dir", str(src)]) == 0
    files = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        argv = [a.format(out=out, src=src) for a in _RERUN_ARGV[command]]
        assert main([command, *argv]) == 0, capsys.readouterr().err
        files.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))})
    assert files[0] and files[0] == files[1]


# Edge values for the numeric flags of synth-gen and probe-demo.  A value
# that passes validation keeps the run small (a canvas of at most 16x16, at
# most 3 samples, curves or steps), so no case allocates more than a few MB;
# the large integers are seeds, or widths that validation rejects, and a
# large texture only darkens the background.
_INTS = [-1, 0, 1, 3]
_FLOATS = [-1.0, 0.0, 1.0, 0.5, float("nan"), float("inf"), float("-inf"), 1e308]
_EDGE_FLAGS = {
    "synth-gen": {
        "seed": _INTS + [7, 2**63], "size": [-1, 0, 1, 5, 7, 9, 16], "count": _INTS,
        "curves": _INTS, "width-min": _INTS + [2**63], "width-max": _INTS + [5],
        "contrast": _FLOATS, "texture": _FLOATS,
    },
    "probe-demo": {
        "seed": _INTS + [7, 2**63], "size": [-1, 0, 1, 5, 7, 9, 16], "steps": _INTS,
        "probes": _INTS,
    },
}
# Each command's output flag, and the size flag every case sets before its draws.
_BASE_ARGV = {
    "synth-gen": ["--out-dir", "{tmp}", "--size", "16"],
    "probe-demo": ["--out-dir", "{tmp}", "--size", "16"],
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_numeric_flag_edge_values_end_in_one_error_line_at_most(data):
    command = data.draw(st.sampled_from(sorted(_EDGE_FLAGS)))
    flags = _EDGE_FLAGS[command]
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3,
                                unique=True))
    values = {flag: data.draw(st.sampled_from(flags[flag]), label=flag) for flag in chosen}
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command] + [a.format(tmp=tmp) for a in _BASE_ARGV[command]]
        argv += [f"--{flag}={value}" for flag, value in values.items()]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
    assert (code == 0) == (err == ""), (argv, code, err)
