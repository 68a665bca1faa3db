"""Golden bytes: the SHA-256 of every CSV and SVG each subcommand writes
on small configurations.

The determinism test compares a re-run with a run of the same code, so a
writer that changed its bytes the same way every time would still pass
it; these digests pin the bytes themselves.  They were recorded before
the CSV and SVG writers were rewritten to work an array at a time, and
every output byte has to stay as it was.

The cases cover both CI methods, a one-run ensemble (whose std and band
columns print ``nan``; its figure is checked in ``test_cli``), delays
with and without a ring buffer, and a deviation report with flagged rows
and their notes.  The ``*_blocks`` cases were recorded before the
ensemble and stability statistics were reduced per block of recorded
rows; their rows span several blocks and end on a partial one.
"""

import csv
import hashlib
import json

import pytest

from rumorsim.cli import main
from rumorsim.config import from_dict
from rumorsim.integrator import block_rows

# the horizon is too short for the outbreaks to die out
pytestmark = pytest.mark.filterwarnings("ignore::rumorsim.ensemble.FinalSizeHorizonWarning")

_SMALL = {"integrator": {"horizon": 20.0}}

# name -> (subcommand, config blocks, --format)
CASES = {
    "simulate": ("simulate", {}, "both"),
    "ensemble_quantile": ("ensemble", {"ensemble": {"run_count": 20}}, "both"),
    "ensemble_normal": (
        "ensemble",
        {"ensemble": {"run_count": 20, "ci_method": "normal", "ci_level": 0.9}},
        "both",
    ),
    "ensemble_one_run": ("ensemble", {"ensemble": {"run_count": 1}}, "csv"),
    "stability": ("stability", {"model": {"tau": 2.0}, "stability": {"run_count": 20}}, "both"),
    "ablate": (
        "ablate",
        {"sweep": {"taus": [0.0, 5.0], "r0_values": [0.8, 2.0], "run_count": 10}},
        "both",
    ),
    "ensemble_blocks": ("ensemble", {"ensemble": {"run_count": 300}}, "both"),
    "ensemble_blocks_normal": (
        "ensemble",
        {"ensemble": {"run_count": 300, "ci_method": "normal"}},
        "csv",
    ),
    "stability_blocks": (
        "stability",
        {"integrator": {"horizon": 60.0}, "model": {"tau": 2.0}, "stability": {"run_count": 400}},
        "both",
    ),
}

GOLDEN = {
    "ablate": {
        "deviation.csv": "3e959b685a3def9574da6edf526e3c8bd82c6b5f4d176559b1bb07b660098fb6",
        "sweep.csv": "f2e1455089adf28d3a43c265a958cf2601ed0af2a85b0d5500044f1068dcefc2",
        "sweep_final.svg": "de80a70864775f6e2f469505d271a4c10aa1a7a5a0159d537140c8cdfa5ce026",
        "sweep_peak.svg": "26b07d2eb538c383de138b312e0bf76fa6c8613c639282f8f8a83ff9ab4bcf8f",
    },
    "compare": {
        "deviation.csv": "61647a1bfb475624dbfd6166770958775de2f700ea9b1295eab3eb542d7ff10e",
    },
    "ensemble_blocks": {
        "aggregate.csv": "6fc64b268651c3b856301ecf3eb6be37f0ebb070377ed6c94b65ccddc2362b38",
        "compartment_means.svg": "0c22ce74b1c5792455f72c0b62b3a19efd17d229f693bbe6988ecf554bfd9d0f",
        "metrics.csv": "f1c29043000211bd1dad8f98f48cc8e5abc520e50c125412cea5c357a9d2253d",
        "spreader_band.svg": "da162c4fdde419a320e3ad0dc32e5de6715d9e3a61165df539a55be2969ef711",
        "summary.csv": "8b9ac0525180deb5b81d40a92a6a10ce4704de363b09a562e016809de51f4602",
    },
    "ensemble_blocks_normal": {
        "aggregate.csv": "6fc64b268651c3b856301ecf3eb6be37f0ebb070377ed6c94b65ccddc2362b38",
        "metrics.csv": "f1c29043000211bd1dad8f98f48cc8e5abc520e50c125412cea5c357a9d2253d",
        "summary.csv": "b779173c59caa15d53c3c0f0e2e6bf9d6a560943ef36233b426a7ed7ef108a92",
    },
    "ensemble_normal": {
        "aggregate.csv": "eec7a66c28a8904ec43ced2ef83c7513dfc758a956a21d1516d9a7b9e345befc",
        "compartment_means.svg": "ba081dd2bcc4b10593dbfcc5f0701111100bebbbc52c60076aa95be4079b8c89",
        "metrics.csv": "2fbb946a4e52a166d3642a117706bab109f95009033185ae87ad0858ae4fd20b",
        "spreader_band.svg": "cd6a7876c4041fd1c01aea4ad82f63609e120adf9472a2c6b5168ec0df02e40c",
        "summary.csv": "e62dcda9c4f1078fd700ff0de66f4d337bc01ff0840c17bc5e33d5c3933ddd1f",
    },
    "ensemble_one_run": {
        "aggregate.csv": "f36996d66a9db6f1f8e944d34254fbd78ef2b46073c1bb713ded3be9600dd4af",
        "metrics.csv": "c682c204201580c7fde6c318c56beb3a6e615f3f6c588bd9e45ffb7aec5ce2af",
        "summary.csv": "51684a6454194263c064f68056a84a535bda9a245bb8eefd386e49d7bc56cc78",
    },
    "ensemble_quantile": {
        "aggregate.csv": "eec7a66c28a8904ec43ced2ef83c7513dfc758a956a21d1516d9a7b9e345befc",
        "compartment_means.svg": "ba081dd2bcc4b10593dbfcc5f0701111100bebbbc52c60076aa95be4079b8c89",
        "metrics.csv": "2fbb946a4e52a166d3642a117706bab109f95009033185ae87ad0858ae4fd20b",
        "spreader_band.svg": "cda1d52fc758342f816df8caebe845ecd303c24424a2c4b15a4374d6c4bb193e",
        "summary.csv": "4cc80b2c0d9606332b1160f06ed05714cc43e11f05a393a09dbd4e1664f27ef0",
    },
    "simulate": {
        "trajectory.csv": "2b3b17967ae3b9415d46a35c390b3bc0027fb770f95377533aeb3f30a9fa7430",
        "trajectory.svg": "d36aaaf80c5d40d6ad59d469edd596d5c9d071cae1d44ec4c0f443328100a42c",
    },
    "stability": {
        "decay.csv": "4cb212ba84c10b405722c68c635ab8c5e323fab2905f41bef2dcaedf47a80d98",
        "decay.svg": "eaac6ceffbafed51e1486e652b235e33e7b84ee9931e3bd1d42f954d8a1b7d9a",
        "threshold.csv": "a560740717d43bc3afb907c959ae1287aac21ef283716b77260f9ec997aed819",
    },
    "stability_blocks": {
        "decay.csv": "dcc608099baee014c04fd8df4fb1cbbac8c332f64721affce3f1a3841e183bc9",
        "decay.svg": "f35990f25e36d3afdca9d9303d7be9a1c9e4573c43cf00fbba7a1aaa7d3b847a",
        "threshold.csv": "a560740717d43bc3afb907c959ae1287aac21ef283716b77260f9ec997aed819",
    },
}


def _digests(out_dir) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.suffix in (".csv", ".svg")
    }


def produce(tmp_path) -> dict:
    """Run every case, then ``compare`` on the ablate result; return
    ``{case: {file name: sha256}}``."""
    found = {}
    for name, (command, blocks, formats) in CASES.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({**_SMALL, **blocks}))
        out = tmp_path / name
        assert main([command, "--config", str(cfg), "--out", str(out), "--format", formats]) == 0
        found[name] = _digests(out)
    out = tmp_path / "compare"
    assert main(["compare", "--result", str(tmp_path / "ablate" / "sweep.csv"), "--out", str(out)]) == 0
    found["compare"] = _digests(out)
    return found


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, produce(root)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_bytes_match_golden_digests(produced, case):
    assert produced[1][case] == GOLDEN[case]


def test_cases_exercise_nan_columns_and_flagged_notes(produced):
    root = produced[0]
    summary = (root / "ensemble_one_run" / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[2:5] == ["nan", "nan", "nan"]
    with open(root / "ablate" / "deviation.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    flagged = [row["note"] for row in rows if row["flag"] == "1"]
    assert flagged and all(note.endswith("advisory only") for note in flagged)


@pytest.mark.parametrize(
    "case, runs, components",
    [("ensemble_blocks", 300, 6), ("ensemble_blocks_normal", 300, 6), ("stability_blocks", 400, 2)],
)
def test_block_cases_end_on_a_partial_block(tmp_path, monkeypatch, case, runs, components):
    # the blocks the statistics actually take, read as the case runs
    seen = []

    def spy(cfg, values_per_row):
        seen.append((values_per_row, block_rows(cfg, values_per_row)))
        return seen[-1][1]

    command, blocks, _ = CASES[case]
    monkeypatch.setattr("rumorsim.integrator.block_rows", spy)
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({**_SMALL, **blocks}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--format", "csv"]) == 0
    integrator = from_dict({**_SMALL, **blocks}).integrator
    assert seen
    for values_per_row, block in seen:
        assert values_per_row == runs * components  # the stepper's rows, each of every run
        assert integrator.recorded_count > 2 * block
        assert integrator.recorded_count % block != 0
