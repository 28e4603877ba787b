"""eval's noisy columns on the benchmark's canonical input equal perfbench/reference.json.

perfbench checks ``psnr_noisy`` and ``ssim_noisy`` of its canonical eval call
bit for bit against the recorded values, and only a change to the benchmark
may re-record them. This rebuilds that input the way perfbench/harness.py does
(corpus image 0 of a 128^2 corpus at seed 0, noise from default_rng([0, 0]))
and reads only the recorded file, so a metric change that would fail the
benchmark fails here too.
"""

import json
from pathlib import Path

import numpy as np

from structkpn.corpus import synth_corpus
from structkpn.fileio import read_pgm
from structkpn.metrics import psnr, ssim_image
from structkpn.training import TrainConfig, add_noise

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_canonical_eval_noisy_columns_match_the_reference(tmp_path):
    row = json.loads(REFERENCE.read_text(encoding="utf-8"))["eval-default"]["canonical_rows"][0]
    clean = read_pgm(synth_corpus(tmp_path, 1, 128, 0)[0])
    noisy = add_noise(clean, TrainConfig().noise_model(), np.random.default_rng([0, 0]))
    assert (psnr(clean, noisy), ssim_image(clean, noisy)) == tuple(row[1:3])
