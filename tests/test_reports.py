"""Byte pins of every file `analyze` and `rank` write.

The input reaches the reports' error branches: a NaN row, a family with
fewer than three finite points, a singular (collinear) family that gets no
ellipse row, an optimizer with a single usable family (so Box's M and the
Levene scores fail and no PERMANOVA/PERMDISP is written), a family that
one optimizer never ran (left out of the rank tables), and four optimizers.
"""
import hashlib
import math

import numpy as np

from vqebench.harness import RunRecord, write_records
from vqebench.harness.cli import main


def _records():
    rng = np.random.default_rng(2026)
    plan = {  # optimizer -> (family, finite points, scale)
        "bfgs": [("ideal", 6, 0.002), ("SN-256", 6, 0.01), ("DEPOL-5%", 6, 0.05), ("T2=70us", 6, 0.08)],
        "cobyla": [("ideal", 6, 0.003), ("SN-256", 5, 0.02), ("DEPOL-5%", 5, 0.04), ("TR-T1=50ns", 2, 0.1)],
        "nelder_mead": [("ideal", 4, 0.01), ("SN-256", 4, 0.03), ("DEPOL-5%", 4, 0.06), ("T2=70us", 4, 0.1)],
        "powell": [("ideal", 5, 0.001), ("SN-256", 2, 0.02), ("DEPOL-5%", 1, 0.05)],
    }
    records = []
    for opt, cells in plan.items():
        for fam, n, scale in cells:
            for seed in range(n):
                g, e = rng.normal(scale=scale, size=2)
                records.append(RunRecord(fam, opt, seed, -2.0 + g, -0.5 + e, -2.5 + g + e, 10, True, 1.0))
    nan = math.nan
    records.append(RunRecord("DEPOL-5%", "cobyla", 5, nan, nan, nan, 3, False, 1.0))
    records += [  # collinear, so every covariance of the family is singular
        RunRecord("T2=70us", "cobyla", s, -2.0 + 0.1 * s, -0.5 + 0.2 * s, -2.5 + 0.3 * s, 10, True, 1.0)
        for s in range(4)
    ]
    return records


REPORT_SHA256 = {
    "analyze/bfgs/box_m.json": "661548cb294281c8c817b02967f102b63eb12a568e248500158fdeeff0ec4de8",
    "analyze/bfgs/brown_forsythe.json": "b65f3375ec1100f9463cb4617e3f7eb307e930102fb458aa1b46d1ac243294ab",
    "analyze/bfgs/ellipses.csv": "08990ce2663666996373b6c7b5609a5dc0075b3573cfaade035b7fa8f2daffde",
    "analyze/bfgs/levene.json": "f6edcf9e02048ad387dfb490a63af39a946d02ecf30ae340491d87a4cce81d22",
    "analyze/bfgs/mardia.json": "49c54701805e8f5d78bfac5acebaa54b250356327aec7619e718b3647f921fa7",
    "analyze/bfgs/permanova.json": "03e510552f7f75d3588ced2238fa813ee434a3f789a0ec354f5cb9d0f10c950b",
    "analyze/bfgs/permanova_pairwise.csv": "365518bc5f4faeab908084137053117f053bb41b547ea569ddf8f0d4e1379e81",
    "analyze/bfgs/permdisp.json": "3de63f02cf0e6aac926f72a3f77c4ca274e5d82ff0e86d0896545457e6067d21",
    "analyze/bfgs/permdisp_pairwise.csv": "62cfc6e28e82acf93d52d31d50c7089256dfde19c77c8b0f2c3b9bf92fb507fd",
    "analyze/cobyla/box_m.json": "7bb26b034f023bfc40cd24ab5e13beb0415087582297d8e027270b10707a7041",
    "analyze/cobyla/brown_forsythe.json": "7e1d273d56ca9e0d4423bb82da117c4e0c7d8972270e940e953c6f2ffc58663e",
    "analyze/cobyla/ellipses.csv": "184fe2e6d9e02e5a543da86271acda76ea06abd8b7c0ab3bb05ed630c0b6c073",
    "analyze/cobyla/levene.json": "fc376b57ec4dcc25e673b7ea7fb6f88932f736724ee150e8165f93d570b55e6a",
    "analyze/cobyla/mardia.json": "389b6667247892d14aafd3e918ad43d6f8b9bfcb3c267215201034e5acc15d90",
    "analyze/cobyla/permanova.json": "af9b59077aabcb87a005a3156449550c63667ee847f7ac3e8e238d7f7b55f4c8",
    "analyze/cobyla/permanova_pairwise.csv": "b653527bf8d21c9b8d1f9be0f02bb8e6669461952061fb506245a66fbad6bb0d",
    "analyze/cobyla/permdisp.json": "8f4d32f0b9c8d815718511d48dfacac2103fe4d27a0d2c217a693572a7307828",
    "analyze/cobyla/permdisp_pairwise.csv": "e9410d3011085cf3c004c105bb3ee13ff6056c052cc17c095af4335f16dc46ef",
    "analyze/nelder_mead/box_m.json": "a23781f78772ef47f4feff21c11364b42856d6cc19e3111dfe931f9f9322ccc3",
    "analyze/nelder_mead/brown_forsythe.json": "a0523a4203a24ca6f28eda3af74209ba8f8d9e9decbd2d04148e01b28f42df7a",
    "analyze/nelder_mead/ellipses.csv": "1754e2b7f9fa67ed0d4aac3227f33ea08617879f6bb4a2400cbb6af0e4d7a2b6",
    "analyze/nelder_mead/levene.json": "a5fd11577cdaebb7213f0e8b6da4cc71cdd75318aea165093f02e23689d818c0",
    "analyze/nelder_mead/mardia.json": "78df88605031df5914e1223372217ee6eed9aea203b49bd1cd4ecf1f4909718e",
    "analyze/nelder_mead/permanova.json": "bab9ef621ee6e0c823816e1909b3f55fcfcb3a365885a40a6d125d069d3bc2cc",
    "analyze/nelder_mead/permanova_pairwise.csv": "49c1fc740b6cdba7f777a957fd2ebef8f757b7adab55d234e1159cdb03dbb9c6",
    "analyze/nelder_mead/permdisp.json": "f8c679ff0da6cb71b7584f42363d910c685ffe094ce30f64deca7baa6fb5f9a7",
    "analyze/nelder_mead/permdisp_pairwise.csv": "48baec7431342a7f780d596f2ed51d68ef399ecac8c8d2f135175b143a070eaf",
    "analyze/powell/box_m.json": "77d131d584c3acd0f0cf41d5fe17f9dae5234703f6498e15f909385fc7087f9c",
    "analyze/powell/brown_forsythe.json": "07f2b07abb7cd4e629bd59eceec518e78be350f814608c0fcd0f39ade7d071f5",
    "analyze/powell/ellipses.csv": "c594ef14de2f41d902e2b1d28955175e279c2771e4121738b88bd0c508c01432",
    "analyze/powell/levene.json": "07f2b07abb7cd4e629bd59eceec518e78be350f814608c0fcd0f39ade7d071f5",
    "analyze/powell/mardia.json": "3a5ddf79ab974e200e08f7fe3caa8b11a7a99c6b18ab770940cbb241ce4855be",
    "rank/cell_metrics.csv": "12ef05d5500165425b132b059d253f2dc50ae71d841311572180bf1d69780129",
    "rank/optimizer_metrics.csv": "53cf7556d9bc70ac8d83d5bb2c8ff01cf73a77e586d1a0bfd541769a2f6a25ca",
    "rank/rank_heatmap.csv": "03c42e60e9440b0f7ef2ad95372149b62cf7efb8b94e9dffaceec4408a6c3012",
    "rank/rank_summary.json": "f782e68af08767634fb0bad5ad8fa3bf164cc3c9085d4208effa23713475a8bd",
    "rank/wilcoxon_pairs.csv": "d4e2b3ca8ea6e70aaf6a8194ed1148f6225cca652782e1fa6b0842d18563943e",
}


def _digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_reports_pinned(tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    write_records(_records(), runs)
    out = tmp_path / "out"
    analyze = ["analyze", "--runs", str(runs), "--per-optimizer", str(out / "analyze")]
    assert main(analyze + ["--n-perm", "19", "--seed", "5"]) == 0
    rank = ["rank", "--runs", str(runs), "--reference", "-2.0", "-0.5", "--out", str(out / "rank")]
    assert main(rank) == 0
    assert _digests(out) == REPORT_SHA256
