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
    "analyze/bfgs/box_m.json": "8867a88732d1a9a23ec141bf58cf7eb4366425a92ce81b4f63c9956594edcf4f",
    "analyze/bfgs/brown_forsythe.json": "4f2a9f517fa27a25332249e5ef959b56a2899fd7ab788e036af2bc334b133867",
    "analyze/bfgs/ellipses.csv": "08990ce2663666996373b6c7b5609a5dc0075b3573cfaade035b7fa8f2daffde",
    "analyze/bfgs/levene.json": "0aa7b4c668acefcd52c5e75d046aa25a5879c7f9dc630c128b438f3dfd3f508b",
    "analyze/bfgs/mardia.json": "ac8ab2f4b2f16c694f9d0cbc2ce5262cbd73b217f99e86fd2ea86000694c1022",
    "analyze/bfgs/permanova.json": "03e510552f7f75d3588ced2238fa813ee434a3f789a0ec354f5cb9d0f10c950b",
    "analyze/bfgs/permanova_pairwise.csv": "365518bc5f4faeab908084137053117f053bb41b547ea569ddf8f0d4e1379e81",
    "analyze/bfgs/permdisp.json": "3de63f02cf0e6aac926f72a3f77c4ca274e5d82ff0e86d0896545457e6067d21",
    "analyze/bfgs/permdisp_pairwise.csv": "62cfc6e28e82acf93d52d31d50c7089256dfde19c77c8b0f2c3b9bf92fb507fd",
    "analyze/cobyla/box_m.json": "7bb26b034f023bfc40cd24ab5e13beb0415087582297d8e027270b10707a7041",
    "analyze/cobyla/brown_forsythe.json": "e3d3defb5f57e849900a4a4ad64553528a58115e81ffee2bc1eb13fd7172a74d",
    "analyze/cobyla/ellipses.csv": "184fe2e6d9e02e5a543da86271acda76ea06abd8b7c0ab3bb05ed630c0b6c073",
    "analyze/cobyla/levene.json": "aead5d2fd9143eaa0a047adc91d5122cd3468fa40e7151a9b66b5d4fc2648093",
    "analyze/cobyla/mardia.json": "fbf3266d9cc7bd33866c2bcedcc004b34ca0dfa217408468280d15a9f0c89fbc",
    "analyze/cobyla/permanova.json": "af9b59077aabcb87a005a3156449550c63667ee847f7ac3e8e238d7f7b55f4c8",
    "analyze/cobyla/permanova_pairwise.csv": "b653527bf8d21c9b8d1f9be0f02bb8e6669461952061fb506245a66fbad6bb0d",
    "analyze/cobyla/permdisp.json": "8f4d32f0b9c8d815718511d48dfacac2103fe4d27a0d2c217a693572a7307828",
    "analyze/cobyla/permdisp_pairwise.csv": "e9410d3011085cf3c004c105bb3ee13ff6056c052cc17c095af4335f16dc46ef",
    "analyze/nelder_mead/box_m.json": "c0be36c78c369988a9c4afcf1d64206dc256ba2cdbb091c2f2512a1954f9d09c",
    "analyze/nelder_mead/brown_forsythe.json": "75502f5e89bdffffd42eb229a7a7817fe017d64f377044d1191468ad10acf2ec",
    "analyze/nelder_mead/ellipses.csv": "1754e2b7f9fa67ed0d4aac3227f33ea08617879f6bb4a2400cbb6af0e4d7a2b6",
    "analyze/nelder_mead/levene.json": "f3993dc621656a58fe1f40f22592a2173c0dda294d631595a769c86982f01cbc",
    "analyze/nelder_mead/mardia.json": "a6d63340c9865a199cf7b3afcc672283bb4f73680d6ddbc34662f316c0f35833",
    "analyze/nelder_mead/permanova.json": "bab9ef621ee6e0c823816e1909b3f55fcfcb3a365885a40a6d125d069d3bc2cc",
    "analyze/nelder_mead/permanova_pairwise.csv": "49c1fc740b6cdba7f777a957fd2ebef8f757b7adab55d234e1159cdb03dbb9c6",
    "analyze/nelder_mead/permdisp.json": "f8c679ff0da6cb71b7584f42363d910c685ffe094ce30f64deca7baa6fb5f9a7",
    "analyze/nelder_mead/permdisp_pairwise.csv": "48baec7431342a7f780d596f2ed51d68ef399ecac8c8d2f135175b143a070eaf",
    "analyze/powell/box_m.json": "77d131d584c3acd0f0cf41d5fe17f9dae5234703f6498e15f909385fc7087f9c",
    "analyze/powell/brown_forsythe.json": "07f2b07abb7cd4e629bd59eceec518e78be350f814608c0fcd0f39ade7d071f5",
    "analyze/powell/ellipses.csv": "c594ef14de2f41d902e2b1d28955175e279c2771e4121738b88bd0c508c01432",
    "analyze/powell/levene.json": "07f2b07abb7cd4e629bd59eceec518e78be350f814608c0fcd0f39ade7d071f5",
    "analyze/powell/mardia.json": "866396048cfda1a3f234dde164c866f1bb8b733d8613fdeccbf9a54ff1e9f0c7",
    "rank/cell_metrics.csv": "12ef05d5500165425b132b059d253f2dc50ae71d841311572180bf1d69780129",
    "rank/optimizer_metrics.csv": "53cf7556d9bc70ac8d83d5bb2c8ff01cf73a77e586d1a0bfd541769a2f6a25ca",
    "rank/rank_heatmap.csv": "03c42e60e9440b0f7ef2ad95372149b62cf7efb8b94e9dffaceec4408a6c3012",
    "rank/rank_summary.json": "53b1d5ebae6e36c029048e55554607495afe7412cf283cdd9899f238bb101ff3",
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
