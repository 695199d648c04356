import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gaugedist import (
    Cone,
    Disc,
    GeneratorSpec,
    PBall,
    diamond,
    distance_set,
    erdos_bound,
    generate,
    grid_distance_set,
    min_gap,
    random_symmetric_polygon,
    run_lemma_checks,
    run_moser,
    run_sweep,
    square,
    taxicab_count,
    write_jsonl,
    write_moser_csv,
    write_sweep_csv,
)
import gaugedist
from gaugedist.cli import main

from oracles import reference_polygon_trial


LATTICE = GeneratorSpec(kind="lattice", R=5.0)


class TestSweep:
    def test_polygon_bodies_keep_unit_gap(self):
        for body in (square(), diamond()):
            rows = run_sweep(body, LATTICE, [5, 10, 20], exact=True)
            assert all(r.min_gap == 1 for r in rows)
            assert all(r.n_points == (2 * int(r.R) + 1) ** 2 for r in rows)
            assert abs(rows[0].alpha_hat - 2.0) < 0.15

    def test_disc_gap_decays(self):
        rows = run_sweep(Disc(1.0), LATTICE, [5, 10, 20], exact=True)
        gaps = [r.min_gap for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_row_counts_match_direct_distance_set(self):
        from gaugedist import generate

        rows = run_sweep(diamond(), LATTICE, [3], exact=True)
        ps = generate(GeneratorSpec(kind="lattice", R=3.0))
        ds = distance_set(diamond(), ps, exact=True)
        assert rows[0].n_distances == len(ds)

    def test_fewer_than_three_radii_leaves_alpha_empty(self):
        rows = run_sweep(square(), LATTICE, [5, 10], exact=True)
        assert all(r.alpha_hat is None for r in rows)

    def test_float_mode_perturbed_set(self):
        spec = GeneratorSpec(kind="perturbed_lattice", R=5.0, jitter=0.3, seed=2)
        rows = run_sweep(Disc(1.0), spec, [3, 5], tol=1e-9)
        assert all(r.n_distances > r.n_points for r in rows)  # generic positions

    @pytest.mark.parametrize("R_list", [[5, 5], [5, 5, 10], [10, 5.0, 5], [3, 5, 10, 5]])
    def test_repeated_radius_is_rejected(self, R_list):
        with pytest.raises(ValueError, match="window radius 5.0 is given twice"):
            run_sweep(square(), LATTICE, R_list, exact=True)


EACH_FLOAT_BODY = pytest.mark.parametrize(
    "body",
    [Disc(1.0), square(), diamond(), PBall(1.5, 1.0), random_symmetric_polygon(4, 11)],
    ids=["disc", "square", "diamond", "pball1.5", "polygon6"],
)


def pair_loop_rows(body, spec, R_list, tol):
    """(R, n_points, n_distances, repr(min_gap)) from the pair loop over the
    generated lattice, with the DistanceSet of each window."""
    out = []
    for R in R_list:
        ps = generate(replace(spec, R=float(R)))
        ds = distance_set(body, ps, tol=tol)
        out.append(((float(R), len(ps), len(ds), repr(min_gap(ds))), ds))
    return out


class TestFloatLatticeSweep:
    """Float lattice sweeps take the grid closed form, with the pair loop's output."""

    @EACH_FLOAT_BODY
    @pytest.mark.parametrize(
        "spacing, R_list, tol",
        [(1.0, [3, 7, 10], None), (0.5, [2, 4.5], None), (3.0, [6, 20, 25], None), (1.0, [4, 8], 0.05)],
        ids=["s1", "s0.5", "s3", "s1-tol"],
    )
    def test_matches_pair_loop(self, body, spacing, R_list, tol):
        spec = GeneratorSpec(kind="lattice", R=1.0, spacing=spacing)
        rows = run_sweep(body, spec, R_list, tol=tol)
        expected = pair_loop_rows(body, spec, R_list, tol)
        assert [(r.R, r.n_points, r.n_distances, repr(r.min_gap)) for r in rows] == [e for e, _ in expected]
        for (_, n_points, _, _), ds in expected:
            side = math.isqrt(n_points)
            grid = grid_distance_set(body, side, side, spacing, tol=tol, exact=False)
            assert grid == ds
            assert repr(min_gap(grid)) == repr(min_gap(ds))

    @EACH_FLOAT_BODY
    def test_non_dyadic_spacing_keeps_the_counts(self, body):
        # the pair loop rounds k1*s - k2*s and the grid (k1 - k2)*s, so at
        # s = 0.3 only the counts are the same
        spec = GeneratorSpec(kind="lattice", R=5.0, spacing=0.3)
        [row] = run_sweep(body, spec, [5])
        [((_, n_points, n_distances, _), ds)] = pair_loop_rows(body, spec, [5], None)
        assert (row.n_points, row.n_distances) == (n_points, n_distances)
        side = math.isqrt(n_points)
        grid = grid_distance_set(body, side, side, 0.3, exact=False)
        assert grid.multiplicities == ds.multiplicities

    @pytest.mark.parametrize("R, spacing, n_points", [
        (0.3, 0.1, 25), (0.7, 0.1, 169), (0.6, 0.2, 25), (2.3, 0.1, 2025),
        # floor(1.7 / 0.1) = 17 but 17 * 0.1 > 1.7; floor(4.3 / 0.1) = 42 but 43 * 0.1 == 4.3
        (1.7, 0.1, 1089), (4.3, 0.1, 7569),
    ])
    def test_window_holds_every_lattice_point(self, R, spacing, n_points):
        # k * spacing rounds above R for k = R / spacing here (7 * 0.1 > 0.7): no such row
        spec = GeneratorSpec(kind="lattice", R=R, spacing=spacing)
        ps = generate(spec)
        assert np.max(np.abs(ps.points)) <= R and len(ps) == n_points
        [row] = run_sweep(square(), spec, [R])
        assert row.n_points == len(ps)

    def test_large_disc_windows_skip_the_pair_loop(self, monkeypatch):
        import gaugedist.experiments as experiments

        def no_pair_loop(*args, **kwargs):
            raise AssertionError("a lattice sweep called the pair loop")

        monkeypatch.setattr(experiments, "distance_set", no_pair_loop)
        # R = 80 is 25,921 points; the pair loop would need about 20 GB
        rows = run_sweep(Disc(1.0), LATTICE, [10, 20, 40, 80])
        assert [r.n_points for r in rows] == [(2 * int(r.R) + 1) ** 2 for r in rows]
        gaps = [r.min_gap for r in rows]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3] > 0
        assert gaps[3] < 0.0025


class TestTaxicab:
    def test_square_n50(self):
        rep = taxicab_count(50, "square")
        assert rep["n_distances"] == 51
        assert rep["ratio_to_sqrt_n_points"] == 1.0

    def test_diamond_n50(self):
        assert taxicab_count(50, "diamond")["n_distances"] == 101

    def test_n1(self):
        assert taxicab_count(1, "square")["n_distances"] == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            taxicab_count(0)
        # an unknown name is read as a body file path, as for every --body
        with pytest.raises(FileNotFoundError):
            taxicab_count(5, "pentagon")

    def test_polygon_body_file_matches_brute_count(self, tmp_path, capsys):
        spec = {"type": "polygon", "vertices": [[2, 1], [-1, 2]], "symmetric_completion": True}
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(spec))
        body = gaugedist.load_body(str(path))
        lattice = [(x, y) for x in range(6) for y in range(6)]
        brute = {gaugedist.gauge_exact(body, (p[0] - q[0], p[1] - q[1]))
                 for p in lattice for q in lattice}
        assert taxicab_count(5, str(path))["n_distances"] == len(brute) == 19
        assert main(["taxicab-count", "--n", "5", "--body", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["n_distances"] == 19

    def test_p_ball_body_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "p3.json"
        path.write_text(json.dumps({"type": "pball", "p": 3, "radius": 1}))
        assert main(["taxicab-count", "--n", "5", "--body", str(path)]) == 2
        assert capsys.readouterr().err == "error: exact distance sets need a polygon or disc body\n"


class TestErdosBound:
    def test_lattice_witness_counts(self):
        # distinct counts for the 20x20 lattice, all comfortably >= sqrt(N)/... never flagged
        for body, expected in [(square(), 20), (diamond(), 39), (Disc(1.0), 180)]:
            rep = erdos_bound(body, 400, seed=5)
            assert rep["witnesses"]["lattice"]["n_distances"] == expected
            assert not rep["flagged"]

    def test_random_points_are_generic(self):
        rep = erdos_bound(Disc(1.0), 30, seed=11)
        assert rep["witnesses"]["random"]["n_distances"] == 30 * 29 // 2 + 1

    def test_collinear_four_points_square_body(self):
        ds = distance_set(square(), np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]]), exact=True)
        assert ds.values == (0, 1, 2, 3)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            erdos_bound(square(), 3)

    def test_pball_body_supported(self):
        rep = erdos_bound(PBall(1.5, 1.0), 25, seed=1)
        assert rep["witnesses"]["lattice"]["n_distances"] >= 5

    def test_random_witness_memory_is_bounded(self):
        # 1,998,997 distinct distances: their arrays peak near 61 MiB, and
        # Python tuples of them would take about twice that
        tracemalloc.start()
        try:
            rep = erdos_bound(Disc(1.0), 2000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["witnesses"]["random"]["n_distances"] == 1_998_997
        assert peak < 80 * 2**20


class TestLemmaBatches:
    def test_unknown_which(self):
        with pytest.raises(ValueError):
            run_lemma_checks("15", 10, 0)
        with pytest.raises(ValueError):
            run_lemma_checks("13", 0, 0)

    def test_batch_reruns_identically(self):
        a = run_lemma_checks("14", 40, seed=9)
        b = run_lemma_checks("14", 40, seed=9)
        assert a.rows == b.rows

    def test_alpha_one_subsuite_present(self):
        batch = run_lemma_checks("14", 40, seed=9)
        assert any(r["alpha"] == 1.0 for r in batch.rows)
        assert any(r["alpha"] != 1.0 for r in batch.rows)

    def test_row_schema(self):
        batch = run_lemma_checks("13", 8, seed=2)
        for row in batch.rows:
            assert set(row) == {"trial", "alpha", "u", "classes", "max_concurrence_error", "flags"}
        strict = run_lemma_checks("strict", 3, seed=2)
        for row in strict.rows:
            assert set(row) == {"trial", "alpha", "u", "count", "flags"}

    def test_unresolved_scan_is_flagged_not_counted(self, monkeypatch):
        import gaugedist.experiments as experiments
        from gaugedist import RootScan

        monkeypatch.setattr(experiments, "strictly_convex_intersection_count",
                            lambda body, alpha, x: RootScan(1, ((0.5, 0.6),), True))
        batch = run_lemma_checks("strict", 3, seed=2)
        assert [(r["count"], r["flags"]) for r in batch.rows] == [(1, ["unresolved"])] * 3
        assert (batch.violations, batch.max_count) == (0, 1)

    @pytest.mark.parametrize("seed, k", [(2002, 15548), (3003, 15473), (5005, 12944)])
    def test_trials_near_alpha_one_resolve(self, seed, k):
        # "barely past internal tangency" at alpha within 0.02 of 1 for the p = 3 ball: g is
        # small over wide arcs, and a slope bound that ignores |x| runs out of budget there
        from gaugedist.experiments import _strict_trial

        row = _strict_trial(k, seed)
        assert abs(row["alpha"] - 1) < 0.02
        assert (row["count"], row["flags"]) == (2, [])

    @pytest.mark.parametrize("seed", [1, 5, 99])
    @pytest.mark.parametrize("which", ["13", "14"])
    def test_polygon_trials_match_reference(self, which, seed):
        # the trial's one integer frame against the public functions it replaces,
        # alpha == 1 trials with opposite-edge flags included
        from gaugedist.experiments import _ALPHAS_13, _ALPHAS_14, _polygon_trial

        alphas = _ALPHAS_13 if which == "13" else _ALPHAS_14
        flagged = 0
        for k in range(150):
            got = _polygon_trial(k, seed, alphas[k % 4])
            assert got == reference_polygon_trial(k, seed, alphas[k % 4])
            flagged += got[1].flagged
        assert flagged > 0


class TestRunMoser:
    def test_window_one_spacing_past_a_non_integer_annulus(self, tmp_path, capsys):
        # the window 0.6 + 0.1 is 7 steps of 0.1, but 7 * 0.1 rounds above 0.7
        rc = main(["moser", "--body", "square", "--cone", "0,1.5707963267948966",
                   "--cone-inner", "0.4,1.1", "--N-range", "1..1", "--spacing", "0.1",
                   "--width", "0.3", "--out", str(tmp_path / "m.csv"), "--no-timestamp"])
        assert rc == 0
        capsys.readouterr()

    def test_empty_range_gives_no_rows(self):
        assert run_moser(square(), Cone(0, math.pi / 2), Cone(0.3, 1.2), range(5, 3)) == []

    def test_empty_range_still_checks_the_cones(self):
        with pytest.raises(ValueError, match="strictly inside"):
            run_moser(square(), Cone(0, math.pi / 2), Cone(0, 1.2), range(5, 3))


class TestWriters:
    def test_sweep_csv_timestamp_toggle(self, tmp_path):
        rows = run_sweep(square(), LATTICE, [3], exact=True)
        with_ts = tmp_path / "a.csv"
        without = tmp_path / "b.csv"
        write_sweep_csv(rows, with_ts, timestamp=True)
        write_sweep_csv(rows, without, timestamp=False)
        assert with_ts.read_text().startswith("# generated ")
        assert without.read_text().startswith("R,n_points,")

    def test_exact_polygon_min_gap_is_written_as_a_float(self, tmp_path):
        # exact polygon distances are Fractions, which the writer prints as
        # floats; an int or np.int64 reaching it would print "1"
        path = tmp_path / "sweep.csv"
        write_sweep_csv(run_sweep(square(), LATTICE, [5], exact=True), path, timestamp=False)
        row = path.read_text().splitlines()[1].split(",")
        assert row[3] == "1.0"

    def test_jsonl_roundtrip(self, tmp_path):
        batch = run_lemma_checks("13", 10, seed=4)
        path = tmp_path / "rows.jsonl"
        write_jsonl(batch.rows, path, timestamp=False)
        back = [json.loads(line) for line in path.read_text().splitlines()]
        assert back == [json.loads(json.dumps(r)) for r in batch.rows]

    def test_moser_csv(self, tmp_path):
        rows = run_moser(square(), Cone(0, math.pi / 2), Cone(math.pi / 8, 3 * math.pi / 8), [1, 2])
        path = tmp_path / "m.csv"
        write_moser_csv(rows, path, timestamp=False)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,count,bound,met,truncated"
        assert lines[1].startswith("1,") and lines[1].endswith("true,false")


class TestCli:
    def test_sweep_roundtrip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--body", "square", "--set", "lattice", "--R", "5,10",
            "--exact", "--out", str(out), "--no-timestamp",
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "R,n_points,n_distances,min_gap,alpha_hat"
        assert lines[1] == "5.0,121,11,1.0,"

    def test_sweep_rerun_byte_identical(self, tmp_path):
        args = lambda p: [
            "sweep", "--body", "disc", "--set", "lattice", "--R", "5,10",
            "--exact", "--out", str(p), "--no-timestamp",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args(a)) == 0 and main(args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_taxicab(self, tmp_path, capsys):
        rc = main(["taxicab-count", "--n", "10", "--out", str(tmp_path / "t.json")])
        assert rc == 0
        report = json.loads((tmp_path / "t.json").read_text())
        assert report["n_distances"] == 11

    def test_erdos_exit_code(self, capsys):
        assert main(["erdos-bound", "--body", "disc", "--N", "36", "--seed", "2"]) == 0
        capsys.readouterr()

    def test_lemma_checks_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "l1.jsonl", tmp_path / "l2.jsonl"
        for out in (out1, out2):
            rc = main([
                "lemma-checks", "--which", "14", "--trials", "25", "--seed", "7",
                "--out", str(out), "--no-timestamp",
            ])
            assert rc == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    # recorded before the batch summary was summed from the trials; the
    # summary's key order is LemmaBatch's field order
    @pytest.mark.parametrize("which, seed, summary, digest", [
        ("13", 1, '{"which": "13", "trials": 200, "violations": 0, "segments_checked": 175, '
         '"segments_flagged": 16, "max_classes": 2, "max_count": 0}',
         "49ee360beb0174544cf935f85a4fe6f0aedb70a8597ced6d69a616245b357016"),
        ("13", 99, '{"which": "13", "trials": 200, "violations": 0, "segments_checked": 186, '
         '"segments_flagged": 20, "max_classes": 2, "max_count": 0}',
         "3ee51c0fab1722a37e1f9b39debb8d73923a5b7643d62e62b06c01174b1b2d86"),
        ("14", 1, '{"which": "14", "trials": 200, "violations": 0, "segments_checked": 176, '
         '"segments_flagged": 15, "max_classes": 2, "max_count": 0}',
         "278da0d2046fa6e672363bbab316a102ec367cba59932436a9ceea181f19094b"),
        ("14", 99, '{"which": "14", "trials": 200, "violations": 0, "segments_checked": 184, '
         '"segments_flagged": 20, "max_classes": 2, "max_count": 0}',
         "f4127cb7d47e2785bfa65c42213a1e958311344d290ba5a523607d25f1ce3706"),
        # recorded before the scan read its first pass from a per-body table
        ("strict", 1, '{"which": "strict", "trials": 200, "violations": 0, "segments_checked": 0, '
         '"segments_flagged": 0, "max_classes": 0, "max_count": 2}',
         "e2f7ca216259bde83afb3bd1e975d29ae105e1e401f9a3b002497c738e2aa81e"),
        ("strict", 99, '{"which": "strict", "trials": 200, "violations": 0, "segments_checked": 0, '
         '"segments_flagged": 0, "max_classes": 0, "max_count": 2}',
         "f13813672ba275b2a445b0f20e57425dd610e60fe81ed6097240664d2c321db1"),
    ])
    def test_lemma_checks_output_is_pinned(self, tmp_path, capsys, which, seed, summary, digest):
        out = tmp_path / "lemma.jsonl"
        rc = main([
            "lemma-checks", "--which", which, "--trials", "200", "--seed", str(seed),
            "--out", str(out), "--no-timestamp",
        ])
        assert rc == 0
        assert capsys.readouterr().out == summary + "\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # recorded before the exact disc roots were taken in one numpy step; the
    # spacing 0.3 sweep takes its object-dtype branch
    @pytest.mark.parametrize("argv, digest", [
        (["sweep", "--exact", "--body", "disc", "--set", "lattice", "--R", "5,10,20,40"],
         "102e7a60de258c17bedadb693a7aa1652e375116e43791f0e7599a4474a1e904"),
        (["sweep", "--exact", "--body", "disc", "--set", "lattice", "--R", "3,6",
          "--spacing", "0.3"],
         "a7384236f0f46fbab2664e3780ff077df25f767c4905fe2098227e6ca0fba163"),
        (["taxicab-count", "--n", "100", "--body", "disc"],
         "90f0d226cc3f6ac504c94153881affbb9c04d5918c12a73505b9f5ec222e1d01"),
        (["erdos-bound", "--N", "400", "--body", "disc", "--seed", "7"],
         "e2ef2c819c3e66feab99e4c236260a9f950ebde45d99585dcefd25509ed2a1f1"),
    ], ids=["sweep-disc", "sweep-disc-0.3", "taxicab-disc", "erdos-disc"])
    def test_exact_disc_output_is_pinned(self, tmp_path, capsys, argv, digest):
        out = tmp_path / "report"
        stamp = ["--no-timestamp"] if argv[0] == "sweep" else []
        assert main([*argv, "--out", str(out), *stamp]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # the README's commands, recorded before every distance set was built by
    # one routine; the perturbed sweeps take the exact and float pair paths
    MOSER = ["moser", "--body", "square", "--cone", "0,1.5707963267948966",
             "--cone-inner", "0.39269908169872414,1.1780972450961724", "--N-range", "1..20"]
    PERTURBED = ["--set", "perturbed", "--jitter", "0.25", "--seed", "3", "--R", "3,4,5"]

    @pytest.mark.parametrize("argv, digest", [
        (["sweep", "--exact", "--body", "square", "--set", "lattice", "--R", "5,10,20,40"],
         "6a578a1aa560397a665462a568a1cf5a98bf7c7dabcda506466578fb377babd9"),
        (["sweep", "--body", "disc", "--set", "lattice", "--R", "10,20,40,80"],
         "0c50b16611bbe797e5cad9f6ebfc3843f7dbc8c9a36745af9e57487343f12b55"),
        (["taxicab-count", "--n", "50", "--body", "diamond"],
         "f614d97ad3ad2b15abc9c7e880ac1315f616f392b557dd01421b19fdc9cdc2c4"),
        (MOSER, "7d7f5b197c476983f9f41445b2d65c509478cbba20aa71604c809da38bbccdee"),
        (["sweep", "--exact", "--body", "square", *PERTURBED],
         "d69f82daa55ba0cbb275b3fdc8a7061ee211bfdd4cc61ce60116c27cb55b9480"),
        (["sweep", "--exact", "--body", "disc", *PERTURBED],
         "587754bb8c42b6c8fc1af8634825ef3eb618f0cfbaef43093d0c6a4ce36ce76c"),
        (["sweep", "--body", "diamond", *PERTURBED],
         "48d1798b3c84e31be1e86cebb7401a6d90d17c0e886f7d6d3048155dd8edc0db"),
        (["lemma-checks", "--which", "strict", "--trials", "500", "--seed", "7"],
         "e25adcb9010ce00b65c721935ef668c4295e79e2ecb390b6c09ec61cbd54c705"),
    ], ids=["sweep-square", "sweep-disc-float", "taxicab-diamond", "moser",
            "perturbed-square", "perturbed-disc", "perturbed-diamond-float", "lemma-strict"])
    def test_readme_output_is_pinned(self, tmp_path, capsys, argv, digest):
        out = tmp_path / "report"
        stamp = [] if argv[0] == "taxicab-count" else ["--no-timestamp"]
        assert main([*argv, "--out", str(out), *stamp]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_moser_exit_code(self, tmp_path, capsys):
        rc = main([
            "moser", "--body", "square",
            "--cone", "0,1.5707963267948966",
            "--cone-inner", "0.39269908169872414,1.1780972450961724",
            "--N-range", "1..3",
            "--out", str(tmp_path / "m.csv"), "--no-timestamp",
        ])
        assert rc == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["taxicab-count", "--n", "10"],
        ["erdos-bound", "--body", "disc", "--N", "36", "--seed", "2"],
    ])
    def test_json_report_file_equals_stdout(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    @pytest.mark.parametrize("argv", [
        ["taxicab-count", "--n", "10", "--seed", "1"],
        ["taxicab-count", "--n", "10", "--no-timestamp"],
        ["erdos-bound", "--N", "36", "--no-timestamp"],
        ["lemma-checks", "--which", "13", "--trials", "1", "--body", "disc"],
        ["moser", "--cone", "0,1", "--cone-inner", "0.2,0.8", "--N-range", "1..2", "--seed", "1"],
    ])
    def test_options_a_command_does_not_read_are_rejected(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_usage_error_is_exit_2(self, capsys):
        assert main(["sweep", "--set", "nonsense", "--R", "5"]) == 2
        assert main(["no-such-command"]) == 2
        # a non-finite window or annulus width is a usage error, not a crash
        capsys.readouterr()
        assert main(["sweep", "--R", "inf"]) == 2
        assert "window radius inf must be positive and finite" in capsys.readouterr().err
        assert main(["moser", "--width", "inf", "--cone", "0,1.5707963267948966",
                     "--cone-inner", "0.39269908169872414,1.1780972450961724",
                     "--N-range", "1..2"]) == 2
        assert "annulus width inf must be positive and finite" in capsys.readouterr().err
        assert main(["moser", "--cone", "0,1", "--cone-inner", "0.2,0.8", "--N-range", "5..3"]) == 2
        assert "argument --N-range: N range 5..3 is empty" in capsys.readouterr().err
        assert main(["moser", "--cone", "0", "--cone-inner", "0.2,0.8", "--N-range", "1..2"]) == 2
        assert "cone needs two comma-separated angles" in capsys.readouterr().err
        assert main(["moser", "--cone", "0,1", "--cone-inner", "0.2,0.8", "--N-range", "5"]) == 2
        assert "N range looks like a..b" in capsys.readouterr().err
        assert main(["sweep", "--set", "lattice"]) == 2
        assert "sweep needs --R with at least one radius" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, violation", [
        ({"type": "polygon", "vertices": [[1, 1], [-1, 1], [1, -1], [-1, -1]]},
         "non-strict convex turn sign"),
        ({"type": "disc", "radius": -1}, "disc radius -1.0 not positive"),
        # malformed specs name the bad field
        ({"type": "polygon"}, "body spec has no 'vertices' field"),
        ({"type": "disc"}, "body spec has no 'radius' field"),
        ([1, 2], "body spec must be a JSON object, not list"),
        ({"type": "disc", "radius": None}, "body spec field 'radius': "),
        ({"type": "polygon", "vertices": 5}, "body spec field 'vertices': "),
        ({"type": "polygon", "vertices": [[1, 1], [-1, 1]], "symmetric_completion": "false"},
         "body spec field 'symmetric_completion': 'false' is not a JSON boolean"),
    ])
    @pytest.mark.parametrize("argv", [
        ["sweep", "--set", "lattice", "--R", "3", "--no-timestamp"],
        ["erdos-bound", "--N", "16"],
        ["moser", "--cone", "0,1.5707963267948966",
         "--cone-inner", "0.39269908169872414,1.1780972450961724", "--N-range", "1..2"],
    ])
    def test_invalid_body_file_is_exit_2(self, tmp_path, capsys, spec, violation, argv):
        body = tmp_path / "body.json"
        body.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main([*argv, "--body", str(body), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert violation in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tol_is_exit_2(self, tmp_path, capsys, tol):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--body", "disc", "--set", "lattice", "--R", "2,3", "--tol", tol]
        assert main([*argv, "--out", str(out), "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: clustering tolerance {float(tol)} must be finite and >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["0", "1e-9", "nan"])
    @pytest.mark.parametrize("points", [
        ["--set", "lattice"], ["--set", "perturbed", "--jitter", "0.2"],
    ], ids=["lattice", "perturbed"])
    def test_exact_sweep_with_tol_is_exit_2(self, tmp_path, capsys, tol, points):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--body", "square", *points, "--R", "2", "--exact", "--tol", tol]
        assert main([*argv, "--out", str(out), "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: exact distance sets take no clustering tolerance, got {float(tol)}\n"
        assert not out.exists()

    def test_exact_p_ball_sweep_fails_before_the_pair_loop(self, tmp_path, capsys):
        # 3,721 perturbed points: their 6.9 million exact pairs took about 900 MB
        # before the body was rejected
        body = tmp_path / "p3.json"
        body.write_text(json.dumps({"type": "pball", "p": 3, "radius": 1}))
        argv = ["sweep", "--exact", "--body", str(body), "--set", "perturbed",
                "--jitter", "0.2", "--R", "30"]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2 and peak < 10 * 2**20
        assert capsys.readouterr().err == "error: exact distance sets need a polygon or disc body\n"

    def test_large_p_sweep_counts_every_distance(self, tmp_path):
        # the 11 x 11 lattice has 0, then 1 to 10, then k * 2^(1/400) for k = 1 to 10
        body = tmp_path / "p400.json"
        body.write_text(json.dumps({"type": "pball", "p": 400, "radius": 1}))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--body", str(body), "--R", "5,10", "--out", str(out), "--no-timestamp"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[0], r[2]) for r in rows] == [("5.0", "21"), ("10.0", "41")]

    @pytest.mark.parametrize("radii", ["5,5", "5,5,10", "10,5,5"])
    def test_repeated_sweep_radius_is_exit_2(self, tmp_path, capsys, radii):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--R", radii, "--out", str(out), "--no-timestamp"]) == 2
        assert capsys.readouterr().err == "error: window radius 5.0 is given twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("rows, argv, message", [
        ("1e308,0.0\n-1e308,0.0\n", ["--body", "square", "--R", "1e308", "--tol", "1"],
         "largest distance nan is not finite"),
        ("1e200,0\n0,0\n", ["--body", "disc", "--R", "1e201", "--exact"],
         "exact disc distance overflows a double"),
    ], ids=["float-tol", "exact-disc"])
    @pytest.mark.filterwarnings("error")
    def test_overflowed_distance_is_exit_2(self, tmp_path, capsys, rows, argv, message):
        # the error line is all of stderr: no numpy warning comes first
        path, out = tmp_path / "p.csv", tmp_path / "sweep.csv"
        path.write_text("x,y\n" + rows)
        rc = main(["sweep", "--set", f"file:{path}", *argv, "--out", str(out)])
        assert rc == 2 and capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_polygon_without_float_form_is_exit_2_in_float_mode(self, tmp_path, capsys):
        # vertices at the subnormal floor round two float offsets to 0; the
        # float sweep names the offset, with no numpy warning first, also under
        # python -W error, and the exact sweep serves the body
        body, out = tmp_path / "body.json", tmp_path / "sweep.csv"
        body.write_text(json.dumps({"type": "polygon", "vertices": [
            [2.0, 0.0], [0.0, 5e-324], [-2.0, -0.0], [-0.0, -5e-324]]}))
        argv = ["sweep", "--body", str(body), "--set", "lattice", "--R", "3",
                "--out", str(out), "--no-timestamp"]
        err = ("error: polygon edge 0 has normal (0.0, 1.0) and offset 0.0, not normal doubles; "
               "only exact evaluation serves this body\n")
        assert main(argv) == 2
        assert capsys.readouterr().err == err and not out.exists()
        env = {**os.environ, "PYTHONPATH": str(Path(gaugedist.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "gaugedist", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, err) and not out.exists()
        assert main([*argv, "--exact"]) == 0
        assert out.read_text().splitlines()[1] == "3.0,49,49,0.5,"

    def test_missing_file_is_exit_2(self, capsys):
        rc = main(["sweep", "--body", "missing.json", "--set", "lattice", "--R", "5"])
        assert rc == 2
        capsys.readouterr()

    def test_file_set_requires_radius(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.0,0.0\n1.0,0.0\n")
        rc = main(["sweep", "--body", "square", "--set", f"file:{path}"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("kind", ["lattice", "file"])
    def test_jitter_outside_the_perturbed_lattice_is_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.0,0.0\n1.0,0.0\n")
        setting = kind if kind == "lattice" else f"file:{path}"
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--set", setting, "--jitter", "0.3", "--R", "5", "--out", str(out)]
        assert main(argv) == 2
        err = f"error: jitter applies only to the perturbed lattice, not {kind!r}\n"
        assert capsys.readouterr().err == err and not out.exists()

    @pytest.mark.parametrize("kind", ["lattice", "file"])
    def test_seed_outside_the_perturbed_lattice_is_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.0,0.0\n1.0,0.0\n")
        setting = kind if kind == "lattice" else f"file:{path}"
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--set", setting, "--R", "3", "--seed", "5", "--out", str(out)]
        assert main(argv) == 2
        err = f"error: seed applies only to the perturbed lattice, not {kind!r}\n"
        assert capsys.readouterr().err == err and not out.exists()

    def test_spacing_on_a_file_set_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.0,0.0\n1.0,0.0\n0.0,1.0\n")
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--set", f"file:{path}", "--spacing", "2", "--R", "5", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: spacing applies only to the lattices, not 'file'\n"
        assert not out.exists()
