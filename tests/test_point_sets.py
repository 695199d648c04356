import math

import numpy as np
import pytest

from gaugedist import (
    GeneratorSpec,
    PointSet,
    alpha_dimension_estimate,
    generate,
    load_point_set,
    save_point_set,
    separation_constant,
    well_distributed_check,
)

from oracles import brute_min_pairwise_euclid


def unit_lattice(R):
    return generate(GeneratorSpec(kind="lattice", R=R))


class TestGenerate:
    def test_lattice_r1(self):
        ps = unit_lattice(1.0)
        assert len(ps) == 9
        assert {tuple(p) for p in ps.points} == {(float(i), float(j)) for i in (-1, 0, 1) for j in (-1, 0, 1)}

    def test_lattice_r2_5(self):
        assert len(unit_lattice(2.5)) == 25

    def test_zero_jitter_equals_lattice(self):
        a = generate(GeneratorSpec(kind="lattice", R=3.0))
        b = generate(GeneratorSpec(kind="perturbed_lattice", R=3.0, jitter=0.0, seed=9))
        assert np.array_equal(a.points, b.points)

    def test_deterministic(self):
        spec = GeneratorSpec(kind="perturbed_lattice", R=4.0, jitter=0.3, seed=123)
        assert np.array_equal(generate(spec).points, generate(spec).points)

    def test_points_stay_in_window(self):
        for seed in range(5):
            spec = GeneratorSpec(kind="perturbed_lattice", R=3.0, jitter=0.45, seed=seed)
            ps = generate(spec)
            assert np.max(np.abs(ps.points)) <= ps.R

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="spacing/2"):
            GeneratorSpec(kind="perturbed_lattice", R=2.0, jitter=0.6)
        for kind in ("lattice", "file"):
            with pytest.raises(ValueError, match="only to the perturbed lattice"):
                GeneratorSpec(kind=kind, R=2.0, jitter=0.1, path="p.csv")
            with pytest.raises(ValueError, match="seed applies only to the perturbed lattice"):
                GeneratorSpec(kind=kind, R=2.0, seed=5, path="p.csv")
        with pytest.raises(ValueError):
            GeneratorSpec(kind="hexgrid", R=2.0)
        with pytest.raises(ValueError):
            GeneratorSpec(kind="lattice", R=-1.0)
        with pytest.raises(ValueError, match="window radius inf"):
            GeneratorSpec(kind="lattice", R=math.inf)
        with pytest.raises(ValueError, match="spacing inf"):
            GeneratorSpec(kind="lattice", R=2.0, spacing=math.inf)
        with pytest.raises(ValueError):
            GeneratorSpec(kind="file", R=2.0)

    def test_pointset_rejects_escapees(self):
        with pytest.raises(ValueError):
            PointSet(np.array([[0.0, 3.0]]), 2.0)


class TestSeparation:
    def test_unit_lattice(self):
        assert separation_constant(unit_lattice(2.0)) == 1.0

    def test_three_points(self):
        ps = PointSet(np.array([[0, 0], [0, 0.3], [5, 5]]), 6.0)
        assert abs(separation_constant(ps) - 0.3) < 1e-15

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            separation_constant(PointSet(np.array([[0.0, 0.0]]), 1.0))

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_perturbed_lattice_lower_bound(self, seed):
        jitter = 0.2
        ps = generate(GeneratorSpec(kind="perturbed_lattice", R=5.0, jitter=jitter, seed=seed))
        sep = separation_constant(ps)
        assert sep >= 1.0 - 2 * jitter - 1e-12
        assert abs(sep - brute_min_pairwise_euclid(ps.points)) < 1e-12


class TestWellDistributed:
    def test_lattice_ok_at_c_1_5(self):
        rep = well_distributed_check(unit_lattice(4.0), C=1.5, stride=0.5)
        assert rep.ok and rep.cubes_scanned > 0

    def test_lattice_fails_at_c_0_9(self):
        # a 0.9 box with its corner on a lattice point has no point strictly inside
        rep = well_distributed_check(unit_lattice(2.0), C=0.9, stride=0.25)
        assert not rep.ok
        assert (0.0, 0.0) in rep.witnesses

    def test_single_point_window_cube(self):
        ps = PointSet(np.array([[0.3, 0.2]]), 1.0)
        rep = well_distributed_check(ps, C=2.0, stride=1.0)
        assert rep.ok and rep.cubes_scanned == 1

    def test_square_wider_than_window_is_rejected(self):
        # no square fits, so no answer: ok=True here once meant nothing was scanned
        with pytest.raises(ValueError, match="no square of side"):
            well_distributed_check(PointSet(np.array([[0.0, 0.0]]), 0.2), C=1.0)

    def test_square_as_wide_as_window_up_to_rounding_is_scanned(self):
        # 2 * (0.3 * 3) rounds just below 1.8: the one fitting square is still scanned
        rep = well_distributed_check(PointSet(np.array([[0.1, 0.0]]), 0.3 * 3), C=1.8)
        assert rep.ok and rep.cubes_scanned == 1

    def test_stride_too_coarse(self):
        with pytest.raises(ValueError):
            well_distributed_check(unit_lattice(2.0), C=1.0, stride=0.75)

    # each of these once passed with no square scanned or failed with another error
    @pytest.mark.parametrize("C, stride", [
        (1.0, -0.25), (1.0, 0.0), (1.0, math.nan),
        (math.inf, None), (math.inf, 0.5), (math.nan, None), (0.0, None), (-1.0, None),
    ])
    def test_bad_side_or_stride_is_rejected(self, C, stride):
        with pytest.raises(ValueError, match="need C finite and positive and 0 < stride <= C/2"):
            well_distributed_check(unit_lattice(2.0), C=C, stride=stride)

    def test_monotone_in_c(self):
        ps = generate(GeneratorSpec(kind="perturbed_lattice", R=6.0, jitter=0.4, seed=5))
        stride = 0.5
        results = {}
        for C in (1.2, 1.6, 2.0, 3.0):
            results[C] = well_distributed_check(ps, C=C, stride=stride).ok
        oks = [C for C, ok in results.items() if ok]
        if oks:
            threshold = min(oks)
            assert all(results[C] for C in results if C >= threshold)

    def test_empty_set_not_distributed(self):
        ps = PointSet(np.empty((0, 2)), 2.0)
        rep = well_distributed_check(ps, C=1.0, stride=0.5)
        assert not rep.ok and rep.witnesses


class TestAlphaEstimate:
    def test_planar_lattice_is_two_dimensional(self):
        samples = [(R, (2 * R + 1) ** 2) for R in (10, 20, 40, 80)]
        est = alpha_dimension_estimate(samples)
        assert abs(est.alpha - 2.0) <= 0.05

    def test_line_is_one_dimensional(self):
        samples = [(R, 2 * R + 1) for R in (10, 20, 40, 80)]
        est = alpha_dimension_estimate(samples)
        assert abs(est.alpha - 1.0) <= 0.05

    def test_constant_count_is_zero_dimensional(self):
        est = alpha_dimension_estimate([(10, 1), (20, 1), (40, 1)])
        assert est.alpha == 0.0
        assert est.residual == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            alpha_dimension_estimate([(1, 1), (2, 2)])
        with pytest.raises(ValueError):
            alpha_dimension_estimate([(1, 1), (2, 0), (3, 2)])
        with pytest.raises(ValueError):
            alpha_dimension_estimate([(2, 1), (1, 2), (3, 3)])
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                alpha_dimension_estimate([(bad, 1), (1.0, 2), (2.0, 3)])
        with pytest.raises(ValueError, match="positive and finite"):
            alpha_dimension_estimate([(1.0, 1), (2.0, 2), (math.inf, 3)])


class TestCsvRoundTrip:
    def test_save_load(self, tmp_path):
        ps = generate(GeneratorSpec(kind="perturbed_lattice", R=2.0, jitter=0.1, seed=4))
        path = tmp_path / "points.csv"
        save_point_set(ps, path)
        back = load_point_set(path)  # radius from the sidecar
        assert back.R == ps.R
        assert np.array_equal(back.points, ps.points)

    def test_explicit_radius_overrides(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.5,0.25\n")
        ps = load_point_set(path, R=2.0)
        assert ps.R == 2.0 and len(ps) == 1

    def test_missing_radius(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.5,0.25\n")
        with pytest.raises(ValueError):
            load_point_set(path)

    @pytest.mark.parametrize("sidecar", [
        '{"radius": 2}', "[2]", '{"R": null}', '{"R": "wide"}',
        # R is a JSON number within the double range: not a boolean or a numeric string
        '{"R": true}', '{"R": "3"}', pytest.param('{"R": 1' + 400 * "0" + "}", id="R-401-digits"),
    ])
    def test_malformed_sidecar(self, tmp_path, sidecar):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.5,0.25\n")
        (tmp_path / "p.csv.json").write_text(sidecar)
        with pytest.raises(ValueError, match=r"p\.csv\.json: expected a JSON object with a numeric"):
            load_point_set(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.5,zebra\n")
        with pytest.raises(ValueError, match="malformed"):
            load_point_set(path, R=1.0)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_point_set(path, R=5.0)

    def test_file_generator(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.5,0.25\n-1.0,1.0\n")
        ps = generate(GeneratorSpec(kind="file", R=2.0, path=str(path)))
        assert len(ps) == 2
