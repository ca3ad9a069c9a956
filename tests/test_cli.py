import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from rvbprep import cli, entangle, model, tnet
from rvbprep.ansatz import GRAD_TOL, fit_trajectory
from rvbprep.evolve import evolve_sweep
from rvbprep.geometry import build_cluster, constraint_graph
from rvbprep.hilbert import abs_state, enumerate_basis
from rvbprep.model import HamiltonianOperator, HamiltonianSpec, SweepSchedule
from rvbprep.spectrum import fidelity_susceptibility_scan, groundstate

from conftest import golden_path, read_csv


@pytest.fixture(scope="module")
def op12(basis12, cluster12):
    # with its cluster, as the verbs build it: sweeps run in its fully
    # symmetric sector
    return HamiltonianOperator(HamiltonianSpec(), basis12, cluster12)


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(argv):
    return cli.main(argv)


def sector_sizes(manifest):
    """The manifest's per-size sector entries without their build times,
    after checking that each has one."""
    entries = manifest["sector"]
    for entry in entries:
        assert isinstance(entry.pop("sector_s"), float)
    return entries


def sizes_of(op, n_atoms, group_order):
    _, red = op.sector()
    return {"n_atoms": n_atoms, "basis_dim": op.dim,
            "group_order": group_order, "sector_dim": red.dim,
            "sector_nnz": red.flip.nnz}


N24_SECTOR = {"n_atoms": 24, "basis_dim": 2649, "group_order": 48,
              "sector_dim": 74, "sector_nnz": 422}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_cluster_verb_artifacts(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"cells": [2, 1]})
    out = str(tmp_path / "out")
    assert run_cli(["cluster", "--config", cfg, "--out", out]) == 0
    for name in ("cluster.json", "basis.npy", "covers.npy", "stats.json",
                 "manifest.json"):
        assert os.path.exists(os.path.join(out, name))
    stats = json.loads(open(os.path.join(out, "stats.json")).read())
    assert stats["n_atoms"] == 12
    assert stats["n_covers"] == 8
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["status"] == "done"
    assert manifest["config"]["cells"] == [2, 1]
    for name, digest in manifest["outputs"].items():
        assert sha256(os.path.join(out, name)) == digest


@pytest.fixture(scope="module")
def cluster24_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cluster24")
    cfg = write_config(tmp, "c.json", {"cells": [2, 2]})
    out = tmp / "out"
    assert run_cli(["cluster", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_cluster_basis_files_roundtrip(cluster24_out, basis24, covers24):
    basis = np.load(cluster24_out / "basis.npy")
    covers = np.load(cluster24_out / "covers.npy")
    assert basis.dtype == covers.dtype == np.uint64
    assert np.array_equal(basis, basis24.configs)
    assert np.array_equal(covers, covers24.covers)


def test_cluster_json_roundtrip(cluster24_out, cluster24):
    data = json.loads((cluster24_out / "cluster.json").read_text())
    assert data["schema_version"] == cli.CLUSTER_SCHEMA_VERSION
    back = build_cluster(data["n1"], data["n2"], data["shear"])
    assert np.array_equal(np.array(data["atoms"]), cluster24.atoms)
    assert np.allclose(back.atoms, cluster24.atoms)
    assert np.allclose(data["lattice_vectors"], cluster24.lattice_vectors)
    for key in ("vertex_incidence", "triangle_incidence"):
        assert ({int(k): tuple(v) for k, v in data[key].items()}
                == getattr(cluster24, key))


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), ["s", "i", "b", "n", "f", "l"],
                  [("rvb", 12, True, np.nan, np.inf, [0.25, 0.1]),
                   ("vac", np.int64(-3), False, -np.inf, 0.1,
                    np.array([1.0]))])
    assert path.read_text() == (
        "s,i,b,n,f,l\n"
        "rvb,12,1,nan,inf,0.25;0.10000000000000001\n"
        "vac,-3,0,-inf,0.10000000000000001,1\n")


def test_reruns_are_byte_identical(tmp_path):
    # N = 12 takes the dense path; N = 24 (dim 2649) takes ARPACK, whose
    # start vector must not come from its own random generator
    for n_atoms in (12, 24):
        cfg = write_config(tmp_path, "c%d.json" % n_atoms, {
            "n_atoms": n_atoms, "lambda": [0.6, 0.9, 1.2]})
        out1 = str(tmp_path / ("a%d" % n_atoms))
        out2 = str(tmp_path / ("b%d" % n_atoms))
        assert run_cli(["gs-scan", "--config", cfg, "--out", out1]) == 0
        assert run_cli(["gs-scan", "--config", cfg, "--out", out2]) == 0
        assert (sha256(os.path.join(out1, "gs_scan.csv"))
                == sha256(os.path.join(out2, "gs_scan.csv")))
        cols = read_csv(os.path.join(out1, "gs_scan.csv"))
        assert list(cols) == ["lambda", "energy", "gap", "rvb_overlap",
                              "fidelity_susceptibility"]
        assert np.allclose(cols["lambda"], [0.6, 0.9, 1.2])


def test_gs_scan_csv(tmp_path, op12, rvb12):
    lambdas = [0.6, 0.7, 0.8]
    cfg = write_config(tmp_path, "c.json", {"n_atoms": 12,
                                            "lambda": lambdas})
    out = str(tmp_path / "out")
    assert run_cli(["gs-scan", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "gs_scan.csv")).read().split("\n")
    assert lines[0] == "lambda,energy,gap,rvb_overlap,fidelity_susceptibility"
    assert len(lines) == 5 and lines[-1] == ""
    scan = fidelity_susceptibility_scan(op12, np.array(lambdas), rvb=rvb12)
    for i, line in enumerate(lines[1:-1]):
        # 17 significant digits read back to the same doubles
        assert [float(x) for x in line.split(",")] == [
            scan.lambdas[i], scan.energies[i], scan.gaps[i],
            scan.rvb_overlaps[i], scan.susceptibilities[i]]
    # the manifest names the symmetric sector that the gap belongs to
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert sector_sizes(manifest) == [sizes_of(op12, 12, 8)]


def test_trajectory_csv(tmp_path, op12, rvb12):
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 12, "sweep_times": [2.0], "n_samples": 6,
        "write_trajectories": True})
    out = str(tmp_path / "out")
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
    # without a delta1 grid the name carries only N and T
    path = os.path.join(out, "trajectory_n12_T2.csv")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in fh])
    assert header == ["t", "Omega", "Delta", "norm", "rvb_overlap_abs",
                      "density"] + ["w%d" % k for k in range(13)]
    traj = evolve_sweep(op12, SweepSchedule.default_protocol(2.0),
                        rvb=rvb12, n_samples=6)
    assert rows.shape == (6, 6 + 13)
    assert np.array_equal(rows[:, 0], traj.times)
    assert np.array_equal(rows[:, 4], traj.rvb_overlap)
    assert np.array_equal(rows[:, 5], traj.density)
    assert np.array_equal(rows[:, 6:], traj.sector_weights)


def test_sweep_delta1_grid_keeps_every_trajectory(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "sizes": [12], "sweep_times": [2.0, 3.0],
        "delta1_grid": [1.4, 1.6], "n_samples": 5,
        "write_trajectories": True})
    out = str(tmp_path / "out")
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
    names = ["trajectory_n12_delta1_%g_T%g.csv" % (d, t)
             for d in (1.4, 1.6) for t in (2.0, 3.0)]
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert sorted(manifest["outputs"]) == sorted(names + ["sweep.csv"])
    for t in (2.0, 3.0):
        lo, hi = (read_csv(os.path.join(out, "trajectory_n12_delta1_%g_T%g.csv"
                                        % (d, t))) for d in (1.4, 1.6))
        assert lo["Delta"][-1] == pytest.approx(1.4)
        assert hi["Delta"][-1] == pytest.approx(1.6)


def test_sweep_rejects_trajectory_names_that_coincide(tmp_path, monkeypatch):
    # %g names both sweeps trajectory_n12_T2.csv; the run stops before the
    # first sweep instead of keeping only the second one's file
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(cli, "evolve_sweep", no_sweep)
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 12, "sweep_times": [2.0, 2.0000001], "n_samples": 5,
        "write_trajectories": True})
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert sorted(os.listdir(out)) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert "trajectory_n12_T2.csv" in manifest["error"]


def test_sweep_verb(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 12, "sweep_times": [3.0], "n_samples": 10})
    out = str(tmp_path / "out")
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
    cols = read_csv(os.path.join(out, "sweep.csv"))
    assert cols["n_atoms"][0] == 12
    assert cols["t_over_n"][0] == pytest.approx(0.25)
    assert 0 <= cols["final_overlap"][0] <= 1
    assert cols["abs_overlap"][0] >= cols["final_overlap"][0] - 1e-12


def test_sweep_manifest_records_the_solver_counters(tmp_path, op12, rvb12):
    # per size: the sweeps' steps, H.psi products, largest accepted Krylov
    # error and propagation seconds, in the manifest and never in the CSV
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 12, "sweep_times": [2.0, 3.0], "n_samples": 6})
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out)]) == 0
    trajs = [evolve_sweep(op12, SweepSchedule.default_protocol(t),
                          rvb=rvb12, n_samples=6) for t in (2.0, 3.0)]
    manifest = json.loads((out / "manifest.json").read_text())
    [record] = manifest["sweep"]
    seconds = record.pop("propagation_s")
    assert 0.0 <= seconds <= manifest["wall_clock_s"]
    assert record == {
        "n_atoms": 12, "sweeps": 2,
        "n_steps": sum(t.n_steps for t in trajs),
        "matvecs": sum(t.matvecs for t in trajs),
        "krylov_error": max(t.krylov_error for t in trajs)}
    assert list(read_csv(str(out / "sweep.csv"))) == [
        "n_atoms", "delta1", "total_time", "t_over_n", "final_overlap",
        "abs_overlap", "n_steps"]


def test_fit_verb(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 12, "delta_over_omega": [0.8, 1.2]})
    out = str(tmp_path / "out")
    assert run_cli(["fit", "--config", cfg, "--out", out]) == 0
    cols = read_csv(os.path.join(out, "fits.csv"))
    assert list(cols) == ["delta_over_omega", "overlap", "re_z1", "im_z1",
                          "re_z2", "im_z2", "converged"]
    assert np.allclose(cols["delta_over_omega"], [0.8, 1.2])
    assert np.all(cols["overlap"] > 0.9)
    assert list(cols["converged"]) == [1.0, 1.0]
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert [r["n_atoms"] for r in manifest["sector"]] == [12]


def test_fit_manifest_records_the_solver_counters(tmp_path, op12, covers12,
                                                  basis12):
    # the objective evaluations of every fit and the largest gradient norm
    # at an optimum, in the manifest and never in the CSV
    ratios = [0.8, 1.6, 2.4]
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 12, "delta_over_omega": ratios})
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", cfg, "--out", str(out)]) == 0
    snapshots, v0 = [], None
    for r in ratios:
        gs = groundstate(op12, 1.0, r, v0=v0)
        v0 = gs.state.amplitudes
        snapshots.append((r, gs.state))
    fits = [fit for _, fit in fit_trajectory(snapshots, covers12, basis12)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["fit"] == {
        "evaluations": sum(fit.n_evaluations for fit in fits),
        "max_gradient_norm": max(fit.gradient_norm for fit in fits)}
    assert manifest["fit"]["max_gradient_norm"] <= GRAD_TOL
    assert list(read_csv(str(out / "fits.csv"))) == [
        "delta_over_omega", "overlap", "re_z1", "im_z1", "re_z2", "im_z2",
        "converged"]


@pytest.mark.parametrize("name", ["fig2_fit", "fig2_fit_sweep_T25",
                                  "fig2_fit_sweep_T50", "fig2_fit_sweep_T90"])
def test_fig2_goldens_converged_on_every_row(name):
    cols = read_csv(golden_path(name, "fits.csv"))
    assert np.all(cols["converged"] == 1.0)
    with open(os.path.join(os.path.dirname(golden_path(name, "fits.csv")),
                           "manifest.json")) as fh:
        record = json.load(fh)["fit"]
    assert 0.0 <= record["max_gradient_norm"] <= GRAD_TOL


def test_tn_grid_modes_agree(tmp_path):
    # the grid column of dn_dz1 against a local central difference
    z1s = [0.2, 0.3, 0.4, 0.5]
    cfg = write_config(tmp_path, "c.json", {
        "circumference": 2, "projected": True, "z1": z1s, "z2": [0.3]})
    out = str(tmp_path / "out")
    assert run_cli(["tn-grid", "--config", cfg, "--out", out]) == 0
    got = read_csv(os.path.join(out, "grid.csv"))
    assert list(got) == ["z1", "z2", "density", "dn_dz1", "xi",
                         "bffm_z_l18", "bffm_x_l18"]
    assert np.array_equal(got["z1"], z1s)
    local = [tnet.phase_diagram_point(z1, 0.3, 2, fd_step=1e-3,
                                      compute_xi=False)[0] for z1 in z1s]
    assert np.allclose(got["density"], [r["density"] for r in local],
                       atol=1e-9)
    assert np.allclose(got["dn_dz1"][1:-1],
                       [r["dn_dz1"] for r in local[1:-1]], atol=2e-2)
    one = write_config(tmp_path, "one.json", {"circumference": 2,
                                              "z1": [0.2], "z2": [0.3]})
    assert run_cli(["tn-grid", "--config", one,
                    "--out", str(tmp_path / "one")]) == 2


def assert_records_tn_seconds(manifest):
    seconds = manifest["seconds"]
    assert set(seconds) == {"transfer_s", "boundaries_s", "observables_s"}
    assert all(0.0 <= s <= manifest["wall_clock_s"] for s in seconds.values())
    assert sum(seconds.values()) <= manifest["wall_clock_s"] + 0.003


def test_tn_manifests_record_the_boundary_solves(tmp_path):
    # the total power iterations and the largest residual of the run's
    # boundary solves, and the seconds of its phases, in the manifest and
    # never in the CSV
    z1s, z2s = [0.2, 0.3, 0.4], [0.3, 0.5]
    cfg = write_config(tmp_path, "grid.json", {
        "circumference": 2, "projected": True, "z1": z1s, "z2": z2s})
    out = tmp_path / "grid"
    assert run_cli(["tn-grid", "--config", cfg, "--out", str(out)]) == 0
    recs, warm = [], None
    for i2, z2 in enumerate(z2s):
        for z1 in z1s if i2 % 2 == 0 else z1s[::-1]:
            rec, warm = tnet.phase_diagram_point(z1, z2, 2, fd_step=None,
                                                 compute_xi=False, warm=warm)
            recs.append(rec)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["boundaries"] == {
        "iterations": sum(r["iterations"] for r in recs),
        "max_residual_ratio": max(r["residual_ratio"] for r in recs)}
    assert_records_tn_seconds(manifest)
    assert list(read_csv(str(out / "grid.csv"))) == [
        "z1", "z2", "density", "dn_dz1", "xi", "bffm_z_l18", "bffm_x_l18"]

    loops = [{"shape": "hexagon", "radius": 1},
             {"shape": "parallelogram", "w": 2, "h": 1}]
    cfg = write_config(tmp_path, "scaling.json", {
        "circumference": 4, "z2": 0.1, "z1": [0.2, 0.5], "loops": loops})
    out = tmp_path / "scaling"
    assert run_cli(["bffm-scaling", "--config", cfg, "--out", str(out)]) == 0
    solves = [tnet.dominant_eigenpair(tnet.cylinder_transfer(z1, 0.1, 4),
                                      compute_lam1=False) for z1 in (0.2, 0.5)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["boundaries"] == {
        "iterations": sum(b.iterations for b in solves),
        "max_residual_ratio": max(b.residual / b.lam0 for b in solves)}
    assert_records_tn_seconds(manifest)
    assert list(read_csv(str(out / "bffm_scaling.csv"))) == [
        "z1", "z2", "perimeter", "shape", "bffm_z", "bffm_x"]


def test_tn_manifest_residual_is_relative_to_lam0(tmp_path):
    # on the unprojected network lam0 grows far beyond 1 with z; each
    # solve stops below DEFAULT_TOL * lam0, and the manifest reads so
    z1s, z2s = [1.0, 2.0], [1.0, 2.0]
    cfg = write_config(tmp_path, "grid.json", {
        "circumference": 4, "projected": False, "z1": z1s, "z2": z2s})
    out = tmp_path / "grid"
    assert run_cli(["tn-grid", "--config", cfg, "--out", str(out)]) == 0
    solves = [tnet.dominant_eigenpair(tnet.cylinder_transfer(z1, z2, 4,
                                                             False))
              for z1 in z1s for z2 in z2s]
    assert max(b.residual for b in solves) > 1.0
    boundaries = json.loads((out / "manifest.json").read_text())["boundaries"]
    assert 0.0 < boundaries["max_residual_ratio"] <= 1.01 * tnet.DEFAULT_TOL


def test_tn_grid_rejects_z1_that_does_not_increase(tmp_path):
    # np.gradient over an unsorted or repeated z1 grid wrote wrong-signed,
    # inf or nan dn_dz1 and exited 0
    for i, z1 in enumerate(([0.4, 0.2, 0.3], [0.2, 0.2, 0.3],
                            {"min": 0.4, "max": 0.2, "num": 3})):
        cfg = write_config(tmp_path, "c%d.json" % i, {
            "circumference": 2, "z1": z1, "z2": [0.3]})
        out = tmp_path / ("out%d" % i)
        assert run_cli(["tn-grid", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "grid.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "strictly increasing" in manifest["error"]


def test_verify_pass_perturb_missing(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 12, "lambda": [0.7, 1.1]})
    out = str(tmp_path / "out")
    assert run_cli(["gs-scan", "--config", cfg, "--out", out]) == 0
    golden = tmp_path / "golden"
    golden.mkdir()
    shutil.copy(os.path.join(out, "gs_scan.csv"), golden / "gs_scan.csv")

    vcfg = write_config(tmp_path, "v.json", {
        "golden_dir": str(golden), "compare_dir": out})
    vout = str(tmp_path / "vout")
    assert run_cli(["verify", "--config", vcfg, "--out", vout]) == 0
    report = json.loads(open(os.path.join(vout, "verify_report.json")).read())
    assert report["passed"] == ["gs_scan.csv"]

    # perturb one number beyond tolerance
    lines = (golden / "gs_scan.csv").read_text().split("\n")
    parts = lines[1].split(",")
    parts[1] = "%.17g" % (float(parts[1]) + 1e-3)
    lines[1] = ",".join(parts)
    (golden / "gs_scan.csv").write_text("\n".join(lines))
    assert run_cli(["verify", "--config", vcfg,
                    "--out", str(tmp_path / "v2")]) == 2

    # missing output file
    vcfg2 = write_config(tmp_path, "v2.json", {
        "golden_dir": str(golden), "compare_dir": str(tmp_path / "nowhere")})
    assert run_cli(["verify", "--config", vcfg2,
                    "--out", str(tmp_path / "v3")]) == 2


def test_config_errors_exit_2(tmp_path):
    bad = write_config(tmp_path, "bad.json", {
        "n_atoms": 12, "sweep_times": [3.0],
        "stage_times": [1.0, 1.0, 2.0]})
    out = str(tmp_path / "out")
    assert run_cli(["sweep", "--config", bad, "--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "sweep.csv"))
    # the error is raised inside the verb, after the manifest was written
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["status"] == "failed"
    assert "stage_times" in manifest["error"]

    notjson = tmp_path / "nj.json"
    notjson.write_text("{broken")
    assert run_cli(["gs-scan", "--config", str(notjson),
                    "--out", str(tmp_path / "o2")]) == 2

    missing = write_config(tmp_path, "m.json", {"n_atoms": 12})
    assert run_cli(["gs-scan", "--config", missing,
                    "--out", str(tmp_path / "o3")]) == 2

    # keys that used to run another mode: any tee source but "ansatz" ran
    # a sweep, and an x loop on the unprojected network wrote NaNs
    for verb, cfg, key in (
            ("tee", {"n_atoms": 36, "source": "sweeps"}, "source"),
            ("tn-grid", {"circumference": 2, "projected": False,
                         "z1": [0.2, 0.3], "z2": [0.3],
                         "loop_x": {"shape": "hexagon", "radius": 1}},
             "loop_x")):
        out = tmp_path / verb
        assert run_cli([verb, "--config", write_config(tmp_path, key, cfg),
                        "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and key in manifest["error"]


def test_sweep_rejects_total_time(tmp_path):
    # each sweep lasts one of its sweep_times, so total_time is not read
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 12, "sweep_times": [3.0], "total_time": 999})
    out = str(tmp_path / "out")
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)


def test_unknown_config_keys_exit_2(tmp_path):
    # keys of an older tn-grid, a misspelt key and a loop's former "kind"
    # key all stop the run before it writes anything
    base = {"circumference": 2, "z1": [0.2, 0.3], "z2": [0.3]}
    for i, (extra, key) in enumerate((
            ({"fd": "local", "fd_step": 0.5}, "fd"),
            ({"circumferance": 4}, "circumferance"),
            ({"loop_x": {"shape": "hexagon", "radius": 1,
                         "kind": "diagonal"}}, "loop_x.kind"))):
        cfg = write_config(tmp_path, "c%d.json" % i, dict(base, **extra))
        out = str(tmp_path / ("out%d" % i))
        assert run_cli(["tn-grid", "--config", cfg, "--out", out]) == 2
        assert not os.path.exists(out)
        with pytest.raises(cli.ConfigError, match=key.replace(".", r"\.")):
            cli.check_keys("tn-grid", dict(base, **extra))
    # solver settings are the library's defaults, not config keys
    retired = {"sweep": ("dt_max", "local_tol"),
               "tee": ("dt_max", "local_tol"),
               "fit": ("dt_max", "local_tol", "tol", "max_evals"),
               "gs-scan": ("tol", "dlambda"),
               "tn-grid": ("tol", "compute_xi"),
               "bffm-scaling": ("tol",)}
    assert sum(map(len, retired.values())) == 13
    for verb, keys in retired.items():
        for key in keys:
            cfg = write_config(tmp_path, "r.json", {key: 1})
            out = tmp_path / ("%s_%s" % (verb, key))
            assert run_cli([verb, "--config", cfg, "--out", str(out)]) == 2
            assert not out.exists()
            with pytest.raises(cli.ConfigError, match=key):
                cli.check_keys(verb, {key: 1})
    for name, (verb, cfg) in cli.EXPERIMENT_DEFAULTS.items():
        cli.check_keys(verb, cfg)
    # keys that only another source of the verb's states reads, and a
    # source given to a verb with only one
    sweep = {"total_time": 5, "protocol": "two_stage"}
    for i, (verb, cfg, key) in enumerate((
            ("fit", dict(sweep, n_atoms=12, delta_over_omega=[1.0]),
             "protocol, total_time"),
            ("tee", dict(sweep, n_atoms=36, source="sweep",
                         checkpoint_times=[1.0], points=[{"label": "rvb"}]),
             "points"),
            ("tee", dict(sweep, n_atoms=36, points=[{"label": "rvb"}],
                         checkpoint_times=[1.0], model="pxp"),
             "checkpoint_times, model, protocol, total_time"),
            ("sweep", {"n_atoms": 12, "sweep_times": [1.0],
                       "source": "sweep"}, "source"))):
        out = tmp_path / ("source%d" % i)
        assert run_cli([verb, "--config", write_config(tmp_path, "s.json", cfg),
                        "--out", str(out)]) == 2
        assert not out.exists()
        with pytest.raises(cli.ConfigError, match=key + "$"):
            cli.check_keys(verb, cfg)


def test_experiment_name_validation(tmp_path):
    assert run_cli(["sweep", "--experiment", "no_such_experiment",
                    "--out", str(tmp_path / "o")]) == 2
    # fig1c_scan belongs to gs-scan, not sweep
    assert run_cli(["sweep", "--experiment", "fig1c_scan",
                    "--out", str(tmp_path / "o2")]) == 2
    assert run_cli(["gs-scan", "--out", str(tmp_path / "o3")]) == 2


def test_manifest_written_before_outputs(tmp_path):
    # a run that fails mid-verb leaves a 'failed' manifest with its error;
    # only a killed run is left 'running'.  N = 6 has an odd number of
    # kagome vertices, so no dimer cover and no RVB state to sweep to
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 6, "sweep_times": [2.0]})
    out = str(tmp_path / "out")
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 1
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["status"] == "failed"
    assert manifest["error"] == (
        "BasisError: cover set is empty; no RVB state exists")
    assert manifest["outputs"] == {}


def test_gs_scan_rejects_lambda_that_does_not_increase(tmp_path):
    # a configuration error, exit 2, as tn-grid's z1 grid; the scan never
    # starts
    for i, lam in enumerate(([0.9, 0.5], [0.5, 0.5, 0.9],
                             {"min": 0.9, "max": 0.5, "num": 3})):
        cfg = write_config(tmp_path, "c%d.json" % i, {
            "n_atoms": 12, "lambda": lam})
        out = tmp_path / ("out%d" % i)
        assert run_cli(["gs-scan", "--config", cfg, "--out", str(out)]) == 2
        assert sorted(os.listdir(out)) == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == (
            "ConfigError: lambda must be strictly increasing")


def test_sweep_manifests_record_the_symmetric_sector(tmp_path, op12):
    # per size: the basis dim, the symmetry group's order, and the dim,
    # flip nnz and build time of the fully symmetric sector the sweeps ran
    # in; the CSVs do not change
    n12 = sizes_of(op12, 12, 8)
    assert (n12["sector_dim"], n12["sector_nnz"]) == (11, 28)
    cfg = write_config(tmp_path, "s.json", {
        "sizes": [12, 24], "sweep_times": [1.0], "n_samples": 5})
    out = tmp_path / "sweep"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sector_sizes(manifest) == [n12, N24_SECTOR]
    assert sorted(manifest["outputs"]) == ["sweep.csv"]
    cfg = write_config(tmp_path, "f.json", {
        "n_atoms": 12, "delta_over_omega": [1.0], "total_time": 5.0})
    out = tmp_path / "fit"
    assert run_cli(["fit", "--experiment", "fig2_fit_sweep_T25",
                    "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sector_sizes(manifest) == [n12]


def test_sweeps_never_build_the_full_flip(tmp_path, monkeypatch, cluster12,
                                         basis12, rvb12, cluster24, basis24):
    # sweeps and ground states work in the fully symmetric block, whose
    # flip is built from the orbit representatives; the full basis' flip
    # waits for a full-basis apply, and is built once
    full_builds = []
    build = model._flip_matrix

    def counting(basis, orbits=None):
        if orbits is None:
            full_builds.append(basis.dim)
        return build(basis, orbits)

    monkeypatch.setattr(model, "_flip_matrix", counting)
    op = HamiltonianOperator(HamiltonianSpec(), basis12, cluster12)
    evolve_sweep(op, SweepSchedule.default_protocol(1.0), rvb=rvb12,
                 n_samples=5)
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 12, "sweep_times": [1.0], "n_samples": 5})
    assert run_cli(["sweep", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
    # the dense branch at N = 12 (11 orbits) and 24 (74), and ARPACK on
    # the full model at N = 24 (1474)
    groundstate(op, 1.0, 1.2)
    groundstate(op, 0.0, 1.2)
    groundstate(HamiltonianOperator(HamiltonianSpec(), basis24, cluster24),
                1.0, 1.2)
    spec = model.full_rydberg_spec()
    groundstate(HamiltonianOperator(spec, enumerate_basis(constraint_graph(
        cluster24, spec.constraint_radius)), cluster24), 1.0, 1.2)
    cfg = write_config(tmp_path, "g.json", {"n_atoms": 12,
                                            "lambda": [0.6, 0.8]})
    assert run_cli(["gs-scan", "--config", cfg,
                    "--out", str(tmp_path / "scan")]) == 0
    cfg = write_config(tmp_path, "f.json", {
        "n_atoms": 12, "delta_over_omega": [0.8, 1.2]})
    assert run_cli(["fit", "--config", cfg,
                    "--out", str(tmp_path / "fit")]) == 0
    assert full_builds == []
    for _ in range(2):
        op.apply(np.ones(op.dim), 1.0, 0.0)
    assert full_builds == [basis12.dim]


def test_sweep_sizes_without_n_atoms(tmp_path):
    # a config with "sizes" needs no "n_atoms" (fig1d_sweep, figS1); N = 6
    # has an odd number of kagome vertices and so no RVB state to sweep to
    cfg = write_config(tmp_path, "c.json", {
        "sizes": [12, 24], "sweep_times": [2.0], "n_samples": 10})
    out = str(tmp_path / "out")
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
    cols = read_csv(os.path.join(out, "sweep.csv"))
    assert list(cols["n_atoms"]) == [12, 24]
    assert list(cols["total_time"]) == [2.0, 2.0]


@pytest.mark.parametrize("verb, cfg, keys", [
    # two keys that each choose the cluster: the run used one and ignored
    # the other, and labelled a 12-atom row with n_atoms 24
    ("sweep", {"sizes": [12, 24], "cells": [2, 1], "sweep_times": [1.0]},
     ("sizes", "cells")),
    ("sweep", {"sizes": [12, 24], "n_atoms": 24, "sweep_times": [1.0]},
     ("sizes", "n_atoms")),
    ("cluster", {"cells": [2, 1], "n_atoms": 24}, ("cells", "n_atoms")),
    ("gs-scan", {"cells": [2, 1], "n_atoms": 24, "lambda": [0.5]},
     ("cells", "n_atoms")),
    ("sweep", {"cells": [2, 1], "n_atoms": 24, "sweep_times": [1.0]},
     ("cells", "n_atoms")),
    ("fit", {"cells": [2, 1], "n_atoms": 24, "delta_over_omega": [1.0]},
     ("cells", "n_atoms")),
    # the name is checked before stage_times; it used to set delta1 = 3.5
    ("sweep", {"n_atoms": 12, "sweep_times": [2.0], "protocol": "bogus",
               "stage_times": [0.2, 1.6, 0.2]}, ("protocol",)),
    # Delta = 1/lambda is infinite at lambda = 0: ARPACK failed, exit 1
    ("gs-scan", {"n_atoms": 12, "lambda": [0.0, 0.5]}, ("lambda",)),
    ("gs-scan", {"n_atoms": 12, "lambda": [-0.001, 0.5]}, ("lambda",))])
def test_keys_that_cannot_run_together_exit_2(tmp_path, verb, cfg, keys):
    out = tmp_path / "out"
    assert run_cli([verb, "--config", write_config(tmp_path, "c.json", cfg),
                    "--out", str(out)]) == 2
    assert sorted(os.listdir(out)) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("ConfigError: ")
    for key in keys:
        assert key in manifest["error"]


def test_sweep_size_without_a_preset_fails(tmp_path):
    # int(24.5) once swept the 24-atom cluster and labelled its row 24.5
    cfg = write_config(tmp_path, "c.json", {
        "sizes": [24.5], "sweep_times": [1.0]})
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert sorted(os.listdir(out)) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == "GeometryError: no preset with 24.5 atoms"


def test_sweep_with_a_single_stage(tmp_path):
    # stage_times (T, 0, 0) once made Omega NaN near T, and the run exit 1
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 12, "sweep_times": [4.0], "stage_times": [4.0, 0.0, 0.0],
        "n_samples": 10})
    out = str(tmp_path / "out")
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
    cols = read_csv(os.path.join(out, "sweep.csv"))
    assert np.all(np.isfinite(cols["final_overlap"]))


def test_golden_directories_are_named_experiments():
    golden_dir = os.path.join(os.path.dirname(__file__), os.pardir,
                              "goldens")
    names = set(os.listdir(golden_dir))
    # the acceptance tests also read these, which no run has produced yet
    names |= {"fig2_fit", "fig3a_density", "fig2_fit_sweep_T25",
              "fig2_fit_sweep_T50", "fig2_fit_sweep_T90"}
    assert names <= set(cli.EXPERIMENT_DEFAULTS)


def test_golden_manifest_configs_pass_check_keys():
    golden_dir = os.path.join(os.path.dirname(__file__), os.pardir,
                              "goldens")
    names = sorted(os.listdir(golden_dir))
    assert names
    for name in names:
        with open(os.path.join(golden_dir, name, "manifest.json")) as fh:
            manifest = json.load(fh)
        verb = cli.EXPERIMENT_DEFAULTS[name][0]
        cli.check_keys(verb, manifest["config"])


def assert_records_one_sweep(manifest, traj, n_atoms):
    """The manifest's one sweep entry holds the counters of ``traj``."""
    [record] = manifest["sweep"]
    assert 0.0 <= record.pop("propagation_s") <= manifest["wall_clock_s"]
    assert record == {"n_atoms": n_atoms, "sweeps": 1,
                      "n_steps": traj.n_steps, "matvecs": traj.matvecs,
                      "krylov_error": traj.krylov_error}


def test_fit_sweep_experiment_reaches_its_ratios(tmp_path, op12):
    # fig2_fit_sweep_T* at N = 12: the sweep passes every ratio of the grid,
    # and the manifest records its solver counters
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 12, "delta_over_omega": [1.0, 2.4], "total_time": 5.0})
    out = tmp_path / "out"
    assert run_cli(["fit", "--experiment", "fig2_fit_sweep_T25",
                    "--config", cfg, "--out", str(out)]) == 0
    cols = read_csv(str(out / "fits.csv"))
    assert np.allclose(cols["delta_over_omega"], [1.0, 2.4])
    schedule = SweepSchedule.two_stage_protocol(5.0, -5.0, 3.5)
    traj = evolve_sweep(op12, schedule, checkpoints=[
        schedule.time_at_detuning_ratio(r) for r in (1.0, 2.4)])
    assert_records_one_sweep(json.loads((out / "manifest.json").read_text()),
                             traj, 12)


def test_verify_compares_number_lists_and_non_finite_cells(tmp_path):
    golden, out = tmp_path / "golden", tmp_path / "out"
    golden.mkdir()
    out.mkdir()
    (golden / "t.csv").write_text(
        "label,x,top\nrvb,inf,0.25;0.125\nvac,nan,0.5\n")

    def report(row1, row2):
        (out / "t.csv").write_text("label,x,top\n%s\n%s\n" % (row1, row2))
        return cli.verify_goldens(str(out), str(golden))

    ok = report("rvb,inf,0.25000000000000006;0.125", "vac,nan,0.5")
    assert ok["passed"] == ["t.csv"]
    for row1, row2 in (("rvb,inf,0.2501;0.125", "vac,nan,0.5"),
                       ("rvb,inf,0.25", "vac,nan,0.5"),
                       ("rvb,inf,0.25;0.125", "vac,1.0,0.5"),
                       ("rvb,3.0,0.25;0.125", "vac,nan,0.5"),
                       ("rvb,inf,0.25;0.125", "liq,nan,0.5")):
        assert report(row1, row2)["failed"], (row1, row2)


def test_tee_rerun_matches_golden(tmp_path):
    # the golden was written at one BLAS thread, and a multithreaded BLAS
    # sums the Gram matrices in another order; so the rerun gets a process
    # whose BLAS starts with one thread
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "rvbprep.cli", "tee",
                    "--experiment", "fig3c_tee", "--out", str(out)],
                   env=env, check=True, capture_output=True)
    for name in ("entropies.csv", "gamma.json"):
        with open(golden_path("fig3c_tee", name), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name
    # the manifest records the threads each loaded OpenBLAS copy runs
    blas = json.loads((out / "manifest.json").read_text())[
        "environment"]["openblas"]
    assert blas and [lib["threads"] for lib in blas] == [1] * len(blas)


def test_tee_sweep_source(tmp_path, monkeypatch, cluster24, basis24):
    # a 24-atom cluster with three disjoint regions stands in for the
    # 36-atom TEE cluster, whose sweeps take tens of seconds
    regions = (range(0, 6), range(6, 12), range(12, 18))
    monkeypatch.setattr(cli, "tee_cluster", lambda n_atoms: cluster24)
    monkeypatch.setattr(cli, "kitaev_preskill_regions",
                        lambda cluster: regions)
    checks = [0.5, 1.25, 2.0]
    cfg = write_config(tmp_path, "c.json", {
        "n_atoms": 24, "source": "sweep", "total_time": 2.0,
        "checkpoint_times": checks})
    out = tmp_path / "out"
    assert run_cli(["tee", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "gamma_sweep.csv").read_text().splitlines()
    assert lines[0] == "t,gamma_raw,gamma_abs"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    op = HamiltonianOperator(HamiltonianSpec(), basis24, cluster24)
    traj = evolve_sweep(op, SweepSchedule.default_protocol(2.0),
                        checkpoints=checks)

    def gamma(psi):
        return entangle.topological_entropy_report(psi, regions).gamma

    assert rows == [[t, gamma(traj.snapshots[t]),
                     gamma(abs_state(traj.snapshots[t]))] for t in checks]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sector_sizes(manifest) == [N24_SECTOR]
    assert_records_one_sweep(manifest, traj, 24)
