import json
from dataclasses import asdict

import numpy as np
import pytest

from nslsq import cli, newton
from nslsq.cli import (
    ConfigError,
    ExperimentConfig,
    lid_profile,
    main,
    parse_config,
    run_experiment,
    stream_function,
    write_vtk,
)
from nslsq.linalg import FILL_RATIO
from conftest import (
    LOOP_FAILURES,
    eliminate_dirichlet,
    fail_second_call,
    linear_field,
    tenfold_start,
)

MINIMAL = """\
[experiment]
geometry = semidisk
nu = 1/500
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.nu == pytest.approx(1 / 500)
    assert cfg.m == 2.0
    assert cfg.tol == 1e-8
    assert cfg.policy == "quartic"
    assert cfg.variant == "E"
    assert cfg.schedule is None


def test_parse_schedule():
    cfg = parse_config(MINIMAL + "schedule = 1/500, 1/1000\n")
    assert cfg.schedule == [pytest.approx(1 / 500), pytest.approx(1 / 1000)]
    assert cfg.nu == pytest.approx(1 / 1000)  # target viscosity is the last


def test_every_key_round_trips():
    """Every ``ExperimentConfig`` key, each set off its default and written
    as INI text, parses back to the same config."""
    want = ExperimentConfig(geometry="meshes/disk", h=0.1, T=1.0, dt=0.25, nu=0.01,
                            m=1.5, tol=1e-6, policy="cheap", variant="Etilde",
                            schedule=[0.02, 0.01], outdir="elsewhere",
                            snapshots=[0.5, 1.0])
    default = ExperimentConfig()
    lines = ["[experiment]"]
    for key, value in asdict(want).items():
        assert value != getattr(default, key), key
        text = ", ".join(map(repr, value)) if isinstance(value, list) else value
        lines.append(f"{key} = {text}")
    assert parse_config("\n".join(lines) + "\n") == want


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'viscosity'"):
        parse_config(MINIMAL + "viscosity = 2\n")


BAD_VALUES = [("nu", "abc"), ("dt", "0"), ("dt", "-0.02"), ("T", "inf"),
              ("schedule", ","), ("schedule", "1/500, nan"), ("nu", "nan"),
              ("nu", "inf"), ("tol", "nan"), ("tol", "inf"), ("m", "inf"),
              ("m", "nan"), ("h", "nan"), ("h", "inf")]


def test_parse_rejects_bad_value():
    """Unparsable, non-finite and degenerate values, and a schedule on the
    manufactured unit square (which never runs continuation), name the key."""
    for key, text in BAD_VALUES:
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            parse_config(f"[experiment]\ngeometry = semidisk\n{key} = {text}\n")
    with pytest.raises(ConfigError, match="key 'schedule'"):
        parse_config("[experiment]\ngeometry = unit_square\nschedule = 0.2, 0.1\n")


def test_dt_must_divide_T():
    with pytest.raises(ConfigError, match="0.3.*does not divide.*1.0"):
        parse_config(MINIMAL + "T = 1.0\ndt = 0.3\n")


def test_schedule_must_decrease():
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(MINIMAL + "schedule = 1/500, 1/400\n")


def test_invalid_policy_and_variant():
    with pytest.raises(ConfigError, match="policy"):
        parse_config(MINIMAL + "policy = bogus\n")
    with pytest.raises(ConfigError, match="variant"):
        parse_config(MINIMAL + "variant = F\n")


def test_snapshot_range_validated():
    with pytest.raises(ConfigError, match="snapshot"):
        parse_config(MINIMAL + "T = 1.0\ndt = 0.5\nsnapshots = 3.0\n")


def test_lid_profile_matches_stated_form():
    assert lid_profile(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-12)
    assert lid_profile(np.array([-0.5]))[0] == pytest.approx(0.0, abs=1e-12)
    assert lid_profile(np.array([0.0]))[0] == pytest.approx((1 - np.exp(-50)) ** 2)


def test_stream_function_zero_velocity(square2):
    psi = stream_function(square2, np.zeros(square2.n_velocity))
    assert np.abs(psi).max() == 0.0


def test_stream_function_rigid_rotation_dense_oracle(square2):
    """u = (-y, x): the weak vorticity equals -2 against interior tests;
    compare the sparse path to a dense solve of the same reduced system."""
    from nslsq.fem import vorticity_load

    u = linear_field(square2, (0.0, 0.0, -1.0), (0.0, 1.0, 0.0))
    psi = stream_function(square2, u)
    matrix, _ = eliminate_dirichlet(square2.scalar_stiffness, square2.boundary_nodes)
    b = vorticity_load(square2, u)
    b[square2.boundary_nodes] = 0.0
    dense = np.linalg.solve(matrix.toarray(), b)
    assert np.abs(psi - dense).max() < 1e-8
    assert np.abs(psi[square2.boundary_nodes]).max() == 0.0
    interior = np.setdiff1d(np.arange(square2.n_scalar), square2.boundary_nodes)
    assert psi[interior].max() < 0.0  # -Lap(psi) = -2 pushes psi negative


def test_write_vtk_geometry_only(square1, tmp_path):
    path = tmp_path / "geo.vtk"
    write_vtk(square1, {}, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    k = text.index(f"POINTS {square1.n_scalar} double")
    assert k > 0
    ncells = 4 * square1.mesh.n_triangles
    assert f"CELLS {ncells} {4 * ncells}" in text
    assert "POINT_DATA" not in path.read_text()


def test_write_vtk_velocity_exact_nodal_values(square2, tmp_path):
    rng = np.random.default_rng(21)
    u = rng.standard_normal(square2.n_velocity)
    path = tmp_path / "vel.vtk"
    write_vtk(square2, {"velocity": u, "marker": np.arange(square2.n_pressure,
                                                           dtype=float)}, path)
    lines = path.read_text().splitlines()
    start = lines.index("VECTORS velocity double") + 1
    vals = np.array([[float(t) for t in lines[start + i].split()]
                     for i in range(square2.n_scalar)])
    assert np.array_equal(vals[:, 0], u[: square2.n_scalar])
    assert np.array_equal(vals[:, 1], u[square2.n_scalar:])
    assert np.abs(vals[:, 2]).max() == 0.0
    # P1 field extended to midpoints by edge averaging
    mstart = lines.index("SCALARS marker double 1") + 2
    marker = np.array([float(lines[mstart + i]) for i in range(square2.n_scalar)])
    e = square2.edges
    expected = 0.5 * (marker[e[:, 0]] + marker[e[:, 1]])
    assert np.abs(marker[square2.mesh.n_vertices:] - expected).max() < 1e-12


def _vtk_text_per_value(space, fields) -> str:
    """The VTK text of ``write_vtk`` with every number formatted on its
    own: ``repr(float(x))`` of each numpy scalar."""
    n, t = space.n_scalar, space.tri_p2
    sub = np.vstack([t[:, [0, 3, 5]], t[:, [1, 4, 3]], t[:, [2, 5, 4]], t[:, [3, 4, 5]]])
    lines = ["# vtk DataFile Version 3.0", "nslsq fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double"]
    lines += [f"{float(x)!r} {float(y)!r} 0.0" for x, y in space.p2_coords]
    lines.append(f"CELLS {len(sub)} {4 * len(sub)}")
    lines += [f"3 {a} {b} {c}" for a, b, c in sub]
    lines += [f"CELL_TYPES {len(sub)}"] + ["5"] * len(sub) + [f"POINT_DATA {n}"]
    for name, values in fields.items():
        if len(values) == space.n_velocity:
            lines.append(f"VECTORS {name} double")
            lines += [f"{float(vx)!r} {float(vy)!r} 0.0"
                      for vx, vy in zip(values[:n], values[n:])]
            continue
        if len(values) == space.n_pressure:
            mid = 0.5 * (values[space.edges[:, 0]] + values[space.edges[:, 1]])
            values = np.concatenate([values, mid])
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [repr(float(v)) for v in values]
    return "\n".join(lines) + "\n"


def test_write_vtk_bytes_match_per_value_formatting(square2, tmp_path):
    """``write_vtk`` writes the bytes of formatting every coordinate, cell
    index and value as its own Python number: a velocity, a P2 scalar and
    a P1 field with values of every magnitude."""
    rng = np.random.default_rng(22)

    def values(size):
        return rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)

    fields = {"velocity": values(square2.n_velocity), "psi": values(square2.n_scalar),
              "pressure": values(square2.n_pressure)}
    path = tmp_path / "fields.vtk"
    write_vtk(square2, fields, path)
    assert path.read_bytes() == _vtk_text_per_value(square2, fields).encode()


TINY = """\
[experiment]
geometry = semidisk
h = 0.2
T = 0.4
dt = 0.1
nu = 1/100
snapshots = 0.2, 0.4
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = parse_config(TINY + f"outdir = {out}\n")
    report = run_experiment(cfg)
    return cfg, report, out


def test_run_experiment_outputs(tiny_run):
    cfg, report, out = tiny_run
    assert report.converged
    assert report.final_sqrt2E <= cfg.tol
    csv = (out / "history.csv").read_text().splitlines()
    assert csv[0] == "k,rel_increment,sqrt2E,lambda"
    assert len(csv) - 1 == report.records[-1]["k"] + 1  # k=0 row included
    assert (out / "report.txt").exists()
    assert (out / "mesh.node").exists() and (out / "mesh.ele").exists()
    assert (out / "snapshot_t0.2.vtk").exists()
    assert (out / "snapshot_t0.4.vtk").exists()


def test_report_records_carry_the_prediction(tiny_run):
    """Every ``report.txt`` record carries the quartic's prediction of its
    ``sqrt2E`` from the row before (none at k = 0); ``history.csv`` keeps
    its four columns."""
    _, report, out = tiny_run
    records = json.loads((out / "report.txt").read_text())["records"]
    assert records == report.records and len(records) >= 2
    assert records[0]["predicted_sqrt2E"] is None
    for prev, row in zip(records, records[1:]):
        gap = abs(row["sqrt2E"] - row["predicted_sqrt2E"])
        assert gap <= 1e-9 * (row["sqrt2E"] + prev["sqrt2E"])
    csv = (out / "history.csv").read_text().splitlines()
    assert all(line.count(",") == 3 for line in csv)


def test_report_counts_match_mesh(tiny_run):
    cfg, report, out = tiny_run
    from nslsq.cli import build_mesh

    mesh = build_mesh(cfg)
    assert report.n_triangles == mesh.n_triangles
    assert report.n_vertices == mesh.n_vertices
    data = json.loads((out / "report.txt").read_text())
    assert data["n_triangles"] == mesh.n_triangles
    assert data["outcome"] == "converged"
    # every direction level is factorized or solved on a held LU: N = 4
    counts = data["solver_counts"]
    assert counts.keys() == {"heat", "stokes", "linearized", "lagged",
                             "krylov_iterations"}
    assert counts["heat"] == counts["stokes"] == 1
    assert counts["linearized"] + counts["lagged"] == 4 * report.records[-1]["k"]


def test_report_records_peak_rss(tiny_run):
    """``report.txt`` carries the run's peak RSS in MB: positive, and no
    more than the process's peak afterwards."""
    _, report, out = tiny_run
    peak = json.loads((out / "report.txt").read_text())["peak_rss_mb"]
    assert peak == report.peak_rss_mb
    assert 0 < peak <= cli.peak_rss_mb()


def test_report_records_heat_and_stokes_fill(tiny_run):
    _, report, out = tiny_run
    fill = json.loads((out / "report.txt").read_text())["lu_nnz"]
    assert fill == report.lu_nnz
    assert fill.keys() == {"heat", "stokes"}
    assert fill["heat"] > 0 and fill["stokes"] > 0


def test_report_records_held_linearized_lu(tiny_run):
    """``report.txt`` names the ordering the linearized pattern holds and
    the fill of the LU that made it: on the semi-disk the first LU's
    COLAMD, which the fill rule keeps."""
    _, report, out = tiny_run
    held = json.loads((out / "report.txt").read_text())["linearized_lu"]
    assert held == report.linearized_lu
    assert held["ordering"] == "colamd"
    assert 0 < held["lu_nnz"] <= FILL_RATIO * report.lu_nnz["heat"]


def test_snapshots_share_one_stream_lu(tmp_path, monkeypatch):
    """A run with two snapshots factorizes the stream operator once, and
    each snapshot file is byte for byte the one written with a stream
    function of its own."""
    from nslsq import linalg

    labels, results = [], []
    factorize, solve = linalg.EliminatedPattern.factorize, cli.damped_newton_solve

    def record_label(self, matrix, label):
        labels.append(label)
        return factorize(self, matrix, label)

    def keep_result(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(linalg.EliminatedPattern, "factorize", record_label)
    monkeypatch.setattr(cli, "damped_newton_solve", keep_result)
    cfg = parse_config(TINY + f"outdir = {tmp_path}\n")
    run_experiment(cfg)
    assert labels.count("stream") == 1
    space = results[0].ops.space
    for t in cfg.snapshots:
        u = results[0].trajectory.values[round(t / cfg.dt)]
        write_vtk(space, {"velocity": u, "stream_function": stream_function(space, u)},
                  tmp_path / "alone.vtk")
        written = (tmp_path / f"snapshot_t{t:.6g}.vtk").read_bytes()
        assert written == (tmp_path / "alone.vtk").read_bytes()


def test_determinism_bit_identical_history(tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = parse_config(TINY + f"outdir = {tmp_path / name}\n")
        run_experiment(cfg)
        outs.append((tmp_path / name / "history.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_external_mesh_round_trip(tmp_path):
    """The prefix may hold a dot, as a mesh size gives one: the mesh is
    read from ``<prefix>.node`` and ``<prefix>.ele``."""
    from nslsq.cli import build_mesh
    from nslsq.mesh import generate_semidisk, write_triangle_format

    mesh = generate_semidisk(0.2)
    node, ele = write_triangle_format(mesh)
    (tmp_path / "disk_h0.2.node").write_text(node)
    (tmp_path / "disk_h0.2.ele").write_text(ele)
    cfg = ExperimentConfig(geometry=str(tmp_path / "disk_h0.2"), T=0.2, dt=0.1,
                           nu=0.01, outdir=str(tmp_path / "out"))
    back = build_mesh(cfg)
    assert back.n_triangles == mesh.n_triangles
    report = run_experiment(cfg)
    assert report.converged


def test_manufactured_unit_square_reports_rate(tmp_path):
    cfg = ExperimentConfig(geometry="unit_square", h=1 / 3, T=0.25, dt=0.125,
                           nu=0.5, outdir=str(tmp_path / "sq"))
    report = run_experiment(cfg)
    assert report.converged
    assert report.convergence_rate is not None
    assert len(report.errors) == 2
    assert report.errors[1] < report.errors[0]


def test_main_mesh_subcommand(tmp_path, capsys):
    rc = main(["mesh", "unit_square", "--h", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "mesh.node").exists()
    assert "vertices" in capsys.readouterr().out


def test_main_run_with_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(TINY)
    rc = main(["run", str(cfg_path), "--out", str(tmp_path / "o"),
               "--policy", "cheap"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "outcome: converged" in out
    data = json.loads((tmp_path / "o" / "report.txt").read_text())
    assert data["config"]["policy"] == "cheap"


def test_main_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text("[experiment]\ngeometry = semidisk\nnu = -3\n")
    rc = main(["run", str(cfg_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    cfg_path.write_text(MINIMAL)
    rc = main(["run", str(cfg_path), "--schedule", ","])
    assert rc == 1
    assert "key 'schedule'" in capsys.readouterr().err
    # an override is checked as the config key is
    rc = main(["run", str(cfg_path), "--schedule", "1/500, 1/400"])
    assert rc == 1
    assert "decreasing" in capsys.readouterr().err
    # an empty output directory is refused, not read as the current one
    rc = main(["run", str(cfg_path), "--out", ""])
    assert rc == 1
    assert "key 'outdir'" in capsys.readouterr().err
    # a mesh size the generator rejects, and one that is not positive
    for geometry, h in (("semidisk", "0.7"), ("unit_square", "0")):
        rc = main(["mesh", geometry, "--h", h, "--out", str(tmp_path / "m")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


def test_main_run_rejects_mesh_with_unused_vertex(tmp_path, capsys):
    """A Triangle mesh with a vertex that no triangle uses stops at the
    mesh, not at a singular LU of the solve."""
    from nslsq.mesh import generate_unit_square, write_triangle_format

    node, ele = write_triangle_format(generate_unit_square(2))
    lines = node.splitlines()
    nv = int(lines[0].split()[0])
    lines[0] = lines[0].replace(str(nv), str(nv + 1), 1)
    (tmp_path / "sq.node").write_text("\n".join(lines + [f"{nv + 1} 2.0 2.0 0"]) + "\n")
    (tmp_path / "sq.ele").write_text(ele)
    cfg_path = tmp_path / "sq.ini"
    cfg_path.write_text(f"[experiment]\ngeometry = {tmp_path / 'sq'}\nT = 0.2\n"
                        f"dt = 0.1\nnu = 0.1\noutdir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: vertex {nv} belongs to no triangle\n"


def test_main_run_rejects_empty_triangulation(tmp_path, capsys):
    """A Triangle mesh with no triangles stops at the mesh with that
    reason, not at the lid data it has no boundary for."""
    (tmp_path / "none.node").write_text("0 2 0 1\n")
    (tmp_path / "none.ele").write_text("0 3 0\n")
    cfg_path = tmp_path / "none.ini"
    cfg_path.write_text(f"[experiment]\ngeometry = {tmp_path / 'none'}\nT = 0.2\n"
                        f"dt = 0.1\nnu = 0.1\noutdir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: empty triangulation: the mesh has no triangles\n"


def test_main_diverged_exit_code(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(TINY + f"outdir = {tmp_path / 'd'}\n")

    def fake_run(config):
        record = {"k": 3, "sqrt2E": 1e9, "lambda": None, "rel_increment": 0.5}
        return cli.RunReport(config={}, records=[record], final_sqrt2E=1e9,
                             outcome="diverged", converged=False, wall_time=0.1,
                             n_triangles=1, n_vertices=3, n_velocity_dofs=2,
                             peak_rss_mb=1.0)

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    rc = main(["run", str(cfg_path)])
    assert rc == 2


def test_main_line_search_failure_writes_outputs(tmp_path, monkeypatch, capsys):
    """A failed line search at k = 1 still writes the history and report,
    with outcome ``line_search_failed``, and exits 3; so does a direction
    solve that raises ``SolverError`` at k = 1, as ``solver_failed`` with
    the error's message in ``report.txt``."""
    for name, error, outcome in LOOP_FAILURES:
        fail_second_call(monkeypatch, name, error)
        out = tmp_path / outcome
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(TINY + f"outdir = {out}\n")
        assert main(["run", str(cfg_path)]) == 3
        assert f"outcome: {outcome}" in capsys.readouterr().out
        assert len((out / "history.csv").read_text().splitlines()) == 3  # header, k = 0, 1
        report = json.loads((out / "report.txt").read_text())
        assert report["outcome"] == outcome
        assert report["error"] == (None if outcome == "line_search_failed" else str(error))
        monkeypatch.undo()


def test_main_stalled_run_writes_outputs(tmp_path, monkeypatch, capsys):
    """A run whose descent flattens (``conftest.tenfold_start`` on the
    semi-disk) ends as ``stalled``, exits 3 and writes its history and a
    report that gives the outcome and the message."""
    prepare = newton.prepare_problem

    def tenfold(space, grid, nu, **kwargs):
        ops, loads, y0 = prepare(space, grid, nu, **kwargs)
        return ops, loads, tenfold_start(space, y0)

    monkeypatch.setattr(newton, "prepare_problem", tenfold)
    out = tmp_path / "stall"
    cfg_path = tmp_path / "stall.ini"
    cfg_path.write_text("[experiment]\ngeometry = semidisk\nh = 0.2\nT = 1\ndt = 0.1\n"
                        f"nu = 1/500\noutdir = {out}\n")
    assert main(["run", str(cfg_path)]) == 3
    report = json.loads((out / "report.txt").read_text())
    assert report["outcome"] == "stalled"
    assert report["error"].startswith("sqrt(2E) fell by less than a relative")
    printed = capsys.readouterr().out
    assert "outcome: stalled" in printed and f"stalled: {report['error']}" in printed
    rows = (out / "history.csv").read_text().splitlines()
    assert len(rows) == len(report["records"]) + 1 > newton.STALL_ITERATES + 1


def test_history_csv_truncates_on_divergence_schema():
    from nslsq.cli import write_history_csv
    from nslsq.newton import IterationRecord

    recs = [IterationRecord(0, 1.0, 0.5, None, 0.1),
            IterationRecord(1, 2.0, None, 0.2, 0.1)]
    import tempfile

    with tempfile.NamedTemporaryFile("r", suffix=".csv") as f:
        write_history_csv(recs, f.name)
        with open(f.name) as written:
            lines = written.read().splitlines()
    assert lines[1].startswith("0,,") and lines[1].endswith("e-01")
    assert lines[2].split(",")[3] == ""
