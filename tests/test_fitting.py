import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deltaproc import (
    CoverageError,
    SingularFitError,
    TimePartition,
    Trajectory,
    TrajectoryParseError,
    TrajectoryRecord,
    estimate_derivatives,
    evaluate_rhs,
    fit_model,
    fit_piece_general,
    ingest_trajectories,
    write_trajectories,
)
from deltaproc import fitting
from deltaproc.fitting import NEGATIVE, POSITIVE, _parse_header


def scalar_record(t, x, u, dx=None, label="positive", rec_id="r"):
    t = np.asarray(t, dtype=float)
    return TrajectoryRecord(
        id=rec_id,
        label=label,
        t=t,
        x=np.asarray(x, dtype=float).reshape(-1, 1),
        u=np.asarray(u, dtype=float).reshape(-1, 1),
        dx=None if dx is None else np.asarray(dx, dtype=float).reshape(-1, 1),
    )


def endpoint_fit(x_l, x_r, dx_l, dx_r, u):
    """fit_model's (a, b) on a two-sample record: the endpoint conditions alone."""
    rec = scalar_record([0.0, 1.0], [x_l, x_r], [u, u], dx=[dx_l, dx_r])
    (piece,) = fit_model(rec, TimePartition([0.0, 1.0])).pieces
    return piece.A[0, 0], piece.B[0, 0]


def loop_diff_nonuniform(t, y):
    """One sample at a time, the stencils np.gradient takes on a non-uniform grid."""
    m = t.size
    dy = np.empty(m)
    for i in range(1, m - 1):
        h1 = t[i] - t[i - 1]
        h2 = t[i + 1] - t[i]
        dy[i] = (
            -h2 / (h1 * (h1 + h2)) * y[i - 1]
            + (h2 - h1) / (h1 * h2) * y[i]
            + h1 / (h2 * (h1 + h2)) * y[i + 1]
        )
    h1 = t[1] - t[0]
    h2 = t[2] - t[1]
    dy[0] = (
        -(2 * h1 + h2) / (h1 * (h1 + h2)) * y[0]
        + (h1 + h2) / (h1 * h2) * y[1]
        - h1 / (h2 * (h1 + h2)) * y[2]
    )
    h1 = t[-2] - t[-3]
    h2 = t[-1] - t[-2]
    dy[-1] = (
        h2 / (h1 * (h1 + h2)) * y[-3]
        - (h1 + h2) / (h1 * h2) * y[-2]
        + (h1 + 2 * h2) / (h2 * (h1 + h2)) * y[-1]
    )
    return dy


class TestEstimateDerivatives:
    def test_linear(self):
        rec = scalar_record([0.0, 0.1, 0.2], [0.0, 0.1, 0.2], [1.0] * 3)
        out = estimate_derivatives(rec)
        np.testing.assert_allclose(out.dx[:, 0], 1.0, atol=1e-12)

    def test_quadratic_exact(self):
        t = np.array([0.0, 0.1, 0.2])
        rec = scalar_record(t, t**2, [1.0] * 3)
        out = estimate_derivatives(rec)
        np.testing.assert_allclose(out.dx[:, 0], [0.0, 0.2, 0.4], atol=1e-13)

    def test_tan_derivative(self):
        t = np.arange(0.495, 0.5055, 1e-3)
        rec = scalar_record(t, np.tan(t), np.ones_like(t))
        out = estimate_derivatives(rec)
        i = np.argmin(np.abs(t - 0.5))
        assert out.dx[i, 0] == pytest.approx(1.0 / np.cos(0.5) ** 2, abs=1e-4)

    def test_too_few_samples(self):
        rec = scalar_record([0.0, 0.1], [0.0, 0.1], [1.0, 1.0])
        with pytest.raises(ValueError, match="record 'r' has 2 samples: .* a third sample, or dx"):
            estimate_derivatives(rec)

    @pytest.mark.parametrize("m", [3, 4, 17, 8001])
    def test_equals_per_sample_loop(self, m):
        rng = np.random.default_rng(m)
        t = np.cumsum(rng.uniform(0.1, 2.0, size=m))
        x = rng.normal(size=(m, 2))
        rec = TrajectoryRecord(id="r", label="positive", t=t, x=x, u=np.ones((m, 1)))
        dx = estimate_derivatives(rec).dx
        for j in range(2):
            np.testing.assert_array_equal(dx[:, j], loop_diff_nonuniform(t, x[:, j]))

    def test_existing_derivatives_untouched(self):
        rec = scalar_record([0, 0.1, 0.2], [0, 1, 4], [1] * 3, dx=[7, 7, 7])
        out = estimate_derivatives(rec)
        np.testing.assert_allclose(out.dx[:, 0], 7.0)


class TestFitPiece:
    def test_first_benchmark_coefficients(self):
        a, b = endpoint_fit(0.0, 0.5, 0.25, 0.5, 0.5)
        assert (a, b) == pytest.approx((0.5, 0.5))

    def test_second_benchmark_coefficients(self):
        a, b = endpoint_fit(0.5, 1.0, 0.5, 1.25, 0.5)
        assert (a, b) == pytest.approx((1.5, -0.5))

    def test_constant_derivative(self):
        a, b = endpoint_fit(0.0, 1.0, 1.0, 1.0, 1.0)
        assert (a, b) == pytest.approx((0.0, 1.0))

    def test_singular_endpoints(self):
        # coinciding endpoints go to least squares, whose two rows are equal
        with pytest.raises(SingularFitError, match="regressor rank 1 < 2"):
            endpoint_fit(0.5, 0.5, 0.1, 0.2, 1.0)

    def test_zero_control(self):
        with pytest.raises(SingularFitError, match="^piece 0: u_data = 0 leaves"):
            endpoint_fit(0.0, 1.0, 0.5, 1.0, 0.0)

    @given(
        x_l=st.floats(-3.0, 3.0),
        dx_l=st.floats(-3.0, 3.0),
        dx_r=st.floats(-3.0, 3.0),
        gap=st.floats(0.1, 3.0),
        u=st.floats(0.1, 2.0),
    )
    def test_zero_endpoint_residuals(self, x_l, dx_l, dx_r, gap, u):
        x_r = x_l + gap
        a, b = endpoint_fit(x_l, x_r, dx_l, dx_r, u)
        assert a * x_l + b * u == pytest.approx(dx_l, abs=1e-12)
        assert a * x_r + b * u == pytest.approx(dx_r, abs=1e-12)


class TestFitPieceGeneral:
    def test_exact_recovery(self):
        rng = np.random.default_rng(7)
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        B = np.eye(2)
        xs = rng.normal(size=(6, 2))
        us = rng.normal(size=(6, 2))
        dxs = xs @ A.T + us @ B.T
        A_hat, B_hat = fit_piece_general(xs, us, dxs)
        np.testing.assert_allclose(A_hat, A, atol=1e-10)
        np.testing.assert_allclose(B_hat, B, atol=1e-10)

    def test_scalar_reduction_consistency(self):
        xs = np.array([[0.0], [0.5]])
        us = np.array([[0.5], [0.5]])
        dxs = np.array([[0.25], [0.5]])
        A, B = fit_piece_general(xs, us, dxs)
        a, b = endpoint_fit(0.0, 0.5, 0.25, 0.5, 0.5)
        assert A[0, 0] == pytest.approx(a)
        assert B[0, 0] == pytest.approx(b)

    def test_unidentifiable(self):
        xs = np.ones((5, 1))
        us = np.ones((5, 1))
        dxs = np.ones((5, 1))
        with pytest.raises(SingularFitError):
            fit_piece_general(xs, us, dxs)

    def test_fewer_samples_than_regressor_columns(self):
        xs = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularFitError, match=r"^regressor rank 2 < 3"):
            fit_piece_general(xs, np.ones((2, 1)), xs)

    def test_noisy_full_rank_recovery(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 2))
        xs = rng.normal(size=(12, 3))
        us = rng.normal(size=(12, 2))
        dxs = xs @ A.T + us @ B.T
        A_hat, B_hat = fit_piece_general(xs, us, dxs)
        np.testing.assert_allclose(A_hat, A, atol=1e-9)
        np.testing.assert_allclose(B_hat, B, atol=1e-9)


class TestRecord:
    def test_is_a_trajectory(self):
        rec = scalar_record([0.0, 0.5, 1.0], [0.0, 0.2, 0.5], [0.5] * 3)
        assert isinstance(rec, Trajectory)
        assert (rec.n, rec.r, rec.t_end) == (1, 1, 1.0)
        np.testing.assert_array_equal(rec.interp_state([0.25, 1.0]), [[0.1], [0.5]])

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"label": "maybe"}, "label must be positive/negative, got 'maybe'"),
            ({"t": [0.0], "x": [0.0], "u": [0.5]}, "a record needs at least two samples"),
            ({"t": [0.0, 1.0, 1.0]}, "sample times must be strictly increasing"),
        ],
    )
    def test_checks(self, fields, message):
        data = {"id": "a", "label": "positive", "t": [0.0, 1.0, 2.0], "x": [0.0, 0.5, 1.0],
                "u": [0.5] * 3, **fields}
        with pytest.raises(ValueError) as info:
            TrajectoryRecord(**data)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_named(self, bad):
        with pytest.raises(ValueError) as info:
            TrajectoryRecord(
                id="a", label="positive", t=[0.0, 1.0, bad, 3.0], x=[0.0, 0.5, 1.0, 1.5],
                u=[0.5] * 4,
            )
        assert str(info.value) == f"record 'a' has non-finite sample time {bad!r}"


class TestFitModel:
    def test_benchmark_pieces(self):
        rec = scalar_record(
            [0.0, 1.0, 2.0], [0.0, 0.5, 1.0], [0.5] * 3, dx=[0.25, 0.5, 1.25]
        )
        model = fit_model(rec, TimePartition([0.0, 1.0, 2.0]))
        assert model.pieces[0].A[0, 0] == pytest.approx(0.5)
        assert model.pieces[0].B[0, 0] == pytest.approx(0.5)
        assert model.pieces[1].A[0, 0] == pytest.approx(1.5)
        assert model.pieces[1].B[0, 0] == pytest.approx(-0.5)
        np.testing.assert_allclose([p.anchor[0] for p in model.pieces], [0.5, 1.0])

    def test_case4_pieces(self):
        rec = scalar_record([0.0, 1.0, 2.0], [0.0, 0.5, 1.0], [1.0] * 3, dx=[1.0, 1.25, 2.0])
        model = fit_model(rec, TimePartition([0.0, 1.0, 2.0]))
        assert model.pieces[0].A[0, 0] == pytest.approx(0.5)
        assert model.pieces[0].B[0, 0] == pytest.approx(1.0)
        assert model.pieces[1].A[0, 0] == pytest.approx(1.5)
        assert model.pieces[1].B[0, 0] == pytest.approx(0.5)

    def test_single_piece_linear_data(self):
        t = np.linspace(0.0, 1.0, 11)
        rec = scalar_record(t, 2.0 * t, np.ones_like(t))  # dx/dt = 2 = 0*x + 2*u
        model = fit_model(rec, TimePartition([0.0, 1.0]))
        assert model.pieces[0].A[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert model.pieces[0].B[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_coverage_error(self):
        rec = scalar_record([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [1.0] * 3)
        with pytest.raises(CoverageError) as info:
            fit_model(rec, TimePartition([0.0, 1.0, 2.0]))
        assert 2.0 in info.value.uncovered_knots

    def test_negative_label_rejected(self):
        rec = scalar_record(
            [0.0, 1.0, 2.0], [0.0, 0.5, 1.0], [0.5] * 3, dx=[0.25, 0.5, 1.25], label="negative"
        )
        with pytest.raises(ValueError, match="labeled negative"):
            fit_model(rec, TimePartition([0.0, 1.0, 2.0]))

    def test_interpolates_supplied_derivatives(self):
        rec = scalar_record(
            [0.0, 1.0, 2.0], [0.0, 0.5, 1.0], [0.5] * 3, dx=[0.25, 0.5, 1.25]
        )
        model = fit_model(rec, TimePartition([0.0, 1.0, 2.0]))
        for k, piece in enumerate(model.pieces):
            for knot_t in (piece.t_start, piece.t_end):
                x = rec.interp_state(knot_t)
                u = rec.interp_control(knot_t)
                dx = rec.interp_derivative(knot_t)
                assert evaluate_rhs(piece, x, u)[0] == pytest.approx(dx[0], abs=1e-10)

    @staticmethod
    def circle_record(t, nan_at=()):
        """x = (cos t, sin t) under u = 0.5, x1 = nan at the sample times ``nan_at``."""
        t = np.asarray(t, dtype=float)
        x = np.column_stack([np.cos(t), np.sin(t)])
        x[np.isin(t, nan_at), 1] = np.nan
        return TrajectoryRecord(id="r", label="positive", t=t, x=x, u=np.full((t.size, 1), 0.5))

    @pytest.mark.parametrize("nan_at, k", [(0.35, 0), (1.0, 1)])
    def test_non_finite_two_state_sample_names_its_piece(self, nan_at, k):
        rec = self.circle_record(np.arange(21) / 20, nan_at)
        with pytest.raises(ValueError, match=f"^piece {k}: fit conditions must be finite$"):
            fit_model(rec, TimePartition.uniform(0.0, 1.0, 2))

    def test_two_state_piece_with_two_samples_fits(self):
        # [0.6, 1] holds the samples 0.75 and 1: fewer than n + r = 3, so it
        # takes the 4 samples nearest its midpoint 0.8: 0.25, 0.5, 0.75 and 1
        rec = estimate_derivatives(self.circle_record(np.linspace(0.0, 1.0, 5)))
        model = fit_model(rec, TimePartition([0.0, 0.6, 1.0]))
        A, B = fit_piece_general(rec.x[1:], rec.u[1:], rec.dx[1:])
        np.testing.assert_array_equal(model.A[1], A)
        np.testing.assert_array_equal(model.B[1], B)

    def test_two_state_piece_inside_one_sampling_interval_fits(self):
        # [0, 0.1] holds only the sample 0, so it takes the 4 samples nearest 0.05
        rec = estimate_derivatives(self.circle_record(np.linspace(0.0, 1.0, 5)))
        model = fit_model(rec, TimePartition([0.0, 0.1, 1.0]))
        A, B = fit_piece_general(rec.x[:4], rec.u[:4], rec.dx[:4])
        np.testing.assert_array_equal(model.A[0], A)
        np.testing.assert_array_equal(model.B[0], B)

    def test_nearest_sample_tie_goes_to_the_earlier(self):
        # [0.4, 0.6] holds only the sample 0.5; 0 and 1 are equally near it
        rec = estimate_derivatives(self.circle_record(np.linspace(0.0, 1.0, 5)))
        model = fit_model(rec, TimePartition([0.0, 0.4, 0.6, 1.0]))
        A, B = fit_piece_general(rec.x[:4], rec.u[:4], rec.dx[:4])
        np.testing.assert_array_equal(model.A[1], A)
        np.testing.assert_array_equal(model.B[1], B)

    @given(shift=st.floats(-5.0, 5.0))
    def test_time_translation_invariance(self, shift):
        rec = scalar_record(
            [0.0, 1.0, 2.0], [0.0, 0.5, 1.0], [0.5] * 3, dx=[0.25, 0.5, 1.25]
        )
        shifted = scalar_record(
            np.array([0.0, 1.0, 2.0]) + shift,
            [0.0, 0.5, 1.0],
            [0.5] * 3,
            dx=[0.25, 0.5, 1.25],
        )
        m1 = fit_model(rec, TimePartition([0.0, 1.0, 2.0]))
        m2 = fit_model(shifted, TimePartition(np.array([0.0, 1.0, 2.0]) + shift))
        for p1, p2 in zip(m1.pieces, m2.pieces):
            np.testing.assert_allclose(p1.A, p2.A, atol=1e-12)
            np.testing.assert_allclose(p1.B, p2.B, atol=1e-12)


def reference_ingest(path):
    """Line-by-line trajectory CSV parser: each line through its own csv.reader."""
    with open(path, newline="", encoding="utf-8") as fh:
        raw = fh.readlines()
    header = None
    header_line = None
    rows = []
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            fields = [f.strip() for f in next(csv.reader([line]))]
        except csv.Error as exc:
            raise TrajectoryParseError(f"{path}:{lineno}: {exc}", line=lineno) from None
        if header is None:
            header, header_line = fields, lineno
            continue
        rows.append((lineno, fields))
    if header is None:
        raise TrajectoryParseError(f"{path}: no header found", line=None)
    n, r, has_dx = _parse_header(header, header_line, path)
    expected_cols = 3 + n + r + (n if has_dx else 0)
    grouped = {}
    for lineno, fields in rows:
        if len(fields) != expected_cols:
            raise TrajectoryParseError(
                f"{path}:{lineno}: expected {expected_cols} columns, got {len(fields)}",
                line=lineno,
            )
        traj_id, label = fields[0], fields[1]
        if label not in (POSITIVE, NEGATIVE):
            raise TrajectoryParseError(
                f"{path}:{lineno}: label must be positive/negative, got {label!r}",
                line=lineno,
            )
        try:
            nums = [float(v) for v in fields[2:]]
        except ValueError as exc:
            raise TrajectoryParseError(f"{path}:{lineno}: {exc}", line=lineno) from None
        row = (nums[0], nums[1 : 1 + n], nums[1 + n : 1 + n + r], nums[1 + n + r :])
        grouped.setdefault(traj_id, {"label": label, "rows": []})
        if grouped[traj_id]["label"] != label:
            raise TrajectoryParseError(
                f"{path}:{lineno}: id {traj_id!r} has conflicting labels", line=lineno
            )
        grouped[traj_id]["rows"].append(row)
    records = []
    for traj_id, info in grouped.items():
        info["rows"].sort(key=lambda row: row[0])
        columns = [np.array([row[k] for row in info["rows"]]) for k in range(4)]
        records.append(
            TrajectoryRecord(
                id=traj_id,
                label=info["label"],
                t=columns[0],
                x=columns[1],
                u=columns[2],
                dx=columns[3] if has_dx else None,
            )
        )
    return records


def assert_same_records(got, want):
    assert [(r.id, r.label) for r in got] == [(r.id, r.label) for r in want]
    for a, b in zip(got, want):
        names = ("t", "x", "u") if b.dx is None else ("t", "x", "u", "dx")
        for name in names:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), strict=True)
            assert getattr(a, name).flags.c_contiguous
        if b.dx is None:
            assert a.dx is None


def assert_same_error(path):
    with pytest.raises(Exception) as want:
        reference_ingest(path)
    with pytest.raises(Exception) as got:
        ingest_trajectories(path)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert got.value.line == want.value.line
    return got.value


QUOTED_IDS = {"a": "a", "b": " b ", "c,d": '"c,d"', 'say "hi"': '"say ""hi"""'}
PADDING = st.sampled_from(["", " ", "\t", "  "])
NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**6), 10**6).map("{:_d}".format),
)
SKIPPED = st.sampled_from(["", "   ", "# comment", "  # indented, with, commas", "#"])


@st.composite
def trajectory_csv(draw):
    """Valid CSV text in every layout the format allows."""
    n, r = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    has_dx = draw(st.booleans())
    columns = [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(r)]
    columns += [f"dx{i}" for i in range(n)] if has_dx else []
    ids = draw(st.lists(st.sampled_from(sorted(QUOTED_IDS)), min_size=1, max_size=3, unique=True))
    rows = []
    for traj_id in ids:
        label = draw(st.sampled_from([POSITIVE, NEGATIVE]))
        times = draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6, unique=True))
        for t in times:
            fields = [QUOTED_IDS[traj_id], label, repr(t)]
            fields += draw(st.lists(NUMBER, min_size=len(columns), max_size=len(columns)))
            fields = [
                f if f.startswith('"') else draw(PADDING) + f + draw(PADDING) for f in fields
            ]
            rows.append(",".join(fields))
    lines = ["traj_id,label,t," + ",".join(columns)] + draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(SKIPPED))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


BASE_LINES = [
    "# trajectories of one scalar plant",
    "traj_id,label,t,x0,u0",
    "a,positive,0.0,0.0,0.5",
    "b,negative,0.0,1.0,0.5",
    "a,positive,1.0,0.5,0.5",
    "",
    "b,negative,1.0,1.5,0.5",
    "a,positive,2.0,1.0,0.5",
    "b,negative,2.0,2.0,0.5",
    "a,positive,3.0,1.5,0.5",
]
BAD_ROWS = {
    "column_count": "a,positive,4.0,2.0",
    "label": "a,maybe,4.0,2.0,0.5",
    "float": "a,positive,4.0,oops,0.5",
    "conflicting_label": "a,negative,4.0,2.0,0.5",
    "unterminated_quote": 'a,positive,"4.0,2.0,0.5',
}


class TestIngest:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(text=trajectory_csv())
    def test_equals_line_by_line_parser(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_records(ingest_trajectories(path), reference_ingest(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing recorded yet\n\ntraj_id,label,t,x0,x1,u0,dx0,dx1\n")
        assert ingest_trajectories(path) == []

    def test_no_header(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n# only comments\n")
        assert assert_same_error(path).line is None

    def test_open_quote_in_last_field_ends_with_its_line(self, tmp_path):
        path = tmp_path / "quote.csv"
        lines = BASE_LINES + ['a,positive,4.0,2.0,"0.5', "a,positive,5.0,2.5,0.5"]
        path.write_text("\n".join(lines) + "\n")
        got = ingest_trajectories(path)
        assert_same_records(got, reference_ingest(path))
        np.testing.assert_array_equal(got[0].t, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])

    def test_open_quote_does_not_swallow_a_long_file(self, tmp_path):
        # the rest of the file would exceed the csv module's field size limit
        path = tmp_path / "long.csv"
        rows = [f"a,positive,{k}.0,{k}.5,0.5" for k in range(8000)]
        rows[3] = 'a,positive,"3.0,3.5,0.5'
        path.write_text("traj_id,label,t,x0,u0\n" + "\n".join(rows) + "\n")
        assert assert_same_error(path).line == 5

    @pytest.mark.parametrize("line", [2, 5])
    def test_over_long_field_names_its_line(self, tmp_path, line):
        # a field over the csv module's size limit (131 072 characters), in
        # the header or in a row
        path = tmp_path / "long.csv"
        lines = BASE_LINES[:]
        lines[line - 1] += "," + "9" * 200_000
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryParseError) as info:
            ingest_trajectories(path)
        assert info.value.line == line
        assert str(info.value).startswith(f"{path}:{line}: field larger than field limit")

    # the numpy pass must agree with the csv module or leave the file to it
    @pytest.mark.parametrize(
        "number",
        ["1_000", "\u0661\u0662", "\xa02.5\xa0", '"1.5"', "2.5\x1f"],
        ids=["underscore", "arabic-indic-digits", "nbsp-padded", "quoted", "unit-separator"],
    )
    def test_number_read_as_float_reads_it(self, tmp_path, number):
        path = tmp_path / "number.csv"
        lines = BASE_LINES + [f"a,positive,4.0,{number},0.5"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_same_records(ingest_trajectories(path), reference_ingest(path))

    @pytest.mark.parametrize(
        "rows",
        [
            ['"a', 'b",positive,4.0,2.0,0.5'],
            ["x" * 200_000 + ",positive,4.0,2.0,0.5"],
            ["a,positive,4.0,2.0,0.5,"],
            ["a,positive,4.0,2\x005,0.5"],
        ],
        ids=["quote-joins-two-lines", "long-id", "extra-column", "nul-in-number"],
    )
    def test_row_the_numpy_pass_would_misread(self, tmp_path, rows):
        path = tmp_path / "edge.csv"
        path.write_text("\n".join(BASE_LINES + rows) + "\n", encoding="utf-8")
        assert assert_same_error(path).line == len(BASE_LINES) + 1

    def test_written_file_skips_the_csv_module(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        records = [
            TrajectoryRecord(
                id=traj_id,
                label=label,
                t=np.sort(rng.uniform(-1.0, 1.0, 50)),
                x=rng.normal(size=(50, 2)),
                u=rng.normal(size=(50, 1)),
                dx=rng.normal(size=(50, 2)),
            )
            for traj_id, label in [("c,d", POSITIVE), ('say "hi"', NEGATIVE)]
        ]
        path = tmp_path / "written.csv"
        write_trajectories(path, records)

        def refuse(*args):
            raise AssertionError("data rows read by the csv module")

        monkeypatch.setattr(fitting, "_parse_rows", refuse)
        assert_same_records(ingest_trajectories(path), records)

    def test_rejected_line_named_before_bad_rows(self, tmp_path):
        # every line is split before any row is checked: the field over the
        # csv module's size limit is named, not the bad rows above it
        lines = BASE_LINES + list(BAD_ROWS.values()) + ["a,positive,9.0," + "5" * 200_000 + ",0.5"]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        error = assert_same_error(path)
        assert error.line == len(lines)
        assert str(error).startswith(f"{path}:{len(lines)}: field larger than field limit")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, end, bom):
        # 9000 lines before it: the reader decodes the file in chunks
        rows = [f"a,positive,{k}.0,{k}.5,0.5" for k in range(9000)]
        lines = ["traj_id,label,t,x0,u0", *rows, "# caf\udce9", "a,positive,9e3,9e3,0.5"]
        text = end.join(lines) + end
        path = tmp_path / "latin1.csv"
        path.write_bytes(bom + text.encode("utf-8", "surrogateescape"))
        with pytest.raises(TrajectoryParseError) as info:
            ingest_trajectories(path)
        assert info.value.line == 9002
        assert str(info.value) == f"{path}:9002: byte 0xe9 is not UTF-8"

    @pytest.mark.parametrize("second", [None, *BAD_ROWS])
    @pytest.mark.parametrize("first", list(BAD_ROWS))
    def test_first_bad_line_named(self, tmp_path, first, second):
        lines = BASE_LINES[:5] + [BAD_ROWS[first]] + BASE_LINES[5:8]
        if second is not None:
            lines.insert(8, BAD_ROWS[second])
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        error = assert_same_error(path)
        assert isinstance(error, TrajectoryParseError)
        assert error.line == 6

    @pytest.mark.parametrize(
        "body, line, traj_id, time",
        [
            (
                "a,positive,0.0,0.0,0.5\n"
                "b,positive,1.0,0.5,0.5\n"
                "a,positive,1.0,0.5,0.5\n"
                "b,positive,0.0,0.0,0.5\n"
                "b,positive,1.0,0.7,0.5\n"
                "b,positive,0.0,0.1,0.5\n",
                6, "'b'", "1.0",
            ),
            # both records repeat a time; the earlier line is named, although
            # its id appears after the other one's
            (
                "a,positive,0.0,0.0,0.5\n"
                "b,positive,0.0,0.0,0.5\n"
                "b,positive,1.0,0.5,0.5\n"
                "b,positive,1.0,0.7,0.5\n"
                "a,positive,1.0,0.5,0.5\n"
                "a,positive,0.0,0.1,0.5\n",
                5, "'b'", "1.0",
            ),
        ],
        ids=["one-record", "two-records"],
    )
    def test_repeated_sample_time(self, tmp_path, body, line, traj_id, time):
        path = tmp_path / "repeat.csv"
        path.write_text("traj_id,label,t,x0,u0\n" + body)
        with pytest.raises(TrajectoryParseError) as info:
            ingest_trajectories(path)
        assert info.value.line == line
        message = str(info.value)
        assert str(path) in message and traj_id in message and time in message

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("a,positive,0.0,0.0,0.5\nb,positive,0.0,1.0,0.5\na,positive,1.0,0.5,0.5\n",
             3, "id 'b' has a single row"),
            ("a,positive,0.0,0.0,0.5\na,positive,nan,0.5,0.5\na,positive,1.0,0.5,0.5\n",
             3, "id 'a' has non-finite sample time nan"),
            ("a,positive,0.0,0.0,0.5\na,positive,1.0,0.5,0.5\n b ,positive,-inf,0.5,0.5\n",
             4, "id 'b' has non-finite sample time -inf"),
            # a malformed row comes before a record of one row
            ("a,positive,0.0,0.0,0.5\nb,positive,0.0,1.0,0.5\na,positive,inf,0.5,0.5\n",
             4, "id 'a' has non-finite sample time inf"),
        ],
        ids=["single-row", "nan-time", "minus-inf-time", "inf-before-single-row"],
    )
    def test_record_rejected_with_its_line(self, tmp_path, body, line, message):
        path = tmp_path / "short.csv"
        path.write_text("traj_id,label,t,x0,u0\n" + body)
        with pytest.raises(TrajectoryParseError) as info:
            ingest_trajectories(path)
        assert info.value.line == line
        assert str(info.value).startswith(f"{path}:{line}: {message}")

    def test_writer_equals_per_row_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [
            TrajectoryRecord(
                id=traj_id,
                label=label,
                t=np.sort(rng.uniform(-1.0, 1.0, m)),
                x=rng.normal(size=(m, 2)) * 10.0 ** rng.integers(-300, 300, (m, 2)),
                u=rng.normal(size=(m, 1)),
                dx=rng.normal(size=(m, 2)),
            )
            for traj_id, label, m in [("c,d", POSITIVE, 7), ('say "hi"', NEGATIVE, 2)]
        ]
        path, want = tmp_path / "columns.csv", tmp_path / "rows.csv"
        write_trajectories(path, records)
        with open(want, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["traj_id", "label", "t", "x0", "x1", "u0", "dx0", "dx1"])
            for rec in records:
                for i in range(rec.t.size):
                    writer.writerow(
                        [rec.id, rec.label, repr(float(rec.t[i]))]
                        + [repr(float(v)) for v in rec.x[i]]
                        + [repr(float(v)) for v in rec.u[i]]
                        + [repr(float(v)) for v in rec.dx[i]]
                    )
        assert path.read_bytes() == want.read_bytes()
        assert_same_records(ingest_trajectories(path), records)

    def test_round_trip(self, tmp_path):
        rec = scalar_record(
            [0.0, 1.0, 2.0], [0.0, 0.5, 1.0], [0.5] * 3, dx=[0.25, 0.5, 1.25], rec_id="a"
        )
        neg = scalar_record(
            [0.0, 0.5, 1.0], [0.0, 0.2, 0.1], [0.1] * 3, dx=[0.0, 0.1, 0.0],
            label="negative", rec_id="b",
        )
        path = tmp_path / "data.csv"
        write_trajectories(path, [rec, neg])
        records = ingest_trajectories(path)
        labels = {r.id: r.label for r in records}
        assert labels == {"a": "positive", "b": "negative"}
        back = next(r for r in records if r.id == "a")
        np.testing.assert_allclose(back.t, rec.t)
        np.testing.assert_allclose(back.x, rec.x)
        np.testing.assert_allclose(back.dx, rec.dx)

    def test_three_row_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "traj_id,label,t,x0,u0\n"
            "# a comment\n"
            "a,positive,0.0,0.0,0.5\n"
            "a,positive,1.0,0.5,0.5\n"
            "a,positive,2.0,1.0,0.5\n"
        )
        records = ingest_trajectories(path)
        assert len(records) == 1
        assert records[0].t.size == 3

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" starts with U+FEFF
        text = "traj_id,label,t,x0,u0\na,positive,0.0,0.0,0.5\na,positive,1.0,0.5,0.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert_same_records(ingest_trajectories(marked), ingest_trajectories(plain))

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "traj_id,label,t,x0,u0\n"
            "a,positive,0.0,0.0,0.5\n"
            "a,positive,1.0,oops,0.5\n"
        )
        with pytest.raises(TrajectoryParseError) as info:
            ingest_trajectories(path)
        assert info.value.line == 3

    def test_bad_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("traj_id,label,t,x0,u0\na,maybe,0.0,0.0,0.5\n")
        with pytest.raises(TrajectoryParseError):
            ingest_trajectories(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,u\n0,0,0\n")
        with pytest.raises(TrajectoryParseError):
            ingest_trajectories(path)
