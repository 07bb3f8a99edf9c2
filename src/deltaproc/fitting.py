"""Fit piecewise-constant linear models to sampled trajectory data.

Scalar subintervals use the exact two-endpoint solve (the construction used
to derive the worked benchmark coefficients); multivariate subintervals take
least squares over their samples, or over the n + r + 1 samples nearest
them when they hold fewer than n + r.  Only records labeled positive are
fitted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from itertools import compress, count, repeat
from pathlib import Path

import numpy as np

from .dynamics import PiecewiseLinearModel, TimePartition, Trajectory
from .errors import (
    CoverageError,
    SingularFitError,
    TrajectoryParseError,
)

POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass(frozen=True, kw_only=True)
class TrajectoryRecord(Trajectory):
    """A :class:`Trajectory` with an id and a label, checked as outside data."""

    id: str
    label: str

    def __post_init__(self):
        super().__post_init__()
        t = self.t
        if self.label not in (POSITIVE, NEGATIVE):
            raise ValueError(f"label must be positive/negative, got {self.label!r}")
        if t.size < 2:
            raise ValueError("a record needs at least two samples")
        finite = np.isfinite(t)
        if not finite.all():
            bad = float(t[np.argmin(finite)])
            raise ValueError(f"record {self.id!r} has non-finite sample time {bad!r}")
        if not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")


def estimate_derivatives(record: TrajectoryRecord) -> TrajectoryRecord:
    """Fill the derivative column by numpy's second-order finite differences.

    ``np.gradient`` with ``edge_order=2``: central differences at interior
    samples, one-sided three-point stencils at the endpoints, both exact on
    quadratics.  A record that already has derivatives is returned unchanged.
    """
    if record.dx is not None:
        return record
    if record.t.size < 3:
        raise ValueError(
            f"record {record.id!r} has {record.t.size} samples: estimating its derivatives "
            f"needs a third sample, or dx columns in the data"
        )
    return replace(record, dx=np.gradient(record.x, record.t, axis=0, edge_order=2))


def fit_piece_general(xs, us, dxs):
    """Least-squares (A, B) from samples (x_i, u_i, dx_i), any n, r >= 1.

    When fewer than n + r singular values of the regressor exceed 1e-10,
    raises :class:`SingularFitError` naming the unidentifiable directions.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    us = np.atleast_2d(np.asarray(us, dtype=float))
    dxs = np.atleast_2d(np.asarray(dxs, dtype=float))
    if xs.shape[0] != us.shape[0] or xs.shape[0] != dxs.shape[0]:
        raise ValueError("sample counts disagree")
    n = xs.shape[1]
    r = us.shape[1]
    regressor = np.hstack([xs, us])  # (m, n+r)
    coeffs, _, _, sing = np.linalg.lstsq(regressor, dxs, rcond=None)
    rank = int(np.count_nonzero(sing > 1e-10))
    if rank < n + r:
        vt = np.linalg.svd(regressor)[2]
        raise SingularFitError(
            f"regressor rank {rank} < {n + r}; unidentifiable directions: {vt[rank:]}"
        )
    return coeffs[:n].T, coeffs[n:].T


def fit_model(record: TrajectoryRecord, partition: TimePartition) -> PiecewiseLinearModel:
    """The (A, B) of every subinterval, anchored at its right-knot data state.

    Endpoint states/derivatives/controls are linearly interpolated from the
    record at the partition knots.  Scalar problems use the exact
    two-endpoint solve, on all subintervals at once; the subintervals it
    leaves, and every n >= 2 subinterval, take least squares over their
    samples.  A subinterval that cannot be fitted raises with its piece
    index in front of the message, and a record labeled negative raises.
    """
    if record.label == NEGATIVE:
        raise ValueError(
            f"record {record.id!r} is labeled negative; only positive records are fitted"
        )
    tol = 1e-9 * max(1.0, abs(partition.t1 - partition.t0))
    uncovered = [
        float(k)
        for k in partition.knots
        if k < record.t_start - tol or k > record.t_end + tol
    ]
    if uncovered:
        raise CoverageError(
            f"record {record.id!r} spans [{record.t_start}, {record.t_end}] and does not "
            f"cover knots {uncovered}",
            uncovered_knots=uncovered,
        )
    rec = estimate_derivatives(record)
    knots = partition.knots
    A = np.empty((partition.num_pieces, rec.n, rec.n))
    B = np.empty((partition.num_pieces, rec.n, rec.r))
    if rec.n == 1 and rec.r == 1:
        x, A[:, 0, 0], B[:, 0, 0], solved = _endpoint_solve(rec, knots)
        anchors = x[1:, None]
    else:
        solved = np.zeros(partition.num_pieces, dtype=bool)
        anchors = rec.interp_state(knots[1:])
    for k in np.flatnonzero(~solved):
        try:
            A[k], B[k] = _fit_subinterval(rec, knots[k], knots[k + 1])
        except ValueError as exc:
            exc.args = (f"piece {k}: {exc.args[0]}",) + exc.args[1:]
            raise
    return PiecewiseLinearModel(partition, A, B, anchors)


def _endpoint_solve(rec: TrajectoryRecord, knots):
    """The scalar (a, b) of every subinterval from its two endpoint conditions.

    Solves a*x_l + b*u = dx_l and a*x_r + b*u = dx_r, with x and dx
    interpolated at both knots and u at the left knot.  Returns the states at
    the knots, a, b and a mask of the subintervals whose solve stands.  The
    others (coinciding endpoint states, non-finite conditions, u = 0) are
    left to :func:`_fit_subinterval`, which falls back to least squares or
    raises.
    """
    x = rec.interp_state(knots)[:, 0]
    dx = rec.interp_derivative(knots)[:, 0]
    u = rec.interp_control(knots[:-1])[:, 0]
    x_l, x_r = x[:-1], x[1:]
    with np.errstate(all="ignore"):
        a = (dx[1:] - dx[:-1]) / (x_r - x_l)
        b = (dx[:-1] - a * x_l) / u
    finite = np.isfinite(x) & np.isfinite(dx)
    solved = finite[:-1] & finite[1:] & np.isfinite(u) & (u != 0.0) & ~np.isclose(x_l, x_r)
    return x, a, b, solved


def _fit_subinterval(rec: TrajectoryRecord, t_l, t_r):
    """Least-squares (A, B) over the samples of [t_l, t_r].

    :func:`fit_model` sends here every subinterval of an n >= 2 record and
    the scalar ones its endpoint solve leaves.  Of those, one whose endpoint
    states coincide is fitted; any other raises: ``ValueError`` for a
    non-finite condition, else :class:`SingularFitError` for u = 0.  A
    subinterval with fewer than n + r samples takes the n + r + 1 samples
    nearest its midpoint instead (ties to the earlier one), in time order.
    Any least-squares row that is not finite raises ``ValueError`` too.
    """
    if rec.n == 1 and rec.r == 1:
        ends = np.array([t_l, t_r])
        x_l, x_r = rec.interp_state(ends)[:, 0]
        if not np.isclose(x_l, x_r):
            conditions = [x_l, x_r, *rec.interp_derivative(ends)[:, 0], *rec.interp_control(t_l)]
            if not np.isfinite(conditions).all():
                raise ValueError("fit conditions must be finite")
            raise SingularFitError("u_data = 0 leaves the input coefficient unidentifiable")
    rows = np.flatnonzero((rec.t >= t_l - 1e-12) & (rec.t <= t_r + 1e-12))
    if rows.size < rec.n + rec.r:
        nearest = np.argsort(np.abs(rec.t - 0.5 * (t_l + t_r)), kind="stable")
        rows = np.sort(nearest[: rec.n + rec.r + 1])
    xs, us, dxs = rec.x[rows], rec.u[rows], rec.dx[rows]
    if not (np.isfinite(xs).all() and np.isfinite(us).all() and np.isfinite(dxs).all()):
        raise ValueError("fit conditions must be finite")
    return fit_piece_general(xs, us, dxs)


def ingest_trajectories(path):
    """Parse the trajectory CSV format into a list of TrajectoryRecord.

    Header: ``traj_id,label,t,x0..x{n-1},u0..u{r-1}[,dx0..dx{n-1}]``.  Each
    line that :func:`read_lines` keeps is one row, read as CSV on its own with
    every field stripped.  Numbers are read as by ``float``.  The rows are
    parsed in one numpy pass; the rows of a file that pass refuses (``1_000``,
    a malformed row) are parsed line by line with the csv module instead, to
    the same records.  Records come in the order their ``traj_id`` first
    appears, each sorted by ``t``.  A byte that is not UTF-8, else a line the
    csv module rejects, else the first malformed row (a non-finite ``t``
    included), else the first row that repeats an earlier sample time of its
    record, else the first row of a record with a single row, raises
    :class:`TrajectoryParseError` with its line number.
    """
    lines, linenos = read_lines(path)
    if not lines:
        raise TrajectoryParseError(f"{path}: no header found", line=None)
    header = _fields(path, lines[0], linenos[0])
    n, r, has_dx = _parse_header(header, linenos[0], path)
    ncols = 3 + n + r + (n if has_dx else 0)
    lines, linenos = lines[1:], linenos[1:]
    if not lines:
        return []
    columns = _checked(_table(lines, ncols))
    ids, label_of, values = columns or _parse_rows(path, lines, linenos, ncols)
    # rows grouped by id in first-appearance order, each group sorted by t;
    # lexsort is stable, so rows with equal keys keep their file order
    code_of = {traj_id: k for k, traj_id in enumerate(label_of)}
    codes = np.fromiter(map(code_of.__getitem__, ids), dtype=np.intp, count=len(ids))
    order = np.lexsort((values[0], codes))
    later = order[1:]
    same = (codes[later] == codes[order[:-1]]) & (values[0, later] == values[0, order[:-1]])
    if same.any():
        first = int(later[same].min())
        raise TrajectoryParseError(
            f"{path}:{linenos[first]}: id {ids[first]!r} repeats sample time "
            f"{float(values[0, first])!r}",
            line=linenos[first],
        )
    sizes = np.bincount(codes)
    if sizes.min() < 2:
        first = int(np.flatnonzero(sizes[codes] < 2)[0])
        raise TrajectoryParseError(
            f"{path}:{linenos[first]}: id {ids[first]!r} has a single row; "
            f"a record needs at least two samples",
            line=linenos[first],
        )
    groups = np.split(order, np.cumsum(sizes)[:-1])
    records = []
    for traj_id, group in zip(code_of, groups):
        records.append(
            TrajectoryRecord(
                id=traj_id,
                label=label_of[traj_id],
                t=values[0, group],
                x=np.ascontiguousarray(values[1 : 1 + n, group].T),
                u=np.ascontiguousarray(values[1 + n : 1 + n + r, group].T),
                dx=np.ascontiguousarray(values[1 + n + r :, group].T) if has_dx else None,
            )
        )
    return records


def _table(lines, ncols):
    """Stripped ids and labels and a (ncols - 2, rows) array of the numbers.

    One C-level ``np.loadtxt`` pass; None where it may differ from the csv
    module: numpy refuses a line (``1_000``, a malformed row), a quote left
    open joins lines, or a line exceeds the csv module's field size limit.
    """
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    dtype = [("id", object), ("label", object), ("v", float, (ncols - 2,))]
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except ValueError:
        return None
    if len(table) < len(lines):
        return None
    return [*map(str.strip, table["id"])], [*map(str.strip, table["label"])], table["v"].T


def _checked(columns):
    """Ids, the label of each id and the numbers, if the columns pass the checks.

    None when there are no columns, a label is neither positive nor negative,
    an id has two labels or a sample time is not finite.
    """
    if columns is None:
        return None
    ids, labels, values = columns
    label_of = dict(zip(ids, labels))
    if (
        {POSITIVE, NEGATIVE}.issuperset(labels)
        and len(set(zip(ids, labels))) == len(label_of)
        and np.isfinite(values[0]).all()
    ):
        return ids, label_of, values
    return None


def _parse_rows(path, lines, linenos, ncols):
    """What :func:`_checked` returns, for the rows that the numpy pass refuses.

    The csv module reads each line on its own, and every line is split
    before any row is checked: a line that it rejects (such as a field over
    its size limit) is named first.  Then the first malformed row in file
    order raises :class:`TrajectoryParseError` with its line number.
    """
    rows = [_fields(path, line, lineno) for line, lineno in zip(lines, linenos)]
    label_of, numbers = {}, []
    for lineno, fields in zip(linenos, rows):
        where = f"{path}:{lineno}"
        if len(fields) != ncols:
            raise TrajectoryParseError(
                f"{where}: expected {ncols} columns, got {len(fields)}", line=lineno
            )
        traj_id, label = fields[0], fields[1]
        if label not in (POSITIVE, NEGATIVE):
            raise TrajectoryParseError(
                f"{where}: label must be positive/negative, got {label!r}", line=lineno
            )
        try:
            row = [*map(float, fields[2:])]
        except ValueError as exc:
            raise TrajectoryParseError(f"{where}: {exc}", line=lineno) from None
        if not np.isfinite(row[0]):
            raise TrajectoryParseError(
                f"{where}: id {traj_id!r} has non-finite sample time {row[0]!r}", line=lineno
            )
        if label_of.setdefault(traj_id, label) != label:
            raise TrajectoryParseError(
                f"{where}: id {traj_id!r} has conflicting labels", line=lineno
            )
        numbers.append(row)
    return [fields[0] for fields in rows], label_of, np.array(numbers).T


def read_lines(path):
    """The lines of a UTF-8 text file that are neither blank nor ``#`` comments, and their numbers.

    A byte-order mark is dropped, and lines end where ``readlines`` ends them:
    at a line feed, a carriage return or both.  A byte that is not UTF-8
    raises :class:`TrajectoryParseError` naming its line.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
            raw = fh.readlines()
    except UnicodeDecodeError:
        _raise_not_utf8(path)
        raise
    keep = [s[:1] not in ("", "#") for s in map(str.lstrip, raw)]
    return list(compress(raw, keep)), list(compress(count(1), keep))


def _fields(path, line, lineno):
    """The stripped CSV fields of one line; one the csv module rejects raises."""
    try:
        return [f.strip() for f in next(csv.reader([line]))]
    except csv.Error as exc:
        raise TrajectoryParseError(f"{path}:{lineno}: {exc}", line=lineno) from None


def _raise_not_utf8(path):
    """Raise the TrajectoryParseError that names the first line of ``path`` that is not UTF-8.

    The file is decoded whole, since a decoder that reads it in chunks counts
    positions from the start of its chunk.  Lines end where ``readlines``
    ends them: at a line feed, a carriage return or both.
    """
    try:
        Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        lineno = len((exc.object[: exc.start] + b"$").splitlines())
        raise TrajectoryParseError(
            f"{path}:{lineno}: byte {exc.object[exc.start]:#04x} is not UTF-8", line=lineno
        ) from None


def _parse_header(header, lineno, path):
    if header[:3] != ["traj_id", "label", "t"]:
        raise TrajectoryParseError(
            f"{path}:{lineno}: header must start with traj_id,label,t", line=lineno
        )
    rest = header[3:]
    x_cols = [c for c in rest if c.startswith("x")]
    u_cols = [c for c in rest if c.startswith("u")]
    dx_cols = [c for c in rest if c.startswith("dx")]
    x_cols = [c for c in x_cols if c not in dx_cols]
    n, r = len(x_cols), len(u_cols)
    if n < 1 or r < 1:
        raise TrajectoryParseError(
            f"{path}:{lineno}: need at least one x and one u column", line=lineno
        )
    if dx_cols and len(dx_cols) != n:
        raise TrajectoryParseError(
            f"{path}:{lineno}: {len(dx_cols)} dx columns for {n} states", line=lineno
        )
    expected = _value_columns(n, r, bool(dx_cols))
    if rest != expected:
        raise TrajectoryParseError(
            f"{path}:{lineno}: columns {rest} do not match expected {expected}",
            line=lineno,
        )
    return n, r, bool(dx_cols)


def _value_columns(n, r, has_dx):
    """The names of the columns after ``t``: x0..x{n-1}, u0..u{r-1} and, with dx, dx0..dx{n-1}."""
    names = [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(r)]
    return names + [f"dx{i}" for i in range(n)] if has_dx else names


def write_trajectories(path, records):
    """Inverse of :func:`ingest_trajectories` (always writes the dx columns).

    Raises ``ValueError`` before the file is opened when there are no
    records or when a record's (n, r) differs from the first record's.
    """
    recs = [estimate_derivatives(rec) if rec.dx is None else rec for rec in records]
    if not recs:
        raise ValueError("no records to write")
    n, r = recs[0].n, recs[0].r
    for rec in recs:
        if (rec.n, rec.r) != (n, r):
            raise ValueError(
                f"record {rec.id!r} has (n, r) = ({rec.n}, {rec.r}) "
                f"but the first record has ({n}, {r})"
            )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["traj_id", "label", "t", *_value_columns(n, r, True)])
        for rec in recs:
            columns = (rec.t, *rec.x.T, *rec.u.T, *rec.dx.T)
            writer.writerows(
                zip(
                    repeat(rec.id),
                    repeat(rec.label),
                    *(map(repr, col.tolist()) for col in columns),
                )
            )
