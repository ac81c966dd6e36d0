"""Shared oracles for the test suite.

Everything here recomputes quantities by direct summation or enumeration,
independently of the library's FFT-based paths, so the tests exercise two
routes for each claim.
"""

import cmath
import json
import math

import numpy as np
from hypothesis import strategies as st

from shiftortho import (
    CoeffTensor,
    DomainMismatchError,
    LatticeDomain,
    ModePreconditionError,
    ProjectionConfig,
    analyze_grid,
    cpw_energy,
    flatten,
    helmholtz_solve,
    project_columns,
    project_sso,
    project_sso_orth,
    shrink,
    sopw_fourier_coeffs,
    synthesize_grid,
)
from shiftortho.coeffio import (
    _ROWS_PER_FORMAT,
    CoeffFileError,
    _header,
    _header_object,
    _index_base,
    _parse_rows,
    _read_header,
    _read_lines,
    format_rows,
)
from shiftortho.cpw import _initial_field
from shiftortho.projection import _FALLBACK_RESIDUAL_MIN
from shiftortho.sopw import _band_tables, analyze_spectrum, synthesize_spectrum


@st.composite
def small_domains(draw, max_axis=8, max_size=4096):
    """Hypothesis strategy: random 1-3D lattice domains of bounded size.

    Each shift count, then each depth cap, is drawn from what the size
    left over by the earlier ones allows, so no draw is thrown away.
    """
    d = draw(st.integers(1, 3))
    counts, budget = [], max_size
    for _ in range(2 * d):
        counts.append(draw(st.integers(1, min(max_axis, budget))))
        budget //= counts[-1]
    return LatticeDomain(tuple(counts[:d]), tuple(counts[d:]))


def unflatten(domain: LatticeDomain, flat: int):
    """Inverse of ``flatten``: returns ``(depth_idx, shift_idx)``."""
    flat = int(flat)
    if not 0 <= flat < domain.size:
        raise IndexError(f"flat index {flat} outside 0..{domain.size - 1}")
    parts = np.unravel_index(flat, domain.grid_shape)
    depth_idx = tuple(int(p) + 1 for p in parts[: domain.d])
    shift_idx = tuple(int(p) for p in parts[domain.d :])
    return depth_idx, shift_idx


def shift_vectors(domain: LatticeDomain):
    """All shift multi-indices in canonical (row-major) order."""
    return np.ndindex(*domain.shifts)


def _as_shift_vector(domain: LatticeDomain, s) -> tuple[int, ...]:
    if np.isscalar(s):
        s = (s,)
    s = tuple(int(v) for v in s)
    if len(s) != domain.d:
        raise IndexError("shift vector rank does not match domain dimension")
    for v, count in zip(s, domain.shifts):
        if not 0 <= v < count:
            raise IndexError(f"shift component {v} outside 0..{count - 1}")
    return s


def shift(v: CoeffTensor, s) -> CoeffTensor:
    """Cyclic shift action: ``out(i; j) = v(i; j - s)`` with per-axis wraparound."""
    s = _as_shift_vector(v.domain, s)
    rolled = np.roll(v.grid, s, axis=v.domain.shift_axes)
    return CoeffTensor(v.domain, rolled.reshape(-1))


def shift_inner(g: CoeffTensor, f: CoeffTensor, s) -> complex:
    """Inner product ``<g, S(s) f>``, conjugate-linear in the first argument."""
    if g.domain != f.domain:
        raise DomainMismatchError("tensors live on different domains")
    s = _as_shift_vector(g.domain, s)
    return complex(np.vdot(g.grid, np.roll(f.grid, s, axis=g.domain.shift_axes)))


def row_by_row_coeff_text(tensor: CoeffTensor) -> str:
    """A coefficient file's text, one row per ``unflatten`` call."""
    domain = tensor.domain
    kind = "real" if not tensor.data.imag.any() else "complex"
    header = {"schema": 1, "d": domain.d, "L": list(domain.shifts),
              "N": list(domain.depths), "kind": kind}
    lines = [json.dumps(header, sort_keys=True, separators=(", ", ": "))]
    for flat, value in enumerate(tensor.data):
        depth_idx, shift_idx = unflatten(domain, flat)
        fields = [str(i) for i in depth_idx + shift_idx]
        lines.append(",".join(fields + [f"{value.real:.17g}", f"{value.imag:.17g}"]))
    return "\n".join(lines) + "\n"


def write_coeff_file_by_table(path, tensor: CoeffTensor) -> None:
    """The coefficient writer as one object table of ints and floats per block.

    Every row formats its ``2d`` index fields with ``%d`` and both value
    fields with ``%.17g``; the library writer must produce the same bytes.
    """
    kind = "complex" if np.iscomplexobj(tensor.data) and tensor.data.imag.any() else "real"
    domain = tensor.domain
    width = 2 * domain.d
    template = ",".join(["%d"] * width + ["%.17g"] * 2) + "\n"
    with open(path, "w", encoding="ascii") as handle:
        handle.write(_header(domain, kind) + "\n")
        for start in range(0, domain.size, _ROWS_PER_FORMAT):
            block = tensor.data[start : start + _ROWS_PER_FORMAT]
            flat = np.arange(start, start + len(block))
            table = np.empty((len(block), width + 2), dtype=object)
            table[:, :width] = (
                np.column_stack(np.unravel_index(flat, domain.grid_shape)) + _index_base(domain)
            )
            table[:, width] = block.real
            table[:, width + 1] = block.imag
            handle.write(format_rows(template, table))


def read_coeff_file_by_rows(path) -> CoeffTensor:
    """The coefficient reader as one walk over the file's lines.

    Every non-blank body line is split, parsed and checked on its own, in
    file order, so the first bad row raises; the library reader must raise
    the same message and row, or read the same tensor.
    """
    lines = _read_lines(path)
    domain, kind = _read_header(lines[0])
    count = sum(1 for line in lines[1:] if line.strip())
    if count != domain.size:
        raise CoeffFileError(f"expected {domain.size} coefficient rows, found {count}")
    field_count = 2 * domain.d + 2
    seen = np.zeros(domain.size, dtype=bool)
    data = np.zeros(domain.size, dtype=np.complex128)
    for row, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != field_count:
            raise CoeffFileError(f"expected {field_count} fields, found {len(fields)}", row=row)
        try:
            record = _parse_rows([line], domain)[0]
        except ValueError:
            raise CoeffFileError(
                f"expected {2 * domain.d} integer indices and 2 floats, found {line!r}",
                row=row,
            ) from None
        index, (real, imag) = record["index"], record["value"]
        try:
            flat = flatten(domain, index[: domain.d], index[domain.d :])
        except IndexError as exc:
            raise CoeffFileError(str(exc), row=row) from exc
        if seen[flat]:
            raise CoeffFileError(
                f"duplicate entry for index {tuple(int(i) for i in index)}", row=row
            )
        seen[flat] = True
        if not (math.isfinite(real) and math.isfinite(imag)):
            raise CoeffFileError("coefficients must be finite", row=row)
        if kind == "real" and imag:
            raise CoeffFileError("kind is 'real' but the imaginary part is nonzero", row=row)
        data[flat] = complex(real, imag)
    return CoeffTensor(domain, data)


def read_sopw_table(path):
    """Parse a ``sopw --table`` file; returns ``(L, N, {(k, j): [(n, c)]})``.

    Reads the header and the lines through the coefficient reader's own
    helpers, so a bad header or byte raises :class:`CoeffFileError` with
    the file line; the rows are parsed one at a time.
    """
    lines = _read_lines(path)
    header = _header_object(lines[0], ("kind", "L", "N"))
    if header["kind"] != "sopw-table":
        raise CoeffFileError("not a basis table file", row=1)
    for key in ("L", "N"):
        if type(header[key]) is not int:
            raise CoeffFileError(f"header {key!r} must be an integer", row=1)
    table: dict = {}
    for offset, line in enumerate(lines[1:]):
        if not line.strip():
            continue
        row_number = offset + 2
        fields = line.split(",")
        if len(fields) != 5:
            raise CoeffFileError(f"expected 5 fields, found {len(fields)}", row=row_number)
        try:
            depth, shift_idx, mode = int(fields[0]), int(fields[1]), int(fields[2])
            value = complex(float(fields[3]), float(fields[4]))
        except ValueError as exc:
            raise CoeffFileError(str(exc), row=row_number) from exc
        table.setdefault((depth, shift_idx), []).append((mode, value))
    return header["L"], header["N"], table


def orthogonal_fallback(mode_cols: np.ndarray, depth_count: int) -> np.ndarray:
    """Fallback column of one vanishing column against its frequency's modes.

    Gram-Schmidt of canonical basis vectors, in index order, against the
    (orthonormal) rows of ``mode_cols``; the first residual of usable size
    wins.  ``normalize_columns`` fills every vanishing column at once.
    """
    for t in range(depth_count):
        residual = -mode_cols.conj()[:, t] @ mode_cols
        residual[t] += 1.0
        norm = np.linalg.norm(residual)
        if norm > _FALLBACK_RESIDUAL_MIN:
            return residual / norm
    raise ModePreconditionError(
        "no canonical vector has a usable residual against the mode columns"
    )


def theta_normalize(p: CoeffTensor, cfg: ProjectionConfig = ProjectionConfig()) -> CoeffTensor:
    """Every per-frequency column of ``p`` scaled to the unit sphere.

    The library's column kernel on a copy, wrapped as a tensor: columns
    with norm at most the resolved threshold take the configured real
    fallback column.  ``p`` is left unchanged; its columns are taken as
    complex, since a tensor with no nonzero imaginary part is stored real.
    """
    columns = p.columns.astype(np.complex128)
    return CoeffTensor(p.domain, project_columns(columns, cfg))


def direct_b_transform(v: CoeffTensor) -> np.ndarray:
    """Positive-exponent sum over shifts, one depth slice at a time."""
    domain = v.domain
    grid = v.grid
    out = np.zeros(domain.grid_shape, dtype=np.complex128)
    for depth_pos in np.ndindex(*domain.depths):
        for freq in np.ndindex(*domain.shifts):
            total = 0.0 + 0.0j
            for ell in np.ndindex(*domain.shifts):
                angle = sum(
                    f * l / count for f, l, count in zip(freq, ell, domain.shifts)
                )
                total += cmath.exp(2j * math.pi * angle) * grid[depth_pos + ell]
            out[depth_pos + freq] = total
    return out.reshape(-1)


def direct_b_inverse(p: CoeffTensor) -> np.ndarray:
    domain = p.domain
    grid = p.grid
    out = np.zeros(domain.grid_shape, dtype=np.complex128)
    for depth_pos in np.ndindex(*domain.depths):
        for pos in np.ndindex(*domain.shifts):
            total = 0.0 + 0.0j
            for ell in np.ndindex(*domain.shifts):
                angle = sum(
                    f * l / count for f, l, count in zip(pos, ell, domain.shifts)
                )
                total += cmath.exp(-2j * math.pi * angle) * grid[depth_pos + ell]
            out[depth_pos + pos] = total / domain.shift_count
    return out.reshape(-1)


def shift_correlation(g: CoeffTensor, f: CoeffTensor) -> np.ndarray:
    """``<g, S(t) f>`` for every shift ``t``, one cyclic roll at a time."""
    if g.domain != f.domain:
        raise DomainMismatchError("tensors live on different domains")
    domain = g.domain
    corr = np.empty(domain.shifts, dtype=np.complex128)
    for t in np.ndindex(*domain.shifts):
        corr[t] = np.vdot(g.grid, np.roll(f.grid, t, axis=domain.shift_axes))
    return corr


def direct_shift_violation(v: CoeffTensor) -> float:
    """Largest deviation of ``<v, S(s) v>`` from the Kronecker delta."""
    corr = shift_correlation(v, v)
    corr[(0,) * v.domain.d] -= 1.0
    return float(np.abs(corr).max())


def direct_max_shift_inner(g: CoeffTensor, f: CoeffTensor) -> float:
    """Largest ``|<g, S(s) f>|`` over all shifts ``s``."""
    return float(np.abs(shift_correlation(g, f)).max())


def gram_shift(g: CoeffTensor, f: CoeffTensor) -> np.ndarray:
    """Gram matrix of all shifted copies: entry ``(s', s) = <S(s')g, S(s)f>``.

    Rows and columns enumerate shift vectors in canonical order.  The matrix
    is circulant in ``s - s'`` because shifting both arguments by the same
    amount leaves the inner product unchanged.
    """
    domain = g.domain
    corr = shift_correlation(g, f)
    vectors = list(shift_vectors(domain))
    gram = np.empty((len(vectors), len(vectors)), dtype=np.complex128)
    for row, sp in enumerate(vectors):
        for col, sq in enumerate(vectors):
            t = tuple((b - a) % n for a, b, n in zip(sp, sq, domain.shifts))
            gram[row, col] = corr[t]
    return gram


def direct_gram_shift(g: CoeffTensor, f: CoeffTensor) -> np.ndarray:
    """Entry (s', s) as an explicit double sum over all multi-indices."""
    domain = g.domain
    vectors = list(np.ndindex(*domain.shifts))
    count = len(vectors)
    gram = np.zeros((count, count), dtype=np.complex128)
    for row, sp in enumerate(vectors):
        for col, sq in enumerate(vectors):
            total = 0.0 + 0.0j
            for flat in range(domain.size):
                depth_idx, shift_idx = unflatten(domain, flat)
                g_shift = tuple(
                    (j - s) % n for j, s, n in zip(shift_idx, sp, domain.shifts)
                )
                f_shift = tuple(
                    (j - s) % n for j, s, n in zip(shift_idx, sq, domain.shifts)
                )
                g_val = g.grid[tuple(i - 1 for i in depth_idx) + g_shift]
                f_val = f.grid[tuple(i - 1 for i in depth_idx) + f_shift]
                total += np.conj(g_val) * f_val
            gram[row, col] = total
    return gram


def sphere_subproblem_oracle(column: np.ndarray, rng=None, samples: int = 0):
    """Minimize ``|p - q|`` over the unit sphere by stationary-point enumeration.

    Stationarity of the Lagrangian gives ``q = p / (1 + nu)`` with real
    ``nu``, so the candidates are ``+-p/|p|``; the better one is returned
    after an optional random-sampling sanity sweep confirming no sampled
    unit vector beats it.
    """
    norm = np.linalg.norm(column)
    if norm == 0.0:
        raise ValueError("oracle needs a nonzero column")
    candidates = [column / norm, -column / norm]
    best = min(candidates, key=lambda q: np.linalg.norm(column - q))
    if samples and rng is not None:
        best_value = np.linalg.norm(column - best)
        size = column.shape[0]
        for _ in range(samples):
            probe = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            probe /= np.linalg.norm(probe)
            assert np.linalg.norm(column - probe) >= best_value - 1e-12
    return best


def sopw_fourier_vector(k: int, j: int, basis, band: int) -> np.ndarray:
    """Dense coefficient vector over modes ``-band..band``."""
    vec = np.zeros(2 * band + 1, dtype=np.complex128)
    for n, c in sopw_fourier_coeffs(k, j, basis):
        vec[n + band] = c
    return vec


def sopw_analysis_rows(coeffs: np.ndarray, basis) -> np.ndarray:
    """Inner products of band coefficients with every element of shells 1..N+1.

    Row ``k - 1`` holds ``<element (k, l), f>`` for all shifts ``l``, summed
    from the sparse table over the band ``|n| <= band_limit``; the last row
    is the shell above the cap.
    """
    band = basis.band_limit
    rows = np.zeros((basis.depth_cap + 1, basis.num_shifts), dtype=np.complex128)
    for k in range(1, basis.depth_cap + 2):
        for ell in range(basis.num_shifts):
            rows[k - 1, ell] = sum(
                np.conj(c) * coeffs[n + band]
                for n, c in sopw_fourier_coeffs(k, ell, basis)
                if abs(n) <= band
            )
    return rows


def gather_columns(coeffs: np.ndarray, basis):
    """B-transform columns of the basis expansion of band Fourier coefficients.

    ``coeffs`` holds ``a(n)`` for ``n = -band_limit..band_limit``.  Returns
    ``(columns, residual)``: the ``depth_cap x num_shifts`` B-transform
    columns of the function's basis coefficients, and the norm of the part
    on the shell above the cap, by the solver's ``analyze_spectrum`` over
    the band-coefficient map.
    """
    if np.shape(coeffs) != (2 * basis.band_limit + 1,):
        raise ValueError(f"expected {2 * basis.band_limit + 1} band coefficients")
    columns, squared = analyze_spectrum(np.asarray(coeffs), _band_tables(basis))
    return columns, math.sqrt(squared)


def scatter_columns(columns: np.ndarray, basis) -> np.ndarray:
    """Band Fourier coefficients of the tensor with B-transform ``columns``.

    Inverse of :func:`gather_columns` inside the cap, by the solver's
    ``synthesize_spectrum`` over the band-coefficient map.
    """
    if np.shape(columns) != (basis.depth_cap, basis.num_shifts):
        raise ValueError(
            f"expected {basis.depth_cap} x {basis.num_shifts} transform columns"
        )
    return synthesize_spectrum(np.asarray(columns), _band_tables(basis))


def sopw_point_sum(k: int, j: int, x: float, basis) -> complex:
    """Pointwise value by direct summation of the sparse Fourier table."""
    length = basis.num_shifts
    total = 0.0 + 0.0j
    for n, c in sopw_fourier_coeffs(k, j, basis):
        total += c * cmath.exp(2j * math.pi * n * x / length) / math.sqrt(length)
    return total


def sopw_derivative_samples(k, ell, basis, grid_size, order):
    """Derivative samples by differentiating the sparse Fourier table."""
    length = basis.num_shifts
    x = np.arange(grid_size) * length / grid_size
    total = np.zeros(grid_size, dtype=np.complex128)
    for n, c in sopw_fourier_coeffs(k, ell, basis):
        factor = (2j * math.pi * n / length) ** order
        total += c * factor * np.exp(2j * math.pi * n * x / length) / math.sqrt(length)
    return total


def theta_energy(basis) -> float:
    """Kinetic energy of the depth-1 generator from its coefficient table."""
    length = basis.num_shifts
    return sum(
        abs(c) ** 2 * 2.0 * (math.pi * n / length) ** 2
        for n, c in sopw_fourier_coeffs(1, 0, basis)
    )


def random_real_tensor(domain: LatticeDomain, rng) -> CoeffTensor:
    return CoeffTensor(domain, rng.standard_normal(domain.size).astype(complex))


def engineered_degenerate_real(domain: LatticeDomain, rng) -> CoeffTensor:
    """Real tensor whose transform columns vanish at every nonzero frequency.

    Depth slices constant along the shift axes concentrate the whole
    transform at frequency zero, so all other columns hit the fallback
    branch exactly.
    """
    values = rng.standard_normal(domain.depth_count)
    grid = np.repeat(values, domain.shift_count).reshape(domain.grid_shape)
    return CoeffTensor(domain, grid.astype(complex).reshape(-1))


def grid_bregman_reference(prev, cfg, basis):
    """``cfg.max_iter`` split-Bregman steps with the projection on tensors.

    Every field lives on the grid, and each step runs the Helmholtz solve,
    then ``analyze_grid``, ``project_sso`` (``project_sso_orth`` against the
    modes in ``prev``), ``synthesize_grid``, the shrink and the Bregman
    updates; no convergence test.  Returns ``(coeffs, samples,
    energy_history, residual_history)`` of the last projection; the rows of
    ``residual_history`` are each step's ``|psi - v| / |v|``,
    ``|psi - u| / |psi|`` and ``lam |u - u_prev| + r |v - v_prev|`` (L2
    norms over one period).
    """
    modes = [mode.coeffs for mode in prev.modes]

    def project(samples):
        tensor, _ = analyze_grid(samples, basis)
        projected = project_sso_orth(tensor, modes) if modes else project_sso(tensor)
        return projected, synthesize_grid(projected, grid_size, basis).real

    mu, lam, r, grid_size = cfg.resolve(basis, len(modes))
    period = float(basis.num_shifts)
    threshold = 0.0 if math.isinf(mu) else 1.0 / (lam * mu)
    _, psi = project(_initial_field(cfg, basis, grid_size))
    u, v = psi.copy(), psi.copy()
    D, B = np.zeros(grid_size), np.zeros(grid_size)
    scale = math.sqrt(period / grid_size)
    energies, residuals = [], []
    for _ in range(cfg.max_iter):
        u_prev, v_prev = u, v
        psi = helmholtz_solve(lam * (u - D) + r * (v - B), lam, r, period)
        projected, v = project(psi + B)
        u = shrink(psi + D, threshold)
        D = D + psi - u
        B = B + psi - v
        energies.append(cpw_energy(v, mu, period))
        residuals.append((
            np.linalg.norm(psi - v) / np.linalg.norm(v),
            np.linalg.norm(psi - u) / np.linalg.norm(psi),
            scale * (lam * np.linalg.norm(u - u_prev) + r * np.linalg.norm(v - v_prev)),
        ))
    return projected, v, np.asarray(energies), np.asarray(residuals)
