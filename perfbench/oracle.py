"""Reference values for the benchmark, computed without the gmc package.

Everything here is written from the mathematics alone: numpy and the
standard library, no import of gmc. The benchmark calls these functions
after the timed pass, so their cost never enters a latency.

Conventions (those of the paper's Schrodinger model):

    (pi(p,q,t) f)(x) = exp(2 pi i (t + q x + p q / 2)) f(x + p)
    h_0(x) = 2^{1/4} exp(-pi x^2),
    h_{k+1} = (2 sqrt(pi) x h_k - sqrt(k) h_{k-1}) / sqrt(k+1)

so that pi(exp(pP + qQ)) is the displacement operator D(a) with
a = sqrt(pi) (i q - p), whose Hermite matrix elements are associated
Laguerre polynomials (Cahill and Glauber 1969; Folland, Harmonic Analysis in
Phase Space, 1989, section 1.9).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

SQRT_PI = math.sqrt(math.pi)


class OracleError(ValueError):
    """The reference could not be computed to its own accuracy."""

# --------------------------------------------------------------------------
# one-dimensional rules and the bump profile
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def tanh_sinh(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Double-exponential nodes and weights on [-1, 1] with step 2^-level.

    The integrands below vanish faster than any power at both ends, where
    this rule converges double-exponentially.
    """
    h = 2.0 ** -level
    t = np.arange(-int(3.2 / h), int(3.2 / h) + 1) * h
    s = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(s)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(s) ** 2
    keep = np.abs(x) < 1.0
    return x[keep], w[keep]


def _bump_unit(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


@lru_cache(maxsize=None)
def bump_mass() -> float:
    """Integral of exp(-1/(1-u^2)) over (-1, 1)."""
    x, w = tanh_sinh(7)
    return float(w @ _bump_unit(x))


def bump_transform(radius: float, xi) -> np.ndarray:
    """Transform of the unit-mass bump of the given radius, at frequencies xi.

    The bump is even, so its transform is the cosine integral
    int j(x) cos(2 pi xi x) dx, real.
    """
    x, w = tanh_sinh(7)
    vals = _bump_unit(x) * w / bump_mass()
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return np.cos(2.0 * math.pi * np.outer(xi, radius * x)) @ vals


def scaled_bump_rule(radius: float, n: int, level: int = 4):
    """Nodes x and weights w * j_n(x) for the scaled bump j_n(x) = n j(n x).

    Nodes where the weighted bump is below 1e-40 are dropped.
    """
    x, w = tanh_sinh(level)
    wj = w * _bump_unit(x) / bump_mass()
    keep = wj > 1e-40
    return radius / n * x[keep], wj[keep]


# --------------------------------------------------------------------------
# circle: exact band sums
# --------------------------------------------------------------------------


def torus_coefficient(spec: str, ns: np.ndarray) -> np.ndarray:
    """Coefficients a_n of a circle sequence spec, at integer indices ns."""
    ns = np.asarray(ns, dtype=np.int64)
    head, _, rest = spec.partition(":")
    nf = ns.astype(float)
    if head == "comb":
        return np.ones(len(ns), dtype=complex)
    if head == "poly":
        r = int(rest)
        if r == 0:
            return np.ones(len(ns), dtype=complex)
        return (nf**r).astype(complex)
    if head == "geometric":
        q = float(rest)
        return (np.sign(q) ** np.abs(ns) * abs(q) ** np.abs(nf)).astype(complex)
    if head == "formula":
        if rest == "invsq":
            return (1.0 / (1.0 + nf * nf)).astype(complex)
        if rest == "invsq2":
            return (1.0 / (1.0 + nf * nf) ** 2).astype(complex)
        if rest == "alternating":
            return np.where(ns % 2 == 0, 1.0, -1.0).astype(complex)
    raise ValueError(f"no reference for circle sequence {spec!r}")


def band_coefficients(spec: str) -> tuple[int, np.ndarray]:
    """(B, fhat(-B..B)) for a band:B:<profile> spec."""
    _, b, profile = spec.split(":")
    B = int(b)
    ns = np.arange(-B, B + 1, dtype=float)
    if profile == "ones":
        c = np.ones(2 * B + 1)
    elif profile == "fejer":
        c = 1.0 - np.abs(ns) / (B + 1.0)
    elif profile == "gauss":
        c = np.exp(-((2.0 * ns / max(B, 1)) ** 2))
    else:
        raise ValueError(f"no reference for band profile {profile!r}")
    return B, c.astype(complex)


def _fsum_complex(terms: np.ndarray) -> complex:
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def torus_series(coeffs: str, band: str, m_max: int):
    """Rows (m, S_m, |S_m - S_inf|) of the partial Fourier sums against the band.

    Returns the rows and the l1 mass of the summed terms (the roundoff scale).
    """
    B, fh = band_coefficients(band)
    ns = np.arange(-B, B + 1)
    terms = torus_coefficient(coeffs, ns) * fh[::-1]
    limit = _fsum_complex(terms)
    rows = []
    for m in range(m_max + 1):
        s = _fsum_complex(terms[np.abs(ns) <= m])
        rows.append((m, s, abs(s - limit)))
    return rows, float(np.sum(np.abs(terms)))


def torus_mollify(eta: str, zeta: str, band: str, n_list, radius: float):
    """Rows (n, value, residual) of smoothing eta by the pushed-forward bump J_n."""
    B, fh = band_coefficients(band)
    ns = np.arange(-B, B + 1)
    terms = torus_coefficient(eta, ns) * fh[::-1] * torus_coefficient(zeta, ns)
    base = _fsum_complex(terms)
    rows = []
    for n in n_list:
        jhat = bump_transform(radius, ns / n)
        value = _fsum_complex(terms * jhat)
        rows.append((n, value, abs(value - base)))
    return rows, float(np.sum(np.abs(terms)))


def torus_pointwise(a: str, b: str, t: float, floor: float = 1e-20):
    """sum_n a_n b_n exp(2 pi i n t), summed until the terms fall below floor."""
    extent = 64
    while True:
        ns = np.arange(-extent, extent + 1)
        prod = torus_coefficient(a, ns) * torus_coefficient(b, ns)
        edge = np.abs(prod[:8]).max() + np.abs(prod[-8:]).max()
        if edge < floor:
            break
        extent *= 2
        if extent > 1 << 22:
            raise OracleError(f"reference sum for {a} x {b} does not converge")
    terms = prod * np.exp(2j * math.pi * ns * t)
    return _fsum_complex(terms), float(np.sum(np.abs(terms)))


# --------------------------------------------------------------------------
# Heisenberg: Hermite functions and closed-form kernels
# --------------------------------------------------------------------------


def hermite_functions(x: np.ndarray, nmax: int) -> np.ndarray:
    """h_k(x) for k = 0..nmax, Gaussian included; shape (nmax+1, len(x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size))
    out[0] = 2.0**0.25 * np.exp(-math.pi * x * x)
    if nmax >= 1:
        out[1] = 2.0 * SQRT_PI * x * out[0]
    for k in range(1, nmax):
        out[k + 1] = (2.0 * SQRT_PI * x * out[k] - math.sqrt(k) * out[k - 1]) / math.sqrt(k + 1)
    return out


def _alpha(p, q):
    return SQRT_PI * (1j * np.asarray(q, dtype=float) - np.asarray(p, dtype=float))


def displacement_element(k: int, j: int, p, q) -> np.ndarray:
    """<pi(p,q,0) h_j, h_k> at arrays of (p, q), for any indices.

    Uses the normalized Laguerre recurrence along the diagonal k - j = d,
    rescaling as it goes and applying the prefactor in log space, so it stays
    finite at indices in the thousands.
    """
    a = np.atleast_1d(_alpha(p, q)).astype(complex)
    x = np.abs(a) ** 2
    d, m = abs(k - j), min(k, j)
    # l_i = L_i^(d)(x) sqrt(i! d! / (i+d)!), started at l_0 = 1
    lprev = np.ones_like(x)
    lcur = (1.0 + d - x) / math.sqrt(d + 1.0)
    log_scale = np.zeros_like(x)
    if m == 0:
        lcur = lprev
    for i in range(1, m):
        lnext = ((2 * i + 1 + d - x) * lcur - math.sqrt(i * (i + d)) * lprev) / math.sqrt(
            (i + 1.0) * (i + 1 + d)
        )
        lprev, lcur = lcur, lnext
        big = np.abs(lcur) > 1e100
        if big.any():
            lprev = np.where(big, lprev * 1e-100, lprev)
            lcur = np.where(big, lcur * 1e-100, lcur)
            log_scale = log_scale + np.where(big, 100.0 * math.log(10.0), 0.0)
    absa = np.abs(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pow = np.where(d == 0, 0.0, d * np.log(absa))
    log_amp = log_pow - 0.5 * x - 0.5 * math.lgamma(d + 1.0) + log_scale
    unit = np.where(absa > 0, a / np.where(absa > 0, absa, 1.0), 1.0)
    phase = unit**d if k >= j else (-np.conj(unit)) ** d
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(log_amp) * lcur * phase
    return np.where(np.isfinite(log_amp), out, 0.0)


def _kernel_sum(size: int, p: np.ndarray, q: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i weights_i <pi(p_i, q_i, 0) h_j, h_k> for j, k < size.

    Runs the Laguerre recurrence for every diagonal offset and every node at
    once and contracts the nodes as each step completes.
    """
    a = _alpha(p, q).ravel().astype(complex)
    x = np.abs(a) ** 2
    absa = np.abs(a)
    unit = np.where(absa > 0, a / np.where(absa > 0, absa, 1.0), 1.0)
    d = np.arange(size, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pow = np.where(d == 0, 0.0, d * np.log(absa)[None, :])
    lg = np.array([0.5 * math.lgamma(v + 1.0) for v in range(size)])[:, None]
    amp = np.exp(log_pow - 0.5 * x[None, :] - lg) * weights.ravel()[None, :]
    powers = unit[None, :] ** np.arange(size)[:, None]
    up = amp * powers  # a^d / |a|^d, k >= j
    down = amp * (-np.conj(unit))[None, :] ** np.arange(size)[:, None]  # k < j
    out = np.zeros((size, size), dtype=complex)
    lprev = np.ones((size, x.size))
    lcur = lprev
    dd = np.arange(size)
    for i in range(size):
        if i == 1:
            lprev, lcur = lcur, (1.0 + d - x[None, :]) / np.sqrt(d + 1.0)
        elif i > 1:
            lnext = (
                (2 * (i - 1) + 1 + d - x[None, :]) * lcur - np.sqrt((i - 1) * (i - 1 + d)) * lprev
            ) / np.sqrt(i * (i + d))
            lprev, lcur = lcur, lnext
        n_diag = size - i
        vals_up = np.einsum("dn,dn->d", up[:n_diag], lcur[:n_diag])
        vals_down = np.einsum("dn,dn->d", down[1:n_diag], lcur[1:n_diag])
        out[i + dd[:n_diag], i] = vals_up
        out[i, i + dd[1:n_diag]] = vals_down
    return out


def group_matrix(size: int, g) -> np.ndarray:
    """Hermite matrix of pi(p, q, t) truncated to size x size."""
    p, q, t = (float(v) for v in g)
    m = _kernel_sum(size, np.array([p]), np.array([q]), np.array([1.0]))
    return np.exp(2j * math.pi * t) * m


def ladder_matrix(size: int, letter: str) -> np.ndarray:
    """Hermite matrix of the generator P, Q or Z (the derived representation)."""
    out = np.zeros((size, size), dtype=complex)
    if letter == "Z":
        return 2j * math.pi * np.eye(size)
    j = np.arange(1, size)
    lower = SQRT_PI * np.sqrt(j)  # h_j -> h_{j-1}
    upper = SQRT_PI * np.sqrt(j)  # h_{j-1} -> h_j
    if letter == "P":
        out[j - 1, j] = lower
        out[j, j - 1] = -upper
    elif letter == "Q":
        out[j - 1, j] = 1j * lower
        out[j, j - 1] = 1j * upper
    else:
        raise ValueError(f"unknown generator {letter!r}")
    return out


def word_matrix(size: int, word: str) -> np.ndarray:
    out = np.eye(size, dtype=complex)
    for letter in word:
        out = out @ ladder_matrix(size, letter)
    return out


@lru_cache(maxsize=64)
def bump_operator(n: int, radius: float, size: int, level: int = 4) -> np.ndarray:
    """Hermite matrix of pi(f) for the product bump f = j_n(p) j_n(q) j_n(t).

    pi(f) only sees F(p, q) = int f(p, q, t) exp(2 pi i t) dt, so this is a
    2-D (p, q) quadrature of the closed-form kernel against F.
    """
    x, wj = scaled_bump_rule(radius, n, level)
    central = float(bump_transform(radius, [1.0 / n])[0])
    P, Q = np.meshgrid(x, x, indexing="ij")
    W = np.outer(wj, wj) * central
    return _kernel_sum(size, P, Q, W)


def heisenberg_vector(spec: str, size: int) -> np.ndarray:
    """First size Hermite coefficients of a vector spec."""
    head, _, rest = spec.partition(":")
    ks = np.arange(size)
    out = np.zeros(size, dtype=complex)
    if head == "e":
        out[int(rest)] = 1.0
        return out
    if head == "delta":
        return hermite_functions(np.array([0.0]), size - 1)[:, 0].astype(complex)
    if head == "poly-growth":
        return ((1.0 + ks) ** float(rest)).astype(complex)
    if head == "gauss":
        sigma = float(rest) if rest else 0.75
        x = np.linspace(-12.0, 12.0, 8001)
        g = gaussian(x, sigma)
        c = hermite_functions(x, size - 1) @ g * (x[1] - x[0])
        c[np.abs(c) < 1e-16] = 0.0
        return c.astype(complex)
    raise ValueError(f"no reference for Heisenberg vector {spec!r}")


def gaussian(x: np.ndarray, sigma: float) -> np.ndarray:
    """The L2-normalized Gaussian 2^{1/4} sigma^{-1/2} exp(-pi x^2 / sigma^2)."""
    return 2.0**0.25 / math.sqrt(sigma) * np.exp(-math.pi * x * x / sigma**2)


def _tail_small(v: np.ndarray, scale: float, width: int = 16) -> bool:
    return float(np.max(np.abs(v[-width:]))) <= 1e-13 * max(scale, 1e-300)


def _pair_through(psi: str, phi: str, operators, size: int) -> complex:
    """psi^T M_1 M_2 ... phi, with operators(size) giving the matrices.

    The truncation doubles until every intermediate row vector, and the
    final termwise product with phi, has a negligible tail.
    """
    while True:
        row = heisenberg_vector(psi, size)
        scale = float(np.max(np.abs(row)))
        ok = True
        for m in operators(size):
            row = row @ m
            scale = max(scale, float(np.max(np.abs(row))))
            ok = ok and _tail_small(row, scale)
        terms = row * heisenberg_vector(phi, size)
        ok = ok and _tail_small(terms, float(np.max(np.abs(terms))))
        if ok:
            return complex(np.sum(terms))
        size *= 2
        if size > 512:
            raise OracleError("reference needs more than 512 Hermite levels")


def functional_value(phi: str, psi: str, n: int, radius: float, ops, size: int = 96) -> complex:
    """<pi(T f) phi, psi> for the bump f and a chain of dual operations T.

    ops lists the functional's operations in the order they were applied:
    ("Lt", g) left translation by g, ("Rt", g) right translation, ("Ld", word)
    left derivative, ("Rd", word) right derivative. They act as

        left_translate(h)  -> pi(h^-1) on the left of pi(f)
        right_translate(h) -> pi(h) on the right
        left_derive(D)     -> pi(transpose D) on the left
        right_derive(D)    -> pi(D) on the right

    and the first operation sits outermost.
    """

    def operators(size):
        left, right = [], []
        for kind, arg in ops:
            if kind == "Lt":
                p, q, t = arg
                left.append(group_matrix(size, (-p, -q, -t)))
            elif kind == "Rt":
                right.insert(0, group_matrix(size, arg))
            elif kind == "Ld":
                left.append((-1) ** len(arg) * word_matrix(size, arg[::-1]))
            elif kind == "Rd":
                right.insert(0, word_matrix(size, arg))
            else:
                raise ValueError(f"unknown operation {kind!r}")
        return left + [bump_operator(n, radius, size)] + right

    return _pair_through(psi, phi, operators, size)


def mollified_value(eta: str, zeta: str, center, bump_radius: float, mass: float, n, radius: float, size: int = 96) -> complex:
    """mass <pi(L(c) f) pi(J_n) eta, zeta> for the unit bump f of bump_radius.

    J_n is the product bump of the given profile radius scaled by n; n=None
    leaves it out (the unmollified value).
    """

    def operators(size):
        out = [group_matrix(size, center), bump_operator(1, bump_radius, size)]
        if n is not None:
            out.append(bump_operator(n, radius, size))
        return out

    return mass * _pair_through(zeta, eta, operators, size)


# --------------------------------------------------------------------------
# Fourier-Wigner values on a grid
# --------------------------------------------------------------------------


def _x_rule(lo: float, hi: float, step: float) -> tuple[np.ndarray, float]:
    count = int(math.ceil((hi - lo) / step)) + 1
    return np.linspace(lo, hi, count), (hi - lo) / (count - 1)


def _frequency(spec: str) -> float:
    """Highest angular frequency (rad per unit x) of a vector's function.

    h_n solves -h'' + 4 pi^2 x^2 h = 2 pi (2n + 1) h, so it oscillates at
    most at sqrt(2 pi (2n + 1)); the Gaussians here are slower than h_8.
    """
    head, _, rest = spec.partition(":")
    n = int(rest) if head == "e" else 8
    return math.sqrt(2.0 * math.pi * (2 * n + 1))


def _x_step(omega: float) -> float:
    """Trapezoid step resolving an integrand band-limited near omega.

    The integrands decay like Gaussians, so the trapezoid rule is exact up
    to aliasing from frequencies past pi / step, taken here at 1.5 omega.
    """
    return math.pi / (1.5 * omega + 10.0)


def _psi_on_x(psi: str, x: np.ndarray) -> np.ndarray:
    head, _, rest = psi.partition(":")
    if head == "gauss":
        return gaussian(x, float(rest) if rest else 0.75)
    if head == "e":
        k = int(rest)
        return hermite_functions(x, k)[k]
    raise ValueError(f"pointwise reference needs a rapid-decay partner, got {psi!r}")


def _reach(spec: str) -> float:
    """Half-width in x beyond which a vector's function is below 1e-20."""
    head, _, rest = spec.partition(":")
    if head == "gauss":
        sigma = float(rest) if rest else 0.75
        return sigma * math.sqrt(46.0 / math.pi) + 0.5
    k = int(rest)
    return math.sqrt((2 * k + 1) / (2 * math.pi)) + 4.5


def fourier_wigner_grid(phi: str, psi: str, ps, qs) -> np.ndarray:
    """sum_{j,k} phi_j psi_k <pi(p,q,0) h_j, h_k> on the grid, shape (len(ps), len(qs)).

    Hermite pairs use the Laguerre closed form; the delta partner is a point
    evaluation; Gaussian and polynomial-growth partners use x-space
    trapezoid sums, which are spectrally accurate for these integrands.
    """
    ps = np.asarray(ps, dtype=float)
    qs = np.asarray(qs, dtype=float)
    P, Q = np.meshgrid(ps, qs, indexing="ij")
    head, _, rest = phi.partition(":")
    phead, _, prest = psi.partition(":")
    if head == "e" and phead == "e":
        return displacement_element(int(prest), int(rest), P.ravel(), Q.ravel()).reshape(P.shape)
    if head == "delta":
        # phi = delta_0, so the integral picks x = -p
        vals = _psi_on_x(psi, -ps)
        return np.exp(-1j * math.pi * P * Q) * vals[:, None]
    r_psi = _reach(psi)
    out = np.empty(P.shape, dtype=complex)
    if head in ("e", "gauss"):
        r_phi = _reach(phi)
        for a, p in enumerate(ps):
            lo = max(-r_psi, -p - r_phi)
            hi = min(r_psi, -p + r_phi)
            if lo >= hi:
                out[a] = 0.0
                continue
            omega = _frequency(phi) + _frequency(psi) + 2.0 * math.pi * float(np.max(np.abs(qs)))
            x, dx = _x_rule(lo, hi, _x_step(omega))
            prod = _psi_on_x(phi, x + p) * _psi_on_x(psi, x) * dx
            osc = np.exp(2j * math.pi * np.outer(qs, x + p / 2.0))
            out[a] = osc @ prod
        return out
    if head == "poly-growth":
        # c_j = <pi(p,q,0) h_j, psi> decays fast in j; sum (1+j)^r c_j over
        # the j where c_j stands above the rounding floor
        r = float(rest)
        qmax = float(np.max(np.abs(qs)))
        jmax = 256
        while True:
            omega = _frequency(f"e:{jmax}") + _frequency(psi) + 2.0 * math.pi * qmax
            x, dx = _x_rule(-r_psi, r_psi, _x_step(omega))
            psix = _psi_on_x(psi, x) * dx
            ok = True
            for a, p in enumerate(ps):
                hj = hermite_functions(x + p, jmax - 1)
                osc = np.exp(2j * math.pi * np.outer(x + p / 2.0, qs))
                c = (hj * psix[None, :]) @ osc  # (jmax, len(qs))
                mag = np.max(np.abs(c), axis=1)
                above = np.nonzero(mag > 1e-13 * mag.max())[0]
                stop = int(above[-1]) + 33
                if stop > jmax - 32:
                    ok = False
                    break
                weights = (1.0 + np.arange(stop)) ** r
                out[a] = weights @ c[:stop]
            if ok:
                return out
            jmax *= 2
            if jmax > 4096:
                raise OracleError("polynomial-growth reference does not converge")
    raise ValueError(f"no pointwise reference for {phi!r} x {psi!r}")
