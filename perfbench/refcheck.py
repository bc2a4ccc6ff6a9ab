"""Output checkers written apart from the program.

Nothing here calls into iqwalk: every reference is rebuilt from its
definition with numpy, mpmath or exact integer arithmetic, so a fault in
the program cannot cancel against the same fault in its checker.  Each
checker raises CheckFailure with a one-line reason on the first
disagreement.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

SPECTRAL_TOL = 1e-10  # the program gates its own residuals at 1e-9
UNIMODULAR_TOL = 1e-12
WALK_TOL = 1e-10
CONSTANT_DPS = 60


class CheckFailure(AssertionError):
    """An output of the program disagrees with an independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ----------------------------------------------------------------- fractions


def quarter_fractions(q_max: int) -> list[tuple[int, int]]:
    """Every (p, q) with q <= q_max, p odd in [1, 4q), gcd(p, q) = 1.

    Brute-force gcd enumeration, (q, p)-ordered like a butterfly sweep.
    """
    return [
        (p, q)
        for q in range(1, q_max + 1)
        for p in range(1, 4 * q)
        if p % 2 == 1 and math.gcd(p, q) == 1
    ]


def check_sweep(found: list[tuple[int, int]], q_max: int) -> None:
    want = quarter_fractions(q_max)
    require(
        len(found) == len(want),
        f"sweep to q={q_max} has {len(found)} fractions, enumeration gives {len(want)}",
    )
    require(found == want, f"sweep to q={q_max} differs from the (q, p) enumeration")


# ------------------------------------------------------------------ spectra


def exact_cos_sin(num: int, den: int) -> tuple[float, float]:
    """cos and sin of 2*pi*num/den; exact 0 and +-1 on quadrant boundaries."""
    k = num % den
    if (4 * k) % den == 0:
        return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[4 * k // den]
    angle = 2.0 * math.pi * k / den
    return math.cos(angle), math.sin(angle)


def reference_operator(p: int, q: int) -> np.ndarray:
    """One-step operator (shift, then coin) for alpha = p/(4q) on [-q, q].

    Built from the line walk: L moves to n - 1, R to n + 1, then the coin
    [[cos, -sin], [sin, cos]] of angle 2*pi*alpha*n acts at every site,
    with numpy cos/sin.  The walk is truncated to [-q, q] and restricted
    to the documented basis (-q; R), (-q+1; L), (-q+1; R), ...,
    (q-1; R), (q; L), which the reflecting coins at +-q leave invariant.
    """
    sites = np.arange(-q, q + 1)
    m = len(sites)
    angles = 2.0 * np.pi * p * sites / (4.0 * q)
    c, s = np.cos(angles), np.sin(angles)

    def idx(i: int, chir: int) -> int:  # full line basis (site, L=0/R=1)
        return 2 * i + chir

    shift = np.zeros((2 * m, 2 * m))
    for i in range(m):
        if i - 1 >= 0:
            shift[idx(i - 1, 0), idx(i, 0)] = 1.0
        if i + 1 < m:
            shift[idx(i + 1, 1), idx(i, 1)] = 1.0
    coin = np.zeros((2 * m, 2 * m))
    for i in range(m):
        coin[idx(i, 0), idx(i, 0)] = c[i]
        coin[idx(i, 0), idx(i, 1)] = -s[i]
        coin[idx(i, 1), idx(i, 0)] = s[i]
        coin[idx(i, 1), idx(i, 1)] = c[i]
    full = coin @ shift
    keep = [idx(i, chir) for i in range(m) for chir in (0, 1)]
    keep.remove(idx(0, 0))
    keep.remove(idx(m - 1, 1))
    return full[np.ix_(keep, keep)]


def reference_eigenvalues(p: int, q: int) -> np.ndarray:
    return np.linalg.eigvals(reference_operator(p, q).astype(complex))


def circle_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max distance of the best matching between two point sets on the circle.

    Both sets are ordered by angle from a cut placed in the widest empty
    arc of their union; on the cut line, matching in sorted order is
    optimal for the largest distance.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if len(a) != len(b):
        return math.inf
    union = np.sort(np.mod(np.angle(np.concatenate([a, b])), 2.0 * np.pi))
    arcs = np.diff(np.concatenate([union, union[:1] + 2.0 * np.pi]))
    widest = int(np.argmax(arcs))
    cut = union[widest] + arcs[widest] / 2.0

    def ordered(z: np.ndarray) -> np.ndarray:
        return z[np.argsort(np.mod(np.angle(z) - cut, 2.0 * np.pi), kind="stable")]

    return float(np.abs(ordered(a) - ordered(b)).max())


def check_spectrum(p: int, q: int, values: np.ndarray, args: np.ndarray) -> None:
    """Structural facts of every spectrum at alpha = p/(4q)."""
    label = f"{p}/{4 * q}"
    values = np.asarray(values, dtype=complex)
    args = np.asarray(args, dtype=float)
    require(len(values) == 4 * q, f"{label}: {len(values)} eigenvalues, want {4 * q}")
    require(len(args) == 4 * q, f"{label}: {len(args)} arguments, want {4 * q}")
    require(bool(np.all(np.isfinite(values))), f"{label}: non-finite eigenvalue")
    drift = float(np.abs(np.abs(values) - 1.0).max())
    require(drift <= UNIMODULAR_TOL, f"{label}: |lambda| drifts {drift:.3e} from 1")
    require(bool(np.all(np.diff(args) >= 0.0)), f"{label}: arguments not sorted")
    require(
        bool(np.all((args > -np.pi) & (args <= np.pi))),
        f"{label}: argument outside (-pi, pi]",
    )
    arg_gap = float(np.abs(np.exp(1j * args) - values).max())
    require(arg_gap <= SPECTRAL_TOL, f"{label}: arguments disagree with eigenvalues by {arg_gap:.3e}")
    for target in (1.0, 1.0j, -1.0, -1.0j):
        miss = float(np.abs(values - target).min())
        require(miss <= SPECTRAL_TOL, f"{label}: {target} missing from the spectrum ({miss:.3e})")
    conj = circle_distance(values, np.conj(values))
    require(conj <= SPECTRAL_TOL, f"{label}: not closed under conjugation ({conj:.3e})")
    neg = circle_distance(values, -values)
    require(neg <= SPECTRAL_TOL, f"{label}: not closed under negation ({neg:.3e})")
    det = abs(complex(np.prod(values)) + 1.0)
    require(det <= SPECTRAL_TOL, f"{label}: eigenvalue product is not -1 ({det:.3e})")


def check_mirror(p: int, q: int, values: np.ndarray, mirror: np.ndarray) -> None:
    d = circle_distance(values, mirror)
    require(d <= SPECTRAL_TOL, f"{p}/{4 * q}: spectrum differs from 1 - alpha by {d:.3e}")


def check_against_reference(p: int, q: int, values: np.ndarray) -> None:
    d = circle_distance(values, reference_eigenvalues(p, q))
    require(d <= SPECTRAL_TOL, f"{p}/{4 * q}: eigenvalues differ from the reference operator by {d:.3e}")


# --------------------------------------------------------------------- walks


def mp_alpha(name: str) -> mpmath.mpf:
    """A named irrational inverse period at the current mpmath precision."""
    if name == "pi/2":
        return mpmath.mp.pi / 2
    if name == "golden":
        return (mpmath.sqrt(5) - 1) / 2
    if name == "sqrt2-1":
        return mpmath.sqrt(2) - 1
    raise ValueError(f"unknown constant {name!r}")


def rational_coins(num: int, den: int, sites: np.ndarray) -> np.ndarray:
    """Rotation coins of angle 2*pi*(num/den)*n, rows (a, b, c, d)."""
    out = np.empty((len(sites), 4))
    for i, n in enumerate(sites):
        c, s = exact_cos_sin(num * int(n), den)
        out[i] = (c, -s, s, c)
    return out


def irrational_coins(name: str, sites: np.ndarray) -> np.ndarray:
    """Rotation coins of a named constant from a 60-digit mpmath angle."""
    out = np.empty((len(sites), 4))
    with mpmath.workdps(CONSTANT_DPS):
        two_pi_alpha = 2 * mpmath.mp.pi * mp_alpha(name)
        for i, n in enumerate(sites):
            c, s = mpmath.cos_sin(two_pi_alpha * int(n))
            c, s = float(c), float(s)
            out[i] = (c, -s, s, c)
    return out


def reference_walk(coins: np.ndarray, radius: int, spinor, steps: int):
    """Dense coin-then-shift walk from the origin on sites [-radius, radius].

    coins[i] holds (a, b, c, d) of the coin at site i - radius.  Yields
    (t, left, right) for t = 0..steps, amplitude arrays indexed by site
    + radius.  Amplitudes pushed past the window are dropped, so radius
    must cover the light cone or the proven confinement interval.
    """
    a, b, c, d = (coins[:, k].astype(complex) for k in range(4))
    left = np.zeros(2 * radius + 1, dtype=complex)
    right = np.zeros(2 * radius + 1, dtype=complex)
    left[radius], right[radius] = spinor
    yield 0, left, right
    for t in range(1, steps + 1):
        out_left = a * left + b * right
        out_right = c * left + d * right
        left = np.concatenate([out_left[1:], [0.0]])
        right = np.concatenate([[0.0], out_right[:-1]])
        yield t, left, right


def final_state(walk) -> tuple[np.ndarray, np.ndarray]:
    for _, left, right in walk:
        pass
    return left, right


def check_parity(label: str, offset: int, amps: np.ndarray, steps: int) -> None:
    """Bitwise: after t steps from the origin only sites n = t (mod 2) hold amplitude."""
    amps = np.asarray(amps)
    require(amps.ndim == 2 and amps.shape[1] == 2, f"{label}: amplitudes have shape {amps.shape}")
    require(bool(np.all(np.isfinite(amps))), f"{label}: non-finite amplitude")
    sites = np.arange(offset, offset + len(amps))
    require(offset >= -steps and offset + len(amps) - 1 <= steps, f"{label}: window outside the light cone")
    odd = (sites - steps) % 2 == 1
    require(not np.any(amps[odd] != 0), f"{label}: amplitude on a site of the wrong parity")


def check_state(
    label: str, offset: int, amps: np.ndarray, left: np.ndarray, right: np.ndarray, steps: int
) -> None:
    """Program state (offset, (N, 2) amplitudes) against a reference walk."""
    radius = (len(left) - 1) // 2
    check_parity(label, offset, amps, steps)
    sites = np.arange(offset, offset + len(amps))
    inside = (sites >= -radius) & (sites <= radius)
    require(not np.any(amps[~inside] != 0), f"{label}: amplitude outside [-{radius}, {radius}]")
    ref = np.stack([left, right], axis=1)
    mine = np.zeros_like(ref)
    mine[sites[inside] + radius] = amps[inside]
    err = float(np.abs(mine - ref).max())
    require(err <= WALK_TOL, f"{label}: amplitudes differ from the reference walk by {err:.3e}")


def check_confined(label: str, offset: int, amps: np.ndarray, q: int) -> None:
    """Bitwise: no amplitude bit outside [-q, q]."""
    sites = np.arange(offset, offset + len(amps))
    outside = (sites < -q) | (sites > q)
    require(not np.any(np.asarray(amps)[outside] != 0), f"{label}: amplitude leaked past the barrier at +-{q}")


def support_of(left: np.ndarray, right: np.ndarray) -> tuple[int, int]:
    radius = (len(left) - 1) // 2
    hot = np.nonzero(np.abs(left) ** 2 + np.abs(right) ** 2 > 0.0)[0]
    return int(hot[0]) - radius, int(hot[-1]) - radius


def check_ballistic(label: str, offset: int, amps: np.ndarray, spinor, steps: int) -> None:
    """Closed form at alpha = 1/2: coins are +-identity, all mass at +-T.

    Sign flips are exact, so the two surviving amplitudes equal the
    initial spinor components up to sign, bit for bit.
    """
    amps = np.asarray(amps)
    sites = np.arange(offset, offset + len(amps))
    expect = np.zeros(amps.shape, dtype=bool)
    expect[(sites == -steps), 0] = spinor[0] != 0
    expect[(sites == steps), 1] = spinor[1] != 0
    require(not np.any(amps[~expect] != 0), f"{label}: mass away from +-{steps}")
    for chir, site in ((0, -steps), (1, steps)):
        if spinor[chir] == 0:
            continue
        got = complex(amps[sites == site, chir][0]) if np.any(sites == site) else 0j
        want = complex(spinor[chir])
        require(
            abs(got.real) == abs(want.real) and abs(got.imag) == abs(want.imag)
            and (got == want or got == -want),
            f"{label}: amplitude at {site} is {got!r}, want +-{want!r}",
        )


def check_recurrence(label: str, series, walk, steps: int) -> None:
    require(len(series) == steps + 1, f"{label}: {len(series)} points, want {steps + 1}")
    for (t, value), (t_ref, left, right) in zip(series, walk):
        radius = (len(left) - 1) // 2
        require(t == t_ref, f"{label}: time {t} out of order")
        if t % 2 == 1:
            require(value == 0.0, f"{label}: origin probability {value!r} at odd t={t}")
            continue
        ref = abs(left[radius]) ** 2 + abs(right[radius]) ** 2
        require(abs(value - ref) <= WALK_TOL, f"{label}: origin probability at t={t} off by {abs(value - ref):.3e}")


def check_spread(label: str, estimate, walk, checkpoints: list[int], theta: float) -> None:
    require(list(estimate.times) == checkpoints, f"{label}: checkpoints {estimate.times}")
    want = set(checkpoints)
    sigmas, tails = [], []
    for t, left, right in walk:
        if t not in want:
            continue
        radius = (len(left) - 1) // 2
        probs = np.abs(left) ** 2 + np.abs(right) ** 2
        x = np.arange(-radius, radius + 1, dtype=float)
        mean = float(probs @ x)
        sigmas.append(math.sqrt(max(float(probs @ x**2) - mean * mean, 0.0)))
        tails.append(float(probs @ np.abs(x)) / t**theta)
    for name, got, ref in (("sigma", estimate.sigmas, sigmas), ("scaled tail", estimate.scaled_tail, tails)):
        err = max(abs(g - r) / max(abs(r), 1.0) for g, r in zip(got, ref))
        require(len(got) == len(ref) and err <= 1e-9, f"{label}: {name} off by {err:.3e}")
    upper = len(checkpoints) // 2
    slope = np.polyfit(np.log(checkpoints[upper:]), np.log(sigmas[upper:]), 1)[0]
    err = abs(estimate.fitted_exponent - slope)
    require(err <= 1e-9, f"{label}: fitted exponent {estimate.fitted_exponent!r}, reference {slope!r}")


def check_unitary_coins(label: str, coins: np.ndarray) -> None:
    a, b, c, d = (coins[:, k] for k in range(4))
    defect = max(
        float(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0).max()),
        float(np.abs(np.abs(c) ** 2 + np.abs(d) ** 2 - 1.0).max()),
        float(np.abs(a * np.conj(c) + b * np.conj(d)).max()),
    )
    require(defect <= 1e-14, f"{label}: coin not unitary (defect {defect:.3e})")


# -------------------------------------------------------- CLI certificates


def check_properties(label: str, doc: dict, p: int, q: int) -> None:
    """`iqwalk properties` JSON against the reference operator."""
    require((doc["p"], doc["q"]) == (p, q), f"{label}: reports {doc['p']}/{4 * doc['q']}")
    args = np.asarray(doc["args"], dtype=float)
    values = np.exp(1j * args)
    ref = reference_eigenvalues(p, q)
    d = circle_distance(values, ref)
    require(d <= SPECTRAL_TOL, f"{label}: args differ from the reference operator by {d:.3e}")
    check_spectrum(p, q, values, args)
    for name, check in doc["checks"].items():
        require(check["passed"] is True, f"{label}: check {name} did not pass")
    require(doc["det_ok"] is True and doc["all_passed"] is True, f"{label}: not all passed")
    require(doc["gauge_residual"] == 0.0, f"{label}: gauge residual {doc['gauge_residual']!r}")
    diffs = np.abs(ref[:, None] - ref[None, :]) + np.eye(len(ref)) * 4.0
    gap = float(diffs.min())
    require(abs(doc["simple_gap"] - gap) <= SPECTRAL_TOL, f"{label}: simple_gap {doc['simple_gap']!r}, reference {gap!r}")
    require(0.0 < doc["gap_lower_bound"] <= doc["simple_gap"], f"{label}: gap bound {doc['gap_lower_bound']!r}")


def ring_residuals(p: int, q: int) -> float:
    """Largest residual of both role-swap identities on the 4q ring.

    Dual vectors |n, L~> = sum_m sin(theta_mn)|m, L> + cos(theta_mn)|m, R>
    and |n, R~> with sin and cos exchanged, theta_mn = 2*pi*alpha*m*n.
    The shift acts on them as the site-n rotation coin; the coin moves
    |n, L~> to |n - 1, L~> and |n, R~> to |n + 1, R~>.
    """
    size = 4 * q
    k = np.outer(np.arange(size), np.arange(size)) * p % size
    theta = 2.0 * np.pi * k / size
    sin, cos = np.sin(theta), np.cos(theta)  # [n, m]
    dual_l = np.stack([sin, cos], axis=2)  # [n, m, chirality]
    dual_r = np.stack([cos, sin], axis=2)

    def shift(v):  # m receives L from m + 1 and R from m - 1
        return np.stack([np.roll(v[..., 0], -1, axis=1), np.roll(v[..., 1], 1, axis=1)], axis=2)

    site = np.arange(size)
    cn = np.cos(2.0 * np.pi * (p * site % size) / size)[:, None, None]
    sn = np.sin(2.0 * np.pi * (p * site % size) / size)[:, None, None]
    r1 = np.abs(shift(dual_l) - (cn * dual_l + sn * dual_r)).max()
    r2 = np.abs(shift(dual_r) - (cn * dual_r - sn * dual_l)).max()
    cm = cn[:, 0, 0][None, :]
    sm = sn[:, 0, 0][None, :]

    def coin(v):
        return np.stack([cm * v[..., 0] - sm * v[..., 1], sm * v[..., 0] + cm * v[..., 1]], axis=2)

    r3 = np.abs(coin(dual_l) - np.roll(dual_l, 1, axis=0)).max()
    r4 = np.abs(coin(dual_r) - np.roll(dual_r, -1, axis=0)).max()
    return float(max(r1, r2, r3, r4))


def check_duality(label: str, doc: dict, p: int, q: int) -> None:
    require((doc["p"], doc["q"]) == (p, q), f"{label}: reports {doc['p']}/{4 * doc['q']}")
    tol = doc["tolerance"]
    for key in ("shift_as_coin", "coin_as_shift"):
        value = doc[key]
        require(math.isfinite(value) and 0.0 <= value <= tol, f"{label}: {key} = {value!r}")
    require(doc["passed"] is True, f"{label}: duality not passed")
    ref = ring_residuals(p, q)
    require(ref <= tol, f"{label}: the reference ring gives residual {ref:.3e}")


def _to_fraction(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def check_approximants(label: str, doc: dict, name: str, count: int) -> None:
    """Each approximant proven |alpha - p/(4q)| < 1/(4q^2) in Fraction.

    alpha is taken to 60 digits from mpmath; the 1e-55 margin covers that
    rounding.  The list must be the first `count` q >= 1 that admit an
    odd p coprime to q, found by brute force.
    """
    with mpmath.workdps(CONSTANT_DPS):
        alpha = _to_fraction(mp_alpha(name))
    margin = Fraction(1, 10**55)
    found = [(a["p"], a["q"]) for a in doc["approximants"]]
    require(len(found) == count, f"{label}: {len(found)} approximants, want {count}")
    want: list[tuple[int, int]] = []
    q = 0
    while len(want) < count:
        q += 1
        centre = alpha * 4 * q
        for p in (math.floor(centre), math.ceil(centre)):
            if p < 1 or p % 2 == 0 or math.gcd(p, q) != 1:
                continue
            gap = abs(alpha - Fraction(p, 4 * q))
            bound = Fraction(1, 4 * q * q)
            require(abs(gap - bound) > margin, f"{label}: {p}/{4 * q} too close to the bound to decide")
            if gap < bound:
                want.append((p, q))
                break
    require(found == want, f"{label}: approximants {found}, brute force gives {want}")
    for a in doc["approximants"]:
        p, q = a["p"], a["q"]
        gap = abs(alpha - Fraction(p, 4 * q))
        require(gap + margin < Fraction(1, 4 * q * q), f"{label}: {p}/{4 * q} violates the bound")
        require(a["certified"] is True, f"{label}: {p}/{4 * q} not certified")
        require(a["value"] == p / (4 * q), f"{label}: value {a['value']!r} for {p}/{4 * q}")
        require(abs(a["error"] - float(gap)) <= 1e-15 * max(1.0, float(gap)) + 1e-17, f"{label}: error {a['error']!r}")
