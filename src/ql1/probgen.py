"""Seeded synthetic problem families with reproducible random streams.

Every generator is a pure function of its parameters and seed. The fill
order is normative so that independent implementations of the same
stream produce identical instances: matrices are filled row-major,
vectors front to back, objects in the order they are described in each
generator's docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# read_problem stays importable here, where the benchmark's tracer wraps it.
from ql1.fileio import ManifestRow, read_problem, write_manifest, write_problem  # noqa: F401
from ql1.problem import DenseOperator, FactoredOperator, QuadraticProblem
from ql1.rng import Rng

_MAX_ENTRIES = 50_000_000  # refuse absurd allocations


@dataclass
class GeneratedInstance:
    """A generated problem, optionally with its known solution."""

    problem: QuadraticProblem
    x_star: np.ndarray | None
    family: str
    seed: int
    params: dict


def _check_dims(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got m={m}, n={n}")
    if m * n > _MAX_ENTRIES:
        raise ValueError(f"instance of {m}x{n} entries is too large")


def gen_elastic_net(
    m: int, n: int, scale: float, gamma: float, tau: float, seed: int
) -> GeneratedInstance:
    """Least squares with l2 and l1 penalties, in canonical quadratic form.

    Draws the m-by-n design matrix B with standard normal entries
    (row-major), then the m-vector y as scale times a standard normal
    per entry. The instance is A = B'B + 2*gamma*I (factored operator)
    and b = B'y; the constant term of the least-squares residual is
    dropped, which leaves the minimizer unchanged.
    """
    _check_dims(m, n)
    if gamma < 0 or tau < 0:
        raise ValueError("gamma and tau must be nonnegative")
    rng = Rng(seed)
    b_mat = rng.normals(m * n).reshape(m, n)
    y = scale * rng.normals(m)
    op = FactoredOperator(b_mat, gamma)
    problem = QuadraticProblem(op, b_mat.T @ y, tau)
    return GeneratedInstance(
        problem=problem,
        x_star=None,
        family="elastic_net",
        seed=seed,
        params={"m": m, "n": n, "scale": scale, "gamma": gamma, "tau": tau},
    )


def _draw_positions(rng: Rng, n: int, count: int) -> list[int]:
    # Rejection sampling: repeat floor(uniform()*n) until unused. The
    # draw order is part of the reproducibility contract.
    used: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        p = int(rng.uniform() * n)
        if p in used:
            continue
        used.add(p)
        out.append(p)
    return out


def gen_sigrec(
    m: int,
    n: int,
    signal_nnz: int,
    noise_sigma: float,
    gamma: float,
    tau: float,
    seed: int,
) -> GeneratedInstance:
    """Sparse signal recovery: encode a spike train, add noise, regress.

    Stream order: (1) the sparse signal - for each of the signal_nnz
    spikes a position (rejection-sampled uniform over [0, n)) followed
    by a sign (+1 when the next uniform is below 0.5, else -1); (2) the
    m-by-n encoding matrix, standard normals scaled by 1/sqrt(m),
    row-major; (3) m noise normals. The observation is y = B s +
    noise_sigma * noise, and the instance is canonicalized exactly as in
    :func:`gen_elastic_net`.
    """
    _check_dims(m, n)
    if signal_nnz > n:
        raise ValueError(f"signal_nnz={signal_nnz} exceeds n={n}")
    if m > n:
        raise ValueError(f"encoding must reduce dimension: m={m} > n={n}")
    if gamma < 0 or tau < 0 or noise_sigma < 0:
        raise ValueError("gamma, tau, noise_sigma must be nonnegative")
    rng = Rng(seed)
    s = np.zeros(n)
    for _ in range(signal_nnz):
        pos = int(rng.uniform() * n)
        while s[pos] != 0.0:
            pos = int(rng.uniform() * n)
        s[pos] = 1.0 if rng.uniform() < 0.5 else -1.0
    b_mat = rng.normals(m * n).reshape(m, n)
    b_mat /= np.sqrt(m)
    noise = rng.normals(m)
    y = b_mat @ s + noise_sigma * noise
    op = FactoredOperator(b_mat, gamma)
    problem = QuadraticProblem(op, b_mat.T @ y, tau)
    return GeneratedInstance(
        problem=problem,
        x_star=None,
        family="sigrec",
        seed=seed,
        params={
            "m": m,
            "n": n,
            "signal_nnz": signal_nnz,
            "noise_sigma": noise_sigma,
            "gamma": gamma,
            "tau": tau,
            "signal": s,
        },
    )


def gen_strict_comp(
    n: int,
    nnz: int,
    cond_target: float,
    tau: float,
    margin: float,
    seed: int,
) -> GeneratedInstance:
    """Dense SPD instance with a known strictly-complementary solution.

    Stream order: (1) n uniforms for a log-uniform spectrum on
    [1/cond_target, 1]; (2) n*n normals (row-major) whose QR
    factorization supplies the eigenbasis; (3) the solution support -
    nnz rejection-sampled positions, then per position in draw order a sign
    uniform (< 0.5 means +1) and a magnitude 0.5 + uniform(); (4) one uniform in
    [-(1-margin), 1-margin] per off-support coordinate, ascending index
    order. The right-hand side b = A x* + tau*u makes x* the exact
    minimizer, with |g_i(x*)| <= (1-margin)*tau strictly inside the
    subdifferential on the zero coordinates.
    """
    _check_dims(n, n)
    if not (0 <= nnz <= n):
        raise ValueError(f"nnz must lie in [0, {n}], got {nnz}")
    if not (0.0 < margin < 1.0):
        raise ValueError(f"margin must lie in (0, 1), got {margin}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if cond_target < 1.0:
        raise ValueError(f"cond_target must be at least 1, got {cond_target}")
    rng = Rng(seed)
    log_lo = -np.log(cond_target)
    spectrum = np.exp(log_lo + rng.uniforms(n) * (-log_lo))
    basis_raw = rng.normals(n * n).reshape(n, n)
    q, r = np.linalg.qr(basis_raw)
    # in place from here on: QR is the peak, at about four matrices
    del basis_raw
    q *= np.sign(np.diag(r))  # fix QR sign ambiguity
    del r
    a = (q * spectrum) @ q.T
    a += a.T
    a *= 0.5

    x_star = np.zeros(n)
    positions = _draw_positions(rng, n, nnz)
    for pos in positions:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        x_star[pos] = sign * (0.5 + rng.uniform())
    u = np.sign(x_star)
    for i in range(n):
        if x_star[i] == 0.0:
            u[i] = (2.0 * rng.uniform() - 1.0) * (1.0 - margin)
    b = a @ x_star + tau * u
    problem = QuadraticProblem(DenseOperator(a), b, tau)
    return GeneratedInstance(
        problem=problem,
        x_star=x_star,
        family="strict_comp",
        seed=seed,
        params={
            "n": n,
            "nnz": nnz,
            "cond": cond_target,
            "tau": tau,
            "margin": margin,
        },
    )


# Desk-scale benchmark suite: four families by three conditioning
# regimes by four penalty levels, 48 instances, all seeds fixed here.

_EN_GAMMAS = {"s": 0.0, "i": 1e-3, "m": 1.0}
_SG_GAMMAS = {"s": 0.0, "i": 1e-6, "m": 1e-3}
_SC_CONDS = {"a": 1e2, "b": 1e3, "c": 1e4}
_TAU_FRACS = (0.001, 0.05, 0.3, 0.9)
_SC_VARIANTS = ((0.05, 125), (0.2, 50), (1.0, 15), (5.0, 5))


def _params_string(params: dict, spd: bool) -> str:
    items = [f"{k}={v:.12g}" if isinstance(v, float) else f"{k}={v}"
             for k, v in params.items() if not isinstance(v, np.ndarray)]
    items.append(f"spd={int(spd)}")
    return ";".join(items)


def desk_suite(outdir) -> list[ManifestRow]:
    """Generate the default 48-instance suite and its manifest CSV.

    Factored families pick tau as a fixed fraction of ||b||_inf of the
    tau-free instance, so every value is still a pure function of the
    seeds recorded in the manifest.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows: list[ManifestRow] = []

    def emit(name: str, inst: GeneratedInstance, spd: bool) -> None:
        path = outdir / f"{name}.ql1p"
        write_problem(path, inst.problem)
        rows.append(
            ManifestRow(
                problem=name,
                family=inst.family,
                seed=inst.seed,
                params=_params_string(inst.params, spd),
                path=str(path),
            )
        )

    def factored_family(code: str, base_seed: int, gammas: dict, make) -> None:
        # b does not depend on tau, so the tau-free probe is the instance
        for ri, (regime, gamma) in enumerate(gammas.items()):
            for vi, frac in enumerate(_TAU_FRACS):
                seed = base_seed + 10 * ri + vi
                probe = make(gamma=gamma, seed=seed)
                tau = frac * float(np.abs(probe.problem.b).max())
                inst = replace(
                    probe,
                    problem=QuadraticProblem(probe.problem.op, probe.problem.b, tau),
                    params={**probe.params, "tau": tau},
                )
                emit(f"{code}{regime}{vi + 1}", inst, spd=gamma > 0.0)

    factored_family(
        "en", 1000, _EN_GAMMAS,
        lambda gamma, seed: gen_elastic_net(250, 500, 500.0, gamma, 0.0, seed),
    )
    factored_family(
        "pn", 2000, _EN_GAMMAS,
        lambda gamma, seed: gen_elastic_net(125, 500, 1.0, gamma, 0.0, seed),
    )
    factored_family(
        "sg", 3000, _SG_GAMMAS,
        lambda gamma, seed: gen_sigrec(256, 1024, 32, 0.01, gamma, 0.0, seed),
    )
    for ri, (regime, cond) in enumerate(_SC_CONDS.items()):
        for vi, (tau, nnz) in enumerate(_SC_VARIANTS):
            seed = 4000 + 10 * ri + vi
            inst = gen_strict_comp(500, nnz, cond, tau, 0.5, seed)
            emit(f"sc{regime}{vi + 1}", inst, spd=True)

    write_manifest(outdir / "manifest.csv", rows)
    return rows
