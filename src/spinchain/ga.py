"""Genetic optimization of mirror-symmetric on-site profiles.

The chain keeps strictly uniform couplings; only the on-site energies evolve.
A genome is the free half of a palindromic profile. Fitness rewards the best
transfer fidelity seen inside the evaluation window and penalizes deviation
of the spectrum from the target pinched shape (top gap 1/p of the rest,
lower gaps equal).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .chain import ChainSpec, mirror_spectra
from .dynamics import fidelity_grid
from .spectra import Spectrum

FITNESS_GRID_CHUNK = 32  # a 32-genome amp block (~1 MB at 2001 samples) stays in L2


@dataclass(frozen=True)
class GAConfig:
    """Run parameters; defaults match the reference search setup."""

    n: int
    p: int
    generations: int = 200
    population: int = 1024
    mu_i: float = 0.20
    mu_f: float = 0.01
    window: float = 50.0
    a: float = 10.0
    b: float = 1.0
    seed: int = 0
    bounds: tuple[float, float] = (0.0, 5.0)
    coupling: float = 1.0
    samples: int = 2001
    mutation_width_frac: float = 0.05
    seed_parabolic: bool = False

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("GA spectral penalty needs at least 4 sites")
        if self.p < 1 or self.p % 2 == 0:
            raise ValueError(f"pinch p must be a positive odd integer, got {self.p}")
        if self.generations < 0:
            raise ValueError("generations must be nonnegative")
        if self.population < 2 or self.population % 2 != 0:
            raise ValueError("population must be even and at least 2")
        if not self.mu_i >= self.mu_f >= 0.0:
            raise ValueError("need mu_i >= mu_f >= 0")
        if not 0.0 < self.window < np.inf:
            raise ValueError(f"window must be positive and finite, got {self.window}")
        if self.a < 0 or self.b < 0:
            raise ValueError("fitness weights must be nonnegative")
        if self.bounds[1] <= self.bounds[0]:
            raise ValueError("bounds must be an increasing pair")
        if self.coupling == 0.0:
            raise ValueError("coupling must be nonzero")
        if self.samples < 2:
            raise ValueError("need at least 2 fidelity samples")

    @property
    def genome_length(self) -> int:
        return (self.n + 1) // 2

    def to_dict(self) -> dict:
        return {**asdict(self), "bounds": list(self.bounds)}

    @classmethod
    def from_dict(cls, d: dict) -> "GAConfig":
        try:
            kwargs = dict(d)
            if "bounds" in kwargs:
                kwargs["bounds"] = tuple(kwargs["bounds"])
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"malformed GA config: {exc}") from exc


@dataclass(frozen=True)
class GAIndividual:
    """Free half of a palindromic on-site profile, plus the fixed coupling."""

    genome: tuple[float, ...]
    coupling: float = 1.0

    def expand_onsite(self, n: int) -> np.ndarray:
        g = np.asarray(self.genome)
        if len(g) != (n + 1) // 2:
            raise ValueError(f"genome length {len(g)} does not fit n={n}")
        return np.concatenate([g, g[: n - len(g)][::-1]])

    def to_chain(self, n: int, sign_convention: str = "negative") -> ChainSpec:
        onsite = self.expand_onsite(n)
        couplings = tuple([abs(self.coupling)] * (n - 1))
        return ChainSpec(onsite=tuple(onsite), couplings=couplings,
                         sign_convention=sign_convention)


@dataclass(frozen=True)
class FitnessReport:
    fitness: float
    f_max: float
    upsilon: float
    q: float
    sigma: float
    best_time: float


@dataclass(frozen=True)
class GAReport:
    """Outcome of a run: the best individual and the per-generation audit."""

    best: GAIndividual
    best_report: FitnessReport
    history: list[dict] = field(default_factory=list)
    config: GAConfig | None = None

    def best_chain(self) -> ChainSpec:
        return self.best.to_chain(self.config.n)


def q_factor(s: Spectrum) -> float:
    """Top gap over the geometric mean of the remaining gaps (1/p when pinched)."""
    if s.n < 3:
        raise ValueError("q_factor needs at least 3 eigenvalues")
    return float(_spectral_scores(np.array([s.values]))[0][0])


def sigma_lambda(s: Spectrum) -> float:
    """Spread of the level spacings away from the pinch (population std)."""
    if s.n < 4:
        raise ValueError("sigma_lambda needs at least 4 eigenvalues")
    return float(_spectral_scores(np.array([s.values]))[1][0])


def mutation_rate(g: int, cfg: GAConfig) -> float:
    """Linear anneal from mu_i at generation 0 to mu_f at the final generation."""
    if not 0 <= g <= cfg.generations:
        raise ValueError(f"generation {g} outside [0, {cfg.generations}]")
    if cfg.generations == 0:
        return cfg.mu_i
    return cfg.mu_i - g * (cfg.mu_i - cfg.mu_f) / cfg.generations


def _spectral_scores(lam: np.ndarray):
    """Q and sigma for every row of a (pop, n) block of ascending eigenvalues.

    Q is the top gap over the geometric mean of the lower gaps; sigma is the
    population std of the lower gaps. ``q_factor`` and ``sigma_lambda`` are
    its one-row cases.
    """
    gaps = np.diff(lam, axis=1)
    lower = gaps[:, :-1]
    q = gaps[:, -1] / np.exp(np.mean(np.log(np.maximum(lower, 1e-300)), axis=1))
    sigma = np.std(lower, axis=1)
    return q, sigma


def _evaluate_block(genomes: np.ndarray, cfg: GAConfig):
    """Fitness of every genome in a (pop, half) block.

    A genome is the top half of a palindromic chain's diagonal, so each chain
    is solved as its even and odd half-size mirror blocks
    (``chain.mirror_spectra``). The (lam, w) pairs stay in block order for
    ``dynamics.fidelity_grid``, taken over chunks of genomes to bound memory;
    the gap scores sort the eigenvalues.
    """
    pop = genomes.shape[0]
    off = np.full((pop, cfg.n // 2), -abs(cfg.coupling))
    lam, w = mirror_spectra(genomes, off, cfg.n)
    # the window is in t*J_max units; with |J| uniform, J_max = |coupling|
    dt = cfg.window / (cfg.samples - 1) / abs(cfg.coupling)
    f_max = np.empty(pop)
    t_best = np.empty(pop)
    for lo in range(0, pop, FITNESS_GRID_CHUNK):
        chunk = slice(lo, lo + FITNESS_GRID_CHUNK)
        f = fidelity_grid(lam[chunk], w[chunk], dt, cfg.samples)
        best_idx = np.argmax(f, axis=1)
        f_max[chunk] = f[np.arange(len(f)), best_idx]
        t_best[chunk] = best_idx * (cfg.window / (cfg.samples - 1))

    q, sigma = _spectral_scores(np.sort(lam, axis=1))
    upsilon = np.abs(q - 1.0 / cfg.p) + sigma
    denom = cfg.a * f_max + cfg.b * upsilon
    with np.errstate(divide="ignore", invalid="ignore"):
        fitness = np.where(denom > 0.0,
                           (cfg.a * f_max - cfg.b * upsilon) / denom, 0.0)
    fitness = np.where(np.isfinite(fitness), fitness, -np.inf)
    return fitness, f_max, upsilon, q, sigma, t_best


def fitness(ind: GAIndividual, cfg: GAConfig) -> FitnessReport:
    """Score a single individual exactly as the evolution loop would."""
    genome = np.asarray(ind.genome)[None, :]
    scores = _evaluate_block(genome, replace(cfg, coupling=ind.coupling))
    return FitnessReport(*(float(s[0]) for s in scores))


def _parabolic_genome(cfg: GAConfig) -> np.ndarray:
    # discrete potential well: high ends, low center, spanning the bounds
    lo, hi = cfg.bounds
    n, half = cfg.n, cfg.genome_length
    i = np.arange(half, dtype=float)
    center = (n - 1) / 2.0
    profile = ((i - center) / center) ** 2
    return lo + 0.25 * (hi - lo) + 0.5 * (hi - lo) * profile


def evolve(cfg: GAConfig, initial: np.ndarray | None = None) -> GAReport:
    """Run the generational loop; deterministic for a given seed.

    Rank selection keeps the top half, pairs parents at random, crosses them
    uniformly (each gene from either parent with equal odds), then mutates
    genes with probability mu(g) by a Gaussian step whose width anneals with
    the mutation rate. The best individual always survives unchanged.
    ``initial`` warm-starts the population instead of uniform random draws.

    Each generation scores only its new genomes. A child equal to one of its
    parents (no gene mutated, or every mutated gene clipped back to the
    parent's value) is that parent's genome and inherits its scores, and so
    does the elite; the rest go through ``_evaluate_block`` as one block.
    Scores depend on a row's genome alone, never on its block neighbours, so
    the search is the same as rescoring everything.
    """
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.bounds
    half = cfg.genome_length
    pop = cfg.population

    if initial is not None:
        genomes = np.array(initial, dtype=float)
        if genomes.shape != (pop, half):
            raise ValueError(f"initial population must have shape {(pop, half)}, "
                             f"got {genomes.shape}")
    else:
        genomes = rng.uniform(lo, hi, size=(pop, half))
    if cfg.seed_parabolic:
        genomes[0] = _parabolic_genome(cfg)

    scores = _evaluate_block(genomes, cfg)
    history = []

    def record(generation: int):
        fit = scores[0]
        j = int(np.argmax(fit))
        history.append({
            "generation": generation,
            "best_f": float(fit[j]),
            "best_Fmax": float(scores[1][j]),
            "best_Q": float(scores[3][j]),
            "best_sigma": float(scores[4][j]),
        })
        return j

    record(0)
    for g in range(1, cfg.generations + 1):
        mu = mutation_rate(g, cfg)
        order = np.argsort(-scores[0], kind="stable")
        elite = genomes[order[0]].copy()
        parents = genomes[order[: pop // 2]]

        ia = rng.integers(0, pop // 2, size=pop - 1)
        ib = rng.integers(0, pop // 2, size=pop - 1)
        take_a = rng.random((pop - 1, half)) < 0.5
        pa, pb = parents[ia], parents[ib]
        children = np.where(take_a, pa, pb)

        mutate = rng.random((pop - 1, half)) < mu
        width = cfg.mutation_width_frac * (hi - lo)
        if cfg.mu_i > 0:
            width *= mu / cfg.mu_i
        children = children + mutate * rng.normal(0.0, 1.0, size=(pop - 1, half)) * width
        np.clip(children, lo, hi, out=children)

        genomes = np.vstack([elite[None, :], children])
        # a row equal to a parent is that parent's genome: copy its scores;
        # the rest (src -1) are scored below
        src = np.empty(pop, dtype=np.intp)
        src[0] = order[0]
        src[1:] = np.where((children == pa).all(axis=1), order[ia],
                           np.where((children == pb).all(axis=1), order[ib], -1))
        fresh = np.flatnonzero(src < 0)
        scores = tuple(column[src] for column in scores)
        if fresh.size:
            for column, new in zip(scores, _evaluate_block(genomes[fresh], cfg)):
                column[fresh] = new
        record(g)

    j = int(np.argmax(scores[0]))
    best = GAIndividual(genome=tuple(genomes[j]), coupling=cfg.coupling)
    best_report = FitnessReport(*(float(s[j]) for s in scores))
    return GAReport(best=best, best_report=best_report, history=history, config=cfg)
