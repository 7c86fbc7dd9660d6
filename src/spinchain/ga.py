"""Genetic optimization of mirror-symmetric on-site profiles.

The chain keeps strictly uniform couplings; only the on-site energies evolve.
A genome is the free half of a palindromic profile. Fitness rewards the best
transfer fidelity seen inside the evaluation window and penalizes deviation
of the spectrum from the target pinched shape (top gap 1/p of the rest,
lower gaps equal).

Scoring runs in two stages: the batched spectral solve and gap scores of
every new genome, then the fidelity grid. The spectrum alone bounds the
fitness (F <= 1), so ``evolve`` grids only the genomes that selection could
still keep; ``_evaluate_block`` and ``fitness`` grid every row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .chain import ChainSpec, mirror_spectra
from .dynamics import fidelity_grid
from .errors import integer, odd_pinch, positive, real, reals
from .spectra import Spectrum

FITNESS_GRID_CHUNK = 32  # a 32-genome amp block (~1 MB at 2001 samples) stays in L2
# A palindromic chain's end weights have magnitudes summing to 1, so every grid
# F is at most 1 up to rounding and fitness at F_CEILING bounds a row's fitness.
F_CEILING = 1.0 + 1e-9
# A row skips the grid only when its bound is this far below the k-th best
# fitness: the margin absorbs rounding in the fitness formula, and no skipped
# row can tie a kept one.
PRUNE_MARGIN = 1e-9


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
        for name in ("n", "p", "generations", "population", "samples", "seed"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        for name in ("mu_i", "mu_f", "a", "b", "coupling", "mutation_width_frac"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        object.__setattr__(self, "window", positive("window", self.window))
        object.__setattr__(self, "bounds", reals("bounds", self.bounds))
        if len(self.bounds) != 2 or self.bounds[1] <= self.bounds[0]:
            raise ValueError(f"bounds must be an increasing pair, got {self.bounds!r}")
        if type(self.seed_parabolic) is not bool:
            raise ValueError(f"seed_parabolic must be a bool, got {self.seed_parabolic!r}")
        for name in ("a", "b", "mutation_width_frac"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if self.n < 4:
            raise ValueError("GA spectral penalty needs at least 4 sites")
        odd_pinch(self.p)
        if self.generations < 0:
            raise ValueError("generations must be nonnegative")
        if self.population < 2 or self.population % 2 != 0:
            raise ValueError("population must be even and at least 2")
        if not self.mu_i >= self.mu_f >= 0.0:
            raise ValueError("need mu_i >= mu_f >= 0")
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
            return cls(**dict(d))
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
        couplings = (abs(self.coupling),) * (n - 1)
        return ChainSpec(onsite=self.expand_onsite(n), couplings=couplings,
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


def _spectral_stage(genomes: np.ndarray, cfg: GAConfig):
    """Spectra and spectral scores of every genome in a (rows, half) block.

    A genome is the top half of a palindromic chain's diagonal, so each chain
    is solved as its even and odd half-size mirror blocks
    (``chain.mirror_spectra``). Returns ``lam`` and ``w`` in block order, for
    ``_grid_stage``, and upsilon, Q and sigma, from the sorted eigenvalues.
    """
    off = np.full((genomes.shape[0], cfg.n // 2), -abs(cfg.coupling))
    lam, w = mirror_spectra(genomes, off, cfg.n)
    q, sigma = _spectral_scores(np.sort(lam, axis=1))
    upsilon = np.abs(q - 1.0 / cfg.p) + sigma
    return lam, w, upsilon, q, sigma


def _grid_stage(lam: np.ndarray, w: np.ndarray, cfg: GAConfig):
    """Grid F_max and its t*J_max for every row of ``_spectral_stage``'s
    (lam, w), all in one ``dynamics.fidelity_grid`` call: a caller passes at
    most FITNESS_GRID_CHUNK rows, which bounds its memory."""
    step = cfg.window / (cfg.samples - 1)
    # the window is in t*J_max units; with |J| uniform, J_max = |coupling|
    f = fidelity_grid(lam, w, step / abs(cfg.coupling), cfg.samples)
    best = np.argmax(f, axis=1)
    return f[np.arange(len(f)), best], best * step


def _shaped(f_max, upsilon: np.ndarray, cfg: GAConfig) -> np.ndarray:
    """(a F - b upsilon) / (a F + b upsilon), 0 where the denominator is not
    positive and -inf where the quotient is not finite."""
    denom = cfg.a * f_max + cfg.b * upsilon
    with np.errstate(divide="ignore", invalid="ignore"):
        fitness = np.where(denom > 0.0,
                           (cfg.a * f_max - cfg.b * upsilon) / denom, 0.0)
    return np.where(np.isfinite(fitness), fitness, -np.inf)


def _evaluate_block(genomes: np.ndarray, cfg: GAConfig):
    """Fitness, F_max, upsilon, Q, sigma and best time of every genome in a
    (pop, half) block: the full scorer, every row through the grid, one
    FITNESS_GRID_CHUNK of rows at a time."""
    lam, w, upsilon, q, sigma = _spectral_stage(genomes, cfg)
    f_max, t_best = np.empty(len(lam)), np.empty(len(lam))
    for lo in range(0, len(lam), FITNESS_GRID_CHUNK):
        rows = slice(lo, lo + FITNESS_GRID_CHUNK)
        f_max[rows], t_best[rows] = _grid_stage(lam[rows], w[rows], cfg)
    return _shaped(f_max, upsilon, cfg), f_max, upsilon, q, sigma, t_best


def _score_fresh(scores, genomes: np.ndarray, fresh: np.ndarray, k: int,
                 cfg: GAConfig) -> None:
    """Score rows ``fresh`` of a population in place, gridding only rows that
    can still rank among the top ``k``.

    Every fresh row gets its spectral scores. Rows then reach the grid in
    descending fitness bound (``_shaped`` at F = F_CEILING), one
    FITNESS_GRID_CHUNK at a time, while the bound is at least the k-th best
    fitness known so far less PRUNE_MARGIN. The rest keep fitness -inf and
    NaN F_max and best time: each one's fitness is below that k-th best, so
    it is outside the top k.
    """
    fit, f_max, upsilon, q, sigma, t_best = scores
    lam, w, ups, q[fresh], sigma[fresh] = _spectral_stage(genomes[fresh], cfg)
    upsilon[fresh] = ups
    fit[fresh] = -np.inf
    f_max[fresh] = t_best[fresh] = np.nan
    bound = _shaped(F_CEILING, ups, cfg)
    rank = np.argsort(-bound, kind="stable")
    kth = fit.size - k
    for lo in range(0, rank.size, FITNESS_GRID_CHUNK):
        threshold = np.partition(fit, kth)[kth] - PRUNE_MARGIN
        chunk = rank[lo:lo + FITNESS_GRID_CHUNK]
        chunk = chunk[bound[chunk] >= threshold]
        if not chunk.size:
            break
        rows = fresh[chunk]
        f_max[rows], t_best[rows] = _grid_stage(lam[chunk], w[chunk], cfg)
        fit[rows] = _shaped(f_max[rows], ups[chunk], cfg)


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
    does the elite. The rest are solved as one block (``_spectral_stage``),
    and reach the fidelity grid only while they can still rank among the top
    k, the rows the loop reads: k = population/2, or 1 in the final
    generation (generation 0 when ``generations`` is 0). A palindrome's grid
    F never exceeds 1 + rounding, and for finite a, b >= 0 fitness does not
    decrease with F, so fitness at F = F_CEILING bounds each row. Rows go to
    the grid in descending bound until a bound falls PRUNE_MARGIN below the
    k-th best fitness known (inherited rows first, then each gridded chunk).
    A row left off holds fitness -inf and NaN F_max and best time; its true
    fitness is below the k-th best, so selection, the elite, the history and
    the best never read it. Scores depend on a row's genome alone, never on
    its block neighbours, so the search is the same as rescoring everything.
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

    # selection reads the top half of every generation but the final one,
    # which is read only for its best row
    def keep(g: int) -> int:
        return 1 if g == cfg.generations else pop // 2

    scores = tuple(np.empty(pop) for _ in range(6))
    _score_fresh(scores, genomes, np.arange(pop), keep(0), cfg)
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
            _score_fresh(scores, genomes, fresh, keep(g), cfg)
        record(g)

    j = int(np.argmax(scores[0]))
    best = GAIndividual(genome=tuple(genomes[j]), coupling=cfg.coupling)
    best_report = FitnessReport(*(float(s[j]) for s in scores))
    return GAReport(best=best, best_report=best_report, history=history, config=cfg)
